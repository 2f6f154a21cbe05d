"""Composition algebra for difference and differential operators.

A DifferenceOperator is a finite sum coeff_K(lambda) * T_K where T_K shifts
lambda by hbar * sum_i K_i epsbar_i; keys are canonicalized modulo (1,...,1)
because sum_i epsbar_i = 0.  An operator is its key set and one batch-first
coefficient table: table(lams) returns {K: array of coeff_K(lams[s])} over
a whole batch of points.  diff_op is the only builder from closures: it maps
scalar coefficient closures over the batch.  Sums, products and determinants
build their table from their operands' tables, reading each operand's table
once per batch: a composition a b reads b once, on the batch of every point
lams[s] shifted by every key of a, and its key sums are fixed when it is
built.

An OperatorMatrix is a matrix of difference operators kept as one table:
table(lams) returns the array A[s, key, i, j] over one key set shared by
every entry, and entry(i, j) is the DifferenceOperator view of one entry.
The L-operator, its fusions, the Lax matrix and the Sekiguchi matrix are
OperatorMatrix tables.  normal_det reads its matrix's table once per batch
and sums the signed products over permutations in one contraction
(signed_products); a fixed 0/1 matrix (key_map) then adds each ordered
tuple of keys onto its canonical key.  The fused traces of transfer use the
same two steps.  No symbolic simplification is attempted, and operator
equality is decided numerically on generic sample points (coefficients are
finite products of theta values, so meromorphic, and vanishing on a dozen
random points decides vanishing).

A DifferentialOperator is a finite sum coeff_alpha(lambda) * d^alpha of the
same shape: jets(lam, order) returns exact Taylor jets {alpha: Jet} of all
its coefficients at one point, so the Leibniz rule never needs numerical
differentiation, and every combinator reads each operand once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable

import numpy as np

from .context import ModularContext
from .theta import Residual
from .weights import WeightPoint, canonical_key

_EPS = 1e-300


# ----------------------------------------------------------- difference ops

@dataclass(frozen=True)
class DifferenceOperator:
    """Finite sum of coefficient times shift.

    terms holds the canonical shift keys; table(lams) returns the
    coefficients of every one of them at the points lams as a dict
    {key: complex array over lams}.  Callers never write into those arrays.
    """

    n: int
    terms: tuple
    table: Callable

    def coeff(self, key, lam: WeightPoint) -> complex:
        value = self.table([lam]).get(canonical_key(key))
        return 0.0 + 0.0j if value is None else complex(value[0])

    def keys(self):
        return sorted(self.terms)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square matrix of difference operators kept as one table.

    n is the rank of the weight space and size the matrix dimension; terms
    holds the canonical shift keys shared by every entry, and table(lams)
    returns the array A[s, key, i, j], the coefficient of T_key in the entry
    (i, j) at lams[s] (zero where the entry lacks that key).  Callers never
    write into that array.
    """

    n: int
    size: int
    terms: tuple
    table: Callable

    def entry(self, i: int, j: int) -> DifferenceOperator:
        """The entry (i, j) as an operator; its batch reads the whole table."""
        def table(lams):
            a = self.table(lams)
            return {key: a[:, k, i, j] for k, key in enumerate(self.terms)}
        return DifferenceOperator(self.n, self.terms, table)


def _accumulate(out: dict, key, value) -> None:
    out[key] = out[key] + value if key in out else value


def diff_op(n: int, items) -> DifferenceOperator:
    """Build an operator from (key, coefficient closure) pairs; each closure
    is mapped over the points of a batch."""
    items = [(canonical_key(key), fn) for key, fn in items]

    def table(lams):
        out = {}
        for key, fn in items:
            _accumulate(out, key,
                        np.array([fn(lam) for lam in lams], dtype=complex))
        return out
    return DifferenceOperator(n, tuple(dict.fromkeys(k for k, _ in items)),
                              table)


def scalar_op(n: int, value) -> DifferenceOperator:
    """Multiplication by the constant value."""
    zero, const = (0,) * n, complex(value)
    return DifferenceOperator(
        n, (zero,), lambda lams: {zero: np.full(len(lams), const)})


def identity_op(n: int) -> DifferenceOperator:
    return scalar_op(n, 1.0)


def op_add(*ops: DifferenceOperator) -> DifferenceOperator:
    def table(lams):
        out = {}
        for op in ops:
            for key, value in op.table(lams).items():
                _accumulate(out, key, value)
        return out
    keys = dict.fromkeys(key for op in ops for key in op.terms)
    return DifferenceOperator(ops[0].n, tuple(keys), table)


def _product(a: DifferenceOperator, b: DifferenceOperator,
             hbar=None) -> DifferenceOperator:
    """Keys add and coefficients multiply: c_a(lam) c_b(lam + hbar K_a).

    With hbar the product is the composition a after b, and b is read once,
    on the batch of every lams[s] shifted by every key of a; with hbar None,
    b is read at lams itself (the normal product, all shifts moved right).
    """
    sums = [(ia, ka, kb, canonical_key([x + y for x, y in zip(ka, kb)]))
            for ia, ka in enumerate(a.terms) for kb in b.terms]

    def table(lams):
        ta = a.table(lams)
        if hbar is None:
            tb = b.table(lams)
            right = lambda ia, kb: tb[kb]
        else:
            count = len(lams)
            tb = b.table([lam.shifted(ka, hbar)
                          for ka in a.terms for lam in lams])
            right = lambda ia, kb: tb[kb][ia * count:(ia + 1) * count]
        out = {}
        for ia, ka, kb, key in sums:
            _accumulate(out, key, ta[ka] * right(ia, kb))
        return out
    keys = dict.fromkeys(key for _, _, _, key in sums)
    return DifferenceOperator(a.n, tuple(keys), table)


def op_scale(op: DifferenceOperator, factor) -> DifferenceOperator:
    """Left multiplication by factor: a constant, or an operator whose only
    key is the identity shift (a batch-first scalar)."""
    if not isinstance(factor, DifferenceOperator):
        factor = scalar_op(op.n, factor)
    return _product(factor, op)


def apply_batch(op: DifferenceOperator, f, lams,
                ctx: ModularContext) -> np.ndarray:
    """(op f)(lams[s]) = sum_K coeff_K(lams[s]) f(lams[s] + hbar K . epsbar)
    over a batch of points, reading the table of op once."""
    lams = list(lams)
    total = np.zeros(len(lams), dtype=complex)
    for key, c in op.table(lams).items():
        total += c * np.array([f(lam.shifted(key, ctx.hbar)) for lam in lams])
    return total


def apply_matrix(matrix: OperatorMatrix, f, lams,
                 ctx: ModularContext) -> np.ndarray:
    """[(M_ij f)(lams[s])]_{s, i, j}: apply_batch of every entry of the
    matrix, reading its table once."""
    lams = list(lams)
    a = matrix.table(lams)
    total = np.zeros((len(lams), matrix.size, matrix.size), dtype=complex)
    for k, key in enumerate(matrix.terms):
        values = np.array([f(lam.shifted(key, ctx.hbar)) for lam in lams])
        total += a[:, k] * values[:, None, None]
    return total


def apply_op(op: DifferenceOperator, f, lam: WeightPoint,
             ctx: ModularContext) -> complex:
    """(op f)(lambda), the batch of one."""
    return complex(apply_batch(op, f, [lam], ctx)[0])


def compose(a: DifferenceOperator, b: DifferenceOperator,
            ctx: ModularContext) -> DifferenceOperator:
    """a after b: coefficient c_a(lam) c_b(lam + hbar K_a), keys add."""
    return _product(a, b, ctx.hbar)


def operator_residual(a, b, samples, ctx: ModularContext) -> Residual:
    """Max coefficient difference over keys and samples, relative to scale.

    a and b are both DifferenceOperators or both DifferentialOperators;
    either kind exposes its keys as terms and its coefficients on a batch
    of points as table, which is read once per operator.
    """
    samples = list(samples)
    ta, tb = a.table(samples), b.table(samples)
    zero = np.zeros(len(samples), dtype=complex)
    keys = list(dict.fromkeys([*a.terms, *b.terms]))
    ca = np.array([ta.get(key, zero) for key in keys])
    cb = np.array([tb.get(key, zero) for key in keys])
    worst = float(np.max(np.abs(ca - cb)))
    scale = max(float(np.max(np.abs(ca))), float(np.max(np.abs(cb))))
    return Residual(rel=worst / (scale + _EPS), abs=worst)


def commutator_residual(a: DifferenceOperator, b: DifferenceOperator,
                        samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(compose(a, b, ctx), compose(b, a, ctx),
                             samples, ctx)


def key_map(raw_keys):
    """The canonical keys of raw shift vectors, in order of first
    appearance, and the 0/1 matrix Q[key, t] that adds the coefficient of
    raw_keys[t] onto its canonical key."""
    canon = [canonical_key(key) for key in raw_keys]
    keys = tuple(dict.fromkeys(canon))
    index = {key: a for a, key in enumerate(keys)}
    q = np.zeros((len(keys), len(canon)))
    q[[index[key] for key in canon], np.arange(len(canon))] = 1.0
    return keys, q


def signed_products(factors, signs) -> np.ndarray:
    """sum_z prod_r factors[r][..., z] signs[z, ...]: the products of one
    term z of a signed sum (a permutation, or a subset and a permutation),
    contracted with its signs over the last axis."""
    prod = factors[0]
    for factor in factors[1:]:
        prod = prod * factor
    return prod @ signs


def normal_det(matrix: OperatorMatrix, t: complex,
               ctx: ModularContext) -> DifferenceOperator:
    """Normal-ordered determinant of [matrix - t].

    Within each permutation product all shift operators are moved to the
    right, so coefficients multiply as plain functions of the same lambda.
    Row i contributes one key of the matrix (the identity key carries -t on
    the diagonal), so the coefficient of an ordered key tuple (K_0..K_{n-1})
    is sum_sigma sgn(sigma) prod_i M[K_i, i, sigma(i)], and the key map adds
    it onto the canonical key of K_0 + ... + K_{n-1}.  The matrix's table is
    read once per batch.
    """
    nn, size = matrix.n, matrix.size
    zero = (0,) * nn
    keys = tuple(dict.fromkeys((zero,) + matrix.terms))
    slots = [keys.index(key) for key in matrix.terms]
    tuples = np.array(list(product(range(len(keys)), repeat=size)))  # (T, n)
    out_keys, keymap = key_map(
        [[sum(keys[a][x] for a in tup) for x in range(nn)] for tup in tuples])
    perms = np.array(list(permutations(range(size))))               # (P, n)
    signs = np.array([perm_sign(p) for p in perms], dtype=float)
    diag = np.arange(size)

    def table(lams):
        m = np.zeros((len(lams), len(keys), size, size), dtype=complex)
        m[:, slots] = matrix.table(lams)
        m[:, 0, diag, diag] -= t
        # factor r: M[s, K_r, r, sigma(r)] over (ordered key tuple, sigma)
        coeffs = signed_products(
            [m[:, tuples[:, r][:, None], r, perms[:, r][None, :]]
             for r in range(size)], signs) @ keymap.T
        return {key: coeffs[:, a] for a, key in enumerate(out_keys)}
    return DifferenceOperator(nn, out_keys, table)


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ------------------------------------------------------------------- jets

def monomials(n: int, order: int):
    """All multi-indices of total degree <= order (graded lexicographic)."""
    out = [()]
    for _ in range(n):
        out = [m + (d,) for m in out for d in range(order + 1 - sum(m))]
    return sorted((m for m in out), key=lambda m: (sum(m), m))


def _mfact(alpha) -> float:
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out


class Jet:
    """Truncated multivariate Taylor expansion (coefficients, not derivatives)."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n: int, order: int, coeffs=None):
        self.n = n
        self.order = order
        self.coeffs = dict(coeffs) if coeffs else {}

    @staticmethod
    def constant(n: int, order: int, value: complex) -> "Jet":
        return Jet(n, order, {(0,) * n: complex(value)})

    @property
    def value(self) -> complex:
        return self.coeffs.get((0,) * self.n, 0.0 + 0.0j)

    def deriv(self, alpha) -> complex:
        """The derivative d^alpha f, i.e. coefficient times alpha factorial."""
        return self.coeffs.get(tuple(alpha), 0.0 + 0.0j) * _mfact(alpha)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(self.n, self.order, other)

    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        out = Jet(self.n, order)
        for src in (self.coeffs, other.coeffs):
            for k, v in src.items():
                if sum(k) <= order:
                    out.coeffs[k] = out.coeffs.get(k, 0.0) + v
        return out

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            z = complex(other)
            return Jet(self.n, self.order,
                       {k: z * v for k, v in self.coeffs.items()})
        order = min(self.order, other.order)
        out = Jet(self.n, order)
        for k1, v1 in self.coeffs.items():
            if sum(k1) > order:
                continue
            for k2, v2 in other.coeffs.items():
                tot = tuple(a + b for a, b in zip(k1, k2))
                if sum(tot) <= order:
                    out.coeffs[tot] = out.coeffs.get(tot, 0.0) + v1 * v2
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / complex(other))
        order = min(self.order, other.order)
        b0 = other.value
        out = Jet(self.n, order)
        for m in monomials(self.n, order):
            acc = self.coeffs.get(m, 0.0 + 0.0j)
            for k, v in out.coeffs.items():
                diff = tuple(a - b for a, b in zip(m, k))
                if any(d < 0 for d in diff) or all(d == 0 for d in diff):
                    continue
                acc -= other.coeffs.get(diff, 0.0 + 0.0j) * v
            out.coeffs[m] = acc / b0
        return out

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def dshift(self, i: int) -> "Jet":
        """Jet of d_i f, one order lower."""
        out = Jet(self.n, self.order - 1)
        for k, v in self.coeffs.items():
            if k[i] >= 1:
                kk = tuple(a - (1 if j == i else 0) for j, a in enumerate(k))
                if sum(kk) <= out.order:
                    out.coeffs[kk] = v * k[i]
        return out

    def dmulti(self, alpha) -> "Jet":
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.dshift(i)
        return out


def jet_of_affine(derivs, grad) -> Jet:
    """Jet of f(x0 + sum_i grad_i (lambda_i - lam_i)) at lam, to the order
    len(derivs) - 1, from the derivatives derivs[m] = f^(m)(x0)."""
    n, order = len(grad), len(derivs) - 1
    out = Jet(n, order)
    for m in monomials(n, order):
        coef = derivs[sum(m)] / _mfact(m)
        for i, mi in enumerate(m):
            coef *= grad[i] ** mi
        if coef != 0.0:
            out.coeffs[m] = coef
    return out


# --------------------------------------------------------- differential ops

@dataclass(frozen=True)
class DifferentialOperator:
    """Finite sum of coeff_alpha(lambda) d^alpha.

    terms holds the multi-indices alpha; jets(lam, order) returns the Taylor
    jets, to at least that order, of every coefficient at lam as a dict
    {alpha: Jet}.  Callers never write into those jets.
    """

    n: int
    terms: tuple
    jets: Callable

    def coeff(self, alpha, lam: WeightPoint) -> complex:
        jet = self.jets(lam, 0).get(tuple(alpha))
        return 0.0 + 0.0j if jet is None else jet.value

    def table(self, lams) -> dict:
        rows = [self.jets(lam, 0) for lam in lams]
        return {alpha: np.array([row[alpha].value for row in rows],
                                dtype=complex) for alpha in self.terms}

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)


def pdo(n: int, items) -> DifferentialOperator:
    """Sum of (alpha, jet closure (lam, order) -> Jet) items."""
    items = [(tuple(alpha), fn) for alpha, fn in items]

    def jets(lam, order):
        out = {}
        for alpha, fn in items:
            _accumulate(out, alpha, fn(lam, order))
        return out
    return DifferentialOperator(
        n, tuple(dict.fromkeys(alpha for alpha, _ in items)), jets)


def pdo_const_coeff(value: complex):
    """Coefficient closure for a constant."""
    def fn(lam, order):
        return Jet.constant(lam.n, order, value)
    return fn


def pdo_add(*ops: DifferentialOperator) -> DifferentialOperator:
    def jets(lam, order):
        out = {}
        for op in ops:
            for alpha, jet in op.jets(lam, order).items():
                _accumulate(out, alpha, jet)
        return out
    terms = dict.fromkeys(alpha for op in ops for alpha in op.terms)
    return DifferentialOperator(ops[0].n, tuple(terms), jets)


def pdo_scale(op: DifferentialOperator, z: complex) -> DifferentialOperator:
    def jets(lam, order):
        return {alpha: jet * z for alpha, jet in op.jets(lam, order).items()}
    return DifferentialOperator(op.n, op.terms, jets)


def pdo_compose(a: DifferentialOperator, b: DifferentialOperator,
                ctx: ModularContext) -> DifferentialOperator:
    """Leibniz-rule composition a(lam, d) b(lam, d): a_alpha d^alpha b_beta
    d^beta sums C(alpha, gamma) a_alpha (d^(alpha-gamma) b_beta)
    d^(gamma+beta) over gamma <= alpha.  That plan is fixed here; a point
    reads a once and b once, a.order() orders deeper for the derivatives."""
    plan = [(alpha, beta, tuple(x - y for x, y in zip(alpha, gamma)),
             math.prod(map(math.comb, alpha, gamma)),
             tuple(x + y for x, y in zip(gamma, beta)))
            for alpha in a.terms for beta in b.terms
            for gamma in product(*(range(x + 1) for x in alpha))]
    extra = a.order()

    def jets(lam, order):
        ja, jb = a.jets(lam, order), b.jets(lam, order + extra)
        out = {}
        for alpha, beta, rest, mult, key in plan:
            _accumulate(out, key, ja[alpha] * jb[beta].dmulti(rest) * mult)
        return out
    return DifferentialOperator(
        a.n, tuple(dict.fromkeys(key for *_, key in plan)), jets)


def pdo_apply(op: DifferentialOperator, fjet, lam: WeightPoint) -> complex:
    """Apply to a test function given as a jet factory (lam, order) -> Jet."""
    coeffs = op.jets(lam, 0)
    fj = fjet(lam, op.order())
    total = 0.0 + 0.0j
    for alpha in op.terms:
        total += coeffs[alpha].value * fj.deriv(alpha)
    return total


def pdo_commutator_residual(a: DifferentialOperator, b: DifferentialOperator,
                            samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(pdo_compose(a, b, ctx), pdo_compose(b, a, ctx),
                             samples, ctx)


def exp_test_function(vec):
    """f(lambda) = exp(2 pi i <lambda, vec>) with exact jets."""
    import cmath
    tp = 2j * math.pi

    def fjet(lam: WeightPoint, order: int) -> Jet:
        base = cmath.exp(tp * sum(v * c for v, c in zip(vec, lam.coords)))
        out = Jet(lam.n, order)
        for m in monomials(lam.n, order):
            coef = base / _mfact(m)
            for i, mi in enumerate(m):
                coef *= (tp * vec[i]) ** mi
            out.coeffs[m] = coef
        return out
    return fjet
