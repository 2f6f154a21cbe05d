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
same shape: table(lams, order) returns {alpha: J[s, m]}, the exact Taylor
jets of every coefficient over a batch of points, so the Leibniz rule never
needs numerical differentiation, and every combinator reads each operand's
table once per batch.  A jet of a batch is one complex array J[..., m],
m running over monomials(n, order) in graded order; a lower-order jet is a
prefix slice, so the order is implied by the width.  Products, inverses,
derivatives and the jets of affine substitutions are array expressions over
the whole batch, with index plans fixed per (n, order) (truncated
multivariate Taylor arithmetic, as in Griewank and Walther, Evaluating
Derivatives, 2008).
"""

from __future__ import annotations

import functools
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
    of points as table, which is read once per operator.  A difference
    table holds the values over the batch, a differential table their jets
    J[s, m] (at order 0, one column): column 0 of either is read.
    """
    samples = list(samples)
    ta, tb = a.table(samples), b.table(samples)
    zero = np.zeros((len(samples), 1), dtype=complex)
    keys = list(dict.fromkeys([*a.terms, *b.terms]))
    ca, cb = (np.array([np.reshape(t.get(key, zero), (len(samples), -1))[:, 0]
                        for key in keys]) for t in (ta, tb))
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


def jet_order(n: int, width: int) -> int:
    """The order of a jet in n variables with width coefficients."""
    order = 0
    while math.comb(n + order, n) < width:
        order += 1
    return order


@dataclass(frozen=True)
class _JetPlan:
    """Index arrays of the jets of one order in n variables.

    Row m of exps is monomials(n, order)[m], degree[m] its total degree,
    fact[m] its factorial m! and index maps it back to m.  The product of
    two jets adds left[t] * right[t] onto the monomial left[t] + right[t];
    the pairs t are grouped by that monomial, whose group starts at
    starts[monomial].
    """

    exps: np.ndarray
    degree: np.ndarray
    fact: np.ndarray
    index: dict
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray


@functools.lru_cache(maxsize=None)
def _jet_plan(n: int, order: int) -> _JetPlan:
    monos = monomials(n, order)
    index = {m: k for k, m in enumerate(monos)}
    left, right, starts = [], [], []
    for c in monos:
        starts.append(len(left))
        for b in product(*(range(x + 1) for x in c)):
            left.append(index[tuple(x - y for x, y in zip(c, b))])
            right.append(index[b])
    exps = np.array(monos, dtype=int).reshape(len(monos), n)
    return _JetPlan(exps, exps.sum(axis=1),
                    np.array([math.prod(map(math.factorial, m))
                              for m in monos], dtype=float),
                    index, np.array(left), np.array(right), np.array(starts))


@functools.lru_cache(maxsize=None)
def _deriv_gather(n: int, order: int, alpha: tuple) -> tuple:
    """Gather and weights of d^alpha on a jet of that order: entry m of the
    result is (m + alpha)!/m! times entry m + alpha."""
    index = _jet_plan(n, order).index
    monos = monomials(n, order - sum(alpha))
    shifted = [tuple(x + a for x, a in zip(m, alpha)) for m in monos]
    return (np.array([index[m] for m in shifted]),
            np.array([math.prod(map(math.perm, m, alpha)) for m in shifted],
                     dtype=float))


def jet_constant(value, count: int, n: int, order: int) -> np.ndarray:
    """The jets of the constant value at count points."""
    out = np.zeros((count, math.comb(n + order, n)), dtype=complex)
    out[:, 0] = value
    return out


def jet_of_affine(derivs, grad) -> np.ndarray:
    """Jets of f(x0 + sum_i grad_i (lambda_i - lam_i)) at lam, to the order
    derivs.shape[-1] - 1, from derivs[..., k] = f^(k)(x0).  Leading axes of
    derivs and grad[..., i] broadcast (a batch of points, of directions)."""
    derivs = np.asarray(derivs, dtype=complex)
    grad = np.asarray(grad, dtype=complex)
    plan = _jet_plan(grad.shape[-1], derivs.shape[-1] - 1)
    weights = np.prod(grad[..., None, :] ** plan.exps, axis=-1) / plan.fact
    return derivs[..., plan.degree] * weights


def jet_mul(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Product of two jets, to the lower of their orders."""
    plan = _jet_plan(n, jet_order(n, min(x.shape[-1], y.shape[-1])))
    return np.add.reduceat(x[..., plan.left] * y[..., plan.right],
                           plan.starts, axis=-1)


def jet_inv(x: np.ndarray, n: int) -> np.ndarray:
    """1 / x for a jet with nonzero constant term: with x = x0 (1 + N) and
    N nilpotent, the Neumann series 1 - N + N^2 - ... in Horner form."""
    x0 = x[..., :1]
    nil = x / x0
    nil[..., 0] = 0.0
    inv = unit = np.eye(1, x.shape[-1], dtype=complex)[0]     # the jet 1
    for _ in range(jet_order(n, x.shape[-1])):
        inv = unit - jet_mul(nil, inv, n)
    return inv / x0


def jet_deriv(x: np.ndarray, n: int, alpha) -> np.ndarray:
    """The jet of d^alpha f, |alpha| orders lower, from the jet x of f."""
    index, weights = _deriv_gather(n, jet_order(n, x.shape[-1]),
                                   tuple(alpha))
    return x[..., index] * weights


# --------------------------------------------------------- differential ops

@dataclass(frozen=True)
class DifferentialOperator:
    """Finite sum of coeff_alpha(lambda) d^alpha.

    terms holds the multi-indices alpha; table(lams, order=0) returns the
    jets, to exactly that order, of every coefficient at the points lams as
    a dict {alpha: J[s, m]}, m running over monomials(n, order), so column
    0 holds the coefficient values.  Callers never write into those arrays.
    """

    n: int
    terms: tuple
    table: Callable

    def coeff(self, alpha, lam: WeightPoint) -> complex:
        jet = self.table([lam]).get(tuple(alpha))
        return 0.0 + 0.0j if jet is None else complex(jet[0, 0])

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)


def pdo(n: int, items) -> DifferentialOperator:
    """Sum of (alpha, coefficient) items; a coefficient is a constant or a
    jet closure (lams, order) -> J[s, m]."""
    items = [(tuple(alpha), fn) for alpha, fn in items]

    def table(lams, order=0):
        out = {}
        for alpha, fn in items:
            _accumulate(out, alpha, fn(lams, order) if callable(fn) else
                        jet_constant(fn, len(lams), n, order))
        return out
    return DifferentialOperator(
        n, tuple(dict.fromkeys(alpha for alpha, _ in items)), table)


def pdo_add(*ops: DifferentialOperator) -> DifferentialOperator:
    def table(lams, order=0):
        out = {}
        for op in ops:
            for alpha, jet in op.table(lams, order).items():
                _accumulate(out, alpha, jet)
        return out
    terms = dict.fromkeys(alpha for op in ops for alpha in op.terms)
    return DifferentialOperator(ops[0].n, tuple(terms), table)


def pdo_scale(op: DifferentialOperator, z: complex) -> DifferentialOperator:
    def table(lams, order=0):
        return {alpha: jet * z for alpha, jet in op.table(lams, order).items()}
    return DifferentialOperator(op.n, op.terms, table)


def pdo_compose(a: DifferentialOperator, b: DifferentialOperator,
                ctx: ModularContext) -> DifferentialOperator:
    """Leibniz-rule composition a(lam, d) b(lam, d): a_alpha d^alpha b_beta
    d^beta sums C(alpha, gamma) a_alpha (d^(alpha-gamma) b_beta)
    d^(gamma+beta) over gamma <= alpha.  That plan is fixed here; a batch
    reads a once and b once, a.order() orders deeper for the derivatives."""
    n = a.n
    plan = [(alpha, beta, tuple(x - y for x, y in zip(alpha, gamma)),
             math.prod(map(math.comb, alpha, gamma)),
             tuple(x + y for x, y in zip(gamma, beta)))
            for alpha in a.terms for beta in b.terms
            for gamma in product(*(range(x + 1) for x in alpha))]
    extra = a.order()

    def table(lams, order=0):
        ja, jb = a.table(lams, order), b.table(lams, order + extra)
        out = {}
        for alpha, beta, rest, mult, key in plan:
            _accumulate(out, key, jet_mul(ja[alpha],
                                          jet_deriv(jb[beta], n, rest), n)
                        * mult)
        return out
    return DifferentialOperator(
        n, tuple(dict.fromkeys(key for *_, key in plan)), table)


def pdo_apply(op: DifferentialOperator, fjet, lams) -> np.ndarray:
    """(op f)(lams[s]) over a batch, for a test function given by its jet
    table fjet(lams, order) -> J[s, m]."""
    coeffs = op.table(lams)
    fj = fjet(lams, op.order())
    total = np.zeros(len(lams), dtype=complex)
    for alpha in op.terms:
        total += coeffs[alpha][:, 0] * jet_deriv(fj, op.n, alpha)[:, 0]
    return total


def pdo_commutator_residual(a: DifferentialOperator, b: DifferentialOperator,
                            samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(pdo_compose(a, b, ctx), pdo_compose(b, a, ctx),
                             samples, ctx)


def exp_test_function(vec):
    """f(lambda) = exp(2 pi i <lambda, vec>) with exact jets: the jet table
    (lams, order) -> J[s, m]."""
    tp = 2j * math.pi
    vec = np.asarray(vec, dtype=float)

    def fjet(lams, order: int) -> np.ndarray:
        coords = np.array([lam.coords for lam in lams], dtype=complex)
        base = np.exp(tp * (coords @ vec))[:, None]
        if order == 0:      # the values: the one column, without weights
            return base
        return jet_of_affine(np.repeat(base, order + 1, axis=1), tp * vec)
    return fjet
