"""Composition algebra for difference and differential operators.

A DifferenceOperator is a finite sum coeff_K(lambda) * T_K where T_K shifts
lambda by hbar * sum_i K_i epsbar_i; keys are canonicalized modulo (1,...,1)
because sum_i epsbar_i = 0.  An operator is its key set and one coefficient
table, lambda -> {K: coeff_K(lambda)}; sums, products and determinants build
their table from their operands' tables, reading each operand's table once
per point it needs.  No symbolic simplification is attempted, and
operator equality is decided numerically on generic sample points
(coefficients are finite products of theta values, so meromorphic, and
vanishing on a dozen random points decides vanishing).

A DifferentialOperator is a finite sum coeff_alpha(lambda) * d^alpha.  Its
coefficients are jet-valued closures (lam, order) -> Jet supplying exact
Taylor data, so the Leibniz rule in composition never needs numerical
differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from .context import ModularContext
from .theta import Residual
from .weights import WeightPoint, canonical_key

_EPS = 1e-300


# ----------------------------------------------------------- difference ops

@dataclass(frozen=True)
class DifferenceOperator:
    """Finite sum of coefficient times shift.

    terms holds the canonical shift keys; table(lam) returns the coefficient
    of every one of them at lam as a dict {key: complex}.
    """

    n: int
    terms: tuple
    table: Callable

    def coeff(self, key, lam: WeightPoint) -> complex:
        return self.table(lam).get(canonical_key(key), 0.0 + 0.0j)

    def keys(self):
        return sorted(self.terms)


def diff_op(n: int, items) -> DifferenceOperator:
    """Build an operator from (key, coefficient closure) pairs."""
    items = [(canonical_key(key), fn) for key, fn in items]

    def table(lam):
        out = {}
        for key, fn in items:
            out[key] = out.get(key, 0.0 + 0.0j) + fn(lam)
        return out
    return DifferenceOperator(n, tuple(dict.fromkeys(k for k, _ in items)),
                              table)


def identity_op(n: int) -> DifferenceOperator:
    return diff_op(n, [((0,) * n, lambda lam: 1.0 + 0.0j)])


def scalar_op(n: int, fn) -> DifferenceOperator:
    """Multiplication operator by the function fn (fn may be a constant)."""
    if not callable(fn):
        const = complex(fn)
        return diff_op(n, [((0,) * n, lambda lam: const)])
    return diff_op(n, [((0,) * n, fn)])


def op_add(*ops: DifferenceOperator) -> DifferenceOperator:
    def table(lam):
        out = {}
        for op in ops:
            for key, value in op.table(lam).items():
                out[key] = out.get(key, 0.0 + 0.0j) + value
        return out
    keys = dict.fromkeys(key for op in ops for key in op.terms)
    return DifferenceOperator(ops[0].n, tuple(keys), table)


def _product(a: DifferenceOperator, b: DifferenceOperator,
             hbar=None) -> DifferenceOperator:
    """Keys add and coefficients multiply: c_a(lam) c_b(lam + hbar K_a).

    With hbar the product is the composition a after b; with hbar None, b
    is read at lam itself (the normal product, all shifts moved right).
    """
    def table(lam):
        tb = b.table(lam) if hbar is None else None
        out = {}
        for ka, ca in a.table(lam).items():
            right = tb if hbar is None else b.table(lam.shifted(ka, hbar))
            for kb, cb in right.items():
                key = canonical_key([x + y for x, y in zip(ka, kb)])
                out[key] = out.get(key, 0.0 + 0.0j) + ca * cb
        return out
    keys = dict.fromkeys(canonical_key([x + y for x, y in zip(ka, kb)])
                         for ka in a.terms for kb in b.terms)
    return DifferenceOperator(a.n, tuple(keys), table)


def op_scale(op: DifferenceOperator, factor) -> DifferenceOperator:
    """factor may be a scalar or a function of lambda (left multiplication)."""
    return _product(scalar_op(op.n, factor), op)


def apply_op(op: DifferenceOperator, f, lam: WeightPoint,
             ctx: ModularContext) -> complex:
    """(op f)(lambda) = sum_K coeff_K(lambda) f(lambda + hbar K . epsbar)."""
    total = 0.0 + 0.0j
    for key, c in op.table(lam).items():
        total += c * f(lam.shifted(key, ctx.hbar))
    return total


def compose(a: DifferenceOperator, b: DifferenceOperator,
            ctx: ModularContext) -> DifferenceOperator:
    """a after b: coefficient c_a(lam) c_b(lam + hbar K_a), keys add."""
    return _product(a, b, ctx.hbar)


def operator_residual(a, b, samples, ctx: ModularContext) -> Residual:
    """Max coefficient difference over keys and samples, relative to scale.

    a and b are both DifferenceOperators or both DifferentialOperators;
    either kind exposes its keys as terms and its coefficients at a point
    as table.
    """
    keys = set(a.terms) | set(b.terms)
    worst, scale = 0.0, 0.0
    for lam in samples:
        ta, tb = a.table(lam), b.table(lam)
        for key in keys:
            ca, cb = ta.get(key, 0.0 + 0.0j), tb.get(key, 0.0 + 0.0j)
            worst = max(worst, abs(ca - cb))
            scale = max(scale, abs(ca), abs(cb))
    return Residual(rel=worst / (scale + _EPS), abs=worst)


def commutator_residual(a: DifferenceOperator, b: DifferenceOperator,
                        samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(compose(a, b, ctx), compose(b, a, ctx),
                             samples, ctx)


def normal_det(entries, t: complex, ctx: ModularContext) -> DifferenceOperator:
    """Normal-ordered determinant of [entries[i][j] - t delta_ij].

    entries is an n x n nested list of DifferenceOperators; within each
    permutation product all shift operators are moved to the right, so
    coefficients multiply as plain functions of the same lambda.
    """
    n = len(entries)
    nn = entries[0][0].n
    shifted = [[entries[i][j] if i != j
                else op_add(entries[i][j], scalar_op(nn, -t))
                for j in range(n)] for i in range(n)]
    parts = []
    for perm in permutations(range(n)):
        prod = scalar_op(nn, perm_sign(perm))
        for i in range(n):
            prod = _product(prod, shifted[i][perm[i]])
        parts.append(prod)
    return op_add(*parts)


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


def jet_of_affine(derivs, const: complex, grad, lam: WeightPoint, order: int) -> Jet:
    """Jet at lam of f(const + sum_i grad_i lambda_i); derivs(m) = f^(m)(x0)."""
    n = lam.n
    x0 = const + sum(g * c for g, c in zip(grad, lam.coords))
    out = Jet(n, order)
    for m in monomials(n, order):
        tot = sum(m)
        coef = derivs(tot) / _mfact(m)
        for i, mi in enumerate(m):
            coef *= grad[i] ** mi
        if coef != 0.0:
            out.coeffs[m] = coef
    return out


# --------------------------------------------------------- differential ops

@dataclass(frozen=True)
class DifferentialOperator:
    """Finite sum of coeff_alpha(lambda) d^alpha with jet-valued coefficients.

    Each coefficient entry is a tuple of closures (lam, order) -> Jet.
    """

    n: int
    terms: dict

    def coeff_jet(self, alpha, lam: WeightPoint, order: int) -> Jet:
        fns = self.terms.get(tuple(alpha), ())
        out = Jet.constant(lam.n, order, 0.0)
        for f in fns:
            out = out + f(lam, order)
        return out

    def coeff(self, alpha, lam: WeightPoint) -> complex:
        return self.coeff_jet(alpha, lam, 0).value

    def table(self, lam: WeightPoint) -> dict:
        return {alpha: self.coeff(alpha, lam) for alpha in self.terms}

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)


def pdo(n: int, items) -> DifferentialOperator:
    terms = {}
    for alpha, fn in items:
        terms[tuple(alpha)] = terms.get(tuple(alpha), ()) + (fn,)
    return DifferentialOperator(n, terms)


def pdo_const_coeff(value: complex):
    """Coefficient closure for a constant."""
    def fn(lam, order):
        return Jet.constant(lam.n, order, value)
    return fn


def pdo_add(*ops: DifferentialOperator) -> DifferentialOperator:
    terms = {}
    for op in ops:
        for alpha, fns in op.terms.items():
            terms[alpha] = terms.get(alpha, ()) + fns
    return DifferentialOperator(ops[0].n, terms)


def pdo_scale(op: DifferentialOperator, z: complex) -> DifferentialOperator:
    items = []
    for alpha, fns in op.terms.items():
        def fn(lam, order, _fns=fns):
            out = Jet.constant(lam.n, order, 0.0)
            for f in _fns:
                out = out + f(lam, order)
            return out * z
        items.append((alpha, fn))
    return pdo(op.n, items)


def _binom_multi(alpha, gamma) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= math.comb(a, g)
    return out


def _sub_indices(alpha):
    """All gamma <= alpha componentwise."""
    out = [()]
    for a in alpha:
        out = [g + (d,) for g in out for d in range(a + 1)]
    return out


def pdo_compose(a: DifferentialOperator, b: DifferentialOperator,
                ctx: ModularContext) -> DifferentialOperator:
    """Leibniz-rule composition a(lam, d) b(lam, d)."""
    items = []
    for alpha, fas in a.terms.items():
        for beta, fbs in b.terms.items():
            for gamma in _sub_indices(alpha):
                rest = tuple(x - y for x, y in zip(alpha, gamma))
                mult = _binom_multi(alpha, gamma)
                key = tuple(x + y for x, y in zip(gamma, beta))

                def fn(lam, order, _fas=fas, _fbs=fbs, _rest=rest, _mult=mult):
                    aj = Jet.constant(lam.n, order, 0.0)
                    for f in _fas:
                        aj = aj + f(lam, order)
                    bj = Jet.constant(lam.n, order + sum(_rest), 0.0)
                    for f in _fbs:
                        bj = bj + f(lam, order + sum(_rest))
                    return aj * bj.dmulti(_rest) * _mult
                items.append((key, fn))
    return pdo(a.n, items)


def pdo_apply(op: DifferentialOperator, fjet, lam: WeightPoint) -> complex:
    """Apply to a test function given as a jet factory (lam, order) -> Jet."""
    total = 0.0 + 0.0j
    for alpha in op.terms:
        total += op.coeff(alpha, lam) * fjet(lam, sum(alpha)).deriv(alpha)
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
