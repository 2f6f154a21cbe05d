"""Composition algebra for difference and differential operators.

A DifferenceOperator is a finite sum coeff_K(lambda) * T_K where T_K shifts
lambda by hbar * sum_i K_i epsbar_i; keys are canonicalized modulo (1,...,1)
because sum_i epsbar_i = 0.  A DifferentialOperator is a finite sum
coeff_alpha(lambda) * d^alpha.  An operator is its tuple of terms and one
table: table(P) returns one complex array over a batch of points P[s, n]
(weights.canonical rows) whose axis 1 runs over the terms,

    C[s, key, *shape]  a difference operator with scalar (shape ()) or
                       matrix (shape (size, size)) coefficients: the
                       L-operator, its fusions, the Lax and Sekiguchi
                       matrices; entry (i, j) is the slice C[:, :, i, j];
    J[s, term, m]      a differential operator: the exact Taylor jets of its
                       coefficients at the order table(P, order) asks, so
                       the Leibniz rule never needs numerical differentiation.

Sums, products and determinants build their table from their operands'
tables, read once per batch; where several products or operands land on
one term, the 0/1 matrix of key_map, fixed when the operator is built, adds
them (merge_keys), the one key merge.  A composition a b reads b once, on
the batch of every point P[s] shifted by every key of a (one broadcast,
weights.shifted); normal_det gathers the matrix of every ordered key tuple
with index arrays built once per term tuple (_det_plan) and takes all
their determinants in one batched LU (det) before its merge, as the fused
L-operators of transfer do.
A test function takes a batch P[..., n] and returns its values[...];
apply_op calls it once, on every point shifted by every key, so a
product a b acts as apply_op(a, apply_op(b, f)).  No symbolic
simplification is attempted, and operator equality is decided numerically
on generic sample points (coefficients are finite products of theta
values, so meromorphic, and vanishing on a dozen random points decides
vanishing).

A jet of a batch is one complex array J[..., m], m running over
monomials(n, order) in graded order, so column 0 holds the values; a
lower-order jet is a prefix slice, so the order is implied by the width.
Products, inverses, derivatives and the jets of affine substitutions are
array expressions over the whole batch, with index plans fixed per
(n, order) (truncated multivariate Taylor arithmetic, as in Griewank and
Walther, Evaluating Derivatives, 2008).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Callable

import numpy as np

from .context import ModularContext, read_only
from .theta import Residual, max_relative
from .weights import canonical_key, shifted


# ----------------------------------------------------------- difference ops

@dataclass(frozen=True)
class DifferenceOperator:
    """Finite sum of coefficient times shift.

    terms holds the canonical shift keys; table(P) returns the array
    C[s, key, *shape] of the coefficients of every one of them at the points
    P[s, n]: scalars at shape (), matrices at shape (size, size), zero
    where an entry lacks a key.  Callers never write into that array.
    """

    n: int
    terms: tuple
    table: Callable
    shape: tuple = ()

    def coeff(self, key, lam) -> complex:
        """The coefficient of T_key at one point lam[n]: a one-point view
        of table, kept as a name the benchmark traces."""
        key = canonical_key(key)
        if key not in self.terms:
            return 0.0 + 0.0j
        return complex(self.table(np.asarray(lam, dtype=complex)[None])
                       [0, self.terms.index(key)])


def key_map(keys):
    """The distinct keys in order of first appearance, and the 0/1 matrix
    Q[key, t] that adds the coefficient of keys[t] onto its key.  Q is
    complex, as the tables it contracts: an einsum that must cast an
    operand runs through buffers that raise the peak memory."""
    distinct = tuple(dict.fromkeys(keys))
    index = {key: a for a, key in enumerate(distinct)}
    q = np.zeros((len(distinct), len(keys)), dtype=complex)
    q[[index[key] for key in keys], np.arange(len(keys))] = 1.0
    return distinct, q


def merge_keys(q, table) -> np.ndarray:
    """[s, key, ...] = sum_t q[key, t] table[s, t, ...]: the table's axis 1
    contracted with a key map (or a weighted one), each key's terms added
    in the order of t."""
    return np.einsum("kt,st...->sk...", q, table)


def identity_op(n: int) -> DifferenceOperator:
    """The identity, the one key 0 with coefficient 1."""
    return DifferenceOperator(n, ((0,) * n,),
                              lambda P: np.ones((len(P), 1), dtype=complex))


def op_add(*ops):
    """The sum of operators of one kind: their tables side by side along
    axis 1, merged onto the distinct terms."""
    terms, q = key_map([key for op in ops for key in op.terms])

    def table(P, *order):           # order: that of a differential table
        return merge_keys(q, np.concatenate([op.table(P, *order)
                                             for op in ops], axis=1))
    return replace(ops[0], terms=terms, table=table)


def op_scale(op, z):
    """Multiplication of an operator of either kind by the constant z."""
    def table(P, *order):
        return z * op.table(P, *order)
    return replace(op, table=table)


def apply_op(op, f, P, ctx: ModularContext) -> np.ndarray:
    """(op f)(P) = sum_K coeff_K(P) f(P + hbar K . epsbar) at every point
    of P[..., n], or at one point P[n], as values [..., *op.shape, *rest]
    for f one test function or several on the trailing axes rest of its
    values: reads the table of op once and calls f once, on every point
    shifted by every key.  The terms are added key by key, so a function's
    values do not depend on the others."""
    P = np.asarray(P, dtype=complex)
    points = P.reshape(-1, P.shape[-1])
    coeffs = op.table(points)                               # [s, key, *shape]
    values = f(shifted(points, op.terms, ctx.hbar))         # [s, key, *rest]
    rest = values.shape[2:]
    coeffs = coeffs.reshape(coeffs.shape + (1,) * len(rest))
    values = values.reshape(values.shape[:2] + (1,) * len(op.shape) + rest)
    return sum((coeffs[:, k] * values[:, k] for k in range(len(op.terms))),
               np.zeros((len(points),) + op.shape + rest, dtype=complex)
               ).reshape(P.shape[:-1] + op.shape + rest)


def compose(a: DifferenceOperator, b: DifferenceOperator,
            ctx: ModularContext) -> DifferenceOperator:
    """a after b: coefficient c_a(lam) c_b(lam + hbar K_a), keys add.

    b is read once, on the batch of every P[s] shifted by every key of a,
    and the product of every pair of keys is merged onto its canonical sum.
    """
    hbar = ctx.hbar
    terms, q = key_map([canonical_key([x + y for x, y in zip(ka, kb)])
                        for ka in a.terms for kb in b.terms])

    def table(P):
        count = len(P)
        ta = a.table(P)
        tb = b.table(shifted(P, a.terms, hbar).swapaxes(0, 1)
                     .reshape(-1, a.n)).reshape(len(a.terms), count, -1)
        return merge_keys(q, (ta[:, :, None] * tb.swapaxes(0, 1))
                          .reshape(count, -1))
    return DifferenceOperator(a.n, terms, table)


def operator_residual(a, b, samples, ctx: ModularContext) -> Residual:
    """Max coefficient difference over terms and samples, relative to scale.

    a and b are both DifferenceOperators of one shape or both
    DifferentialOperators, and each table is read once, on every point of
    samples[..., s, n].  Every entry of C[s, key, *shape], or of J[s, term,
    m] at order 0 (the values), is compared; the two are aligned by index
    on the union of the terms, a term missing from one operator counting as
    zero there.  With leading axes, each index of them (a draw) gets its
    own residual over its samples, terms and entries, and the worst of
    those is returned.
    """
    samples = np.asarray(samples, dtype=complex)
    lead, points = samples.shape[:-2], samples.reshape(-1, samples.shape[-1])
    terms = tuple(dict.fromkeys(a.terms + b.terms))
    sides = []
    for op in (a, b):
        table = op.table(points).reshape(len(points), len(op.terms), -1)
        side = np.zeros((len(points), len(terms), table.shape[-1]),
                        dtype=complex)
        side[:, [terms.index(key) for key in op.terms]] = table
        sides.append(side.reshape(lead + (-1,)))
    return max_relative(*sides, axis=-1)


def commutator_residual(a: DifferenceOperator, b: DifferenceOperator,
                        samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(compose(a, b, ctx), compose(b, a, ctx),
                             samples, ctx)


def det(matrices) -> np.ndarray:
    """The determinants of matrices[..., k, k] over any leading axes: the
    signed product of the pivots of Gaussian elimination with partial
    pivoting (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 9), O(k^3) a matrix where the Leibniz sum is O(k! k).  A 1 x 1
    matrix returns its entry bit for bit, a zero pivot column gives 0, not
    nan, and object arrays of mpmath numbers work too."""
    matrices = np.asarray(matrices)
    lead, size = matrices.shape[:-2], matrices.shape[-1]
    # a[i, j] is entry (i, j) of every matrix, one contiguous batch vector
    a = np.moveaxis(matrices.reshape(-1, size, size), 0, -1).copy()
    odd = np.zeros(a.shape[-1], dtype=bool)
    for j in range(size - 1):
        # row j takes in turn each row below it that is larger in column j
        best = abs(a[j, j])
        for i in range(j + 1, size):
            mag = abs(a[i, j])
            swap = mag > best
            a[j, j:], a[i, j:] = (np.where(swap, a[i, j:], a[j, j:]),
                                  np.where(swap, a[j, j:], a[i, j:]))
            best = np.where(swap, mag, best)
            odd ^= swap
        pivot = a[j, j]
        # a zero pivot heads a zero column: dividing by 1 keeps it zero
        factors = a[j + 1:, j] * (1 / np.where(pivot == 0, 1, pivot))
        a[j + 1:, j + 1:] -= factors[:, None] * a[j, None, j + 1:]
    out = a[0, 0]
    for j in range(1, size):
        out = out * a[j, j]
    return np.where(odd, -out, out).reshape(lead)


def normal_det(matrix: DifferenceOperator, t: complex,
               ctx: ModularContext) -> DifferenceOperator:
    """Normal-ordered determinant of [matrix - t], matrix of shape
    (size, size).

    Within each permutation product all shift operators are moved to the
    right, so coefficients multiply as plain functions of the same lambda.
    Row i contributes one key of the matrix (the identity key carries -t on
    the diagonal), so the coefficient of an ordered key tuple (K_0..K_{n-1})
    is the determinant of the matrix whose row i is M[K_i, i, :], and the
    key map adds it onto the canonical key of K_0 + ... + K_{n-1}.  The
    matrix's table is read once per batch.
    """
    size = matrix.shape[0]
    keys, slots, tuples, terms, keymap = _det_plan(matrix.n, matrix.terms, size)
    diag = np.arange(size)

    def table(P):
        m = np.zeros((len(P), len(keys), size, size), dtype=complex)
        m[:, slots] = matrix.table(P)
        m[:, 0, diag, diag] -= t
        return merge_keys(keymap, det(m[:, tuples, diag]))
    return DifferenceOperator(matrix.n, terms, table)


@functools.lru_cache(maxsize=None)
def _det_plan(n: int, terms: tuple, size: int) -> tuple:
    """normal_det's plan, built once per (n, terms, size): the keys (the
    identity first), each term's slot among them, the ordered key tuples
    and the key map of their sums."""
    keys = tuple(dict.fromkeys(((0,) * n,) + terms))
    slots = np.array([keys.index(key) for key in terms])
    tuples = np.array(list(product(range(len(keys)), repeat=size)))
    sums, keymap = key_map([canonical_key(
        [sum(keys[a][x] for a in tup) for x in range(n)]) for tup in tuples])
    read_only(slots, tuples, keymap)
    return keys, slots, tuples, sums, keymap


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)): -1 to its inversions."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


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
    exps, degree, fact, left, right, starts = read_only(
        exps, exps.sum(axis=1),
        np.array([math.prod(map(math.factorial, m)) for m in monos],
                 dtype=float),
        np.array(left), np.array(right), np.array(starts))
    return _JetPlan(exps, degree, fact, index, left, right, starts)


@functools.lru_cache(maxsize=None)
def _deriv_gather(n: int, order: int, alpha: tuple) -> tuple:
    """Gather and weights of d^alpha on a jet of that order: entry m of the
    result is (m + alpha)!/m! times entry m + alpha."""
    index = _jet_plan(n, order).index
    monos = monomials(n, order - sum(alpha))
    shifted = [tuple(x + a for x, a in zip(m, alpha)) for m in monos]
    return read_only(np.array([index[m] for m in shifted]),
                     np.array([math.prod(map(math.perm, m, alpha))
                               for m in shifted], dtype=float))


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

    terms holds the multi-indices alpha; table(P, order=0) returns the
    array J[s, term, m] of the jets, to exactly that order, of every
    coefficient at the points P[s, n], m running over monomials(n, order),
    so J[..., 0] holds the coefficient values.  Callers never write into
    that array.
    """

    n: int
    terms: tuple
    table: Callable

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)


@functools.lru_cache(maxsize=None)
def _leibniz_plan(a_terms: tuple, b_terms: tuple) -> tuple:
    """Gather arrays of the Leibniz items of a composition a b.

    An item is (alpha of a, beta of b, gamma <= alpha); it multiplies the
    jet left[item] of a with d^rests[which[item]] of the jet right[item] of
    b, times mults[item] = C(alpha, gamma), and q merges it onto its term
    gamma + beta of terms.
    """
    plan = [(ia, ib, tuple(x - y for x, y in zip(alpha, gamma)),
             math.prod(map(math.comb, alpha, gamma)),
             tuple(x + y for x, y in zip(gamma, beta)))
            for ia, alpha in enumerate(a_terms)
            for ib, beta in enumerate(b_terms)
            for gamma in product(*(range(x + 1) for x in alpha))]
    left, right, rest, mults, keys = zip(*plan)
    rests = {r: a for a, r in enumerate(dict.fromkeys(rest))}
    which = np.array([rests[r] for r in rest])
    left, right = np.array(left), np.array(right)
    mults = np.array(mults, dtype=float)[:, None]
    terms, q = key_map(keys)
    read_only(which, left, right, mults, q)
    return tuple(rests), which, left, right, mults, terms, q


def pdo_compose(a: DifferentialOperator, b: DifferentialOperator,
                ctx: ModularContext) -> DifferentialOperator:
    """Leibniz-rule composition a(lam, d) b(lam, d): a_alpha d^alpha b_beta
    d^beta sums C(alpha, gamma) a_alpha (d^(alpha-gamma) b_beta)
    d^(gamma+beta) over gamma <= alpha.

    Those items are gather arrays fixed per pair of term tuples
    (_leibniz_plan).  A batch reads a once and b once, a.order() orders
    deeper, takes each distinct derivative d^(alpha-gamma) of b's table
    once, and multiplies the jets of every item in one jet_mul.
    """
    n = a.n
    rests, which, left, right, mults, terms, q = _leibniz_plan(a.terms,
                                                               b.terms)
    extra = a.order()

    def table(P, order=0):
        ja, jb = a.table(P, order), b.table(P, order + extra)
        width = ja.shape[-1]
        derivs = np.stack([jet_deriv(jb, n, rest)[..., :width]
                           for rest in rests])          # [rest, s, beta, m]
        return merge_keys(q, jet_mul(ja[:, left],
                                     derivs[which, :, right].swapaxes(0, 1),
                                     n) * mults)
    return DifferentialOperator(n, terms, table)


def pdo_apply(op: DifferentialOperator, fjet, P) -> np.ndarray:
    """(op f)(P[s]) over a batch, for a test function given by its jet
    table fjet(P, order) -> J[s, m]."""
    coeffs = op.table(P)
    fj = fjet(P, op.order())
    total = np.zeros(len(P), dtype=complex)
    for t, alpha in enumerate(op.terms):
        total += coeffs[:, t, 0] * jet_deriv(fj, op.n, alpha)[:, 0]
    return total


def pdo_commutator_residual(a: DifferentialOperator, b: DifferentialOperator,
                            samples, ctx: ModularContext) -> Residual:
    """Residual of [a, b] = 0, i.e. of a b = b a."""
    return operator_residual(pdo_compose(a, b, ctx), pdo_compose(b, a, ctx),
                             samples, ctx)


def exp_test_function(vec):
    """f(lambda) = exp(2 pi i <lambda, vec>) with exact jets: the jet table
    (P, order) -> J[..., m] at the points P[..., n]; exp_function is its
    column 0 at order 0, a test function of apply_op."""
    tp = 2j * math.pi
    vec = np.asarray(vec, dtype=float)

    def fjet(P, order: int) -> np.ndarray:
        P = np.asarray(P, dtype=complex)
        # <lambda, vec> summed over the columns left to right, so a value
        # does not depend on the shape of the batch
        pairing = P[..., 0] * vec[0]
        for k in range(1, len(vec)):
            pairing = pairing + P[..., k] * vec[k]
        base = np.exp(tp * pairing)[..., None]
        if order == 0:      # the values: the one column, without weights
            return base
        return jet_of_affine(np.repeat(base, order + 1, axis=-1), tp * vec)
    return fjet


def exp_function(vec):
    """The test function P[..., n] -> exp(2 pi i <P, vec>): the values of
    exp_test_function."""
    fjet = exp_test_function(vec)
    return lambda P: fjet(P, 0)[..., 0]
