"""Factorized L-operators, fused traces, and the commuting difference family.

The basic L-operator is built from intertwining vectors,

    L(c|u)^i_j = sum_k  phi(u+c hbar)[j,k](lam) phibar(u)[k,i](lam) T_k,

its fused antisymmetric traces give the commuting operators

    M_d(c|u) = theta(u + d c hbar / n)/theta(u)
               sum_{|I|=d} prod_{s not in I, t in I}
                   theta(lam_st + c hbar/n)/theta(lam_st)  T_I,

and this module verifies, one evaluator per relation, the trace/closed-form
equality, RLL (verify_fused_rll), the generating determinant of l_op or
l_tilde (verify_genfunc), the Ruijsenaars conjugation, the Krichever matrix
and the Calogero-Moser and Macdonald limits; the M_d commute by
opalg.commutator_residual, and every rel is theta.relative's quotient.

Every operator here is one opalg table over a batch of points, axis 1
running over its terms, of one of two kinds.  C[s, key, *shape] is a
difference operator: of shape () for the traces, closed forms and their
sums and products, of shape (size, size) for the fused L-operators, the
Lax matrix L~, its conjugation route and the Sekiguchi matrix.
J[s, term, m] is a differential operator, D[1..n] and H.  Krichever's K
is a plain array K[s, i, j] (krichever_table); the d_i of its diagonal is
structural and not tabulated.  L(c|u) is the fused L-operator at k = 1
(l_op).  The coefficient of the ordered shift (k_1..k_d) in the fused
entry (I, I') is the quantum minor

    sum_sigma sgn(sigma) prod_r A_r[k_r, i_sigma(r), i'_r]
                                  (lam + hbar(epsbar_k_1 + ... + epsbar_k_{r-1})),

A_r = l_coeff_tensor(c, u - (r-1) hbar).  fused_l tabulates every A_r at
the distinct partial-shift step counts kappa (belavin.partial_shifts) of
every sample in one batch, never at a re-canonicalized shifted point:
column k of phi(u - r hbar) at lam + hbar sum_j kappa_j epsbar_j is
theta_level(u/n - lam_k - hbar kappa_k), so one theta table fills every
phi of a sample, and one more every phibar, in closed form.  fused_l
gathers the k x k matrix of each quantum minor's A_r entries, per ordered
shift tuple and pair of subsets, takes all their determinants in one
batched LU (opalg.det) and adds the tuples onto their canonical keys with
the fixed 0/1 matrix of opalg.key_map; m_trace is the trace of that array.
build_d_ops merges d^J Delta / Delta onto the terms of D[m] the same way,
with that matrix weighted by (-n/c)^|I \\ J|.  verify_fused_rll applies
two fused L-operators in turn through opalg.apply_op, and normal_det reads
any of these matrices' tables once per batch for the generating
determinant.  The Lax coefficients are one function of g = c hbar/n
(ltilde_table), which the hbar -> 0 checks read at g = c h/n.  Every
hbar -> 0 limit is a Laurent coefficient in h (theta.laurent_coefficient)
of values at the nodes of theta.circle.

l_coeff_tensor, fused_l, m_trace, m_dot, m_closed and verify_trace_closed
take c and u as one value or as one per draw; the rows of a batch then
split evenly among the draws, so ten draws of the trace/closed-form check
are one table of each side over the samples tiled ten times.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .context import (ModularContext, SingularParameterError,
                      lattice_distance, read_only)
from .belavin import (dual_intertwiners, fused_rcheck_matrix, intertwiners,
                      partial_shifts, shift_intertwiners)
from .opalg import (DifferenceOperator, DifferentialOperator, apply_op,
                    compose, det, exp_function, exp_test_function,
                    identity_op, jet_constant, jet_deriv, jet_inv, jet_mul,
                    jet_of_affine, key_map, merge_keys, op_add, op_scale,
                    operator_residual, normal_det, pdo_apply, pdo_compose)
from .theta import (HBAR_RADIUS, Residual, _product_length, circle,
                    laurent_coefficient, max_relative, relative,
                    require_regular, residual_pair, theta_table,
                    worst_of_arrays)
from .weights import canonical_key, shifted, subset_key


# ----------------------------------------------------------- basic L-operator

def _draws(*values) -> list:
    """Each of the values, one value or one per draw, as a list of Python
    numbers with one entry per draw."""
    lists = [np.asarray(x).tolist() if np.ndim(x) else [x] for x in values]
    count = max(map(len, lists))
    return [x * count if len(x) == 1 else x for x in lists]


def _per_row(values: list, rows: int, ndim: int = 1):
    """The per-draw values over the rows of a batch that split evenly among
    the draws, shaped to broadcast against an array of ndim axes whose
    first runs over the rows; the one value itself at one draw."""
    if len(values) == 1:
        return values[0]
    return np.repeat(np.asarray(values, dtype=complex),
                     rows // len(values)).reshape((rows,) + (1,) * (ndim - 1))


def l_coeff_tensor(c, u, P, ctx: ModularContext, counts=None) -> np.ndarray:
    """A[(m, s), k, i, j] with L(c | u - r hbar)^i_j = sum_k A[.., k, i, j] T_k
    at P[s] + hbar sum_j counts[m][j] epsbar_j, r the sum of counts[m] (a
    level of a fused L-operator); by default counts is the one zero count,
    so A[s, k, i, j] is L(c|u) at P[s].

    c and u are one value, or one per draw: the rows of P then split evenly
    among the draws, in order.  phibar(u - r hbar) at every shifted point
    comes from belavin.dual_intertwiners and phi(u - r hbar + c hbar) from
    belavin.shift_intertwiners, every column at its exact shift.
    """
    n = ctx.n
    us, cs = _draws(u, c)
    counts = np.zeros((1, n), dtype=int) if counts is None \
        else np.asarray(counts)
    P = np.asarray(P, dtype=complex).reshape(len(us), -1, n)
    phibar = dual_intertwiners(np.array(us)[:, None], P, counts, ctx)
    phi = shift_intertwiners(np.array([x + y * ctx.hbar
                                       for x, y in zip(us, cs)])[:, None],
                             P, counts, ctx)
    return np.einsum("dsmki,dsmjk->mdskij", phibar, phi).reshape(-1, n, n, n)


def l_op(c: complex, u: complex, ctx: ModularContext) -> DifferenceOperator:
    """L(c|u), the fused L-operator at k = 1: entry (i, j) has the n
    single-shift keys, and a batch reads one l_coeff_tensor."""
    return fused_l(c, u, 1, ctx)


# ------------------------------------------------------------------ fusion

@dataclass(frozen=True)
class _FusionPlan:
    """Index arrays of the degree-k fused contraction at rank n.

    Ordered shift tuples t = (k_0..k_{k-1}) run over [n]^k.  At level r,
    prefix[r][t] indexes the step counts e_k_0 + ... + e_k_{r-1} of t in
    prefixes[r] (belavin.partial_shifts) and shift[r][t] = k_r; counts
    holds the counts (summing to r) of every level, level by level.  Row a
    of subsets is the a-th k-subset of range(n) in combinations order.
    keymap adds each tuple onto its canonical key in terms.
    """

    prefixes: tuple
    prefix: tuple
    counts: np.ndarray
    shift: tuple
    subsets: np.ndarray
    terms: tuple
    keymap: np.ndarray


@functools.lru_cache(maxsize=None)
def _fusion_plan(n: int, k: int) -> _FusionPlan:
    tuples = list(product(range(n), repeat=k))
    prefixes, prefix = partial_shifts(n, k)
    counts = np.array([c for level in prefixes for c in level])
    shift = [np.array([t[r] for t in tuples]) for r in range(k)]
    subsets = np.array(list(combinations(range(n), k)))
    keys, keymap = key_map([canonical_key([t.count(i) for i in range(n)])
                            for t in tuples])
    read_only(counts, *shift, subsets, keymap)
    return _FusionPlan(prefixes, prefix, counts, tuple(shift), subsets, keys,
                       keymap)


def fused_l(c, u, k: int, ctx: ModularContext) -> DifferenceOperator:
    """Fused L-operator on the k-th antisymmetric space, with entries

        sum_sigma sgn(sigma) L(u)^{i_sig(1)}_{i'_1} ... L(u-(k-1)h)^{i_sig(k)}_{i'_k}

    indexed by the subsets I, I' in combinations order.  c and u are one
    value, or one per draw, as in l_coeff_tensor.  The coefficient of a
    shift tuple t in the entry (I, I') is the determinant of the k x k
    matrix whose entry (r, j) is level r's coefficient at t's prefix, row
    I_j and column I'_r; opalg.det takes all of them in one batch.
    """
    n = ctx.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..n, got {k}")
    plan = _fusion_plan(n, k)
    size = math.comb(n, k)
    # [1, I, 1, j] and [1, 1, I', r] against [t, 1, 1, 1]: I_j and I'_r
    rows, cols = plan.subsets[None, :, None, :], plan.subsets[None, None, :]

    def table(P):
        count = len(P)
        # level r reads L(u - r hbar) at every partial shift of every sample
        a = l_coeff_tensor(c, u, P, ctx, plan.counts)
        mats = np.empty((count, n ** k, size, size, k, k), dtype=complex)
        start = 0
        for r, keys in enumerate(plan.prefixes):
            level = a[start:start + len(keys) * count].reshape(
                len(keys), count, n, n, n).swapaxes(0, 1)
            start += len(keys) * count
            # row r of the matrix of (s, t, I, I')
            mats[..., r, :] = level[:, plan.prefix[r][:, None, None, None],
                                    plan.shift[r][:, None, None, None],
                                    rows, cols[..., r, None]]
        return merge_keys(plan.keymap, det(mats))
    return DifferenceOperator(n, plan.terms, table, (size, size))


def m_trace(c, u, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Trace of the fused L-operator over the degree-d antisymmetric space."""
    fl = fused_l(c, u, d, ctx)
    return DifferenceOperator(ctx.n, fl.terms,
                              lambda P: np.einsum("skii->sk", fl.table(P)))


# ------------------------------------------------------------- closed form

@functools.lru_cache(maxsize=None)
def _subset_pairs(n: int, d: int) -> tuple:
    """The d-subsets I of range(n), the index arrays s, t [pair, I] of the
    pairs with s outside and t inside each I, and the canonical shift key
    of each I."""
    subs = tuple(combinations(range(n), d))
    s, t = np.array([[(s, t) for s in range(n) if s not in big_i
                      for t in big_i] for big_i in subs],
                    dtype=int).reshape(len(subs), d * (n - d), 2).T
    read_only(s, t)
    return subs, s, t, tuple(canonical_key(subset_key(n, big_i))
                             for big_i in subs)


def m_dot(c, d: int, ctx: ModularContext) -> DifferenceOperator:
    """The u-independent part: sum_I prod theta(lam_st + c h/n)/theta(lam_st) T_I.

    A batch reads every factor of every subset from one theta_table call.
    c is one value, or one per draw, as in l_coeff_tensor.
    """
    n = ctx.n
    gs = [x * ctx.hbar / n for x in _draws(c)[0]]
    _, s, t, keys = _subset_pairs(n, d)

    def table(P):
        P = np.asarray(P, dtype=complex)
        diffs = P[:, s] - P[:, t]                               # [p, pair, I]
        den, num = theta_table([diffs, diffs + _per_row(gs, len(P), 3)], ctx)
        return np.prod(num / den, axis=1)                      # [p, I]
    return DifferenceOperator(n, keys, table)


def m_closed(c, u, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Closed form of M_d(c|u); d = 0 gives the identity.  c and u are one
    value, or one per draw, as in l_coeff_tensor."""
    if d == 0:
        return identity_op(ctx.n)
    us, cs = _draws(u, c)
    num, den = theta_table([[x + d * y * ctx.hbar / ctx.n
                             for x, y in zip(us, cs)], us], ctx).tolist()
    ratio = [x / y for x, y in zip(num, den)]
    dot = m_dot(c, d, ctx)
    return DifferenceOperator(ctx.n, dot.terms, lambda P: _per_row(
        ratio, len(P), 2) * dot.table(P))


def verify_trace_closed(c, u, d: int, ctx: ModularContext,
                        samples) -> Residual:
    """Coefficientwise equality of the fused trace and the closed form, at
    one draw (c, u) or at arrays of draws: each side is one table over the
    samples tiled once per draw, and the residual is that of the draw that
    reads worst over its samples and terms (the first on ties)."""
    samples = np.asarray(samples, dtype=complex)
    return operator_residual(m_trace(c, u, d, ctx), m_closed(c, u, d, ctx),
                             np.broadcast_to(samples, (len(_draws(c, u)[0]),)
                                             + samples.shape), ctx)


def verify_spectral_factorization(c: complex, u1: complex, u2: complex, d: int,
                                  ctx: ModularContext, samples) -> Residual:
    """theta(u)/theta(u+dc hbar/n) M_d(c|u) does not depend on u (trace route)."""
    def normalized(u):
        num, den = theta_table([u, u + d * c * ctx.hbar / ctx.n],
                               ctx).tolist()
        return op_scale(m_trace(c, u, d, ctx), num / den)
    return operator_residual(normalized(u1), normalized(u2), samples, ctx)


# ------------------------------------------------- generating function

def genfunc_sum(c: complex, u: complex, t: complex,
                ctx: ModularContext) -> DifferenceOperator:
    """sum_{d=0}^n (-t)^(n-d) M_d(c|u) from the closed forms."""
    n = ctx.n
    return op_add(*[op_scale(m_closed(c, u, d, ctx), (-t) ** (n - d))
                    for d in range(n + 1)])


def verify_genfunc(matrix: DifferenceOperator, c: complex, u: complex,
                   t: complex, ctx: ModularContext, samples) -> Residual:
    """Normal-ordered det[matrix - t] against the generating sum, matrix
    one of the two Lax routes at (c, u): l_op, or l_tilde."""
    return operator_residual(normal_det(matrix, t, ctx),
                             genfunc_sum(c, u, t, ctx), samples, ctx)


def sekiguchi_matrix(c: complex, u: complex, t: complex,
                     ctx: ModularContext) -> DifferenceOperator:
    """Entry (i, j) = (theta_j((u+c h)/n - lam_i) T_i - t theta_j(u/n -
    lam_i)) / (i eta): phi(u + c hbar) and phi(u) of shift_intertwiners at
    the zero count, transposed, so every entry carries the factor 1/(i eta)
    of the intertwiners; a batch reads one kernel call."""
    n = ctx.n
    rows = np.arange(n)

    def table(P):
        phi = shift_intertwiners(np.array([[u + c * ctx.hbar], [u]]), P,
                                 [[0] * n], ctx)[:, :, 0].swapaxes(-1, -2)
        out = np.zeros((len(P), n + 1, n, n), dtype=complex)
        out[:, rows, rows] = phi[0]
        out[:, n] = -t * phi[1]
        return out
    terms = tuple(subset_key(n, (i,)) for i in range(n)) + ((0,) * n,)
    return DifferenceOperator(n, terms, table, (n, n))


def verify_sekiguchi(c: complex, u: complex, t: complex, ctx: ModularContext,
                     samples) -> Residual:
    """Numerator determinant of the difference generating function.

    :det[theta_j((u+c h)/n - lam_i) T_i - t theta_j(u/n - lam_i)]: equals
    det[theta_j(u/n - lam_i)] * sum_d (-t)^(n-d) M_d(c|u) coefficientwise.
    Both sides are read with every theta_j divided by i eta, as in
    sekiguchi_matrix, which scales each by (i eta)^-n.
    """
    numerator = normal_det(sekiguchi_matrix(c, u, t, ctx), 0.0, ctx)
    gen = genfunc_sum(c, u, t, ctx)
    weighted = DifferenceOperator(ctx.n, gen.terms, lambda P: np.linalg.det(
        shift_intertwiners(u, P, [[0] * ctx.n], ctx)[:, 0])[:, None]
        * gen.table(P))
    return operator_residual(numerator, weighted, samples, ctx)


# ------------------------------------------------------------ Lax matrix

def ltilde_table(g, u: complex, P, ctx: ModularContext) -> np.ndarray:
    """C[..., s, i, j], the coefficient of T_i in the Lax entry (i, j) at P[s]:

        theta(g + u + lam_ji)/theta(u) prod_{k != j} theta(g + lam_ki)/theta(lam_kj)

    with g = c hbar/n, one value or an array of them (the leading axes);
    the limit checks read it at g = c h/n on the nodes h of theta.circle.
    The thetas of a batch come from one theta_table call.  A point with
    some singular theta(lam_kj) raises (theta.require_regular).
    """
    n = ctx.n
    P = np.asarray(P, dtype=complex)
    diff = P[:, :, None] - P[:, None, :]                       # [s, k, i]
    g = np.asarray(g, dtype=complex)[..., None, None, None]
    moved = np.stack([(g + u) + diff, g + diff])               # [2, ..., s, k, i]
    values = theta_table(np.concatenate([moved.ravel(), diff.ravel(), [u]]),
                         ctx)
    shifted, plain = values[:moved.size].reshape(moved.shape)
    gap = values[moved.size:-1].reshape(diff.shape)
    off = ~np.eye(n, dtype=bool)
    require_regular(gap[:, off], diff[:, off],
                    "resonant weight point in Lax entry: theta(lambda_kj)", ctx)
    gap = np.where(off, gap, 1.0)
    coeff = shifted.swapaxes(-1, -2) / values[-1]             # [..., s, i, j]
    for k in range(n):
        ratio = plain[..., k, :, None] / gap[:, k, None, :]
        ratio[..., :, k] = 1.0                                # no factor k = j
        coeff = coeff * ratio
    return coeff


def l_tilde(c: complex, u: complex, ctx: ModularContext) -> DifferenceOperator:
    """Difference Lax matrix: entry (i, j) = ltilde_table[i, j] T_i."""
    n = ctx.n
    g = c * ctx.hbar / n
    rows = np.arange(n)

    def table(P):
        out = np.zeros((len(P), n, n, n), dtype=complex)
        out[:, rows, rows] = ltilde_table(g, u, P, ctx)
        return out
    return DifferenceOperator(n, tuple(subset_key(n, (i,)) for i in range(n)),
                              table, (n, n))


def l_tilde_conjugated(c: complex, u: complex,
                       ctx: ModularContext) -> DifferenceOperator:
    """Independent route: L(c|u) conjugated by the intertwiner matrices,
    entry (i, j) = sum_ab phi(u)[a, i] L(c|u)^a_b phibar(u)[j, b]."""
    n = ctx.n

    def table(P):
        phi, phibar = intertwiners(u, P, ctx)
        return np.einsum("sai,skab,sjb->skij", phi,
                         l_coeff_tensor(c, u, P, ctx), phibar)
    return DifferenceOperator(n, tuple(subset_key(n, (k,)) for k in range(n)),
                              table, (n, n))


def verify_ltilde_conjugation(c: complex, u: complex, ctx: ModularContext,
                              samples) -> Residual:
    """The coefficients of l_tilde against its conjugation route, entry by
    entry: each table is read once, the residual of an entry is the
    operator_residual of its keys and samples, and the worst entry is taken
    in row-major order."""
    samples = np.asarray(samples, dtype=complex)
    return max_relative(l_tilde(c, u, ctx).table(samples),
                        l_tilde_conjugated(c, u, ctx).table(samples),
                        axis=(0, 1))


def verify_fused_rll(c: complex, u: complex, v: complex, k: int, kp: int,
                     ctx: ModularContext, P, fns) -> Residual:
    """Fused RLL relation with the projected fused braid matrix.

    Each side is the product of the two fused L-operators applied to the
    test functions, (L L' f)(lam) = apply_op(L, Q -> apply_op(L', f,
    Q), lam), every entry of both at once and every test function on one
    trailing axis, so each function is called once a side; the braid is
    contracted with that product in one einsum.
    """
    nk, nkp = math.comb(ctx.n, k), math.comb(ctx.n, kp)
    # rows (J'', I''), columns (I', J')
    rf = fused_rcheck_matrix(k, kp, u, v, ctx).reshape(nkp, nk, nk, nkp)
    flu, flv = fused_l(c, u, k, ctx), fused_l(c, v, kp, ctx)
    f = lambda Q: np.stack([fn(Q) for fn in fns], axis=-1)     # [..., f]

    def product(first, second):
        return apply_op(first, lambda Q: apply_op(second, f, Q, ctx),
                           P, ctx)
    # lhs[I,J,I'',J''] = sum R^{I'J'}_{I''J''} (L_u^I_I' L_v^J_J' f)
    lhs = np.einsum("dcxy,sixjyf->fsijcd", rf, product(flu, flv))
    # rhs[I,J,I'',J''] = sum R^{IJ}_{AB} (L_v^B_J'' L_u^A_I'' f)
    rhs = np.einsum("yxij,sydxcf->fsijcd", rf, product(flv, flu))
    return max_relative(lhs, rhs)


# --------------------------------------------------------- Krichever matrix

def krichever_table(c: complex, u: complex, P,
                    ctx: ModularContext) -> np.ndarray:
    """K[s, i, j], the scalar part of Krichever's Lax matrix K(c|u) at P[s]:

        g theta'(u)/theta(u)                                  (i = j)
        g theta'(0) theta(u + lam_ji)/(theta(u) theta(lam_ji))  (i != j)

    with g = c/n.  K(c|u)^i_j is this scalar plus d_i on the diagonal; that
    derivative part is structural (the T_i of l_tilde's diagonal to first
    order in hbar) and is not tabulated.  A batch reads one theta_table of
    values and one of first derivatives.
    """
    n = ctx.n
    g = c / n
    P = np.asarray(P, dtype=complex)
    lam_ji = P[:, None, :] - P[:, :, None]                    # [s, i, j]
    values = theta_table(np.append(np.stack([u + lam_ji, lam_ji]), u), ctx)
    shifted, plain = values[:-1].reshape(2, *lam_ji.shape)
    tu = values[-1]
    tu1, tp0 = theta_table([u, 0.0], ctx, 1)
    eye = np.eye(n, dtype=bool)
    # theta(lam_ii) = 0 is never read
    off = shifted * g * tp0 / tu / np.where(eye, 1.0, plain)
    return np.where(eye, g * tu1 / tu, off)


def verify_krichever(c: complex, u: complex, ctx: ModularContext,
                     samples) -> dict:
    """The hbar -> 0 limit of the Lax matrix, from one ltilde_table at
    g = c h/n over the nodes h of circle():

    "identity": l_tilde tends to the identity; the rel is max |a_0| of
        l_tilde - 1 over its largest modulus on the circle, the abs max |a_0|;
    "derivative": a_1 of l_tilde - 1, conjugated by Delta^{c/n} and the
        diagonal theta similarity, against krichever_table, the scalar part
        of K (the d_i of K's diagonal is the first order of l_tilde's T_i).
    """
    n = ctx.n
    g = c / n
    hs = circle()
    dev = ltilde_table(c * hs / n, u, samples, ctx) - np.eye(n)  # [h, s, i, j]
    at0 = float(np.max(np.abs(laurent_coefficient(dev, hs, 0))))
    derivs = laurent_coefficient(dev, hs, 1)                    # [s, i, j]
    samples = np.asarray(samples, dtype=complex)
    diff = samples[:, :, None] - samples[:, None, :]           # [s, i, j]
    eye = np.eye(n, dtype=bool)
    # theta(0) = 0 is never read
    plain = np.where(eye, 1.0, theta_table(diff, ctx))
    # off the diagonal: prod_{k != j} theta(lam_kj) / prod_{k != i}
    # theta(lam_ki) times the derivative
    cols = np.prod(plain, axis=1)                               # [s, j]
    got = cols[:, None, :] / cols[:, :, None] * derivs
    # on it: Delta^{-c/n} d_i Delta^{c/n} adds (c/n) d_i log Delta
    dlog = np.sum(np.where(eye, 0.0, theta_table(diff, ctx, 1) / plain),
                  axis=-1)                                      # [s, i]
    got[:, eye] = derivs[:, eye] + g * dlog
    return {"identity": worst_of_arrays(*relative(
                at0, float(np.max(np.abs(dev))))),
            "derivative": residual_pair(got,
                                        krichever_table(c, u, samples, ctx))}


# ------------------------------------------------------ Ruijsenaars weight

def _dplus(z, g: complex, ctx: ModularContext) -> np.ndarray:
    """The building factor of the ground-state weight at every z of an
    array: the double q,p-product over q^m p^k, m <= M(q) and k <= M(p),
    M = _product_length (the 2^-60 rule of a theta window)."""
    q, p = ctx.q, ctx.p
    if abs(q) >= 1.0:
        raise SingularParameterError(
            f"ruijsenaars weight needs Im hbar > 0: |q| = {abs(q)} >= 1")
    qg = cmath.exp(2j * cmath.pi * ctx.hbar * g)
    pk = p ** np.arange(_product_length(p) + 1)[:, None]
    pk1 = pk * p
    qm = q ** np.arange(_product_length(q) + 1)[None, :]
    z = np.asarray(z, dtype=complex)[..., None, None]
    return np.prod((1.0 - z * qm * q * pk) / (1.0 - z * qm * q * qg * pk)
                   * (1.0 - qm / (z * qg) * pk1) / (1.0 - qm / z * pk1),
                   axis=(-2, -1))


def phi_weight(P, g: complex, ctx: ModularContext) -> np.ndarray:
    """Phi(lambda) = prod_{k != k'} dplus(z_k / z_k') at every point of
    P[..., n]."""
    z = np.exp(2j * np.pi * np.asarray(P, dtype=complex))
    off = ~np.eye(ctx.n, dtype=bool)
    return np.prod(_dplus((z[..., :, None] / z[..., None, :])[..., off], g,
                          ctx), axis=-1)


def phi_ratio_table(P, d: int, g: complex, ctx: ModularContext) -> np.ndarray:
    """Phi / T_I Phi from the telescoped theta form, [s, I] at every point
    of P[s, n] and every d-subset I (_subset_pairs order): the product over
    t in I, s not in I of theta(h + lam_ts) theta(g h - lam_ts)
    / (theta(g h + h + lam_ts) theta(-lam_ts)), from one theta_table call."""
    hb, gh = ctx.hbar, g * ctx.hbar
    _, s, t, _ = _subset_pairs(ctx.n, d)
    P = np.asarray(P, dtype=complex)
    lts = P[:, t] - P[:, s]                                    # [p, pair, I]
    num1, num2, den1, den2 = theta_table(
        [hb + lts, gh - lts, gh + hb + lts, -lts], ctx)
    return np.prod(num1 * num2 / (den1 * den2), axis=1)


def verify_ruijsenaars(c: complex, d: int, lam,
                       ctx: ModularContext) -> dict:
    """Both halves of the ground-state conjugation identity at one point
    lam[n].

    'ratio':  Phi/T_I Phi from the double product vs the theta closed form
        (phi_ratio_table), for each |I| = d.
    'coefficient': for each |I| = d the squared coefficient identity
        C_I(lam) * (T_I Phi / Phi) = prod theta(g h + h + lam_ts)/theta(h + lam_ts),
    which is the branch-free square of the symmetrized form; C_I is read
    from the table of m_dot.
    """
    n, hb = ctx.n, ctx.hbar
    g = c / n
    base = phi_weight(lam, g, ctx)
    subs, s, t, _ = _subset_pairs(n, d)
    raised = shifted(lam, [subset_key(n, subset) for subset in subs], hb)
    weights = phi_weight(raised, g, ctx)
    ratio = residual_pair(base / weights,
                          phi_ratio_table(lam[None], d, g, ctx)[0])
    # lam_st for s outside and t inside each subset, [subset, pair]: the rhs
    # is a product over the pairs
    lst = (lam[s] - lam[t]).T
    rnum, rden = theta_table([g * hb + hb - lst, hb - lst], ctx)
    lhs = m_dot(c, d, ctx).table(lam[None])[0] * weights / base
    return {"ratio": ratio,
            "coefficient": residual_pair(lhs, np.prod(rnum / rden, axis=-1))}


# ---------------------------------------------- differential (CM) limit

def _pair_jets(P, order: int, ctx: ModularContext) -> np.ndarray:
    """Jets of theta(lambda_k - lambda_l) for the pairs k < l at a batch, as
    one array [s, pair, m]: one theta_table per derivative order over every
    pair and point."""
    n = ctx.n
    first, second = np.array(list(combinations(range(n), 2))).T
    P = np.asarray(P, dtype=complex)
    grads = np.zeros((len(first), n))
    grads[np.arange(len(first)), first] = 1.0
    grads[np.arange(len(first)), second] = -1.0
    xs = P[:, first] - P[:, second]
    return jet_of_affine(np.stack([theta_table(xs, ctx, m)
                                   for m in range(order + 1)], axis=-1), grads)


def _product_jet(pair_jets: np.ndarray, n: int) -> np.ndarray:
    """The jet of Delta, the product of the _pair_jets over their pairs."""
    out = pair_jets[:, 0]
    for p in range(1, pair_jets.shape[1]):
        out = jet_mul(out, pair_jets[:, p], n)
    return out


def delta_jet(P, order: int, ctx: ModularContext) -> np.ndarray:
    """Jets J[s, m] of Delta(lambda) = prod_{k<l} theta(lambda_k - lambda_l)
    at a batch."""
    return _product_jet(_pair_jets(P, order, ctx), ctx.n)


def _delta_ratios(jd: np.ndarray, order: int, jsets, n: int) -> np.ndarray:
    """[s, J, m], the jets of d^J Delta / Delta to the given order for every
    J of jsets, from the jet jd of Delta, at least len(J) orders deeper,
    inverted once.  The empty J gives the constant 1 exactly, not Delta
    times its rounded inverse, whose noisy derivatives a composition would
    pick up."""
    inv = jet_inv(jd, n)
    width = math.comb(n + order, n)
    return np.stack([jet_mul(jet_deriv(jd, n, [int(a in jset)
                                               for a in range(n)])
                             [:, :width], inv, n) if jset else
                     jet_constant(1.0, len(jd), n, order) for jset in jsets],
                    axis=1)


def build_d_ops(c: complex, ctx: ModularContext) -> list:
    """The commuting differential operators D[1..n] (Debiard normalization):

    D[m] = sum_{|I|=m} sum_{J subset I} (d^J Delta / Delta) (-n/c d)^{I \\ J}.

    A read of D[m]'s table builds d^J Delta / Delta once per distinct J
    (at n = 3, D[3] has 26 (I, J) items and 8 distinct J) and merges them
    onto the terms alpha = I \\ J with a matrix fixed here, the key map of
    the items weighted by their (-n/c)^|I \\ J|.
    """
    n = ctx.n
    factor = -n / c

    def d_op(m):
        items = [(tuple(int(a in big_i and a not in jset) for a in range(n)),
                  jset, factor ** (m - jsize))
                 for big_i in combinations(range(n), m)
                 for jsize in range(m + 1)
                 for jset in combinations(big_i, jsize)]
        alphas, jset_of, scales = zip(*items)
        jsets = tuple(dict.fromkeys(jset_of))
        terms, q = key_map(alphas)
        pick = np.zeros((len(items), len(jsets)), dtype=complex)
        pick[np.arange(len(items)), [jsets.index(j) for j in jset_of]] = scales
        weights = q @ pick                                  # [alpha, J]

        def table(P, order=0):
            # Delta's jet to the order the largest J needs
            return merge_keys(weights, _delta_ratios(
                delta_jet(P, order + max(map(len, jsets)), ctx), order,
                jsets, n))
        return DifferentialOperator(n, terms, table)
    return [d_op(m) for m in range(1, n + 1)]


def hamiltonian_cm(c: complex, ctx: ModularContext) -> DifferentialOperator:
    """The elliptic Calogero-Moser hamiltonian in ground-state conjugated form,

    H = Delta^g ( sum_i d_i^2 + 2 g(g+1) sum_{i<j} (log theta)''(lam_ij) ) Delta^{-g},

    g = c/n, expanded analytically: (d_i - g_i)^2 terms with
    g_i = g d_i log Delta.  The potential coefficient +2g(g+1) is pinned by
    the hbar^2 limit of the difference family (exact to machine precision
    for n = 2, 3); in Weierstrass form it reads -2g(g+1) p(lam_ij) plus a
    constant.  A read builds g_i one order deeper than asked, for d_i g_i,
    and reads the pair theta tables once: Delta's jet, for g_i, is the
    product of the same pair jets that give the potential.
    """
    n = ctx.n
    g = c / n
    units = [tuple(int(a == i) for a in range(n)) for i in range(n)]
    firsts = [units[k] for k, _ in combinations(range(n), 2)]

    def table(P, order=0):
        pair_jets = _pair_jets(P, order + 2, ctx)
        # g_i / g = d_i Delta / Delta, one order deeper than asked
        ratios = _delta_ratios(_product_jet(pair_jets, n), order + 1,
                               [(i,) for i in range(n)], n)
        pair_inv = jet_inv(pair_jets, n)
        deeper = math.comb(n + order + 1, n)
        width = math.comb(n + order, n)
        # terms d_i^2, d_i for every i, then the zero-order term
        out = np.empty((len(P), 2 * n + 1, width), dtype=complex)
        zero = jet_constant(0.0, len(P), n, order)
        for i, e in enumerate(units):
            gi = ratios[:, i] * g
            out[:, 2 * i] = jet_constant(1.0, len(P), n, order)
            out[:, 2 * i + 1] = gi[:, :width] * (-2.0)
            zero = (zero + jet_deriv(gi, n, e) * (-1.0)
                    + jet_mul(gi[:, :width], gi, n))
        # sum_{k<l} (log theta)''(lam_kl), each as d_k (d_k theta / theta)
        pot = sum(jet_deriv(jet_mul(jet_deriv(pair_jets[:, p], n, e)
                                    [:, :deeper], pair_inv[:, p], n), n, e)
                  for p, e in enumerate(firsts))
        out[:, 2 * n] = zero + 2.0 * g * (g + 1.0) * pot
        return out
    return DifferentialOperator(
        n, tuple(key for e in units for key in (tuple(2 * x for x in e), e))
        + ((0,) * n,), table)


def verify_h_identity(c: complex, ctx: ModularContext, samples) -> Residual:
    """H equals the square-minus-twice combination of the scaled operators.

    With the Debiard normalization of build_d_ops, the matching combination
    is ((c/n) D[1])^2 - 2 (c/n)^2 D[2].
    """
    g = c / ctx.n
    d_ops = build_d_ops(c, ctx)
    d1 = op_scale(d_ops[0], g)
    d2 = op_scale(d_ops[1], g * g)
    combo = op_add(pdo_compose(d1, d1, ctx), op_scale(d2, -2.0))
    return operator_residual(combo, hamiltonian_cm(c, ctx), samples, ctx)


def verify_cm_limit(c: complex, ctx: ModularContext, samples,
                    vecs) -> dict:
    """The differential limits, from one evaluation of Mdot_1 f, Mdot_2 f
    and Mdot_1^2 f per node h of circle(r), every test function of vecs on
    apply_op's function axis.  Mdot_1^2 reads the coefficients of Mdot_1
    at lam + h K, whose denominators theta(lam_st +- h) vanish at |h| = d,
    the least lattice distance of the samples' lam_st; r = min(HBAR_RADIUS,
    d/3) keeps that pole off the circle's aliasing:

    "elliptic": a_2 of E = -2 Mdot_2 f + Mdot_1^2 f - 2 Mdot_1 f + n f,
        the hbar^2 term, against H f (hamiltonian_cm), and a_0 and a_1 of
        E against 0, all three on the scale |a_2| + |H f| of the first;
    "d2": (c/n)^2 D[2] f against (Mdot_2'' - (n-1) Mdot_1'') f / 2, with
        Mdot_d'' f = 2 a_2 of Mdot_d f, so against a_2 of
        Mdot_2 f - (n-1) Mdot_1 f.
    """
    n = ctx.n
    g = c / n
    samples = np.asarray(samples, dtype=complex)
    fns = [exp_function(vec) for vec in vecs]
    f = lambda P: np.stack([fn(P) for fn in fns], axis=-1)     # [..., m]

    def at(h):
        sctx = ctx.replace(hbar=h)
        m1, m2 = m_dot(c, 1, sctx), m_dot(c, 2, sctx)
        return [apply_op(op, f, samples, sctx)
                for op in (m1, m2, compose(m1, m1, sctx))]
    d = min(lattice_distance(complex(lam[s] - lam[t]), complex(ctx.tau))
            for lam in samples for s, t in combinations(range(n), 2))
    hs = circle(min(HBAR_RADIUS, d / 3))
    v1, v2, v11 = np.moveaxis(np.array([at(h) for h in hs]), 1, 0)  # [h, s, m]
    a2 = lambda v: laurent_coefficient(v, hs, 2)

    def want(op):
        return np.stack([pdo_apply(op, exp_test_function(vec), samples)
                         for vec in vecs], axis=-1)
    expr = -2.0 * v2 + v11 - 2.0 * v1 + n * f(samples)
    elliptic, hf = a2(expr), want(hamiltonian_cm(c, ctx))
    dev = np.abs(np.stack([elliptic - hf] + [laurent_coefficient(expr, hs, k)
                                             for k in (0, 1)]))
    d2 = a2(v2) - (n - 1) * a2(v1)
    return {"elliptic": worst_of_arrays(*relative(
                dev, np.abs(elliptic) + np.abs(hf))),
            "d2": residual_pair(
                d2, want(op_scale(build_d_ops(c, ctx)[1], g * g)))}


# ------------------------------------------------------- Macdonald limit

def verify_macdonald_limit(c: complex, d: int, ctx: ModularContext,
                           samples) -> Residual:
    """p -> 0 coefficients of the closed form against the sine-ratio form.

    Evaluated at Im tau large enough that the theta series reduce to their
    leading pair of terms; the expected coefficient is
    prod sin pi(lam_st + c hbar/n) / sin pi(lam_st), equivalently
    t^{-1/2}(t z_s - z_t)/(z_s - z_t) with t = exp(2 pi i c hbar / n).
    """
    n = ctx.n
    mctx = ctx.replace(tau=30j)
    gh = c * ctx.hbar / n
    mop = m_dot(c, d, mctx)
    tpar = cmath.exp(2j * cmath.pi * gh)
    tpar_half = cmath.exp(1j * cmath.pi * gh)   # branch-free square root
    coeffs = mop.table(samples)                 # [s, subset]
    z = np.exp(2j * np.pi * samples)
    _, s, t, _ = _subset_pairs(n, d)
    lst = samples[:, s] - samples[:, t]         # [sample, pair, subset]
    sine = np.prod(np.sin(np.pi * (lst + gh)) / np.sin(np.pi * lst), axis=1)
    zform = np.prod((tpar * z[:, s] - z[:, t]) / (z[:, s] - z[:, t])
                    / tpar_half, axis=1)
    return residual_pair(np.stack([coeffs, sine], -1),
                         np.stack([sine, zform], -1))
