"""Factorized L-operators, fused traces, and the commuting difference family.

The basic L-operator is built from intertwining vectors,

    L(c|u)^i_j = sum_k  phi(u+c hbar)[j,k](lam) phibar(u)[k,i](lam) T_k,

its fused antisymmetric traces give the commuting operators

    M_d(c|u) = theta(u + d c hbar / n)/theta(u)
               sum_{|I|=d} prod_{s not in I, t in I}
                   theta(lam_st + c hbar/n)/theta(lam_st)  T_I,

and this module verifies the trace/closed-form equality, the RLL relation,
the generating-function determinant, the Ruijsenaars conjugation, the
Krichever matrix, the differential (Calogero-Moser) limit and the
trigonometric (Macdonald) limit.

Every matrix of difference operators here is one opalg.OperatorMatrix
table A[s, key, i, j] over a batch of points: the fused L-operators, the
Lax matrix L~, its conjugation route and the Sekiguchi matrix.  L(c|u) is
the fused L-operator at k = 1 (l_op).  The coefficient of the ordered shift
(k_1..k_d) in the fused entry (I, I') is the quantum minor

    sum_sigma sgn(sigma) prod_r A_r[k_r, i_sigma(r), i'_r]
                                  (lam + hbar(epsbar_k_1 + ... + epsbar_k_{r-1})),

A_r = l_coeff_tensor(c, u - (r-1) hbar).  fused_l tabulates every A_r at
the distinct partial-shift points of every sample in one batch (one build
of their intertwiners), gathers them per ordered shift tuple,
contracts them with the generalized-Kronecker signs (opalg.signed_products)
and adds the tuples onto their canonical keys with a fixed 0/1 matrix;
m_trace is the trace of that array.  verify_fused_rll reads the same
arrays, and normal_det reads any of these matrices' tables once per batch
for the generating determinant.  The Lax coefficients are one function of
g = c hbar/n (ltilde_table), which the hbar -> 0 checks read at g = c h/n.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .context import ModularContext, SingularParameterError
from .belavin import fused_rcheck_matrix, intertwiner_arrays
from .opalg import (DifferenceOperator, DifferentialOperator,
                    OperatorMatrix, apply_batch, commutator_residual, compose,
                    exp_function, exp_test_function, identity_op,
                    jet_constant, jet_deriv, jet_inv, jet_mul, jet_of_affine,
                    key_map, op_add, op_scale, operator_residual, normal_det,
                    pdo, pdo_add, pdo_apply, pdo_compose, pdo_scale,
                    perm_sign, signed_products)
from .theta import (Residual, residual_arrays, theta, theta_level_table,
                    theta_table, worst_of, worst_of_arrays)
from .weights import canonical_key, shifted, subset_key, unit_key

_EPS = 1e-300


# ----------------------------------------------------------- basic L-operator

def l_coeff_tensor(c: complex, us, P, ctx: ModularContext) -> np.ndarray:
    """A[p,k,i,j] with L(c|us[p])^i_j = sum_k A[p,k,i,j] T_k at P[p].

    The intertwiners at (us[p], P[p]) and (us[p] + c hbar, P[p]) are
    built in one batch.
    """
    us, P = list(us), np.asarray(P, dtype=complex)
    count = len(us)
    phi, phibar = intertwiner_arrays(
        us + [u + c * ctx.hbar for u in us], np.concatenate([P, P]), ctx)
    return np.einsum("pki,pjk->pkij", phibar[:count], phi[count:])


def l_op(c: complex, u: complex, ctx: ModularContext) -> OperatorMatrix:
    """L(c|u), the fused L-operator at k = 1: entry (i, j) has the n
    single-shift keys, and a batch reads one l_coeff_tensor."""
    return fused_l(c, u, 1, ctx)


def verify_rll(c: complex, u: complex, v: complex, ctx: ModularContext,
               P, fns) -> Residual:
    """Residual of Rcheck(u-v) L(u) (x) L(v) = L(v) (x) L(u) Rcheck(u-v)
    applied to the given test functions at the given weight points."""
    return verify_fused_rll(c, u, v, 1, 1, ctx, P, fns)


# ------------------------------------------------------------------ fusion

@dataclass(frozen=True)
class _FusionPlan:
    """Index arrays of the degree-k fused contraction at rank n.

    Ordered shift tuples t = (k_0..k_{k-1}) run over [n]^k.  At level r,
    prefix[r][t] indexes the canonical partial shift e_k_0 + ... + e_k_{r-1}
    of t in prefixes[r] and shift[r][t] = k_r.  A term z = (I, sigma) of
    the generalized Kronecker sum reads the L-entry (rows[r][z], cols[r][w])
    at level r for the column subset w = I', with signs[z, I] = sgn(sigma).
    keymap adds each tuple onto its canonical key in terms.
    """

    prefixes: tuple
    prefix: tuple
    shift: tuple
    rows: tuple
    cols: tuple
    signs: np.ndarray
    terms: tuple
    keymap: np.ndarray


@functools.lru_cache(maxsize=None)
def _fusion_plan(n: int, k: int) -> _FusionPlan:
    subs = list(combinations(range(n), k))
    perms = list(permutations(range(k)))
    tuples = list(product(range(n), repeat=k))
    prefixes, prefix, shift = [], [], []
    for r in range(k):
        keys = [canonical_key([t[:r].count(i) for i in range(n)])
                for t in tuples]
        distinct = tuple(dict.fromkeys(keys))
        pos = {key: a for a, key in enumerate(distinct)}
        prefixes.append(distinct)
        prefix.append(np.array([pos[key] for key in keys]))
        shift.append(np.array([t[r] for t in tuples]))
    terms = [(a, perm) for a in range(len(subs)) for perm in perms]
    rows = tuple(np.array([subs[a][perm[r]] for a, perm in terms])
                 for r in range(k))
    cols = tuple(np.array([sub[r] for sub in subs]) for r in range(k))
    signs = np.zeros((len(terms), len(subs)))
    for z, (a, perm) in enumerate(terms):
        signs[z, a] = perm_sign(perm)
    keys, keymap = key_map([[t.count(i) for i in range(n)] for t in tuples])
    for arr in (*prefix, *shift, *rows, *cols, signs, keymap):
        arr.setflags(write=False)       # the cached plan is shared
    return _FusionPlan(tuple(prefixes), tuple(prefix), tuple(shift), rows,
                       cols, signs, keys, keymap)


def fused_l(c: complex, u: complex, k: int,
            ctx: ModularContext) -> OperatorMatrix:
    """Fused L-operator on the k-th antisymmetric space, with entries

        sum_sigma sgn(sigma) L(u)^{i_sig(1)}_{i'_1} ... L(u-(k-1)h)^{i_sig(k)}_{i'_k}

    indexed by the subsets I, I' in combinations order.
    """
    n = ctx.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..n, got {k}")
    plan = _fusion_plan(n, k)
    hb = ctx.hbar

    def table(P):
        P = np.asarray(P, dtype=complex)
        count = len(P)
        # level r reads L(u - r hbar) at every partial shift of every sample;
        # level 0 at the samples themselves
        us, pts = [], [P]
        for r, keys in enumerate(plan.prefixes):
            us += [u - r * hb] * (len(keys) * count)
            if r:
                pts.append(shifted(P, keys, hb).swapaxes(0, 1).reshape(-1, n))
        a = l_coeff_tensor(c, us, np.concatenate(pts), ctx)
        factors, start = [], 0
        for r, keys in enumerate(plan.prefixes):
            level = a[start:start + len(keys) * count].reshape(
                len(keys), count, n, n, n)
            start += len(keys) * count
            g = level[plan.prefix[r], :, plan.shift[r]]         # [t, s, i, j]
            factors.append(g[:, :, plan.rows[r][None, :],
                             plan.cols[r][:, None]])            # [t, s, I', z]
        fused = signed_products(factors, plan.signs)            # [t, s, I', I]
        return np.einsum("kt,tswi->skiw", plan.keymap, fused)
    return OperatorMatrix(n, math.comb(n, k), plan.terms, table)


def m_trace(c: complex, u: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Trace of the fused L-operator over the degree-d antisymmetric space."""
    fl = fused_l(c, u, d, ctx)

    def table(P):
        trace = np.einsum("skii->sk", fl.table(P))
        return {key: trace[:, a] for a, key in enumerate(fl.terms)}
    return DifferenceOperator(ctx.n, fl.terms, table)


# ------------------------------------------------------------- closed form

def m_dot(c: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """The u-independent part: sum_I prod theta(lam_st + c h/n)/theta(lam_st) T_I.

    A batch reads every factor of every subset from one theta_table call.
    """
    n = ctx.n
    g = c * ctx.hbar / n
    subs = list(combinations(range(n), d))
    # s outside and t inside each subset I, [I, pair]
    s, t = np.array([[(s, t) for s in range(n) if s not in big_i
                      for t in big_i] for big_i in subs],
                    dtype=int).reshape(len(subs), d * (n - d), 2).T
    keys = tuple(canonical_key(subset_key(n, big_i)) for big_i in subs)

    def table(P):
        P = np.asarray(P, dtype=complex)
        diffs = P[:, s] - P[:, t]                               # [p, pair, I]
        den, num = theta_table([diffs, diffs + g], ctx)
        # the quotients in Python's complex arithmetic, as the rest of the
        # coefficient: numpy's complex division rounds otherwise
        ratios = [x / y for x, y in zip(num.ravel().tolist(),
                                        den.ravel().tolist())]
        return dict(zip(keys, np.prod(np.reshape(ratios, num.shape),
                                      axis=1).T))
    return DifferenceOperator(n, keys, table)


def m_closed(c: complex, u: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Closed form of M_d(c|u); d = 0 gives the identity."""
    if d == 0:
        return identity_op(ctx.n)
    num, den = theta_table([u + d * c * ctx.hbar / ctx.n, u], ctx).tolist()
    return op_scale(m_dot(c, d, ctx), num / den)


def verify_trace_closed(c: complex, u: complex, d: int, ctx: ModularContext,
                        samples) -> Residual:
    """Coefficientwise equality of the fused trace and the closed form."""
    return operator_residual(m_trace(c, u, d, ctx), m_closed(c, u, d, ctx),
                             samples, ctx)


def verify_spectral_factorization(c: complex, u1: complex, u2: complex, d: int,
                                  ctx: ModularContext, samples) -> Residual:
    """theta(u)/theta(u+dc hbar/n) M_d(c|u) does not depend on u (trace route)."""
    def normalized(u):
        num, den = theta_table([u, u + d * c * ctx.hbar / ctx.n],
                               ctx).tolist()
        return op_scale(m_trace(c, u, d, ctx), num / den)
    return operator_residual(normalized(u1), normalized(u2), samples, ctx)


def verify_commutation(c: complex, u: complex, v: complex, d: int, dp: int,
                       ctx: ModularContext, samples) -> Residual:
    """[M_d(c|u), M_dp(c|v)] = 0 on the closed forms."""
    return commutator_residual(m_closed(c, u, d, ctx), m_closed(c, v, dp, ctx),
                               samples, ctx)


def verify_commutation_trace(c: complex, u: complex, v: complex, d: int,
                             dp: int, ctx: ModularContext, samples) -> Residual:
    """[M_d(c|u), M_dp(c|v)] = 0 on the fused-trace construction."""
    return commutator_residual(m_trace(c, u, d, ctx), m_trace(c, v, dp, ctx),
                               samples, ctx)


# ------------------------------------------------- generating function

def genfunc_sum(c: complex, u: complex, t: complex,
                ctx: ModularContext) -> DifferenceOperator:
    """sum_{d=0}^n (-t)^(n-d) M_d(c|u) from the closed forms."""
    n = ctx.n
    return op_add(*[op_scale(m_closed(c, u, d, ctx), (-t) ** (n - d))
                    for d in range(n + 1)])


def verify_genfunc(c: complex, u: complex, t: complex, ctx: ModularContext,
                   samples) -> Residual:
    """Normal-ordered det[L(c|u) - t] against the generating sum."""
    return operator_residual(normal_det(l_op(c, u, ctx), t, ctx),
                             genfunc_sum(c, u, t, ctx), samples, ctx)


def _level_thetas(v: complex, P, ctx: ModularContext) -> np.ndarray:
    """[s, i, j] = theta_level_j(v/n - lam_i) at P[s], from one
    theta_level_table call."""
    n = ctx.n
    args = (v / n - np.asarray(P, dtype=complex)).ravel()
    return theta_level_table(range(n), args, ctx).T.reshape(-1, n, n)


def sekiguchi_matrix(c: complex, u: complex, t: complex,
                     ctx: ModularContext) -> OperatorMatrix:
    """Entry (i, j) = theta_j((u+c h)/n - lam_i) T_i - t theta_j(u/n - lam_i);
    a batch reads two theta_level_table calls."""
    n = ctx.n
    rows = np.arange(n)

    def table(P):
        out = np.zeros((len(P), n + 1, n, n), dtype=complex)
        out[:, rows, rows] = _level_thetas(u + c * ctx.hbar, P, ctx)
        out[:, n] = -t * _level_thetas(u, P, ctx)
        return out
    terms = tuple(unit_key(n, i) for i in range(n)) + ((0,) * n,)
    return OperatorMatrix(n, n, terms, table)


def verify_sekiguchi(c: complex, u: complex, t: complex, ctx: ModularContext,
                     samples) -> Residual:
    """Numerator determinant of the difference generating function.

    :det[theta_j((u+c h)/n - lam_i) T_i - t theta_j(u/n - lam_i)]: equals
    det[theta_j(u/n - lam_i)] * sum_d (-t)^(n-d) M_d(c|u) coefficientwise.
    """
    zero = (0,) * ctx.n
    det = normal_det(sekiguchi_matrix(c, u, t, ctx), 0.0, ctx)
    weight = DifferenceOperator(ctx.n, (zero,), lambda P: {
        zero: np.linalg.det(_level_thetas(u, P, ctx))})
    return operator_residual(det, op_scale(genfunc_sum(c, u, t, ctx), weight),
                             samples, ctx)


# ------------------------------------------------------------ Lax matrix

def ltilde_table(g: complex, u: complex, P,
                 ctx: ModularContext) -> np.ndarray:
    """C[s, i, j], the coefficient of T_i in the Lax entry (i, j) at P[s]:

        theta(g + u + lam_ji)/theta(u) prod_{k != j} theta(g + lam_ki)/theta(lam_kj)

    with g = c hbar/n; the limit checks read it at g = c h/n for small h.
    The thetas of a batch come from one theta_table call.
    """
    n = ctx.n
    P = np.asarray(P, dtype=complex)
    diff = P[:, :, None] - P[:, None, :]                       # [s, k, i]
    values = theta_table(np.append(np.stack([(g + u) + diff, g + diff, diff]),
                                   u), ctx)
    shifted, plain, gap = values[:-1].reshape(3, *diff.shape)
    off = ~np.eye(n, dtype=bool)
    if np.any(np.abs(gap[:, off]) < ctx.tol_identity):
        raise SingularParameterError("resonant weight point in Lax entry")
    gap = np.where(off, gap, 1.0)
    coeff = shifted.transpose(0, 2, 1) / values[-1]           # [s, i, j]
    for k in range(n):
        ratio = plain[:, k, :, None] / gap[:, k, None, :]
        ratio[:, :, k] = 1.0                                  # no factor k = j
        coeff = coeff * ratio
    return coeff


def l_tilde(c: complex, u: complex, ctx: ModularContext) -> OperatorMatrix:
    """Difference Lax matrix: entry (i, j) = ltilde_table[i, j] T_i."""
    n = ctx.n
    g = c * ctx.hbar / n
    rows = np.arange(n)

    def table(P):
        out = np.zeros((len(P), n, n, n), dtype=complex)
        out[:, rows, rows] = ltilde_table(g, u, P, ctx)
        return out
    return OperatorMatrix(n, n, tuple(unit_key(n, i) for i in range(n)), table)


def l_tilde_conjugated(c: complex, u: complex,
                       ctx: ModularContext) -> OperatorMatrix:
    """Independent route: L(c|u) conjugated by the intertwiner matrices,
    entry (i, j) = sum_ab phi(u)[a, i] L(c|u)^a_b phibar(u)[j, b]."""
    n = ctx.n

    def table(P):
        us = [u] * len(P)
        phi, phibar = intertwiner_arrays(us, P, ctx)
        return np.einsum("sai,skab,sjb->skij", phi,
                         l_coeff_tensor(c, us, P, ctx), phibar)
    return OperatorMatrix(n, n, tuple(unit_key(n, k) for k in range(n)), table)


def verify_ltilde_conjugation(c: complex, u: complex, ctx: ModularContext,
                              samples) -> Residual:
    direct = l_tilde(c, u, ctx)
    conj = l_tilde_conjugated(c, u, ctx)
    return worst_of(operator_residual(direct.entry(i, j), conj.entry(i, j),
                                      samples, ctx)
                    for i in range(ctx.n) for j in range(ctx.n))


def verify_ltilde_limit(c: complex, u: complex, ctx: ModularContext,
                        samples, steps=(1e-4, 1e-5)) -> Residual:
    """Entries of l_tilde tend to the identity matrix with error O(hbar).

    Measures the worst deviation from delta at both steps; the relative
    residual compares the hbar-normalized errors (equal for a clean first
    order limit), the absolute residual is the deviation at the small step.
    """
    h1, h2 = steps
    errs = {h: float(np.max(np.abs(ltilde_table(c * h / ctx.n, u, samples, ctx)
                                   - np.eye(ctx.n))))
            for h in steps}
    a1, a2 = errs[h1] / abs(h1), errs[h2] / abs(h2)
    return Residual(rel=abs(a1 - a2) / (a1 + a2 + _EPS), abs=errs[h2])


def verify_genfunc_ltilde(c: complex, u: complex, t: complex,
                          ctx: ModularContext, samples) -> Residual:
    """:det[l_tilde - t]: also reproduces the generating sum."""
    return operator_residual(normal_det(l_tilde(c, u, ctx), t, ctx),
                             genfunc_sum(c, u, t, ctx), samples, ctx)


def verify_fused_rll(c: complex, u: complex, v: complex, k: int, kp: int,
                     ctx: ModularContext, P, fns) -> Residual:
    """Fused RLL relation with the projected fused braid matrix.

    Both sides are contracted from tabulated coefficients: the operator
    applied first is read at lam, the other one at lam shifted by each key
    of the first, and the test functions at the doubly shifted points, each
    called once.  The values of all test functions are one axis, so each
    side is one einsum, on a contraction path (optimize=True).
    """
    n = ctx.n
    hb = ctx.hbar
    nk, nkp = math.comb(n, k), math.comb(n, kp)
    # rows (J'', I''), columns (I', J')
    rf = fused_rcheck_matrix(k, kp, u, v, ctx).reshape(nkp, nk, nk, nkp)
    flu, flv = fused_l(c, u, k, ctx), fused_l(c, v, kp, ctx)
    P = np.asarray(P, dtype=complex)
    count, ku, kv = len(P), len(flu.terms), len(flv.terms)
    after_u = shifted(P, flu.terms, hb)                        # [s, K, n]
    after_v = shifted(P, flv.terms, hb)
    a_u0 = flu.table(P)                                        # [s,K,I,I']
    a_v0 = flv.table(P)                                        # [s,K,J,J']
    a_v_after = flv.table(after_u.reshape(-1, n)).reshape(
        count, ku, kv, nkp, nkp)
    a_u_after = flu.table(after_v.reshape(-1, n)).reshape(
        count, kv, ku, nk, nk)
    pts_uv = shifted(after_u, flv.terms, hb)                   # [s,K,M,n]
    pts_vu = shifted(after_v, flu.terms, hb)
    f_uv = np.stack([f(pts_uv) for f in fns], axis=-1)         # [s,K,M,f]
    f_vu = np.stack([f(pts_vu) for f in fns], axis=-1)
    # lhs[I,J,I'',J''] = sum R^{I'J'}_{I''J''} (L_u^I_I' L_v^J_J' f)
    lhs = np.einsum("dcxy,skix,skmjy,skmf->fsijcd",
                    rf, a_u0, a_v_after, f_uv, optimize=True)
    # rhs[I,J,I'',J''] = sum R^{IJ}_{AB} (L_v^B_J'' L_u^A_I'' f)
    rhs = np.einsum("yxij,skyd,skmxc,skmf->fsijcd",
                    rf, a_v0, a_u_after, f_vu, optimize=True)
    # np.max, unlike Python's max, keeps a NaN, so a NaN residual fails
    worst = float(np.max(np.abs(lhs - rhs)))
    scale = float(np.max([np.max(np.abs(lhs)), np.max(np.abs(rhs))]))
    return Residual(rel=worst / (scale + _EPS), abs=worst)


# --------------------------------------------------------- Krichever matrix

def krichever_k(c: complex, u: complex, ctx: ModularContext) -> list:
    """K(c|u)^i_j as a matrix of first-order differential operators."""
    n = ctx.n
    g = c / n
    tu = theta(u, ctx)
    tu1, tp0 = theta_table([u, 0.0], ctx, 1).tolist()
    diag_scalar = g * tu1 / tu
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(pdo(n, [((0,) * n, diag_scalar),
                                   (tuple(1 if a == j else 0 for a in range(n)),
                                    1.0)]))
            else:
                def cfn(P, order, _i=i, _j=j):
                    grad = [0.0] * n
                    grad[_j], grad[_i] = 1.0, -1.0
                    xs = P[:, _j] - P[:, _i]
                    # theta^(m) at u + x and at x, [s, m]
                    shifted, plain = np.stack(
                        [theta_table([u + xs, xs], ctx, m)
                         for m in range(order + 1)], axis=-1)
                    num = jet_of_affine(shifted * g * tp0 / tu, grad)
                    return jet_mul(num, jet_inv(jet_of_affine(plain, grad), n),
                                   n)
                row.append(pdo(n, [((0,) * n, cfn)]))
        out.append(row)
    return out


def verify_krichever(c: complex, u: complex, ctx: ModularContext, samples,
                     step: float = 1e-3) -> Residual:
    """Richardson hbar-derivative of the Lax matrix against the closed form.

    d/dh of the l_tilde coefficients at h=0 (central differences at step and
    2*step), conjugated by Delta^{c/n} and the diagonal theta similarity,
    must reproduce the scalar parts of krichever_k.
    """
    n = ctx.n
    g = c / n
    tab = {h: ltilde_table(c * h / n, u, samples, ctx)
           for h in (step, -step, 2 * step, -2 * step)}
    d1 = (tab[step] - tab[-step]) / (2 * step)
    d2 = (tab[2 * step] - tab[-2 * step]) / (4 * step)
    derivs = (4 * d1 - d2) / 3.0                                # [s, i, j]
    samples = np.asarray(samples, dtype=complex)
    diff = samples[:, :, None] - samples[:, None, :]           # [s, i, j]
    # theta(lam_ij), theta(u + lam_ij) and theta(u) from one table, and
    # theta'(lam_ij), theta'(u) and theta'(0) from one more
    values = theta_table(np.append(np.stack([diff, u + diff]), u), ctx)
    plain, shifted = values[:-1].reshape(2, *diff.shape)
    tu = complex(values[-1])
    dvalues = theta_table(np.append(diff, [u, 0.0]), ctx, 1)
    dplain = dvalues[:-2].reshape(diff.shape)
    tu1, tp0 = dvalues[-2:].tolist()
    eye = np.eye(n, dtype=bool)
    plain = np.where(eye, 1.0, plain)           # theta(0) = 0 is never read
    # off the diagonal: prod_{k != j} theta(lam_kj) / prod_{k != i}
    # theta(lam_ki) times the derivative, against the theta closed form
    cols = np.prod(plain, axis=1)                               # [s, j]
    got = cols[:, None, :] / cols[:, :, None] * derivs
    want = g * shifted.transpose(0, 2, 1) * tp0 / (tu * plain.transpose(0, 2, 1))
    # on it: Delta^{-c/n} d_i Delta^{c/n} adds (c/n) d_i log Delta
    dlog = np.sum(np.where(eye, 0.0, dplain / plain), axis=-1)  # [s, i]
    got[:, eye] = derivs[:, eye] + g * dlog
    want[:, eye] = g * tu1 / tu
    return worst_of_arrays(*residual_arrays(got, want))


# ------------------------------------------------------ Ruijsenaars weight

def _dplus(z, g: complex, ctx: ModularContext) -> np.ndarray:
    """The building factor of the ground-state weight (double q,p-product)
    at every z of an array."""
    q, p = ctx.q, ctx.p
    if abs(q) >= 1.0:
        raise SingularParameterError(f"|q| must be < 1, got {abs(q)}")
    qg = cmath.exp(2j * cmath.pi * ctx.hbar * g)
    mmax = max(8, int(math.ceil(-40.0 / math.log10(abs(q)))))
    kmax = max(4, int(math.ceil(-40.0 / math.log10(abs(p)))))
    pk = p ** np.arange(kmax + 1)[:, None]
    pk1 = pk * p
    qm = q ** np.arange(mmax + 1)[None, :]
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


def phi_ratio_closed(lam, subset, g: complex,
                     ctx: ModularContext) -> complex:
    """Phi / T_I Phi from the telescoped theta form, at one point lam[n]."""
    hb = ctx.hbar
    gh = g * hb
    lam = np.asarray(lam, dtype=complex)
    rest = [j for j in range(ctx.n) if j not in subset]
    lij = (lam[list(subset)][:, None] - lam[rest]).ravel()
    num1, num2, den1, den2 = theta_table(
        [hb + lij, gh - lij, gh + hb + lij, -lij], ctx)
    return complex(np.prod(num1 * num2 / (den1 * den2)))


def verify_ruijsenaars(c: complex, u: complex, d: int, lam,
                       ctx: ModularContext) -> dict:
    """Both halves of the ground-state conjugation identity at one point
    lam[n].

    'ratio':  Phi/T_i Phi from the double product vs the theta closed form.
    'coefficient': for each |I| = d the squared coefficient identity
        C_I(lam) * (T_I Phi / Phi) = prod theta(g h + h + lam_ts)/theta(h + lam_ts),
    which is the branch-free square of the symmetrized form.
    """
    n = ctx.n
    hb = ctx.hbar
    g = c / n
    gh = g * hb
    base = phi_weight(lam, g, ctx)
    units = shifted(lam, [unit_key(n, i) for i in range(n)], hb)
    ratio = worst_of_arrays(*residual_arrays(
        base / phi_weight(units, g, ctx),
        np.array([phi_ratio_closed(lam, (i,), g, ctx) for i in range(n)])))
    subs = list(combinations(range(n), d))
    raised = shifted(lam, [subset_key(n, subset) for subset in subs], hb)
    # lam_st for s outside and t inside each subset, [subset, pair]: C_I
    # and the rhs are products over the pairs
    s, t = np.array([[(s, t) for s in range(n) if s not in subset
                      for t in subset] for subset in subs],
                    dtype=int).reshape(len(subs), d * (n - d), 2).T
    lst = (lam[s] - lam[t]).T
    num, den, rnum, rden = theta_table([lst + gh, lst, gh + hb - lst, hb - lst],
                                       ctx)
    lhs = np.prod(num / den, axis=-1) * phi_weight(raised, g, ctx) / base
    found = residual_arrays(lhs, np.prod(rnum / rden, axis=-1))
    return {"ratio": ratio, "coefficient": worst_of_arrays(*found)}


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


def _delta_ratios(jd: np.ndarray, order: int, jsets, n: int) -> dict:
    """{J: jets of d^J Delta / Delta} to the given order, from the jet jd of
    Delta, at least len(J) orders deeper, inverted once.  The empty J gives
    the constant 1 exactly, not Delta times its rounded inverse, whose noisy
    derivatives a composition would pick up."""
    inv = jet_inv(jd, n)
    width = math.comb(n + order, n)
    return {jset: jet_mul(jet_deriv(jd, n, [int(a in jset) for a in range(n)])
                          [:, :width], inv, n) if jset else
            jet_constant(1.0, len(jd), n, order) for jset in jsets}


def build_d_ops(c: complex, u: complex, ctx: ModularContext) -> list:
    """The commuting differential operators D[1..n] (Debiard normalization):

    D[m] = sum_{|I|=m} sum_{J subset I} (d^J Delta / Delta) (-n/c d)^{I \\ J}.

    A read of D[m]'s table builds d^J Delta / Delta once per distinct J
    (at n = 3, D[3] has 26 (I, J) items and 8 distinct J).
    """
    n = ctx.n
    factor = -n / c

    def d_op(m):
        items = [(tuple(int(a in big_i and a not in jset) for a in range(n)),
                  jset, factor ** (m - jsize))
                 for big_i in combinations(range(n), m)
                 for jsize in range(m + 1)
                 for jset in combinations(big_i, jsize)]
        jsets = tuple(dict.fromkeys(jset for _, jset, _ in items))

        def table(P, order=0):
            # Delta's jet to the order the largest J needs
            ratios = _delta_ratios(delta_jet(P, order + max(map(len, jsets)),
                                             ctx), order, jsets, n)
            out = {}
            for alpha, jset, scale in items:
                out[alpha] = out.get(alpha, 0.0) + ratios[jset] * scale
            return out
        return DifferentialOperator(
            n, tuple(dict.fromkeys(alpha for alpha, _, _ in items)), table)
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
        out, zero = {}, jet_constant(0.0, len(P), n, order)
        for i, e in enumerate(units):
            gi = ratios[(i,)] * g
            out[tuple(2 * x for x in e)] = jet_constant(1.0, len(P), n,
                                                        order)
            out[e] = gi[:, :width] * (-2.0)
            zero = (zero + jet_deriv(gi, n, e) * (-1.0)
                    + jet_mul(gi[:, :width], gi, n))
        # sum_{k<l} (log theta)''(lam_kl), each as d_k (d_k theta / theta)
        pot = sum(jet_deriv(jet_mul(jet_deriv(pair_jets[:, p], n, e)
                                    [:, :deeper], pair_inv[:, p], n), n, e)
                  for p, e in enumerate(firsts))
        out[(0,) * n] = zero + 2.0 * g * (g + 1.0) * pot
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
    d_ops = build_d_ops(c, 0.0, ctx)
    d1 = pdo_scale(d_ops[0], g)
    d2 = pdo_scale(d_ops[1], g * g)
    combo = pdo_add(pdo_compose(d1, d1, ctx), pdo_scale(d2, -2.0))
    return operator_residual(combo, hamiltonian_cm(c, ctx), samples, ctx)


def _mdot_apply(c: complex, d: int, hb: complex, f, P,
                ctx: ModularContext) -> np.ndarray:
    """(Mdot_d f)(P[s]) at the deformation parameter hb."""
    sctx = ctx.replace(hbar=hb)
    return apply_batch(m_dot(c, d, sctx), f, P, sctx)


def verify_cm_limit(c: complex, ctx: ModularContext, samples, vecs,
                    steps=(1e-3, 2e-3)) -> Residual:
    """(1/h^2)(-2 Mdot_2 + Mdot_1^2 - 2 Mdot_1 + n) -> H as h -> 0.

    E(h) has a term odd in h, so the symmetric part S(h) = (E(h) + E(-h))/2
    is even in h; Richardson on S at the two steps cancels its h^2 term,
    leaving O(h^4).
    """
    n = ctx.n
    h1, h2 = steps
    ham = hamiltonian_cm(c, ctx)
    samples = np.asarray(samples, dtype=complex)
    got, want = [], []
    for vec in vecs:
        fjet = exp_test_function(vec)
        f = exp_function(vec)
        fvals = f(samples)

        def expr(hb):
            sctx = ctx.replace(hbar=hb)
            m1 = m_dot(c, 1, sctx)
            m2 = m_dot(c, 2, sctx)
            v2, v11, v1 = (apply_batch(op, f, samples, sctx)
                           for op in (m2, compose(m1, m1, sctx), m1))
            return (-2.0 * v2 + v11 - 2.0 * v1 + n * fvals) / (hb * hb)

        s1, s2 = ((expr(h) + expr(-h)) / 2.0 for h in (h1, h2))
        got.append((h2 * h2 * s1 - h1 * h1 * s2) / (h2 * h2 - h1 * h1))
        want.append(pdo_apply(ham, fjet, samples))
    return worst_of_arrays(*residual_arrays(np.array(got), np.array(want)))


def verify_d2_via_mdot(c: complex, ctx: ModularContext, samples, vecs,
                       step: float = 1e-2) -> Residual:
    """(c/n)^2 D[2] = (Mdot_2'' - (n-1) Mdot_1'')/2 via hbar differences."""
    n = ctx.n
    g = c / n
    d2 = pdo_scale(build_d_ops(c, 0.0, ctx)[1], g * g)
    samples = np.asarray(samples, dtype=complex)
    got, want = [], []
    for vec in vecs:
        fjet = exp_test_function(vec)
        f = exp_function(vec)
        fvals = f(samples)

        def second(dd):
            f0 = math.comb(n, dd) * fvals

            def dd2(h):
                return (_mdot_apply(c, dd, h, f, samples, ctx) - 2.0 * f0
                        + _mdot_apply(c, dd, -h, f, samples, ctx)) / (h * h)
            return (4.0 * dd2(step) - dd2(2 * step)) / 3.0
        got.append((second(2) - (n - 1) * second(1)) / 2.0)
        want.append(pdo_apply(d2, fjet, samples))
    return worst_of_arrays(*residual_arrays(np.array(got), np.array(want)))


# ------------------------------------------------------- Macdonald limit

def verify_macdonald_limit(c: complex, u: complex, d: int,
                           ctx: ModularContext, samples) -> Residual:
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
    coeffs = mop.table(samples)
    z = np.exp(2j * np.pi * samples)
    sides = []                                  # [subset, lhs/rhs, s, case]
    for subset in combinations(range(n), d):
        s, t = np.array([(s, t) for s in range(n) if s not in subset
                         for t in subset], dtype=int).reshape(-1, 2).T
        lst = samples[:, s] - samples[:, t]
        sine = np.prod(np.sin(np.pi * (lst + gh)) / np.sin(np.pi * lst), axis=-1)
        zform = np.prod((tpar * z[:, s] - z[:, t]) / (z[:, s] - z[:, t])
                        / tpar_half, axis=-1)
        got = coeffs[canonical_key(subset_key(n, subset))]
        sides.append([np.stack([got, sine], -1), np.stack([sine, zform], -1)])
    lhs, rhs = np.array(sides).transpose(1, 2, 0, 3)
    return worst_of_arrays(*residual_arrays(lhs, rhs))
