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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .context import ModularContext, SingularParameterError
from .belavin import fused_rcheck_matrix, intertwiners
from .opalg import (DifferenceOperator, DifferentialOperator, Jet, apply_op,
                    compose, diff_op, exp_test_function, identity_op,
                    jet_of_affine, op_add, op_scale,
                    operator_residual, normal_det, pdo, pdo_add, pdo_apply,
                    pdo_compose, pdo_scale, perm_sign)
from .theta import Residual, residual_pair, theta, theta_level_n
from .weights import WeightPoint, subset_key, unit_key

_EPS = 1e-300


# ----------------------------------------------------------- basic L-operator

def l_coeff_tensor(c: complex, u: complex, lam: WeightPoint,
                   ctx: ModularContext) -> np.ndarray:
    """A[k,i,j](lam) with L(c|u)^i_j = sum_k A[k,i,j] T_k."""
    def build():
        pu = intertwiners(u, lam, ctx)
        puc = intertwiners(u + c * ctx.hbar, lam, ctx)
        return np.einsum("ki,jk->kij", pu.phibar, puc.phi)
    return ctx.cached(("lc", complex(c), complex(u), lam.coords), build)


@dataclass(frozen=True)
class LOperator:
    """Matrix of difference operators; each entry has n single-shift terms."""

    c: complex
    u: complex
    entries: tuple  # entries[i][j] is a DifferenceOperator


def l_op(c: complex, u: complex, ctx: ModularContext) -> LOperator:
    n = ctx.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            items = []
            for k in range(n):
                def fn(lam, _k=k, _i=i, _j=j):
                    return l_coeff_tensor(c, u, lam, ctx)[_k, _i, _j]
                items.append((unit_key(n, k), fn))
            row.append(diff_op(n, items))
        rows.append(tuple(row))
    return LOperator(c, u, tuple(rows))


def verify_rll(c: complex, u: complex, v: complex, ctx: ModularContext,
               lams, fns) -> Residual:
    """Residual of Rcheck(u-v) L(u) (x) L(v) = L(v) (x) L(u) Rcheck(u-v)
    applied to the given test functions at the given weight points."""
    return verify_fused_rll(c, u, v, 1, 1, ctx, lams, fns)


# ------------------------------------------------------------------ fusion

@dataclass(frozen=True)
class FusedL:
    """Fused L-operator on the k-th antisymmetric space, indexed by subsets."""

    c: complex
    u: complex
    k: int
    entries: dict  # (I, I') -> DifferenceOperator


def fused_l(c: complex, u: complex, k: int, ctx: ModularContext) -> FusedL:
    """Entries sum_sigma sgn(sigma) L(u)^{i_sig(1)}_{i'_1} ... L(u-(k-1)h)^{i_sig(k)}_{i'_k}."""
    n = ctx.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..n, got {k}")
    levels = [l_op(c, u - r * ctx.hbar, ctx) for r in range(k)]
    entries = {}
    for big_i in combinations(range(n), k):
        for big_ip in combinations(range(n), k):
            parts = []
            for perm in permutations(range(k)):
                sgn = perm_sign(perm)
                op = levels[0].entries[big_i[perm[0]]][big_ip[0]]
                for r in range(1, k):
                    op = compose(op, levels[r].entries[big_i[perm[r]]][big_ip[r]], ctx)
                parts.append(op if sgn > 0 else op_scale(op, -1.0))
            entries[(big_i, big_ip)] = op_add(*parts)
    return FusedL(c, u, k, entries)


def m_trace(c: complex, u: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Trace of the fused L-operator over the degree-d antisymmetric space."""
    fl = fused_l(c, u, d, ctx)
    return op_add(*[fl.entries[(big_i, big_i)]
                    for big_i in combinations(range(ctx.n), d)])


# ------------------------------------------------------------- closed form

def m_dot(c: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """The u-independent part: sum_I prod theta(lam_st + c h/n)/theta(lam_st) T_I."""
    n = ctx.n
    g = c * ctx.hbar / n
    items = []
    for big_i in combinations(range(n), d):
        inside = set(big_i)
        def fn(lam, _inside=frozenset(inside)):
            val = 1.0 + 0.0j
            for s in range(n):
                if s in _inside:
                    continue
                for t in _inside:
                    val *= theta(lam.diff(s, t) + g, ctx) / theta(lam.diff(s, t), ctx)
            return val
        items.append((subset_key(n, inside), fn))
    return diff_op(n, items)


def m_closed(c: complex, u: complex, d: int, ctx: ModularContext) -> DifferenceOperator:
    """Closed form of M_d(c|u); d = 0 gives the identity."""
    if d == 0:
        return identity_op(ctx.n)
    pref = theta(u + d * c * ctx.hbar / ctx.n, ctx) / theta(u, ctx)
    return op_scale(m_dot(c, d, ctx), pref)


def verify_trace_closed(c: complex, u: complex, d: int, ctx: ModularContext,
                        samples) -> Residual:
    """Coefficientwise equality of the fused trace and the closed form."""
    return operator_residual(m_trace(c, u, d, ctx), m_closed(c, u, d, ctx),
                             samples, ctx)


def verify_spectral_factorization(c: complex, u1: complex, u2: complex, d: int,
                                  ctx: ModularContext, samples) -> Residual:
    """theta(u)/theta(u+dc hbar/n) M_d(c|u) does not depend on u (trace route)."""
    def normalized(u):
        fac = theta(u, ctx) / theta(u + d * c * ctx.hbar / ctx.n, ctx)
        return op_scale(m_trace(c, u, d, ctx), fac)
    return operator_residual(normalized(u1), normalized(u2), samples, ctx)


def verify_commutation(c: complex, u: complex, v: complex, d: int, dp: int,
                       ctx: ModularContext, samples) -> Residual:
    """[M_d(c|u), M_dp(c|v)] = 0 on the closed forms."""
    from .opalg import commutator_residual
    return commutator_residual(m_closed(c, u, d, ctx), m_closed(c, v, dp, ctx),
                               samples, ctx)


def verify_commutation_trace(c: complex, u: complex, v: complex, d: int,
                             dp: int, ctx: ModularContext, samples) -> Residual:
    """[M_d(c|u), M_dp(c|v)] = 0 on the fused-trace construction."""
    from .opalg import commutator_residual
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
    lop = l_op(c, u, ctx)
    det = normal_det([list(row) for row in lop.entries], t, ctx)
    return operator_residual(det, genfunc_sum(c, u, t, ctx), samples, ctx)


def verify_sekiguchi(c: complex, u: complex, t: complex, ctx: ModularContext,
                     samples) -> Residual:
    """Numerator determinant of the difference generating function.

    :det[theta_j((u+c h)/n - lam_i) T_i - t theta_j(u/n - lam_i)]: equals
    det[theta_j(u/n - lam_i)] * sum_d (-t)^(n-d) M_d(c|u) coefficientwise.
    """
    n = ctx.n
    hb = ctx.hbar

    def entry(i, j):
        def shifted_coeff(lam, _i=i, _j=j):
            return theta_level_n(_j, (u + c * hb) / n - lam.pair_eps(_i), ctx).value
        def scalar_coeff(lam, _i=i, _j=j):
            return -t * theta_level_n(_j, u / n - lam.pair_eps(_i), ctx).value
        return diff_op(n, [(unit_key(n, i), shifted_coeff),
                           ((0,) * n, scalar_coeff)])

    det = normal_det([[entry(i, j) for j in range(n)] for i in range(n)],
                     0.0, ctx)

    def weight(lam):
        mat = np.array([[theta_level_n(j, u / n - lam.pair_eps(i), ctx).value
                         for j in range(n)] for i in range(n)])
        return complex(np.linalg.det(mat))

    rhs = op_scale(genfunc_sum(c, u, t, ctx), weight)
    return operator_residual(det, rhs, samples, ctx)


# ------------------------------------------------------------ Lax matrix

def ltilde_coeff(c: complex, u: complex, i: int, j: int, lam: WeightPoint,
                 ctx: ModularContext, hbar_override: complex = None) -> complex:
    """Coefficient of T_i in the conjugated L-operator entry (i, j).

    hbar_override replaces c*hbar/n (only) for derivative probes in hbar;
    the lattice shift itself is handled by the caller.
    """
    hb = ctx.hbar if hbar_override is None else hbar_override
    g = c * hb / ctx.n
    den = theta(u, ctx)
    val = theta(g + u + lam.diff(j, i), ctx) / den
    for k in range(ctx.n):
        if k == j:
            continue
        dkj = theta(lam.diff(k, j), ctx)
        if abs(dkj) < ctx.tol_identity:
            raise SingularParameterError("resonant weight point in Lax entry")
        val *= theta(g + lam.diff(k, i), ctx) / dkj
    return val


def l_tilde(c: complex, u: complex, ctx: ModularContext) -> LOperator:
    """Difference Lax matrix: entry (i,j) = coefficient * T_i."""
    n = ctx.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            def fn(lam, _i=i, _j=j):
                return ltilde_coeff(c, u, _i, _j, lam, ctx)
            row.append(diff_op(n, [(unit_key(n, i), fn)]))
        rows.append(tuple(row))
    return LOperator(c, u, tuple(rows))


def l_tilde_conjugated(c: complex, u: complex, ctx: ModularContext) -> LOperator:
    """Independent route: conjugate L(c|u) by the intertwiner matrices."""
    n = ctx.n
    lop = l_op(c, u, ctx)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            parts = []
            for a in range(n):
                for b in range(n):
                    def factor(lam, _a=a, _b=b, _i=i, _j=j):
                        pair = intertwiners(u, lam, ctx)
                        return pair.phibar[_j, _b] * pair.phi[_a, _i]
                    parts.append(op_scale(lop.entries[a][b], factor))
            row.append(op_add(*parts))
        rows.append(tuple(row))
    return LOperator(c, u, tuple(rows))


def verify_ltilde_conjugation(c: complex, u: complex, ctx: ModularContext,
                              samples) -> Residual:
    direct = l_tilde(c, u, ctx)
    conj = l_tilde_conjugated(c, u, ctx)
    worst = Residual(0.0, 0.0)
    for i in range(ctx.n):
        for j in range(ctx.n):
            r = operator_residual(direct.entries[i][j], conj.entries[i][j],
                                  samples, ctx)
            if r.rel > worst.rel:
                worst = r
    return worst


def verify_ltilde_limit(c: complex, u: complex, ctx: ModularContext,
                        samples, steps=(1e-4, 1e-5)) -> Residual:
    """Entries of l_tilde tend to the identity matrix with error O(hbar).

    Measures the worst deviation from delta at both steps; the relative
    residual compares the hbar-normalized errors (equal for a clean first
    order limit), the absolute residual is the deviation at the small step.
    """
    h1, h2 = steps
    errs = {}
    for h in steps:
        sctx = ctx.replace(hbar=h)
        worst = 0.0
        for lam in samples:
            for i in range(ctx.n):
                for j in range(ctx.n):
                    val = ltilde_coeff(c, u, i, j, lam, sctx)
                    worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        errs[h] = worst
    a1, a2 = errs[h1] / abs(h1), errs[h2] / abs(h2)
    return Residual(rel=abs(a1 - a2) / (a1 + a2 + _EPS), abs=errs[h2])


def verify_genfunc_ltilde(c: complex, u: complex, t: complex,
                          ctx: ModularContext, samples) -> Residual:
    """:det[l_tilde - t]: also reproduces the generating sum."""
    lt = l_tilde(c, u, ctx)
    det = normal_det([list(row) for row in lt.entries], t, ctx)
    return operator_residual(det, genfunc_sum(c, u, t, ctx), samples, ctx)


def _shift_keys(fl: FusedL) -> list:
    """Every shift key that occurs in some entry of the fused L-operator."""
    return sorted(set().union(*(op.terms for op in fl.entries.values())))


def _coeff_table(fl: FusedL, keys, lam: WeightPoint) -> np.ndarray:
    """A[key, I, I'] = coefficient of T_key in the entry (I, I') at lam."""
    subs = list(combinations(range(lam.n), fl.k))
    return np.array([[[fl.entries[(big_i, big_ip)].coeff(key, lam)
                       for big_ip in subs] for big_i in subs] for key in keys])


def verify_fused_rll(c: complex, u: complex, v: complex, k: int, kp: int,
                     ctx: ModularContext, lams, fns) -> Residual:
    """Fused RLL relation with the projected fused braid matrix.

    Both sides are contracted from tabulated coefficients: the operator
    applied first is read at lam, the other one at lam shifted by each key
    of the first, and the test function at the doubly shifted points.
    """
    n = ctx.n
    hb = ctx.hbar
    nk, nkp = math.comb(n, k), math.comb(n, kp)
    # rows (J'', I''), columns (I', J')
    rf = fused_rcheck_matrix(k, kp, u, v, ctx).reshape(nkp, nk, nk, nkp)
    flu, flv = fused_l(c, u, k, ctx), fused_l(c, v, kp, ctx)
    keys_u, keys_v = _shift_keys(flu), _shift_keys(flv)
    worst, scale = 0.0, 0.0
    for lam in lams:
        after_u = [lam.shifted(key, hb) for key in keys_u]
        after_v = [lam.shifted(key, hb) for key in keys_v]
        a_u0 = _coeff_table(flu, keys_u, lam)                  # [K,I,I']
        a_v0 = _coeff_table(flv, keys_v, lam)                  # [K,J,J']
        a_v_after = np.stack([_coeff_table(flv, keys_v, mu)
                              for mu in after_u])              # [K,K',J,J']
        a_u_after = np.stack([_coeff_table(flu, keys_u, mu)
                              for mu in after_v])              # [K,K',A,I'']
        pts_uv = [[mu.shifted(key, hb) for key in keys_v] for mu in after_u]
        pts_vu = [[mu.shifted(key, hb) for key in keys_u] for mu in after_v]
        for f in fns:
            f_uv = np.array([[f(pt) for pt in row] for row in pts_uv])
            f_vu = np.array([[f(pt) for pt in row] for row in pts_vu])
            # lhs[I,J,I'',J''] = sum R^{I'J'}_{I''J''} (L_u^I_I' L_v^J_J' f)
            lhs = np.einsum("dcxy,kix,kmjy,km->ijcd",
                            rf, a_u0, a_v_after, f_uv)
            # rhs[I,J,I'',J''] = sum R^{IJ}_{AB} (L_v^B_J'' L_u^A_I'' f)
            rhs = np.einsum("yxij,kyd,kmxc,km->ijcd",
                            rf, a_v0, a_u_after, f_vu)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    return Residual(rel=worst / (scale + _EPS), abs=worst)


# --------------------------------------------------------- Krichever matrix

def krichever_k(c: complex, u: complex, ctx: ModularContext) -> list:
    """K(c|u)^i_j as a matrix of first-order differential operators."""
    n = ctx.n
    g = c / n
    tu = theta(u, ctx)
    diag_scalar = g * theta(u, ctx, 1) / tu
    tp0 = theta(0.0, ctx, 1)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                def cfn(lam, order, _v=diag_scalar):
                    return Jet.constant(lam.n, order, _v)
                row.append(pdo(n, [((0,) * n, cfn),
                                   (tuple(1 if a == j else 0 for a in range(n)),
                                    lambda lam, order: Jet.constant(lam.n, order, 1.0))]))
            else:
                def cfn(lam, order, _i=i, _j=j):
                    grad = [0.0] * n
                    grad[_j], grad[_i] = 1.0, -1.0
                    num = jet_of_affine(
                        lambda m: theta(u + lam.diff(_j, _i), ctx, m) * g * tp0 / tu,
                        0.0, grad, lam, order)
                    den = jet_of_affine(
                        lambda m: theta(lam.diff(_j, _i), ctx, m),
                        0.0, grad, lam, order)
                    return num / den
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
    worst = Residual(0.0, 0.0)
    for lam in samples:
        for i in range(n):
            for j in range(n):
                def cfun(h):
                    return ltilde_coeff(c, u, i, j, lam, ctx, hbar_override=h)
                d1 = (cfun(step) - cfun(-step)) / (2 * step)
                d2 = (cfun(2 * step) - cfun(-2 * step)) / (4 * step)
                deriv = (4 * d1 - d2) / 3.0
                if i == j:
                    # Delta^{-c/n} d_i Delta^{c/n} adds (c/n) d_i log Delta
                    dlog = sum(theta(lam.diff(i, kk), ctx, 1)
                               / theta(lam.diff(i, kk), ctx)
                               for kk in range(n) if kk != i)
                    got = deriv + g * dlog
                    want = g * theta(u, ctx, 1) / theta(u, ctx)
                else:
                    ratio = 1.0 + 0.0j
                    for kk in range(n):
                        if kk != j:
                            ratio *= theta(lam.diff(kk, j), ctx)
                        if kk != i:
                            ratio /= theta(lam.diff(kk, i), ctx)
                    got = ratio * deriv
                    want = (g * theta(u + lam.diff(j, i), ctx)
                            * theta(0.0, ctx, 1)
                            / (theta(u, ctx) * theta(lam.diff(j, i), ctx)))
                r = residual_pair(got, want)
                if r.rel > worst.rel:
                    worst = r
    return worst


# ------------------------------------------------------ Ruijsenaars weight

def _dplus(z: complex, g: complex, ctx: ModularContext) -> complex:
    """The building factor of the ground-state weight (double q,p-product)."""
    q, p = ctx.q, ctx.p
    if abs(q) >= 1.0:
        raise SingularParameterError(f"|q| must be < 1, got {abs(q)}")
    qg = cmath.exp(2j * cmath.pi * ctx.hbar * g)
    mmax = max(8, int(math.ceil(-40.0 / math.log10(abs(q)))))
    kmax = max(4, int(math.ceil(-40.0 / math.log10(abs(p)))))
    val = 1.0 + 0.0j
    for k in range(kmax + 1):
        pk = p ** k
        pk1 = p ** (k + 1)
        qm = 1.0 + 0.0j        # q^m
        for m in range(mmax + 1):
            val *= (1.0 - z * qm * q * pk) / (1.0 - z * qm * q * qg * pk)
            val *= (1.0 - qm / (z * qg) * pk1) / (1.0 - qm / z * pk1)
            qm *= q
    return val


def phi_weight(lam: WeightPoint, g: complex, ctx: ModularContext) -> complex:
    """Phi(lambda) = prod_{k != k'} dplus(z_k / z_k')."""
    n = ctx.n
    z = [cmath.exp(2j * cmath.pi * lam.pair_eps(k)) for k in range(n)]
    val = 1.0 + 0.0j
    for k in range(n):
        for kp in range(n):
            if k != kp:
                val *= _dplus(z[k] / z[kp], g, ctx)
    return val


def phi_ratio_closed(lam: WeightPoint, subset, g: complex,
                     ctx: ModularContext) -> complex:
    """Phi / T_I Phi from the telescoped theta form."""
    hb = ctx.hbar
    gh = g * hb
    val = 1.0 + 0.0j
    for i in subset:
        for j in range(ctx.n):
            if j in subset:
                continue
            lij = lam.diff(i, j)
            lji = -lij
            val *= (theta(hb + lij, ctx) * theta(gh + lji, ctx)
                    / (theta(gh + hb + lij, ctx) * theta(lji, ctx)))
    return val


def verify_ruijsenaars(c: complex, u: complex, d: int, lam: WeightPoint,
                       ctx: ModularContext) -> dict:
    """Both halves of the ground-state conjugation identity.

    'ratio':  Phi/T_i Phi from the double product vs the theta closed form.
    'coefficient': for each |I| = d the squared coefficient identity
        C_I(lam) * (T_I Phi / Phi) = prod theta(g h + h + lam_ts)/theta(h + lam_ts),
    which is the branch-free square of the symmetrized form.
    """
    n = ctx.n
    hb = ctx.hbar
    g = c / n
    gh = g * hb
    out = {}
    worst = Residual(0.0, 0.0)
    base = phi_weight(lam, g, ctx)
    for i in range(n):
        shifted = phi_weight(lam.shifted_eps(i, hb), g, ctx)
        r = residual_pair(base / shifted, phi_ratio_closed(lam, (i,), g, ctx))
        if r.rel > worst.rel:
            worst = r
    out["ratio"] = worst
    worst = Residual(0.0, 0.0)
    for subset in combinations(range(n), d):
        c_i = 1.0 + 0.0j
        for s in range(n):
            if s in subset:
                continue
            for t in subset:
                c_i *= theta(lam.diff(s, t) + gh, ctx) / theta(lam.diff(s, t), ctx)
        shifted = phi_weight(lam.shifted(subset_key(n, subset), hb), g, ctx)
        lhs = c_i * shifted / base
        rhs = 1.0 + 0.0j
        for t in subset:
            for s in range(n):
                if s in subset:
                    continue
                lts = lam.diff(t, s)
                rhs *= theta(gh + hb + lts, ctx) / theta(hb + lts, ctx)
        r = residual_pair(lhs, rhs)
        if r.rel > worst.rel:
            worst = r
    out["coefficient"] = worst
    return out


# ---------------------------------------------- differential (CM) limit

def delta_jet(lam: WeightPoint, order: int, ctx: ModularContext) -> Jet:
    """Jet of Delta(lambda) = prod_{k<l} theta(lambda_k - lambda_l)."""
    def build():
        n = lam.n
        out = Jet.constant(n, order, 1.0)
        for k in range(n):
            for l in range(k + 1, n):
                grad = [0.0] * n
                grad[k], grad[l] = 1.0, -1.0
                x0 = lam.coords[k] - lam.coords[l]
                out = out * jet_of_affine(
                    lambda m, _x=x0: theta(_x, ctx, m), 0.0, grad, lam, order)
        return out
    return ctx.cached(("dj", lam.coords, order), build)


def _delta_ratio_coeff(jset: tuple, ctx: ModularContext):
    """Coefficient closure for (d^J Delta / Delta)(lambda)."""
    def fn(lam, order):
        jd = delta_jet(lam, order + len(jset), ctx)
        alpha = [0] * lam.n
        for j in jset:
            alpha[j] += 1
        return jd.dmulti(tuple(alpha)) / jd
    return fn


def build_d_ops(c: complex, u: complex, ctx: ModularContext) -> list:
    """The commuting differential operators D[1..n] (Debiard normalization):

    D[m] = sum_{|I|=m} sum_{J subset I} (d^J Delta / Delta) (-n/c d)^{I \\ J}.
    """
    n = ctx.n
    factor = -n / c
    out = []
    for m in range(1, n + 1):
        items = []
        for big_i in combinations(range(n), m):
            for jsize in range(m + 1):
                for jset in combinations(big_i, jsize):
                    rest = tuple(sorted(set(big_i) - set(jset)))
                    alpha = tuple(1 if a in rest else 0 for a in range(n))
                    scale = factor ** len(rest)
                    base = _delta_ratio_coeff(jset, ctx)
                    def fn(lam, order, _b=base, _s=scale):
                        return _b(lam, order) * _s
                    items.append((alpha, fn))
        out.append(pdo(n, items))
    return out


def hamiltonian_cm(c: complex, ctx: ModularContext) -> DifferentialOperator:
    """The elliptic Calogero-Moser hamiltonian in ground-state conjugated form,

    H = Delta^g ( sum_i d_i^2 + 2 g(g+1) sum_{i<j} (log theta)''(lam_ij) ) Delta^{-g},

    g = c/n, expanded analytically: (d_i - g_i)^2 terms with
    g_i = g d_i log Delta.  The potential coefficient +2g(g+1) is pinned by
    the hbar^2 limit of the difference family (exact to machine precision
    for n = 2, 3); in Weierstrass form it reads -2g(g+1) p(lam_ij) plus a
    constant.
    """
    n = ctx.n
    g = c / n

    def gi_jet(i, lam, order):
        jd = delta_jet(lam, order + 1, ctx)
        return (jd.dshift(i) / jd) * g

    items = []
    for i in range(n):
        items.append((tuple(2 if a == i else 0 for a in range(n)),
                      lambda lam, order: Jet.constant(lam.n, order, 1.0)))
        def lin(lam, order, _i=i):
            return gi_jet(_i, lam, order) * (-2.0)
        items.append((tuple(1 if a == i else 0 for a in range(n)), lin))

    def zero_order(lam, order):
        acc = Jet.constant(lam.n, order, 0.0)
        for i in range(n):
            gj = gi_jet(i, lam, order + 1)
            acc = acc + gj.dshift(i) * (-1.0) + gj * gj
        pot = 0.0 + 0.0j
        for i in range(n):
            for j in range(i + 1, n):
                x = lam.coords[i] - lam.coords[j]
                t0, t1, t2 = theta(x, ctx), theta(x, ctx, 1), theta(x, ctx, 2)
                pot += (t2 * t0 - t1 * t1) / (t0 * t0)
        return acc + Jet.constant(lam.n, order, 2.0 * g * (g + 1.0) * pot)
    items.append(((0,) * n, zero_order))
    return pdo(n, items)


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


def _mdot_apply(c: complex, d: int, hb: complex, f, lam: WeightPoint,
                ctx: ModularContext) -> complex:
    sctx = ctx.replace(hbar=hb)
    return apply_op(m_dot(c, d, sctx), f, lam, sctx)


def verify_cm_limit(c: complex, ctx: ModularContext, samples, vecs,
                    steps=(1e-3, 2e-3)) -> Residual:
    """(1/h^2)(-2 Mdot_2 + Mdot_1^2 - 2 Mdot_1 + n) -> H, Richardson in h."""
    n = ctx.n
    h1, h2 = steps
    ham = hamiltonian_cm(c, ctx)
    worst = Residual(0.0, 0.0)
    for vec in vecs:
        fjet = exp_test_function(vec)
        f = lambda lam: fjet(lam, 0).value
        for lam in samples:
            def expr(hb):
                sctx = ctx.replace(hbar=hb)
                m1 = m_dot(c, 1, sctx)
                m2 = m_dot(c, 2, sctx)
                v2 = apply_op(m2, f, lam, sctx)
                v11 = apply_op(compose(m1, m1, sctx), f, lam, sctx)
                v1 = apply_op(m1, f, lam, sctx)
                return (-2.0 * v2 + v11 - 2.0 * v1 + n * f(lam)) / (hb * hb)
            extrap = 2.0 * expr(h1) - expr(h2)
            want = pdo_apply(ham, fjet, lam)
            r = residual_pair(extrap, want)
            if r.rel > worst.rel:
                worst = r
    return worst


def verify_d2_via_mdot(c: complex, ctx: ModularContext, samples, vecs,
                       step: float = 1e-2) -> Residual:
    """(c/n)^2 D[2] = (Mdot_2'' - (n-1) Mdot_1'')/2 via hbar differences."""
    n = ctx.n
    g = c / n
    d2 = pdo_scale(build_d_ops(c, 0.0, ctx)[1], g * g)
    worst = Residual(0.0, 0.0)
    for vec in vecs:
        fjet = exp_test_function(vec)
        f = lambda lam: fjet(lam, 0).value
        for lam in samples:
            def second(dd):
                f0 = math.comb(n, dd) * f(lam)
                def dd2(h):
                    return (_mdot_apply(c, dd, h, f, lam, ctx) - 2.0 * f0
                            + _mdot_apply(c, dd, -h, f, lam, ctx)) / (h * h)
                return (4.0 * dd2(step) - dd2(2 * step)) / 3.0
            got = (second(2) - (n - 1) * second(1)) / 2.0
            want = pdo_apply(d2, fjet, lam)
            r = residual_pair(got, want)
            if r.rel > worst.rel:
                worst = r
    return worst


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
    worst = Residual(0.0, 0.0)
    for lam in samples:
        for subset in combinations(range(n), d):
            got = mop.coeff(subset_key(n, subset), lam)
            sine = 1.0 + 0.0j
            zform = 1.0 + 0.0j
            for s in range(n):
                if s in subset:
                    continue
                for t in subset:
                    lst = lam.diff(s, t)
                    sine *= cmath.sin(cmath.pi * (lst + gh)) / cmath.sin(cmath.pi * lst)
                    zs, zt = cmath.exp(2j * cmath.pi * lam.pair_eps(s)), \
                        cmath.exp(2j * cmath.pi * lam.pair_eps(t))
                    zform *= (tpar * zs - zt) / (zs - zt) / tpar_half
            r = residual_pair(got, sine)
            r2 = residual_pair(sine, zform)
            if r.rel > worst.rel:
                worst = r
            if r2.rel > worst.rel:
                worst = r2
    return worst
