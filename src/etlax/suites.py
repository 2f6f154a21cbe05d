"""Verification suites: named batches of residual checks over random points.

Each suite draws its sample parameters from a seeded generator, runs the
corresponding module checks, and reports per-case relative/absolute
residuals.  Suite tolerances follow the defaults below.  The hbar -> 0
cases (krichever, cm-limit and qfay-hbar0-degeneration) read Laurent
coefficients on theta.circle; their looser tolerances were set for an
earlier finite-difference extrapolation and are not tightened yet.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from . import belavin as bv
from . import theta as th
from . import thetaspace as ts
from . import transfer as tr
from .context import ModularContext, SamplingError
from .opalg import (apply_batch, commutator_residual, exp_function,
                    identity_op, jet_deriv, normal_det, op_add, op_scale,
                    operator_residual, pdo_commutator_residual)
from .report import Case, SuiteReport
from .stream import Stream
from .theta import Residual
from .weights import _MAX_TRIES, sample_many, sample_points


def _case(name: str, res, tol: float) -> Case:
    if isinstance(res, Residual):
        rel, ab = float(res.rel), float(res.abs)
    else:
        rel = ab = float(res)
    return Case(name=name, rel=rel, abs=ab, tol=tol, ok=rel < tol)


def _control_case(name: str, res, floor: float) -> Case:
    """A check that must stay LARGE (negative control); ok iff rel >= floor."""
    rel, ab = float(res.rel), float(res.abs)
    return Case(name=name, rel=rel, abs=ab, tol=floor, ok=rel >= floor,
                control=True)


def _rcs(rng, shape, box: float = 0.4) -> np.ndarray:
    """Complex draws of the given shape, real and imaginary parts uniform in
    [-box, box], from one uniform call: in row-major order, one point at a time."""
    return rng.uniform(-box, box, size=(*shape, 2)).view(complex)[..., 0]


def _rc(rng, box: float = 0.4) -> complex:
    return complex(_rcs(rng, (), box))


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _sumzero_vec(rng, n: int):
    v = rng.uniform(-1, 1, size=n)
    return v - v.mean()


def _worst_deviation(devs) -> Residual:
    """worst_of over the deviations devs, each its own rel and abs."""
    return th.worst_of(Residual(d, d) for d in devs)


def _contour_derivative(us, order: int, ctx: ModularContext) -> np.ndarray:
    """The order-th derivative of theta at every u of us: order! times its
    Laurent coefficient on the circle |z - u| = 0.02 of 32 nodes, read from
    one theta_table; spectrally accurate, so it is compared in relative
    terms."""
    nodes = th.circle(0.02, 32)
    values = th.theta_table(np.add.outer(nodes, us), ctx)
    return math.factorial(order) * th.laurent_coefficient(values, nodes, order)


def _reference_series(m: float, l: int, u: complex, tau: complex) -> tuple:
    """Brute-force theta_{m,l}(u, tau), term by term in cmath, and the
    modulus of its largest term: every term above 2^-70 of the largest on
    both sides of the peak of the Gaussian, summed in increasing k.  A term
    that underflows to 0 ends its side."""
    def term(k):
        mu = m + l * k
        return cmath.exp(2j * cmath.pi * (mu * u + mu * mu * tau / (2 * l)))

    peak = round(-u.imag / tau.imag - m / l)
    largest = abs(term(peak))
    floor = 2.0 ** -70 * largest
    lo = hi = peak
    while abs(term(lo - 1)) > floor:
        lo -= 1
    while abs(term(hi + 1)) > floor:
        hi += 1
    return sum((term(k) for k in range(lo, hi + 1)), 0j), largest


# ----------------------------------------------------------------- suites

def suite_theta(ctx: ModularContext, rng, tol: float):
    cases = []
    us = _rcs(rng, (20,)).tolist()
    fac = lambda u: -cmath.exp(-2j * cmath.pi * (u + ctx.tau / 2.0))
    at_u, at_u1, at_utau, at_neg = th.theta_table(
        [us, [u + 1 for u in us], [u + ctx.tau for u in us], [-u for u in us]],
        ctx).tolist()
    cases.append(_case("quasi-periodicity-1", th.worst_of(
        th.residual_pair(t1, -t0) for t0, t1 in zip(at_u, at_u1)), tol))
    cases.append(_case("quasi-periodicity-tau", th.worst_of(
        th.residual_pair(tt, fac(u) * t0)
        for u, t0, tt in zip(us, at_u, at_utau)), tol))
    cases.append(_case("oddness", th.worst_of(
        th.residual_pair(tn, -t0) for t0, tn in zip(at_u, at_neg)), tol))

    us = _rcs(rng, (10,)).tolist()
    cases.append(_case("triple-product", th.worst_of(
        th.residual_pair(t0, th.jacobi_theta_triple_product(u, ctx))
        for u, t0 in zip(us, th.theta_table(us, ctx).tolist())), 1e-12))

    found = []
    tail_ok = True
    for _ in range(6):
        m = float(rng.uniform(-1, 1))
        l = int(rng.integers(1, 4))
        u = _rc(rng)
        got = th.theta_ml(m, l, u, ctx.tau)
        ref, largest = _reference_series(m, l, u, ctx.tau)
        # theta_ml's tail is at most the window's drop times the largest term
        tail_ok = tail_ok and got.tail_bound <= th._WINDOW_DROP * largest
        found.append(th.residual_pair(got.value, ref))
    cases.append(_case("series-vs-reference", th.worst_of(found), 1e-12))
    cases.append(_case("tail-bounds", Residual(0.0 if tail_ok else 1.0, 0.0),
                       tol))

    u = _rc(rng)
    shift_res = th.residual_pair(
        th.theta_ml(0.3 + 1.0, 1, u, ctx.tau).value,
        th.theta_ml(0.3, 1, u, ctx.tau).value)
    cases.append(_case("characteristic-shift", shift_res, 1e-12))

    rows = range(ctx.n)
    zeros = np.diag(th.theta_char_table(rows, [j * ctx.tau for j in rows], ctx))
    chars = th.theta_char_table([*rows, *(j + ctx.n for j in rows)], [u],
                                ctx)[:, 0].tolist()
    levels = th.theta_level_table(rows, [u], ctx)[:, 0].tolist()
    found = []
    for j in rows:
        z = abs(complex(zeros[j]))
        found += [Residual(z, z),
                  th.residual_pair(chars[ctx.n + j], chars[j]),
                  th.residual_pair(levels[j],
                                   th.theta_ml(ctx.n / 2.0 - j, ctx.n, u + 0.5,
                                               ctx.tau).value)]
    cases.append(_case("character-thetas", th.worst_of(found), tol))

    cases.append(_case("eta-log-sum", th.residual_pair(
        th.dedekind_eta(ctx.tau, ctx), th.dedekind_eta_logsum(ctx.tau)), 1e-13))

    us = _rcs(rng, (10,))
    cases.append(_case("derivative-vs-contour", th.worst_of_arrays(
        *th.residual_arrays(th.theta_table(us, ctx, 1),
                            _contour_derivative(us, 1, ctx))), 1e-11))

    u = _rc(rng, 0.3) + 0.05
    u0 = 1e-3 * cmath.exp(0.37j)
    wp_u, wp_minus, wp_period, wp_0 = th.weierstrass_p(
        np.array([u, -u, u + 1, u0]), ctx).tolist()
    cases.append(_case("wp-even", th.residual_pair(wp_u, wp_minus), tol))
    cases.append(_case("wp-period", th.residual_pair(wp_period, wp_u), tol))
    res = abs(u0 * u0 * wp_0 - 1.0)
    cases.append(_case("wp-laurent", Residual(res, res), 1e-4))
    return cases


def suite_ybe(ctx: ModularContext, rng, tol: float):
    cases = []
    us = _rcs(rng, (10,))
    sym = bv.verify_r_symmetry(us, ctx)
    qp = bv.verify_r_quasiperiodicity(us, ctx)
    cases.append(_case("gh-symmetry", th.worst_of([sym["g"], sym["h"]]), tol))
    cases.append(_case("period-1", qp["period-1"], tol))
    cases.append(_case("period-tau", qp["period-tau"], tol))
    cases.append(_case("r0-is-permutation", bv.verify_r_zero_is_permutation(ctx),
                       tol))
    cases.append(_case("holomorphy-contour", bv.verify_r_holomorphy(ctx), tol))
    if ctx.n == 2:
        # the support of R is the ice rule i + j = i' + j' (mod 2): its d
        # entries fall like a power of p but stay nonzero as Im tau grows
        ent = bv.build_r(_rc(rng), ctx)
        i, j, ip, jp = np.indices(ent.shape)
        bad = float(np.any((ent != 0) != ((i + j - ip - jp) % 2 == 0)))
        cases.append(_case("eight-vertex-pattern", Residual(bad, bad), tol))
    cases.append(_case("vertex-ybe", bv.verify_ybe(*_rcs(rng, (25, 3)).T, ctx),
                       tol))
    u = _rc(rng)
    cases.append(_case("vertex-ybe-degenerate", bv.verify_ybe(u, u, _rc(rng), ctx),
                       tol))
    return cases


def suite_face_ybe(ctx: ModularContext, rng, tol: float):
    seeds, us, vs, ws = zip(*[(_seed(rng), _rc(rng), _rc(rng), _rc(rng))
                              for _ in range(25)])
    P = sample_points(seeds + (_seed(rng),), ctx)
    cases = [_case("face-ybe", bv.verify_face_ybe(us, vs, ws, P[:25], ctx),
                   tol)]
    # W(0) on two-step paths: diag at (0,0), cis at (0,1), trans (0,1)->(1,0)
    w = bv.face_operator_matrix(P[25], 2, [(0, 0.0)], ctx)
    w0, wc, wt = (complex(w[r, c]) for r, c in ((0, 0), (1, 1), (ctx.n, 1)))
    cases.append(_case("face-weight-diag-u0",
                       th.residual_pair(w0, 1.0 + 0.0j), tol))
    cases.append(_case("face-weight-trans-u0", Residual(abs(wt), abs(wt)), tol))
    cases.append(_case("face-weight-cis-u0", th.residual_pair(wc, 1.0 + 0.0j),
                       tol))
    return cases


def suite_intertwiner(ctx: ModularContext, rng, tol: float):
    cases = []
    # every draw in the order the checks read them: (u, seed) x 10,
    # (u, v, seed) x 4, the fusion u, then (u', seed) per fusion level
    us, seeds = zip(*[(_rc(rng), _seed(rng)) for _ in range(10)])
    us2, vs2, seeds2 = zip(*[(_rc(rng), _rc(rng), _seed(rng))
                             for _ in range(4)])
    u = _rc(rng)
    fusion = [(_rc(rng), _seed(rng)) for _ in range(2, ctx.n + 1)]
    lams = sample_points(seeds + seeds2 + tuple(s for _, s in fusion), ctx)

    out = bv.verify_intertwiners(us, lams[:10], ctx)
    cases.append(_case("duality", out["duality"], 1e-10))
    cases.append(_case("det-closed-form", out["det-closed-form"], tol))

    out = bv.verify_intertwining(us2, vs2, lams[10:14], ctx)
    cases.append(_case("vertex-face-intertwining", out["vertex-face"], tol))
    cases.append(_case("dual-intertwining", out["dual"], tol))

    # fusion operators, read on pi G, G a fixed random block of C(n, k) + 2
    # columns, with no n^k x n^k pi formed: a u-dependence or symmetric
    # part of pi shows in pi G (Freivalds' check), and the rank of pi G is
    # that of pi (the randomized range finder of Halko, Martinsson and
    # Tropp, 2011, which reads any rank up to its width).  The intertwining
    # case braids the whole phi tensor matrix: it sits near its tolerance
    # at some n = 4 seeds, where a change of rounding shows.
    for k, (ub, _), lam in zip(range(2, ctx.n + 1), fusion, lams[14:]):
        want = math.comb(ctx.n, k)
        sketch = bv.sketch_block(k, ctx.n, want + 2)
        pig = bv.antisymmetrizer_on(k, sketch.astype(complex), ctx, u)
        pibg = bv.antisymmetrizer_on(k, sketch.astype(complex), ctx, ub)
        scale = float(np.max(np.abs(pig)))
        dep = float(np.max(np.abs(pig - pibg))) / scale
        cases.append(_case(f"fusion-u-independence-k{k}", Residual(dep, dep), tol))
        rank = np.linalg.matrix_rank(pig, rtol=1e-8)
        cases.append(_case(f"fusion-rank-k{k}",
                           Residual(float(rank != want), float(rank != want)),
                           tol))
        if k == 2:
            sym = (np.eye(ctx.n ** 2) + bv.permutation_matrix(ctx.n)) @ pig
            rs = float(np.max(np.abs(sym))) / scale
            cases.append(_case("fusion-antisymmetry", Residual(rs, rs), tol))
        cases.append(_case(f"fusion-intertwining-k{k}",
                           bv.verify_fusion_intertwining(k, u, lam, ctx),
                           1e-9 if k < 3 else 1e-8))
    return cases


def suite_rll(ctx: ModularContext, rng, tol: float):
    cases = []
    c, u, v = _rc(rng), _rc(rng), _rc(rng)
    lams = sample_many(_seed(rng), 5, ctx)
    fns = [exp_function(_sumzero_vec(rng, ctx.n)) for _ in range(5)]
    cases.append(_case("rll", tr.verify_rll(c, u, v, ctx, lams, fns), tol))
    cases.append(_case("rll-equal-points", tr.verify_rll(c, u, u, ctx, lams[:2],
                                                         fns[:2]), tol))
    lop0 = tr.l_op(0.0, u, ctx)
    vals = apply_batch(lop0, lambda P: np.ones(P.shape[:-1], dtype=complex),
                       lams[:1], ctx)[0]
    dev = np.abs(vals - np.eye(ctx.n))
    cases.append(_case("c0-identity", th.worst_of_arrays(dev, dev), tol))
    if ctx.n >= 3:
        cases.append(_case("fused-rll-k2",
                           tr.verify_fused_rll(c, u, v, 2, 2, ctx, lams[:2],
                                               fns[:2]), 1e-8))
    return cases


def suite_trace_closed(ctx: ModularContext, rng, tol: float):
    cases = []
    samples = sample_many(_seed(rng), 12, ctx)
    for d in range(1, ctx.n + 1):
        # ten draws (c, u), each c then u, checked as one batch
        c, u = _rcs(rng, (10, 2)).T
        cases.append(_case(f"trace-equals-closed-d{d}",
                           tr.verify_trace_closed(c, u, d, ctx, samples), tol))
    c, u, v = _rc(rng), _rc(rng), _rc(rng)
    for d in (1, ctx.n):
        cases.append(_case(f"spectral-factorization-d{d}",
                           tr.verify_spectral_factorization(c, u, v, d, ctx,
                                                            samples), tol))
    return cases


def suite_commute(ctx: ModularContext, rng, tol: float):
    cases = []
    samples = sample_many(_seed(rng), 12, ctx)
    c = _rc(rng)
    cases.append(_case("closed-form-grid", th.worst_of(
        tr.verify_commutation(c, _rc(rng), _rc(rng), d, dp, ctx, samples)
        for d in range(1, ctx.n + 1) for dp in range(1, ctx.n + 1)), tol))
    u, v = _rc(rng), _rc(rng)
    cases.append(_case("trace-route-pair",
                       tr.verify_commutation_trace(c, u, v, 1, min(2, ctx.n),
                                                   ctx, samples), tol))
    m1 = tr.m_closed(c, u, 1, ctx)
    cases.append(_case("self-commutator",
                       commutator_residual(m1, m1, samples, ctx), tol))
    full = tr.m_closed(c, u, ctx.n, ctx)
    ident = identity_op(ctx.n)
    num, den = th.theta_table([u + c * ctx.hbar, u], ctx).tolist()
    pref = num / den
    cases.append(_case("full-set-is-scalar",
                       operator_residual(full, op_scale(ident, pref), samples,
                                         ctx), tol))
    return cases


def suite_qfay(ctx: ModularContext, rng, tol: float):
    cases = []
    for d in range(1, 5):
        # each sample draws u, then lambda_1..d, then mu_1..d
        draws = _rcs(rng, (50, 2 * d + 1))
        cases.append(_case(f"qfay-d{d}", th.verify_qfay(
            d, draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:], ctx), tol))
    # hbar -> 0 degeneration towards the Cauchy-type form
    d = 2
    u, *draws = _rcs(rng, (2 * d + 1,)).tolist()
    lams, mus = draws[:d], draws[d:]
    hs = th.circle()
    lhs = complex(th.laurent_coefficient(th.qfay_lhs(d, u, lams, mus, ctx, hs),
                                         hs, 0))
    values = th.theta_table(
        [u + sum(m - l for m, l in zip(mus, lams))] + [u] * (d - 1)
        + [a for s in range(d) for sp in range(s + 1, d)
           for a in (lams[sp] - lams[s], mus[s] - mus[sp])], ctx)
    cases.append(_case("qfay-hbar0-degeneration",
                       th.residual_pair(lhs, complex(np.prod(values))), 1e-5))
    return cases


def suite_fay(ctx: ModularContext, rng, tol: float):
    cases = []
    for d in range(1, 5):
        # 50 regular samples: a singular one is dropped and only the
        # shortfall drawn again, so the stream is that of drawing one
        # sample at a time until 50 are regular, in at most _MAX_TRIES rounds
        lhs, rhs, need = [], [], 50
        for _ in range(_MAX_TRIES):
            if not need:
                break
            draws = _rcs(rng, (need, 2 * d + 1))
            left, right, small = th.fay_sides(d, draws[:, 0], draws[:, 1:d + 1],
                                              draws[:, d + 1:], ctx)
            regular = ~small.any(axis=-1)
            lhs.append(left[regular])
            rhs.append(right[regular])
            need -= int(regular.sum())
        if need:
            raise SamplingError(f"fay-d{d}: no 50 regular samples in "
                                f"{_MAX_TRIES} rounds")
        cases.append(_case(f"fay-d{d}", th.worst_of_arrays(*th.residual_arrays(
            np.concatenate(lhs), np.concatenate(rhs))), tol))
    return cases


def suite_vandermonde(ctx: ModularContext, rng, tol: float):
    cases = []
    for n in (2, 3, 4):
        sub = ctx.replace(n=n) if n != ctx.n else ctx
        cases.append(_case(f"vandermonde-n{n}",
                           th.verify_vandermonde(_rcs(rng, (50, n)), sub), tol))
        # shared zero: sum of arguments an integer
        us = _rcs(rng, (n - 1,)).tolist()
        us.append(1.0 - sum(us))
        res = th.verify_vandermonde(us, sub)
        cases.append(_case(f"vandermonde-degenerate-n{n}", res, tol))
    return cases


def suite_genfunc(ctx: ModularContext, rng, tol: float):
    cases = []
    samples = sample_many(_seed(rng), 12, ctx)
    c, u = _rc(rng), _rc(rng)
    cases.append(_case("det-equals-sum", th.worst_of(
        tr.verify_genfunc(c, u, _rc(rng, 0.8), ctx, samples)
        for _ in range(5)), tol))
    cases.append(_case("t0-det-is-full-trace",
                       tr.verify_genfunc(c, u, 0.0, ctx, samples), tol))
    # the t-derivative of the determinant also matches the generating sum
    lop = tr.l_op(c, u, ctx)
    t1, t2 = _rc(rng, 0.8), _rc(rng, 0.8)
    det1 = normal_det(lop, t1, ctx)
    det2 = normal_det(lop, t2, ctx)
    diff_det = op_add(det1, op_scale(det2, -1.0))
    diff_sum = op_add(tr.genfunc_sum(c, u, t1, ctx),
                      op_scale(tr.genfunc_sum(c, u, t2, ctx), -1.0))
    cases.append(_case("t-dependence", operator_residual(diff_det, diff_sum,
                                                         samples, ctx), tol))
    t = _rc(rng, 0.8)
    cases.append(_case("sekiguchi-numerator",
                       tr.verify_sekiguchi(c, u, t, ctx, samples), tol))
    cases.append(_case("lax-det-route",
                       tr.verify_genfunc_ltilde(c, u, t, ctx, samples), tol))
    return cases


def suite_ruijsenaars(ctx: ModularContext, rng, tol: float):
    cases = []
    if abs(ctx.q) >= 1.0:
        raise ValueError("ruijsenaars suite needs Im hbar > 0 (|q| < 1)")
    c, _ = _rc(rng), _rc(rng)   # u: unread, drawn to keep later draws
    P = sample_points([_seed(rng) for _ in range(ctx.n + 1)], ctx)
    for d, lam in enumerate(P[:-1], start=1):
        out = tr.verify_ruijsenaars(c, d, lam, ctx)
        cases.append(_case(f"phi-ratio-closed-form-d{d}", out["ratio"], 1e-8))
        cases.append(_case(f"coefficient-identity-d{d}", out["coefficient"],
                           tol))
    out0 = tr.verify_ruijsenaars(0.0, 1, P[-1], ctx)
    cases.append(_case("c0-trivial", out0["coefficient"], tol))
    return cases


def _coeffs_at(op, lam) -> dict:
    """Every coefficient of a differential operator at one point lam[n],
    by term: its table at the batch of one, read once."""
    return dict(zip(op.terms, op.table(lam[None])[0, :, 0].tolist()))


def suite_krichever(ctx: ModularContext, rng, tol: float):
    cases = []
    c, u = _rc(rng), _rc(rng)
    samples = sample_many(_seed(rng), 3, ctx)
    limits = tr.verify_krichever(c, u, ctx, samples)
    cases.append(_case("lax-derivative-vs-closed-form", limits["derivative"],
                       tol))
    cases.append(_case("lax-to-identity", limits["identity"], 1e-3))
    cases.append(_case("lax-conjugation-route",
                       tr.verify_ltilde_conjugation(c, u, ctx, samples), 1e-9))
    # at c = 0, K is the pure derivative matrix: its scalar part vanishes
    k0 = np.abs(tr.krichever_table(0.0, u, samples, ctx))
    cases.append(_case("c0-pure-derivative", th.worst_of_arrays(k0, k0), tol))
    return cases


def suite_cm_limit(ctx: ModularContext, rng, tol: float):
    """Differential-limit suite: both hbar -> 0 cases read one evaluation of
    Mdot_1 f, Mdot_2 f and Mdot_1^2 f on theta.circle (verify_cm_limit)."""
    cases = []
    c = _rc(rng) + 0.25   # keep |c| away from 0 for the 1/c normalizations
    samples = sample_many(_seed(rng), 3, ctx)
    vecs = [_sumzero_vec(rng, ctx.n) for _ in range(2)]
    cases.append(_case("h-identity", tr.verify_h_identity(c, ctx, samples),
                       1e-7))
    limits = tr.verify_cm_limit(c, ctx, samples[:2], vecs)
    cases.append(_case("elliptic-cm-limit", limits["elliptic"], tol))
    cases.append(_case("d2-via-second-derivatives", limits["d2"], tol))
    return cases


def suite_macdonald(ctx: ModularContext, rng, tol: float):
    cases = []
    c, _ = _rc(rng), _rc(rng)   # u: unread, drawn to keep later draws
    mac_ctx = ctx.replace(tau=30j)
    samples = sample_many(_seed(rng), 5, mac_ctx)
    for d in range(1, ctx.n + 1):
        cases.append(_case(f"macdonald-coefficients-d{d}",
                           tr.verify_macdonald_limit(c, d, ctx, samples), tol))
    cases.append(_case("c0-trivial",
                       tr.verify_macdonald_limit(0.0, 1, ctx, samples), tol))
    return cases


def suite_debiard(ctx: ModularContext, rng, tol: float):
    cases = []
    c, _ = _rc(rng) + 0.25, _rc(rng)   # u: unread, drawn to keep later draws
    n = ctx.n
    d_ops = tr.build_d_ops(c, ctx)
    samples = sample_many(_seed(rng), 3, ctx)
    # displayed forms of the first two operators; sums like sum_i d_i Delta /
    # Delta vanish identically by oddness, so residuals are scaled by the
    # magnitude of the individual terms rather than by the (zero) sum
    lam = samples[0]
    d1 = _coeffs_at(d_ops[0], lam)
    xs = [lam[i] - lam[k] for i in range(n) for k in range(n) if k != i]
    terms = [t1 / t0 for t1, t0 in zip(th.theta_table(xs, ctx, 1).tolist(),
                                       th.theta_table(xs, ctx).tolist())]
    scale = sum(abs(t) for t in terms) + 1e-300
    devs = [abs(d1[(0,) * n] - sum(terms)) / scale]
    for i in range(n):
        ei = tuple(1 if a == i else 0 for a in range(n))
        devs.append(abs(d1[ei] - (-n / c)) / abs(n / c))
    cases.append(_case("first-operator-form", _worst_deviation(devs), tol))
    d2 = _coeffs_at(d_ops[1], lam)
    jd = tr.delta_jet(lam[None], 2, ctx)
    # d^alpha Delta / Delta at lam, from the jet of Delta
    ratio = lambda alpha: complex(jet_deriv(jd, n, alpha)[0, 0] / jd[0, 0])
    devs = []
    for i in range(n):
        for j in range(i + 1, n):
            eij = tuple(1 if a in (i, j) else 0 for a in range(n))
            devs.append(abs(d2[eij] - (n / c) ** 2) / abs(n / c) ** 2)
            alpha = tuple(1 if a == i else 0 for a in range(n))
            # sum over pairs {i, j'} containing i of d_j' Delta/Delta (-n/c)
            lterms = [ratio(tuple(int(a == jp) for a in range(n)))
                      * (-n / c) for jp in range(n) if jp != i]
            lscale = sum(abs(t) for t in lterms) + 1e-300
            devs.append(abs(d2[alpha] - sum(lterms)) / lscale)
    zterms = [ratio(tuple(1 if a in (i, j) else 0 for a in range(n)))
              for i in range(n) for j in range(i + 1, n)]
    zscale = sum(abs(t) for t in zterms) + 1e-300
    devs.append(abs(d2[(0,) * n] - sum(zterms)) / zscale)
    cases.append(_case("second-operator-form", _worst_deviation(devs), tol))
    cases.append(_case("pairwise-commutators", th.worst_of(
        pdo_commutator_residual(d_ops[a], d_ops[b], samples, ctx)
        for a in range(n) for b in range(a + 1, n)), tol))
    return cases


def suite_theta_space(ctx: ModularContext, rng, tol: float):
    cases = []
    n = ctx.n
    levels = (1, 2) if n == 2 else (1,)
    u = _rc(rng)
    for l in levels:
        cases.append(_case(f"quasi-periodicity-l{l}",
                           ts.verify_chi_quasiperiodicity(l, ctx, _seed(rng)),
                           1e-9))
        dim = ts.orbit_count(n, l)
        pts = sample_many(_seed(rng), 2 * dim + 4, ctx)
        bad = float(ts.gram_rank(l, pts, ctx) != dim)
        cases.append(_case(f"dimension-rank-l{l}", Residual(bad, bad), tol))
        lop = tr.l_op(float(l), u, ctx)
        seeds = [_seed(rng) for _ in range(n * n)]
        cases.append(_case(f"l-operator-invariance-l{l}",
                           ts.fit_action(l, lop, ctx, seeds)[1], tol))
        m1 = tr.m_closed(float(l), u, 1, ctx)
        _, res = ts.fit_action(l, m1, ctx, [_seed(rng)])
        cases.append(_case(f"m1-invariance-l{l}", res, tol))
        cases.append(_control_case(f"negative-control-l{l}",
                                   ts.negative_control(l, m1, ctx, _seed(rng)),
                                   1e-2))
    cases.append(_case("level1-module-relation",
                       ts.verify_module_iso(1, u, ctx, samples=15), tol))
    if n == 2:
        cases.append(_case("module-isomorphism-l2",
                           ts.verify_module_iso(2, u, ctx), tol))
        cases.append(_case("symmetrized-ordering",
                           ts.verify_symmetrized_ordering(2, u, ctx), tol))
    return cases


def suite_eigen_l1(ctx: ModularContext, rng, tol: float):
    cases = []
    u = _rc(rng)
    out = ts.m1_eigen_check(u, ctx, seed=_seed(rng))
    cases.append(_case("common-eigenfunction", out["eigen"], tol))
    cases.append(_case("eigenvalue-shared", out["shared"], 1e-9))
    return cases


SUITES = {
    "theta": (suite_theta, 1e-8),
    "ybe": (suite_ybe, 1e-8),
    "face-ybe": (suite_face_ybe, 1e-8),
    "intertwiner": (suite_intertwiner, 1e-8),
    "rll": (suite_rll, 1e-8),
    "trace-closed": (suite_trace_closed, 1e-7),
    "commute": (suite_commute, 1e-8),
    "qfay": (suite_qfay, 1e-9),
    "fay": (suite_fay, 1e-9),
    "vandermonde": (suite_vandermonde, 1e-9),
    "genfunc": (suite_genfunc, 1e-7),
    "ruijsenaars": (suite_ruijsenaars, 1e-6),
    "krichever": (suite_krichever, 1e-5),
    "cm-limit": (suite_cm_limit, 1e-4),
    "macdonald-limit": (suite_macdonald, 1e-9),
    "debiard": (suite_debiard, 1e-7),
    "theta-space": (suite_theta_space, 1e-7),
    "eigen-l1": (suite_eigen_l1, 1e-8),
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, ctx: ModularContext, seed: int) -> SuiteReport:
    """Execute one named suite against the given context.  An overflow, a
    division by zero or an invalid value in its arithmetic raises
    FloatingPointError, an evaluation out of floating-point range, not a
    warning and a NaN case."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER}")
    fn, tol = SUITES[name]
    idx = SUITE_ORDER.index(name)
    rng = Stream([seed, idx, ctx.n])
    # three draws that no check reads: every suite's own draws, and so its
    # cases at each seed, come after them
    _rcs(rng, (3,))
    params = {"n": ctx.n, "tau": ctx.tau, "hbar": ctx.hbar, "seed": seed}
    rep = SuiteReport(suite=name, params=params, tolerance=tol)
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rep.cases = fn(ctx, rng, tol)
    rep.wall_time_s = time.perf_counter() - start
    return rep.finalize()
