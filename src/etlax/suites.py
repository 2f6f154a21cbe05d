"""Verification suites: named batches of residual checks over random points.

Each suite is a generator: it draws its sample parameters from a seeded
stream, runs the corresponding module checks and yields (case name,
Residual) pairs.  A case that compares two sides takes theta.residual_pair;
one with a deviation and a scale of its own takes theta.relative, the one
rel, and theta.worst_of_arrays, the one worst-case rule.  run_suite turns
each pair into a Case against the one tolerance table SUITES: the suite's
default tolerance, or the override row of the case's stem (its name
without trailing digits) or, where the members of one family differ, of
its exact name.  The hbar -> 0 cases (krichever, cm-limit and
qfay-hbar0-degeneration) read Laurent coefficients on theta.circle; their
looser tolerances were set for an earlier finite-difference extrapolation
and are not tightened yet.
"""

from __future__ import annotations

import cmath
import math
import time
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import belavin as bv
from . import theta as th
from . import thetaspace as ts
from . import transfer as tr
from .context import ModularContext, SamplingError
from .opalg import (apply_op, commutator_residual, exp_function,
                    identity_op, jet_deriv, normal_det, op_add, op_scale,
                    operator_residual, pdo_commutator_residual)
from .report import Case, SuiteReport
from .stream import Stream
from .theta import Residual
from .weights import _MAX_TRIES, sample_generic, sample_many


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

def suite_theta(ctx: ModularContext, rng):
    us = _rcs(rng, (20,))
    at_u, at_u1, at_utau, at_neg = th.theta_table(
        [us, us + 1, us + ctx.tau, -us], ctx)
    fac = -np.exp(-2j * np.pi * (us + ctx.tau / 2.0))
    yield "quasi-periodicity-1", th.residual_pair(at_u1, -at_u)
    yield "quasi-periodicity-tau", th.residual_pair(at_utau, fac * at_u)
    yield "oddness", th.residual_pair(at_neg, -at_u)

    us = _rcs(rng, (10,))
    yield "triple-product", th.residual_pair(
        th.theta_table(us, ctx),
        [th.jacobi_theta_triple_product(u, ctx) for u in map(complex, us)])

    got, ref, tail_ok = [], [], True
    for _ in range(6):
        m = float(rng.uniform(-1, 1))
        l = int(rng.integers(1, 4))
        u = _rc(rng)
        value = th.theta_ml(m, l, u, ctx.tau)
        exact, largest = _reference_series(m, l, u, ctx.tau)
        # theta_ml's tail is at most the window's drop times the largest term
        tail_ok = tail_ok and value.tail_bound <= th._WINDOW_DROP * largest
        got.append(value.value)
        ref.append(exact)
    yield "series-vs-reference", th.residual_pair(got, ref)
    yield "tail-bounds", Residual(0.0 if tail_ok else 1.0, 0.0)

    u = _rc(rng)
    yield "characteristic-shift", th.residual_pair(
        th.theta_ml(0.3 + 1.0, 1, u, ctx.tau).value,
        th.theta_ml(0.3, 1, u, ctx.tau).value)

    rows = range(ctx.n)
    zeros = np.abs(np.diag(th.theta_char_table(
        rows, [j * ctx.tau for j in rows], ctx)))
    chars = th.theta_char_table([*rows, *(j + ctx.n for j in rows)], [u],
                                ctx)[:, 0]
    yield "character-thetas", th.worst_of([
        th.worst_of_arrays(zeros, zeros),
        th.residual_pair(chars[ctx.n:], chars[:ctx.n]),
        th.residual_pair(th.theta_level_table(rows, [u], ctx)[:, 0],
                         [th.theta_ml(ctx.n / 2.0 - j, ctx.n, u + 0.5,
                                      ctx.tau).value for j in rows])])

    yield "eta-log-sum", th.residual_pair(
        th.dedekind_eta(ctx.tau, ctx), th.dedekind_eta_logsum(ctx.tau))

    us = _rcs(rng, (10,))
    yield "derivative-vs-contour", th.residual_pair(
        th.theta_table(us, ctx, 1), _contour_derivative(us, 1, ctx))

    u = _rc(rng, 0.3) + 0.05
    u0 = 1e-3 * cmath.exp(0.37j)
    wp = th.weierstrass_p(np.array([u, -u, u + 1, u0]), ctx)
    yield "wp-even", th.residual_pair(wp[0], wp[1])
    yield "wp-period", th.residual_pair(wp[2], wp[0])
    res = abs(u0 * u0 * wp[3] - 1.0)
    yield "wp-laurent", Residual(res, res)


def suite_ybe(ctx: ModularContext, rng):
    us = _rcs(rng, (10,))
    sym = bv.verify_r_symmetry(us, ctx)
    qp = bv.verify_r_quasiperiodicity(us, ctx)
    yield "gh-symmetry", th.worst_of([sym["g"], sym["h"]])
    yield "period-1", qp["period-1"]
    yield "period-tau", qp["period-tau"]
    yield "r0-is-permutation", bv.verify_r_zero_is_permutation(ctx)
    yield "holomorphy-contour", bv.verify_r_holomorphy(ctx)
    if ctx.n == 2:
        # the support of R is the ice rule i + j = i' + j' (mod 2): its d
        # entries fall like a power of p but stay nonzero as Im tau grows
        ent = bv.build_r(_rc(rng), ctx)
        i, j, ip, jp = np.indices(ent.shape)
        bad = float(np.any((ent != 0) != ((i + j - ip - jp) % 2 == 0)))
        yield "eight-vertex-pattern", Residual(bad, bad)
    yield "vertex-ybe", bv.verify_ybe(*_rcs(rng, (25, 3)).T, ctx)
    u = _rc(rng)
    yield "vertex-ybe-degenerate", bv.verify_ybe(u, u, _rc(rng), ctx)


def suite_face_ybe(ctx: ModularContext, rng):
    seeds, us, vs, ws = zip(*[(_seed(rng), _rc(rng), _rc(rng), _rc(rng))
                              for _ in range(25)])
    P = sample_generic(seeds + (_seed(rng),), ctx)
    yield "face-ybe", bv.verify_face_ybe(us, vs, ws, P[:25], ctx)
    # W(0) on two-step paths: diag at (0,0), cis at (0,1), trans (0,1)->(1,0)
    w = bv.face_operator_matrix(P[25], 2, [(0, 0.0)], ctx)
    trans = np.abs(w[ctx.n, 1])
    yield "face-weight-diag-u0", th.residual_pair(w[0, 0], 1.0)
    yield "face-weight-trans-u0", Residual(trans, trans)
    yield "face-weight-cis-u0", th.residual_pair(w[1, 1], 1.0)


def suite_intertwiner(ctx: ModularContext, rng):
    # every draw in the order the checks read them: (u, seed) x 10,
    # (u, v, seed) x 4, the fusion u, then (u', seed) per fusion level
    us, seeds = zip(*[(_rc(rng), _seed(rng)) for _ in range(10)])
    us2, vs2, seeds2 = zip(*[(_rc(rng), _rc(rng), _seed(rng))
                             for _ in range(4)])
    u = _rc(rng)
    fusion = [(_rc(rng), _seed(rng)) for _ in range(2, ctx.n + 1)]
    lams = sample_generic(seeds + seeds2 + tuple(s for _, s in fusion), ctx)

    out = bv.verify_intertwiners(us, lams[:10], ctx)
    yield "duality", out["duality"]
    yield "det-closed-form", out["det-closed-form"]

    out = bv.verify_intertwining(us2, vs2, lams[10:14], ctx)
    yield "vertex-face-intertwining", out["vertex-face"]
    yield "dual-intertwining", out["dual"]

    # fusion operators, read on pi G, G a fixed random block of C(n, k) + 2
    # columns, with no n^k x n^k pi formed: a u-dependence or symmetric
    # part of pi shows in pi G (Freivalds' check), and the rank of pi G is
    # that of pi (the randomized range finder of Halko, Martinsson and
    # Tropp, 2011, which reads any rank up to its width).  The intertwining
    # case braids the phi tensor matrix in column blocks and keeps Phi' F
    # summed as the dense product: it sits near its tolerance at some
    # n = 4 seeds, where a change of rounding shows.
    for k, (ub, _), lam in zip(range(2, ctx.n + 1), fusion, lams[14:]):
        want = math.comb(ctx.n, k)
        sketch = bv.sketch_block(k, ctx.n, want + 2)
        pig = bv.antisymmetrizer_on(k, sketch.astype(complex), ctx, u)
        pibg = bv.antisymmetrizer_on(k, sketch.astype(complex), ctx, ub)
        scale = np.max(np.abs(pig))
        yield f"fusion-u-independence-k{k}", th.worst_of_arrays(
            *th.relative(np.max(np.abs(pig - pibg)), scale))
        rank = np.linalg.matrix_rank(pig, rtol=1e-8)
        yield f"fusion-rank-k{k}", Residual(float(rank != want),
                                            float(rank != want))
        if k == 2:
            sym = (np.eye(ctx.n ** 2) + bv.permutation_matrix(ctx.n)) @ pig
            yield "fusion-antisymmetry", th.worst_of_arrays(
                *th.relative(np.max(np.abs(sym)), scale))
        yield f"fusion-intertwining-k{k}", bv.verify_fusion_intertwining(
            k, u, lam, ctx)


def suite_rll(ctx: ModularContext, rng):
    c, u, v = _rc(rng), _rc(rng), _rc(rng)
    lams = sample_many(_seed(rng), 5, ctx)
    fns = [exp_function(_sumzero_vec(rng, ctx.n)) for _ in range(5)]
    yield "rll", tr.verify_fused_rll(c, u, v, 1, 1, ctx, lams, fns)
    yield "rll-equal-points", tr.verify_fused_rll(c, u, u, 1, 1, ctx,
                                                  lams[:2], fns[:2])
    vals = apply_op(tr.l_op(0.0, u, ctx), lambda P: np.ones(
        P.shape[:-1], dtype=complex), lams[:1], ctx)[0]
    dev = np.abs(vals - np.eye(ctx.n))
    yield "c0-identity", th.worst_of_arrays(dev, dev)
    if ctx.n >= 3:
        yield "fused-rll-k2", tr.verify_fused_rll(c, u, v, 2, 2, ctx,
                                                  lams[:2], fns[:2])


def suite_trace_closed(ctx: ModularContext, rng):
    samples = sample_many(_seed(rng), 12, ctx)
    for d in range(1, ctx.n + 1):
        # ten draws (c, u), each c then u, checked as one batch
        c, u = _rcs(rng, (10, 2)).T
        yield f"trace-equals-closed-d{d}", tr.verify_trace_closed(
            c, u, d, ctx, samples)
    c, u, v = _rc(rng), _rc(rng), _rc(rng)
    for d in (1, ctx.n):
        yield f"spectral-factorization-d{d}", \
            tr.verify_spectral_factorization(c, u, v, d, ctx, samples)


def suite_commute(ctx: ModularContext, rng):
    samples = sample_many(_seed(rng), 12, ctx)
    c = _rc(rng)
    yield "closed-form-grid", th.worst_of(
        commutator_residual(tr.m_closed(c, _rc(rng), d, ctx),
                            tr.m_closed(c, _rc(rng), dp, ctx), samples, ctx)
        for d in range(1, ctx.n + 1) for dp in range(1, ctx.n + 1))
    u, v = _rc(rng), _rc(rng)
    m1, m2 = tr.m_trace(c, u, 1, ctx), tr.m_trace(c, v, min(2, ctx.n), ctx)
    yield "trace-route-pair", commutator_residual(m1, m2, samples, ctx)
    num, den = th.theta_table([u + c * ctx.hbar, u], ctx).tolist()
    yield "full-set-is-scalar", operator_residual(
        tr.m_closed(c, u, ctx.n, ctx), op_scale(identity_op(ctx.n), num / den),
        samples, ctx)


def suite_qfay(ctx: ModularContext, rng):
    for d in range(1, 5):
        # each sample draws u, then lambda_1..d, then mu_1..d
        draws = _rcs(rng, (50, 2 * d + 1))
        args = (d, draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:], ctx)
        yield f"qfay-d{d}", th.residual_pair(th.qfay_lhs(*args),
                                             th.qfay_rhs(*args))
    # hbar -> 0 degeneration towards the Cauchy-type form
    d = 2
    draws = _rcs(rng, (2 * d + 1,))
    u, lams, mus = draws[0], draws[1:d + 1], draws[d + 1:]
    hs = th.circle()
    s, sp = np.triu_indices(d, 1)
    values = th.theta_table(np.concatenate(
        [[u + np.sum(mus - lams)], [u] * (d - 1),
         np.stack([lams[sp] - lams[s], mus[s] - mus[sp]], -1).ravel()]), ctx)
    yield "qfay-hbar0-degeneration", th.residual_pair(
        th.laurent_coefficient(th.qfay_lhs(d, u, lams, mus, ctx, hs), hs, 0),
        np.prod(values))


def suite_fay(ctx: ModularContext, rng):
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
        yield f"fay-d{d}", th.residual_pair(np.concatenate(lhs),
                                            np.concatenate(rhs))


def suite_vandermonde(ctx: ModularContext, rng):
    for n in (2, 3, 4):
        sub = ctx.replace(n=n) if n != ctx.n else ctx
        yield f"vandermonde-n{n}", th.verify_vandermonde(_rcs(rng, (50, n)),
                                                         sub)
        # shared zero: sum of arguments an integer
        us = _rcs(rng, (n - 1,)).tolist()
        us.append(1.0 - sum(us))
        yield f"vandermonde-degenerate-n{n}", th.verify_vandermonde(us, sub)


def suite_genfunc(ctx: ModularContext, rng):
    samples = sample_many(_seed(rng), 12, ctx)
    c, u = _rc(rng), _rc(rng)
    lop = tr.l_op(c, u, ctx)
    yield "det-equals-sum", th.worst_of(
        tr.verify_genfunc(lop, c, u, _rc(rng, 0.8), ctx, samples)
        for _ in range(5))
    yield "t0-det-is-full-trace", tr.verify_genfunc(lop, c, u, 0.0, ctx,
                                                    samples)
    # the t-derivative of the determinant also matches the generating sum
    t1, t2 = _rc(rng, 0.8), _rc(rng, 0.8)
    diff_det = op_add(normal_det(lop, t1, ctx),
                      op_scale(normal_det(lop, t2, ctx), -1.0))
    diff_sum = op_add(tr.genfunc_sum(c, u, t1, ctx),
                      op_scale(tr.genfunc_sum(c, u, t2, ctx), -1.0))
    yield "t-dependence", operator_residual(diff_det, diff_sum, samples, ctx)
    t = _rc(rng, 0.8)
    yield "sekiguchi-numerator", tr.verify_sekiguchi(c, u, t, ctx, samples)
    yield "lax-det-route", tr.verify_genfunc(tr.l_tilde(c, u, ctx), c, u, t,
                                             ctx, samples)


def suite_ruijsenaars(ctx: ModularContext, rng):
    if abs(ctx.q) >= 1.0:
        raise ValueError("ruijsenaars suite needs Im hbar > 0 (|q| < 1)")
    c, _ = _rc(rng), _rc(rng)   # u: unread, drawn to keep later draws
    P = sample_generic([_seed(rng) for _ in range(ctx.n + 1)], ctx)
    for d, lam in enumerate(P[:-1], start=1):
        out = tr.verify_ruijsenaars(c, d, lam, ctx)
        yield f"phi-ratio-closed-form-d{d}", out["ratio"]
        yield f"coefficient-identity-d{d}", out["coefficient"]
    out0 = tr.verify_ruijsenaars(0.0, 1, P[-1], ctx)
    yield "c0-trivial", out0["coefficient"]


def suite_krichever(ctx: ModularContext, rng):
    c, u = _rc(rng), _rc(rng)
    samples = sample_many(_seed(rng), 3, ctx)
    limits = tr.verify_krichever(c, u, ctx, samples)
    yield "lax-derivative-vs-closed-form", limits["derivative"]
    yield "lax-to-identity", limits["identity"]
    yield "lax-conjugation-route", tr.verify_ltilde_conjugation(c, u, ctx,
                                                                samples)
    # at c = 0, K is the pure derivative matrix: its scalar part vanishes
    k0 = np.abs(tr.krichever_table(0.0, u, samples, ctx))
    yield "c0-pure-derivative", th.worst_of_arrays(k0, k0)


def suite_cm_limit(ctx: ModularContext, rng):
    """Differential-limit suite: both hbar -> 0 cases read one evaluation of
    Mdot_1 f, Mdot_2 f and Mdot_1^2 f on theta.circle (verify_cm_limit)."""
    c = _rc(rng) + 0.25   # keep |c| away from 0 for the 1/c normalizations
    samples = sample_many(_seed(rng), 3, ctx)
    vecs = [_sumzero_vec(rng, ctx.n) for _ in range(2)]
    yield "h-identity", tr.verify_h_identity(c, ctx, samples)
    limits = tr.verify_cm_limit(c, ctx, samples[:2], vecs)
    yield "elliptic-cm-limit", limits["elliptic"]
    yield "d2-via-second-derivatives", limits["d2"]


def suite_macdonald(ctx: ModularContext, rng):
    c, _ = _rc(rng), _rc(rng)   # u: unread, drawn to keep later draws
    mac_ctx = ctx.replace(tau=30j)
    samples = sample_many(_seed(rng), 5, mac_ctx)
    for d in range(1, ctx.n + 1):
        yield f"macdonald-coefficients-d{d}", tr.verify_macdonald_limit(
            c, d, ctx, samples)
    yield "c0-trivial", tr.verify_macdonald_limit(0.0, 1, ctx, samples)


def suite_debiard(ctx: ModularContext, rng):
    c, _ = _rc(rng) + 0.25, _rc(rng)   # u: unread, drawn to keep later draws
    n = ctx.n
    d_ops = tr.build_d_ops(c, ctx)
    samples = sample_many(_seed(rng), 3, ctx)
    # displayed forms of the first two operators at samples[0], each
    # coefficient once, against the terms it sums: d_i Delta / Delta is
    # sum_{k != i} theta'/theta(lam_ik) in D1, the d_j Delta / Delta (-n/c),
    # j != i, of the unit key e_i in D2.  Sums like sum_i d_i Delta / Delta
    # vanish identically by oddness, so a residual is scaled by the moduli
    # of its terms rather than by their (zero) sum
    lam = samples[:1]
    key = lambda *idx: tuple(int(a in idx) for a in range(n))
    pairs = list(combinations(range(n), 2))
    xs = (lam[0, :, None] - lam[0])[~np.eye(n, dtype=bool)]
    jd = tr.delta_jet(lam, 2, ctx)
    # d^alpha Delta / Delta at lam, from the jet of Delta
    ratio = lambda *idx: jet_deriv(jd, n, key(*idx))[0, 0] / jd[0, 0]
    forms = {
        "first-operator-form": (d_ops[0], {
            key(): th.theta_table(xs, ctx, 1) / th.theta_table(xs, ctx),
            **{key(i): [-n / c] for i in range(n)}}),
        "second-operator-form": (d_ops[1], {
            key(): [ratio(i, j) for i, j in pairs],
            **{key(i): [ratio(j) * (-n / c) for j in range(n) if j != i]
               for i in range(n)},
            **{key(i, j): [(n / c) ** 2] for i, j in pairs}})}
    for name, (op, want) in forms.items():
        got = op.table(lam)[0, [op.terms.index(t) for t in want], 0]
        yield name, th.worst_of_arrays(*th.relative(
            [abs(g - np.sum(t)) for g, t in zip(got, want.values())],
            [np.sum(np.abs(t)) for t in want.values()]))
    yield "pairwise-commutators", th.worst_of(
        pdo_commutator_residual(d_ops[a], d_ops[b], samples, ctx)
        for a in range(n) for b in range(a + 1, n))


def suite_theta_space(ctx: ModularContext, rng):
    n = ctx.n
    levels = (1, 2) if n == 2 else (1,)
    u = _rc(rng)
    for l in levels:
        yield f"quasi-periodicity-l{l}", ts.verify_chi_quasiperiodicity(
            l, ctx, _seed(rng))
        dim = ts.orbit_count(n, l)
        pts = sample_many(_seed(rng), 2 * dim + 4, ctx)
        bad = float(ts.gram_rank(l, pts, ctx) != dim)
        yield f"dimension-rank-l{l}", Residual(bad, bad)
        lop = tr.l_op(float(l), u, ctx)
        seeds = [_seed(rng) for _ in range(n * n)]
        yield f"l-operator-invariance-l{l}", ts.fit_action(l, lop, ctx,
                                                           seeds)[1]
        m1 = tr.m_closed(float(l), u, 1, ctx)
        _, res = ts.fit_action(l, m1, ctx, [_seed(rng)])
        yield f"m1-invariance-l{l}", res
        yield f"negative-control-l{l}", ts.negative_control(l, m1, ctx,
                                                            _seed(rng))
    yield "level1-module-relation", ts.verify_module_iso(1, u, ctx, _seed(rng),
                                                         samples=15)
    if n == 2:
        yield "module-isomorphism-l2", ts.verify_module_iso(2, u, ctx,
                                                            _seed(rng))
        yield "symmetrized-ordering", ts.verify_symmetrized_ordering(
            2, u, ctx, _seed(rng))


def suite_eigen_l1(ctx: ModularContext, rng):
    u = _rc(rng)
    out = ts.m1_eigen_check(u, ctx, seed=_seed(rng))
    yield "common-eigenfunction", out["eigen"]
    yield "eigenvalue-shared", out["shared"]


class Floor(float):
    """The floor of a negative control: its case passes iff rel >= floor."""


class Suite(NamedTuple):
    """A suite generator, its default case tolerance and its override rows:
    case stem, or exact case name, -> tolerance or Floor."""

    run: Callable
    tol: float
    overrides: dict = {}

    def tolerance(self, case: str) -> float:
        """The row of the exact name, else of the stem, else the default."""
        stem = case.rstrip("0123456789")
        return self.overrides.get(case, self.overrides.get(stem, self.tol))


SUITES = {
    "theta": Suite(suite_theta, 1e-8, {
        "triple-product": 1e-12, "series-vs-reference": 1e-12,
        "characteristic-shift": 1e-12, "eta-log-sum": 1e-13,
        "derivative-vs-contour": 1e-11, "wp-laurent": 1e-4}),
    "ybe": Suite(suite_ybe, 1e-8),
    "face-ybe": Suite(suite_face_ybe, 1e-8),
    # an exact-name row: fusion-intertwining-k3 and -k4 read the default
    "intertwiner": Suite(suite_intertwiner, 1e-8, {
        "duality": 1e-10, "fusion-intertwining-k2": 1e-9}),
    "rll": Suite(suite_rll, 1e-8),
    "trace-closed": Suite(suite_trace_closed, 1e-7),
    "commute": Suite(suite_commute, 1e-8),
    "qfay": Suite(suite_qfay, 1e-9, {"qfay-hbar0-degeneration": 1e-5}),
    "fay": Suite(suite_fay, 1e-9),
    "vandermonde": Suite(suite_vandermonde, 1e-9),
    "genfunc": Suite(suite_genfunc, 1e-7),
    "ruijsenaars": Suite(suite_ruijsenaars, 1e-6,
                         {"phi-ratio-closed-form-d": 1e-8}),
    "krichever": Suite(suite_krichever, 1e-5, {
        "lax-to-identity": 1e-3, "lax-conjugation-route": 1e-9}),
    "cm-limit": Suite(suite_cm_limit, 1e-4, {"h-identity": 1e-7}),
    "macdonald-limit": Suite(suite_macdonald, 1e-9),
    "debiard": Suite(suite_debiard, 1e-7),
    "theta-space": Suite(suite_theta_space, 1e-7, {
        "quasi-periodicity-l": 1e-9, "negative-control-l": Floor(1e-2)}),
    "eigen-l1": Suite(suite_eigen_l1, 1e-8, {"eigenvalue-shared": 1e-9}),
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, ctx: ModularContext, seed: int) -> SuiteReport:
    """Execute one named suite against the given context.  An overflow, a
    division by zero or an invalid value in its arithmetic raises
    FloatingPointError, an evaluation out of floating-point range, not a
    warning and a NaN case."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER}")
    suite = SUITES[name]
    idx = SUITE_ORDER.index(name)
    rng = Stream([seed, idx, ctx.n])
    # three draws that no check reads: every suite's own draws, and so its
    # cases at each seed, come after them
    _rcs(rng, (3,))
    params = {"n": ctx.n, "tau": ctx.tau, "hbar": ctx.hbar, "seed": seed}
    rep = SuiteReport(suite=name, params=params, tolerance=suite.tol)
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for case, res in suite.run(ctx, rng):
            tol = suite.tolerance(case)
            rep.cases.append(Case(case, float(res.rel), float(res.abs),
                                  float(tol), isinstance(tol, Floor)))
    rep.wall_time_s = time.perf_counter() - start
    return rep
