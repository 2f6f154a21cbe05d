"""L-operators, fused traces, generating function, and the limit checks."""

import cmath
import itertools
import math

import numpy as np
import pytest

from conftest import (diff_op, matrix_entry, ones, pdo, pdo_coeff,
                      rand_complex, shift, sumzero_exp, table_reads)
from etlax.context import SingularParameterError, default_context
from etlax import opalg as oa
from etlax import transfer as tr
from etlax import weights as wt
from etlax.suites import run_suite
from etlax.theta import residual_arrays, theta, worst_of_arrays


C0 = 0.37 + 0.21j
U0 = 0.213 + 0.057j
V0 = -0.113 + 0.088j


def test_l_operator_structure(ctx3):
    lop = tr.l_op(C0, U0, ctx3)
    for i in range(3):
        for j in range(3):
            keys = sorted(matrix_entry(lop, i, j).terms)
            assert len(keys) == 3      # one single-shift term per k
            assert (0, 0, 1) in keys or (0, 1, 0) in keys or (1, 0, 0) in keys


def test_c0_collapses_to_identity(ctx2, ctx3):
    one = ones
    for ctx in (ctx2, ctx3):
        lop = tr.l_op(0.0, U0, ctx)
        lam = wt.sample_generic(21, ctx)
        for i in range(ctx.n):
            for j in range(ctx.n):
                got = oa.apply_op(matrix_entry(lop, i, j), one, lam, ctx)
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-12


def test_rll(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lams = wt.sample_many(22, 5, ctx)
        fns = [sumzero_exp(rng, ctx.n) for _ in range(5)]
        res = tr.verify_fused_rll(rand_complex(rng), rand_complex(rng),
                                  rand_complex(rng), 1, 1, ctx, lams, fns)
        assert res.rel < 1e-9


def test_rll_equal_spectral_points(ctx3, rng):
    lams = wt.sample_many(23, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    u = rand_complex(rng)
    assert tr.verify_fused_rll(C0, u, u, 1, 1, ctx3, lams, fns).rel < 1e-11


def test_fused_l_edges(ctx3):
    # L(c|u) is the fused L-operator at k = 1: its table is the coefficient
    # tensor itself, bit for bit, with T_k the k-th unit key
    lop = tr.l_op(C0, U0, ctx3)
    samples = wt.sample_many(24, 4, ctx3)
    assert lop.terms == tuple(wt.subset_key(3, (k,)) for k in range(3))
    want = tr.l_coeff_tensor(C0, [U0] * 4, samples, ctx3)     # [s, k, i, j]
    assert np.array_equal(lop.table(samples), want)
    for i in range(3):
        for j in range(3):
            entry = matrix_entry(lop, i, j)
            assert entry.terms == lop.terms
            assert np.array_equal(entry.table(samples), want[:, :, i, j])
    fn = tr.fused_l(C0, U0, 3, ctx3)
    assert fn.table(samples).shape[2:] == (1, 1)   # the one subset (0, 1, 2)


def _level_oracle(c, u, lam, counts, ctx):
    """A[k, i, j] of L(c | u - r hbar) at lam + hbar sum_j counts[j] epsbar_j,
    r = sum(counts), from intertwiners at that re-canonicalized point, as
    fused_l built them before it read exact columns."""
    from etlax.belavin import intertwiners
    pt = wt.shifted(lam, [counts], ctx.hbar)
    v = u - sum(counts) * ctx.hbar
    phi, phibar = intertwiners([v, v + c * ctx.hbar],
                               np.concatenate([pt, pt]), ctx)
    return np.einsum("ki,jk->kij", phibar[0], phi[1])


def _fused_l_oracle(c, u, k, ctx, samples):
    """{key: [s, I, I']}: the fused L-operator from its definition, point by
    point and term by term, each level from _level_oracle."""
    n = ctx.n
    subs = list(itertools.combinations(range(n), k))
    out = {}
    for s, lam in enumerate(samples):
        levels = {}
        for t in itertools.product(range(n), repeat=k):
            key = wt.canonical_key([t.count(i) for i in range(n)])
            table = out.setdefault(key, np.zeros((len(samples), len(subs),
                                                  len(subs)), dtype=complex))
            for r in range(k):
                counts = tuple(t[:r].count(i) for i in range(n))
                if counts not in levels:
                    levels[counts] = _level_oracle(c, u, lam, counts, ctx)
            for a, big_i in enumerate(subs):
                for b, big_ip in enumerate(subs):
                    for perm in itertools.permutations(range(k)):
                        term = float(oa.perm_sign(perm))
                        for r in range(k):
                            term *= levels[tuple(t[:r].count(i)
                                                 for i in range(n))][
                                t[r], big_i[perm[r]], big_ip[r]]
                        table[s, a, b] += term
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_columns_match_the_canonicalized_points(n):
    # every level of fused_l reads column k of its intertwiners at
    # u/n - lam_k - hbar kappa_k; the coefficient tensors at the
    # re-canonicalized shifted points, and the fused operator from its
    # definition on those, agree to rounding at every degree.  (The fused
    # operator alone cannot tell: its antisymmetrized products read the
    # same with every column left unshifted.)
    ctx = default_context(n)
    samples = wt.sample_many(65, 2, ctx)
    for k in range(1, n + 1):
        counts = tr._fusion_plan(n, k).counts
        got = tr.l_coeff_tensor(C0, U0, samples, ctx, counts).reshape(
            len(counts), len(samples), n, n, n)
        want = np.array([[_level_oracle(C0, U0, lam, list(kappa), ctx)
                          for lam in samples] for kappa in counts])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        fl = tr.fused_l(C0, U0, k, ctx)
        got = dict(zip(fl.terms, fl.table(samples).transpose(1, 0, 2, 3)))
        want = _fused_l_oracle(C0, U0, k, ctx, samples)
        assert got.keys() == want.keys()
        assert _table_rel(got, want) <= 1e-12, k


def test_batched_trace_closed_is_the_worst_draw():
    # ten draws in one batch read as the per-draw loop did: the worst
    # residual, bit for bit, or the raise of the first raising draw; with
    # phibar in closed form no draw raises, n = 4 included
    from etlax.suites import _rcs
    raised = []
    for n, seed in ((2, 0), (3, 1), (4, 0), (4, 6)):
        ctx = default_context(n)
        rng = np.random.default_rng([seed, n])
        samples = wt.sample_many(seed, 12, ctx)
        for d in range(1, n + 1):
            draws = _rcs(rng, (10, 2))
            batch = _outcome(lambda: tr.verify_trace_closed(
                draws[:, 0], draws[:, 1], d, ctx, samples), text=True)
            loop = _outcome(lambda: max(
                (tr.verify_trace_closed(c, u, d, ctx, samples)
                 for c, u in draws.tolist()), key=lambda r: r.rel),
                text=True)
            assert batch == loop, (n, seed, d)
            if isinstance(batch, str):
                raised.append((n, seed, d))
    assert raised == []


def test_fused_l_validation(ctx3):
    with pytest.raises(ValueError):
        tr.fused_l(C0, U0, 4, ctx3)


def test_main_theorem_trace_equals_closed(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(25, 12, ctx)
        for d in range(1, ctx.n + 1):
            for _ in range(2):
                res = tr.verify_trace_closed(rand_complex(rng),
                                             rand_complex(rng), d, ctx, samples)
                assert res.rel < 1e-7


def _mp_m_dot(mp, c, d, P, ctx):
    """{key of T_I: [s]}: the coefficients of the u-free part of M_d(c|u),
    prod_{s not in I, t in I} theta(lam_st + c hbar/n)/theta(lam_st) over
    the d-subsets I, at the points P[s] in mpmath, with
    theta(u) = -jtheta_1(pi u, e^{i pi tau})."""
    n = ctx.n
    q = mp.exp(1j * mp.pi * mp.mpc(ctx.tau))
    g = mp.mpc(c) * mp.mpc(ctx.hbar) / n

    def theta_mp(x):
        return -mp.jtheta(1, mp.pi * x, q)
    out = {}
    for big_i in itertools.combinations(range(n), d):
        pairs = [(s, t) for s in range(n) if s not in big_i for t in big_i]
        out[wt.canonical_key(wt.subset_key(n, big_i))] = [complex(mp.fprod(
            theta_mp(mp.mpc(lam[s]) - mp.mpc(lam[t]) + g)
            / theta_mp(mp.mpc(lam[s]) - mp.mpc(lam[t])) for s, t in pairs))
            for lam in P]
    return out


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.3j, 0.1 + 0.08j])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_m_dot_matches_a_30_digit_theta_product(n, tau):
    # the M_d coefficients from the formula of M_d(c|u), read by mpmath's
    # jtheta, against m_dot's table term by term; with c off by 0.07 the
    # same product reads red
    mp = pytest.importorskip("mpmath").mp
    ctx = default_context(n, tau=tau)
    P = wt.sample_many(60 + n, 3, ctx)
    for d in range(1, n):
        op = tr.m_dot(C0, d, ctx)

        def oracle(c):
            with mp.workdps(30):
                coeffs = _mp_m_dot(mp, c, d, P, ctx)
            return np.array([coeffs[key] for key in op.terms]).T  # [s, I]
        got, want, off = op.table(P), oracle(C0), oracle(C0 + 0.07)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        assert np.max(np.abs(got - off) / np.abs(off)) > 1e-4


def test_m_closed_edges(ctx3, rng):
    samples = wt.sample_many(26, 4, ctx3)
    lam = samples[0]
    # d = n: scalar times the identity shift
    full = tr.m_closed(C0, U0, 3, ctx3)
    assert sorted(full.terms) == [(0, 0, 0)]
    pref = theta(U0 + C0 * ctx3.hbar, ctx3) / theta(U0, ctx3)
    assert abs(full.coeff((0, 0, 0), lam) - pref) < 1e-13
    # d = 0 is the identity
    ident = tr.m_closed(C0, U0, 0, ctx3)
    assert abs(ident.coeff((0, 0, 0), lam) - 1.0) < 1e-15
    # c = 0: all ratios are 1
    flat = tr.m_closed(0.0, U0, 2, ctx3)
    for key in sorted(flat.terms):
        assert abs(flat.coeff(key, lam) - theta(U0, ctx3) / theta(U0, ctx3)) \
            < 1e-12


def test_m1_on_constant_sums_coefficients(ctx3):
    lam = wt.sample_generic(27, ctx3)
    m1 = tr.m_closed(C0, U0, 1, ctx3)
    one = ones
    got = oa.apply_op(m1, one, lam, ctx3)
    want = sum(m1.coeff(key, lam) for key in sorted(m1.terms))
    assert abs(got - want) < 1e-13


def test_m_trace_key_collapse(ctx3):
    # the n^2 coefficient terms of the d=1 trace land on n shift keys
    m1 = tr.m_trace(C0, U0, 1, ctx3)
    assert sorted(m1.terms) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_m_trace_is_the_trace_of_fused_l(n):
    # m_trace reads the diagonal minors (I, I) alone; summed over I they
    # are the trace of fused_l's table of every pair (I, I')
    ctx = default_context(n)
    P = wt.sample_many(71, 4, ctx)
    for d in range(1, n + 1):
        fused, trace = tr.fused_l(C0, U0, d, ctx), tr.m_trace(C0, U0, d, ctx)
        assert trace.terms == fused.terms
        want = np.einsum("skii->sk", fused.table(P))
        got = trace.table(P)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_compose_m1_matches_double_application(ctx3, rng):
    m1 = tr.m_closed(C0, U0, 1, ctx3)
    mm = oa.compose(m1, m1, ctx3)
    f = sumzero_exp(rng, 3)
    for lam in wt.sample_many(55, 3, ctx3):
        direct = oa.apply_op(mm, f, lam, ctx3)
        nested = oa.apply_op(m1, lambda mu: oa.apply_op(
            m1, f, mu.reshape(-1, 3), ctx3).reshape(mu.shape[:-1]),
                             lam, ctx3)
        assert abs(direct - nested) / abs(direct) < 1e-12


def test_commutators(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(28, 12, ctx)
        c = rand_complex(rng)
        for d in range(1, ctx.n + 1):
            for dp in range(d, ctx.n + 1):
                res = oa.commutator_residual(
                    tr.m_closed(c, rand_complex(rng), d, ctx),
                    tr.m_closed(c, rand_complex(rng), dp, ctx), samples, ctx)
                assert res.rel < 1e-9


def test_commutator_trace_route(ctx3, rng):
    samples = wt.sample_many(29, 8, ctx3)
    res = oa.commutator_residual(tr.m_trace(C0, U0, 1, ctx3),
                                 tr.m_trace(C0, V0, 2, ctx3), samples, ctx3)
    assert res.rel < 1e-9


def test_commutes_with_full_shift(ctx3):
    samples = wt.sample_many(30, 6, ctx3)
    m2 = tr.m_closed(C0, U0, 2, ctx3)
    full_shift = diff_op(3, [((1, 1, 1), lambda mu: 1.0)])
    assert oa.commutator_residual(m2, full_shift, samples, ctx3).rel < 1e-14


def test_spectral_parameter_factorizes(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(31, 8, ctx)
        res = tr.verify_spectral_factorization(rand_complex(rng),
                                               rand_complex(rng),
                                               rand_complex(rng), ctx.n, ctx,
                                               samples)
        assert res.rel < 1e-10


def test_generating_function(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(32, 12, ctx)
        c, u = rand_complex(rng), rand_complex(rng)
        lop = tr.l_op(c, u, ctx)
        for _ in range(2):
            assert tr.verify_genfunc(lop, c, u, rand_complex(rng, 0.8), ctx,
                                     samples).rel < 1e-7
        assert tr.verify_genfunc(lop, c, u, 0.0, ctx, samples).rel < 1e-7


def test_generating_function_leading_coefficient(ctx2, rng):
    # the operator-valued polynomial det(t) has leading term (-t)^n id
    ctx = ctx2
    samples = wt.sample_many(33, 6, ctx)
    lop = tr.l_op(C0, U0, ctx)
    ts = [0.41 - 0.07j, -0.33 + 0.19j, 0.12 + 0.52j]
    lam = samples[0]
    vander = np.array([[t ** k for k in range(3)] for t in ts])
    vals = np.array([oa.normal_det(lop, t, ctx).coeff((0, 0), lam)
                     for t in ts])
    coeffs = np.linalg.solve(vander, vals)
    assert abs(coeffs[2] - 1.0) < 1e-10    # (-t)^2 coefficient of the 0-key


def test_sekiguchi_numerator(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(34, 10, ctx)
        res = tr.verify_sekiguchi(rand_complex(rng), rand_complex(rng),
                                  rand_complex(rng, 0.8), ctx, samples)
        assert res.rel < 1e-8


def test_lax_matrix_conjugation_route(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(35, 8, ctx)
        res = tr.verify_ltilde_conjugation(rand_complex(rng), rand_complex(rng),
                                           ctx, samples)
        assert res.rel < 1e-9


def test_lax_matrix_identity_limit(ctx3, rng):
    # a_0 of l_tilde - 1 on the hbar circle vanishes to rounding
    samples = wt.sample_many(36, 2, ctx3)
    res = tr.verify_krichever(C0, U0, ctx3, samples)["identity"]
    assert res.rel < 1e-11
    assert res.abs < 1e-14


def test_lax_matrix_determinant_route(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(37, 10, ctx)
        c, u = rand_complex(rng), rand_complex(rng)
        res = tr.verify_genfunc(tr.l_tilde(c, u, ctx), c, u,
                                rand_complex(rng, 0.8), ctx, samples)
        assert res.rel < 1e-8


@pytest.mark.parametrize("route", [tr.l_op, tr.l_tilde],
                         ids=["l_op", "l_tilde"])
def test_determinant_routes_read_a_coupling_mismatch(route, ctx2, ctx3):
    # negative control: either Lax matrix at c against the generating sum
    # at c + 0.07 reads red on both routes
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(37, 10, ctx)
        for t in (0.0, 0.3 + 0.1j):
            assert tr.verify_genfunc(route(C0, U0, ctx), C0 + 0.07, U0, t,
                                     ctx, samples).rel > 1e-3


def test_lax_resonant_rejection(ctx3):
    near = wt.canonical([1e-13, 0.0, 0.31])
    with pytest.raises(SingularParameterError):
        tr.ltilde_table(C0 * ctx3.hbar / 3, U0, [near], ctx3)
    with pytest.raises(SingularParameterError):
        tr.l_tilde(C0, U0, ctx3).table(np.vstack([wt.sample_many(66, 2, ctx3), near]))


def _ltilde_scalar(g, u, i, j, lam, ctx):
    """The Lax coefficient of T_i in the entry (i, j), one theta at a time:
    theta(g + u + lam_ji)/theta(u) prod_{k != j} theta(g + lam_ki)/theta(lam_kj)."""
    val = theta(g + u + (lam[j] - lam[i]), ctx) / theta(u, ctx)
    for k in range(ctx.n):
        if k != j:
            val *= theta(g + (lam[k] - lam[i]), ctx) / theta((lam[k] - lam[j]), ctx)
    return val


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ltilde_table_matches_scalar_formula(n):
    ctx = default_context(n)
    rng = np.random.default_rng([65, n])
    samples = wt.sample_many(65, 5, ctx)
    c, u = rand_complex(rng), rand_complex(rng)
    g = c * ctx.hbar / n
    want = np.array([[[_ltilde_scalar(g, u, i, j, lam, ctx) for j in range(n)]
                      for i in range(n)] for lam in samples])

    def rel(got):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel(tr.ltilde_table(g, u, samples, ctx)) <= 1e-13
    assert rel(tr.ltilde_table(-g, u, samples, ctx)) > 1e-3
    # l_tilde puts the coefficient of the entry (i, j) on T_i alone
    expect = np.einsum("ki,sij->skij", np.eye(n),
                       tr.ltilde_table(g, u, samples, ctx))
    assert np.array_equal(tr.l_tilde(c, u, ctx).table(samples), expect)


def test_fused_rll(ctx3, rng):
    lams = wt.sample_many(38, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    for k, kp in ((2, 2), (1, 2), (2, 1)):
        res = tr.verify_fused_rll(C0, U0, V0, k, kp, ctx3, lams, fns)
        assert res.rel < 1e-8


def test_rll_negative_control(ctx2, ctx3, rng, monkeypatch):
    # a braid matrix at the wrong spectral parameter must break both checks
    real = tr.fused_rcheck_matrix
    monkeypatch.setattr(tr, "fused_rcheck_matrix",
                        lambda k, kp, u, v, ctx: real(k, kp, u + 0.07, v, ctx))
    for ctx in (ctx2, ctx3):
        lams = wt.sample_many(22, 5, ctx)
        fns = [sumzero_exp(rng, ctx.n) for _ in range(5)]
        assert tr.verify_fused_rll(C0, U0, V0, 1, 1, ctx, lams,
                                   fns).rel > 1e-2
    lams = wt.sample_many(38, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    assert tr.verify_fused_rll(C0, U0, V0, 2, 2, ctx3, lams, fns).rel > 1e-2


def test_krichever_closed_form(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(39, 3, ctx)
        res = tr.verify_krichever(rand_complex(rng), rand_complex(rng), ctx,
                                  samples)["derivative"]
        assert res.rel < 1e-5


def test_krichever_check_reads_k_at_its_coupling(ctx3, monkeypatch):
    samples = wt.sample_many(39, 3, ctx3)
    assert tr.verify_krichever(C0, U0, ctx3, samples)["derivative"].rel < 1e-5
    # control: K at another coupling turns the check red, so it reads K at
    # c != 0 (the suite's c0-pure-derivative case reads it at c = 0 only)
    real = tr.krichever_table
    monkeypatch.setattr(tr, "krichever_table",
                        lambda c, u, P, ctx: real(1.07 * c, u, P, ctx))
    assert tr.verify_krichever(C0, U0, ctx3, samples)["derivative"].rel > 1e-3


@pytest.mark.parametrize("n, floor", [(2, 0.5), (3, 0.1)])
def test_transposed_krichever_turns_its_suite_case_red(n, floor,
                                                       monkeypatch):
    # K with lam_ij in place of lam_ji off the diagonal: the Lax derivative
    # tells the two apart (rel 0.99 at n = 2, 0.37 at n = 3)
    real = tr.krichever_table
    monkeypatch.setattr(tr, "krichever_table",
                        lambda *args: real(*args).transpose(0, 2, 1))
    got = {c.name: c for c in run_suite("krichever", default_context(n),
                                        0).cases}
    assert got["lax-derivative-vs-closed-form"].rel > floor
    assert not got["lax-derivative-vs-closed-form"].ok


def test_ltilde_conjugation_reads_each_table_once(monkeypatch):
    from etlax.theta import worst_of
    for n in (2, 3, 4):
        ctx = default_context(n)
        samples = wt.sample_many(76, 4, ctx)
        direct, conj = tr.l_tilde(C0, U0, ctx), tr.l_tilde_conjugated(C0, U0,
                                                                      ctx)
        # the entry-by-entry reduction, one operator_residual per entry
        want = worst_of(oa.operator_residual(matrix_entry(direct, i, j),
                                             matrix_entry(conj, i, j),
                                             samples, ctx)
                        for i in range(n) for j in range(n))
        calls, real = [], tr.l_coeff_tensor
        monkeypatch.setattr(tr, "l_coeff_tensor",
                            lambda *args: calls.append(1) or real(*args))
        got = tr.verify_ltilde_conjugation(C0, U0, ctx, samples)
        monkeypatch.undo()
        assert len(calls) == 1          # n^2 when every entry read its table
        assert (got.rel, got.abs) == (want.rel, want.abs) and got.rel < 1e-9


def test_krichever_structure(ctx2, ctx3):
    # the table against the scalar theta formula, entry by entry:
    # (c/n) theta(u + lam_ji) theta'(0) / (theta(u) theta(lam_ji)) off the
    # diagonal, (c/n) theta'(u) / theta(u) on it
    for ctx in (ctx2, ctx3):
        n = ctx.n
        samples = wt.sample_many(40, 3, ctx)
        table = tr.krichever_table(C0, U0, samples, ctx)
        assert table.shape == (3, n, n)
        g, tp0, tu = C0 / n, theta(0.0, ctx, 1), theta(U0, ctx)
        for lam, got in zip(samples, table):
            for i in range(n):
                for j in range(n):
                    x = lam[j] - lam[i]
                    want = g * (theta(U0, ctx, 1) / tu if i == j else
                                theta(U0 + x, ctx) * tp0
                                / (tu * theta(x, ctx)))
                    assert abs(got[i, j] - want) <= 1e-13 * abs(want)
        # c = 0 is the pure derivative matrix: no scalar part at all
        assert not np.any(tr.krichever_table(0.0, U0, samples, ctx))


def test_krichever_table_reads_two_theta_tables(ctx3, monkeypatch):
    samples = wt.sample_many(40, 3, ctx3)
    want = tr.krichever_table(C0, U0, samples, ctx3)
    calls, real = [], tr.theta_table
    monkeypatch.setattr(tr, "theta_table",
                        lambda *args: calls.append(args) or real(*args))
    assert np.array_equal(tr.krichever_table(C0, U0, samples, ctx3), want)
    # the values and the first derivatives, over every point and entry
    assert [args[2:] for args in calls] == [(), (1,)]


def test_ruijsenaars_identities(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for d in range(1, ctx.n + 1):
            lam = wt.sample_generic(41 + d, ctx)
            c, _ = rand_complex(rng), rand_complex(rng)
            out = tr.verify_ruijsenaars(c, d, lam, ctx)
            assert out["ratio"].rel < 1e-8
            assert out["coefficient"].rel < 1e-7


@pytest.mark.parametrize("n", [2, 3])
def test_ruijsenaars_coefficient_reads_the_library_m_dot(n, monkeypatch):
    # C_I is read from m_dot's table: Mdot at another coupling turns the
    # coefficient identity red (rel 4.8e-3 at n = 2, 6.2e-3 at n = 3)
    real = tr.m_dot
    monkeypatch.setattr(tr, "m_dot",
                        lambda c, d, ctx: real(1.07 * c, d, ctx))
    got = {c.name: c for c in run_suite("ruijsenaars", default_context(n),
                                        0).cases}
    assert got["coefficient-identity-d1"].rel > 1e-3
    assert not got["coefficient-identity-d1"].ok


def test_ruijsenaars_trivial_coupling(ctx2, rng):
    lam = wt.sample_generic(44, ctx2)
    out = tr.verify_ruijsenaars(0.0, 1, lam, ctx2)
    assert out["coefficient"].rel < 1e-12


def test_ruijsenaars_needs_contracting_q(ctx2):
    bad = ctx2.replace(hbar=0.3 - 0.1j)    # |q| > 1
    with pytest.raises(SingularParameterError):
        tr._dplus(1.3 + 0.2j, 0.1, bad)


def test_dplus_matches_double_loop(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        q, p = ctx.q, ctx.p
        for z, g in ((1.3 + 0.2j, 0.1), (0.7 - 0.4j, 0.35 + 0.2j)):
            qg = cmath.exp(2j * cmath.pi * ctx.hbar * g)
            mmax = max(8, math.ceil(-40.0 / math.log10(abs(q))))
            kmax = max(4, math.ceil(-40.0 / math.log10(abs(p))))
            want = 1.0 + 0.0j
            for k in range(kmax + 1):
                for m in range(mmax + 1):
                    a = z * q ** m * q * p ** k
                    b = q ** m / z * p ** (k + 1)
                    want *= (1 - a) / (1 - a * qg) * (1 - b / qg) / (1 - b)
            got = tr._dplus(z, g, ctx)
            assert abs(got - want) <= 1e-13 * abs(want)


def _mp_dplus(mp, z, g, ctx):
    """The double product of _dplus in mpmath, each loop run until its
    factors are within 1e-40 of 1 (the factors shrink towards 1 in m and
    in k)."""
    q, p, hb = (mp.mpc(x.real, x.imag)
                for x in (ctx.q, ctx.p, complex(ctx.hbar)))
    z, qg = mp.mpc(z.real, z.imag), mp.exp(2j * mp.pi * hb * mp.mpc(g))
    tiny, out, k = mp.mpf(10) ** -40, mp.mpc(1), 0
    while True:
        m = 0
        while True:
            a, b = z * q ** (m + 1) * p ** k, q ** m / z * p ** (k + 1)
            factor = (1 - a) / (1 - a * qg) * (1 - b / qg) / (1 - b)
            out *= factor
            if abs(factor - 1) < tiny:
                break
            m += 1
        if m == 0:
            return out
        k += 1


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.3j])
@pytest.mark.parametrize("n", [2, 3])
def test_dplus_matches_a_30_digit_double_product(n, tau):
    # the 2^-60 stopping rule against a product run far past it, at the
    # ratios z_k / z_k' of a sampled point
    mp = pytest.importorskip("mpmath")
    ctx = default_context(n, tau=tau)
    lam = wt.sample_generic(48, ctx)
    z = np.exp(2j * np.pi * lam)
    ratios = [z[k] / z[kp] for k in range(n) for kp in range(n) if k != kp]
    g = C0 / n
    got = tr._dplus(np.array(ratios), g, ctx)
    with mp.workdps(30):
        want = [complex(_mp_dplus(mp, r, g, ctx)) for r in ratios]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def _ratio_case(n):
    return next(c for c in run_suite("ruijsenaars", default_context(n), 0).cases
                if c.name == "phi-ratio-closed-form-d1")


def test_products_cut_short_fail_the_ratio_check(monkeypatch):
    # control: Phi's double product stopped at three powers of q and of p
    # breaks its agreement with the theta closed form
    assert _ratio_case(2).ok and _ratio_case(3).ok
    monkeypatch.setattr(tr, "_product_length", lambda x: 3)
    assert not _ratio_case(2).ok and not _ratio_case(3).ok


def _phi_ratio_closed(lam, subset, g, ctx):
    """Phi / T_I Phi at one point lam[n] and one subset, from the telescoped
    theta form one theta value at a time: the reference of phi_ratio_table."""
    hb = ctx.hbar
    gh = g * hb
    rest = [j for j in range(ctx.n) if j not in subset]
    lij = (lam[list(subset)][:, None] - lam[rest]).ravel()
    num1, num2, den1, den2 = (np.array([theta(x, ctx) for x in args])
                              for args in (hb + lij, gh - lij, gh + hb + lij,
                                           -lij))
    return complex(np.prod(num1 * num2 / (den1 * den2)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_ratio_table_matches_the_per_subset_closed_form(n, monkeypatch):
    ctx = default_context(n)
    P = wt.sample_many(49, 4, ctx)
    g = C0 / n
    for d in range(1, n + 1):
        reads = table_reads(monkeypatch)
        got = tr.phi_ratio_table(P, d, g, ctx)
        assert len(reads) == 1          # every pair of every subset at once
        subsets = list(itertools.combinations(range(n), d))
        want = np.array([[_phi_ratio_closed(lam, sub, g, ctx)
                          for sub in subsets] for lam in P])
        assert got.shape == (len(P), len(subsets))
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        monkeypatch.undo()


@pytest.mark.parametrize("n", [3, 4])
def test_phi_ratio_check_reads_every_subset(n, monkeypatch):
    # phi-ratio-closed-form-d{d} compares Phi / T_I Phi for every d-subset
    # I; with two subsets' closed-form entries swapped it reads red.  Here
    # 2 <= d <= n - 1 and c != 0: at c = 0 every ratio is 1.
    ctx = default_context(n)
    draws = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        draws.append((complex(*rng.uniform(-0.4, 0.4, 2)),
                      wt.sample_generic(seed, ctx)))
    for c, lam in draws:
        for d in range(1, n + 1):
            assert tr.verify_ruijsenaars(c, d, lam, ctx)["ratio"].rel < 1e-13
    table = tr.phi_ratio_table

    def swapped(P, d, g, ctx):
        # the unit ratios (d = 1) are left as they are: a check that read
        # them in place of the d-subsets would stay green
        out = table(P, d, g, ctx).copy()
        if d >= 2:
            out[:, [0, 1]] = out[:, [1, 0]]
        return out
    monkeypatch.setattr(tr, "phi_ratio_table", swapped)
    for c, lam in draws:
        for d in range(2, n):
            assert tr.verify_ruijsenaars(c, d, lam, ctx)["ratio"].rel > 1e-3


def test_ruijsenaars_run_stays_small():
    # the double product of every ordered pair is one array per point set,
    # [points, n(n-1), M(p)+1, M(q)+1]: 10 x 32 factors a pair at the
    # default modulus under the 2^-60 rule, a peak of about 0.4 MB
    import tracemalloc
    run_suite("ruijsenaars", default_context(3), 0)    # warm plan caches
    tracemalloc.start()
    try:
        run_suite("ruijsenaars", default_context(3), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6


@pytest.mark.parametrize("n", [2, 3])
def test_suites_pass_across_seeds_off_the_default_modulus(n):
    # at tau = 0.1 + 0.3i; intertwiner reads duality and
    # fusion-intertwining red at some seeds there (their residuals are
    # rounding times the cond of phi), and theta, theta-space and eigen-l1
    # are gated in their own modules
    ctx = default_context(n, tau=0.1 + 0.3j)
    failed = [(name, seed)
              for name in ("ybe", "face-ybe", "qfay", "fay", "vandermonde",
                           "genfunc", "ruijsenaars", "krichever", "cm-limit",
                           "macdonald-limit", "debiard", "rll",
                           "trace-closed", "commute")
              for seed in range(8)
              if not run_suite(name, ctx, seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_suites_pass_across_seeds_at_small_im_tau(n):
    # at tau = 0.1 + 0.08i the windows [k0 - w, k0 + w] of some theta
    # values reach past k = +-24 (w is up to 14 here); each window follows
    # its peak wherever it lies.  qfay and fay still fail there at some
    # seeds, and so do intertwiner, trace-closed, commute and genfunc, whose
    # phi-side residuals are rounding times the cond of phi
    ctx = default_context(n, tau=0.1 + 0.08j)
    failed = [(name, seed)
              for name in ("theta", "ybe", "face-ybe", "vandermonde",
                           "ruijsenaars", "cm-limit", "macdonald-limit",
                           "debiard", "eigen-l1", "rll", "krichever",
                           "theta-space")
              for seed in range(8)
              if not run_suite(name, ctx, seed).passed]
    assert failed == []


def test_debiard_first_operator(ctx3):
    d1 = tr.build_d_ops(C0, ctx3)[0]
    lam = wt.sample_generic(45, ctx3)
    terms = [theta((lam[i] - lam[k]), ctx3, 1) / theta((lam[i] - lam[k]), ctx3)
             for i in range(3) for k in range(3) if k != i]
    assert abs(pdo_coeff(d1, (0, 0, 0), lam) - sum(terms)) \
        / sum(abs(t) for t in terms) < 1e-13
    for i in range(3):
        ei = tuple(1 if a == i else 0 for a in range(3))
        assert abs(pdo_coeff(d1, ei, lam) - (-3 / C0)) < 1e-12


def test_debiard_second_operator(ctx3):
    d2 = tr.build_d_ops(C0, ctx3)[1]
    lam = wt.sample_generic(46, ctx3)
    jd = tr.delta_jet(lam[None], 2, ctx3)
    for i in range(3):
        for j in range(i + 1, 3):
            eij = tuple(1 if a in (i, j) else 0 for a in range(3))
            assert abs(pdo_coeff(d2, eij, lam) - (3 / C0) ** 2) < 1e-11
    zterms = [oa.jet_deriv(jd, 3, (int(a in (i, j)) for a in range(3)))[0, 0]
              / jd[0, 0] for i in range(3) for j in range(i + 1, 3)]
    assert abs(pdo_coeff(d2, (0, 0, 0), lam) - sum(zterms)) \
        / sum(abs(t) for t in zterms) < 1e-12


def test_debiard_commutators(ctx3):
    samples = wt.sample_many(47, 3, ctx3)
    d_ops = tr.build_d_ops(C0, ctx3)
    for a in range(3):
        for b in range(a + 1, 3):
            res = oa.pdo_commutator_residual(d_ops[a], d_ops[b], samples, ctx3)
            assert res.rel < 1e-8


def test_pdo_commutator_reads_each_operand_once_per_batch(ctx3, monkeypatch):
    # every table read of D[1..3] asks for its ratios d^J Delta / Delta once
    real = tr._delta_ratios
    reads = []
    monkeypatch.setattr(tr, "_delta_ratios", lambda jd, order, jsets, n:
                        reads.append((len(jd), len(jsets), order))
                        or real(jd, order, jsets, n))
    d1, d2, _ = tr.build_d_ops(C0, ctx3)
    k = 3
    samples = wt.sample_many(47, k, ctx3)
    res = oa.pdo_commutator_residual(d1, d2, samples, ctx3)
    assert res.rel < 1e-8
    # D[1] D[2] reads D[1] at order 0 and D[2] one order deeper; D[2] D[1]
    # reads D[2] at order 0 and D[1] two orders deeper; operator_residual
    # then reads each composition once, at order 0 (D[3] is not read)
    assert sorted(reads) == sorted([(k, 4, 0), (k, 7, 1), (k, 7, 0),
                                    (k, 4, 2)])


def test_debiard_divides_once_per_subset(monkeypatch):
    # D[1..3] at n = 3 hold 4 + 12 + 26 (I, J) items but only 4, 7 and 8
    # distinct J, and d^J Delta / Delta depends on J alone: a table read
    # inverts Delta's jet once and multiplies it into each distinct d^J Delta
    ctx = default_context(3)
    inverses, products = [], []
    inv, mul = oa.jet_inv, oa.jet_mul
    monkeypatch.setattr(tr, "jet_inv", lambda x, n: inverses.append(x.shape)
                        or inv(x, n))
    monkeypatch.setattr(tr, "jet_mul", lambda x, y, n: products.append(1)
                        or mul(x, y, n))
    d_ops = tr.build_d_ops(C0, ctx)
    samples = wt.sample_many(47, 2, ctx)
    first = []
    for op, distinct in zip(d_ops, (4, 7, 8)):
        del inverses[:], products[:]
        first.append(op.table(samples, 1))
        # Delta's jet is 2 pair products, then one product per distinct
        # nonempty J (the empty J's ratio is the constant 1)
        assert len(inverses) == 1 and len(products) == 2 + distinct - 1
    again = [op.table(samples, 1) for op in d_ops]
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_differential_tables_hold_the_jets_of_their_values(ctx3):
    # each coefficient's first derivatives in a table read at order 2 match
    # central differences of its values, and every jet has the width of
    # order 2 (a wider one would only broadcast)
    lam = wt.sample_generic(44, ctx3)
    h = 1e-5
    ops = [tr.hamiltonian_cm(C0, ctx3), *tr.build_d_ops(C0, ctx3)]
    for op in ops:
        table = op.table(lam[None], 2)
        assert table.shape == (1, len(op.terms), 10)
        for alpha, jet in zip(op.terms, table.swapaxes(0, 1)):
            for i in range(3):
                e = tuple(int(a == i) for a in range(3))
                fd = (pdo_coeff(op, alpha, shift(lam, e, h))
                      - pdo_coeff(op, alpha, shift(lam, e, -h))) / (2 * h)
                got = oa.jet_deriv(jet, 3, e)[0, 0]
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


_T0 = 0.27 - 0.41j
_BUILDERS = {
    "identity_op": lambda ctx: oa.identity_op(ctx.n),
    "op_add": lambda ctx: oa.op_add(tr.m_closed(C0, U0, 1, ctx),
                                    tr.m_dot(C0, 2, ctx)),
    "op_scale": lambda ctx: oa.op_scale(tr.m_dot(C0, 1, ctx), _T0),
    "compose": lambda ctx: oa.compose(tr.m_dot(C0, 1, ctx),
                                      tr.m_dot(C0, 2, ctx), ctx),
    "normal_det": lambda ctx: oa.normal_det(tr.l_op(C0, U0, ctx), _T0, ctx),
    "m_trace": lambda ctx: tr.m_trace(C0, U0, 2, ctx),
    "m_dot": lambda ctx: tr.m_dot(C0, 2, ctx),
    "m_closed": lambda ctx: tr.m_closed(C0, U0, 1, ctx),
    "entry": lambda ctx: matrix_entry(tr.l_op(C0, U0, ctx), 0, 1),
    "fused_l": lambda ctx: tr.fused_l(C0, U0, 2, ctx),
    "l_tilde": lambda ctx: tr.l_tilde(C0, U0, ctx),
    "l_tilde_conjugated": lambda ctx: tr.l_tilde_conjugated(C0, U0, ctx),
    "sekiguchi_matrix": lambda ctx: tr.sekiguchi_matrix(C0, U0, _T0, ctx),
    "pdo": lambda ctx: pdo(ctx.n, [((0, 1, 0), 2.0), ((1, 0, 0), 1.0),
                                  ((0, 1, 0), -1.0)]),
    "pdo_compose": lambda ctx: oa.pdo_compose(
        *tr.build_d_ops(C0, ctx)[:2], ctx),
    "op_add_differential": lambda ctx: oa.op_add(*tr.build_d_ops(C0, ctx)),
    "op_scale_differential": lambda ctx: oa.op_scale(
        tr.hamiltonian_cm(C0, ctx), _T0),
    "build_d_ops": lambda ctx: tr.build_d_ops(C0, ctx)[1],
    "hamiltonian_cm": lambda ctx: tr.hamiltonian_cm(C0, ctx),
}


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_table_axis_one_runs_over_terms(ctx3, name):
    op = _BUILDERS[name](ctx3)
    P = wt.sample_many(75, 2, ctx3)
    if isinstance(op, oa.DifferentialOperator):
        table, rest = op.table(P, 1), (4,)        # the jets of order 1
    else:
        table, rest = op.table(P), op.shape
    assert table.shape == (2, len(op.terms)) + rest
    assert len(set(op.terms)) == len(op.terms)


def test_h_identity(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(48, 3, ctx)
        assert tr.verify_h_identity(C0, ctx, samples).rel < 1e-7


def test_cm_limit(ctx2, rng):
    samples = wt.sample_many(49, 2, ctx2)
    vecs = [rng.normal(size=2) for _ in range(2)]
    vecs = [v - v.mean() for v in vecs]
    res = tr.verify_cm_limit(C0, ctx2, samples, vecs)["elliptic"]
    assert res.rel < 1e-4


@pytest.mark.parametrize("n", [2, 3])
def test_cm_limit_suite_passes_across_seeds(n):
    failed = [seed for seed in range(24)
              if not run_suite("cm-limit", default_context(n), seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_cm_limit_suite_passes_at_small_im_tau(n):
    # n = 2, seed 2 puts a pole of the limit expression at |hbar| = 0.0083,
    # where a +-hbar step of 2e-3 read 3.3e-4 and the circle reads 2.1e-6;
    # at tau = 0.05i, n = 3, seed 7 the pole at 0.0048 aliased a circle of
    # radius 0.003 to 3.3e-3, and one of radius d/3 reads 4e-6
    failed = [(tau, seed) for tau in (0.1 + 0.05j, 0.05j) for seed in range(8)
              if not run_suite("cm-limit", default_context(n, tau=tau),
                               seed).passed]
    assert failed == []


def test_elliptic_cm_limit_reads_its_h0_and_h1_terms(monkeypatch):
    # at n = 2, Mdot_2 f = f does not depend on hbar, so Mdot_2 off by 1 %
    # moves only the hbar^0 term of -2 Mdot_2 f + Mdot_1^2 f - 2 Mdot_1 f
    # + n f: the case reads it red at seeds 0-7 through a_0 alone
    ctx = default_context(2)
    real = tr.m_dot

    def elliptic(seed):
        return {c.name: c for c in run_suite("cm-limit", ctx, seed).cases}[
            "elliptic-cm-limit"]

    def scaled(c, d, ctx):
        out = real(c, d, ctx)
        if d != 2:
            return out
        return oa.DifferenceOperator(out.n, out.terms,
                                     lambda P: 1.01 * out.table(P))
    clean = [elliptic(seed) for seed in range(8)]
    monkeypatch.setattr(tr, "m_dot", scaled)
    bad = [elliptic(seed) for seed in range(8)]
    assert all(c.ok for c in clean) and not any(b.ok for b in bad)
    assert min(b.rel for b in bad) > 1e-3


def _off_by_1e6(real, pick):
    """real, with its result (an array or a difference operator's table)
    off by 1e-6 relative wherever pick(*args)."""
    def scaled(*args):
        out = real(*args)
        if not pick(*args):
            return out
        if isinstance(out, oa.DifferenceOperator):
            return oa.DifferenceOperator(out.n, out.terms,
                                         lambda P: (1 + 1e-6) * out.table(P))
        return (1 + 1e-6) * out
    return scaled


# (suite, case, module, attr, pick): one coefficient of the case's limit
# expression off by 1e-6 relative, through the builder it reads
_LIMIT_CONTROLS = [
    # the 1 of Mdot_1^2 f in -2 Mdot_2 f + Mdot_1^2 f - 2 Mdot_1 f + n f
    ("cm-limit", "elliptic-cm-limit", "transfer", "compose",
     lambda *args: True),
    # the Mdot_1'' of (Mdot_2'' - (n-1) Mdot_1'') / 2
    ("cm-limit", "d2-via-second-derivatives", "transfer", "m_dot",
     lambda c, d, ctx: d == 1),
    ("krichever", "lax-derivative-vs-closed-form", "transfer", "ltilde_table",
     lambda *args: True),
    ("krichever", "lax-to-identity", "transfer", "ltilde_table",
     lambda *args: True),
    ("qfay", "qfay-hbar0-degeneration", "theta", "qfay_lhs",
     lambda *args: True),
]
# every hbar-limit case reads at most 5.5e-10 at the default tau, n = 2, 3,
# 4 and seeds 0-7, so the circle rule supports this tolerance for each
_LIMIT_SUPPORTED = 1e-8


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, case, module, attr, pick", _LIMIT_CONTROLS,
                         ids=[c[1] for c in _LIMIT_CONTROLS])
def test_hbar_limit_case_reads_a_1e6_defect_red_at_its_supported_tolerance(
        monkeypatch, n, name, case, module, attr, pick):
    # the defect moves each rel to 5e-7 or more; the cases' own tolerances
    # (1e-5 to 1e-3) still let it through, so `ok` is not asserted here
    import importlib
    ctx = default_context(n)
    clean = {c.name: c for c in run_suite(name, ctx, 0).cases}[case]
    owner = importlib.import_module(f"etlax.{module}")
    monkeypatch.setattr(owner, attr, _off_by_1e6(getattr(owner, attr), pick))
    bad = {c.name: c for c in run_suite(name, ctx, 0).cases}[case]
    assert clean.rel < _LIMIT_SUPPORTED < bad.rel


def test_l_op_entry_reads_one_coefficient_tensor(ctx3, monkeypatch):
    calls = []
    real = tr.l_coeff_tensor

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(tr, "l_coeff_tensor", counted)
    lam = wt.sample_generic(52, ctx3)
    entry = matrix_entry(tr.l_op(C0, U0, ctx3), 0, 1)
    oa.apply_op(entry, ones, lam, ctx3)
    assert len(calls) == 1


def test_genfunc_reads_one_coefficient_tensor(ctx3, monkeypatch):
    # the determinant reads the table of L once, not once per entry
    calls = []
    real = tr.l_coeff_tensor
    monkeypatch.setattr(tr, "l_coeff_tensor",
                        lambda *args: calls.append(args) or real(*args))
    samples = wt.sample_many(53, 4, ctx3)
    assert tr.verify_genfunc(tr.l_op(C0, U0, ctx3), C0, U0, 0.3 + 0.1j,
                             ctx3, samples).rel < 1e-7
    assert len(calls) == 1


def test_d2_via_mdot_second_derivatives(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(50, 2, ctx)
        vecs = [rng.normal(size=ctx.n) for _ in range(2)]
        vecs = [v - v.mean() for v in vecs]
        assert tr.verify_cm_limit(C0, ctx, samples, vecs)["d2"].rel < 1e-4


def test_macdonald_limit(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        mac = ctx.replace(tau=30j)
        samples = wt.sample_many(51, 4, mac)
        for d in range(1, ctx.n + 1):
            res = tr.verify_macdonald_limit(rand_complex(rng), d, ctx,
                                            samples)
            assert res.rel < 1e-10
        assert tr.verify_macdonald_limit(0.0, 1, ctx, samples).rel < 1e-14


def _loop_macdonald(c, d, ctx, samples):
    """In-test transcription of verify_macdonald_limit's per-subset loop,
    before the subsets read one pair plan."""
    n = ctx.n
    gh = c * ctx.hbar / n
    tpar = cmath.exp(2j * cmath.pi * gh)
    tpar_half = cmath.exp(1j * cmath.pi * gh)
    coeffs = tr.m_dot(c, d, ctx.replace(tau=30j)).table(samples)
    z = np.exp(2j * np.pi * samples)
    sides = []
    for a, subset in enumerate(itertools.combinations(range(n), d)):
        s, t = np.array([(s, t) for s in range(n) if s not in subset
                         for t in subset], dtype=int).reshape(-1, 2).T
        lst = samples[:, s] - samples[:, t]
        sine = np.prod(np.sin(np.pi * (lst + gh)) / np.sin(np.pi * lst), axis=-1)
        zform = np.prod((tpar * z[:, s] - z[:, t]) / (z[:, s] - z[:, t])
                        / tpar_half, axis=-1)
        sides.append([np.stack([coeffs[:, a], sine], -1),
                      np.stack([sine, zform], -1)])
    lhs, rhs = np.array(sides).transpose(1, 2, 0, 3)
    return worst_of_arrays(*residual_arrays(lhs, rhs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_macdonald_limit_matches_its_per_subset_loop(n):
    ctx = default_context(n)
    samples = wt.sample_many(51, 5, ctx.replace(tau=30j))
    for d in range(1, n + 1):
        for c in (C0, 0.0):
            assert tr.verify_macdonald_limit(c, d, ctx, samples) == \
                _loop_macdonald(c, d, ctx, samples)


def test_subset_pairs_are_one_read_only_plan_per_n_and_d():
    for n in (2, 3, 4):
        for d in range(1, n + 1):
            subs, s, t, keys = tr._subset_pairs(n, d)
            assert subs == tuple(itertools.combinations(range(n), d))
            assert s.shape == t.shape == (d * (n - d), len(subs))
            for a, subset in enumerate(subs):
                assert list(zip(s[:, a], t[:, a])) == [
                    (x, y) for x in range(n) if x not in subset
                    for y in subset]
            assert keys == tuple(wt.canonical_key(wt.subset_key(n, i))
                                 for i in subs)
            assert not (s.flags.writeable or t.flags.writeable)
    # m_dot, verify_ruijsenaars and verify_macdonald_limit take the plan
    # from the cache once it is built
    ctx = default_context(3)
    samples = wt.sample_many(51, 4, ctx.replace(tau=30j))
    tr._subset_pairs(3, 2)
    before = tr._subset_pairs.cache_info()
    tr.m_dot(C0, 2, ctx)
    tr.verify_macdonald_limit(C0, 2, ctx, samples)
    tr.verify_ruijsenaars(C0, 2, wt.sample_many(3, 1, ctx)[0], ctx)
    after = tr._subset_pairs.cache_info()
    assert after.misses == before.misses and after.hits >= before.hits + 3


# ---------------------------------------- array contractions against oracles

def _tree_m_trace(c, u, d, ctx, wrong_level=None):
    """M_d as the closure tree of compose / op_add / op_scale over l_op
    entries; the level wrong_level is read at u - (r+1) hbar instead."""
    levels = [tr.l_op(c, u - (r + (r == wrong_level)) * ctx.hbar, ctx)
              for r in range(d)]
    parts = []
    for big_i in itertools.combinations(range(ctx.n), d):
        for perm in itertools.permutations(range(d)):
            op = matrix_entry(levels[0], big_i[perm[0]], big_i[0])
            for r in range(1, d):
                op = oa.compose(op, matrix_entry(levels[r], big_i[perm[r]],
                                                 big_i[r]),
                                ctx)
            parts.append(oa.op_scale(op, float(oa.perm_sign(perm))))
    return oa.op_add(*parts)


def _table_of(op, samples):
    """{key: coefficients over the samples}: the table of a difference
    operator by key."""
    return dict(zip(op.terms, op.table(samples).T))


def _det_by_definition(entries, t, samples):
    """:det[entries - t]: from its definition, a signed sum over permutations
    and over one key of each factor, on the entries' own tables."""
    n, zero = len(entries), (0,) * entries[0][0].n
    tabs = [[_table_of(op, samples) for op in row] for row in entries]
    for i in range(n):
        tabs[i][i][zero] = tabs[i][i].get(zero, np.zeros(len(samples))) - t
    out = {}
    for perm in itertools.permutations(range(n)):
        for choice in itertools.product(*[tabs[r][perm[r]].items()
                                          for r in range(n)]):
            key = wt.canonical_key(np.sum([k for k, _ in choice], axis=0))
            value = oa.perm_sign(perm) * np.prod([v for _, v in choice], axis=0)
            out[key] = out.get(key, 0.0) + value
    return out


def _table_rel(got, want):
    zero = 0.0 * next(iter(want.values()))
    keys = set(got) | set(want)
    diff = max(np.max(np.abs(got.get(k, zero) - want.get(k, zero))) for k in keys)
    return diff / max(np.max(np.abs(v)) for v in want.values())


def _outcome(fn, text=False):
    """The value of fn(), or 'raised' (or, with text, the message) if the
    intertwiner guard rejects it."""
    try:
        return fn()
    except SingularParameterError as exc:
        return str(exc) if text else "raised"


def test_fused_trace_matches_closure_tree():
    rng = np.random.default_rng(606)
    raised = []
    for n in (2, 3, 4):
        ctx = default_context(n)
        samples = wt.sample_many(61, 4, ctx)
        for d in range(1, n + 1):
            for _ in range(3 if (n, d) == (4, 4) else 1):
                c, u = rand_complex(rng), rand_complex(rng)
                # separate caches: each path builds its own intertwiners
                got = _outcome(lambda: _table_of(
                    tr.m_trace(c, u, d, ctx.replace()), samples))
                want = _outcome(lambda: _table_of(
                    _tree_m_trace(c, u, d, ctx.replace()), samples))
                assert (got == "raised") == (want == "raised"), (n, d)
                if got == "raised":
                    raised.append((n, d))
                    continue
                assert _table_rel(got, want) <= 1e-12, (n, d)
    # no draw raises, (4, 4) included, where the cond guard of a solved
    # phibar raised
    assert raised == []


def test_fused_trace_negative_control(ctx3):
    samples = wt.sample_many(62, 4, ctx3)
    got = _table_of(tr.m_trace(C0, U0, 3, ctx3), samples)
    for r in range(3):
        wrong = _table_of(_tree_m_trace(C0, U0, 3, ctx3, wrong_level=r),
                          samples)
        assert _table_rel(got, wrong) > 1e-3


def test_normal_det_matches_definition():
    rng = np.random.default_rng(607)
    for n in (2, 3, 4):
        ctx = default_context(n)
        samples = wt.sample_many(63, 4, ctx)
        c, u, t = rand_complex(rng), rand_complex(rng), rand_complex(rng, 0.8)
        for matrix, tt in ((tr.l_op(c, u, ctx), t),
                           (tr.l_tilde(c, u, ctx), t),
                           (tr.sekiguchi_matrix(c, u, t, ctx), 0.0)):
            entries = [[matrix_entry(matrix, i, j) for j in range(n)]
                       for i in range(n)]
            got = _table_of(oa.normal_det(matrix, tt, ctx), samples)
            assert _table_rel(got, _det_by_definition(entries, tt, samples)) \
                <= 1e-12, n


def test_trace_closed_theta_tables_do_not_grow_with_samples(monkeypatch):
    from etlax import belavin as bv
    calls = []
    real = bv.theta_level_table
    monkeypatch.setattr(bv, "theta_level_table",
                        lambda *args: calls.append(args) or real(*args))
    for d in (1, 2, 3):
        counts = []
        for count in (4, 12):
            ctx = default_context(3)
            samples = wt.sample_many(64, count, ctx)
            calls.clear()
            tr.verify_trace_closed(C0, U0, d, ctx, samples)
            counts.append(len(calls))
        # one intertwiner batch per fused table (24, 96, 240 tables at 12
        # samples when every intertwiner was built on its own)
        assert counts == [1, 1], d


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operator_suites_pass_across_seeds(n):
    # at n = 4 the four suites of the fused L-operators; the others are
    # gated at n = 4 in their own tests
    names = ("trace-closed", "commute", "genfunc", "rll", "debiard",
             "krichever", "theta-space")
    failed = [(name, seed)
              for name in names[:4 if n == 4 else None]
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_remaining_suites_pass_across_seeds(n):
    # with the operator suites gated above and the vertex and theta
    # identity suites in test_belavin.py, every suite of verify all is
    # gated at seeds 0-7
    failed = [(name, seed)
              for name in ("ruijsenaars", "macdonald-limit", "eigen-l1")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


def test_differential_side_suites_pass_at_rank_four():
    # the Krichever, Calogero-Moser, Debiard, Macdonald and ground-state
    # suites at the scaling rank n = 4, seeds 0-7
    failed = [(name, seed)
              for name in ("krichever", "cm-limit", "debiard",
                           "macdonald-limit", "ruijsenaars")
              for seed in range(8)
              if not run_suite(name, default_context(4), seed).passed]
    assert failed == []


def test_debiard_runs_at_rank_five():
    # D[4] D[5] reads Delta's jet, and so theta derivatives, to order 9
    assert run_suite("debiard", default_context(5), 0).passed


def test_context_memoizes_no_theta_value_or_intertwiner():
    ctx = default_context(2)
    for name in ("intertwiner", "debiard", "krichever", "eigen-l1"):
        run_suite(name, ctx, 0)
    # theta values and intertwiners are read from tables on every use
    assert {key[0] for key in ctx._cache} == {"eta"}


def test_delta_jet_reads_one_table_per_derivative_order(monkeypatch):
    reads = table_reads(monkeypatch)
    for n in (2, 3, 4):
        ctx = default_context(n)
        lams = wt.sample_many(47, 3, ctx)
        del reads[:]
        jet = tr.delta_jet(lams[:1], 3, ctx)
        # every pair lam_k - lam_l in one table per order 0..3, where the
        # per-monomial jets read theta once per monomial and pair
        assert reads == [n * (n - 1) // 2] * 4
        want = math.prod(theta((lams[0][k] - lams[0][l]), ctx)
                         for k in range(n) for l in range(k + 1, n))
        assert abs(jet[0, 0] - want) <= 1e-14 * abs(want)
        # and a batch reads the same four tables, over every point
        del reads[:]
        batch = tr.delta_jet(lams, 3, ctx)
        assert reads == [3 * n * (n - 1) // 2] * 4
        assert np.array_equal(batch[:1], jet)


def _nan_in_d_tables(build_d_ops):
    # every read of a D-operator table gets a NaN zero-order coefficient jet
    def nan_zero_term(op):
        zero = op.terms.index((0,) * op.n)

        def table(lams, order=0):
            out = op.table(lams, order).copy()
            out[:, zero] *= math.nan
            return out
        return oa.DifferentialOperator(op.n, op.terms, table)
    return lambda *args: [nan_zero_term(op) for op in build_d_ops(*args)]


def _nan_in_matrix(apply_op):
    def poisoned(matrix, f, lams, ctx):
        out = apply_op(matrix, f, lams, ctx)
        out[0, 0, 1] = math.nan
        return out
    return poisoned


def _nan_in_krichever_table(krichever_table):
    def poisoned(*args):
        out = krichever_table(*args).copy()
        out[0, 0, 1] = math.nan
        return out
    return poisoned


def _nan_in_coproduct(coproduct):
    def poisoned(l, u, ctx):
        out = coproduct(l, u, ctx).copy()
        out[0, 1, 0, 1] = math.nan
        return out
    return poisoned


def _nan_in_fused_rcheck(fused_rcheck_matrix):
    def poisoned(*args):
        out = fused_rcheck_matrix(*args).copy()
        out[0, 0] = math.nan
        return out
    return poisoned


_NAN_CASES = [
    ("rll", 2, "c0-identity", "suites", "apply_op", _nan_in_matrix),
    ("rll", 3, "fused-rll-k2", "transfer", "fused_rcheck_matrix",
     _nan_in_fused_rcheck),
    ("krichever", 2, "c0-pure-derivative", "transfer", "krichever_table",
     _nan_in_krichever_table),
    ("debiard", 2, "first-operator-form", "transfer", "build_d_ops",
     _nan_in_d_tables),
    ("debiard", 2, "second-operator-form", "transfer", "build_d_ops",
     _nan_in_d_tables),
    ("debiard", 2, "pairwise-commutators", "transfer", "build_d_ops",
     _nan_in_d_tables),
    ("eigen-l1", 2, "eigenvalue-shared", "thetaspace", "_coproduct",
     _nan_in_coproduct),
]


@pytest.mark.parametrize("name, n, case, module, attr, poison", _NAN_CASES,
                         ids=[f"{c[0]}/{c[2]}" for c in _NAN_CASES])
def test_nan_residual_fails_its_suite_case(monkeypatch, name, n, case, module,
                                           attr, poison):
    # a NaN in what the case reads must neither raise nor pass: the debiard
    # forms read the D-operator tables by term index, pairwise-commutators
    # through pdo_commutator_residual, and every case reduces through
    # worst_of_arrays, where a NaN rel wins
    import importlib
    owner = importlib.import_module(f"etlax.{module}")
    monkeypatch.setattr(owner, attr, poison(getattr(owner, attr)))
    rep = run_suite(name, default_context(n), 0)
    got = {c.name: c for c in rep.cases}[case]
    assert math.isnan(got.rel) and not got.ok and not rep.passed


def _scaled_unit_coefficient(build_d_ops, m, i, factor):
    """build_d_ops with D[m + 1]'s coefficient of d_i times factor."""
    def built(c, ctx):
        ops = build_d_ops(c, ctx)
        op = ops[m]
        k = op.terms.index(tuple(int(a == i) for a in range(op.n)))

        def table(P, order=0):
            out = op.table(P, order).copy()
            out[:, k] *= factor
            return out
        ops[m] = oa.DifferentialOperator(op.n, op.terms, table)
        return ops
    return built


@pytest.mark.parametrize("n", [2, 3])
def test_a_defect_in_any_unit_coefficient_turns_its_form_case_red(
        monkeypatch, n):
    # each form compares every unit coefficient e_i, i < n, once: a 1 %
    # defect in any one of them shows, and the other form stays green
    ctx = default_context(n)
    forms = ("first-operator-form", "second-operator-form")
    for m, i in itertools.product(range(2), range(n)):
        with monkeypatch.context() as patch:
            patch.setattr(tr, "build_d_ops", _scaled_unit_coefficient(
                tr.build_d_ops, m, i, 1.01))
            got = {c.name: c for c in run_suite("debiard", ctx, 42).cases}
        assert not got[forms[m]].ok and got[forms[m]].rel > 1e-4, (m, i)
        assert got[forms[1 - m]].ok


def _two_read_hamiltonian(c, ctx, P, order):
    """In-test transcription of the H table that read the pair theta tables
    twice: once for Delta's jet (its g_i) and once for the potential."""
    n = ctx.n
    g = c / n
    units = [tuple(int(a == i) for a in range(n)) for i in range(n)]
    firsts = [units[k] for k, _ in itertools.combinations(range(n), 2)]
    ratios = tr._delta_ratios(tr.delta_jet(P, order + 2, ctx), order + 1,
                              [(i,) for i in range(n)], n)
    pair_jets = tr._pair_jets(P, order + 2, ctx)
    pair_inv = oa.jet_inv(pair_jets, n)
    deeper = math.comb(n + order + 1, n)
    width = math.comb(n + order, n)
    out, zero = {}, oa.jet_constant(0.0, len(P), n, order)
    for i, e in enumerate(units):
        gi = ratios[:, i] * g
        out[tuple(2 * x for x in e)] = oa.jet_constant(1.0, len(P), n, order)
        out[e] = gi[:, :width] * (-2.0)
        zero = (zero + oa.jet_deriv(gi, n, e) * (-1.0)
                + oa.jet_mul(gi[:, :width], gi, n))
    pot = sum(oa.jet_deriv(oa.jet_mul(oa.jet_deriv(pair_jets[:, p], n, e)
                                      [:, :deeper], pair_inv[:, p], n), n, e)
              for p, e in enumerate(firsts))
    out[(0,) * n] = zero + 2.0 * g * (g + 1.0) * pot
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hamiltonian_reads_the_pair_tables_once(n, monkeypatch):
    ctx = default_context(n)
    P = wt.sample_many(71, 3, ctx)
    ham = tr.hamiltonian_cm(C0, ctx)
    for order in (0, 1, 2):
        want = _two_read_hamiltonian(C0, ctx, P, order)
        reads = table_reads(monkeypatch)
        got = ham.table(P, order)
        # one theta table per derivative order 0..order+2 of the pair jets
        assert reads == [3 * n * (n - 1) // 2] * (order + 3)
        monkeypatch.undo()
        assert set(ham.terms) == want.keys()
        assert all(np.array_equal(got[:, ham.terms.index(key)], want[key])
                   for key in want)


def test_fused_rll_reads_every_test_function_once_per_side(ctx3, rng):
    lams = wt.sample_many(72, 2, ctx3)
    calls, fns = [], []
    for _ in range(3):
        f = sumzero_exp(rng, 3)
        fns.append(lambda P, f=f: calls.append(P.shape) or f(P))
    res = tr.verify_fused_rll(C0, U0, 0.31 - 0.12j, 2, 2, ctx3, lams, fns)
    assert res.rel < 1e-8
    assert len(calls) == 2 * len(fns)
    # the stacked functions read as the worst of the functions one by one
    alone = [tr.verify_fused_rll(C0, U0, 0.31 - 0.12j, 2, 2, ctx3, lams, [f])
             for f in fns]
    assert abs(res.abs - max(r.abs for r in alone)) <= 1e-12 * res.abs / res.rel
