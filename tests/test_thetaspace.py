"""Symmetric theta space: characters, rank, invariance, module structure."""

import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from etlax import theta as th
from etlax import thetaspace as ts
from etlax import transfer as tr
from etlax import weights as wt
from etlax.context import default_context
from conftest import shift

U0 = 0.213 + 0.057j


def test_chi_matches_lattice_loop(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        n = ctx.n
        lam = shift(wt.sample_generic(3, ctx), (1,) + (0,) * (n - 1),
                    ctx.hbar)
        # a box around the Gaussian peak -Im(lambda)/Im(tau) past which the
        # terms are below e^-50 of the largest one
        radius = math.ceil(max(abs(x.imag) for x in lam.tolist())
                           / ctx.tau.imag
                           + math.sqrt(50.0 / (math.pi * ctx.tau.imag))) + 1
        for j in range(n):
            want = 0j
            for head in itertools.product(range(-radius, radius + 1),
                                          repeat=n - 1):
                v = head + (j - sum(head),)
                norm = sum((x - j / n) ** 2 for x in v)
                pairing = sum(c * x for c, x in zip(lam.tolist(), v))
                want += cmath.exp(2j * math.pi * (pairing + norm * ctx.tau / 2))
            got = ts.chi(j, lam, ctx)
            assert abs(got - want) <= 1e-14 * abs(want)
            assert ts.chi(j + n, lam, ctx) == got


def _lattice_sum(P, n, tau, radius):
    """[s, j] = sum of exp 2 pi i (<lambda_s, v> + |v - j/n|^2 tau / 2) over
    the integer v of sum j with |v_k| <= radius (k < n - 1), by brute force."""
    axis = np.arange(-radius, radius + 1)
    head = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"),
                    axis=-1).reshape(-1, n - 1)
    cols = []
    for j in range(n):
        vs = np.column_stack([head, j - head.sum(axis=1)])
        norms = ((vs - j / n) ** 2).sum(axis=1)
        cols.append(np.exp(2j * np.pi * (P @ vs.T + norms * tau / 2)).sum(1))
    return np.stack(cols, axis=-1)


def _oracle_points(n, ctx):
    """Sample points and their hbar- and tau-shifted copies, and the radius
    of a box around the Gaussian peaks -Im(lambda)/Im(tau) past which the
    lattice terms are below e^-50 of the largest one."""
    root = (1, -1) + (0,) * (n - 2)
    P = wt.sample_many(3, 6, ctx)
    P = np.concatenate([P, wt.shifted(P, [root], ctx.hbar)[:, 0],
                        wt.shifted(P, [root], ctx.tau)[:, 0]])
    tau_im = ctx.tau.imag
    return P, math.ceil(np.abs(P.imag).max() / tau_im
                        + math.sqrt(50.0 / (math.pi * tau_im))) + 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tau_im", [0.8, 0.3, 0.08])
def test_chi_table_matches_a_brute_force_lattice_sum(n, tau_im):
    ctx = default_context(n, tau=0.1 + 1j * tau_im)
    P, radius = _oracle_points(n, ctx)
    want = _lattice_sum(P, n, ctx.tau, radius)
    got = ts.chi_table(P, ctx)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert all(ts.chi(j + n, P[0], ctx) == got[0, j] for j in range(n))


def test_chi_table_matches_a_30_digit_lattice_sum():
    mpmath = pytest.importorskip("mpmath")
    n, ctx = 3, default_context(3, tau=0.1 + 0.08j)
    P, radius = _oracle_points(n, ctx)
    P = P[::6]                      # a sample point and its two shifts
    got = ts.chi_table(P, ctx)
    with mpmath.mp.workdps(30):
        tau = mpmath.mpc(ctx.tau.real, ctx.tau.imag)
        for s, lam in enumerate(P):
            lam = [mpmath.mpc(x.real, x.imag) for x in lam]
            for j in range(n):
                want = mpmath.mpc(0)
                for a, b in itertools.product(range(-radius, radius + 1),
                                              repeat=2):
                    v = (a, b, j - a - b)
                    norm = sum((x - mpmath.mpf(j) / n) ** 2 for x in v)
                    want += mpmath.expjpi(
                        2 * sum(x * y for x, y in zip(lam, v)) + norm * tau)
                assert abs(got[s, j] - complex(want)) <= 1e-13 * abs(
                    complex(want))


def test_chi_root_lattice_periodicity(ctx3, rng):
    lam = wt.sample_generic(1, ctx3)
    alpha = (1, -1, 0)
    for j in range(3):
        base = ts.chi(j, lam, ctx3)
        shifted = ts.chi(j, shift(lam, alpha, 1.0), ctx3)
        assert abs(shifted - base) / abs(base) < 1e-12


def test_chi_weyl_invariance(ctx3, rng):
    lam = wt.sample_generic(2, ctx3)
    perm = wt.canonical([lam[1], lam[2], lam[0]])
    for j in range(3):
        a, b = ts.chi(j, lam, ctx3), ts.chi(j, perm, ctx3)
        assert abs(a - b) / abs(a) < 1e-12


def test_chi_tau_shift_law(ctx3, rng):
    lam = wt.sample_generic(3, ctx3)
    alpha = (0, 1, -1)
    pairing = lam[1] - lam[2]
    factor = np.exp(-2j * np.pi * (pairing + 2.0 * ctx3.tau / 2.0))
    for j in range(3):
        lhs = ts.chi(j, shift(lam, alpha, ctx3.tau), ctx3)
        rhs = factor * ts.chi(j, lam, ctx3)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_product_quasi_periodicity(ctx2, ctx3):
    for ctx, levels in ((ctx2, (1, 2)), (ctx3, (1,))):
        for l in levels:
            assert ts.verify_chi_quasiperiodicity(l, ctx, seed=5).rel < 1e-9


def test_basis_dimension_counts():
    # the lattice count of S_n-orbits on P/lQ is the multiset count
    # (l+n-1)! / (l! (n-1)!) of the character products
    assert ts.orbit_count(2, 1) == 2
    assert ts.orbit_count(2, 2) == 3
    assert ts.orbit_count(3, 1) == 3
    assert ts.orbit_count(3, 2) == 6
    for n in range(2, 6):
        for l in range(1, 4):
            assert ts.orbit_count(n, l) == math.comb(n + l - 1, l) \
                == len(ts.character_basis(l, n))


@pytest.mark.parametrize("n,l", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_character_basis_is_the_multisets_in_order(n, l):
    E = ts.character_basis(l, n)
    assert E.tolist() == [list(js) for js in
                          itertools.combinations_with_replacement(range(n), l)]
    assert E.shape == (math.comb(n + l - 1, l), l) and not E.flags.writeable
    assert ts.character_basis(l, n) is E
    # column m of the table is the product of the characters of row m
    ctx = default_context(n)
    P = wt.sample_many(2, 5, ctx)
    X = ts.chi_table(P, ctx)
    assert np.array_equal(ts.basis_table(E, P, ctx), np.stack(
        [np.prod(X[:, row], axis=-1) for row in E], axis=-1))


def test_gram_rank_matches_basis(ctx2, ctx3):
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        dim = ts.orbit_count(ctx.n, l)
        pts = wt.sample_many(6, 2 * dim + 4, ctx)
        assert ts.gram_rank(l, pts, ctx) == dim


def test_gram_rank_needs_enough_points(ctx2):
    pts = wt.sample_many(7, 2, ctx2)
    with pytest.raises(ValueError):
        ts.gram_rank(2, pts, ctx2)


def test_fit_action_invariance(ctx2, ctx3, rng):
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        lop = tr.l_op(float(l), U0, ctx)
        worst = th.worst_of(ts.fit_action(l, lop.entry(i, j), ctx, [9])[1]
                            for i in range(ctx.n) for j in range(ctx.n))
        assert worst.rel < 1e-7
        m1 = tr.m_closed(float(l), U0, 1, ctx)
        _, res = ts.fit_action(l, m1, ctx, [11])
        assert res.rel < 1e-7


def test_negative_control_is_loud(ctx2, ctx3):
    # the control must exceed the invariance residual by >= 5 orders
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        m1 = tr.m_closed(float(l), U0, 1, ctx)
        res = ts.negative_control(l, m1, ctx, seed=13)
        assert res.rel > 1e-2
        _, fit = ts.fit_action(l, m1, ctx, [13])
        assert res.rel / (fit.rel + 1e-300) > 1e5


def test_level1_module_relation(ctx2, ctx3):
    assert ts.verify_module_iso(1, U0, ctx2, samples=15).rel < 1e-8
    assert ts.verify_module_iso(1, U0, ctx3, samples=15).rel < 1e-8


def test_fit_action_recovers_r_matrix_coefficients(ctx3):
    # the fitted expansion of L(1|u)^i_j acting on the level-1 basis is the
    # R-matrix row theta(hbar)/theta(u) R(u)^{i a}_{j b} in gamma-labels
    from etlax.belavin import build_r
    from etlax.theta import theta
    n = 3
    r4 = build_r(U0, ctx3)
    pref = theta(ctx3.hbar, ctx3) / theta(U0, ctx3)
    lop = tr.l_op(1.0, U0, ctx3)
    basis = ts.character_basis(1, n)
    for i in range(n):
        for j in range(n):
            coeffs, res = ts.fit_action(1, lop.entry(i, j), ctx3, [21])
            assert coeffs.shape == (1, n, n) and res.rel < 1e-8
            for row, js in enumerate(basis):
                a = ts.gamma_index(js[0], n)
                for col, js2 in enumerate(basis):
                    b = ts.gamma_index(js2[0], n)
                    want = pref * r4[i, a, j, b]
                    assert abs(coeffs[0, row, col] - want) < 1e-8


def test_module_isomorphism(ctx2, ctx3):
    assert ts.verify_module_iso(1, U0, ctx2).rel < 1e-8
    assert ts.verify_module_iso(2, U0, ctx2).rel < 1e-7
    assert ts.verify_module_iso(1, U0, ctx3).rel < 1e-8


def _walk(i, ip, js, u, ctx):
    """In-test transcription of the recursive coproduct walk that T
    replaced: a dict of the output monomials of e^js with boundary indices
    (i, ip), slot m carrying R(u + m hbar)."""
    from etlax.belavin import r_table
    n, l = ctx.n, len(js)
    rmats = r_table([u + m * ctx.hbar for m in range(l)], ctx)
    out = {}

    def rec(m, ia, prefix, coeff):
        if m == l:
            if ia == ip:
                out[prefix] = out.get(prefix, 0.0) + coeff
            return
        for ib in range(n):
            for jp in range(n):
                w = rmats[m][ia, js[m], ib, jp]
                if abs(w) < 1e-16:
                    continue
                rec(m + 1, ib, prefix + (jp,), coeff * w)
    rec(0, i, (), 1.0 + 0.0j)
    return out


@pytest.mark.parametrize("n,l", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (4, 1), (4, 2)])
def test_coproduct_matches_the_recursive_walk(n, l):
    ctx = default_context(n)
    got = ts._coproduct(l, U0, ctx)
    monomials = list(itertools.product(range(n), repeat=l))
    assert got.shape == (n, n ** l, n, n ** l)
    want = np.zeros_like(got)
    for a, js in enumerate(monomials):
        for i in range(n):
            for ip in range(n):
                for out, coeff in _walk(i, ip, js, U0, ctx).items():
                    want[i, a, ip, monomials.index(out)] = coeff
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n,l", [(2, 1), (2, 2), (3, 1)])
def test_module_iso_with_a_slot_off_by_hbar_reads_red(n, l, monkeypatch):
    ctx = default_context(n)
    assert ts.verify_module_iso(l, U0, ctx).rel < 1e-8
    table = ts.r_table
    # the last slot carries u + l hbar instead of u + (l - 1) hbar
    monkeypatch.setattr(ts, "r_table", lambda us, ctx: table(
        list(us[:-1]) + [us[-1] + ctx.hbar], ctx))
    assert ts.verify_module_iso(l, U0, ctx).rel > 1e-3


def test_module_iso_reads_one_r_table(monkeypatch):
    calls = []
    table = ts.r_table
    monkeypatch.setattr(ts, "r_table",
                        lambda us, ctx: calls.append(len(us)) or table(us, ctx))
    for n, l in ((2, 1), (2, 2), (3, 1), (3, 2)):
        calls.clear()
        assert ts.verify_module_iso(l, U0, default_context(n)).rel < 1e-7
        assert calls == [l]


def test_symmetrized_ordering(ctx2):
    assert ts.verify_symmetrized_ordering(2, U0, ctx2).rel < 1e-10


def test_m1_eigenfunctions(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        out = ts.m1_eigen_check(U0, ctx)
        assert out["eigen"].rel < 1e-8
        assert out["shared"].rel < 1e-9


def test_gamma_index_involution():
    for n in (2, 3, 4):
        for j in range(n):
            assert ts.gamma_index(ts.gamma_index(j, n), n) == j
    assert ts.gamma_index(1, 2) == 1    # labels coincide at n = 2
    assert ts.gamma_index(1, 3) == 2


def test_apply_batch_of_a_matrix_matches_entry_batches(ctx3):
    from etlax.opalg import apply_batch
    lop = tr.l_op(1.0, U0, ctx3)
    lams = wt.sample_many(17, 5, ctx3)
    fn = lambda P: ts.basis_table(ts.character_basis(1, 3)[1], P, ctx3)
    got = apply_batch(lop, fn, lams, ctx3)
    assert got.shape == (5, 3, 3)
    for i in range(3):
        for j in range(3):
            want = apply_batch(lop.entry(i, j), fn, lams, ctx3)
            assert np.array_equal(got[:, i, j], want)


def test_fit_action_of_a_matrix_matches_entry_fits(ctx2):
    # entry (i, j) of an OperatorMatrix is entry 2 i + j of its fit, at the
    # points of its own seed
    lop = tr.l_op(2.0, U0, ctx2)
    seeds = [31, 32, 33, 34]
    coeffs, res = ts.fit_action(2, lop, ctx2, seeds)
    assert coeffs.shape == (4, 3, 3)
    found = []
    for i in range(2):
        for j in range(2):
            want, one = ts.fit_action(2, lop.entry(i, j), ctx2,
                                      [seeds[2 * i + j]])
            assert np.array_equal(coeffs[2 * i + j], want[0])
            found.append(one)
    assert res == max(found, key=lambda r: r.rel) and res.rel < 1e-7
    with pytest.raises(ValueError, match="4 operator entries, 3 seeds"):
        ts.fit_action(2, lop, ctx2, seeds[:3])


@pytest.mark.parametrize("n,l", [(2, 2), (3, 1)])
def test_fit_points_are_the_sample_many_pairs(n, l, monkeypatch):
    # every function of entry e is fitted at the points the two sample_many
    # calls of its seed drew: 3 dim fit points, then dim + 4 held out; the
    # points of every entry come from one sampling, and op is applied once,
    # to all dim basis functions on a trailing axis
    ctx = default_context(n)
    dim = ts.orbit_count(n, l)
    seeds = [5, 40, 41]
    seen, samplings = [], []
    sample = wt.sample_points
    monkeypatch.setattr(ts, "sample_points", lambda *a: samplings.append(1)
                        or sample(*a))

    def apply(op, fn, P, ctx):
        seen.append((fn(P).shape, P))
        return np.ones((len(P), len(seeds), dim), dtype=complex)
    monkeypatch.setattr(ts, "apply_batch", apply)
    ts.fit_action(l, None, ctx, seeds)
    assert samplings == [1]        # one sampling for every fit
    assert len(seen) == 1          # one application for every function
    shape, P = seen[0]
    assert shape == (len(seeds) * (4 * dim + 4), dim)
    assert np.array_equal(P, np.concatenate(
        [part for seed in seeds for part in (
            wt.sample_many(seed, 3 * dim, ctx),
            wt.sample_many(seed + 77, dim + 4, ctx))]))


@pytest.mark.parametrize("n", [2, 3])
def test_shared_point_fits_read_red_off_integer_coupling(n):
    # every basis function of an entry is fitted at the same points: at
    # coupling l + 0.07 neither L nor M_1 keeps the level-l space, and the
    # shared-point fit says so, while at coupling l it reads clean
    ctx = default_context(n)
    for l in (1, 2) if n == 2 else (1,):
        seeds = list(range(40, 40 + n * n))
        for coupling, wrong in ((float(l), False), (l + 0.07, True)):
            fits = [ts.fit_action(l, tr.l_op(coupling, U0, ctx), ctx,
                                  seeds)[1],
                    ts.fit_action(l, tr.m_closed(coupling, U0, 1, ctx), ctx,
                                  [7])[1]]
            for res in fits:
                assert (res.rel > 1e-3) if wrong else (res.rel < 1e-9), \
                    (l, coupling, res)


def test_theta_space_reads_the_l_table_once_per_function(monkeypatch):
    from etlax.suites import run_suite
    calls = []
    table = tr.l_coeff_tensor
    monkeypatch.setattr(tr, "l_coeff_tensor",
                        lambda *args: calls.append(1) or table(*args))
    # one read per fit of L and per module relation, however many basis
    # functions they apply L to: 10 (n = 2) and 6 (n = 3) reads when each
    # function read the table, 60 and 108 when each entry did
    for n, want in ((2, 4), (3, 2)):
        calls.clear()
        assert run_suite("theta-space", default_context(n), 42).passed
        assert len(calls) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chi_constants_are_the_norms_and_the_dft(n):
    ctx = default_context(n)
    tau, m = complex(ctx.tau), np.arange(n)
    norms, dft = ts._chi_constants(n, tau)
    # D_j = theta_{j,n}(0 | tau) from the one kernel, and e^(-2 pi i jm/n)
    want = th._table(th._series(tuple(range(n)), n, tau, 0),
                     np.zeros(1, dtype=complex))[:, 0]
    assert np.array_equal(norms, want)
    assert np.array_equal(dft, np.exp(-2j * np.pi / n * np.outer(m, m)))
    assert not norms.flags.writeable and not dft.flags.writeable
    assert ts._chi_constants(n, tau)[0] is norms
    # the characters are the transform of the theta_3 products over them
    P = wt.sample_many(50, 6, ctx)
    theta3 = th._table(th._series((0.0,), 1, tau, 0),
                       (P[:, None, :] + m[:, None] / n).ravel())
    prods = np.prod(theta3.reshape(len(P), n, n), axis=-1)
    assert np.array_equal(ts.chi_table(P, ctx), np.sum(
        prods[:, None, :] * dft, axis=-1) / (n * norms))


def test_theta_space_reads_the_character_norms_once(monkeypatch):
    from etlax.suites import run_suite
    ts._chi_constants.cache_clear()
    kernel, calls = th._table, []

    def counting(series, args):
        calls.append(len(series.ms) == 2 and len(args) == 1
                      and args[0] == 0)
        return kernel(series, args)
    monkeypatch.setattr(th, "_table", counting)
    monkeypatch.setattr(ts, "_table", counting)
    for seed in range(8):
        run_suite("theta-space", default_context(2), seed)
    # one D_j = theta_{j,2}(0 | tau) read per chi_table call would be 256
    # of 824 kernel calls
    assert sum(calls) == 1 and len(calls) <= 824 - 255


# ----------------------------------------- characters off the default modulus

def test_chi_table_values_depend_on_their_own_point_alone(ctx3):
    P = wt.sample_many(8, 5, ctx3)
    far = wt.shifted(P[:1], [(2, -2, 0)], ctx3.tau)[0]      # a larger ball
    alone = ts.chi_table(P, ctx3)
    assert np.array_equal(ts.chi_table(np.vstack([P, far]), ctx3)[:5], alone)
    assert np.array_equal(ts.chi_table(P.reshape(5, 1, 3), ctx3)[:, 0], alone)
    assert all(ts.chi(j, P[2], ctx3) == alone[2, j] for j in range(3))


@pytest.mark.parametrize("n", [2, 3])
def test_theta_space_and_eigen_pass_off_the_default_modulus(n):
    from etlax.suites import run_suite
    for seed in range(8):
        for name in ("theta-space", "eigen-l1"):
            rep = run_suite(name, default_context(n, tau=0.1 + 0.3j), seed)
            assert rep.passed, [(c.name, c.rel) for c in rep.cases if not c.ok]


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_passes_at_im_tau_0_05(n):
    # eigen-l1 reads theta values here whose windows [k0 - w, k0 + w] reach
    # past k = +-24 (w is up to 18, |k0| up to 18): each window follows its
    # peak wherever it lies
    from etlax.suites import run_suite
    for seed in range(8):
        rep = run_suite("eigen-l1", default_context(n, tau=0.1 + 0.05j), seed)
        assert rep.passed, [(c.name, c.rel) for c in rep.cases if not c.ok]


def _theta_space_case(n, name, tau=None, seed=0):
    from etlax.suites import run_suite
    ctx = default_context(n) if tau is None else default_context(n, tau=tau)
    rep = run_suite("theta-space", ctx, seed)
    return next(c for c in rep.cases if c.name == name)


def test_a_theta3_series_cut_short_fails_the_module_checks(monkeypatch):
    names = ("quasi-periodicity-l2", "level1-module-relation",
             "l-operator-invariance-l1")
    assert all(_theta_space_case(2, name, 0.1 + 0.3j).ok for name in names)
    # theta_3 summed over the three terms around its peak only; such a sum
    # is still quasi-periodic, its window moving with its peak, so the
    # module relation and the invariance see the cut and the laws do not
    series = ts._series
    monkeypatch.setattr(ts, "_series", lambda ms, l, tau, d: series(
        ms, l, tau, d)._replace(**({"half": 1} if ms == (0.0,) else {})))
    assert [_theta_space_case(2, name, 0.1 + 0.3j).ok for name in names] \
        == [True, False, False]


def test_a_theta3_at_another_modulus_fails_quasi_periodicity(monkeypatch):
    # theta_3 summed with tau + 0.01 in its Gaussian: still 1-periodic, so
    # the characters keep their u -> u + alpha law, but their law under
    # u -> u + tau alpha now has the wrong multiplier
    assert _theta_space_case(2, "quasi-periodicity-l2").ok
    series = ts._series
    monkeypatch.setattr(ts, "_series", lambda ms, l, tau, d: series(
        ms, l, tau, d)._replace(**(
            {"tau2l": (tau + 0.01) / 2.0} if ms == (0.0,) else {})))
    assert not _theta_space_case(2, "quasi-periodicity-l2").ok


@pytest.mark.parametrize("n", [2, 3])
def test_characters_without_their_norms_fail_the_module_relation(
        n, monkeypatch):
    # the quasi-periodicity laws cannot see a constant factor per j; the
    # level-1 module relation mixes the characters, so it can
    assert _theta_space_case(n, "level1-module-relation").ok
    constants = ts._chi_constants
    monkeypatch.setattr(ts, "_chi_constants", lambda n, tau: (
        np.ones(n, dtype=complex), constants(n, tau)[1]))  # D_j = 1
    assert not _theta_space_case(n, "level1-module-relation").ok


def test_theta_space_passes_at_rank_4_across_seeds():
    from etlax.suites import run_suite
    failed = [(seed, c.name, c.rel) for seed in range(8)
              for c in run_suite("theta-space", default_context(4), seed).cases
              if not c.ok]
    assert failed == []


# ------------------------------------------------ every case can read red

@pytest.mark.parametrize("l", [1, 2])
def test_rank_case_reads_the_lattice_count_not_the_product_count(
        l, monkeypatch):
    # the products taken at level l + 1 span more than the S_n-orbit count
    # on P/lQ: the case reads red (at n = 2, where the sample of the
    # level-l count is large enough for the level-(l + 1) products)
    name = f"dimension-rank-l{l}"
    assert _theta_space_case(2, name).ok
    basis = ts.character_basis
    monkeypatch.setattr(ts, "character_basis", lambda l, n: basis(l + 1, n))
    assert not _theta_space_case(2, name).ok
    ctx = default_context(2)
    E = ts.character_basis(l, 2)
    pts = wt.sample_many(6, 2 * len(E) + 4, ctx)
    assert ts.gram_rank(l, pts, ctx) == len(E) > ts.orbit_count(2, l)


@pytest.mark.parametrize("n,l,rank", [(2, 1, 1), (2, 2, 1), (3, 1, 2)])
def test_a_repeated_character_fails_the_rank_case(n, l, rank, monkeypatch):
    # chi_1 read as chi_0: the products span fewer dimensions than the
    # multisets count
    name = f"dimension-rank-l{l}"
    assert _theta_space_case(n, name).ok
    table = ts.chi_table

    def repeated(P, ctx):
        X = table(P, ctx)
        X[..., 1] = X[..., 0]
        return X
    monkeypatch.setattr(ts, "chi_table", repeated)
    assert not _theta_space_case(n, name).ok
    E = ts.character_basis(l, n)
    pts = wt.sample_many(6, 2 * len(E) + 4, default_context(n))
    assert ts.gram_rank(l, pts, default_context(n)) == rank < len(E)


@pytest.mark.parametrize("n", [2, 3])
def test_m1_off_integer_coupling_fails_the_invariance_case(n, monkeypatch):
    # M_1 at coupling l + 0.07 does not leave the level-l space invariant
    m_closed = tr.m_closed
    monkeypatch.setattr(tr, "m_closed", lambda c, u, d, ctx: m_closed(
        c + 0.07, u, d, ctx))
    for seed in range(4):
        for l in (1, 2) if n == 2 else (1,):
            case = _theta_space_case(n, f"m1-invariance-l{l}", seed=seed)
            assert not case.ok and case.rel > 1e-2, (seed, case)


@pytest.mark.parametrize("n", [2, 3])
def test_a_control_function_in_the_space_fails_the_control_case(
        n, monkeypatch):
    # chi_0 in place of the exponential lies in the level-1 space, so its
    # fit residual is at roundoff, below the control's floor
    assert _theta_space_case(n, "negative-control-l1").ok
    ctx = default_context(n)
    monkeypatch.setattr(ts, "exp_function", lambda vec: functools.partial(
        ts.basis_table, ts.character_basis(1, n)[0], ctx=ctx))
    case = _theta_space_case(n, "negative-control-l1")
    assert not case.ok and case.rel < 1e-12


def test_a_slot_off_by_hbar_fails_the_module_cases(monkeypatch):
    # the last coproduct slot at u + l hbar: the level-1 relation, the
    # level-2 isomorphism and the symmetrized ordering all read red
    names = ("level1-module-relation", "module-isomorphism-l2",
             "symmetrized-ordering")
    assert all(_theta_space_case(2, name).ok for name in names)
    table = ts.r_table
    monkeypatch.setattr(ts, "r_table", lambda us, ctx: table(
        list(us[:-1]) + [us[-1] + ctx.hbar], ctx))
    for name in names:
        case = _theta_space_case(2, name)
        assert not case.ok and case.rel > 1e-2, case
