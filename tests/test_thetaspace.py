"""Symmetric theta space: characters, rank, invariance, module structure."""

import cmath
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
        lam = shift(wt.sample_generic(3, ctx), (1,) + (0,) * (ctx.n - 1),
                    ctx.hbar)
        radius2 = int(ts._ball_radii2(lam[None], ctx)[0])
        for j in range(ctx.n):
            vs, nn = ts._lattice_points(ctx.n, j, radius2, ctx)
            want = 0j
            for v, norm in zip(vs.tolist(), nn.tolist()):
                pairing = sum(c * x for c, x in zip(lam.tolist(), v))
                want += cmath.exp(2j * math.pi * (pairing + norm * ctx.tau / 2))
            got = ts.chi(j, lam, ctx)
            assert abs(got - want) <= 1e-14 * abs(want)
            assert ts.chi(j + ctx.n, lam, ctx) == got


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
    assert ts.basis_dimension(2, 1) == 2
    assert ts.basis_dimension(2, 2) == 3
    assert ts.basis_dimension(3, 1) == 3
    assert ts.basis_dimension(3, 2) == 6
    for n, l in ((2, 1), (2, 2), (3, 1), (3, 2)):
        assert ts.basis_dimension(n, l) == math.comb(n + l - 1, l)


def test_gram_rank_matches_basis(ctx2, ctx3):
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        dim = ts.basis_dimension(ctx.n, l)
        pts = wt.sample_many(6, 2 * dim + 4, ctx)
        assert ts.gram_rank(l, pts, ctx) == dim


def test_gram_rank_needs_enough_points(ctx2):
    pts = wt.sample_many(7, 2, ctx2)
    with pytest.raises(ValueError):
        ts.gram_rank(2, pts, ctx2)


def test_fit_action_invariance(ctx2, ctx3, rng):
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        lop = tr.l_op(float(l), U0, ctx)
        worst = th.worst_of(ts.fit_action(l, U0, lop.entry(i, j), ctx, seed=9)[1]
                            for i in range(ctx.n) for j in range(ctx.n))
        assert worst.rel < 1e-7
        m1 = tr.m_closed(float(l), U0, 1, ctx)
        _, res = ts.fit_action(l, U0, m1, ctx, seed=11)
        assert res.rel < 1e-7


def test_negative_control_is_loud(ctx2, ctx3):
    # the control must exceed the invariance residual by >= 5 orders
    for ctx, l in ((ctx2, 1), (ctx2, 2), (ctx3, 1)):
        m1 = tr.m_closed(float(l), U0, 1, ctx)
        res = ts.negative_control(l, m1, ctx, seed=13)
        assert res.rel > 1e-2
        _, fit = ts.fit_action(l, U0, m1, ctx, seed=13)
        assert res.rel / (fit.rel + 1e-300) > 1e5


def test_level1_module_relation(ctx2, ctx3):
    assert ts.verify_thminl1(U0, ctx2).rel < 1e-8
    assert ts.verify_thminl1(U0, ctx3).rel < 1e-8


def test_fit_action_recovers_r_matrix_coefficients(ctx3):
    # the fitted expansion of L(1|u)^i_j acting on the level-1 basis is the
    # R-matrix row theta(hbar)/theta(u) R(u)^{i a}_{j b} in gamma-labels
    from etlax.belavin import build_r
    from etlax.theta import theta
    n = 3
    r4 = build_r(U0, ctx3).entries
    pref = theta(ctx3.hbar, ctx3) / theta(U0, ctx3)
    lop = tr.l_op(1.0, U0, ctx3)
    basis = ts.character_basis(1, ctx3)
    for i in range(n):
        for j in range(n):
            coeffs, res = ts.fit_action(1, U0, lop.entry(i, j), ctx3, seed=21)
            assert res.rel < 1e-8
            for row, js in enumerate(basis.elements):
                a = ts.gamma_index(js[0], n)
                for col, js2 in enumerate(basis.elements):
                    b = ts.gamma_index(js2[0], n)
                    want = pref * r4[i, a, j, b]
                    assert abs(coeffs[row][col] - want) < 1e-8


def test_module_isomorphism(ctx2, ctx3):
    assert ts.verify_module_iso(1, U0, ctx2).rel < 1e-8
    assert ts.verify_module_iso(2, U0, ctx2).rel < 1e-7
    assert ts.verify_module_iso(1, U0, ctx3).rel < 1e-8


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


def test_apply_matrix_matches_entry_batches(ctx3):
    from etlax.opalg import apply_batch, apply_matrix
    lop = tr.l_op(1.0, U0, ctx3)
    lams = wt.sample_many(17, 5, ctx3)
    fn = ts.character_basis(1, ctx3).function(1, ctx3)
    got = apply_matrix(lop, fn, lams, ctx3)
    assert got.shape == (5, 3, 3)
    for i in range(3):
        for j in range(3):
            want = apply_batch(lop.entry(i, j), fn, lams, ctx3)
            assert np.array_equal(got[:, i, j], want)


def test_fit_matrix_action_matches_entry_fits(ctx2):
    lop = tr.l_op(2.0, U0, ctx2)
    seeds = [31, 32, 33, 34]
    coeffs, res = ts.fit_matrix_action(2, lop, ctx2, seeds)
    found = []
    for i in range(2):
        for j in range(2):
            want, one = ts.fit_action(2, U0, lop.entry(i, j), ctx2,
                                      seed=seeds[2 * i + j])
            assert np.array_equal(coeffs[i, j], want)
            found.append(one)
    assert res == max(found, key=lambda r: r.rel) and res.rel < 1e-7


@pytest.mark.parametrize("n,l", [(2, 2), (3, 1)])
def test_fit_points_are_the_sample_many_pairs(n, l, monkeypatch):
    # every (function m, column e) fit keeps the points the two sample_many
    # calls of its seed drew: 3 dim fit points, then dim + 4 held out
    ctx = default_context(n)
    dim = ts.basis_dimension(n, l)
    seeds = [5, 40, 41]
    seen, samplings = [], []
    sample = wt.sample_points
    monkeypatch.setattr(ts, "sample_points", lambda *a: samplings.append(1)
                        or sample(*a))

    def apply(fn, P):
        seen.append(P)
        return np.ones((len(P), len(seeds)), dtype=complex)
    ts._fit_entries(l, apply, seeds, ctx)
    assert samplings == [1]        # one sampling for every fit
    assert len(seen) == dim
    for m, P in enumerate(seen):
        assert np.array_equal(P, np.concatenate(
            [part for seed in seeds for part in (
                wt.sample_many(seed + m, 3 * dim, ctx),
                wt.sample_many(seed + m + 77, dim + 4, ctx))]))


def test_theta_space_reads_the_l_table_once_per_function(monkeypatch):
    from etlax.suites import run_suite
    calls = []
    table = tr.l_coeff_tensor
    monkeypatch.setattr(tr, "l_coeff_tensor",
                        lambda *args: calls.append(1) or table(*args))
    # 60 (n = 2) and 108 (n = 3) batches when every entry read the table
    for n, want in ((2, 10), (3, 9)):
        calls.clear()
        assert run_suite("theta-space", default_context(n), 42).passed
        assert len(calls) == want


# ------------------------------------------------ the ball of the lattice sum

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tau_im", [0.8, 0.3, 0.1])
def test_the_ball_leaves_out_below_2_to_the_minus_60(n, tau_im):
    # every character at sample points, at their hbar and tau shifts: the
    # terms outside each point's ball, summed over a far larger ball, are
    # below 2^-60 of the largest term inside it
    ctx = default_context(n, tau=0.1 + 1j * tau_im)
    root = (1, -1) + (0,) * (n - 2)
    P = wt.sample_many(3, 6, ctx)
    P = np.concatenate([P, wt.shifted(P, [root], ctx.hbar)[:, 0],
                        wt.shifted(P, [root], ctx.tau)[:, 0]])
    radii2 = ts._ball_radii2(P, ctx)
    reach = int((math.sqrt(radii2.max()) + 12.0 / math.sqrt(tau_im)) ** 2)
    for j in range(n):
        vs, nn = ts._lattice_points(n, j, reach, ctx)
        # log |term| = -2 pi Im(<v, lambda> + |v - j/n|^2 tau / 2)
        logs = -2 * np.pi * (P.imag @ vs.T + nn * tau_im / 2)
        for row, r2 in zip(logs, radii2):
            kept = nn <= r2
            top = row[kept].max()
            assert (~kept).any()                      # the far ball is wider
            assert np.exp(row[~kept] - top).sum() <= 2.0 ** -60


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


def test_a_ball_cut_at_the_old_radius_fails_off_the_default_modulus(
        monkeypatch):
    from etlax.suites import run_suite

    def case():
        rep = run_suite("theta-space", default_context(2, tau=0.1 + 0.3j), 0)
        return next(c for c in rep.cases if c.name == "quasi-periodicity-l2")
    assert case().ok
    # the fixed radius^2 = 40 of the lattice ball before it followed Im tau
    monkeypatch.setattr(ts, "_ball_radii2",
                        lambda P, ctx: np.full(len(P), 40.0))
    assert not case().ok


def test_a_ball_too_large_to_enumerate_is_refused():
    # at n = 4 and Im tau = 0.005 the ball would hold tens of millions of
    # lattice vectors; the sum is refused before anything is allocated
    from etlax.context import ContextError
    ctx = default_context(4, tau=0.1 + 0.005j)
    with pytest.raises(ContextError, match="too large"):
        ts.chi_table(wt.sample_many(0, 2, ctx), ctx)
