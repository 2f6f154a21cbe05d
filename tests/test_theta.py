"""Theta evaluators against brute-force references and their identities."""

import cmath
import itertools
import math

import numpy as np
import pytest

from conftest import (fay_residual, leibniz_det, qfay_residual, rand_complex,
                      table_reads)
from etlax import context
from etlax.context import ContextError, SingularParameterError, default_context
from etlax import theta as th

TAU = 0.1 + 0.8j

# frozen brute-force reference sums (plain loop, window 60, reversed order)
FROZEN = [
    # (m, l, u, tau, value)
    (0.5, 1, 0.71 + 0.11j, TAU, -0.6579618639673724 - 0.3466500025889961j),
    (1.0 / 3.0, 2, 0.21 + 0.11j, TAU, 0.6012076876576335 + 0.21013145608331688j),
    (-0.25, 3, -0.13 + 0.07j, 3 * TAU, 0.9301701466179788 + 0.21175632739322642j),
]

# eta(TAU) from the same reference route
FROZEN_ETA = 0.8065289760513803 + 0.01795747512063613j

# Weierstrass p(0.23+0.11j) from a direct N=800 lattice summation
FROZEN_WP = 10.038666752628489 - 11.012014087232323j


def brute_theta_ml(m, l, u, tau, window=40):
    acc = 0.0 + 0.0j
    for k in reversed(range(-window, window + 1)):
        mu = m + l * k
        acc += cmath.exp(2j * cmath.pi * (mu * u + mu * mu * tau / (2 * l)))
    return acc


def test_theta_ml_frozen_reference():
    for m, l, u, tau, want in FROZEN:
        got = th.theta_ml(m, l, u, tau).value
        assert abs(got - want) / abs(want) < 1e-12


def test_theta_ml_random_against_brute(rng):
    for _ in range(8):
        m = float(rng.uniform(-1, 1))
        l = int(rng.integers(1, 4))
        u = rand_complex(rng)
        got = th.theta_ml(m, l, u, TAU)
        ref = brute_theta_ml(m, l, u, TAU, window=34)
        assert abs(got.value - ref) / (abs(ref) + 1e-300) < 1e-12
        assert got.tail_bound < 1e-13


def test_theta_ml_characteristic_shift(rng):
    u = rand_complex(rng)
    a = th.theta_ml(0.3 + 2.0, 2, u, TAU).value
    b = th.theta_ml(0.3, 2, u, TAU).value
    assert abs(a - b) / abs(b) < 1e-12


def test_theta_ml_u_plus_one_phase(rng):
    m = 0.37
    u = rand_complex(rng)
    lhs = th.theta_ml(m, 1, u + 1.0, TAU).value
    rhs = cmath.exp(2j * cmath.pi * m) * th.theta_ml(m, 1, u, TAU).value
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_theta_ml_rejects_lower_half_plane():
    with pytest.raises(ContextError):
        th.theta_ml(0.5, 1, 0.1, 0.2 - 0.5j)


def test_jacobi_theta_zero_and_odd(ctx2, rng):
    assert abs(th.theta(0.0, ctx2)) < 1e-14
    for _ in range(5):
        u = rand_complex(rng)
        assert abs(th.theta(-u, ctx2) + th.theta(u, ctx2)) < 1e-13


def test_jacobi_theta_triple_product(ctx2, rng):
    for _ in range(6):
        u = rand_complex(rng)
        a = th.theta(u, ctx2)
        b = th.jacobi_theta_triple_product(u, ctx2)
        assert abs(a - b) / abs(b) < 1e-12


def test_jacobi_theta_quasi_periodicity(ctx2, rng):
    for _ in range(20):
        u = rand_complex(rng)
        assert abs(th.theta(u + 1, ctx2) + th.theta(u, ctx2)) \
            / abs(th.theta(u, ctx2)) < 1e-8
        fac = -cmath.exp(-2j * cmath.pi * (u + ctx2.tau / 2.0))
        res = abs(th.theta(u + ctx2.tau, ctx2) - fac * th.theta(u, ctx2))
        assert res / abs(th.theta(u, ctx2)) < 1e-8


def test_jacobi_theta_derivative_vs_finite_difference(ctx2, rng):
    h = 1e-5
    for _ in range(10):
        u = rand_complex(rng)
        d1 = th.theta(u, ctx2, 1)
        fd = (th.theta(u + h, ctx2) - th.theta(u - h, ctx2)) / (2 * h)
        assert abs(d1 - fd) < 1e-7


@pytest.mark.parametrize("tau_im", [0.8, 0.08, 0.05])
def test_contour_derivative_is_relative_and_its_second_order_reads_red(
        tau_im, rng):
    from etlax.suites import _contour_derivative
    ctx = default_context(2, tau=0.1 + 1j * tau_im)
    us = rng.uniform(-0.4, 0.4, (10, 2)).view(complex)[:, 0]
    for order in (1, 2):
        got = _contour_derivative(us, order, ctx)
        assert th.worst_of_arrays(*th.residual_arrays(
            got, th.theta_table(us, ctx, order))).rel < 1e-11
    # negative control: the contour of theta'' against the series theta'
    assert th.worst_of_arrays(*th.residual_arrays(
        _contour_derivative(us, 2, ctx), th.theta_table(us, ctx, 1))).rel > 1e-2


@pytest.mark.parametrize("n", [2, 3])
def test_verify_theta_passes_at_small_im_tau(n, capsys):
    # the absolute central difference the contour replaced failed here at
    # every seed, though the series derivative was right
    from etlax import cli
    for tau_im in ("0.05", "0.08"):
        for seed in range(4):
            assert cli.main(["theta", "--n", str(n), "--seed", str(seed),
                             "--tau_im", tau_im]) == 0
    capsys.readouterr()


def test_jacobi_theta_derivative_depth_capped(ctx2):
    # orders 9 and 10 (Debiard at n = 5 reads 9) are the theta_ml series,
    # whose values and tails test_theta_ml_mpmath_oracle and
    # test_theta_ml_tail_covers_what_it_leaves_out check there
    assert th.MAX_DERIV_ORDER == 10
    for d in (9, 10):
        assert th.theta(0.1, ctx2, deriv_order=d) == th.theta_ml(
            0.5, 1, 0.6, ctx2.tau, deriv_order=d).value
    with pytest.raises(ContextError, match="0..10, got 11"):
        th.theta(0.1, ctx2, deriv_order=11)


def test_theta_char_zeros_and_periodicity(ctx3, rng):
    u = rand_complex(rng)
    zeros = th.theta_char_table(range(3), [j * ctx3.tau for j in range(3)],
                                ctx3)
    at_u = th.theta_char_table(range(6), [u], ctx3)[:, 0]
    for j in range(3):
        assert abs(zeros[j, j]) < 1e-8
        assert at_u[j + 3] == at_u[j]
        want = th.theta_ml(0.5 - j / 3.0, 1, u + 0.5, 3 * ctx3.tau).value
        assert abs(at_u[j] - want) / abs(want) < 1e-13


def test_theta_level_definitional(ctx3, rng):
    u = rand_complex(rng)
    at_u = th.theta_level_table(range(1, 7), [u], ctx3)[:, 0]
    for j in range(1, 4):
        got = at_u[j - 1]
        want = th.theta_ml(1.5 - j, 3, u + 0.5, ctx3.tau).value
        assert abs(got - want) / abs(want) < 1e-12
        assert at_u[j + 2] == got


def test_dedekind_eta(ctx2):
    eta = th.dedekind_eta(ctx2)
    assert abs(eta - FROZEN_ETA) / abs(FROZEN_ETA) < 1e-13
    assert abs(eta) > 0.1
    logsum = th.dedekind_eta_logsum(ctx2.tau)
    assert abs(eta - logsum) / abs(logsum) < 1e-13
    # p -> 0: eta approaches p^(1/24)
    far = default_context(2, tau=6j)
    lead = cmath.exp(2j * cmath.pi * far.tau / 24.0)
    assert abs(th.dedekind_eta(far) / lead - 1.0) < 1e-9


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.3j, 30j])
def test_eta_is_the_24_factor_product_bit_for_bit(tau):
    # eta stops at the least M with |p|^M <= 2^-60 (9 factors at the
    # default modulus); the factors after it round away, so every
    # intertwiner, which divides by i eta, keeps its value
    ctx = default_context(2, tau=tau)
    p = cmath.exp(2j * cmath.pi * tau)
    want = cmath.exp(2j * cmath.pi * tau / 24.0)
    for m in range(1, 25):
        want *= 1.0 - p ** m
    assert th._product_length(p) <= 24
    assert th.dedekind_eta(ctx) == want


def test_product_length_is_the_least_power_below_2_to_minus_60():
    for x in (0.0066 + 0.0001j, 0.25, -0.15j, 0.9, 1e-30):
        m = th._product_length(x)
        assert m >= 1 and abs(x) ** m <= 2.0 ** -60
        assert m == 1 or abs(x) ** (m - 1) > 2.0 ** -60


def test_weierstrass_symmetries(ctx2, rng):
    u = rand_complex(rng, 0.3) + 0.05
    assert abs(th.weierstrass_p(u, ctx2) - th.weierstrass_p(-u, ctx2)) < 1e-8
    assert abs(th.weierstrass_p(u + 1, ctx2) - th.weierstrass_p(u, ctx2)) < 1e-8
    assert abs(th.weierstrass_p(u + ctx2.tau, ctx2)
               - th.weierstrass_p(u, ctx2)) < 1e-8


def test_weierstrass_laurent_tail(ctx2):
    u = 1e-3 * cmath.exp(0.37j)
    assert abs(u * u * th.weierstrass_p(u, ctx2) - 1.0) < 1e-4


def test_weierstrass_lattice_oracle(ctx2):
    got = th.weierstrass_p(0.23 + 0.11j, ctx2)
    assert abs(got - FROZEN_WP) / abs(FROZEN_WP) < 1e-6


def test_weierstrass_pole_rejected(ctx2):
    with pytest.raises(th.SingularParameterError):
        th.weierstrass_p(1.0 + 0.0j, ctx2)


def test_vandermonde_identity(rng):
    for n, tol in ((2, 1e-10), (3, 1e-9), (4, 1e-9)):
        ctx = default_context(n)
        for _ in range(10):
            us = [rand_complex(rng) for _ in range(n)]
            assert th.verify_vandermonde(us, ctx).rel < tol


def test_vandermonde_shared_zero(rng):
    ctx = default_context(3)
    us = [rand_complex(rng), rand_complex(rng)]
    us.append(2.0 - us[0] - us[1])     # sum in Z kills theta(sum u)
    res = th.verify_vandermonde(us, ctx)
    assert res.rel == 0.0 and res.abs < 1e-8


def _degenerate_points(seed, n):
    """The vandermonde suite's shared-zero draw: sum of the arguments is 1."""
    rng = np.random.default_rng(seed)
    us = [rand_complex(rng) for _ in range(n - 1)]
    us.append(1.0 - sum(us))
    return us


def test_vandermonde_degenerate_across_seeds():
    # Both sides vanish exactly; at n=4 the floating-point det reads up to
    # about 1e-6 in absolute terms (the matrix's Hadamard bound reaches 1e12),
    # so an absolute floor failed seeds 72, 79, 82, 144, 170, 240 and 343
    for n in (2, 3, 4):
        ctx = default_context(n)
        for seed in range(400):
            res = th.verify_vandermonde(_degenerate_points(seed, n), ctx)
            assert res.rel < 1e-9, (n, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_degenerate_point_set_reads_residual_zero(n):
    # one point set is the batch of one: a degenerate sample's deviation
    # counts as 0, so its abs reads 0 beside its rel 0, as in a batch; the
    # one-point branch that went kept the det's rounding (3e-16 to 6e-13
    # here) as the abs of a floored rel
    ctx = default_context(n)
    for seed in (0, 42):
        got = th.verify_vandermonde(_degenerate_points(seed, n), ctx)
        assert got == th.Residual(0.0, 0.0), (n, seed)


def test_vandermonde_floor_negative_control(monkeypatch):
    # With the sign of the identity flipped, the check must fail 1e-2 away
    # from the degenerate locus: the relative floor does not hide it there
    sign = th.vandermonde_sign
    monkeypatch.setattr(th, "vandermonde_sign", lambda n: -sign(n))
    for n in (2, 3, 4):
        ctx = default_context(n)
        for seed in range(20):
            us = _degenerate_points(seed, n)
            us[-1] += 1e-2
            assert th.verify_vandermonde(us, ctx).rel > 0.5, (n, seed)


def test_theta_level_table_matches_scalar(rng):
    # every entry is the per-value series of its row j mod n, bit for bit
    for n in (2, 3, 4):
        ctx = default_context(n)
        tau = complex(ctx.tau)
        us = [rand_complex(rng) for _ in range(n)]
        for rows in (range(n), range(1, n + 1)):
            table = th.theta_level_table(rows, us, ctx)
            assert table.shape == (n, n)
            assert table.tolist() == [
                [_per_value_series(n / 2.0 - j % n, n, u + 0.5, tau, 0)
                 for u in us] for j in rows]


def test_theta_char_table_matches_per_value_series_bit_for_bit(monkeypatch,
                                                               rng):
    reads = table_reads(monkeypatch)
    for n in (2, 3, 4):
        ctx = default_context(n)
        us = [rand_complex(rng) for _ in range(70)] + [0.0, ctx.hbar, ctx.tau]
        rows = list(range(n)) + [n + 1, -1]        # characteristics mod n
        del reads[:]
        table = th.theta_char_table(rows, us, ctx)
        assert reads == [len(us)]       # every row and point in one call
        assert table.shape == (len(rows), len(us))
        want = [[_per_value_series(0.5 - (j % n) / n, 1, u + 0.5,
                                   complex(n * ctx.tau), 0)
                 for u in us] for j in rows]
        assert table.tolist() == want


def test_theta_ml_mpmath_oracle(rng):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        tau = mp.mpc(TAU)
        q = mp.exp(1j * mp.pi * tau)
        for d in (0, 1, 2, 9, 10):
            for _ in range(5):
                u = rand_complex(rng)
                got = th.theta_ml(0.5, 1, u + 0.5, TAU, deriv_order=d).value
                # theta_{1/2,1}(u + 1/2) = -jtheta_1(pi u, e^{i pi tau})
                want = complex(-mp.pi ** d
                               * mp.jtheta(1, mp.pi * mp.mpc(u), q, d))
                assert abs(got - want) <= 1e-14 * abs(want)
        for _ in range(5):
            m = float(rng.uniform(-1, 1))
            l = int(rng.integers(1, 5))
            u = rand_complex(rng)
            got = th.theta_ml(m, l, u, TAU).value
            # theta_{m,l}(u) = e^{2 pi i (m u + m^2 tau / 2l)}
            #                  * jtheta_3(pi (l u + m tau), e^{i pi l tau})
            um = mp.mpc(u)
            want = complex(mp.exp(2j * mp.pi * (m * um + m * m * tau / (2 * l)))
                           * mp.jtheta(3, mp.pi * (l * um + m * tau),
                                       mp.exp(1j * mp.pi * l * tau)))
            assert abs(got - want) <= 1e-13 * abs(want)


def test_theta_ml_large_imaginary_argument():
    # exp(2 pi i mu u) overflows here for the outer terms while their
    # u-independent factor underflows; the value must stay finite
    for u in (0.5 + 5j, 0.5 - 5j, 0.2 + 7j):
        got = th.theta_ml(0.5, 1, u, TAU).value
        ref = brute_theta_ml(0.5, 1, u, TAU, window=24)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_qfay_d1_machine_precision(ctx2, rng):
    res = qfay_residual(1, rand_complex(rng), [rand_complex(rng)],
                        [rand_complex(rng)], ctx2)
    assert res.rel < 1e-14


def test_qfay_all_depths(ctx2, rng):
    for d in range(1, 5):
        for _ in range(50):
            res = qfay_residual(d, rand_complex(rng),
                                [rand_complex(rng) for _ in range(d)],
                                [rand_complex(rng) for _ in range(d)], ctx2)
            assert res.rel < context.TOL_IDENTITY


def test_qfay_degenerate_column(ctx2, rng):
    # mu_d = lambda_1 zeroes the rows s < d of column 1 and the determinant
    # collapses to the induction-step product
    d = 2
    u = rand_complex(rng)
    lams = [rand_complex(rng) for _ in range(d)]
    mus = [rand_complex(rng), lams[0]]
    hb = ctx2.hbar
    # row s=1, column s'=1 vanishes through the r=d factor theta(0)
    ent = th.theta(mus[0] - lams[0] + u, ctx2) * th.theta(mus[1] - lams[0], ctx2)
    assert abs(ent) < 1e-13
    a21 = th.theta(mus[0] - lams[0] + hb, ctx2) \
        * th.theta(mus[1] - lams[0] + u - hb, ctx2)
    a12 = th.theta(mus[0] - lams[1] + u, ctx2) * th.theta(mus[1] - lams[1], ctx2)
    det = th.qfay_lhs(d, u, lams, mus, ctx2)
    assert abs(det - (-a21 * a12)) / abs(det) < 1e-12
    assert qfay_residual(d, u, lams, mus, ctx2).rel < 1e-12


def test_fay_identity(ctx2, rng):
    assert fay_residual(1, rand_complex(rng), [rand_complex(rng)],
                         [rand_complex(rng)], ctx2).rel < 1e-14
    for d in (2, 3):
        done = 0
        while done < 20:
            try:
                res = fay_residual(d, rand_complex(rng),
                                    [rand_complex(rng) for _ in range(d)],
                                    [rand_complex(rng) for _ in range(d)], ctx2)
            except th.SingularParameterError:
                continue
            done += 1
            assert res.rel < 1e-10


def test_qfay_degenerates_to_fay(ctx2, rng):
    d = 2
    sctx = ctx2.replace(hbar=1e-6)
    u = rand_complex(rng)
    lams = [rand_complex(rng) for _ in range(d)]
    mus = [rand_complex(rng) for _ in range(d)]
    lhs = th.qfay_lhs(d, u, lams, mus, sctx)
    want = th.theta(u + sum(m - l for m, l in zip(mus, lams)), ctx2) \
        * th.theta(u, ctx2) ** (d - 1) \
        * th.theta(lams[1] - lams[0], ctx2) * th.theta(mus[0] - mus[1], ctx2)
    assert abs(lhs - want) / abs(want) < 1e-4


@pytest.mark.parametrize("tau", [None, 0.1 + 0.3j])
def test_qfay_lhs_on_an_hbar_axis_reads_each_node_alone(tau):
    # one batch over the hbar circle, bit for bit the per-node contexts
    hs = th.circle()
    for n in (2, 3):
        ctx = default_context(n) if tau is None else default_context(n, tau=tau)
        rng = np.random.default_rng(n)
        for d in range(1, 5):
            u, *draws = rng.uniform(-0.4, 0.4, (2 * d + 1, 2)).view(complex)[:, 0]
            lams, mus = draws[:d], draws[d:]
            loop = [th.qfay_lhs(d, u, lams, mus, ctx.replace(hbar=h)) for h in hs]
            assert np.array_equal(th.qfay_lhs(d, u, lams, mus, ctx, hs), loop)


@pytest.mark.parametrize("tau", [None, 0.1 + 0.3j])
def test_weierstrass_p_on_an_array_reads_each_point_alone(tau):
    # one theta table per derivative order: each value bit for bit that of
    # its point read alone, and the formula on three scalar theta reads up
    # to the rounding of the array arithmetic
    ctx = default_context(2) if tau is None else default_context(2, tau=tau)
    rng = np.random.default_rng(9)
    us = rng.uniform(-0.4, 0.4, (2, 5, 2)).view(complex)[..., 0] + 0.05
    h = -th.TWO_PI_I * th.eta_tau_log_derivative(ctx)

    def one(u):
        t0, t1, t2 = (th.theta(u, ctx, k) for k in range(3))
        return -(t2 * t0 - t1 * t1) / (t0 * t0) - 2.0 * h
    got = th.weierstrass_p(us, ctx)
    assert got.shape == us.shape
    assert np.array_equal(got, [[th.weierstrass_p(u, ctx) for u in row]
                                for row in us])
    want = np.array([[one(u) for u in row] for row in us.tolist()])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    assert np.ndim(th.weierstrass_p(us[0, 0], ctx)) == 0
    with pytest.raises(SingularParameterError):
        th.weierstrass_p(np.array([0.2, 1.0]), ctx)


def test_qfay_hbar0_limit_is_the_fay_form_and_a_factor_less_reads_red(ctx2):
    # a_0 on the hbar circle of the determinant side against the Fay form,
    # and against that form without its theta(u)^(d-1) factor
    d, hs = 2, th.circle()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        u, l0, l1, m0, m1 = rng.uniform(-0.4, 0.4, (5, 2)).view(complex)[:, 0]
        lhs = complex(th.laurent_coefficient([th.qfay_lhs(
            d, u, [l0, l1], [m0, m1], ctx2.replace(hbar=h)) for h in hs], hs, 0))
        bare = th.theta(u + m0 + m1 - l0 - l1, ctx2) \
            * th.theta(l1 - l0, ctx2) * th.theta(m0 - m1, ctx2)
        want = bare * th.theta(u, ctx2) ** (d - 1)
        assert th.residual_pair(lhs, want).rel < 1e-13
        assert th.residual_pair(lhs, bare).rel >= 1e-2


@pytest.mark.parametrize("tau", [0.1 + 0.08j, 0.1 + 0.05j])
@pytest.mark.parametrize("n", [2, 3])
def test_qfay_hbar0_case_passes_at_small_im_tau(n, tau):
    # the case, not the suite: qfay-d3 and qfay-d4 still fail here; at
    # tau = 0.1+0.05i, n = 2, seed 2 a +-hbar step of 2e-3 read 1.7e-5
    from etlax.suites import run_suite
    ctx = default_context(n, tau=tau)
    failed = [seed for seed in range(8) if not {
        c.name: c for c in run_suite("qfay", ctx, seed).cases}[
            "qfay-hbar0-degeneration"].ok]
    assert failed == []


def _laurent(coeffs, hs):
    """The values at the nodes hs of sum_m coeffs[m] h^m."""
    return [sum(c * h ** m for m, c in coeffs.items()) for h in hs]


@pytest.mark.parametrize("radius", [th.HBAR_RADIUS, 0.02, 1.0])
def test_laurent_coefficient_is_exact_on_n_consecutive_powers(radius):
    # N consecutive powers h^-2 .. h^(N-3) fall in N distinct classes mod
    # N, so the rule reads each coefficient alone; each term is scaled to
    # modulus about 1 on the circle, so rounding stays near eps
    count = th.HBAR_NODES
    hs = th.circle(radius, count)
    rng = np.random.default_rng(7)
    draws = rng.normal(size=(count, 2)).view(complex)[:, 0]
    coeffs = {m: b * radius ** -m for m, b in zip(range(-2, count - 2), draws)}
    values = _laurent(coeffs, hs)
    for k, want in coeffs.items():
        got = th.laurent_coefficient(values, hs, k)
        assert abs(got - want) <= 1e-13 * abs(want), k


def test_an_h_to_the_n_term_aliases_onto_a0():
    # on circle(), h^12 takes the node class of h^0: a_0 gains its
    # coefficient times r^12, and a_1 does not move; this pins N = 12 and
    # r = 0.003
    count, r = 12, 0.003
    hs = th.circle()
    assert len(hs) == count and np.allclose(np.abs(hs), r, rtol=1e-15, atol=0)
    coeffs = {-1: 0.4 - 0.2j, 0: 1.3 + 0.5j, 1: -0.7 + 2.1j}
    extra = (0.9 - 1.7j) * r ** -count
    values = np.add(_laurent(coeffs, hs), extra * hs ** count)
    # the rounding of a value, about eps max|f|, reaches a_k times r^-k
    floor = 1e-15 * np.max(np.abs(values))
    assert abs(th.laurent_coefficient(values, hs, 0)
               - (coeffs[0] + extra * r ** count)) <= floor
    assert abs(th.laurent_coefficient(values, hs, 0) - coeffs[0]) > 1.0
    assert abs(th.laurent_coefficient(values, hs, 1) - coeffs[1]) <= floor / r


def test_tail_bounds_accepted(ctx2, rng):
    # the series behind theta and theta_level_table, with their tail bounds
    for _ in range(10):
        u = rand_complex(rng)
        jac = th.theta_ml(0.5, 1, u + 0.5, ctx2.tau)
        assert jac.value == th.theta(u, ctx2)
        assert jac.tail_bound < 1e-13
        lev = th.theta_ml(0.0, 2, u + 0.5, ctx2.tau)
        assert lev.value == th.theta_level_table([1], [u], ctx2)[0, 0]
        assert lev.tail_bound < 1e-13


def test_worst_of_keeps_first_maximum():
    R = th.Residual
    assert th.worst_of([]) == R(0.0, 0.0)
    assert th.worst_of([R(0.0, 3.0), R(0.0, 5.0)]) == R(0.0, 0.0)
    assert th.worst_of(iter([R(1e-9, 1.0), R(2e-9, 4.0), R(2e-9, 5.0),
                             R(1e-9, 6.0)])) == R(2e-9, 4.0)
    # a NaN rel wins, the first one on repeats, so its check fails
    nan = float("nan")
    for items in ([R(nan, 1.0), R(1e-9, 2.0)], [R(1e-9, 2.0), R(nan, 1.0)],
                  [R(0.0, 0.0), R(nan, 1.0), R(nan, 3.0), R(5.0, 4.0)]):
        got = th.worst_of(items)
        assert math.isnan(got.rel) and got.abs == 1.0


def test_worst_of_arrays_follows_worst_of(rng):
    R = th.Residual
    nan = float("nan")
    cases = [[], [0.0, 0.0], [1e-9, 2e-9, 2e-9, 1e-9], [nan, 1e-9],
             [1e-9, nan, 3.0, nan], list(rng.uniform(0, 1, 30))]
    for rels in cases:
        abss = [float(k + 1) for k in range(len(rels))]
        want = th.worst_of(R(r, a) for r, a in zip(rels, abss))
        got = th.worst_of_arrays(np.reshape(rels, (-1, 1)), abss)
        assert (got == want or (math.isnan(got.rel) and math.isnan(want.rel)
                                and got.abs == want.abs)), rels


def test_theta_table_matches_theta_bit_for_bit(rng):
    for n in (2, 3):
        ctx = default_context(n)
        us = [rand_complex(rng) for _ in range(150)]
        us += [complex(rng.uniform(-2, 2), sgn * rng.uniform(5, 7))
               for sgn in (1, -1) for _ in range(25)]
        us += [0.0, 1.0, ctx.tau, 0.5 + 5j, 0.2 - 7j]
        table = th.theta_table(us, ctx)
        assert table.shape == (len(us),)
        assert table.tolist() == [th.theta(u, ctx.replace()) for u in us]
        grid = th.theta_table(np.reshape(us[:200], (20, 10)), ctx)
        assert np.array_equal(grid.ravel(), table[:200])
    assert th.theta_table([], ctx).shape == (0,)


def test_determinant_identities_read_one_theta_table(monkeypatch, rng):
    ctx = default_context(2)
    calls = []
    table = th.theta_table
    monkeypatch.setattr(th, "theta_table",
                        lambda us, c: calls.append(np.size(us)) or table(us, c))
    reads = table_reads(monkeypatch)
    for d in (1, 2, 3, 4):
        args = (rand_complex(rng), [rand_complex(rng) for _ in range(d)],
                [rand_complex(rng) for _ in range(d)])
        del calls[:], reads[:]
        qfay_residual(d, *args, ctx)
        assert calls == [d ** 3, 1 + (d - 1) + d * (d - 1)]   # lhs, rhs
        assert reads == calls           # no theta value read outside them
        del calls[:], reads[:]
        fay_residual(d, *args, ctx)
        assert calls == [2 + 2 * d * d + d * (d - 1)]
        assert reads == calls


def test_fay_guards_keep_their_messages(ctx2):
    with pytest.raises(th.SingularParameterError, match="theta\\(u\\)"):
        fay_residual(2, 1.0, [0.1, 0.2j], [0.3, 0.1j], ctx2)
    with pytest.raises(th.SingularParameterError, match="mu_s - lambda_s'"):
        fay_residual(2, 0.3, [0.1, 0.2j], [0.3, 0.1 + ctx2.tau], ctx2)


def test_eta_wp_triple_product_mpmath_oracle(rng):
    # 30-digit references: eta = p^(1/24) (p; p)_inf with p = e^{2 pi i tau};
    # p(u) on Z + Z tau from jtheta; theta(u) = -jtheta_1(pi u, e^{i pi tau})
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for tau_c in (TAU, 0.3 + 0.5j, -0.4 + 1.3j):
            ctx = default_context(2, tau=tau_c)
            tau = mp.mpc(tau_c)
            got = th.dedekind_eta(ctx)
            want = complex(mp.exp(2j * mp.pi * tau / 24)
                           * mp.qp(mp.exp(2j * mp.pi * tau)))
            assert abs(got - want) <= 1e-14 * abs(want)
            # negative control: eta with the exponent 1/24 read as 1/12
            wrong = got * cmath.exp(2j * cmath.pi * tau_c / 24)
            assert abs(wrong - want) > 1e-3 * abs(want)

            q = mp.exp(1j * mp.pi * tau)
            t2, t3 = mp.jtheta(2, 0, q), mp.jtheta(3, 0, q)
            h = -2j * cmath.pi * th.eta_tau_log_derivative(ctx)
            for _ in range(4):
                u = rand_complex(rng, 0.3) + 0.05
                z = mp.pi * mp.mpc(u)
                want = complex((mp.pi * t2 * t3 * mp.jtheta(4, z, q)
                                / mp.jtheta(1, z, q)) ** 2
                               - mp.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4))
                got = th.weierstrass_p(u, ctx)
                assert abs(got - want) <= 1e-12 * abs(want)
                # negative control: the constant -2h read as +h
                assert abs(got + 3 * h - want) > 1e-3 * abs(want)

                want = complex(-mp.jtheta(1, z, q))
                got = th.jacobi_theta_triple_product(u, ctx)
                assert abs(got - want) <= 1e-14 * abs(want)
                # negative control: the prefactor p^(1/8) read as p^(1/4)
                wrong = got * cmath.exp(1j * cmath.pi * tau_c / 4)
                assert abs(wrong - want) > 1e-3 * abs(want)


def _bound(l, tau, w, order):
    """The left-out terms of a half-width w window, bounded term by term
    and summed until the terms stop adding, relative to the reference
    term."""
    a = math.pi * tau.imag * l
    lost = 0.25 if order == 0 else 1.0
    dropped = 0.0
    for j in itertools.count():
        delta = w + 0.5 + j
        term = 2.0 * math.exp(-a * (delta ** 2 - lost)) \
            * (1.0 + 2.0 * delta) ** order
        if dropped + term == dropped:
            return dropped
        dropped += term


def _window_half(l, tau, order):
    """The least half-width w >= 1 whose _bound is at most 2^-60."""
    return next(w for w in itertools.count(1)
                if _bound(l, tau, w, order) <= 2.0 ** -60)


def _window_first(m, l, u, tau, w):
    """The first k of the window at the point u: k0 - w, with
    k0 = floor(1/2 - m/l - Im u / Im tau) rounded as the tables do."""
    return math.floor((0.5 - m / l) - u.imag * (1.0 / tau.imag)) - w


def _per_value_series(m, l, u, tau, order, w=None):
    """The windowed series at one point, transcribed: the 2w + 1 terms
    around k0 = floor(1/2 - m/l - Im u / Im tau), wherever k0 lies, one exp
    over them and one sum; w is the table's half-width unless given."""
    w = _window_half(l, tau, order) if w is None else w
    first = _window_first(m, l, u, tau, w)
    mu = m + l * np.arange(first, first + 2 * w + 1, dtype=float)
    tpm = th.TWO_PI_I * mu
    terms = np.exp(tpm * u + th.TWO_PI_I * (mu * mu * (tau / (2.0 * l))))
    if order:
        terms = terms * tpm ** order
    return complex(terms.sum())


REACH = 120     # the full series: every k in [-REACH, REACH]


def _full_series(m, l, us, tau, order):
    """The sum of all the terms of [-REACH, REACH] at the points us, far
    past every window the tests read, and the sum of their moduli."""
    mu = m + l * np.arange(-REACH, REACH + 1, dtype=float)
    tpm = th.TWO_PI_I * mu
    terms = np.exp(np.multiply.outer(us, tpm)
                   + th.TWO_PI_I * (mu * mu * (tau / (2.0 * l))))
    if order:
        terms = terms * tpm ** order
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def _left_out(m, l, u, tau, order, w=None):
    """The sum of the moduli of the terms of [-REACH, REACH] that the
    window of half-width w (the table's unless given) leaves out at the
    point u, and the largest it keeps."""
    w = _window_half(l, tau, order) if w is None else w
    first = _window_first(m, l, u, tau, w)
    k = np.arange(-REACH, REACH + 1)
    mu = m + l * k.astype(float)
    terms = np.abs(np.exp(th.TWO_PI_I * (mu * u + mu * mu * (tau / (2.0 * l))))
                   * (2.0 * math.pi * mu) ** order)
    kept = (first <= k) & (k <= first + 2 * w)
    return float(np.sum(terms[~kept])), float(np.max(terms[kept]))


def test_tables_equal_the_per_value_series_bit_for_bit(rng):
    for n in (2, 3, 4):
        ctx = default_context(n)
        tau = complex(ctx.tau)
        us = [rand_complex(rng) for _ in range(20)] + [0.0, 1.0, ctx.tau,
                                                       0.5 + 5j, 0.2 - 7j]
        for order in range(4):
            table = th.theta_table(us, ctx, order).tolist()
            assert table == [_per_value_series(0.5, 1, u + 0.5, tau, order)
                             for u in us]
            assert table == [th.theta(u, ctx, order) for u in us]
            assert table == [th.theta_ml(0.5, 1, u + 0.5, tau,
                                         deriv_order=order).value for u in us]
        # the level-n series overflow to nan at |Im u| = 7, so the other
        # two families are compared on the moderate points
        rows, us = range(n), us[:-2]
        chars = th.theta_char_table(rows, us, ctx).tolist()
        assert chars == [[_per_value_series(0.5 - j / n, 1, u + 0.5, n * tau,
                                            0) for u in us]
                         for j in rows]
        levels = th.theta_level_table(rows, us, ctx).tolist()
        assert levels == [[_per_value_series(n / 2.0 - j, n, u + 0.5, tau, 0)
                           for u in us] for j in rows]
        assert levels == [[th.theta_ml(n / 2.0 - j, n, u + 0.5, tau).value
                           for u in us] for j in rows]
    # negative control: the transcription is sensitive to the order
    assert _per_value_series(0.5, 1, 0.3, TAU, 1) \
        != _per_value_series(0.5, 1, 0.3, TAU, 2)


def _families(ctx):
    """(name, table, deriv orders, series (m, l, tau) per row) of the
    three theta families at the context."""
    n, tau = ctx.n, complex(ctx.tau)
    rows = range(n)
    return [
        ("theta", lambda us, d: th.theta_table(us, ctx, d)[None], range(9),
         [(0.5, 1, tau)]),
        ("char", lambda us, d: th.theta_char_table(rows, us, ctx), (0,),
         [(0.5 - j / n, 1, n * tau) for j in rows]),
        ("level", lambda us, d: th.theta_level_table(rows, us, ctx), (0,),
         [(n / 2.0 - j, n, tau) for j in rows]),
    ]


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.3 + 0.5j, 0.1 + 0.005j])
def test_windowed_tables_match_the_full_series(tau, rng):
    # Within 4 ulp of sum |terms| of the sum of every term of
    # [-REACH, REACH] (the measured worst is about 1.5).  At Im tau = 0.005
    # the window holds more than the 49 terms of [-24, 24].
    small = tau.imag < 0.01
    box = 0.05 if small else 7.0
    us = rng.uniform(-2, 2, 120) + 1j * rng.uniform(-box, box, 120)
    if not small:
        us = np.concatenate([us, [0.0, 7j, -7j, 5j, 2 - 5j, 0.5 - 0.5j]])
    eps = np.finfo(float).eps
    for n in (2, 3, 4):
        ctx = default_context(n, tau=tau)
        for name, table, orders, params in _families(ctx):
            for m, l, stau in params:
                for d in orders:
                    half = th._series((m,), l, stau, d).half
                    assert half == _window_half(l, stau, d)
                    if tau == 0.1 + 0.8j:      # the default context
                        assert 2 <= half <= 5
                    if small and l == 1 and stau == tau:
                        assert 2 * half + 1 > 49
            for d in orders:
                # the points where every series of the family is finite
                keep = [u for u in us if all(
                    math.pi * l * (u + 0.5).imag ** 2 / stau.imag < 600
                    for _, l, stau in params)]
                got = table(np.array(keep), d)
                for row, (m, l, stau) in zip(got, params):
                    full, scale = _full_series(m, l, np.array(keep) + 0.5,
                                               stau, d)
                    assert np.all(np.isfinite(scale))
                    assert np.all(np.abs(row - full) <= 4 * eps * scale)
                if name == "theta":         # |Im u| = 7 included
                    assert len(keep) == len(us)


def test_window_values_do_not_depend_on_the_batch():
    # each of two points alone and side by side, in both orders: their
    # windows differ, their values do not
    for n in (2, 3, 4):
        ctx = default_context(n)
        points = np.array([-0.5, 0.3 + 5j])
        for _, table, orders, params in _families(ctx):
            for d in orders:
                alone = [table(points[[k]], d)[:, 0].tolist() for k in (0, 1)]
                for order in ([0, 1], [1, 0]):
                    pair = table(points[order], d)
                    assert [pair[:, k].tolist() for k in np.argsort(order)] \
                        == alone
            m, l, stau = params[0]
            first = th._window_first(th._series((m,), l, stau, 0),
                                     points + 0.5)
            assert first[0, 0] != first[0, 1]


def test_non_finite_points_give_non_finite_values():
    # a NaN or infinite Im u has no window; its value and tail are
    # non-finite, and nothing raises (no index or integer cast)
    ctx = default_context(3)
    us = np.array([complex(0, math.nan), complex(0, math.inf),
                   complex(0.2, -math.inf), complex(math.nan, 0.3), 0.3j])
    with np.errstate(invalid="ignore", over="ignore"):
        tables = [th.theta_table(us, ctx, d) for d in range(3)] + [
            th.theta_char_table(range(3), us, ctx),
            th.theta_level_table(range(3), us, ctx)]
        for table in tables:
            assert not np.any(np.isfinite(table[..., :4]))
            assert np.all(np.isfinite(table[..., 4]))
        for u in us[:3]:
            got = th.theta_ml(0.5, 1, u, ctx.tau, deriv_order=1)
            assert not (cmath.isfinite(got.value)
                        or math.isfinite(got.tail_bound))


def test_a_narrower_window_breaks_the_bound(rng):
    # negative control: half-width 2 instead of 4 at the default context
    ctx = default_context(2)
    tau = complex(ctx.tau)
    args = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-3, 3, 50) + 0.5
    series = th._series((0.5,), 1, tau, 0)
    assert series.half == 4
    full, scale = _full_series(0.5, 1, args, tau, 0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(th._table(series, args)[0] - full) <= 4 * eps * scale)
    cut = th._table(series._replace(half=2), args)[0]
    assert np.max(np.abs(cut - full) / scale) > 1e4 * eps


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.05j])
def test_theta_ml_tail_covers_what_it_leaves_out(tau, rng):
    # theta_ml is the table's window at one point, and its tail, the
    # window's dropped-term bound times the largest term kept, covers the
    # terms it leaves out and is at most 2^-60 of that term.  At
    # Im tau = 0.05 the largest term reaches e^30 where |Im u| = 0.4 and
    # l = 3, so the tail is not small in absolute terms there.
    for _ in range(30):
        m, l = float(rng.uniform(-1, 1)), int(rng.integers(1, 4))
        u = complex(rng.uniform(-2, 2), rng.uniform(-0.4, 0.4))
        for d in (0, 1, 2, 9, 10):
            got = th.theta_ml(m, l, u, tau, deriv_order=d)
            assert got.value == _per_value_series(m, l, u, tau, d)
            left_out, largest = _left_out(m, l, u, tau, d)
            assert left_out <= got.tail_bound * (1 + 1e-12)
            assert got.tail_bound <= 2.0 ** -60 * largest * (1 + 1e-12)


def test_half_width_is_the_least_that_fits_at_tiny_im_tau():
    # w runs to thousands here; the search still reads only a few dozen
    # bounds, and finds the least w whose bound fits
    for im_tau in (1e-6, 1e-8):
        tau = complex(0.1, im_tau)
        for d in (0, 3, 8):
            w = th._series((0.5,), 1, tau, d).half
            assert w > 3000
            assert _bound(1, tau, w, d) <= 2.0 ** -60 < _bound(1, tau, w - 1, d)


def test_reference_series_ends_where_its_terms_underflow():
    # at Im tau = 2000 every term of theta_{1/2,1}, the largest too,
    # underflows to 0: the reference sums the peak term alone and stops
    from etlax.suites import _reference_series
    assert _reference_series(0.5, 1, 0.2 + 0.1j, 0.1 + 2000j) == (0j, 0.0)
    value, largest = _reference_series(0.3, 2, 0.2 + 0.1j, TAU)
    assert largest > 0 and abs(value - th.theta_ml(0.3, 2, 0.2 + 0.1j,
                                                    TAU).value) \
        <= 1e-13 * abs(value)


PEAKS_PAST_24 = (0.13 + 2j, 0.13 + 1.5j)    # at tau = 0.1 + 0.08i


def test_windows_past_the_old_range_match_mpmath():
    # the peak k* = -Im u / Im tau - m/l of these points lies beyond
    # [-24, 24]: each window follows it there
    mp = pytest.importorskip("mpmath")
    tau = 0.1 + 0.08j

    def series(m, l, v, stau):
        # theta_{m,l}(v) = e^{2 pi i (m v + m^2 tau / 2l)}
        #                  * jtheta_3(pi (l v + m tau), e^{i pi l tau})
        v, stau = mp.mpc(v), mp.mpc(stau)
        return complex(mp.exp(2j * mp.pi * (m * v + m * m * stau / (2 * l)))
                       * mp.jtheta(3, mp.pi * (l * v + m * stau),
                                   mp.exp(1j * mp.pi * l * stau)))

    def close(got, want, tol=1e-13):
        return abs(got - want) <= tol * abs(want)

    with mp.workdps(30):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        for n in (2, 3):
            ctx = default_context(n, tau=tau)
            rows = range(n)
            for u in PEAKS_PAST_24:
                for d in range(3):
                    # theta(u) = -jtheta_1(pi u, e^{i pi tau})
                    want = complex(-mp.pi ** d
                                   * mp.jtheta(1, mp.pi * mp.mpc(u), q, d))
                    assert close(th.theta(u, ctx, d), want)
                    assert close(th.theta_ml(0.5, 1, u + 0.5, tau,
                                             deriv_order=d).value, want)
                chars = th.theta_char_table(rows, [u], ctx)[:, 0]
                levels = th.theta_level_table(rows, [u], ctx)[:, 0]
                for j in rows:
                    assert close(chars[j], series(0.5 - j / n, 1, u + 0.5,
                                                  n * tau))
                    # the level-n terms here have |mu| up to about 75 and
                    # phases of hundreds of radians, whose rounding alone
                    # reads up to 3e-13 (Sum |terms| / |value| is below 7)
                    want = series(n / 2.0 - j, n, u + 0.5, tau)
                    assert close(levels[j], want, 1e-12)
                    assert close(th.theta_ml(n / 2.0 - j, n, u + 0.5,
                                             tau).value, want, 1e-12)


# Rounding bounds of the batched determinant identities against their
# per-sample transcriptions below (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 2002): a product of a few dozen rounded
# factors moves by at most 16 eps of its value, and a determinant by at
# most 16 eps times the Hadamard bound of its matrix, the product of its
# column norms.  Measured at most 4.0 eps (determinants) and 8.4 eps
# (products) over these tests' draws at 20 seeds.
EPS = np.finfo(float).eps


def _hadamard(mat):
    return np.prod(np.linalg.norm(mat, axis=-2), axis=-1)


def test_vandermonde_product_matches_its_loop_form(monkeypatch, rng):
    reads = table_reads(monkeypatch)
    for n in (2, 3, 4):
        ctx = default_context(n)
        for _ in range(10):
            us = [rand_complex(rng) for _ in range(n)]
            del reads[:]
            got = th.vandermonde_product(us, ctx)
            assert reads == [1 + n * (n - 1) // 2]     # one table
            ieta = 1j * th.dedekind_eta(ctx)
            want = th.vandermonde_sign(n) * th.theta(sum(us), ctx) / ieta
            for j in range(n):
                for k in range(j + 1, n):
                    want *= th.theta(us[k] - us[j], ctx) / ieta
            assert abs(got - want) <= 16 * EPS * abs(want)
            # negative control: one factor with its arguments swapped
            wrong = want / th.theta(us[1] - us[0], ctx) \
                * th.theta(us[0] - us[1], ctx)
            assert abs(wrong - got) > 1e-3 * abs(got)


# In-test transcriptions of the per-sample qFay, Fay and Vandermonde checks
# as they were before the batched ones: one theta table per sample and side,
# Python complex arithmetic on its values.  qFay's batch does the same
# operations in the same order (bit for bit); Fay's and Vandermonde's
# divide and multiply in numpy's complex arithmetic and in another order,
# within the bounds above.

def _loop_qfay(d, u, lambdas, mus, ctx):
    hb = ctx.hbar
    args = []
    for s in range(1, d + 1):
        for sp in range(1, d + 1):
            for r in range(1, d + 1):
                arg = mus[r - 1] - lambdas[sp - 1]
                if r < s:
                    arg += hb
                if r == s:
                    arg += u - (s - 1) * hb
                args.append(arg)
    values = iter(th.theta_table(args, ctx).tolist())
    mat = np.empty((d, d), dtype=complex)
    for s in range(d):
        for sp in range(d):
            prod = 1.0 + 0.0j
            for _ in range(d):
                prod *= next(values)
            mat[s, sp] = prod
    args = [u + sum(mus[r] - lambdas[r] for r in range(d))]
    args += [u - s * hb for s in range(1, d)]
    for s in range(d):
        for sp in range(s + 1, d):
            args += [lambdas[sp] - lambdas[s], hb + mus[s] - mus[sp]]
    values = th.theta_table(args, ctx).tolist()
    rhs = values[0]
    for factor in values[1:]:
        rhs *= factor
    return complex(th.det(mat[None])[0]), rhs


def _loop_fay(d, u, lambdas, mus, ctx):
    """Both sides and the Hadamard bound of the determinant's matrix, or
    None where a guard of the check would raise."""
    tol = context.TOL_IDENTITY * th.theta_scale(ctx)
    cross = [mus[s] - lambdas[sp] for s in range(d) for sp in range(d)]
    pairs = [(s, sp) for s in range(d) for sp in range(s + 1, d)]
    args = [u, u + sum(mus[r] - lambdas[r] for r in range(d))]
    args += cross + [x + u for x in cross]
    args += [a for s, sp in pairs
             for a in (mus[s] - mus[sp], lambdas[sp] - lambdas[s])]
    values = th.theta_table(args, ctx).tolist()
    tu, top = values[0], values[1]
    dens = values[2:2 + d * d]
    nums = values[2 + d * d:2 + 2 * d * d]
    if abs(tu) < tol or any(abs(den) < tol for den in dens):
        return None
    mat = np.array([num / (den * tu) for num, den in zip(nums, dens)],
                   dtype=complex).reshape(d, d)
    rhs = top / tu
    rest = values[2 + 2 * d * d:]
    for mu_factor, lambda_factor in zip(rest[::2], rest[1::2]):
        rhs *= mu_factor * lambda_factor
    for den in dens:
        rhs /= den
    return complex(th.det(mat[None])[0]), rhs, _hadamard(mat)


def _loop_vandermonde(us, ctx):
    n = len(us)
    ieta = 1j * th.dedekind_eta(ctx)
    mat = th.theta_level_table(range(1, n + 1), us, ctx) / ieta
    values = th.theta_table([sum(us)] + [us[k] - us[j] for j in range(n)
                                         for k in range(j + 1, n)], ctx).tolist()
    rhs = th.vandermonde_sign(n) * values[0] / ieta
    for factor in values[1:]:
        rhs *= factor / ieta
    return complex(th.det(mat[None])[0]), rhs


def _draws(rng, count, d):
    """count samples of (u, lambda_1..d, mu_1..d), one sample per row."""
    return rng.uniform(-0.4, 0.4, size=(count, 2 * d + 1, 2)).view(complex)[..., 0]


def _swap_first_two(points, k):
    """points with the first two of sample k exchanged: a transposition,
    which flips the sign of the determinant side alone."""
    out = np.array(points)
    out[k, [0, 1]] = out[k, [1, 0]]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qfay_batch_matches_its_per_sample_loop(n, rng):
    ctx = default_context(n)
    for d in range(1, 5):
        draws = _draws(rng, 12, d)
        u, lams, mus = draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:]
        lhs, rhs = th.qfay_lhs(d, u, lams, mus, ctx), th.qfay_rhs(d, u, lams, mus, ctx)
        want = [_loop_qfay(d, row[0], row[1:d + 1], row[d + 1:], ctx)
                for row in draws.tolist()]
        # same operations in the same order: bit for bit
        assert lhs.tolist() == [w[0] for w in want]
        assert rhs.tolist() == [w[1] for w in want]
        assert qfay_residual(d, u, lams, mus, ctx) == th.worst_of_arrays(
            *th.residual_arrays(lhs, rhs))
        if d > 1:
            # negative control: sample 5 with two lambdas swapped on the
            # determinant side only
            bad = th.qfay_lhs(d, u, _swap_first_two(lams, 5), mus, ctx)
            rel, _ = th.residual_arrays(bad, rhs)
            assert rel[5] > 1e-3 and np.delete(rel, 5).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fay_batch_matches_its_per_sample_loop(n, rng, monkeypatch):
    # a raised singularity floor makes some samples singular
    monkeypatch.setattr(context, "TOL_IDENTITY", 0.1)
    ctx = default_context(n)
    singular = 0
    for d in range(1, 5):
        draws = _draws(rng, 40, d)
        u, lams, mus = draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:]
        lhs, rhs, small = th.fay_sides(d, u, lams, mus, ctx)
        for k, row in enumerate(draws.tolist()):
            want = _loop_fay(d, row[0], row[1:d + 1], row[d + 1:], ctx)
            assert (want is None) == small[k].any()
            singular += want is None
            if want is not None:
                assert abs(lhs[k] - want[0]) <= 16 * EPS * want[2]
                assert abs(rhs[k] - want[1]) <= 16 * EPS * abs(want[1])
        if d > 1:
            # negative control at the first regular sample k
            regular = ~small.any(axis=-1)
            k = int(np.argmax(regular))
            bad, _, _ = th.fay_sides(d, u, _swap_first_two(lams, k), mus, ctx)
            rel, _ = th.residual_arrays(bad, rhs)
            assert regular[k] and rel[k] > 1e-3
            assert rel[regular & (np.arange(40) != k)].max() < 1e-9
    assert singular > 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vandermonde_batch_matches_its_per_sample_loop(n, rng):
    ctx = default_context(n)
    us = rng.uniform(-0.4, 0.4, size=(12, n, 2)).view(complex)[..., 0]
    want = [_loop_vandermonde(row, ctx) for row in us.tolist()]
    rhs = th.vandermonde_product(us, ctx)
    loop_rhs = np.array([w[1] for w in want])
    assert np.all(np.abs(rhs - loop_rhs) <= 16 * EPS * np.abs(loop_rhs))
    # the determinant side is the stacked det of the same matrices
    lhs = np.array([w[0] for w in want])
    assert th.verify_vandermonde(us, ctx) == th.worst_of_arrays(
        *th.residual_arrays(lhs, rhs))
    # negative control: sample 5 with two points swapped on the product side
    rel, _ = th.residual_arrays(lhs, th.vandermonde_product(
        _swap_first_two(us, 5), ctx))
    assert rel[5] > 1e-3 and np.delete(rel, 5).max() < 1e-9


def test_det_of_ties_zero_rows_and_zero_columns_is_the_leibniz_sum():
    # small integer entries, some turned by powers of i, tie in modulus:
    # the first row of largest modulus pivots; a zero row or column gives
    # exactly 0
    rng = np.random.default_rng(830)
    for size in (2, 3, 4, 5):
        mats = rng.integers(-2, 3, size=(40, size, size)).astype(complex)
        mats[:20] *= 1j ** rng.integers(0, 4, size=(20, size, size))
        mats[20, 1] = 0
        mats[21, :, size - 1] = 0
        got, want = th.det(mats), leibniz_det(mats)
        largest = np.max([np.prod(np.abs(mats[:, range(size), perm]), axis=-1)
                          for perm in itertools.permutations(range(size))],
                         axis=0)
        assert np.all(np.abs(got - want) <= 1e-14 * largest)
        assert got[20] == 0 and got[21] == 0


_DET_SITES = ["vandermonde", "qfay", "fay", "det-closed-form", "sekiguchi"]


@pytest.mark.parametrize("site", _DET_SITES)
def test_det_agrees_with_lapack_at_each_identity_site(site, monkeypatch, rng):
    # np.linalg.det, an independent oracle, on every matrix det takes at
    # the site, at n = 2, 3, 4: within 16 eps times the matrix's Hadamard
    # bound (the bound of the loop comparisons above); measured at most
    # 1.8 eps (vandermonde; qfay 1.2, fay 1.3, det-closed-form 1.3 and
    # sekiguchi 1.1)
    from etlax import belavin as bv
    from etlax import transfer as tr
    from etlax import weights as wt
    real, seen = th.det, []

    def spy(mats):
        out = real(mats)
        seen.append((np.array(mats), out))
        return out
    module = {"det-closed-form": bv, "sekiguchi": tr}.get(site, th)
    monkeypatch.setattr(module, "det", spy)
    for n in (2, 3, 4):
        ctx = default_context(n)
        if site == "vandermonde":
            th.verify_vandermonde(_draws(rng, 12, n)[:, :n], ctx)
        elif site in ("qfay", "fay"):
            for d in range(1, 5):
                draws = _draws(rng, 12, d)
                sides = th.qfay_lhs if site == "qfay" else th.fay_sides
                sides(d, draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:],
                      ctx)
        elif site == "det-closed-form":
            bv.verify_intertwiners(_draws(rng, 10, 0)[:, 0],
                                   wt.sample_many(840 + n, 10, ctx), ctx)
        else:
            tr.verify_sekiguchi(rand_complex(rng), rand_complex(rng),
                                rand_complex(rng), ctx,
                                wt.sample_many(850 + n, 4, ctx))
    assert len(seen) == {"qfay": 12, "fay": 12}.get(site, 3)
    for mats, got in seen:
        hadamard = _hadamard(mats)
        assert np.all(np.abs(got - np.linalg.det(mats))
                      <= 16 * EPS * hadamard)


def test_array_draws_are_the_scalar_stream():
    # rand_complex is the scalar draw the suites made one point at a time
    from etlax.suites import _rc, _rcs
    for shape, box in (((7,), 0.4), ((5, 3), 0.4), ((50, 9), 0.8), ((0, 2), 0.4)):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        got = _rcs(a, shape, box)
        assert got.shape == shape
        want = [rand_complex(b, box) for _ in range(got.size)]
        assert got.ravel().tolist() == want
        assert a.uniform() == b.uniform()       # left at the same place
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert [_rc(a) for _ in range(9)] == [rand_complex(b) for _ in range(9)]


def test_fay_suite_draws_the_per_sample_stream(monkeypatch):
    # the suite as it was: one sample at a time, a singular one skipped,
    # until 50 are regular; a raised floor makes the skips happen
    from etlax.suites import SUITE_ORDER, run_suite
    monkeypatch.setattr(context, "TOL_IDENTITY", 0.05)
    ctx = default_context(2)
    rng = np.random.default_rng([3, SUITE_ORDER.index("fay"), 2])
    for _ in range(3):
        rand_complex(rng)                       # run_suite's u, v, t
    want, skipped = [], 0
    for d in range(1, 5):
        found = []
        while len(found) < 50:
            u = rand_complex(rng)
            lams = [rand_complex(rng) for _ in range(d)]
            mus = [rand_complex(rng) for _ in range(d)]
            sides = _loop_fay(d, u, lams, mus, ctx)
            skipped += sides is None
            if sides is not None:
                found.append([u, *lams, *mus])
        want.append(found)
    # the regular samples that reach fay_sides, and its sides there
    seen = {d: ([], []) for d in range(1, 5)}
    real = th.fay_sides

    def recording(d, u, lambdas, mus, c):
        lhs, rhs, small = real(d, u, lambdas, mus, c)
        regular = ~small.any(axis=-1)
        draws = np.concatenate([u[:, None], lambdas, mus], axis=1)
        seen[d][0].extend(draws[regular].tolist())
        seen[d][1].append((lhs[regular], rhs[regular]))
        return lhs, rhs, small
    monkeypatch.setattr(th, "fay_sides", recording)
    got = run_suite("fay", ctx, 3)
    assert skipped > 0
    for d, case in zip(range(1, 5), got.cases):
        samples, sides = seen[d]
        assert samples == want[d - 1]           # the same draws, exactly
        assert case.rel == th.worst_of_arrays(*th.residual_arrays(
            *(np.concatenate(side) for side in zip(*sides)))).rel


@pytest.mark.parametrize("suite, target, failing", [
    ("qfay", "qfay_rhs", ["qfay-d1", "qfay-d2", "qfay-d3", "qfay-d4"]),
    ("fay", "fay_sides", ["fay-d1", "fay-d2", "fay-d3", "fay-d4"]),
    ("vandermonde", "vandermonde_product",
     ["vandermonde-n2", "vandermonde-n3", "vandermonde-n4"]),
])
def test_nan_sample_fails_its_identity_case(monkeypatch, suite, target, failing):
    # one NaN among the 50 samples of each batched case turns it red
    from etlax.suites import run_suite
    real = getattr(th, target)

    def one_nan(*args):
        out = real(*args)
        side = out[0] if isinstance(out, tuple) else out
        if np.shape(side) == (50,):
            side[7] = np.nan
        return out
    monkeypatch.setattr(th, target, one_nan)
    rep = run_suite(suite, default_context(2), 0)
    bad = [c for c in rep.cases if not c.ok]
    assert [c.name for c in bad] == failing
    assert all(math.isnan(c.rel) for c in bad) and not rep.passed
