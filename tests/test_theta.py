"""Theta evaluators against brute-force references and their identities."""

import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import fay_residual, rand_complex, table_reads
from etlax.context import ContextError, default_context
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
        got = th.theta_ml(m, l, u, TAU, trunc=24)
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


def test_jacobi_theta_derivative_depth_capped(ctx2):
    with pytest.raises(ContextError):
        th.theta(0.1, ctx2, deriv_order=9)


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
    eta = th.dedekind_eta(ctx2.tau, ctx2)
    assert abs(eta.value - FROZEN_ETA) / abs(FROZEN_ETA) < 1e-13
    assert abs(eta.value) > 0.1
    logsum = th.dedekind_eta_logsum(ctx2.tau, ctx2)
    assert abs(eta.value - logsum) / abs(logsum) < 1e-13
    # p -> 0: eta approaches p^(1/24)
    far = default_context(2, tau=6j)
    lead = cmath.exp(2j * cmath.pi * far.tau / 24.0)
    assert abs(th.dedekind_eta(far.tau, far).value / lead - 1.0) < 1e-9


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
        tau, trunc = complex(ctx.tau), ctx.trunc
        us = [rand_complex(rng) for _ in range(n)]
        for rows in (range(n), range(1, n + 1)):
            table = th.theta_level_table(rows, us, ctx)
            assert table.shape == (n, n)
            assert table.tolist() == [
                [_per_value_series(n / 2.0 - j % n, n, u + 0.5, tau, trunc, 0)
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
                                   complex(n * ctx.tau), ctx.trunc, 0)
                 for u in us] for j in rows]
        assert table.tolist() == want


def test_theta_ml_mpmath_oracle(rng):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        tau = mp.mpc(TAU)
        q = mp.exp(1j * mp.pi * tau)
        for d in range(3):
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
    res = th.verify_qfay(1, rand_complex(rng), [rand_complex(rng)],
                         [rand_complex(rng)], ctx2)
    assert res.rel < 1e-14


def test_qfay_all_depths(ctx2, rng):
    for d in range(1, 5):
        for _ in range(50):
            res = th.verify_qfay(d, rand_complex(rng),
                                 [rand_complex(rng) for _ in range(d)],
                                 [rand_complex(rng) for _ in range(d)], ctx2)
            assert res.rel < ctx2.tol_identity


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
    assert th.verify_qfay(d, u, lams, mus, ctx2).rel < 1e-12


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


def test_tail_bounds_accepted(ctx2, rng):
    # the series behind theta and theta_level_table, with their tail bounds
    for _ in range(10):
        u = rand_complex(rng)
        jac = th.theta_ml(0.5, 1, u + 0.5, ctx2.tau, trunc=ctx2.trunc)
        assert jac.value == th.theta(u, ctx2)
        assert jac.tail_bound < ctx2.tol_series
        lev = th.theta_ml(0.0, 2, u + 0.5, ctx2.tau, trunc=ctx2.trunc)
        assert lev.value == th.theta_level_table([1], [u], ctx2)[0, 0]
        assert lev.tail_bound < ctx2.tol_series


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
        th.verify_qfay(d, *args, ctx)
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
            got = th.dedekind_eta(tau_c, ctx).value
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


def _window_half(l, tau, trunc, order):
    """The least half-width w in 1..trunc-1 whose left-out terms, bounded
    term by term, sum to at most 2^-60 of the reference term; else trunc."""
    a = math.pi * tau.imag * l
    lost = 0.25 if order == 0 else 1.0
    for w in range(1, trunc):
        dropped = 0.0
        for j in range(2 * trunc + 1):
            delta = w + 0.5 + j
            dropped += 2.0 * math.exp(-a * (delta ** 2 - lost)) \
                * (1.0 + 2.0 * delta) ** order
        if dropped <= 2.0 ** -60:
            return w
    return trunc


def _window_first(m, l, u, tau, trunc, w):
    """The first k of the window at the point u, with k0 rounded half up
    as the tables do, moved inside [-trunc, trunc]."""
    pos = ((trunc - w + 0.5) - m / l) - u.imag * (1.0 / tau.imag)
    return math.floor(min(max(pos, 0.5), 2 * (trunc - w) + 0.5)) - trunc


def _per_value_series(m, l, u, tau, trunc, order):
    """The windowed series at one point, transcribed: the 2w + 1 terms
    around k0 = floor(-Im u / Im tau - m / l + 1/2) (the window moved
    inside [-trunc, trunc]), one exp over them and one sum."""
    w = _window_half(l, tau, trunc, order)
    first = _window_first(m, l, u, tau, trunc, w)
    mu = m + l * np.arange(first, first + 2 * w + 1, dtype=float)
    tpm = th.TWO_PI_I * mu
    terms = np.exp(tpm * u + th.TWO_PI_I * (mu * mu * (tau / (2.0 * l))))
    if order:
        terms = terms * tpm ** order
    return complex(terms.sum())


def _full_series(m, l, us, tau, trunc, order):
    """The sum of all 2 trunc + 1 terms at the points us, as every table
    summed it before the window, and the sum of their moduli."""
    mu = m + l * np.arange(-trunc, trunc + 1, dtype=float)
    tpm = th.TWO_PI_I * mu
    terms = np.exp(np.multiply.outer(us, tpm)
                   + th.TWO_PI_I * (mu * mu * (tau / (2.0 * l))))
    if order:
        terms = terms * tpm ** order
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def _left_out(m, l, u, tau, trunc, order):
    """The sum of the moduli of the terms of [-trunc, trunc] that the
    table's window leaves out at the point u."""
    w = _window_half(l, tau, trunc, order)
    first = _window_first(m, l, u, tau, trunc, w)
    mu = m + l * np.array([k for k in range(-trunc, trunc + 1)
                           if not first <= k <= first + 2 * w], dtype=float)
    terms = np.exp(th.TWO_PI_I * (mu * u + mu * mu * (tau / (2.0 * l))))
    return float(np.sum(np.abs(terms * (2.0 * math.pi * mu) ** order)))


def _theta_ml_series(m, l, u, tau, trunc, order):
    """theta_ml's value, transcribed: the window where the terms it leaves
    out add up to at most 2^-60, else the sum of all 2 trunc + 1 terms."""
    if _left_out(m, l, u, tau, trunc, order) <= 2.0 ** -60:
        return _per_value_series(m, l, u, tau, trunc, order)
    return complex(_full_series(m, l, np.array([u]), tau, trunc, order)[0][0])


def test_tables_equal_the_per_value_series_bit_for_bit(rng):
    for n in (2, 3, 4):
        ctx = default_context(n)
        tau, trunc = complex(ctx.tau), ctx.trunc
        us = [rand_complex(rng) for _ in range(20)] + [0.0, 1.0, ctx.tau,
                                                       0.5 + 5j, 0.2 - 7j]
        for order in range(4):
            table = th.theta_table(us, ctx, order).tolist()
            assert table == [_per_value_series(0.5, 1, u + 0.5, tau, trunc,
                                               order) for u in us]
            assert table == [th.theta(u, ctx, order) for u in us]
            assert [_theta_ml_series(0.5, 1, u + 0.5, tau, trunc, order)
                    for u in us] \
                == [th.theta_ml(0.5, 1, u + 0.5, tau, trunc=trunc,
                                deriv_order=order).value for u in us]
        # the level-n series overflow to nan at |Im u| = 7, so the other
        # two families are compared on the moderate points
        rows, us = range(n), us[:-2]
        chars = th.theta_char_table(rows, us, ctx).tolist()
        assert chars == [[_per_value_series(0.5 - j / n, 1, u + 0.5, n * tau,
                                            trunc, 0) for u in us]
                         for j in rows]
        levels = th.theta_level_table(rows, us, ctx).tolist()
        assert levels == [[_per_value_series(n / 2.0 - j, n, u + 0.5, tau,
                                             trunc, 0) for u in us]
                          for j in rows]
        assert [[_theta_ml_series(n / 2.0 - j, n, u + 0.5, tau, trunc, 0)
                 for u in us] for j in rows] \
            == [[th.theta_ml(n / 2.0 - j, n, u + 0.5, tau, trunc=trunc).value
                 for u in us] for j in rows]
    # negative control: the transcription is sensitive to the order
    assert _per_value_series(0.5, 1, 0.3, TAU, 24, 1) \
        != _per_value_series(0.5, 1, 0.3, TAU, 24, 2)


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
    # Within 4 ulp of sum |terms| of the sum of all 2 trunc + 1 terms (the
    # measured worst is about 1.5), and bit for bit where Im tau is so small
    # that the window is the whole range.
    full_width = tau.imag < 0.01
    box = 0.05 if full_width else 7.0
    us = rng.uniform(-2, 2, 120) + 1j * rng.uniform(-box, box, 120)
    if not full_width:
        us = np.concatenate([us, [0.0, 7j, -7j, 5j, 2 - 5j, 0.5 - 0.5j]])
    eps = np.finfo(float).eps
    for n in (2, 3, 4):
        ctx = default_context(n, tau=tau)
        for name, table, orders, params in _families(ctx):
            for m, l, stau in params:
                for d in orders:
                    half = th._series((m,), l, stau, ctx.trunc, d).half
                    assert (half == ctx.trunc) == full_width
                    if tau == 0.1 + 0.8j:      # the default context
                        assert 3 * (2 * half + 1) <= 2 * ctx.trunc + 1
            for d in orders:
                # the points where every series of the family is finite
                keep = [u for u in us if all(
                    math.pi * l * (u + 0.5).imag ** 2 / stau.imag < 600
                    for _, l, stau in params)]
                got = table(np.array(keep), d)
                for row, (m, l, stau) in zip(got, params):
                    full, scale = _full_series(m, l, np.array(keep) + 0.5,
                                               stau, ctx.trunc, d)
                    assert np.all(np.isfinite(scale))
                    if full_width:
                        assert row.tolist() == full.tolist()
                    else:
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
            starts = th._window_starts(th._series((m,), l, stau, ctx.trunc, 0),
                                       points + 0.5)
            assert starts[0, 0] != starts[0, 1]


def test_window_starts_clamp_non_finite_points():
    # a NaN or infinite Im(arg) lands on an end of the range, with no
    # warning from the integer cast
    series = th._series((0.5, 0.25), 1, TAU, 24, 0)
    args = np.array([complex(0, math.nan), complex(0, math.inf),
                     complex(0, -math.inf), complex(math.nan, 0.3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        starts = th._window_starts(series, args)
    last = 2 * (24 - series.half)
    assert starts.tolist() == [[0, 0, last, starts[0, 3]],
                               [0, 0, last, starts[1, 3]]]
    assert 0 < starts[0, 3] < last


def test_a_narrower_window_breaks_the_bound(rng):
    # negative control: half-width 2 instead of 4 at the default context
    ctx = default_context(2)
    tau = complex(ctx.tau)
    args = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-3, 3, 50) + 0.5
    series = th._series((0.5,), 1, tau, ctx.trunc, 0)
    assert series.half == 4
    full, scale = _full_series(0.5, 1, args, tau, ctx.trunc, 0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(th._table(series, args)[0] - full) <= 4 * eps * scale)
    cut = th._table(series._replace(half=2, centre=series.centre + 2), args)[0]
    assert np.max(np.abs(cut - full) / scale) > 1e4 * eps


@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.05j])
def test_theta_ml_tail_covers_what_it_leaves_out(tau, rng):
    # theta_ml's tail is read against the absolute tol_series.  It sums the
    # table's window where the terms the window leaves out add up to at
    # most 2^-60, and adds them to the tail; elsewhere it sums every term.
    # At Im tau = 0.05 the window of l = 3 leaves out terms far above 1e-13
    # where |Im u| = 0.4, although they are below 2^-60 of the largest term.
    windowed = full_width = 0
    for _ in range(30):
        m, l = float(rng.uniform(-1, 1)), int(rng.integers(1, 4))
        u = complex(rng.uniform(-2, 2), rng.uniform(-0.4, 0.4))
        for d in range(3):
            got = th.theta_ml(m, l, u, tau, deriv_order=d)
            left_out = _left_out(m, l, u, tau, 24, d)
            if left_out <= 2.0 ** -60:
                windowed += 1
                assert left_out <= got.tail_bound * (1 + 1e-12)
            else:
                full_width += 1
            assert got.value == _theta_ml_series(m, l, u, tau, 24, d)
            if d == 0:
                assert got.tail_bound < 1e-13
    assert windowed > 0
    assert (full_width > 0) == (tau.imag < 0.1)


def test_vandermonde_product_matches_its_loop_form(monkeypatch, rng):
    reads = table_reads(monkeypatch)
    for n in (2, 3, 4):
        ctx = default_context(n)
        for _ in range(10):
            us = [rand_complex(rng) for _ in range(n)]
            del reads[:]
            got = th.vandermonde_product(us, ctx)
            assert reads == [1 + n * (n - 1) // 2]     # one table
            ieta = 1j * th.dedekind_eta(ctx.tau, ctx).value
            want = th.vandermonde_sign(n) * th.theta(sum(us), ctx) / ieta
            for j in range(n):
                for k in range(j + 1, n):
                    want *= th.theta(us[k] - us[j], ctx) / ieta
            assert got == want
            # negative control: one factor with its arguments swapped
            wrong = want / th.theta(us[1] - us[0], ctx) \
                * th.theta(us[0] - us[1], ctx)
            assert abs(wrong - got) > 1e-3 * abs(got)


# In-test transcriptions of the per-sample qFay, Fay and Vandermonde checks
# as they were before the batched ones: one theta table per sample and side,
# Python complex arithmetic on its values.

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
    return complex(np.linalg.det(mat)), rhs


def _loop_fay(d, u, lambdas, mus, ctx):
    """Both sides, or None where a guard of the check would raise."""
    tol = ctx.tol_identity
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
    return complex(np.linalg.det(mat)), rhs


def _loop_vandermonde(us, ctx):
    n = len(us)
    ieta = 1j * th.dedekind_eta(ctx.tau, ctx).value
    mat = th.theta_level_table(range(1, n + 1), us, ctx) / ieta
    values = th.theta_table([sum(us)] + [us[k] - us[j] for j in range(n)
                                         for k in range(j + 1, n)], ctx).tolist()
    rhs = th.vandermonde_sign(n) * values[0] / ieta
    for factor in values[1:]:
        rhs *= factor / ieta
    return complex(np.linalg.det(mat)), rhs


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
        assert th.verify_qfay(d, u, lams, mus, ctx) == th.worst_of_arrays(
            *th.residual_arrays(lhs, rhs))
        if d > 1:
            # negative control: sample 5 with two lambdas swapped on the
            # determinant side only
            bad = th.qfay_lhs(d, u, _swap_first_two(lams, 5), mus, ctx)
            rel, _ = th.residual_arrays(bad, rhs)
            assert rel[5] > 1e-3 and np.delete(rel, 5).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fay_batch_matches_its_per_sample_loop(n, rng):
    # a raised singularity floor makes some samples singular
    ctx = default_context(n).replace(tol_identity=0.1)
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
                assert (lhs[k], rhs[k]) == want
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
    assert th.vandermonde_product(us, ctx).tolist() == [w[1] for w in want]
    lhs = np.array([w[0] for w in want])
    assert th.verify_vandermonde(us, ctx) == th.worst_of_arrays(
        *th.residual_arrays(lhs, np.array([w[1] for w in want])))
    # negative control: sample 5 with two points swapped on the product side
    rel, _ = th.residual_arrays(lhs, th.vandermonde_product(
        _swap_first_two(us, 5), ctx))
    assert rel[5] > 1e-3 and np.delete(rel, 5).max() < 1e-9


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
    ctx = default_context(2).replace(tol_identity=0.05)
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
                found.append(th.residual_pair(*sides))
        want.append(th.worst_of(found))
    got = run_suite("fay", ctx, 3)
    assert skipped > 0
    for case, res in zip(got.cases, want):
        assert abs(case.rel - res.rel) <= 1e-15 * res.rel


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
