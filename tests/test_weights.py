"""Weight space: canonical points, shifts, generic sampling."""

import numpy as np
import pytest

from conftest import rand_complex, table_reads
from etlax.context import SamplingError, default_context
from etlax import weights as wt


# ------------------------------------------- transcription of the point type

def _make(values):
    """In-test transcription of the per-point WeightPoint.make: Python's
    complex arithmetic, mean subtracted from every coordinate."""
    vals = [complex(v) for v in values]
    mean = sum(vals) / len(vals)
    return tuple(v - mean for v in vals)


def _shifted(coords, key, scale):
    """In-test transcription of the per-point WeightPoint.shifted."""
    return _make(c + scale * k for c, k in zip(coords, key))


def _sample(seed, ctx, box=0.4, max_tries=1000):
    """In-test transcription of the per-point sample_generic, default guard
    read one theta value at a time."""
    import math
    from etlax.theta import theta
    rng = np.random.default_rng(seed)
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)
    for _ in range(max_tries):
        re = rng.uniform(-box, box, ctx.n)
        im = rng.uniform(-box, box, ctx.n)
        lam = _make(re + 1j * im)
        gap = min(abs(theta(lam[i] - lam[j], ctx)) for i in range(ctx.n)
                  for j in range(ctx.n) if i != j) / scale
        if gap > 10.0 * ctx.tol_identity:
            return lam
    raise AssertionError("no sample")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_is_the_per_point_make_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    raw = rng.uniform(-1, 1, (2000, n)) + 1j * rng.uniform(-1, 1, (2000, n))
    got = wt.canonical(raw)
    assert np.array_equal(got, np.array([_make(row) for row in raw]))
    # leading axes broadcast, and the one-point view agrees
    assert np.array_equal(wt.canonical(raw.reshape(20, 100, n)),
                          got.reshape(20, 100, n))
    assert wt.WeightPoint.make(raw[7]).coords == _make(raw[7])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shifted_is_the_per_point_shift_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    pts = wt.canonical(rng.uniform(-1, 1, (300, n))
                       + 1j * rng.uniform(-1, 1, (300, n)))
    keys = rng.integers(-3, 4, (6, n))
    for scale in (0.173 + 0.219j, 1.0, 0.1 + 0.8j, -1e-3):
        got = wt.shifted(pts, keys, scale)
        assert got.shape == (300, 6, n)
        want = [[_shifted(p, [int(k) for k in key], scale) for key in keys]
                for p in pts.tolist()]
        assert np.array_equal(got, np.array(want))
        # a shift of shifted points is the per-point chain
        twice = wt.shifted(got[:20], keys[:2], scale)
        assert np.array_equal(twice[:, 3, 1], np.array(
            [_shifted(_shifted(p, [int(k) for k in keys[3]], scale),
                      [int(k) for k in keys[1]], scale)
             for p in pts[:20].tolist()]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampling_draws_are_the_per_point_draws_bit_for_bit(n):
    ctx = default_context(n)
    for seed in range(12):
        assert np.array_equal(wt.sample_generic(seed, ctx),
                              np.array(_sample(seed, ctx)))
    many = wt.sample_many(5, 6, ctx)
    assert many.shape == (6, n)
    assert np.array_equal(many, np.array(
        [_sample(6 * 100003 + k, ctx) for k in range(6)]))


def test_projected_basis_sums_to_zero(ctx3):
    # epsbar_i is the canonical eps_i
    eps = wt.canonical(np.eye(3))
    assert np.max(np.abs(eps.sum(axis=0))) < 1e-15
    assert np.max(np.abs(eps.sum(axis=1))) < 1e-15


def test_projected_basis_pairings(ctx3):
    eps = wt.canonical(np.eye(3))
    assert np.max(np.abs(eps @ eps.T - (np.eye(3) - 1.0 / 3.0))) < 1e-15


def test_root_normalization(ctx3):
    eps = wt.canonical(np.eye(3))
    for i in range(3):
        for j in range(3):
            if i != j:
                root = wt.canonical(eps[i] - eps[j])
                assert abs(root @ root - 2.0) < 1e-15


def test_shift_full_key_is_identity(ctx3):
    lam = wt.sample_generic(3, ctx3)
    shifted = wt.shifted(lam, [(1, 1, 1)], ctx3.hbar)[0]
    assert np.max(np.abs(lam - shifted)) < 1e-15


def test_shift_additivity(ctx3):
    lam = wt.sample_generic(5, ctx3)
    one = wt.shifted(wt.shifted(lam, [(1, 0, 0)], ctx3.hbar)[0],
                     [(0, 1, 0)], ctx3.hbar)[0]
    two = wt.shifted(lam, [(1, 1, 0)], ctx3.hbar)[0]
    assert np.max(np.abs(one - two)) < 1e-15


def test_shift_changes_pairings_linearly(ctx3):
    lam = wt.sample_generic(7, ctx3)
    hb = ctx3.hbar
    ups = wt.shifted(lam, [wt.unit_key(3, k) for k in range(3)], hb)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                gain = hb * ((1 if i == k else 0) - (1 if j == k else 0))
                assert abs((ups[k, i] - ups[k, j]) - (lam[i] - lam[j])
                           - gain) < 1e-14


def test_canonicalization_idempotent(rng):
    vals = [rand_complex(rng) + 0.3 for _ in range(3)]
    once = wt.canonical(vals)
    twice = wt.canonical(once)
    assert np.max(np.abs(once - twice)) < 1e-16
    assert abs(once.sum()) < 1e-14


def test_shift_key_identification(ctx3):
    lam = wt.sample_generic(9, ctx3)
    a, b = wt.shifted(lam, [(2, 1, 0), (3, 2, 1)], ctx3.hbar)
    assert np.max(np.abs(a - b)) < 1e-14
    assert wt.canonical_key((3, 2, 1)) == (2, 1, 0)


def test_sampling_determinism(ctx3):
    a = wt.sample_generic(11, ctx3)
    b = wt.sample_generic(11, ctx3)
    assert np.array_equal(a, b)
    c = wt.sample_generic(12, ctx3)
    assert not np.array_equal(a, c)


def test_sampling_respects_default_guard(ctx3):
    from etlax.theta import theta
    for seed in range(5):
        lam = wt.sample_generic(seed, ctx3)
        gap = min(abs(theta(lam[i] - lam[j], ctx3))
                  for i in range(3) for j in range(3) if i != j)
        assert gap > 10 * ctx3.tol_identity * 1e-2   # guard is scale-normalized


def test_sampling_exhaustion_reports_guard(ctx3):
    impossible = lambda lam: 0.0
    with pytest.raises(SamplingError) as err:
        wt.sample_generic(1, ctx3, guards=[lambda lam: 1.0, impossible],
                          max_tries=50)
    assert "guard 1" in str(err.value)


def test_sampling_with_intertwiner_guard(ctx3):
    from etlax.belavin import intertwiners
    u = 0.19 + 0.07j

    def det_guard(lam):
        pair = intertwiners(u, lam, ctx3, cond_limit=1e300)
        return abs(np.linalg.det(pair.phi))

    lam = wt.sample_generic(2, ctx3, guards=[wt.theta_gap_guard(ctx3), det_guard])
    pair = intertwiners(u, lam, ctx3)
    assert pair.cond < 1e8
    assert np.max(np.abs(pair.phibar @ pair.phi - np.eye(3))) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_gap_guard_table_keeps_every_sample(n, monkeypatch):
    import math
    from etlax.theta import theta
    ctx = default_context(n)
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)

    def scalar_guard(lam):
        return min(abs(theta(lam[i] - lam[j], ctx))
                   for i in range(n) for j in range(n) if i != j) / scale

    fresh = ctx.replace()
    for seed in range(50):
        got = wt.sample_generic(seed, fresh)
        assert np.array_equal(got, wt.sample_generic(seed, ctx,
                                                     guards=[scalar_guard]))
        assert wt.theta_gap_guard(fresh)(got) == scalar_guard(got)
    # the guard reads one theta table per candidate, no value on its own
    reads = table_reads(monkeypatch)
    wt.theta_gap_guard(fresh)(got)
    assert reads == [n * (n - 1)]
