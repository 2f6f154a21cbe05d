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
    ones = lambda P: np.ones(len(P))
    impossible = lambda P: np.zeros(len(P))
    with pytest.raises(SamplingError) as err:
        wt.sample_generic(1, ctx3, guards=[ones, impossible], max_tries=50)
    assert "guard 1" in str(err.value)
    # in a batch, the first row left names its worst guard at its last
    # try, as that seed's own sampling does
    sign = lambda P: np.where(P[:, 0].real > 0.0, 1.0, 0.0)
    for seeds in ([3, 4, 5], [6, 3]):
        with pytest.raises(SamplingError) as alone:
            wt.sample_generic(seeds[0], ctx3, guards=[sign, impossible],
                              max_tries=20)
        with pytest.raises(SamplingError) as err:
            wt.sample_points(seeds, ctx3, guards=[sign, impossible],
                             max_tries=20)
        assert str(err.value) == str(alone.value)


def test_sampling_with_intertwiner_guard(ctx3):
    from etlax.belavin import intertwiner_arrays, intertwiners
    u = 0.19 + 0.07j

    def det_guard(P):
        phi, _ = intertwiner_arrays([u] * len(P), P, ctx3)
        return np.abs(np.linalg.det(phi))

    guards = [wt.theta_gap_guard(ctx3), det_guard]
    lam = wt.sample_generic(2, ctx3, guards=guards)
    pair = intertwiners(u, lam, ctx3)
    assert pair.cond < 1e8
    assert np.max(np.abs(pair.phibar @ pair.phi - np.eye(3))) < 1e-10
    # the batch of several sub-seeds draws the same rows
    many = wt.sample_points([2, 7, 9], ctx3, guards=guards)
    assert np.array_equal(many[0], lam)
    assert np.array_equal(many[2], wt.sample_generic(9, ctx3, guards=guards))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_gap_guard_table_keeps_every_sample(n, monkeypatch):
    import math
    from etlax.theta import theta
    ctx = default_context(n)
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)

    def scalar_guard(P):
        return np.array([min(abs(theta(lam[i] - lam[j], ctx))
                             for i in range(n) for j in range(n) if i != j)
                         for lam in P]) / scale

    fresh = ctx.replace()
    got = wt.sample_many(3, 50, fresh)
    assert np.array_equal(got, wt.sample_many(3, 50, ctx,
                                              guards=[scalar_guard]))
    assert np.array_equal(wt.theta_gap_guard(fresh)(got), scalar_guard(got))
    # the guard reads one theta table per batch, no value on its own
    reads = table_reads(monkeypatch)
    wt.theta_gap_guard(fresh)(got)
    assert reads == [50 * n * (n - 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rejected_rows_draw_the_per_point_samples(n):
    # a raised singularity floor rejects the first candidates of many
    # sub-seeds; the batch still gives every row its own stream's point
    ctx = default_context(n, tol_identity=0.04)
    seeds = wt.subseeds(11, 30)
    rejected = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        first = wt.canonical(rng.uniform(-0.4, 0.4, n)
                             + 1j * rng.uniform(-0.4, 0.4, n))
        rejected += bool(wt.theta_gap_guard(ctx)(first[None])[0]
                         <= 10.0 * ctx.tol_identity)
    assert 0 < rejected < len(seeds)
    got = wt.sample_points(seeds, ctx)
    assert np.array_equal(got, np.array([_sample(s, ctx) for s in seeds]))
    assert np.array_equal(wt.sample_many(11, 30, ctx), got)


def test_one_guard_table_per_rejection_round(monkeypatch):
    ctx = default_context(3, tol_identity=0.04)
    seeds = wt.subseeds(5, 20)
    # rounds a row needs: the per-point draw count of its stream
    rounds = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for tries in range(1, 1000):
            lam = wt.canonical(rng.uniform(-0.4, 0.4, 3)
                               + 1j * rng.uniform(-0.4, 0.4, 3))
            if wt.theta_gap_guard(ctx)(lam[None])[0] > 10.0 * ctx.tol_identity:
                break
        rounds.append(tries)
    assert max(rounds) > 1
    reads = table_reads(monkeypatch)
    wt.sample_points(seeds, ctx)
    pending = [sum(r >= k for r in rounds) for k in range(1, max(rounds) + 1)]
    assert reads == [6 * p for p in pending]
