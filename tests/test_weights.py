"""Weight space: projections, shifts, canonicalization, generic sampling."""

import numpy as np
import pytest

from conftest import rand_complex, table_reads
from etlax.context import SamplingError
from etlax import weights as wt


def test_projected_basis_sums_to_zero(ctx3):
    total = [0.0] * 3
    for i in range(3):
        eps = wt.project_eps(i, ctx3)
        for k in range(3):
            total[k] += eps.coords[k]
    assert max(abs(t) for t in total) < 1e-15


def test_projected_basis_pairings(ctx3):
    for i in range(3):
        for j in range(3):
            got = wt.inner(wt.project_eps(i, ctx3), wt.project_eps(j, ctx3))
            want = (1.0 if i == j else 0.0) - 1.0 / 3.0
            assert abs(got - want) < 1e-15


def test_root_normalization(ctx3):
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ei, ej = wt.project_eps(i, ctx3), wt.project_eps(j, ctx3)
            root = wt.WeightPoint.make(
                [a - b for a, b in zip(ei.coords, ej.coords)])
            assert abs(wt.inner(root, root) - 2.0) < 1e-15


def test_index_validation(ctx3):
    with pytest.raises(ValueError):
        wt.project_eps(3, ctx3)


def test_shift_full_key_is_identity(ctx3, rng):
    lam = wt.sample_generic(3, ctx3)
    shifted = wt.shift(lam, (1, 1, 1), ctx3.hbar, ctx3)
    assert max(abs(a - b) for a, b in zip(lam.coords, shifted.coords)) < 1e-15


def test_shift_additivity(ctx3):
    lam = wt.sample_generic(5, ctx3)
    one = wt.shift(wt.shift(lam, (1, 0, 0), ctx3.hbar, ctx3),
                   (0, 1, 0), ctx3.hbar, ctx3)
    two = wt.shift(lam, (1, 1, 0), ctx3.hbar, ctx3)
    assert max(abs(a - b) for a, b in zip(one.coords, two.coords)) < 1e-15


def test_shift_changes_pairings_linearly(ctx3):
    lam = wt.sample_generic(7, ctx3)
    hb = ctx3.hbar
    for k in range(3):
        shifted = lam.shifted_eps(k, hb)
        for i in range(3):
            for j in range(3):
                gain = hb * ((1 if i == k else 0) - (1 if j == k else 0))
                assert abs(shifted.diff(i, j) - lam.diff(i, j) - gain) < 1e-14


def test_canonicalization_idempotent(rng):
    vals = [rand_complex(rng) + 0.3 for _ in range(3)]
    once = wt.WeightPoint.make(vals)
    twice = wt.WeightPoint.make(once.coords)
    assert max(abs(a - b) for a, b in zip(once.coords, twice.coords)) < 1e-16
    assert abs(sum(once.coords)) < 1e-14


def test_shift_key_identification(ctx3):
    lam = wt.sample_generic(9, ctx3)
    a = wt.shift(lam, (2, 1, 0), ctx3.hbar, ctx3)
    b = wt.shift(lam, (3, 2, 1), ctx3.hbar, ctx3)
    assert max(abs(x - y) for x, y in zip(a.coords, b.coords)) < 1e-14
    assert wt.canonical_key((3, 2, 1)) == (2, 1, 0)


def test_sampling_determinism(ctx3):
    a = wt.sample_generic(11, ctx3)
    b = wt.sample_generic(11, ctx3)
    assert a == b
    c = wt.sample_generic(12, ctx3)
    assert a != c


def test_sampling_respects_default_guard(ctx3):
    from etlax.theta import theta
    for seed in range(5):
        lam = wt.sample_generic(seed, ctx3)
        gap = min(abs(theta(lam.diff(i, j), ctx3))
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
    from etlax.context import default_context
    from etlax.theta import theta
    ctx = default_context(n)
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)

    def scalar_guard(lam):
        return min(abs(theta(lam.diff(i, j), ctx))
                   for i in range(n) for j in range(n) if i != j) / scale

    fresh = ctx.replace()
    for seed in range(50):
        got = wt.sample_generic(seed, fresh)
        assert got == wt.sample_generic(seed, ctx, guards=[scalar_guard])
        assert wt.theta_gap_guard(fresh)(got) == scalar_guard(got)
    # the guard reads one theta table per candidate, no value on its own
    reads = table_reads(monkeypatch)
    wt.theta_gap_guard(fresh)(got)
    assert reads == [n * (n - 1)]
