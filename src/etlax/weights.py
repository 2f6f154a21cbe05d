"""The sl_n weight space: canonical points, shifts, generic sampling.

Points live in C^n with the standard bilinear pairing <eps_i, eps_j> = delta_ij
and are stored as canonical representatives with coordinate sum zero, i.e. on
the orthogonal complement of eps_1 + ... + eps_n.  The projected basis vector
epsbar_i = eps_i - (1/n) sum_k eps_k spans the directions actually used; since
sum_i epsbar_i = 0, shift keys are only meaningful modulo (1, ..., 1).

A batch of points is one complex array P[..., n] with rows of sum zero, so
<lambda, epsbar_i> is P[..., i].  Shift keys stay exact integers: shifting by
every key of K[k, n] is one broadcast, canonical(P[..., None, :] + scale * K).
WeightPoint is the one-point view of canonical (a traced benchmark name).

Sampling runs the streams of stream.Stream(seed) (numpy's default_rng(seed)
bit for bit) as uint64 arrays, all seeds at once, on stream.seeded and
stream.advance: SeedSequence, then PCG64 jumps (O'Neill 2014; Brown 1994).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import context
from .context import ModularContext, SamplingError
from .stream import advance, seeded, unit_doubles
from .theta import theta_scale, theta_table


def canonical(P) -> np.ndarray:
    """The representatives of the points P[..., n] with coordinate sum zero.

    The sum runs over the columns left to right and is divided part by part,
    as Python's complex arithmetic does, so each point is bit for bit the one
    the per-point arithmetic of WeightPoint.make gives.
    """
    P = np.asarray(P, dtype=complex)
    n = P.shape[-1]
    s = P[..., 0]
    for k in range(1, n):
        s = s + P[..., k]
    return P - (s.real / n + 1j * (s.imag / n))[..., None]


def shifted(P, keys, scale) -> np.ndarray:
    """[..., k, :] = lambda + scale * sum_i keys[k][i] epsbar_i at every point
    lambda of P[..., n] and every integer key, re-canonicalized."""
    return canonical(np.asarray(P, dtype=complex)[..., None, :]
                     + scale * np.asarray(keys, dtype=int))


@dataclass(frozen=True)
class WeightPoint:
    """One point as a tuple: the one-point view of canonical."""

    coords: tuple

    @staticmethod
    def make(values) -> "WeightPoint":
        return WeightPoint(tuple(canonical(list(values)).tolist()))


def canonical_key(key) -> tuple:
    """Shift key modulo (1,...,1): smallest entry pinned to 0."""
    m = min(key)
    return tuple(int(k) - m for k in key)


def subset_key(n: int, subset) -> tuple:
    return tuple(1 if k in subset else 0 for k in range(n))


def theta_gap_guard(ctx: ModularContext):
    """Smallest |theta(lambda_ij)| over i != j: keeps denominators alive.

    A batch guard: one theta_table call over the n(n-1)/2 differences
    i < j of every candidate row of P[s, n] gives the values [s]; theta is
    odd, so the pairs i > j add nothing.

    Normalized by theta_scale, the leading series magnitude 2|p|^{1/8}, so
    the guard is comparable across moduli (it approaches |sin pi lambda_ij|
    as p -> 0).
    """
    scale = theta_scale(ctx)
    first, second = np.triu_indices(ctx.n, 1)

    def guard(P) -> np.ndarray:
        values = theta_table(P[:, first] - P[:, second], ctx)
        # hypot is Python's abs(complex); np.abs may round differently
        return np.hypot(values.real, values.imag).min(axis=-1) / scale
    return guard


_BOX, _MAX_TRIES = 0.4, 1000    # candidates in [-_BOX, _BOX]; a row's tries


def subseeds(seed: int, count: int) -> list:
    """The sub-seeds of the points of sample_many(seed, count)."""
    return [(seed + 1) * 100003 + k for k in range(count)]


def sample_generic(seeds, ctx: ModularContext) -> np.ndarray:
    """Pseudo-random generic weight points P[len(seeds), n], row s drawn
    from the stream of Stream(seeds[s]), away from the zeros of the
    theta(lambda_ij); one seed gives its point [n].  Each round draws the
    next candidate of every pending row and reads theta_gap_guard once over
    them; a row is kept when its value exceeds 10 * TOL_IDENTITY, so row s
    is the point its own stream gives, whatever the batch holds."""
    one = np.ndim(seeds) == 0
    seeds = [seeds] if one else seeds
    rows = seeded(seeds)
    guard = theta_gap_guard(ctx)
    n, floor = ctx.n, 10.0 * context.TOL_IDENTITY
    out, todo = np.empty((len(seeds), n), dtype=complex), np.arange(len(seeds))
    for _ in range(_MAX_TRIES):
        if not todo.size:
            break
        draws = -_BOX + (_BOX - -_BOX) * unit_doubles(advance(rows, 2 * n))
        lam = canonical(draws[:, :n] + 1j * draws[:, n:])   # re then im
        good = guard(lam) > floor
        out[todo[good]] = lam[good]
        todo, rows = todo[~good], tuple(part[:, ~good] for part in rows)
    if todo.size:
        raise SamplingError(f"could not sample a generic point in "
                            f"{_MAX_TRIES} tries at seed {seeds[todo[0]]}")
    return out[0] if one else out


def sample_many(seed: int, count: int, ctx: ModularContext) -> np.ndarray:
    """A deterministic batch P[count, n] of generic points, one
    sample_generic call over the sub-seeds of seed."""
    return sample_generic(subseeds(seed, count), ctx)
