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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import ModularContext, SamplingError
from .theta import theta_table


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


def unit_key(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def subset_key(n: int, subset) -> tuple:
    return tuple(1 if k in subset else 0 for k in range(n))


def theta_gap_guard(ctx: ModularContext):
    """Smallest |theta(lambda_ij)| over i != j: keeps denominators alive.

    A batch guard: one theta_table call over the n(n-1) differences of
    every candidate row of P[s, n] gives the values [s].

    Normalized by the leading series magnitude 2|p|^{1/8} so the guard is
    comparable across moduli (it approaches |sin pi lambda_ij| as p -> 0).
    """
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)
    off = ~np.eye(ctx.n, dtype=bool)

    def guard(P) -> np.ndarray:
        values = theta_table((P[:, :, None] - P[:, None, :])[:, off], ctx)
        # hypot is Python's abs(complex); np.abs may round differently
        return np.hypot(values.real, values.imag).min(axis=-1) / scale
    return guard


def subseeds(seed: int, count: int) -> list:
    """The sub-seeds of the points of sample_many(seed, count)."""
    return [(seed + 1) * 100003 + k for k in range(count)]


def sample_points(seeds, ctx: ModularContext, guards=None, box: float = 0.4,
                  max_tries: int = 1000) -> np.ndarray:
    """Pseudo-random generic weight points P[len(seeds), n], row s drawn
    from its own stream default_rng(seeds[s]), avoiding the given singular
    loci.

    Each round draws the next candidate of every pending row (real parts,
    then imaginary parts, uniform in [-box, box]), canonicalizes them
    together and reads every guard once over them; a row is kept when all
    its guard values exceed 10 * tol_identity, and only the rejected rows
    draw again.  A guard is a batch callable g(P[s, n]) -> values[s].  So
    row s is the point a stream of its own gives, whatever else the batch
    holds.
    """
    if guards is None:
        guards = [theta_gap_guard(ctx)]
    n = ctx.n
    rngs = [np.random.default_rng(seed) for seed in seeds]
    floor = 10.0 * ctx.tol_identity
    out = np.empty((len(rngs), n), dtype=complex)
    todo = np.arange(len(rngs))
    for _ in range(max_tries):
        if not todo.size:
            break
        # one call of 2n draws is the two calls of n, re then im
        draws = np.array([rngs[s].uniform(-box, box, 2 * n) for s in todo])
        lam = canonical(draws[:, :n] + 1j * draws[:, n:])
        values = np.array([g(lam) for g in guards])
        good = (values > floor).all(axis=0)
        out[todo[good]] = lam[good]
        todo = todo[~good]
    if todo.size:
        # the first row left, at its last candidate
        worst = int(np.argmin(values[:, np.argmin(good)]))
        raise SamplingError(
            f"could not sample a generic point in {max_tries} tries; "
            f"guard {worst} kept failing")
    return out


def sample_generic(seed: int, ctx: ModularContext, guards=None,
                   box: float = 0.4, max_tries: int = 1000) -> np.ndarray:
    """A pseudo-random generic weight point, as a coordinate row: the
    sample_points row of one seed (a one-point view the benchmark traces).
    Deterministic in the seed."""
    return sample_points([seed], ctx, guards, box, max_tries)[0]


def sample_many(seed: int, count: int, ctx: ModularContext, guards=None,
                box: float = 0.4) -> np.ndarray:
    """A deterministic batch P[count, n] of generic points, one sample_points
    call over the sub-seeds of seed."""
    return sample_points(subseeds(seed, count), ctx, guards, box)
