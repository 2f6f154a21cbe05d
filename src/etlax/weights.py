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

    One theta_table call over the n(n-1) differences of a candidate point
    (a coordinate row).

    Normalized by the leading series magnitude 2|p|^{1/8} so the guard is
    comparable across moduli (it approaches |sin pi lambda_ij| as p -> 0).
    """
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)
    off = ~np.eye(ctx.n, dtype=bool)

    def guard(lam) -> float:
        values = theta_table(np.subtract.outer(lam, lam)[off], ctx)
        return min(abs(value) for value in values.tolist()) / scale
    return guard


def sample_generic(seed: int, ctx: ModularContext, guards=None,
                   box: float = 0.4, max_tries: int = 1000) -> np.ndarray:
    """A pseudo-random generic weight point, as a coordinate row, avoiding
    the given singular loci.

    Coordinates are drawn uniformly (real and imaginary parts) from
    [-box, box] and projected; every guard value must exceed
    10 * tol_identity.  Deterministic in the seed.
    """
    if guards is None:
        guards = [theta_gap_guard(ctx)]
    rng = np.random.default_rng(seed)
    floor = 10.0 * ctx.tol_identity
    worst = None
    for _ in range(max_tries):
        re = rng.uniform(-box, box, ctx.n)
        im = rng.uniform(-box, box, ctx.n)
        lam = canonical(re + 1j * im)
        values = [g(lam) for g in guards]
        if all(v > floor for v in values):
            return lam
        worst = min(range(len(values)), key=lambda k: values[k])
    raise SamplingError(
        f"could not sample a generic point in {max_tries} tries; "
        f"guard {worst} kept failing")


def sample_many(seed: int, count: int, ctx: ModularContext, guards=None,
                box: float = 0.4) -> np.ndarray:
    """A deterministic batch P[count, n] of generic points (distinct
    sub-seeds)."""
    return np.array([sample_generic((seed + 1) * 100003 + k, ctx, guards, box)
                     for k in range(count)])
