"""The sl_n weight space: projected basis vectors, shifts, generic sampling.

Points live in C^n with the standard bilinear pairing <eps_i, eps_j> = delta_ij
and are stored as canonical representatives with coordinate sum zero, i.e. on
the orthogonal complement of eps_1 + ... + eps_n.  The projected basis vector
epsbar_i = eps_i - (1/n) sum_k eps_k spans the directions actually used; since
sum_i epsbar_i = 0, shift keys are only meaningful modulo (1, ..., 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import ModularContext, SamplingError
from .theta import theta_table


@dataclass(frozen=True)
class WeightPoint:
    """A point of the weight space, canonicalized to coordinate sum zero."""

    coords: tuple

    @staticmethod
    def make(values) -> "WeightPoint":
        vals = [complex(v) for v in values]
        mean = sum(vals) / len(vals)
        return WeightPoint(tuple(v - mean for v in vals))

    @property
    def n(self) -> int:
        return len(self.coords)

    def pair_eps(self, i: int) -> complex:
        """<lambda, epsbar_i> for the canonical representative."""
        return self.coords[i]

    def diff(self, i: int, j: int) -> complex:
        """lambda_ij = <lambda, epsbar_i - epsbar_j>."""
        return self.coords[i] - self.coords[j]

    def shifted(self, key, scale: complex) -> "WeightPoint":
        """lambda + scale * sum_i key_i epsbar_i, re-canonicalized."""
        return WeightPoint.make(c + scale * k for c, k in zip(self.coords, key))

    def shifted_eps(self, i: int, scale: complex) -> "WeightPoint":
        """lambda + scale * epsbar_i."""
        return self.shifted(tuple(1 if k == i else 0 for k in range(self.n)), scale)


def canonical_key(key) -> tuple:
    """Shift key modulo (1,...,1): smallest entry pinned to 0."""
    m = min(key)
    return tuple(int(k) - m for k in key)


def unit_key(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def subset_key(n: int, subset) -> tuple:
    return tuple(1 if k in subset else 0 for k in range(n))


def project_eps(i: int, ctx: ModularContext) -> WeightPoint:
    """The orthogonal projection epsbar_i of eps_i."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"index {i} out of range for n={ctx.n}")
    return WeightPoint.make(tuple(1.0 if k == i else 0.0 for k in range(ctx.n)))


def inner(a: WeightPoint, b: WeightPoint) -> complex:
    """Complex-bilinear pairing sum_i a_i b_i."""
    return sum(x * y for x, y in zip(a.coords, b.coords))


def shift(lam: WeightPoint, key, scale: complex, ctx: ModularContext) -> WeightPoint:
    """lambda + scale * sum_i key_i epsbar_i."""
    return lam.shifted(canonical_key(key), scale)


def theta_gap_guard(ctx: ModularContext):
    """Smallest |theta(lambda_ij)| over i != j: keeps denominators alive.

    One theta_table call over the n(n-1) differences of a candidate point.

    Normalized by the leading series magnitude 2|p|^{1/8} so the guard is
    comparable across moduli (it approaches |sin pi lambda_ij| as p -> 0).
    """
    import math
    scale = 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)
    def guard(lam: WeightPoint) -> float:
        values = theta_table([lam.diff(i, j) for i in range(ctx.n)
                              for j in range(ctx.n) if i != j], ctx)
        return min(abs(value) for value in values.tolist()) / scale
    return guard


def sample_generic(seed: int, ctx: ModularContext, guards=None,
                   box: float = 0.4, max_tries: int = 1000) -> WeightPoint:
    """A pseudo-random generic weight point avoiding the given singular loci.

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
        lam = WeightPoint.make(re + 1j * im)
        values = [g(lam) for g in guards]
        if all(v > floor for v in values):
            return lam
        worst = min(range(len(values)), key=lambda k: values[k])
    raise SamplingError(
        f"could not sample a generic point in {max_tries} tries; "
        f"guard {worst} kept failing")


def sample_many(seed: int, count: int, ctx: ModularContext, guards=None,
                box: float = 0.4) -> list:
    """A deterministic list of generic points (distinct sub-seeds)."""
    return [sample_generic((seed + 1) * 100003 + k, ctx, guards, box)
            for k in range(count)]
