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

Sampling runs the streams of default_rng(seed) bit for bit as uint64 arrays,
all seeds at once: SeedSequence, then PCG64 jumps (O'Neill 2014; Brown 1994).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .context import ModularContext, SamplingError
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


def unit_key(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


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
# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, \
    0x58F38DED
_MIX_L, _MIX_R, _M32, _M64 = 0xCA01F9DD, 0x4973F715, 2 ** 32 - 1, 2 ** 64 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=None)
def _stream_constants(draws: int):
    """The (xor, multiplier) of each hashmix of SeedSequence: 4 pool words,
    12 mixing calls by source word (own column unused), 8 state words; and
    [A_k, C_k] = [M^k, sum_{i<k} M^i] mod 2^128, k = 2..draws + 1, for _mul:
    k steps of PCG64 map x to A_k x + C_k inc."""
    a = np.array([_INIT_A * _MULT_A ** i & _M32 for i in range(17)], np.uint32)
    b = np.array([_INIT_B * _MULT_B ** i & _M32 for i in range(9)], np.uint32)
    calls = np.array([[4 + 3 * src + dst - (dst > src) if dst != src else 0
                       for dst in range(4)] for src in range(4)])
    powers = [pow(_PCG_MULT, i, 2 ** 128) for i in range(draws + 2)]
    sums = [sum(powers[:k]) % 2 ** 128 for k in range(2, draws + 2)]
    jump = np.array([powers[2:], sums], dtype=object)[:, None]
    hi, lo = (jump >> 64).astype(np.uint64), (jump & _M64).astype(np.uint64)
    return ((a[:4], a[1:5]), (a[calls], a[calls + 1]), (b[:8].reshape(2, 4),
            b[1:].reshape(2, 4)), (hi, lo, lo & _M32, lo >> 32))


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mul(x, c):
    """x * c mod 2^128 in 32-bit limbs: (hi, lo) uint64 arrays x, jump c."""
    (hi, lo), (c_hi, c_lo, b0, b1) = x, c
    a0, a1 = lo & _M32, lo >> 32
    # the high word of lo * c_lo, no partial sum past 2^64 (Hacker's Delight)
    t = a1 * b0 + (a0 * b0 >> 32)
    u = (t & _M32) + a0 * b1
    return a1 * b1 + (t >> 32) + (u >> 32) + lo * c_hi + hi * c_lo, lo * c_lo


def _add(x, y):
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _draws(hi, lo, jump):
    """Generator.uniform(-_BOX, _BOX) of the next 2n states A_k q + C_k inc
    of the rows [q, inc] (XSL-RR output, then 2^-53 (x >> 11)), and those."""
    (a_hi, c_hi), (a_lo, c_lo) = _mul((hi[..., None], lo[..., None]), jump)
    x_hi, x_lo = _add((a_hi, a_lo), (c_hi, c_lo))
    x, rot = x_hi ^ x_lo, x_hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return -_BOX + (_BOX - -_BOX) * ((x >> 11) * 2.0 ** -53), x_hi, x_lo


def subseeds(seed: int, count: int) -> list:
    """The sub-seeds of the points of sample_many(seed, count)."""
    return [(seed + 1) * 100003 + k for k in range(count)]


def sample_points(seeds, ctx: ModularContext) -> np.ndarray:
    """Pseudo-random generic weight points P[len(seeds), n], row s drawn
    from the stream of default_rng(seeds[s]), away from the zeros of the
    theta(lambda_ij).  Each round draws the next candidate of every pending
    row and reads theta_gap_guard once over them; a row is kept when its
    value exceeds 10 * tol_identity, so row s is the point its own stream
    gives, whatever the batch holds."""
    for seed in (seed for seed in seeds if not 0 <= seed <= _M64):
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    guard = theta_gap_guard(ctx)
    n, floor = ctx.n, 10.0 * ctx.tol_identity
    first, mixing, state, jump = _stream_constants(2 * n)
    # SeedSequence pools: two uint32 words a seed, a missing word hashes as 0
    seeds = np.array(seeds, dtype=np.uint64)
    words = np.zeros((len(seeds), 4), dtype=np.uint32)
    words[:, 0], words[:, 1] = seeds & _M32, seeds >> 32
    pool = _hashmix(words, *first)
    for src in range(4):
        # mix(x, y) of word src into the three others; it stays as it is
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[:, src, None],
                                                  *(m[src] for m in mixing))
        pool = np.where(np.arange(4) == src, pool, mixed ^ (mixed >> 16))
    # PCG64 seeded by generate_state(4, uint64) = w0..w3: inc = 2 w2w3 + 1,
    # state M q + inc with q = inc + w0w1; (hi, lo) hold the rows [q, inc]
    w = (_hashmix(pool[:, None, :], *state).reshape(-1, 8)
         .astype("<u4", copy=False).view("<u8").T)
    inc = (w[2] << 1 | w[3] >> 63, w[3] << 1 | 1)
    hi, lo = (np.stack(pair) for pair in zip(_add(w[:2], inc), inc))
    out, todo = np.empty((len(seeds), n), dtype=complex), np.arange(len(seeds))
    for _ in range(_MAX_TRIES):
        if not todo.size:
            break
        draws, x_hi, x_lo = _draws(hi, lo, jump)
        lam = canonical(draws[:, :n] + 1j * draws[:, n:])   # re then im
        good = guard(lam) > floor
        out[todo[good]] = lam[good]
        # a rejected row's q moves to the state before its last draw
        todo, hi, lo = todo[~good], hi[:, ~good], lo[:, ~good]
        hi[0], lo[0] = x_hi[~good, -2], x_lo[~good, -2]
    if todo.size:
        raise SamplingError(f"could not sample a generic point in "
                            f"{_MAX_TRIES} tries at seed {seeds[todo[0]]}")
    return out


def sample_generic(seed: int, ctx: ModularContext) -> np.ndarray:
    """A pseudo-random generic weight point, as a coordinate row: the
    sample_points row of one seed (a one-point view the benchmark traces).
    Deterministic in the seed."""
    return sample_points([seed], ctx)[0]


def sample_many(seed: int, count: int, ctx: ModularContext) -> np.ndarray:
    """A deterministic batch P[count, n] of generic points, one sample_points
    call over the sub-seeds of seed."""
    return sample_points(subseeds(seed, count), ctx)
