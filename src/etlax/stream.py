"""One seeded stream of draws: numpy's default_rng(entropy), bit for bit.

Stream(entropy) hashes its entropy as numpy's SeedSequence does and runs
PCG64, the XSL-RR output of a 128-bit LCG (O'Neill 2014), in uint64 limbs,
so no draw of the program reads numpy.random.  A stream makes its outputs
in blocks by jump-ahead: k steps map a state x to A_k x + C_k inc, with
[A_k, C_k] = [M^k, sum_{i<k} M^i] mod 2^128 (Brown 1994), so one block is
a handful of array operations over a fixed table.  uniform reads the
outputs as doubles and integers reads their 32-bit halves, the upper half
of an output kept for the next 32-bit read, as PCG64's next32 does.
weights.sample_generic runs the streams of many seeds at once on the two
functions Stream runs its one on, seeded and advance.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .context import read_only

# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, \
    0x58F38DED
_MIX_L, _MIX_R, _M32, _M64 = 0xCA01F9DD, 0x4973F715, 2 ** 32 - 1, 2 ** 64 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# outputs of one jump-ahead: a stream's first block, and the largest
_FIRST_BLOCK, _BLOCK = 256, 1024


@functools.lru_cache(maxsize=None)
def _hash_constants(words: int):
    """The (xor, multiplier) of each hashmix of SeedSequence over `words`
    entropy words (at least 4): 4 pool words; by source word, 3 mixing
    calls of each pool word (own column unused) and 4 of each entropy word
    past the pool; and 8 state words."""
    a = np.array([_INIT_A * pow(_MULT_A, i, 2 ** 32) & _M32
                  for i in range(4 * words + 1)], np.uint32)
    b = np.array([_INIT_B * _MULT_B ** i & _M32 for i in range(9)], np.uint32)
    calls = np.array([[4 + 3 * src + dst - (dst > src) if dst != src else 0
                       for dst in range(4)] for src in range(4)])
    calls = np.concatenate([calls, np.arange(16, 4 * words).reshape(-1, 4)])
    return ((a[:4], a[1:5]), tuple(zip(a[calls], a[calls + 1])),
            (b[:8].reshape(2, 4), b[1:].reshape(2, 4)))


@functools.lru_cache(maxsize=None)
def _jump_table():
    """[A_k, C_k] for k = 2.._BLOCK + 1 as the uint64 arrays (hi, lo,
    lo & M32, lo >> 32) [2, 1, _BLOCK], the operand of _mul."""
    a, c, table = _PCG_MULT, 1, []
    for _ in range(_BLOCK):
        a, c = a * _PCG_MULT % 2 ** 128, (c + a) % 2 ** 128
        table.append((a, c))
    jump = np.array(table, dtype=object).T[:, None]
    hi, lo = (jump >> 64).astype(np.uint64), (jump & _M64).astype(np.uint64)
    return hi, lo, lo & _M32, lo >> 32


@functools.lru_cache(maxsize=None)
def jumps(count: int):
    """The _mul operand of k = 2..count + 1 steps (count <= _BLOCK), each
    array contiguous: numpy multiplies a strided view about a third slower."""
    return read_only(*(part[..., :count].copy() for part in _jump_table()))


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


def _entropy_words(entropy) -> list:
    """SeedSequence's uint32 words of a non-negative integer or a list of
    them: each value little-endian, in at least one word."""
    words = []
    for value in entropy if isinstance(entropy, (list, tuple)) else [entropy]:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed {value} is negative")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    return words


def _seed_rows(words):
    """PCG64 seeded from SeedSequence of the entropy rows words[S, L]
    (uint32, L >= 4; a missing word hashes as 0, so a row is padded with
    0s to 4 words): the rows [q, inc] as (hi, lo) uint64 arrays [2, S],
    where inc = 2 w2w3 + 1 and q = inc + w0w1 for generate_state(4,
    uint64) = w0..w3, so that the first state is M q + inc."""
    first, mixing, state = _hash_constants(words.shape[1])
    pool = _hashmix(words[:, :4], *first)
    for src, consts in enumerate(mixing):
        # mix(x, y) of a pool word into the three others, where it stays as
        # it is; then of each entropy word past the pool into all four
        word = pool[:, src, None] if src < 4 else words[:, src, None]
        mixed = _MIX_L * pool - _MIX_R * _hashmix(word, *consts)
        mixed ^= mixed >> 16
        if src < 4:
            mixed[:, src] = pool[:, src]
        pool = mixed
    w = (_hashmix(pool[:, None, :], *state).reshape(-1, 8)
         .astype("<u4", copy=False).view("<u8").T)
    inc = (w[2] << 1 | w[3] >> 63, w[3] << 1 | 1)
    return tuple(np.stack(pair) for pair in zip(_add(w[:2], inc), inc))


def _outputs(hi, lo, jump):
    """The XSL-RR outputs [S, k] of the next states A_k q + C_k inc of the
    rows [q, inc] (hi, lo [2, S]), k as in jump, and the states."""
    (a_hi, c_hi), (a_lo, c_lo) = _mul((hi[..., None], lo[..., None]), jump)
    x_hi, x_lo = _add((a_hi, a_lo), (c_hi, c_lo))
    x, rot = x_hi ^ x_lo, x_hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63)), x_hi, x_lo


def seeded(seeds):
    """The rows [q, inc] (hi, lo [2, S]) of Stream(seeds[s]) for integer
    seeds in [0, 2^64), hashed at once: two uint32 words a seed, a missing
    word hashing as 0."""
    for seed in (seed for seed in seeds if not 0 <= seed <= _M64):
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    seeds = np.array(seeds, dtype=np.uint64)
    words = np.zeros((len(seeds), 4), dtype=np.uint32)
    words[:, 0], words[:, 1] = seeds & _M32, seeds >> 32
    return _seed_rows(words)


def advance(rows, count: int):
    """The next count >= 2 outputs [S, count] of the rows [q, inc] (hi, lo
    [2, S]); q moves, in place, to the state before the last of them, where
    the next block starts."""
    x, x_hi, x_lo = _outputs(*rows, jumps(count))
    hi, lo = rows
    hi[0], lo[0] = x_hi[:, -2], x_lo[:, -2]
    return x


def unit_doubles(x):
    """next_double of the outputs x: 2^-53 (x >> 11), in [0, 1)."""
    return (x >> 11) * 2.0 ** -53


class Stream:
    """The draws of numpy's default_rng(entropy), bit for bit, for a
    non-negative integer or a list of them: uniform(low, high, size) and
    integers(low, high) for 1 <= high - low <= 2^32.

    Outputs are made a block at a time, 256 at first and twice as many each
    time up to 1024 (a block larger than a call needs is read by the next
    calls), and read in order, so every call sees the outputs
    default_rng's would."""

    def __init__(self, entropy):
        words = _entropy_words(entropy)
        self._rows = _seed_rows(np.array([words + [0] * (4 - len(words))],
                                         dtype=np.uint32))
        self._raw, self._unit = np.empty(0, np.uint64), np.empty(0)
        self._next, self._block, self._half = 0, _FIRST_BLOCK, None

    def _take(self, count: int) -> int:
        """Where the next count outputs start in the buffers; makes blocks
        until they hold them."""
        while self._next + count > len(self._raw):
            x = advance(self._rows, self._block)
            self._raw = np.concatenate([self._raw[self._next:], x[0]])
            self._unit = np.concatenate([self._unit[self._next:],
                                         unit_doubles(x[0])])
            self._next, self._block = 0, min(2 * self._block, _BLOCK)
        start, self._next = self._next, self._next + count
        return start

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low) * next_double, a float, or an array of the
        shape size filled in C order."""
        low, span = float(low), float(high) - float(low)
        if size is None:
            start = self._take(1)
            return low + span * float(self._unit[start])
        count = size if isinstance(size, int) else math.prod(size)
        start = self._take(count)
        return low + span * self._unit[start:start + count].reshape(size)

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        start = self._take(1)
        x = int(self._raw[start])
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high): Lemire's multiply-shift of 32-bit
        draws with its rejection of the low words under 2^32 mod range,
        as numpy does for a range up to 2^32; a range of 1 draws nothing."""
        span = high - low
        if not 1 <= span <= 2 ** 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, "
                             f"got [{low}, {high})")
        if span == 1:
            return low
        threshold = 2 ** 32 % span
        while True:
            m = self._next32() * span
            if m & _M32 >= threshold:
                return low + (m >> 32)
