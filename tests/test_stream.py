"""The in-house PCG64 stream against numpy's Generator, its oracle."""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etlax import stream as st

SRC = Path(__file__).resolve().parent.parent / "src"

# one and two uint32 words, both edges of a word, five words at 2^70, and
# lists [seed, idx, n] as run_suite draws them, up to five words
EDGE_ENTROPIES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70,
                  [42, 3, 2], [0, 0, 0], [2 ** 32, 17, 4], [2 ** 64 - 1, 0, 3],
                  [2 ** 70, 9, 2], [1, 2, 3, 4, 5]]
# sizes on both sides of any size switch; a shape fills in C order
SIZES = [None, 1, 2, 63, 64, 65, 900, (3, 2), (0, 2)]
# a range of 1 draws nothing; 2^31 + 1 rejects a low word under 2^31 - 1,
# about half of them, so the Lemire loop and the buffered half both run
SPANS = [1, 2, 3, 4, 2 ** 31, 2 ** 31 + 1, 2 ** 32]


def _entropy(rng, s):
    if s < len(EDGE_ENTROPIES):
        return EDGE_ENTROPIES[s]
    bits = lambda: rng.choice([1, 8, 31, 32, 33, 64, 70])
    if s % 2:
        return [rng.getrandbits(bits()) for _ in range(rng.randint(3, 5))]
    return rng.getrandbits(bits())


def _same_draws(ours, theirs, rng, calls):
    """Interleaved uniform and integers calls, the same on both; whether
    every result agrees (a float for a scalar uniform, shapes too)."""
    for _ in range(calls):
        if rng.random() < 0.6:
            size = rng.choice(SIZES)
            low, high = rng.choice([(-0.4, 0.4), (-1, 1), (0.0, 1.0)])
            a = ours.uniform(low, high, size)
            b = theirs.uniform(low, high, size)
            if size is None:
                if type(a) is not float or a != b:
                    return False
            elif a.shape != b.shape or not np.array_equal(a, b):
                return False
        else:
            span, low = rng.choice(SPANS), rng.choice([0, 1, -7])
            if ours.integers(low, low + span) != int(theirs.integers(
                    low, low + span)):
                return False
    return True


def test_stream_is_numpys_generator_bit_for_bit():
    rng = random.Random(37)
    for s in range(1000):
        entropy = _entropy(rng, s)
        assert _same_draws(st.Stream(entropy), np.random.default_rng(entropy),
                           rng, 12), entropy


def test_stream_reads_the_upper_half_of_an_output_next():
    # PCG64's next32: the low half of a fresh output, then its high half,
    # kept across uniform calls, which read whole outputs
    ours, theirs = st.Stream(5), np.random.default_rng(5)
    assert ours.integers(0, 2 ** 32) == int(theirs.integers(0, 2 ** 32))
    assert ours.uniform() == theirs.uniform()
    assert ours.integers(0, 2 ** 32) == int(theirs.integers(0, 2 ** 32))
    assert ours.uniform() == theirs.uniform()


def test_a_flipped_multiplier_bit_reads_apart(monkeypatch):
    # control: the oracle can fail; one bit of PCG64's multiplier off
    # leaves the seeding alone and moves every draw
    def clear():
        st._jump_table.cache_clear()
        st.jumps.cache_clear()
    monkeypatch.setattr(st, "_PCG_MULT", st._PCG_MULT ^ 1 << 70)
    clear()
    try:
        flipped = st.Stream(42).uniform(size=8)
    finally:
        monkeypatch.undo()
        clear()
    want = np.random.default_rng(42).uniform(size=8)
    assert np.array_equal(st.Stream(42).uniform(size=8), want)
    assert not np.any(flipped == want)


@pytest.mark.parametrize("entropy", [-5, [42, -5, 2], [-1]])
def test_a_negative_seed_is_refused_by_name(entropy):
    with pytest.raises(ValueError, match="seed -[15] is negative"):
        st.Stream(entropy)


@pytest.mark.parametrize("span", [0, -1, 2 ** 32 + 1])
def test_integers_refuses_a_range_it_cannot_draw(span):
    with pytest.raises(ValueError, match="high - low"):
        st.Stream(1).integers(3, 3 + span)


def test_verify_loads_no_numpy_random(tmp_path):
    # a fresh process runs what users run; no draw of the program may pull
    # in numpy.random, and with it secrets, hashlib and OpenSSL
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from etlax import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in (\n"
        "        ['all', '--seed', '42'], ['intertwiner', '--n', '4'],\n"
        "        ['theta-space', '--n', '3'])]\n"
        "loaded = [m for m in ('numpy.random', 'secrets', 'hashlib')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps([codes, loaded]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout)
    assert codes == [0, 0, 0] and loaded == []
    for path in (SRC / "etlax").glob("*.py"):
        assert "np.random" not in path.read_text(encoding="utf-8"), path
