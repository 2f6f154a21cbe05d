"""tools/bench_pairs.py verdicts on synthetic paired runs."""

import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    return {side: [{"metrics": {"wall_s": v}, "failed": 0, "attempted": 17,
                    "correct": True} for v in values]
            for side, values in (("parent", parent), ("change", change))}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_bounds_are_read_from_the_benchmark(pairs):
    assert pairs.end_to_end_bounds() == {
        "wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


@pytest.mark.parametrize("change, want", [
    # wins every pair by far more than the parent's quartile distance
    ([v * 0.8 for v in PARENT], "gain"),
    # wins 9 of 10 pairs by more than the quartile distance
    ([v * 0.8 for v in PARENT[:9]] + [1.5], "gain"),
    # wins 8 of 10: no gain, and 1 % slower in the median is within 25 %
    ([v * 0.8 for v in PARENT[:8]] + [1.5, 1.5], "within bound"),
    # wins every pair, but by less than the parent's quartile distance
    ([v - 0.001 for v in PARENT], "within bound"),
    ([v * 1.01 for v in PARENT], "within bound"),
    ([v * 1.3 for v in PARENT], "worse beyond bound"),
    # a change spread wider than 25 % of the parent's median
    ([0.5, 1.5] * 5, "unresolved"),
])
def test_verdicts(pairs, change, want):
    summary = pairs.summarize(_runs(PARENT, change), {"wall_s": 0.25})
    row = summary["wall_s"]
    assert row["verdict"] == want and row["bound"] == 0.25
    assert row["change_better_pairs"] + row["change_worse_pairs"] <= 10


def test_wide_spread_reads_unresolved_unless_every_change_run_is_better(pairs):
    parent = [0.6, 1.4] * 5
    assert pairs.verdict(parent, [v * 1.05 for v in parent], 0.25) \
        == "unresolved"
    # every change run below every parent run, every pair won, but by a
    # median gap under the quartile distance: within its bound, not a gain
    assert pairs.verdict(parent, [0.55] * 10, 0.25) == "within bound"


def test_sigterm_removes_the_export_directory(tmp_path):
    root = _TOOL.parent.parent
    if not shutil.which("git") or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=root,
            capture_output=True).returncode:
        pytest.skip("needs git and a checkout with a commit")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, str(_TOOL), "--parent", "HEAD", "--change", "HEAD",
         "--workload", "identities", "--seed", "42", "--seconds", "1",
         "--out", str(tmp_path / "out.json")],
        cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("bench-pairs-*")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert not list(tmp_path.glob("bench-pairs-*"))
    assert not (tmp_path / "out.json").exists()
