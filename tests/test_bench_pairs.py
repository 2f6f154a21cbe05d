"""tools/bench_pairs.py: verdicts on synthetic paired runs, and the fresh
processes (probe) of its rss and fresh_wall records."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from etlax import BLAS_THREAD_VARS

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


def test_peak_rss_runs_one_verify_command_in_a_fresh_process(
        pairs, tmp_path, monkeypatch):
    # with no BLAS variable inherited, the fresh process runs the one BLAS
    # thread that importing etlax sets; unpinned, it sees this process's CPUs
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    root = _TOOL.parent.parent
    got = pairs.probe(root, ["intertwiner", "--n", "2", "--seed", "3"],
                      tmp_path)
    assert got["exit"] == 0 and got["self_mb"] > 0 and got["children_mb"] >= 0
    assert got["wall_s"] > 0
    assert got["cpus"] == len(os.sched_getaffinity(0))
    assert got["threads"] == (1 if Path("/proc/self/status").is_file()
                              else None)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [(s["suite"], s["params"]["n"], s["params"]["seed"])
            for s in doc["suites"]] == [("intertwiner", 2, 3)]


def test_the_record_holds_both_rss_processes_per_tree(pairs, tmp_path,
                                                       monkeypatch):
    # one fresh `verify all` and one `verify intertwiner --n 4` per tree,
    # each at the first seed; the paired runs are stubbed
    calls = []
    monkeypatch.setattr(pairs, "export", lambda rev, dest: rev)
    monkeypatch.setattr(pairs, "bench_once", lambda tree, w, seed, s: {
        "correct": True, "attempted": 17, "failed": 0, "failed_lines": [],
        "metrics": {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 40.0}})

    def probe(tree, arguments, work, cpus=None):
        if cpus is None:
            calls.append((tree.name, arguments))
        return {"wall_s": 0.5, "self_mb": 30.0 + len(calls),
                "children_mb": 0.0, "exit": 0, "threads": len(calls),
                "cpus": 2}
    monkeypatch.setattr(pairs, "probe", probe)
    out = tmp_path / "out.json"
    assert pairs.main(["--parent", "A", "--change", "B", "--workload",
                       "identities", "--seed", "42", "--seed", "7",
                       "--out", str(out)]) == 0
    rss = json.loads(out.read_text())["rss"]
    assert sorted(calls) == sorted(
        (side, [*command, "--seed", "42"]) for side in pairs.SIDES
        for command in (["all"], ["intertwiner", "--n", "4"]))
    assert rss["what"] == {
        "all": "one fresh `verify all --seed 42`",
        "intertwiner-n4": "one fresh `verify intertwiner --n 4 --seed 42`"}
    for side in pairs.SIDES:
        assert set(rss[side]) == {"all", "intertwiner-n4"}
        # the keys of the records before one probe read both blocks
        assert all(set(r) == {"self_mb", "children_mb", "exit", "threads"}
                   and r["exit"] == 0 for r in rss[side].values())
    assert sorted(r["threads"] for side in pairs.SIDES
                  for r in rss[side].values()) == [1, 2, 3, 4]


def test_fresh_wall_pins_its_child(pairs, tmp_path):
    root = _TOOL.parent.parent
    pins = pairs.wall_pins()
    assert pins["one-cpu"] == {min(os.sched_getaffinity(0))}
    assert pins["all-cpus"] == os.sched_getaffinity(0)
    for pin, cpus in pins.items():
        got = pairs.probe(root, ["theta", "--n", "2", "--seed", "3"],
                          tmp_path, cpus)
        assert got["exit"] == 0 and got["wall_s"] > 0
        assert got["cpus"] == len(cpus), pin
    # this process keeps its own affinity
    assert os.sched_getaffinity(0) == pins["all-cpus"]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [(s["suite"], s["params"]["n"], s["params"]["seed"])
            for s in doc["suites"]] == [("theta", 2, 3)]


def test_the_record_holds_fresh_walls_per_seed_and_pin(pairs, tmp_path,
                                                       monkeypatch):
    # `verify all` at every seed, both trees and both pinnings, the parent
    # first in even pairs; the other runs are stubbed
    calls = []
    monkeypatch.setattr(pairs, "export", lambda rev, dest: rev)
    monkeypatch.setattr(pairs, "bench_once", lambda tree, w, seed, s: {
        "correct": True, "attempted": 17, "failed": 0, "failed_lines": [],
        "metrics": {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 40.0}})

    def probe(tree, arguments, work, cpus=None):
        if cpus is not None:
            calls.append((tree.name, arguments, len(cpus)))
        return {"wall_s": 0.4 if tree.name == "change" else 0.5,
                "self_mb": 30.0, "children_mb": 0.0, "exit": 0,
                "threads": 1, "cpus": len(cpus or os.sched_getaffinity(0))}
    monkeypatch.setattr(pairs, "probe", probe)
    out = tmp_path / "out.json"
    assert pairs.main(["--parent", "A", "--change", "B", "--workload",
                       "identities", "--seed", "42", "--seed", "7",
                       "--out", str(out)]) == 0
    record = json.loads(out.read_text())["fresh_wall"]
    ncpu = len(os.sched_getaffinity(0))
    assert record["cpus"] == {"one-cpu": [min(os.sched_getaffinity(0))],
                              "all-cpus": sorted(os.sched_getaffinity(0))}
    assert len(calls) == 2 * 10 * 2 * 2
    assert [name for name, _, _ in calls[:8]] == ["parent"] * 2 \
        + ["change"] * 4 + ["parent"] * 2
    for seed in (42, 7):
        block = record[f"seed {seed}"]
        assert set(block) == {"one-cpu", "all-cpus"}
        for pin, cpus in (("one-cpu", 1), ("all-cpus", ncpu)):
            assert [r["cpus"] for r in block[pin]["parent"]] == [cpus] * 10
            assert all(set(r) == {"wall_s", "exit", "cpus"}
                       for r in block[pin]["change"])
            summary = block[pin]["summary"]
            assert summary["change_better_pairs"] == 10
            assert summary["median_ratio"] == pytest.approx(0.8)
            assert summary["verdict"] == "gain"
    assert sorted({tuple(a) for _, a, _ in calls}) == [
        ("all", "--seed", "42"), ("all", "--seed", "7")]
