"""Alternating parent/change pairs of the etlax benchmark.

A speed-up is claimed only from pairs of runs of the same benchmark on the
same machine, alternating which side runs first.  This tool exports two git
revisions into fresh directories and runs `bench/run.py` of each tree on
its own files, pair by pair:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload verify-all --workload identities --seed 42 --seed 2026 \\
        --pairs 10 --seconds 45 --out BENCH_21.json

Pair i runs the parent first when i is even and the change first when it
is odd.  The benchmark runs in the environment this tool was started in,
untouched (BLAS thread counts included), with the tree as its working
directory.  For every workload and seed the output holds each run's last
JSON line and its `failed` lines ("runs") and, per end-to-end metric, both
sides' median and linear-interpolation quartiles, the pairs each side won,
the median ratio change/parent, the median gap parent - change (positive
when the change is better, for a lower-is-better metric), the parent's
quartile distance and a verdict ("summary").  The verdict is "gain" when
the change wins at least nine tenths of the pairs and the median gap
exceeds the parent's quartile distance; otherwise "worse beyond bound"
when the change's median exceeds the parent's by more than the metric's
relative bound in BENCHMARK.json, "unresolved" when either side's
quartile distance exceeds that bound times the parent's median and not
every run of the change reads better than every run of the parent, and
"within bound" else.  "rss" holds, for each tree and each command of
RSS_COMMANDS, the peak resident set of one fresh `verify <command> --seed
S` process (RUSAGE_SELF) and of the largest process it forked and reaped
(RUSAGE_CHILDREN), in MB, S the first --seed: `verify all`, and `verify
intertwiner --n 4`, the largest intertwiner run of the identities workload,
whose fusion intertwining at k = 4 holds Phi' only in row blocks and no n^k
x n^k array.  Each also records the OS threads of that process right after
it imported etlax ("threads"), and its resident heap and mapped files at
exit ("anon_mb" and "file_mb", RssAnon and RssFile), so that a memory gain
shows whether it saved allocations or library code; a record made before
these two keys lacks them, and every other key is unchanged.  "fresh_wall"
holds, for every seed, the wall time of one fresh `verify all --seed S`
process of each tree, start to exit, pinned with os.sched_setaffinity to
the first CPU of this tool's own affinity ("one-cpu") and to all of them
("all-cpus"): --pairs alternating pairs per seed and pinning, each with the
exit code and the CPUs the process saw, and a summary as for the
benchmark's wall_s.  Both blocks read one kind of fresh process (probe),
the "rss" ones unpinned.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# One fresh `verify <arguments...> --json <report>`, the report path first
# on its command line: the report goes to a scratch file, and the last line
# of standard output is {"self_mb", "children_mb", "anon_mb", "file_mb",
# "exit", "threads", "cpus"}: threads the OS threads of the process right
# after it imported the CLI, anon_mb and file_mb its resident heap and
# mapped files at exit (RssAnon and RssFile), each null where
# /proc/self/status is missing, and cpus the size of the affinity mask it
# ran under.
PROBE_CODE = """
import contextlib, io, json, os, resource, sys
sys.path.insert(0, "src")
from etlax import cli
def status(key):
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh
                        if line.startswith(key + ":"))
    except OSError:
        return None
threads = status("Threads")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:] + ["--json", sys.argv[1]])
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024.0
kb = {key: status(key) for key in ("RssAnon", "RssFile")}
print(json.dumps({"self_mb": mb(resource.RUSAGE_SELF),
                  "children_mb": mb(resource.RUSAGE_CHILDREN),
                  **{name: None if kb[key] is None else kb[key] / 1024.0
                     for name, key in (("anon_mb", "RssAnon"),
                                       ("file_mb", "RssFile"))},
                  "exit": code, "threads": threads,
                  "cpus": len(os.sched_getaffinity(0))}))
"""
# name -> the verify arguments of one peak-RSS process, before --seed
RSS_COMMANDS = {"all": ["all"],
                "intertwiner-n4": ["intertwiner", "--n", "4"]}
# the keys of a probe that the "rss" and the "fresh_wall" blocks record
RSS_KEYS = ("self_mb", "children_mb", "anon_mb", "file_mb", "exit",
            "threads")
WALL_KEYS = ("wall_s", "exit", "cpus")


def export(rev, dest):
    """The committed files of `rev`, unpacked into `dest`; returns the full
    commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def bench_once(tree, workload, seed, seconds):
    """One `bench/run.py` run of `tree`: its last JSON line, plus its
    `failed` lines."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    doc = json.loads(lines[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
            "failed_lines": [line for line in lines
                             if line.lstrip().startswith("failed")]}


def probe(tree, arguments, work, cpus=None):
    """{"wall_s", "self_mb", "children_mb", "exit", "threads", "cpus"} of
    one fresh `verify <arguments...>` process run in `tree`, its report
    written in `work`, pinned to the CPU set `cpus` before it starts when
    one is given: wall_s runs from the spawn to the exit."""
    pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", PROBE_CODE, str(work / "report.json"),
         *arguments],
        cwd=tree, capture_output=True, text=True, check=True,
        preexec_fn=pin).stdout
    wall = time.perf_counter() - start
    return {"wall_s": wall, **json.loads(out.strip().splitlines()[-1])}


def keep(run, keys):
    """The entries of a probe's record under keys."""
    return {key: run[key] for key in keys}


def wall_pins():
    """{pinning: CPU set}: the first CPU of this process's affinity, and
    all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    return {"one-cpu": {cpus[0]}, "all-cpus": set(cpus)}


def fresh_walls(trees, seed, pairs, work, bound):
    """{pinning: {"parent", "change", "summary"}} of the fresh `verify all
    --seed seed` processes: pair i runs the parent first when i is even,
    each pinning in turn."""
    pins = wall_pins()
    runs = {pin: {side: [] for side in SIDES} for pin in pins}
    for i in range(pairs):
        for side in SIDES[::-1] if i % 2 else SIDES:
            for pin, cpus in pins.items():
                runs[pin][side].append(keep(probe(
                    trees[side], ["all", "--seed", str(seed)], work, cpus),
                    WALL_KEYS))
    out = {}
    for pin, sides in runs.items():
        parent, change = ([r["wall_s"] for r in sides[side]]
                          for side in SIDES)
        out[pin] = {**sides, "summary": compare(parent, change, bound)}
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def end_to_end_bounds():
    """{metric: relative bound} of the end-to-end metrics BENCHMARK.json
    declares; every one is lower-is-better."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise ValueError("every end-to-end metric must be lower-is-better")
    return {m["name"]: m["bound"] for m in metrics}


def verdict(parent, change, bound):
    """The verdict on one metric from its paired runs (module docstring)."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum(b < a for a, b in zip(parent, change))
    if wins >= 0.9 * len(parent) and p["median"] - c["median"] > p["q3"] - p["q1"]:
        return "gain"
    if c["median"] > (1.0 + bound) * p["median"]:
        return "worse beyond bound"
    spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
    if spread > bound * p["median"] and not max(change) < min(parent):
        return "unresolved"
    return "within bound"


def compare(parent, change, bound):
    """The summary of one metric from its paired values."""
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p, "change": c,
        "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
        "change_worse_pairs": sum(b > a for a, b in zip(parent, change)),
        "median_ratio": c["median"] / p["median"],
        "median_gap": p["median"] - c["median"],
        "parent_quartile_distance": p["q3"] - p["q1"],
        "bound": bound,
        "verdict": verdict(parent, change, bound),
    }


def summarize(runs, bounds):
    """The summary of one workload and seed from its paired runs, per
    metric of bounds ({metric: relative bound})."""
    out = {name: compare([r["metrics"][name] for r in runs["parent"]],
                         [r["metrics"][name] for r in runs["change"]], bound)
           for name, bound in bounds.items()}
    out["failed"] = {side: sorted({r["failed"] for r in runs[side]})
                     for side in SIDES}
    out["attempted"] = sorted({r["attempted"] for side in SIDES
                               for r in runs[side]})
    out["correct"] = all(r["correct"] for side in SIDES for r in runs[side])
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    return args


def _terminate(signum, frame):
    """SIGTERM as SystemExit, so that the export directory is removed."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    bounds = end_to_end_bounds()
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        work = Path(tmp)
        trees, commits = {}, {}
        for side in SIDES:
            trees[side] = work / side
            commits[side] = export(getattr(args, side), trees[side])
        runs, summary = {}, {}
        for workload in args.workload:
            for seed in args.seed:
                key = f"{workload} seed {seed}"
                runs[key] = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    for side in SIDES[::-1] if i % 2 else SIDES:
                        runs[key][side].append(bench_once(
                            trees[side], workload, seed, args.seconds))
                    print(key, i, {side: runs[key][side][-1]["metrics"]
                                   for side in SIDES}, flush=True)
                summary[key] = summarize(runs[key], bounds)
        rss = {side: {name: keep(probe(trees[side], [*command, "--seed",
                                                     str(args.seed[0])], work),
                                 RSS_KEYS)
                      for name, command in RSS_COMMANDS.items()}
               for side in SIDES}
        walls = {f"seed {seed}": fresh_walls(trees, seed, args.pairs, work,
                                             bounds["wall_s"])
                 for seed in args.seed}
    doc = {
        "what": __doc__.strip().split("\n\n")[-1].replace("\n", " "),
        "command": "python3 bench/run.py --workload {%s} --seed {%s} "
                   "--seconds %g --trace 0" % (
                       ",".join(args.workload),
                       ",".join(map(str, args.seed)), args.seconds),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "cpu": platform.machine()},
        "summary": summary,
        "rss": {"what": {name: "one fresh `verify %s --seed %d`" % (
                    " ".join(command), args.seed[0])
                    for name, command in RSS_COMMANDS.items()},
                **rss},
        "fresh_wall": {"what": "one fresh `verify all --seed S`, spawn to "
                               "exit, in seconds",
                       "cpus": {pin: sorted(cpus)
                                for pin, cpus in wall_pins().items()},
                       **walls},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
