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
when the change is better, for a lower-is-better metric) and the parent's
quartile distance ("summary").  "rss" holds, for each tree, the peak
resident set of one fresh `verify all --seed S` process (RUSAGE_SELF) and
of the largest process it forked and reaped (RUSAGE_CHILDREN), in MB.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")   # all lower-is-better
SIDES = ("parent", "change")

# One fresh `verify all`: its report goes to a scratch file, and the last
# line of standard output is {"self_mb", "children_mb", "exit"}.
RSS_CODE = """
import contextlib, io, json, resource, sys
sys.path.insert(0, "src")
from etlax import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["all", "--seed", sys.argv[1], "--json", sys.argv[2]])
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024.0
print(json.dumps({"self_mb": mb(resource.RUSAGE_SELF),
                  "children_mb": mb(resource.RUSAGE_CHILDREN),
                  "exit": code}))
"""


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


def peak_rss(tree, seed, work):
    out = subprocess.run(
        [sys.executable, "-c", RSS_CODE, str(seed), str(work / "rss.json")],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs):
    """The summary of one workload and seed from its paired runs."""
    out = {}
    for name in METRICS:
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": p, "change": c,
            "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
            "change_worse_pairs": sum(b > a for a, b in zip(parent, change)),
            "median_ratio": c["median"] / p["median"],
            "median_gap": p["median"] - c["median"],
            "parent_quartile_distance": p["q3"] - p["q1"],
        }
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


def main(argv=None):
    args = parse_args(argv)
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
                summary[key] = summarize(runs[key])
        rss = {side: peak_rss(trees[side], args.seed[0], work)
               for side in SIDES}
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
        "rss": {"what": f"one fresh `verify all --seed {args.seed[0]}`",
                **rss},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
