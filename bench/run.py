"""etlax benchmark: wall time, set-up time and memory of `verify` runs.

Run from the repository root (needs only the standard library and numpy):

    python3 bench/run.py --workload verify-all --seed 42 --seconds 45 --trace 0

Every operation goes through the user's entry point ``etlax.cli.main`` in
this one serial process, and every JSON report it writes is checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics
measured by ``bench/tracer.py``.  A run does a fixed number of passes,
derived from ``--seconds`` and the workload's reference pass time, so the
same arguments always give the same work, the same operations and the same
failures.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  bench/README.md
explains the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

IDENTITY_SUITES = ("theta", "ybe", "face-ybe", "intertwiner", "qfay", "fay",
                   "vandermonde")
# workload -> operations, each (suite or "all", --n or None).
# rank4-operators is not in BENCHMARK.json: its pass time depends on the
# seed (bench/README.md).
WORKLOADS = {
    "verify-all": [("all", None)],
    "rank4-operators": [(s, 4) for s in ("commute", "genfunc", "trace-closed")],
    "identities": [(s, n) for n in (2, 3, 4) for s in IDENTITY_SUITES],
}
ALL_RANKS = (2, 3)          # what `verify all` runs
SEED_STRIDE = 1_000_003     # pass i runs the program with seed + i * stride
# Seconds one untraced pass takes on the reference machine (2 vCPUs,
# bench/README.md).  A run does round(--seconds / this) passes, at least
# one, whatever the speed of the code or the host.
REFERENCE_PASS_S = {"verify-all": 12.5, "rank4-operators": 17.0,
                    "identities": 2.6}
SETUP_REPEATS = 11       # at least; spread between the passes
SETUP_TIMEOUT_S = 60
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# Fresh interpreter: import the CLI (and with it every etlax module), build
# the first context and make the first theta evaluation.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import etlax.cli
from etlax.context import default_context
from etlax.theta import theta
theta(0.1 + 0.05j, default_context(2))
print(time.perf_counter() - t0)
"""


# ------------------------------------------------------------ the program

def import_program():
    """Import etlax from this checkout's src/, never from anywhere else."""
    if not (SRC / "etlax" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'etlax'} not found; run from an etlax checkout")
    sys.path.insert(0, str(SRC))
    import etlax.cli
    if Path(etlax.cli.__file__).resolve().parent != SRC / "etlax":
        sys.exit(f"error: imported etlax from {etlax.cli.__file__}, "
                 f"not from {SRC}")
    return etlax.cli


def suite_runs(op, suite_order):
    """The (suite, n) runs one operation performs, in report order."""
    suite, n = op
    if suite == "all":
        return [(name, k) for k in ALL_RANKS for name in suite_order]
    return [(suite, n)]


def call_main(cli, op, seed, report_path):
    """One `verify` invocation; returns (seconds, exit code or exception
    type name, report text or None)."""
    suite, n = op
    argv = [suite, "--seed", str(seed), "--json", str(report_path)]
    if n is not None:
        argv += ["--n", str(n)]
    if report_path.exists():
        report_path.unlink()
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a stop
        outcome = type(exc).__name__
    seconds = perf_counter() - start
    text = report_path.read_text() if report_path.exists() else None
    return seconds, outcome, text


# ------------------------------------------------------------ checks

def _cases(doc):
    return [(s["suite"], s["params"]["n"],
             [(c["name"], c["rel"], c["abs"], c["ok"]) for c in s["cases"]])
            for s in doc["suites"]]


class Checker:
    """Counts operations and failures and checks every report.

    An operation is one suite run at one rank; it fails if `verify` raises
    or exits non-zero.  A report is wrong if it does not parse, lists other
    suite runs than asked for, has a pass flag or exit code that disagrees
    with its cases (exit 0 exactly when every case is ok; a negative control
    is ok when its residual stays above its floor), or if the case names of
    a suite run differ between passes.
    """

    def __init__(self, suite_order):
        self.suite_order = suite_order
        self.attempted = 0
        self.failures = Counter()     # (suite, n, reason) -> count
        self.errors = []
        self._case_names = {}

    @property
    def failed(self):
        return sum(self.failures.values())

    def error(self, message):
        if message not in self.errors:
            self.errors.append(message)

    def record(self, op, outcome, text):
        """Account for one operation; return its parsed report or None."""
        runs = suite_runs(op, self.suite_order)
        self.attempted += len(runs)
        if isinstance(outcome, str) or outcome not in (0, 1):
            reason = outcome if isinstance(outcome, str) else f"exit {outcome}"
            for suite, n in runs:
                self.failures[(suite, n, reason)] += 1
            return None
        try:
            doc = json.loads(text)
            got = [(s["suite"], s["params"]["n"]) for s in doc["suites"]]
        except (TypeError, ValueError, KeyError) as exc:
            self.error(f"{op}: report missing or unreadable ({exc!r})")
            for suite, n in runs:
                self.failures[(suite, n, "bad report")] += 1
            return None
        if got != runs:
            self.error(f"{op}: report lists {got}, expected {runs}")
        every_ok = True
        for s in doc["suites"]:
            key = (s["suite"], s["params"]["n"])
            oks = [c["ok"] for c in s["cases"]]
            if s["pass"] != all(oks):
                self.error(f"{key}: pass flag disagrees with its cases")
            names = [c["name"] for c in s["cases"]]
            if self._case_names.setdefault(key, names) != names:
                self.error(f"{key}: case names differ between passes")
            if not all(oks):
                self.failures[(key[0], key[1], "exit 1")] += 1
            every_ok = every_ok and all(oks)
        if (outcome == 0) != every_ok:
            self.error(f"{op}: exit code {outcome} but every case ok: "
                       f"{every_ok}")
        if doc["summary"]["pass"] != every_ok:
            self.error(f"{op}: summary pass flag disagrees with its cases")
        return doc


def run_pass(cli, ops, seed, checker, report_path):
    """All operations of a workload once; returns (seconds, reports)."""
    seconds, docs = 0.0, []
    for op in ops:
        took, outcome, text = call_main(cli, op, seed, report_path)
        seconds += took
        docs.append(checker.record(op, outcome, text))
    return seconds, docs


# ------------------------------------------------------------ measurements

def measure_setup(repeats=SETUP_REPEATS):
    """Seconds, in each of `repeats` fresh interpreters, to import etlax and
    make the first theta evaluation."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, seeds):
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(),
        "seed": seed,
        "program_seeds": seeds,
    }


def pass_count(workload, seconds):
    """Untraced passes in a run of about `seconds` on the reference machine.

    The count depends on the arguments alone, so the attempted and failed
    operations of a run do too, and a faster program is measured on the
    same inputs as a slower one."""
    return max(1, round(seconds / REFERENCE_PASS_S[workload]))


# ------------------------------------------------------------ metrics

def layer_metric_names(suite_order):
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    names = []
    for prefix, _, _, kind in tracer.TARGETS:
        if prefix == "suites.run_suite":
            continue
        names.append((f"{prefix}.calls", "count"))
        if kind == tracer.SPAN:
            names.append((f"{prefix}.self_s", "s"))
    names += [("context.cached.hit_ratio", "ratio"),
              ("context.cache_keys", "count"),
              ("context.cache_dup_ratio", "ratio")]
    seen = []
    for ops in WORKLOADS.values():
        for op in ops:
            for run in suite_runs(op, suite_order):
                if run not in seen:
                    seen.append(run)
    names += [(f"suites.{s}.n{n}.wall_s", "s") for s, n in seen]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def layer_values(summary, untraced_s, traced_s, suite_order):
    """Per-layer metric values of one traced pass."""
    values = {}
    for name, _ in layer_metric_names(suite_order):
        if name.endswith(".calls"):
            values[name] = float(summary["calls"][name[:-len(".calls")]])
        elif name.startswith("suites."):
            values[name] = float(summary["total_s"][name[:-len(".wall_s")]])
        elif name.endswith(".self_s"):
            values[name] = float(summary["self_s"][name[:-len(".self_s")]])
    values["context.cached.hit_ratio"] = summary["cache_hit_ratio"]
    values["context.cache_keys"] = float(summary["cache_keys"])
    values["context.cache_dup_ratio"] = summary["cache_dup_ratio"]
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values


# ------------------------------------------------------------ runs

def check_untraced():
    if tracer.installed():
        raise RuntimeError("a tracing wrapper is installed in an untraced pass")


def run_untraced(cli, ops, args, checker, report_path, lines):
    passes = pass_count(args.workload, args.seconds)
    setups_per_pass = -(-SETUP_REPEATS // passes)
    seeds, walls, setup_all = [], [], []
    for i in range(passes):
        check_untraced()
        seeds.append(args.seed + i * SEED_STRIDE)
        walls.append(run_pass(cli, ops, seeds[-1], checker, report_path)[0])
        # set-up samples taken between passes see the host as the passes do
        setup_all += measure_setup(setups_per_pass)
    setup_s = statistics.median(setup_all)
    rss = peak_rss_mb()
    wall = statistics.median(walls)
    lines.append(f"wall_s       {wall:.4f} s   median of {len(walls)} passes "
                 f"({', '.join(f'{w:.3f}' for w in walls)})")
    lines.append(f"setup_s      {setup_s:.4f} s   median of {len(setup_all)} "
                 f"fresh interpreters")
    lines.append(f"peak_rss_mb  {rss:.2f} MB")
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return metrics, seeds


def run_traced(cli, ops, args, checker, report_path, lines):
    order = cli.SUITE_ORDER
    seeds, samples = [], []

    def one_pair(i):
        seed = args.seed + i * SEED_STRIDE
        seeds.append(seed)
        check_untraced()
        plain_s, plain = run_pass(cli, ops, seed, checker, report_path)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced_s, traced = run_pass(cli, ops, seed, checker, report_path)
        finally:
            trace.uninstall()
        for a, b in zip(plain, traced):
            if a is not None and b is not None and _cases(a) != _cases(b):
                checker.error("traced report differs from the untraced one "
                              f"at seed {seed}")
        samples.append(layer_values(trace.summary(), plain_s, traced_s, order))

    # an untraced and a traced pass take about as long as two untraced ones
    for i in range(max(1, pass_count(args.workload, args.seconds) // 2)):
        one_pair(i)
    metrics = {}
    for name, unit in layer_metric_names(order):
        value = statistics.median(s[name] for s in samples)
        metrics[name] = {"value": value, "unit": unit}
        if value:
            lines.append(f"{name:<44} {value:.10g} {unit}")
    lines.append(f"(median of {len(samples)} traced passes; metrics that "
                 "read 0 are not printed above)")
    return metrics, seeds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    # the same set-up a user pays once per process, outside the timing
    from etlax.context import default_context
    from etlax.theta import theta
    theta(0.1 + 0.05j, default_context(2))

    ops = WORKLOADS[args.workload]
    checker = Checker(cli.SUITE_ORDER)
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}"]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        report_path = Path(work) / "report.json"
        run = run_traced if args.trace else run_untraced
        metrics, seeds = run(cli, ops, args, checker, report_path, lines)

    ratio = checker.failed / checker.attempted
    lines.append(f"failed_ratio {ratio:.4f}  ({checker.failed}/"
                 f"{checker.attempted} suite runs)")
    for (suite, n, reason), count in sorted(checker.failures.items()):
        lines.append(f"  failed: {suite} n={n} {reason} x{count}")
    for message in checker.errors:
        lines.append(f"  WRONG REPORT: {message}")
    lines.append("env " + json.dumps(environment(args.seed, seeds)))
    print("\n".join(lines))
    print(json.dumps({"correct": not checker.errors,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
