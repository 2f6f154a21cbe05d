"""Case-by-case parity of two etlax source trees.

A change that alters rounding (a new summation order, a windowed series)
must keep every check's pass/fail flag and move its residuals only by
rounding.  This tool records both, case by case, and compares two records:

    python3 tools/case_parity.py run --workload identities --seed 42 \\
        --seconds 45 --src src --out change.json
    python3 tools/case_parity.py run --sweep --src ../parent/src --out parent.json
    python3 tools/case_parity.py --compare parent.json change.json

`run --workload W --seed S --seconds T` evaluates the suite runs of the
benchmark workload W (bench/run.py's operation lists) at the program seeds
S + i * 1000003 of its T-second run; `run --sweep` evaluates every suite
at n = 2, 3 (what `verify all` runs) and at n = 4, the scaling probe, at
the seeds 0-7.  --src names the `src`
directory whose etlax is evaluated (default: this checkout's).  Each suite
run is evaluated on its own, as `verify <suite> --n N --seed S` would, so
a run that raises is recorded with its error and does not hide the others
(inside `verify all` the first raise ends the command with exit 2).

The record is JSON: {"src", "runs": [[suite, n, seed, outcome]], "cases":
[[suite, n, seed, case, ok, rel]]}, where outcome is "ok", "fail" (some
case not ok) or the error's type and message, and a NaN rel is null.
`--compare A B` prints the runs whose outcome differs, the cases whose ok
flag flips (with both rels), the cases present on one side only, and the
ratio max(rel_B, FLOOR) / max(rel_A, FLOOR): its range, how many cases are
bit-identical, and the largest growths; then, per (suite, case stem), the
number of rels that moved, the stem being the case name without its
trailing digits (`fay/fay-d 200` counts fay-d1 to fay-d4 of every n and
seed).  Below FLOOR = 1e-14 a rel is rounding noise, so a rel that moves
within the rounding floor (say from 1e-17 to 6e-16) reads as a ratio of
1, not as a growth of 64x.  It exits 1
if any ok flag or outcome differs or a run or case is present on one side
only (a dropped or renamed case), else 0.  If the reader of its output
goes away early (`--compare A B | head`), the rest is discarded quietly and
the exit status is the same.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(8)
SWEEP_RANKS = (2, 3, 4)
TOP_GROWTHS = 10        # largest rel growths --compare lists
FLOOR = 1e-14           # rounding floor of the rel ratios --compare prints


def _bench():
    """bench/run.py, for its workloads, seed stride and pass count."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_etlax(src):
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import etlax.cli
    if Path(etlax.cli.__file__).resolve().parent != src / "etlax":
        sys.exit(f"error: imported etlax from {etlax.cli.__file__}, not {src}")
    return etlax.cli


def suite_runs(args, cli):
    """The (suite, n, seed) runs to evaluate, in order."""
    if args.sweep:
        return [(s, n, seed) for seed in SWEEP_SEEDS for n in SWEEP_RANKS
                for s in cli.SUITE_ORDER]
    bench = _bench()
    seeds = [args.seed + i * bench.SEED_STRIDE
             for i in range(bench.pass_count(args.workload, args.seconds))]
    return [(s, n, seed) for seed in seeds
            for op in bench.WORKLOADS[args.workload]
            for s, n in bench.suite_runs(op, cli.SUITE_ORDER)]


def record(args):
    cli = _import_etlax(args.src)
    runs, cases = [], []
    for suite, n, seed in suite_runs(args, cli):
        try:
            rep = cli.run_suite(suite, cli.context_from_config(cli.DEFAULTS, n),
                                seed)
        except Exception as exc:  # recorded: a raise is an outcome
            runs.append([suite, n, seed, f"{type(exc).__name__}: {exc}"])
            continue
        runs.append([suite, n, seed, "ok" if rep.passed else "fail"])
        cases += [[suite, n, seed, c.name, bool(c.ok),
                   None if math.isnan(c.rel) else float(c.rel)]
                  for c in rep.cases]
    doc = {"src": str(Path(args.src).resolve()), "runs": runs, "cases": cases}
    Path(args.out).write_text(json.dumps(doc) + "\n")
    failed = sum(outcome != "ok" for *_, outcome in runs)
    print(f"{len(runs)} suite runs ({failed} not ok), {len(cases)} cases "
          f"-> {args.out}")


def _run_key(row):          # (suite, n, seed)
    return tuple(row[:3])


def _case_key(row):         # (suite, n, seed, case)
    return tuple(row[:4])


def _rel(value):
    return math.nan if value is None else value


def _say(line):
    """print line; once stdout's reader has gone, send stdout to os.devnull,
    so the comparison still runs to its exit status."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def compare(path_a, path_b) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differs = 0
    runs_a = {_run_key(r): r[3] for r in a["runs"]}
    runs_b = {_run_key(r): r[3] for r in b["runs"]}
    for key in runs_a.keys() | runs_b.keys():
        if runs_a.get(key) != runs_b.get(key):
            differs += 1
            _say(f"run {key}: {runs_a.get(key)} -> {runs_b.get(key)}")
    cases_a = {_case_key(c): c[4:] for c in a["cases"]}
    cases_b = {_case_key(c): c[4:] for c in b["cases"]}
    one_sided = sorted(cases_a.keys() ^ cases_b.keys(), key=str)
    for key in one_sided:
        _say(f"only in {'A' if key in cases_a else 'B'}: {key}")
    common = sorted(cases_a.keys() & cases_b.keys(), key=str)
    flips, same, ratios, stems = [], 0, [], Counter()
    for key in common:
        (ok_a, rel_a), (ok_b, rel_b) = cases_a[key], cases_b[key]
        rel_a, rel_b = _rel(rel_a), _rel(rel_b)
        if ok_a != ok_b:
            flips.append((key, ok_a, rel_a, ok_b, rel_b))
        if rel_a == rel_b or (math.isnan(rel_a) and math.isnan(rel_b)):
            same += 1
            continue
        stems[f"{key[0]}/{key[3].rstrip('0123456789')}"] += 1
        if not (math.isnan(rel_a) or math.isnan(rel_b)):
            ratios.append((max(rel_b, FLOOR) / max(rel_a, FLOOR), key,
                           rel_a, rel_b))
    for key, ok_a, rel_a, ok_b, rel_b in flips:
        _say(f"ok flip {key}: {ok_a} rel={rel_a:.3g} -> {ok_b} rel={rel_b:.3g}")
    _say(f"{len(common)} common cases: {len(flips)} ok flips, {same} "
         f"bit-identical rels, {len(ratios)} moved, "
         f"{len(common) - same - len(ratios)} moved to or from NaN")
    if ratios:
        ratios.sort()
        _say(f"max(rel_B, {FLOOR:g}) / max(rel_A, {FLOOR:g}) from "
             f"{ratios[0][0]:.3g} to {ratios[-1][0]:.3g}")
        for ratio, key, rel_a, rel_b in ratios[::-1][:TOP_GROWTHS]:
            _say(f"  x{ratio:.3g} {key}: {rel_a:.3g} -> {rel_b:.3g}")
    if stems:
        _say("moved rels per suite/case stem:")
        for stem, count in sorted(stems.items()):
            _say(f"  {stem} {count}")
    return 1 if flips or differs or one_sided else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records")
    parser.add_argument("action", nargs="?", choices=("run",))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--sweep", action="store_true",
                        help="every suite at n = 2, 3, 4 and the seeds 0-7")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.action != "run" or not args.out \
            or bool(args.sweep) == bool(args.workload):
        parser.error("use `run --out FILE` with one of --workload, --sweep, "
                     "or --compare A B")
    record(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
