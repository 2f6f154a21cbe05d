"""Case-by-case parity of two etlax source trees.

A change that alters rounding (a new summation order, a windowed series)
must keep every check's pass/fail flag and move its residuals only by
rounding.  This tool records both, case by case, and compares two records:

    python3 tools/case_parity.py run --workload identities --seed 42 \\
        --seconds 45 --src src --out change.json
    python3 tools/case_parity.py run --sweep --src ../parent/src --out parent.json
    python3 tools/case_parity.py run --grid --out grid.json
    python3 tools/case_parity.py --compare parent.json change.json

`run --workload W --seed S --seconds T` evaluates the suite runs of the
benchmark workload W (bench/run.py's operation lists) at the program seeds
S + i * 1000003 of its T-second run; `run --sweep` evaluates every suite
at n = 2, 3 (what `verify all` runs) and at n = 4, the scaling probe, at
the seeds 0-7, all at the default tau and hbar; `run --grid` evaluates
every suite at n = 2, 3 and the seeds 0-7 at each modulus of GRID_TAUS and
then at each hbar of GRID_HBARS, the other parameter at its default.  The
grid stands for the context domain a green `verify all` speaks for.  At
the commit that added it, every raise was the condition-number guard of a
solved phibar; since phibar is in closed form, its 2304 runs read no
raise.  With every intertwiner at its exact integer shift count, 277 runs
fail:

    tau=0.1+0.3j     2 failing runs (intertwiner)
    tau=0.3+0.5j     1 failing run (intertwiner)
    tau=0.1+0.08j    46 failing runs (intertwiner 14, qfay 11, fay 10, ...)
    tau=0.1+0.05j    42 failing runs (intertwiner 15, qfay 8, ...)
    tau=0+0.05j      185 failing runs (10 suites in all 16 of their runs)
    hbar=0.45+0.4j   1 failing run (intertwiner)
    hbar=0.6+0.1j    none
    hbar=0.01+0.01j  none

--src names the `src`
directory whose etlax is evaluated (default: this checkout's).  Each suite
run is evaluated on its own, as `verify <suite> --n N --seed S` would, so
a run that raises is recorded with its error and does not hide the others
(inside `verify all` the first raise ends the command with exit 2).

The record is JSON: {"src", "runs": [[suite, n, seed, outcome]], "cases":
[[suite, n, seed, case, ok, rel]]}, where outcome is "ok", "fail" (some
case not ok) or the error's type and message, and a NaN rel is null; a
grid row ends with one more field, its context ("tau=0.1+0.3j"), which
is part of its key.  `--compare A B` prints the runs whose outcome
differs, then, per context and suite, the raises and the failing runs of
A and of B wherever either has some, the cases whose ok flag flips (with
both rels) and, per context and suite, how many flip green->red and how
many red->green, the cases present on one side only, and the ratio max(rel_B, FLOOR) / max(rel_A, FLOOR): its range, how many cases are
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
GRID_RANKS = (2, 3)
GRID_TAUS = (0.1 + 0.3j, 0.3 + 0.5j, 0.1 + 0.08j, 0.1 + 0.05j, 0.05j)
GRID_HBARS = (0.45 + 0.4j, 0.6 + 0.1j, 0.01 + 0.01j)
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


def _label(name, z):
    return f"{name}={z.real:g}{z.imag:+g}j"


# grid context -> its config overrides, in grid order
GRID = {**{_label("tau", t): {"tau_re": t.real, "tau_im": t.imag}
           for t in GRID_TAUS},
        **{_label("hbar", h): {"hbar_re": h.real, "hbar_im": h.imag}
           for h in GRID_HBARS}}


def suite_runs(args, cli):
    """The (suite, n, seed) runs to evaluate, in order; a grid run carries
    its context as a fourth entry."""
    if args.sweep:
        return [(s, n, seed) for seed in SWEEP_SEEDS for n in SWEEP_RANKS
                for s in cli.SUITE_ORDER]
    if args.grid:
        return [(s, n, seed, where) for where in GRID for seed in SWEEP_SEEDS
                for n in GRID_RANKS for s in cli.SUITE_ORDER]
    bench = _bench()
    seeds = [args.seed + i * bench.SEED_STRIDE
             for i in range(bench.pass_count(args.workload, args.seconds))]
    return [(s, n, seed) for seed in seeds
            for op in bench.WORKLOADS[args.workload]
            for s, n in bench.suite_runs(op, cli.SUITE_ORDER)]


def record(args):
    cli = _import_etlax(args.src)
    runs, cases = [], []
    for suite, n, seed, *where in suite_runs(args, cli):
        cfg = dict(cli.DEFAULTS, **(GRID[where[0]] if where else {}))
        try:
            rep = cli.run_suite(suite, cli.context_from_config(cfg, n), seed)
        except Exception as exc:  # recorded: a raise is an outcome
            runs.append([suite, n, seed, f"{type(exc).__name__}: {exc}",
                         *where])
            continue
        runs.append([suite, n, seed, "ok" if rep.passed else "fail", *where])
        cases += [[suite, n, seed, c.name, bool(c.ok),
                   None if math.isnan(c.rel) else float(c.rel), *where]
                  for c in rep.cases]
    doc = {"src": str(Path(args.src).resolve()), "runs": runs, "cases": cases}
    Path(args.out).write_text(json.dumps(doc) + "\n")
    failed = sum(row[3] != "ok" for row in runs)
    print(f"{len(runs)} suite runs ({failed} not ok), {len(cases)} cases "
          f"-> {args.out}")


def _run_key(row):          # (suite, n, seed), then a grid row's context
    return tuple(row[:3]) + tuple(row[4:])


def _case_key(row):         # (suite, n, seed, case), then the context
    return tuple(row[:4]) + tuple(row[6:])


def _tallies(doc) -> Counter:
    """(context, suite, "raises" or "fails") -> its number of runs."""
    out = Counter()
    for row in doc["runs"]:
        if row[3] != "ok":
            where = row[4] if len(row) > 4 else "default"
            out[(where, row[0],
                 "fails" if row[3] == "fail" else "raises")] += 1
    return out


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
    tally_a, tally_b = _tallies(a), _tallies(b)
    groups = sorted({key[:2] for key in tally_a | tally_b})
    if groups:
        _say("raises and failing runs per context and suite, A -> B:")
    for where, suite in groups:
        _say(f"  {where} {suite}: " + ", ".join(
            f"{kind} {tally_a[(where, suite, kind)]} -> "
            f"{tally_b[(where, suite, kind)]}"
            for kind in ("raises", "fails")))
    cases_a = {_case_key(c): c[4:6] for c in a["cases"]}
    cases_b = {_case_key(c): c[4:6] for c in b["cases"]}
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
        stems["/".join([*key[4:], key[0], key[3].rstrip("0123456789")])] += 1
        if not (math.isnan(rel_a) or math.isnan(rel_b)):
            ratios.append((max(rel_b, FLOOR) / max(rel_a, FLOOR), key,
                           rel_a, rel_b))
    directions = Counter()
    for key, ok_a, rel_a, ok_b, rel_b in flips:
        _say(f"ok flip {key}: {ok_a} rel={rel_a:.3g} -> {ok_b} rel={rel_b:.3g}")
        directions[(key[4] if len(key) > 4 else "default", key[0],
                    "green->red" if ok_a else "red->green")] += 1
    if flips:
        _say("ok flips per context and suite:")
    for where, suite in sorted({key[:2] for key in directions}):
        _say(f"  {where} {suite}: " + ", ".join(
            f"{kind} {directions[(where, suite, kind)]}"
            for kind in ("green->red", "red->green")))
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
    parser.add_argument("--grid", action="store_true",
                        help="every suite at n = 2, 3 and the seeds 0-7 at "
                             "each tau of GRID_TAUS and hbar of GRID_HBARS")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.action != "run" or not args.out \
            or args.sweep + args.grid + bool(args.workload) != 1:
        parser.error("use `run --out FILE` with one of --workload, --sweep, "
                     "--grid, or --compare A B")
    record(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
