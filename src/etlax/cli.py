"""Batch verification driver.

    verify <suite> [--n N] [--seed S] [--config FILE] [--json OUT]
    verify all ...

Configuration is a flat key-value text file (keys: n, tau_re, tau_im,
hbar_re, hbar_im, tol_identity, seed); every key can be overridden by a
command-line flag of the same name; `verify all` runs n = 2 and 3 and
refuses --n (exit 2), so an n key is a default for single-suite runs.  tol_identity is a singularity floor
(see ModularContext); each suite passes or fails against its own tolerance
in suites.SUITES.  Exit codes: 0 all checks passed, 1 verification
failure, 2 configuration error, an evaluation that could not be carried
out (a singular parameter, a value out of floating-point range or an
exhausted sampling budget) or a report that could not be written.
`verify all` spreads its runs over one forked process per CPU (run_all);
its reports and exit codes are those of one serial pass.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import signal
import sys

from .context import (DEFAULT_HBAR, DEFAULT_TAU, ContextError, ModularContext,
                      SamplingError)
from .report import report_json, report_text
from .suites import SUITE_ORDER, run_suite

CONFIG_KEYS = ("n", "tau_re", "tau_im", "hbar_re", "hbar_im", "tol_identity",
               "seed")

DEFAULTS = {
    "n": 2,
    "tau_re": DEFAULT_TAU.real, "tau_im": DEFAULT_TAU.imag,
    "hbar_re": DEFAULT_HBAR.real, "hbar_im": DEFAULT_HBAR.imag,
    "tol_identity": 1e-8,
    "seed": 42,
}

_INT_KEYS = {"n", "seed"}


def parse_config_file(path: str) -> dict:
    """Flat key-value text: 'key = value' or 'key: value', # comments."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, val = line.split(sep, 1)
                    break
            else:
                raise ContextError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ContextError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = int(val) if key in _INT_KEYS else float(val)
            except ValueError as exc:
                raise ContextError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def resolve_config(args) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def context_from_config(cfg: dict, n: int = None) -> ModularContext:
    return ModularContext(
        n=n if n is not None else int(cfg["n"]),
        tau=complex(cfg["tau_re"], cfg["tau_im"]),
        hbar=complex(cfg["hbar_re"], cfg["hbar_im"]),
        tol_identity=float(cfg["tol_identity"]),
    )


def worker_count(runs: int) -> int:
    """Processes that share `runs` suite runs: one per CPU in the process's
    affinity mask, and one where fork or the mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), runs)


def _run_share(cfg: dict, seed: int, runs, share):
    """[(index, report)] of the runs in `share`, in order; the first run
    that raises ends the share as (index, exception)."""
    out = []
    for i in share:
        name, n = runs[i]
        try:
            out.append((i, run_suite(name, context_from_config(cfg, n=n),
                                     seed)))
        except Exception as exc:
            out.append((i, exc))
            break
    return out


def _worker(pipe, cfg: dict, seed: int, runs, share):
    """A forked child: pickle its share's results to the write end of
    `pipe`, then leave with os._exit, so nothing of the parent (its
    handlers, its stdio buffers) runs twice.  Never returns."""
    status = 1
    try:
        os.close(pipe[0])
        with os.fdopen(pipe[1], "wb") as fh:
            pickle.dump(_run_share(cfg, seed, runs, share), fh)
        status = 0
    finally:
        os._exit(status)


def run_all(cfg: dict, seed: int):
    """Every suite for n in {2, 3}; reports in fixed order.

    The runs are independent (each is seeded by seed, suite and n alone),
    so they are dealt, n = 3 first and then round-robin, into one fixed
    share per worker process.  The parent runs share 0 and forked children
    the others.  The reports, and the exception raised (the first in run
    order), are those of one serial pass.  A child that dies raises
    ChildProcessError naming its runs; if the parent fails, it kills and
    reaps its children, so none outlives the call."""
    runs = [(name, n) for n in (2, 3) for name in SUITE_ORDER]
    order = sorted(range(len(runs)), key=lambda i: -runs[i][1])
    workers = worker_count(len(runs))
    # each share in run order, so the first run that raises in a share
    # comes before every run the share leaves out
    shares = [sorted(order[k::workers]) for k in range(workers)]
    children = {}                       # pid -> (read end, share)
    results = []
    try:
        for share in shares[1:]:
            pipe = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(pipe, cfg, seed, runs, share)
            os.close(pipe[1])
            children[pid] = (os.fdopen(pipe[0], "rb"), share)
        results += _run_share(cfg, seed, runs, shares[0])
        for pid, (fh, share) in list(children.items()):
            data = fh.read()
            fh.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                lost = ", ".join(f"{runs[i][0]} n={runs[i][1]}" for i in share)
                raise ChildProcessError(
                    f"worker process exited with status {status} before "
                    f"reporting its runs: {lost}")
            results += pickle.loads(data)
    finally:
        for pid, (fh, _) in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results.sort(key=lambda item: item[0])
    for _, out in results:
        if isinstance(out, Exception):
            raise out
    return [out for _, out in results]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run elliptic difference-operator verification suites.")
    parser.add_argument("suite",
                        help="suite name or 'all'; available: "
                             + ", ".join(SUITE_ORDER))
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--json", help="write a JSON report to this path")
    parser.add_argument("--n", type=int, help="rank n (single-suite runs only)")
    parser.add_argument("--seed", type=int, help="random seed")
    for key in ("tau_re", "tau_im", "hbar_re", "hbar_im", "tol_identity"):
        parser.add_argument(f"--{key}", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.suite == "all" and args.n is not None:
        print("error: --n applies to single-suite runs; verify all runs "
              "n = 2 and 3", file=sys.stderr)
        return 2
    try:
        cfg = resolve_config(args)
        seed = int(cfg["seed"])
        if args.suite == "all":
            reports = run_all(cfg, seed)
        else:
            if args.suite not in SUITE_ORDER:
                print(f"error: unknown suite {args.suite!r}; available: "
                      f"{', '.join(SUITE_ORDER)} or 'all'", file=sys.stderr)
                return 2
            ctx = context_from_config(cfg)
            reports = [run_suite(args.suite, ctx, seed)]
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report_json(reports))
    # ArithmeticError: a singular parameter (SingularParameterError) or a
    # value out of floating-point range (OverflowError); OSError: also a
    # report path that cannot be written
    except (ContextError, OSError, ValueError, ArithmeticError,
            SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report_text(reports))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
