"""Batch verification driver.

    verify <suite> [--n N] [--seed S] [--config FILE] [--json OUT]
    verify all ...

Configuration is a flat key-value text file (keys: n, tau_re, tau_im,
hbar_re, hbar_im, trunc, tol_series, tol_identity, seed); every key can be
overridden by a command-line flag of the same name, and the environment
variable ETL_TRUNC overrides trunc (flags still win).  tol_identity is a
singularity floor (see ModularContext); each suite passes or fails against
its own tolerance in suites.SUITES.  Exit
codes: 0 all checks passed, 1 verification failure, 2 configuration error
or an evaluation that could not be carried out (a singular parameter or an
exhausted sampling budget).
"""

from __future__ import annotations

import argparse
import os
import sys

from .context import (DEFAULT_HBAR, DEFAULT_TAU, ContextError, ModularContext,
                      SamplingError, SingularParameterError)
from .report import report_json, report_text
from .suites import SUITE_ORDER, run_suite

CONFIG_KEYS = ("n", "tau_re", "tau_im", "hbar_re", "hbar_im", "trunc",
               "tol_series", "tol_identity", "seed")

DEFAULTS = {
    "n": 2,
    "tau_re": DEFAULT_TAU.real, "tau_im": DEFAULT_TAU.imag,
    "hbar_re": DEFAULT_HBAR.real, "hbar_im": DEFAULT_HBAR.imag,
    "trunc": 24, "tol_series": 1e-13, "tol_identity": 1e-8,
    "seed": 42,
}

_INT_KEYS = {"n", "trunc", "seed"}


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
    """defaults < config file < ETL_TRUNC < explicit flags."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    env_trunc = os.environ.get("ETL_TRUNC")
    if env_trunc is not None:
        try:
            cfg["trunc"] = int(env_trunc)
        except ValueError:
            raise ContextError(f"ETL_TRUNC must be an integer, got {env_trunc!r}")
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
        trunc=int(cfg["trunc"]),
        tol_series=float(cfg["tol_series"]),
        tol_identity=float(cfg["tol_identity"]),
    )


def run_all(cfg: dict, seed: int):
    """Every suite for n in {2, 3}; reports in fixed order."""
    return [run_suite(name, context_from_config(cfg, n=n), seed)
            for n in (2, 3) for name in SUITE_ORDER]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run elliptic difference-operator verification suites.")
    parser.add_argument("suite",
                        help="suite name or 'all'; available: "
                             + ", ".join(SUITE_ORDER))
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--json", help="write a JSON report to this path")
    parser.add_argument("--n", type=int, help="rank n (single-suite runs)")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--trunc", type=int, help="theta series truncation")
    for key in ("tau_re", "tau_im", "hbar_re", "hbar_im", "tol_series",
                "tol_identity"):
        parser.add_argument(f"--{key}", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except (ContextError, OSError, ValueError, SingularParameterError,
            SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report_text(reports)
    sys.stdout.write(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_json(reports))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
