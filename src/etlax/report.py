"""Deterministic suite reports: structured text and JSON serialization.

Numbers are rendered with 17 significant digits so that identical runs
produce byte-identical output; wall-time fields are the only nondeterministic
entries and are kept on their own lines / keys so consumers can strip them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}j"


@dataclass(frozen=True)
class Case:
    """One residual check inside a suite.

    control marks negative controls, where ok means the residual EXCEEDS
    the recorded floor; these are excluded from worst-residual summaries.
    """

    name: str
    rel: float
    abs: float
    tol: float
    ok: bool
    control: bool = False


@dataclass
class SuiteReport:
    """Outcome of one suite run at one parameter record."""

    suite: str
    params: dict           # n, tau, hbar, c, u, v, t, trunc, seed
    tolerance: float
    cases: list = field(default_factory=list)
    passed: bool = True
    wall_time_s: float = 0.0

    def finalize(self):
        self.passed = all(c.ok for c in self.cases)
        return self

    def worst(self) -> float:
        return max((c.rel for c in self.cases if not c.control), default=0.0)


def _param_lines(params: dict):
    for key, val in params.items():
        if isinstance(val, complex):
            yield f"{key}: {fmt_complex(val)}"
        elif isinstance(val, float):
            yield f"{key}: {fmt_float(val)}"
        else:
            yield f"{key}: {val}"


def report_text(reports, include_summary: bool = True) -> str:
    """Structured-text document, one block per suite run."""
    lines = [f"schema: {SCHEMA_VERSION}"]
    for rep in reports:
        lines.append("")
        lines.append(f"suite: {rep.suite}")
        lines.extend(_param_lines(rep.params))
        lines.append(f"tolerance: {fmt_float(rep.tolerance)}")
        for c in rep.cases:
            kind = " control=floor" if c.control else ""
            lines.append(
                f"case: {c.name} rel={fmt_float(c.rel)} abs={fmt_float(c.abs)} "
                f"tol={fmt_float(c.tol)}{kind} ok={'yes' if c.ok else 'no'}")
        lines.append(f"pass: {'yes' if rep.passed else 'no'}")
        lines.append(f"wall_time_s: {fmt_float(rep.wall_time_s)}")
    if include_summary:
        lines.append("")
        lines.append("summary:")
        for rep in reports:
            lines.append(f"  {rep.suite}[n={rep.params.get('n')}]: "
                         f"worst_rel={fmt_float(rep.worst())} "
                         f"pass={'yes' if rep.passed else 'no'}")
        overall = all(r.passed for r in reports)
        lines.append(f"overall: {'pass' if overall else 'fail'}")
    return "\n".join(lines) + "\n"


def _emit_json(obj) -> str:
    """JSON with fixed field order and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, complex):
        return ('{"re": ' + fmt_float(obj.real)
                + ', "im": ' + fmt_float(obj.imag) + "}")
    if isinstance(obj, dict):
        inner = ", ".join(json.dumps(str(k)) + ": " + _emit_json(v)
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(reports) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "suites": [
            {
                "suite": rep.suite,
                "params": dict(rep.params),
                "tolerance": rep.tolerance,
                "cases": [
                    {"name": c.name, "rel": c.rel, "abs": c.abs,
                     "tol": c.tol, "control": c.control, "ok": c.ok}
                    for c in rep.cases
                ],
                "pass": rep.passed,
                "wall_time_s": rep.wall_time_s,
            }
            for rep in reports
        ],
        "summary": {
            "pass": all(r.passed for r in reports),
            "worst_rel": max((r.worst() for r in reports), default=0.0),
        },
    }
    return _emit_json(doc) + "\n"


def strip_timing(text: str) -> str:
    """Drop wall-time lines/fields for determinism comparisons.

    A JSON report loses the wall_time_s key of each suite; any other text
    loses every line that mentions wall_time_s.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "suites" in doc:
        for suite in doc["suites"]:
            suite.pop("wall_time_s", None)
        return json.dumps(doc)
    lines = [ln for ln in text.splitlines() if "wall_time_s" not in ln]
    return "\n".join(lines)
