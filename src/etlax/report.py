"""Deterministic suite reports: structured text and JSON serialization.

Numbers are rendered with 17 significant digits so that identical runs
produce byte-identical output; wall-time fields are the only nondeterministic
entries and are kept on their own lines / keys so consumers can strip them.
A NaN or infinite number reads nan / inf in the text report and null in the
JSON report (JSON has no such numbers; schema 3).  The params of a report
are the context and the seed a suite ran at (schema 5; each suite draws its
own spectral parameters and points from that seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .theta import Residual, worst_of


SCHEMA_VERSION = 5


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
    control: bool = False

    @property
    def ok(self) -> bool:
        """rel >= tol for a control, rel < tol otherwise: a NaN fails."""
        return self.rel >= self.tol if self.control else self.rel < self.tol


@dataclass
class SuiteReport:
    """Outcome of one suite run at one parameter record."""

    suite: str
    params: dict           # n, tau, hbar, seed
    tolerance: float
    cases: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    def worst(self) -> float:
        """worst_of over the non-control cases: a NaN rel wins."""
        return worst_of(Residual(c.rel, c.abs) for c in self.cases
                        if not c.control).rel


def _param_lines(params: dict):
    for key, val in params.items():
        if isinstance(val, complex):
            yield f"{key}: {fmt_complex(val)}"
        elif isinstance(val, float):
            yield f"{key}: {fmt_float(val)}"
        else:
            yield f"{key}: {val}"


def report_text(reports) -> str:
    """Structured-text document, one block per suite run, then a summary."""
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
    lines.append("")
    lines.append("summary:")
    for rep in reports:
        lines.append(f"  {rep.suite}[n={rep.params.get('n')}]: "
                     f"worst_rel={fmt_float(rep.worst())} "
                     f"pass={'yes' if rep.passed else 'no'}")
    overall = all(r.passed for r in reports)
    lines.append(f"overall: {'pass' if overall else 'fail'}")
    return "\n".join(lines) + "\n"


def _json_num(x) -> str:
    """A float with 17 significant digits; a NaN or infinite one is null."""
    return fmt_float(x) if math.isfinite(x) else "null"


def _json_bool(b) -> str:
    return "true" if b else "false"


def _json_scalar(v) -> str:
    """A param value: null, a bool, a string, an int, a float or a
    complex {"re", "im"}."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return _json_bool(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _json_num(v)
    if isinstance(v, complex):
        return f'{{"re": {_json_num(v.real)}, "im": {_json_num(v.imag)}}}'
    raise TypeError(f"cannot serialize {type(v)!r}")


def _suite_json(rep) -> str:
    params = ", ".join(f"{json.dumps(str(k))}: {_json_scalar(v)}"
                       for k, v in rep.params.items())
    cases = ", ".join(
        f'{{"name": {json.dumps(c.name)}, "rel": {_json_num(c.rel)}, '
        f'"abs": {_json_num(c.abs)}, "tol": {_json_num(c.tol)}, '
        f'"control": {_json_bool(c.control)}, "ok": {_json_bool(c.ok)}}}'
        for c in rep.cases)
    return (f'{{"suite": {json.dumps(rep.suite)}, "params": {{{params}}}, '
            f'"tolerance": {_json_num(rep.tolerance)}, "cases": [{cases}], '
            f'"pass": {_json_bool(rep.passed)}, '
            f'"wall_time_s": {_json_num(rep.wall_time_s)}}}')


def report_json(reports) -> str:
    """The JSON document of the suite runs: fixed field order and
    17-significant-digit floats, a NaN or infinite float null."""
    suites = ", ".join(_suite_json(rep) for rep in reports)
    worst = worst_of(Residual(r.worst(), 0.0) for r in reports).rel
    return (f'{{"schema": {SCHEMA_VERSION}, "suites": [{suites}], '
            f'"summary": {{"pass": {_json_bool(all(r.passed for r in reports))}, '
            f'"worst_rel": {_json_num(worst)}}}}}\n')
