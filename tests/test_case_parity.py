"""tools/case_parity.py --compare on synthetic records."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "case_parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("case_parity", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(cases):
    """A record with one ok run per (suite, n, seed) of its cases; a case
    row of six fields, up to its rel, reads its rel as its abs, tolerance
    1e-8 and no control."""
    cases = [c if len(c) == 9 else [*c, c[5], 1e-8, False] for c in cases]
    runs = {tuple(c[:3]): [*c[:3], "ok"] for c in cases}
    return {"src": "synthetic", "runs": list(runs.values()), "cases": cases}


def _compare(parity, tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return parity.main(["--compare", *map(str, paths)])


_BASE = [["theta", 2, 0, "quasi-periodicity", True, 3e-15],
         ["commute", 3, 1, "commutator", True, 2e-12]]


def test_an_ok_flip_exits_one(parity, tmp_path, capsys):
    flipped = [_BASE[0], ["commute", 3, 1, "commutator", False, 2e-6]]
    assert _compare(parity, tmp_path, _record(_BASE), _record(flipped)) == 1
    assert "ok flip ('commute', 3, 1, 'commutator')" in capsys.readouterr().out


def test_ok_flips_are_counted_by_direction(parity, tmp_path, capsys):
    # theta goes red, both commute cases go green: per context and suite
    a = [_BASE[0], ["commute", 3, 1, "commutator", False, 2e-6],
         ["commute", 3, 2, "commutator", False, 3e-6]]
    b = [["theta", 2, 0, "quasi-periodicity", False, 3e-7],
         ["commute", 3, 1, "commutator", True, 2e-12],
         ["commute", 3, 2, "commutator", True, 1e-12]]
    assert _compare(parity, tmp_path, _record(a), _record(b)) == 1
    out = capsys.readouterr().out
    assert "ok flips per context and suite:\n" \
        "  default commute: green->red 0, red->green 2\n" \
        "  default theta: green->red 1, red->green 0\n" in out


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_one_sided_case_exits_one(parity, tmp_path, capsys, side):
    extra = _BASE + [["commute", 3, 1, "renamed-case", True, 1e-13]]
    a, b = (extra, _BASE) if side == "A" else (_BASE, extra)
    assert _compare(parity, tmp_path, _record(a), _record(b)) == 1
    assert (f"only in {side}: ('commute', 3, 1, 'renamed-case')"
            in capsys.readouterr().out)


def test_rels_within_the_floor_read_ratio_one(parity, tmp_path, capsys):
    moved = [["theta", 2, 0, "quasi-periodicity", True, 6e-15],
             _BASE[1]]
    assert _compare(parity, tmp_path, _record(_BASE), _record(moved)) == 0
    out = capsys.readouterr().out
    assert "0 ok flips, 0 tolerance changes, 1 bit-identical rels, " \
        "1 moved" in out
    assert "from 1 to 1" in out


def test_moved_rels_are_counted_per_case_stem(parity, tmp_path, capsys):
    # fay-d1 at two seeds and fay-d3 move, fay-d2 and theta keep their
    # rels, and a case that moves to NaN counts too
    a = _BASE + [["fay", n, seed, f"fay-d{d}", True, 1e-14 * d]
                 for n in (2, 3) for seed in (0, 1) for d in (1, 2, 3)]
    a += [["vandermonde", 2, 0, "vandermonde-n2", True, 1e-15]]
    b = [list(row) for row in a]
    for row in b:
        if row[3] in ("fay-d1", "fay-d3") and (row[1], row[2]) != (3, 1):
            row[5] *= 1.5
        if row[3] == "vandermonde-n2":
            row[5] = None
    assert _compare(parity, tmp_path, _record(a), _record(b)) == 0
    out = capsys.readouterr().out
    assert "15 common cases: 0 ok flips, 0 tolerance changes, " \
        "8 bit-identical rels, 6 moved, 1 moved to or from NaN" in out
    stems = out.split("moved rels per suite/case stem:\n")[1]
    assert stems == "  fay/fay-d 6\n  vandermonde/vandermonde-n 1\n"


def test_a_moved_tolerance_or_control_flag_exits_one(parity, tmp_path,
                                                      capsys):
    # the same rels and ok flags: only the tolerance of one case and the
    # control flag of another move, and each is printed
    a = [["theta", 2, 0, "triple-product", True, 3e-15, 1e-15, 1e-12, False],
         ["theta-space", 2, 0, "negative-control-l1", True, 0.5, 2.0, 1e-2,
          True],
         ["rll", 3, 0, "fused-rll-k2", True, 1e-14, 1e-13, 1e-8, False]]
    b = [list(row) for row in a]
    b[0][7] = 1e-8
    b[1][8] = False
    assert _compare(parity, tmp_path, _record(a), _record(b)) == 1
    out = capsys.readouterr().out
    assert "tolerance moved ('theta', 2, 0, 'triple-product'): " \
        "tol=1e-12 control=False -> tol=1e-08 control=False" in out
    assert "tolerance moved ('theta-space', 2, 0, 'negative-control-l1'): " \
        "tol=0.01 control=True -> tol=0.01 control=False" in out
    assert "fused-rll-k2" not in out
    assert "3 common cases: 0 ok flips, 2 tolerance changes, " \
        "3 bit-identical rels" in out
    assert _compare(parity, tmp_path, _record(a), _record(a)) == 0


def test_a_record_without_tolerances_is_refused(parity, tmp_path):
    # a case row of the six fields before tol and control were recorded
    old = {"src": "old", "runs": [["theta", 2, 0, "ok"]],
           "cases": [["theta", 2, 0, "quasi-periodicity", True, 3e-15]]}
    with pytest.raises(SystemExit, match="without abs, tol or control"):
        _compare(parity, tmp_path, _record(_BASE), old)


@pytest.mark.parametrize("where", [[], ["tau=0.1+0.3j"]])
def test_a_record_without_abs_is_refused(parity, tmp_path, where):
    # the rows recorded before abs was: tol and control, with and without
    # a grid context, but no abs beside the rel
    old = {"src": "old", "runs": [["theta", 2, 0, "ok", *where]],
           "cases": [["theta", 2, 0, "quasi-periodicity", True, 3e-15, 1e-8,
                      False, *where]]}
    with pytest.raises(SystemExit, match="without abs, tol or control"):
        _compare(parity, tmp_path, old, old)


def test_moved_abs_beside_identical_rels_are_counted_per_stem(
        parity, tmp_path, capsys):
    # vandermonde-degenerate-n2 and -n3 report a new abs beside the same
    # rel, theta a new abs beside a moved rel (counted as a moved rel
    # only), and commute nothing: the exit status stays 0
    a = _BASE + [["vandermonde", 2, seed, f"vandermonde-degenerate-n{n}",
                  True, 0.0, 1e-14, 1e-9, False]
                 for seed in (0, 1) for n in (2, 3)]
    b = [list(row) for row in a]
    b[0][5] = 6e-15
    for row in b[2:5]:
        row[6] = 0.0
    assert _compare(parity, tmp_path, _record(a), _record(b)) == 0
    out = capsys.readouterr().out
    assert "6 common cases: 0 ok flips, 0 tolerance changes, " \
        "5 bit-identical rels, 1 moved" in out
    assert out.endswith(
        "moved rels per suite/case stem:\n  theta/quasi-periodicity 1\n"
        "moved abs beside a bit-identical rel per suite/case stem:\n"
        "  vandermonde/vandermonde-degenerate-n 3\n")
    assert _compare(parity, tmp_path, _record(a), _record(a)) == 0
    assert "moved abs" not in capsys.readouterr().out


def test_no_moved_rels_print_no_stems(parity, tmp_path, capsys):
    assert _compare(parity, tmp_path, _record(_BASE), _record(_BASE)) == 0
    assert "case stem" not in capsys.readouterr().out


@pytest.mark.parametrize("status", [0, 1])
def test_a_closed_reader_keeps_the_exit_status_quietly(tmp_path, status):
    # `--compare A B | head`: the reader has gone before the first line, so
    # every print meets a broken pipe; no traceback, the same exit status
    flipped = [_BASE[0], ["commute", 3, 1, "commutator", False, 2e-6]]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, cases in zip(paths, (_BASE, flipped if status else _BASE)):
        path.write_text(json.dumps(_record(cases)))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(_TOOL), "--compare",
                               *map(str, paths)], stdout=write,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (status, b"")


def test_the_sweep_runs_every_suite_at_n_2_3_4(parity):
    from types import SimpleNamespace
    cli = SimpleNamespace(SUITE_ORDER=["theta", "ybe"])
    assert parity.suite_runs(SimpleNamespace(sweep=True), cli) == [
        (s, n, seed) for seed in range(8) for n in (2, 3, 4)
        for s in ("theta", "ybe")]


def test_the_grid_runs_every_suite_at_each_tau_and_hbar(parity):
    from types import SimpleNamespace
    cli = SimpleNamespace(SUITE_ORDER=["theta", "ybe"])
    contexts = {"tau=0.1+0.3j": {"tau_re": 0.1, "tau_im": 0.3},
                "tau=0.3+0.5j": {"tau_re": 0.3, "tau_im": 0.5},
                "tau=0.1+0.08j": {"tau_re": 0.1, "tau_im": 0.08},
                "tau=0.1+0.05j": {"tau_re": 0.1, "tau_im": 0.05},
                "tau=0+0.05j": {"tau_re": 0.0, "tau_im": 0.05},
                "tau=0.1+3j": {"tau_re": 0.1, "tau_im": 3.0},
                "hbar=0.45+0.4j": {"hbar_re": 0.45, "hbar_im": 0.4},
                "hbar=0.6+0.1j": {"hbar_re": 0.6, "hbar_im": 0.1},
                "hbar=0.01+0.01j": {"hbar_re": 0.01, "hbar_im": 0.01}}
    assert parity.GRID == contexts
    assert list(parity.GRID) == list(contexts)
    args = SimpleNamespace(sweep=False, grid=True)
    assert parity.suite_runs(args, cli) == [
        (s, n, seed, where) for where in contexts for seed in range(8)
        for n in (2, 3) for s in ("theta", "ybe")]


def _grid_record(outcomes):
    """A grid record: one run per (suite, seed, context, outcome), each
    with one case that is ok when the run is."""
    return {"src": "synthetic",
            "runs": [[s, 2, seed, out, where]
                     for s, seed, where, out in outcomes],
            "cases": [[s, 2, seed, "case", out == "ok", 1e-15, 1e-15, 1e-8,
                       False, where]
                      for s, seed, where, out in outcomes
                      if not out.startswith("Singular")]}


_RAISE = "SingularParameterError: intertwiner matrix ill-conditioned"


def test_compare_prints_raises_and_failures_per_context_and_suite(
        parity, tmp_path, capsys):
    a = [("qfay", 0, "tau=0.1+0.08j", "fail"),
         ("rll", 0, "tau=0.1+0.08j", _RAISE),
         ("rll", 1, "tau=0.1+0.08j", _RAISE),
         ("rll", 0, "hbar=0.6+0.1j", "ok")]
    b = [a[0], a[1], ("rll", 1, "tau=0.1+0.08j", "ok"), a[3]]
    assert _compare(parity, tmp_path, _grid_record(a), _grid_record(b)) == 1
    out = capsys.readouterr().out
    assert "raises and failing runs per context and suite, A -> B:\n" \
        "  tau=0.1+0.08j qfay: raises 0 -> 0, fails 1 -> 1\n" \
        "  tau=0.1+0.08j rll: raises 2 -> 1, fails 0 -> 0\n" in out
    assert "hbar=0.6+0.1j" not in out
    # the context is part of a run's key: the same run at two contexts
    # is two runs, and a record compared with itself exits 0
    assert "run ('rll', 2, 1, 'tau=0.1+0.08j')" in out
    assert _compare(parity, tmp_path, _grid_record(a), _grid_record(a)) == 0
