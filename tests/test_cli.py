"""CLI driver, report formats, determinism, exit codes."""

import json

import pytest

from etlax import cli
from etlax.context import default_context
from etlax.report import Case, SuiteReport, fmt_complex, fmt_float, \
    report_json, report_text, strip_timing
from etlax.suites import SUITE_ORDER, run_suite


def test_suite_registry_names():
    assert SUITE_ORDER == [
        "theta", "ybe", "face-ybe", "intertwiner", "rll", "trace-closed",
        "commute", "qfay", "fay", "vandermonde", "genfunc", "ruijsenaars",
        "krichever", "cm-limit", "macdonald-limit", "debiard", "theta-space",
        "eigen-l1"]


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope", default_context(2), 1)


def test_run_suite_passes_and_records_params():
    rep = run_suite("qfay", default_context(2), 42)
    assert rep.passed
    assert rep.params["n"] == 2
    assert rep.params["seed"] == 42
    for key in ("tau", "hbar", "c", "u", "v", "t", "trunc"):
        assert key in rep.params
    assert all(c.rel < c.tol for c in rep.cases if not c.control)


def test_run_suite_trace_closed_n3_reports_wall_time():
    rep = run_suite("trace-closed", default_context(3), 7)
    assert rep.passed
    assert rep.wall_time_s > 0.0


def test_report_determinism():
    ctx = default_context(2)
    rep1 = run_suite("vandermonde", ctx, 7)
    rep2 = run_suite("vandermonde", default_context(2), 7)
    t1, t2 = report_text([rep1]), report_text([rep2])
    assert strip_timing(t1) == strip_timing(t2)
    assert "wall_time_s" in t1
    j1, j2 = report_json([rep1]), report_json([rep2])
    assert strip_timing(j1) == strip_timing(j2)


def test_strip_timing_keeps_json_content():
    def report(rel, ok):
        rep = SuiteReport("fay", {"n": 2}, 1e-9,
                          [Case("fay", rel, rel, 1e-9, ok)], wall_time_s=1.5)
        return rep.finalize()
    passing = strip_timing(report_json([report(1e-12, True)]))
    failing = strip_timing(report_json([report(1e-3, False)]))
    assert passing and failing and passing != failing
    assert "wall_time_s" not in passing


def test_seed_changes_residuals_not_outcome():
    ctx = default_context(2)
    rep1 = run_suite("fay", ctx, 1)
    rep2 = run_suite("fay", default_context(2), 2)
    assert rep1.passed and rep2.passed
    assert strip_timing(report_text([rep1])) != strip_timing(report_text([rep2]))


def test_json_shape_and_digits():
    rep = run_suite("qfay", default_context(2), 42)
    doc = json.loads(report_json([rep]))
    assert doc["schema"] == 1
    suite = doc["suites"][0]
    assert suite["suite"] == "qfay"
    assert list(suite["params"].keys()) == [
        "n", "tau", "hbar", "c", "u", "v", "t", "trunc", "seed"]
    assert {"name", "rel", "abs", "tol", "control", "ok"} \
        <= set(suite["cases"][0].keys())
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(1e-9) == "1.0000000000000001e-09"
    assert fmt_complex(0.1 - 0.25j) == "0.10000000000000001-0.25j"


def test_cli_single_suite_exit_zero(capsys, tmp_path):
    out = tmp_path / "rep.json"
    rc = cli.main(["qfay", "--seed", "42", "--json", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "schema: 1" in captured
    assert "suite: qfay" in captured
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] is True


def test_cli_bad_configuration_exits_two(capsys):
    assert cli.main(["ybe", "--tau_im", "-0.5"]) == 2
    assert cli.main(["not-a-suite"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 3\ntrunc: 28\n# comment\n")
    rc = cli.main(["vandermonde", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n: 3" in out
    assert "trunc: 28" in out
    rc = cli.main(["vandermonde", "--config", str(cfg), "--trunc", "30"])
    assert rc == 0
    assert "trunc: 30" in capsys.readouterr().out


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("volume = 11\n")
    assert cli.main(["qfay", "--config", str(cfg)]) == 2


def test_env_var_overrides_trunc(monkeypatch, capsys):
    monkeypatch.setenv("ETL_TRUNC", "26")
    assert cli.main(["qfay"]) == 0
    assert "trunc: 26" in capsys.readouterr().out
    monkeypatch.setenv("ETL_TRUNC", "nope")
    assert cli.main(["qfay"]) == 2


def test_cli_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("ETL_TRUNC", "26")
    assert cli.main(["qfay", "--trunc", "25"]) == 0
    assert "trunc: 25" in capsys.readouterr().out
