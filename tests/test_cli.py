"""CLI driver, report formats, determinism, exit codes."""

import json
import math
import os
import time
from dataclasses import fields

import pytest

from etlax import cli
from etlax.context import ModularContext, SamplingError, \
    SingularParameterError, default_context
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
    # the context and the seed; the suite's spectral parameters are drawn
    # from the seed, not reported as params
    assert list(rep.params) == ["n", "tau", "hbar", "trunc", "seed"]
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


def test_report_worst_values_keep_a_nan():
    # builtin max keeps or drops a NaN depending on where it sits; the
    # worst_of rule lets it win wherever it is
    nan = float("nan")

    def report(*rels, control=False):
        cases = [Case(f"c{k}", r, r, 1e-9, r < 1e-9) for k, r in enumerate(rels)]
        cases.append(Case("floor", 5.0, 5.0, 1e-2, True, control=True))
        return SuiteReport("fay", {"n": 2}, 1e-9, cases).finalize()
    for rels in ((nan, 1e-3), (1e-3, nan), (0.0, nan, nan, 5.0)):
        assert math.isnan(report(*rels).worst()), rels
    assert report(1e-12, 3e-10, 1e-10).worst() == 3e-10
    assert report().worst() == 0.0              # the control is left out
    for reps in ((report(1e-3), report(nan)), (report(nan), report(1e-3))):
        assert '"worst_rel": null' in report_json(reps)
        assert "worst_rel=nan" in report_text(reps)
    assert '"worst_rel": 0.001' in report_json([report(1e-3), report(1e-12)])


def test_json_report_with_a_nan_case_parses():
    # JSON has no NaN: a NaN or infinite number is written as null, so a
    # report that holds one still parses; the text report keeps nan
    nan = float("nan")
    cases = [Case("fine", 1e-12, 1e-12, 1e-9, True),
             Case("poisoned", nan, nan, 1e-9, nan < 1e-9),
             Case("blown", float("inf"), 1.0, 1e-9, False)]
    rep = SuiteReport("fay", {"n": 2, "tau": complex(nan, 0.8)}, 1e-9,
                      cases).finalize()
    doc = json.loads(report_json([rep]))
    poisoned, blown = doc["suites"][0]["cases"][1:]
    assert poisoned["rel"] is None and poisoned["abs"] is None
    assert poisoned["ok"] is False
    assert blown["rel"] is None and blown["abs"] == 1.0
    assert doc["suites"][0]["params"]["tau"] == {"re": None, "im": 0.8}
    assert doc["summary"] == {"pass": False, "worst_rel": None}
    assert "case: poisoned rel=nan abs=nan" in report_text([rep])
    assert "case: blown rel=inf" in report_text([rep])


def test_seed_changes_residuals_not_outcome():
    ctx = default_context(2)
    rep1 = run_suite("fay", ctx, 1)
    rep2 = run_suite("fay", default_context(2), 2)
    assert rep1.passed and rep2.passed
    assert strip_timing(report_text([rep1])) != strip_timing(report_text([rep2]))


def test_json_shape_and_digits():
    rep = run_suite("qfay", default_context(2), 42)
    doc = json.loads(report_json([rep]))
    assert doc["schema"] == 4
    suite = doc["suites"][0]
    assert suite["suite"] == "qfay"
    assert list(suite["params"].keys()) == [
        "n", "tau", "hbar", "trunc", "seed"]
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
    assert "schema: 4" in captured
    assert "suite: qfay" in captured
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] is True


def test_cli_bad_configuration_exits_two(capsys):
    assert cli.main(["ybe", "--tau_im", "-0.5"]) == 2
    assert cli.main(["not-a-suite"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_evaluation_errors_exit_two(monkeypatch, capsys):
    # tau = 0.3 + 0.5i makes an intertwiner matrix ill-conditioned at seed 42
    rc = cli.main(["trace-closed", "--n", "3", "--tau_re", "0.3",
                   "--tau_im", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: intertwiner matrix ill-conditioned")

    def exhausted(*args):
        raise SamplingError("could not sample a generic point")
    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert cli.main(["qfay"]) == 2
    assert capsys.readouterr().err.startswith("error: could not sample")


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


def test_cli_has_no_coupling_knob(tmp_path, capsys):
    # every suite draws its own coupling c, so the context carries none
    cfg = tmp_path / "old.txt"
    cfg.write_text("c_re = 0.37\n")
    assert cli.main(["qfay", "--config", str(cfg)]) == 2
    assert "unknown key 'c_re'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["qfay", "--c_im", "0.21"])
    assert exc.value.code == 2
    assert "c" not in {f.name for f in fields(ModularContext)}


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


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["vandermonde", "--n", "3", "--trunc", "30"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["vandermonde"]) == 0
    second = capsys.readouterr().out
    assert "n: 3" in first and "trunc: 30" in first
    assert "n: 2" in second and "trunc: 24" in second


# ------------------------------------------------------------ verify all
# `verify all` deals its runs into one share per worker process; the parent
# runs share 0.  At two workers the first, third, ... suites of SUITE_ORDER
# (theta, face-ybe, ...) run in the parent, the others (ybe, ...) in the
# forked child.

def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_is_the_affinity_mask_or_one(monkeypatch):
    assert cli.worker_count(36) == min(len(os.sched_getaffinity(0)), 36)
    assert cli.worker_count(1) == 1
    monkeypatch.delattr(os, "fork")
    assert cli.worker_count(36) == 1


def test_verify_all_reports_do_not_depend_on_the_worker_count(
        monkeypatch, tmp_path, capsys):
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "worker_count", lambda runs, w=workers: w)
        out = tmp_path / f"all-{workers}.json"
        assert cli.main(["all", "--seed", "3", "--json", str(out)]) == 0
        assert_no_children()
        outputs.append((strip_timing(out.read_text()),
                        strip_timing(capsys.readouterr().out)))
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0][0])
    assert [(s["suite"], s["params"]["n"]) for s in doc["suites"]] == \
        [(name, n) for n in (2, 3) for name in SUITE_ORDER]


def stub_runs(monkeypatch, actions, workers=2):
    """Replace run_suite by a cheap passing report, except for the runs in
    `actions`, which call action(where) with where "parent" or "child"."""
    parent = os.getpid()
    monkeypatch.setattr(cli, "worker_count", lambda runs: workers)

    def fake(name, ctx, seed):
        action = actions.get((name, ctx.n))
        if action is not None:
            return action("parent" if os.getpid() == parent else "child")
        rep = SuiteReport(name, {"n": ctx.n}, 1e-9,
                          [Case("stub", 0.0, 0.0, 1e-9, True)])
        return rep.finalize()
    monkeypatch.setattr(cli, "run_suite", fake)


def singular(name):
    def action(where):
        raise SingularParameterError(f"{name} in the {where}")
    return action


def test_verify_all_raises_the_first_error_in_run_order(monkeypatch, capsys):
    stub_runs(monkeypatch, {("ybe", 3): singular("ybe n=3")})
    assert cli.main(["all"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: ybe n=3 in the child\n"
    # the child's run comes first in run order, then the parent's
    stub_runs(monkeypatch, {("ybe", 2): singular("ybe n=2"),
                            ("theta", 3): singular("theta n=3")})
    assert cli.main(["all"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: ybe n=2 in the child\n"
    # the parent's run comes first
    stub_runs(monkeypatch, {("ybe", 3): singular("ybe n=3"),
                            ("face-ybe", 2): singular("face-ybe n=2")})
    assert cli.main(["all"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: face-ybe n=2 in the parent\n"
    # two runs of one share: n = 3 runs are dealt first, n = 2 runs first
    stub_runs(monkeypatch, {("ybe", 3): singular("ybe n=3"),
                            ("ybe", 2): singular("ybe n=2")})
    assert cli.main(["all"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: ybe n=2 in the child\n"


def test_verify_all_error_does_not_depend_on_the_worker_count(
        monkeypatch, capsys):
    # at Im tau = 0.08 nine runs raise; the first in run order is
    # trace-closed n=2, in the child's share at two workers
    errors = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "worker_count", lambda runs, w=workers: w)
        assert cli.main(["all", "--tau_im", "0.08"]) == 2
        assert_no_children()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].startswith("error: intertwiner matrix ill-conditioned "
                                "(cond=1.26e+10)")


def test_verify_all_failure_in_a_child_exits_one(monkeypatch, capsys):
    def failing(where):
        rep = SuiteReport("ybe", {"n": 2, "where": where}, 1e-9,
                          [Case("stub", 1.0, 1.0, 1e-9, False)])
        return rep.finalize()
    stub_runs(monkeypatch, {("ybe", 2): failing})
    assert cli.main(["all"]) == 1
    assert_no_children()
    out = capsys.readouterr().out
    assert "where: child" in out and "overall: fail" in out


def test_verify_all_names_the_runs_of_a_dead_worker(monkeypatch, capsys):
    def die(where):
        if where == "child":
            os._exit(3)
    stub_runs(monkeypatch, {("ybe", 2): die})
    assert cli.main(["all"]) == 2
    assert_no_children()
    err = capsys.readouterr().err
    assert err.startswith("error: worker process exited with status 3")
    assert "ybe n=3" in err and "ybe n=2" in err and "theta n=2" not in err


def test_verify_all_kills_its_workers_when_the_parent_fails(monkeypatch):
    class Interrupted(BaseException):
        pass

    def stall_or_fail(where):
        if where == "child":
            time.sleep(60)
        raise Interrupted
    stub_runs(monkeypatch, {("theta", 3): stall_or_fail,
                            ("ybe", 3): stall_or_fail})
    start = time.perf_counter()
    with pytest.raises(Interrupted):
        cli.main(["all"])
    assert_no_children()
    assert time.perf_counter() - start < 30
