"""CLI driver, report formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
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
    assert list(rep.params) == ["n", "tau", "hbar", "seed"]
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


def _recursive_json(obj):
    # the recursive emitter report_json was written with before its
    # f-string form, kept as the byte-for-byte oracle
    from etlax.report import fmt_float as ff
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
        return ff(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, complex):
        return ('{"re": ' + _recursive_json(obj.real)
                + ', "im": ' + _recursive_json(obj.imag) + "}")
    if isinstance(obj, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _recursive_json(v)
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_recursive_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _recursive_report_json(reports):
    from etlax.report import SCHEMA_VERSION
    from etlax.theta import Residual, worst_of
    return _recursive_json({
        "schema": SCHEMA_VERSION,
        "suites": [{"suite": rep.suite, "params": dict(rep.params),
                    "tolerance": rep.tolerance,
                    "cases": [{"name": c.name, "rel": c.rel, "abs": c.abs,
                               "tol": c.tol, "control": c.control, "ok": c.ok}
                              for c in rep.cases],
                    "pass": rep.passed, "wall_time_s": rep.wall_time_s}
                   for rep in reports],
        "summary": {"pass": all(r.passed for r in reports),
                    "worst_rel": worst_of(Residual(r.worst(), 0.0)
                                          for r in reports).rel},
    }) + "\n"


def test_json_report_is_byte_identical_to_the_recursive_emitter():
    nan, inf = float("nan"), float("inf")
    cases = [Case("fine", 1e-12, 3e-13, 1e-9, True),
             Case("poisoned", nan, nan, 1e-9, False),
             Case("blown", inf, -inf, 1e-9, False),
             Case('quote"d', 0.0, 0.0, 1e-9, True),
             Case("floor", 0.5, 0.25, 1e-3, True, control=True)]
    odd = SuiteReport("fay", {"n": 3, "tau": complex(nan, 0.8),
                              "hbar": complex(0.1, -inf), "seed": 7,
                              "note": "x", "scale": 1.5, "flag": True,
                              "none": None}, 1e-9, cases).finalize()
    odd.wall_time_s = 0.125
    real = [run_suite("ybe", default_context(2), 42),
            run_suite("intertwiner", default_context(3), 1)]
    for reports in ([], [odd], real, real + [odd]):
        assert report_json(reports) == _recursive_report_json(reports)
    # a type JSON has no form for still raises
    with pytest.raises(TypeError):
        report_json([SuiteReport("fay", {"n": [2]}, 1e-9)])


def test_seed_changes_residuals_not_outcome():
    ctx = default_context(2)
    rep1 = run_suite("fay", ctx, 1)
    rep2 = run_suite("fay", default_context(2), 2)
    assert rep1.passed and rep2.passed
    assert strip_timing(report_text([rep1])) != strip_timing(report_text([rep2]))


def test_json_shape_and_digits():
    rep = run_suite("qfay", default_context(2), 42)
    doc = json.loads(report_json([rep]))
    assert doc["schema"] == 5
    suite = doc["suites"][0]
    assert suite["suite"] == "qfay"
    assert list(suite["params"].keys()) == ["n", "tau", "hbar", "seed"]
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
    assert "schema: 5" in captured
    assert "suite: qfay" in captured
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] is True


def test_cli_bad_configuration_exits_two(capsys):
    assert cli.main(["ybe", "--tau_im", "-0.5"]) == 2
    assert cli.main(["not-a-suite"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unwritable_report_path_exits_two(tmp_path, capsys):
    # the suite runs, then the report cannot be written: a configuration
    # error (2), not a verification failure (1), and no traceback
    path = tmp_path / "missing" / "r.json"
    assert cli.main(["theta", "--n", "2", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert "Traceback" not in captured.err and not path.exists()


@pytest.mark.parametrize("suite", ["theta", "all"])
def test_negative_seed_exits_two_naming_it(suite, capsys):
    assert cli.main([suite, "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: seed -5 is negative\n"


@pytest.mark.parametrize("suite", ["theta", "face-ybe"])
def test_seed_past_64_bits_reads_numpys_streams(suite, tmp_path, monkeypatch,
                                                 capsys):
    # 2^70 is five entropy words with the suite index and n; the report is
    # the one numpy's Generator gives, timing apart, in suites that draw
    # uniform and integers alone
    from etlax import suites
    import numpy as np
    seed, paths = str(2 ** 70), [tmp_path / "a.json", tmp_path / "b.json"]
    assert cli.main([suite, "--seed", seed, "--json", str(paths[0])]) == 0
    monkeypatch.setattr(suites, "Stream", np.random.default_rng)
    assert cli.main([suite, "--seed", seed, "--json", str(paths[1])]) == 0
    ours, numpys = (strip_timing(p.read_text()) for p in paths)
    assert ours == numpys and json.loads(ours)["suites"][0]["params"][
        "seed"] == 2 ** 70


def test_cli_evaluation_errors_exit_two(monkeypatch, capsys):
    # at tol_identity 0.05 the floor of the closed-form phibar, 0.05 *
    # theta_scale, exceeds theta(x_k - x_a) at a shifted point of suite
    # commute, seed 42
    rc = cli.main(["commute", "--n", "2", "--tol_identity", "0.05"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: singular intertwiner: theta(x_k - x_a)~0")

    def exhausted(*args):
        raise SamplingError("could not sample a generic point")
    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert cli.main(["qfay"]) == 2
    assert capsys.readouterr().err.startswith("error: could not sample")


def test_fay_suite_ends_where_theta_is_small():
    # at Im tau = 40 every |theta| is below the absolute 1e-8; the floor of
    # fay_sides is on the scale theta_scale, so the suite samples and ends
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "etlax.cli", "fay", "--n",
                           "2", "--tau_im", "40"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.count("ok=yes") == 4


def test_fay_resampling_budget_exits_two(monkeypatch, capsys):
    # a sample that always reads singular exhausts the _MAX_TRIES rounds
    # of suite fay: SamplingError, exit 2, not an endless loop
    from etlax import theta as th
    sides = th.fay_sides

    def singular(*args):
        lhs, rhs, small = sides(*args)
        return lhs, rhs, small | True
    monkeypatch.setattr(th, "fay_sides", singular)
    assert cli.main(["fay"]) == 2
    assert capsys.readouterr().err == (
        "error: fay-d1: no 50 regular samples in 1000 rounds\n")


def test_cli_overflow_exits_two_without_a_traceback():
    # at Im tau = 2000 the quasi-periodicity multiplier of suite theta
    # leaves the floating-point range: one error line, exit 2
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "etlax.cli", "theta",
                           "--tau_im", "2000"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("error: ")]
    assert errors == ["error: math range error"]


@pytest.mark.parametrize("argv", [["theta", "--tau_im", "2000"],
                                  ["all", "--tau_im", "400"],
                                  ["all", "--tau_im", "800"]])
def test_tau_past_the_double_range_prints_one_error_line(argv):
    # exp(pi Im tau), the quasi-periodicity factor of theta(u + tau), is
    # past the double range: the context refuses it before any theta table
    # overflows, so no numpy warning precedes the error line
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "etlax.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: math range error"]
    assert done.stdout == ""


@pytest.mark.parametrize("argv", [["ybe", "--tau_im", "225"],
                                  ["all", "--tau_im", "225"]])
def test_r_matrix_overflow_prints_one_error_line(argv):
    # just inside the context's bound, products of two factors of about
    # exp(pi Im tau) in the R-matrix at u + tau overflow in suite ybe: the
    # overflow raises, so one error line, with no numpy warning before it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "etlax.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: overflow encountered in multiply"]
    assert done.stdout == ""


def test_context_bound_is_the_double_range():
    limit = math.log(sys.float_info.max) / math.pi        # about 225.95
    ModularContext(n=2, tau=0.1 + 225.9j, hbar=0.173 + 0.219j)
    with pytest.raises(OverflowError):
        ModularContext(n=2, tau=0.1 + 1.0001j * limit, hbar=0.173 + 0.219j)


@pytest.mark.parametrize("tau_im", ["150", "200", "224"])
def test_theta_passes_where_p_underflows(tau_im, capsys):
    # above Im tau of about 118, p = exp(2 pi i tau) underflows to 0: the
    # eta product is one factor, and suite theta still checks and passes
    assert cli.main(["theta", "--tau_im", tau_im]) == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("tau_im", ["150", "200", "224"])
def test_face_ybe_passes_at_large_im_tau(tau_im, capsys):
    # theta scales like 2|p|^(1/8) = 2 exp(-pi Im tau / 4): the face-weight
    # floor on that scale accepts the points the sampling guard accepts
    assert cli.main(["face-ybe", "--tau_im", tau_im]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_ybe_passes_at_large_im_tau(capsys):
    # the four d entries of R fall like a power of p (5.3e-205 at u =
    # 0.13+0.07i here) and stay nonzero: eight-vertex-pattern compares the
    # support of R with the ice rule, where an absolute floor read red
    assert cli.main(["ybe", "--n", "2", "--tau_im", "150"]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_eight_vertex_pattern_reads_a_missing_ice_entry(monkeypatch):
    from etlax import belavin as bv
    ctx = default_context(2)

    def pattern():
        return {c.name: c for c in run_suite("ybe", ctx, 42).cases}[
            "eight-vertex-pattern"]
    assert pattern().ok
    table = bv.r_table

    def holed(us, c):
        ent = table(us, c)
        ent[:, 0, 1, 1, 0] = 0               # 0 + 1 = 1 + 0: an ice entry
        return ent
    monkeypatch.setattr(bv, "r_table", holed)
    assert not pattern().ok


def test_verify_all_refuses_the_rank_flag(tmp_path, monkeypatch, capsys):
    # verify all runs n = 2 and 3 whatever --n says, so the flag is refused
    assert cli.main(["all", "--n", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: --n applies to single-suite runs; verify all runs n = 2 "
        "and 3\n")
    # an n key in a config file stays a default for single-suite runs
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 4\n")
    seen = []
    monkeypatch.setattr(cli, "run_all",
                        lambda cfg, seed: seen.append(cfg["n"]) or [])
    assert cli.main(["all", "--config", str(cfg)]) == 0
    assert seen == [4]


def _resolved(*argv):
    return cli.resolve_config(cli.build_parser().parse_args(list(argv)))


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 3\ntol_identity: 1e-9\n# comment\n")
    rc = cli.main(["vandermonde", "--config", str(cfg)])
    assert rc == 0
    assert "n: 3" in capsys.readouterr().out
    assert _resolved("vandermonde", "--config", str(cfg))["tol_identity"] \
        == 1e-9
    assert _resolved("vandermonde")["tol_identity"] == 1e-8


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


def test_trunc_is_not_a_knob(tmp_path, monkeypatch, capsys):
    # each theta window follows its own peak: no truncation to set, by
    # config key, flag or environment variable
    cfg = tmp_path / "old.txt"
    cfg.write_text("trunc = 24\n")
    assert cli.main(["qfay", "--config", str(cfg)]) == 2
    assert "unknown key 'trunc'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["qfay", "--trunc", "30"])
    assert exc.value.code == 2
    monkeypatch.setenv("ETL_TRUNC", "nope")
    assert cli.main(["qfay"]) == 0
    assert "trunc" not in capsys.readouterr().out
    assert "trunc" not in {f.name for f in fields(ModularContext)}
    assert "trunc" not in cli.DEFAULTS


def test_tol_series_is_not_a_knob(tmp_path, capsys):
    # theta_ml's tail is read relative to the largest term, against the
    # window's own drop: no series tolerance to set
    cfg = tmp_path / "old.txt"
    cfg.write_text("tol_series = 1e-13\n")
    assert cli.main(["qfay", "--config", str(cfg)]) == 2
    assert "unknown key 'tol_series'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["qfay", "--tol_series", "1e-13"])
    assert exc.value.code == 2
    assert "tol_series" not in {f.name for f in fields(ModularContext)}
    assert "tol_series" not in cli.DEFAULTS


def test_cli_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 3\ntol_identity = 1e-9\n")
    assert cli.main(["qfay", "--config", str(cfg), "--n", "2"]) == 0
    assert "n: 2" in capsys.readouterr().out
    assert _resolved("qfay", "--config", str(cfg),
                     "--tol_identity", "1e-7")["tol_identity"] == 1e-7


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["vandermonde", "--n", "3", "--tol_identity", "1e-7"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["vandermonde"]) == 0
    second = capsys.readouterr().out
    assert "n: 3" in first and "n: 2" in second
    assert _resolved("vandermonde", "--tol_identity", "1e-7")["tol_identity"] \
        == 1e-7
    assert _resolved("vandermonde")["tol_identity"] == 1e-8


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


@pytest.mark.parametrize("argv, code, red", [
    (["--tau_im", "0.3"], 0, []),
    (["--tau_re", "0.3", "--tau_im", "0.5"], 0, []),
    (["--hbar_re", "0.45", "--hbar_im", "0.4"], 0, []),
    (["--tau_im", "0.08"], 1, [("qfay", 2), ("cm-limit", 2),
                               ("intertwiner", 3), ("qfay", 3), ("fay", 3)]),
])
def test_verify_all_off_the_default_context_reports_every_suite(
        argv, code, red, tmp_path, capsys):
    # where the cond guard of a solved phibar ended these runs with exit 2,
    # the closed form reads every suite: a full report, red only where a
    # check reads red
    out = tmp_path / "all.json"
    assert cli.main(["all", *argv, "--json", str(out)]) == code
    assert_no_children()
    doc = json.loads(out.read_text())
    assert [(s["suite"], s["params"]["n"]) for s in doc["suites"]] == \
        [(name, n) for n in (2, 3) for name in SUITE_ORDER]
    assert [(s["suite"], s["params"]["n"]) for s in doc["suites"]
            if not s["pass"]] == red
    assert capsys.readouterr().out.count(" pass=no") == len(red)


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
    # at Im tau = 225 most runs leave the floating-point range; the first
    # in run order is ybe n=2, in a child's share at two and three workers
    errors = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "worker_count", lambda runs, w=workers: w)
        assert cli.main(["all", "--tau_im", "225"]) == 2
        assert_no_children()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert errors[0] == "error: overflow encountered in multiply\n"


def test_verify_all_overflow_in_a_child_exits_two(monkeypatch, capsys):
    def overflow(where):
        raise OverflowError(f"math range error in the {where}")
    stub_runs(monkeypatch, {("ybe", 3): overflow})
    assert cli.main(["all"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: math range error in the child\n"


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
