"""The traced benchmark still installs on the library: every traced name
resolves, a traced run completes and every wrapper is removed again."""

import contextlib
import importlib.util
import io
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_installs_and_uninstalls():
    from etlax import cli
    tracer = _tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert tracer.installed()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["theta", "--n", "2", "--seed", "3"]) == 0
    finally:
        trace.uninstall()
    assert not tracer.installed()
    assert trace.summary()["calls"]["suites.theta.n2"] == 1
