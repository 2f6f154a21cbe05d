"""The traced benchmark still installs on the library: every traced name
resolves, a traced run completes and every wrapper is removed again; and
every top-level name of the library is used, traced or allowed by name."""

import ast
import contextlib
import importlib.util
import io
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "etlax"

# top-level names with no reference in the library, and why they stay
UNREFERENCED = {
    "default_context": "the public entry point, exported by the package",
    "theta": "the one-point theta that bench/run.py reads at start-up",
}


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


def test_traced_names_read_the_batched_work():
    # each traced name is the batch function itself, so the suites' batched
    # calls are the ones counted
    from etlax import cli
    trace = _tracer().Tracer()
    trace.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for suite in ("intertwiner", "rll"):
                assert cli.main([suite, "--n", "2"]) == 0
    finally:
        trace.uninstall()
    calls = trace.summary()["calls"]
    for name in ("opalg.apply_op", "belavin.build_r", "belavin.intertwiners",
                 "weights.sample_generic"):
        assert calls[name] >= 1, name


def _names(node):
    """The names and attribute names that the code of node reads or binds."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _eps_reads(source: str) -> list:
    """The line numbers where the code reads _EPS outside a comparison: in
    a divisor, or in a sum or a name that a division may read later."""
    tree = ast.parse(source)
    compared = {id(node) for cmp in ast.walk(tree)
                if isinstance(cmp, ast.Compare) for node in ast.walk(cmp)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if "_EPS" in (getattr(node, "id", None),
                                getattr(node, "attr", None))
                  and id(node) not in compared)


def test_only_theta_divides_by_eps():
    # every rel is theta.relative's quotient; another module may read _EPS
    # in a comparison (belavin's singularity floor), not in a divisor
    assert _eps_reads("a = b / (s + _EPS)\nscale = s + th._EPS\n"
                      "if 100 * _EPS > f:\n    g = np.divide(x, y + _EPS)\n"
                      "h = 100 * th._EPS < f\n") == [1, 2, 4]
    found = {path.name: _eps_reads(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "theta.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _eps_reads((SRC / "theta.py").read_text())


def _linalg_calls(source: str) -> list:
    """The line numbers where the code calls a function under np.linalg
    (any name for numpy)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "linalg")


def test_no_module_calls_np_linalg():
    # theta.det is the one determinant, theta.pivoted_qr the one rank and
    # least-squares solve, the R-matrix checks invert unitary matrices by
    # their conjugate transposes, and a column norm is written out
    assert _linalg_calls(
        "d = np.linalg.det(m)\nx = numpy.linalg.inv(a)\n"
        "r = np.linalg.norm(v)\ny = th.det(m)\nz = (np.linalg.inv)\n"
        "w = b.conj().T\nk = np.linalg.matrix_rank(a, rtol=1e-8)\n"
        "f = np.linalg.lstsq(a, b, rcond=1e-10)[0]\n"
        "q = th.pivoted_qr(a, b, rtol=1e-10)\n") == [1, 2, 3, 7, 8]
    found = {path.name: _linalg_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _floor_products(source: str) -> list:
    """The functions (by name, "" at module level) that multiply a
    theta_scale(...) call by the singularity floor TOL_IDENTITY."""
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and {"theta_scale", "TOL_IDENTITY"} <= _names(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), "")
    return sorted(found)


def test_only_the_guard_takes_the_floor_on_theta_scale():
    # every theta floor is theta.singular's product, read through it by
    # require_regular and fay_sides; no other function forms it again
    assert _floor_products(
        "def f(v, c):\n    return abs(v) < context.TOL_IDENTITY * "
        "theta_scale(c)\n") == ["f"]
    found = {path.name: _floor_products(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fs for name, fs in found.items() if fs} == {
        "theta.py": ["singular"]}


def test_every_top_level_name_is_referenced_traced_or_allowed():
    # a reference is a name or attribute in another top-level statement of
    # the library (a docstring mention is not one), so a function whose
    # last caller went is reported here
    nodes = [(node, _names(node)) for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    unreferenced = {node.name for node, _ in nodes
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not any(node.name in names
                                for other, names in nodes if other is not node)}
    traced = {attr.split(".")[0] for _, _, attr, _ in _tracer().TARGETS}
    assert unreferenced - traced == set(UNREFERENCED)
