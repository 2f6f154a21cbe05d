import json

# etlax before numpy: importing etlax sets one BLAS thread, which numpy's
# BLAS pool reads only when numpy loads, so the test process runs (and
# every in-process `verify all` forks) under the policy of `verify`
import etlax  # noqa: F401
import numpy as np
import pytest

from etlax.context import default_context


@pytest.fixture(scope="session")
def ctx2():
    return default_context(2)


@pytest.fixture(scope="session")
def ctx3():
    return default_context(3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def table_reads(monkeypatch):
    """The point count of every theta._table call from now on, in order.

    _table is the one kernel behind every theta value, so a scalar theta
    read shows up here as a call of its own.
    """
    from etlax import theta as th
    reads = []
    kernel = th._table

    def counting(series, args):
        reads.append(len(args))
        return kernel(series, args)
    monkeypatch.setattr(th, "_table", counting)
    return reads


def phi_tensor_matrix(base, params, ctx):
    """The dense oracle of the outgoing intertwiner map paths -> V^(x)k at
    the base weight base[n]: column (i_1..i_k) holds tensor prod_m
    phi(params[m]) along the path, all n^k columns of the _path_tensor of
    belavin._phi_levels at once."""
    from etlax import belavin as bv
    return bv._path_tensor(bv._phi_levels(base, params, ctx), ctx.n)


def leibniz_det(matrices):
    """The oracle of opalg.det: the determinants of matrices[..., k, k] as
    the Leibniz sum, sign times the product of one entry of each row, over
    every permutation of the columns, in permutations order."""
    from itertools import permutations
    from etlax.opalg import perm_sign
    matrices = np.asarray(matrices)
    size = matrices.shape[-1]
    out = 0
    for perm in permutations(range(size)):
        term = perm_sign(perm) * matrices[..., 0, perm[0]]
        for r in range(1, size):
            term = term * matrices[..., r, perm[r]]
        out = out + term
    return out


def rand_complex(rng, box=0.4):
    return complex(rng.uniform(-box, box) + 1j * rng.uniform(-box, box))


def sumzero_exp(rng, n):
    """Test function P[..., n] -> exp(2 pi i <P, v>) with a sum-zero
    direction v."""
    v = rng.normal(size=n)
    v = v - v.mean()
    return lambda P: np.exp(2j * np.pi * (np.asarray(P) @ v))


def ones(P):
    """The test function P[..., n] -> 1."""
    return np.ones(np.shape(P)[:-1], dtype=complex)


def shift(lam, key, scale):
    """The point lam[n] shifted by scale * sum_i key_i epsbar_i."""
    from etlax.weights import shifted
    return shifted(lam, [key], scale)[0]


def shift_eps(lam, i, scale):
    """The point lam[n] shifted by scale * epsbar_i."""
    from etlax.weights import subset_key
    return shift(lam, subset_key(len(lam), (i,)), scale)


def pdo_coeff(op, alpha, lam):
    """The coefficient of d^alpha in a differential operator at one point
    lam[n], from its table at the batch of one."""
    if tuple(alpha) not in op.terms:
        return 0.0 + 0.0j
    return complex(op.table(np.asarray(lam)[None])
                   [0, op.terms.index(tuple(alpha)), 0])


def qfay_residual(d, u, lambdas, mus, ctx):
    """Residual of the hbar-deformed determinant identity, worst over the
    samples: residual_pair of its two sides, as the qfay suite reads it."""
    from etlax.theta import qfay_lhs, qfay_rhs, residual_pair
    return residual_pair(qfay_lhs(d, u, lambdas, mus, ctx),
                         qfay_rhs(d, u, lambdas, mus, ctx))


def fay_residual(d, u, lambdas, mus, ctx):
    """Residual of the Cauchy-type determinant identity from fay_sides,
    worst over the samples; raises SingularParameterError where fay_sides
    flags a singular sample."""
    from etlax.context import SingularParameterError
    from etlax.theta import fay_sides, residual_arrays, worst_of_arrays
    lhs, rhs, small = fay_sides(d, u, lambdas, mus, ctx)
    if small[..., 0].any():
        raise SingularParameterError("theta(u) too close to 0")
    if small.any():
        raise SingularParameterError("theta(mu_s - lambda_s') too close to 0")
    return worst_of_arrays(*residual_arrays(lhs, rhs))


def strip_timing(text: str) -> str:
    """A report without its wall-time lines/fields, for determinism
    comparisons: a JSON report loses the wall_time_s key of each suite; any
    other text loses every line that mentions wall_time_s."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "suites" in doc:
        for suite in doc["suites"]:
            suite.pop("wall_time_s", None)
        return json.dumps(doc)
    return "\n".join(ln for ln in text.splitlines() if "wall_time_s" not in ln)


def matrix_entry(op, i, j):
    """The entry (i, j) of a matrix difference operator as a scalar
    operator; its batch reads the whole table."""
    from etlax.opalg import DifferenceOperator
    return DifferenceOperator(op.n, op.terms,
                              lambda P: op.table(P)[:, :, i, j])


def diff_op(n, items):
    """A difference operator from (key, coefficient closure) pairs, each
    closure mapped over the rows of a batch."""
    from etlax.opalg import DifferenceOperator, key_map, merge_keys
    from etlax.weights import canonical_key
    terms, q = key_map([canonical_key(key) for key, _ in items])

    def table(P):
        return merge_keys(q, np.array([[fn(lam) for _, fn in items]
                                       for lam in P], dtype=complex))
    return DifferenceOperator(n, terms, table)


def pdo(n, items):
    """A differential operator, the sum of (alpha, coefficient) items; a
    coefficient is a constant or a jet closure (P, order) -> J[s, m]."""
    from etlax.opalg import (DifferentialOperator, jet_constant, key_map,
                             merge_keys)
    items = [(tuple(alpha), fn) for alpha, fn in items]
    terms, q = key_map([alpha for alpha, _ in items])

    def table(P, order=0):
        return merge_keys(q, np.stack(
            [fn(P, order) if callable(fn) else
             jet_constant(fn, len(P), n, order) for _, fn in items], axis=1))
    return DifferentialOperator(n, terms, table)
