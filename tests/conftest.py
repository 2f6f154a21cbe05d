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
    from etlax.weights import unit_key
    return shift(lam, unit_key(len(lam), i), scale)


def pdo_coeff(op, alpha, lam):
    """The coefficient of d^alpha in a differential operator at one point
    lam[n], from its table at the batch of one."""
    jet = op.table(np.asarray(lam)[None]).get(tuple(alpha))
    return 0.0 + 0.0j if jet is None else complex(jet[0, 0])


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


def diff_op(n, items):
    """A difference operator from (key, coefficient closure) pairs, each
    closure mapped over the rows of a batch."""
    from etlax.opalg import DifferenceOperator, _accumulate
    from etlax.weights import canonical_key
    items = [(canonical_key(key), fn) for key, fn in items]

    def table(P):
        out = {}
        for key, fn in items:
            _accumulate(out, key, np.array([fn(lam) for lam in P],
                                           dtype=complex))
        return out
    return DifferenceOperator(n, tuple(dict.fromkeys(k for k, _ in items)),
                              table)
