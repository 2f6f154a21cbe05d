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
    """Test function exp(2 pi i <lambda, v>) with a sum-zero direction v."""
    import cmath
    v = rng.normal(size=n)
    v = v - v.mean()

    def fn(lam):
        return cmath.exp(2j * cmath.pi * sum(a * b for a, b in zip(v, lam.coords)))
    return fn
