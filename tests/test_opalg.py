"""Difference/differential operator calculus and the jet algebra."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import (diff_op, leibniz_det, matrix_entry, ones, pdo,
                      pdo_coeff, rand_complex, shift_eps, sumzero_exp)
from etlax import opalg as oa
from etlax import weights as wt
from etlax.theta import theta


def test_identity_apply(ctx3):
    lam = wt.sample_generic(1, ctx3)
    f = lambda mu: mu[..., 0] ** 2 + 2.0
    assert abs(oa.apply_op(oa.identity_op(3), f, lam, ctx3) - f(lam)) < 1e-15


def test_single_term_on_constant(ctx3):
    lam = wt.sample_generic(2, ctx3)
    a = lambda mu: mu[..., 0] - mu[..., 1]
    op = diff_op(3, [((1, 0, 0), a)])
    assert abs(oa.apply_op(op, ones, lam, ctx3) - a(lam)) < 1e-15


def test_full_key_acts_as_identity(ctx3, rng):
    lam = wt.sample_generic(3, ctx3)
    f = sumzero_exp(rng, 3)
    op = diff_op(3, [((1, 1, 1), lambda mu: 1.0)])
    assert sorted(op.terms) == [(0, 0, 0)]
    assert abs(oa.apply_op(op, f, lam, ctx3) - f(lam)) < 1e-15


def test_compose_definition(ctx3):
    lam = wt.sample_generic(4, ctx3)
    hb = ctx3.hbar
    a = lambda mu: cmath.exp(mu[..., 0])
    b = lambda mu: mu[..., 1] ** 2 + 0.5
    opa = diff_op(3, [((1, 0, 0), a)])
    opb = diff_op(3, [((0, 1, 0), b)])
    comp = oa.compose(opa, opb, ctx3)
    assert sorted(comp.terms) == [(1, 1, 0)]
    want = a(lam) * b(shift_eps(lam, 0, hb))
    assert abs(comp.coeff((1, 1, 0), lam) - want) < 1e-14


def test_compose_matches_double_application(ctx3, rng):
    lams = wt.sample_many(5, 3, ctx3)
    f = sumzero_exp(rng, 3)
    a = diff_op(3, [((1, 0, 0), lambda mu: cmath.exp(mu[..., 0])),
                       ((0, 1, 0), lambda mu: mu[..., 1] ** 2 + 2)])
    b = diff_op(3, [((0, 0, 1), lambda mu: 1 / (mu[..., 0] - mu[..., 2] + 0.5)),
                       ((1, 1, 1), lambda mu: 3.0)])
    ab = oa.compose(a, b, ctx3)
    for lam in lams:
        direct = oa.apply_op(ab, f, lam, ctx3)
        inner = lambda mu: oa.apply_op(b, f, mu, ctx3)
        nested = oa.apply_op(a, inner, lam, ctx3)
        assert abs(direct - nested) / (abs(direct) + 1e-300) < 1e-12


def test_compose_reads_left_coefficient_once_per_point(ctx3, rng):
    lam = wt.sample_generic(12, ctx3)
    calls = []

    def a_coeff(mu):
        calls.append(mu)
        return mu[..., 0] + 1.5
    a = diff_op(3, [((1, 0, 0), a_coeff)])
    b = diff_op(3, [((0, 0, 0), lambda mu: 2.0),
                       ((0, 1, 0), lambda mu: mu[..., 1]),
                       ((0, 0, 1), lambda mu: mu[..., 2])])
    oa.apply_op(oa.compose(a, b, ctx3), sumzero_exp(rng, 3), lam, ctx3)
    assert len(calls) == 1 and np.array_equal(calls[0], lam)


def test_compose_associative(ctx3, rng):
    samples = wt.sample_many(6, 4, ctx3)
    ops = []
    for s in range(3):
        key = tuple(1 if k == s else 0 for k in range(3))
        ops.append(diff_op(3, [(key, (lambda s_: lambda mu:
                                         mu[s_] + 1.5 + 0.2j)(s))]))
    left = oa.compose(oa.compose(ops[0], ops[1], ctx3), ops[2], ctx3)
    right = oa.compose(ops[0], oa.compose(ops[1], ops[2], ctx3), ctx3)
    assert oa.operator_residual(left, right, samples, ctx3).rel < 1e-13


def test_self_commutator_vanishes(ctx3):
    samples = wt.sample_many(7, 4, ctx3)
    a = diff_op(3, [((1, 0, 0), lambda mu: mu[..., 0]),
                       ((0, 0, 1), lambda mu: 2.0 + 0j)])
    assert oa.commutator_residual(a, a, samples, ctx3).rel == 0.0


def test_operator_equality_detects_difference(ctx3):
    samples = wt.sample_many(8, 12, ctx3)
    a = diff_op(3, [((0, 0, 0), lambda mu: mu[..., 0])])
    b = diff_op(3, [((0, 0, 0), lambda mu: mu[..., 0] + 1e-6)])
    assert oa.operator_residual(a, b, samples, ctx3).rel > 1e-8
    assert oa.operator_residual(a, a, samples, ctx3).rel == 0.0


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
def test_apply_batch_on_leading_axes_is_the_flat_call(ctx3, rng, kind):
    # points [a, b, n] read the flat call's values reshaped, bit for bit,
    # for one test function and for several on a trailing axis
    from etlax import transfer as tr
    c, u = 0.37 + 0.21j, 0.213 + 0.057j
    op = tr.m_closed(c, u, 2, ctx3) if kind == "scalar" else \
        tr.l_op(c, u, ctx3)
    P = wt.sample_many(13, 6, ctx3).reshape(2, 3, 3)
    fns = [oa.exp_function(rng.normal(size=3)) for _ in range(2)]
    for f in (fns[0], lambda Q: np.stack([fn(Q) for fn in fns], axis=-1)):
        flat = oa.apply_op(op, f, P.reshape(-1, 3), ctx3)
        got = oa.apply_op(op, f, P, ctx3)
        assert got.shape == (2, 3) + flat.shape[1:]
        assert flat.shape[1:1 + len(op.shape)] == op.shape
        assert np.array_equal(got, flat.reshape(got.shape))
        # one point P[n] is its row of the batch
        assert np.array_equal(oa.apply_op(op, f, P[1, 2], ctx3), got[1, 2])


def test_operator_residual_compares_every_matrix_entry(ctx3):
    # two (2, 2) operators that differ only in entry (1, 1) read red
    samples = wt.sample_many(14, 4, ctx3)

    def matrix(bump):
        def table(P):
            out = np.stack([(k + 1) * P[:, :2, None] + P[:, None, :2]
                            for k in range(2)], axis=1)     # [s, key, 2, 2]
            out[:, :, 1, 1] += bump
            return out
        return oa.DifferenceOperator(3, ((1, 0, 0), (0, 1, 0)), table, (2, 2))
    a, b = matrix(0.0), matrix(1e-3)
    assert oa.operator_residual(a, matrix(0.0), samples, ctx3).rel == 0.0
    assert oa.operator_residual(a, b, samples, ctx3).rel > 1e-4
    assert oa.operator_residual(matrix_entry(a, 0, 0), matrix_entry(b, 0, 0),
                                samples, ctx3).rel == 0.0


def _matrix(n, keys, coeff):
    """Matrix difference operator with coefficient coeff(key, i, j, lam) of
    T_key in the entry (i, j), mapped over the batch."""
    def table(lams):
        return np.array([[[[coeff(key, i, j, lam) for j in range(n)]
                           for i in range(n)] for key in keys]
                         for lam in lams], dtype=complex)
    return oa.DifferenceOperator(n, tuple(keys), table, (n, n))


def test_normal_det_scalar_matrix(ctx3, rng):
    lam = wt.sample_generic(9, ctx3)
    mat = np.array([[rand_complex(rng) for _ in range(3)] for _ in range(3)])
    t = rand_complex(rng)
    matrix = _matrix(3, [(0, 0, 0)], lambda key, i, j, mu: mat[i, j])
    det_op = oa.normal_det(matrix, t, ctx3)
    got = det_op.coeff((0, 0, 0), lam)
    want = complex(np.linalg.det(mat - t * np.eye(3)))
    assert abs(got - want) / abs(want) < 1e-13


def test_a_second_normal_det_over_the_same_terms_builds_no_plan(ctx3):
    from etlax import transfer as tr
    first = oa.normal_det(tr.l_op(0.37 + 0.21j, 0.213 + 0.057j, ctx3), 0.3,
                          ctx3)
    before = oa._det_plan.cache_info()
    lop = tr.l_op(1.1 - 0.2j, -0.2 + 0.1j, ctx3)
    second = oa.normal_det(lop, 0.5 + 0.1j, ctx3)
    after = oa._det_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert second.terms == first.terms
    plan = oa._det_plan(ctx3.n, lop.terms, lop.shape[0])
    assert all(not part.flags.writeable for part in plan
               if isinstance(part, np.ndarray))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_det_equals_the_leibniz_sum(size):
    # each batch entry against the oracle, relative to the batch's largest
    # determinant; a 1 x 1 determinant is its entry bit for bit
    rng = np.random.default_rng(810 + size)
    mats = rng.normal(size=(6, 5, size, size)) \
        + 1j * rng.normal(size=(6, 5, size, size))
    got, want = oa.det(mats), leibniz_det(mats)
    assert got.shape == (6, 5)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if size == 1:
        assert np.array_equal(got, mats[..., 0, 0])


def test_det_of_a_zero_pivot_reads_zero():
    # a zero column, before and after a swap, reads 0 with no nan under
    # the errstate run_suite sets; a swap flips the sign
    mats = np.array([[[0, 0], [0, 0]], [[0, 1], [0, 2]], [[1, 0], [2, 0]],
                     [[1, 2], [2, 4]], [[0, 1], [1, 0]], [[0, 2], [3, 1]]],
                    dtype=complex)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = oa.det(mats)
    assert np.array_equal(got, [0, 0, 0, 0, -1, -6])


def test_det_on_mpmath_arrays_equals_mp_det():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(820)
    with mp.workdps(40):
        for size in (2, 3, 4):
            mats = np.empty((3, size, size), dtype=object)
            for idx in np.ndindex(mats.shape):
                mats[idx] = mp.mpc(*rng.normal(size=2)) / 3
            for got, mat in zip(oa.det(mats), mats):
                assert isinstance(got, mp.mpc)
                assert abs(got - mp.det(mp.matrix(mat.tolist()))) < 1e-25


def test_det_equals_sum_reads_one_entry_off_by_1e_6(monkeypatch):
    # negative control: normal_det's entry (0, 1) of every key tuple off
    # by 1e-6 relative turns det-equals-sum red at genfunc's 1e-7
    from etlax.context import default_context
    from etlax.suites import run_suite
    real = oa.det

    def off(mats):
        mats = np.array(mats)
        mats[..., 0, 1] *= 1.0 + 1e-6
        return real(mats)

    def det_equals_sum():
        rep = run_suite("genfunc", default_context(3), 5)
        return next(c for c in rep.cases if c.name == "det-equals-sum")
    assert det_equals_sum().ok
    monkeypatch.setattr(oa, "det", off)
    case = det_equals_sum()
    assert not case.ok and case.rel > 1e-6


def test_normal_det_diagonal_shift_operators(ctx3):
    lam = wt.sample_generic(10, ctx3)
    keys = [tuple(1 if k == i else 0 for k in range(3)) for i in range(3)]
    matrix = _matrix(3, keys, lambda key, i, j, mu:
                     mu[i] + 2.0 if i == j and key[i] else 0.0)
    entry = matrix_entry(matrix, 1, 1)
    assert entry.table(lam[None])[0, entry.terms.index(keys[0])] == 0.0
    det_op = oa.normal_det(matrix, 0.0, ctx3)
    got = det_op.coeff((1, 1, 1), lam)   # canonicalizes to the identity key
    want = math.prod(lam[i] + 2.0 for i in range(3))
    assert abs(got - want) / abs(want) < 1e-14


# ------------------------------------------------------------------- jets

class _DictJet:
    """The per-point dict jet the jet tables replaced, transcribed as an
    oracle: {monomial: Taylor coefficient}, truncated at order."""

    def __init__(self, n, order, coeffs=None):
        self.n, self.order = n, order
        self.coeffs = dict(coeffs) if coeffs else {}

    @staticmethod
    def of_row(n, row):
        """The dict jet of one row J[m] of a jet table."""
        order = oa.jet_order(n, len(row))
        return _DictJet(n, order, dict(zip(oa.monomials(n, order), row)))

    def row(self):
        return np.array([self.coeffs.get(m, 0.0) for m in
                         oa.monomials(self.n, self.order)], dtype=complex)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = _DictJet(self.n, order)
        for k1, v1 in self.coeffs.items():
            if sum(k1) > order:
                continue
            for k2, v2 in other.coeffs.items():
                tot = tuple(a + b for a, b in zip(k1, k2))
                if sum(tot) <= order:
                    out.coeffs[tot] = out.coeffs.get(tot, 0.0) + v1 * v2
        return out

    def __truediv__(self, other):
        order = min(self.order, other.order)
        b0 = other.coeffs[(0,) * self.n]
        out = _DictJet(self.n, order)
        for m in oa.monomials(self.n, order):
            acc = self.coeffs.get(m, 0.0 + 0.0j)
            for k, v in out.coeffs.items():
                diff = tuple(a - b for a, b in zip(m, k))
                if any(d < 0 for d in diff) or all(d == 0 for d in diff):
                    continue
                acc -= other.coeffs.get(diff, 0.0 + 0.0j) * v
            out.coeffs[m] = acc / b0
        return out

    def dshift(self, i):
        out = _DictJet(self.n, self.order - 1)
        for k, v in self.coeffs.items():
            if k[i] >= 1:
                kk = tuple(a - (1 if j == i else 0) for j, a in enumerate(k))
                if sum(kk) <= out.order:
                    out.coeffs[kk] = v * k[i]
        return out

    def dmulti(self, alpha):
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.dshift(i)
        return out


def _per_monomial_jet(derivs, grad, order):
    """The per-monomial loop jet_of_affine replaced, transcribed: derivs(m)
    is called again for every monomial of degree m."""
    coeffs = {}
    for m in oa.monomials(len(grad), order):
        coef = derivs(sum(m)) / math.prod(math.factorial(a) for a in m)
        for i, mi in enumerate(m):
            coef *= grad[i] ** mi
        if coef != 0.0:
            coeffs[m] = coef
    return coeffs


def _max_rel(got, want):
    """max over the points s of max_m |got - want| / max_m |want|: the error
    relative to each jet's largest entry, not entry by entry."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    return float(np.max(np.max(np.abs(got - want), axis=-1)
                        / np.max(np.abs(want), axis=-1)))


def _random_jets(rng, count, n, order, const=0.0):
    """count random jets whose degree-d entries are of size 0.7^d."""
    degree = np.array([sum(m) for m in oa.monomials(n, order)])
    jets = (rng.normal(size=(count, len(degree)))
            + 1j * rng.normal(size=(count, len(degree)))) * 0.7 ** degree
    jets[:, 0] += const
    return jets


_ORACLE_ORDERS = [(2, range(7)), (3, range(7)), (4, (0, 1, 3, 6, 8))]


def test_jet_tables_match_the_dict_jet(rng):
    from etlax import transfer as tr
    from etlax.context import default_context
    for n, orders in _ORACLE_ORDERS:
        ctx = default_context(n)
        lams = wt.sample_many(20, 2, ctx)
        for order in orders:
            x = _random_jets(rng, 2, n, order)
            y = _random_jets(rng, 2, n, order, const=2.0)
            dx = [_DictJet.of_row(n, row) for row in x]
            dy = [_DictJet.of_row(n, row) for row in y]
            one = _DictJet(n, order, {(0,) * n: 1.0})
            assert _max_rel(oa.jet_mul(x, y, n),
                            [(a * b).row() for a, b in zip(dx, dy)]) < 1e-13
            assert _max_rel(oa.jet_inv(y, n),
                            [(one / b).row() for b in dy]) < 1e-13
            # every derivative of order <= 2, and the deepest ones
            monos = oa.monomials(n, order)
            for alpha in [m for m in monos if sum(m) <= 2] + monos[-n:]:
                assert _max_rel(oa.jet_deriv(x, n, alpha),
                                [a.dmulti(alpha).row() for a in dx]) < 1e-13
            grad = rng.normal(size=n)
            derivs = rng.normal(size=(2, order + 1)) + 1j
            want = [_DictJet(n, order, _per_monomial_jet(lambda m: row[m],
                                                         grad, order)).row()
                    for row in derivs]
            assert _max_rel(oa.jet_of_affine(derivs, grad), want) < 1e-13
            delta = []
            for lam in lams:
                jet = one
                for k in range(n):
                    for l in range(k + 1, n):
                        pair = [0.0] * n
                        pair[k], pair[l] = 1.0, -1.0
                        derivs = [theta((lam[k] - lam[l]), ctx, m)
                                  for m in range(order + 1)]
                        jet = jet * _DictJet(n, order, _per_monomial_jet(
                            derivs.__getitem__, pair, order))
                delta.append(jet.row())
            assert _max_rel(tr.delta_jet(lams, order, ctx), delta) < 1e-13


def test_jet_product_with_a_dropped_cross_term_reads_wrong(rng, monkeypatch):
    # negative control of the oracle comparison: drop the term
    # (e_0) (e_1) of the monomial e_0 + e_1 from the product plan
    import dataclasses
    real = oa._jet_plan

    def dropped(n, order):
        plan = real(n, order)
        c = plan.index[(1, 1) + (0,) * (n - 2)]
        pairs = range(plan.starts[c], plan.starts[c + 1])
        t = next(t for t in pairs if plan.left[t] == plan.index[
            (1,) + (0,) * (n - 1)])
        return dataclasses.replace(
            plan, left=np.delete(plan.left, t), right=np.delete(plan.right, t),
            starts=plan.starts - (np.arange(len(plan.starts)) > c))
    for n, orders in _ORACLE_ORDERS:
        for order in orders:
            if order < 2:
                continue
            x = _random_jets(rng, 2, n, order)
            y = _random_jets(rng, 2, n, order, const=2.0)
            want = [(_DictJet.of_row(n, a) * _DictJet.of_row(n, b)).row()
                    for a, b in zip(x, y)]
            monkeypatch.setattr(oa, "_jet_plan", dropped)
            assert _max_rel(oa.jet_mul(x, y, n), want) > 1e-3
            monkeypatch.setattr(oa, "_jet_plan", real)
            assert _max_rel(oa.jet_mul(x, y, n), want) < 1e-13


def test_jet_of_affine_against_finite_differences(ctx3):
    lam = wt.sample_generic(11, ctx3)
    grad = [1.0, -1.0, 0.0]
    x = lam[0] - lam[1]
    jet = oa.jet_of_affine([[theta(x, ctx3, m) for m in range(4)]], grad)
    h = 1e-5
    fd = (theta(x + h, ctx3) - 2 * theta(x, ctx3) + theta(x - h, ctx3)) / (h * h)
    assert abs(oa.jet_deriv(jet, 3, (2, 0, 0))[0, 0] - fd) < 1e-5
    # mixed = -second by grad
    assert abs(oa.jet_deriv(jet, 3, (1, 1, 0))[0, 0] + fd) < 1e-5
    assert abs(jet[0, 0] - theta(x, ctx3)) < 1e-15


def test_jet_of_affine_matches_the_per_monomial_loop(rng):
    from etlax.context import default_context
    for n in (2, 3, 4):
        ctx = default_context(n)
        lams = wt.sample_many(19, 2, ctx)
        for order in range(5):
            for i, j in ((0, 1), (n - 1, 0)):
                grad = [0.0] * n
                grad[i], grad[j] = 1.0, -1.0
                xs = [(lam[i] - lam[j]) for lam in lams]
                derivs = [[theta(x, ctx, m) for m in range(order + 1)]
                          for x in xs]
                want = [_DictJet(n, order, _per_monomial_jet(
                    lambda m: theta(x, ctx, m), grad, order)).row()
                    for x in xs]
                got = oa.jet_of_affine(derivs, grad)
                assert got.shape == (2, math.comb(n + order, n))
                assert _max_rel(got, want) <= 1e-15
                if order >= 2:
                    # negative control: the order-1 derivative dropped
                    dropped = [row[:1] + row[2:] + [0.0] for row in derivs]
                    assert _max_rel(oa.jet_of_affine(dropped, grad), want) \
                        > 1e-3


def _pair_jet(lams, i, j, order, ctx):
    """Jets of theta(lambda_i - lambda_j) at a batch."""
    grad = [0.0] * ctx.n
    grad[i], grad[j] = 1.0, -1.0
    return oa.jet_of_affine([[theta((lam[i] - lam[j]), ctx, m)
                              for m in range(order + 1)] for lam in lams],
                            grad)


def test_jet_product_and_quotient(ctx3):
    lam = wt.sample_generic(12, ctx3)
    a, b = _pair_jet(lam[None], 0, 1, 3, ctx3), _pair_jet(lam[None], 1, 2, 3, ctx3)
    prod = oa.jet_mul(a, b, 3)
    h = 1e-5
    def f(c0, c1, c2):
        return theta(c0 - c1, ctx3) * theta(c1 - c2, ctx3)
    fd = (f(lam[0], lam[1] + h, lam[2])
          - f(lam[0], lam[1] - h, lam[2])) / (2 * h)
    assert abs(oa.jet_deriv(prod, 3, (0, 1, 0))[0, 0] - fd) < 1e-5
    quot = oa.jet_mul(a, oa.jet_inv(b, 3), 3)
    def g(c0, c1, c2):
        return theta(c0 - c1, ctx3) / theta(c1 - c2, ctx3)
    fd2 = (g(lam[0], lam[1] + h, lam[2])
           - g(lam[0], lam[1] - h, lam[2])) / (2 * h)
    assert abs(oa.jet_deriv(quot, 3, (0, 1, 0))[0, 0] - fd2) < 1e-4


def test_jet_dshift(ctx3):
    lam = wt.sample_generic(13, ctx3)
    jet = _pair_jet(lam[None], 0, 2, 3, ctx3)
    d0 = oa.jet_deriv(jet, 3, (1, 0, 0))
    assert d0.shape == (1, 10)          # one order lower: a prefix width
    x = lam[0] - lam[2]
    assert abs(d0[0, 0] - theta(x, ctx3, 1)) < 1e-14
    assert abs(oa.jet_deriv(d0, 3, (1, 0, 0))[0, 0] - theta(x, ctx3, 2)) \
        < 1e-13


# -------------------------------------------------------- differential ops

def test_partial_derivatives_commute(ctx3):
    samples = wt.sample_many(14, 3, ctx3)
    di = pdo(3, [((1, 0, 0), 1.0)])
    dj = pdo(3, [((0, 1, 0), 1.0)])
    assert oa.pdo_commutator_residual(di, dj, samples, ctx3).rel == 0.0


def test_leibniz_base_case(ctx3):
    lam = wt.sample_generic(15, ctx3)
    mult = pdo(3, [((0, 0, 0), lambda lams, order:
                       _pair_jet(lams, 0, 1, order, ctx3))])
    d0 = pdo(3, [((1, 0, 0), 1.0)])
    comm_left = oa.pdo_compose(mult, d0, ctx3)
    comm_right = oa.pdo_compose(d0, mult, ctx3)
    got = (pdo_coeff(comm_left, (0, 0, 0), lam)
           - pdo_coeff(comm_right, (0, 0, 0), lam))
    want = -theta(lam[0] - lam[1], ctx3, 1)
    assert abs(got - want) < 1e-13


def test_pdo_apply_with_exponential(ctx3, rng):
    lams = wt.sample_many(16, 3, ctx3)
    v = rng.normal(size=3)
    v -= v.mean()
    fjet = oa.exp_test_function(v)
    d2 = pdo(3, [((2, 0, 0), 1.0)])
    got = oa.pdo_apply(d2, fjet, lams)
    want = (2j * np.pi * v[0]) ** 2 * fjet(lams, 0)[:, 0]
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_pdo_compose_full_leibniz(ctx3):
    lams = wt.sample_many(17, 3, ctx3)
    a = pdo(3, [((0, 2, 0), 1.0)])
    b = pdo(3, [((0, 0, 0), lambda mus, order:
                    _pair_jet(mus, 1, 2, order, ctx3))])
    op = oa.pdo_compose(a, b, ctx3)
    table = op.table(lams)
    xs = [lam[1] - lam[2] for lam in lams]
    values = lambda m: np.array([theta(x, ctx3, m) for x in xs])
    at = lambda alpha: table[:, op.terms.index(alpha), 0]
    # d_1^2 (theta .) = theta'' + 2 theta' d_1 + theta d_1^2
    assert set(op.terms) == {(0, 0, 0), (0, 1, 0), (0, 2, 0)}
    assert table.shape == (3, 3, 1)
    assert np.max(np.abs(at((0, 0, 0)) - values(2))) < 1e-12
    assert np.max(np.abs(at((0, 1, 0)) - 2 * values(1))) < 1e-12
    assert np.max(np.abs(at((0, 2, 0)) - values(0))) < 1e-13


def test_exp_test_function_derivatives(ctx3, rng):
    v = rng.normal(size=3)
    v -= v.mean()
    fjet = oa.exp_test_function(v)
    lams = wt.sample_many(18, 3, ctx3)
    jet = fjet(lams, 2)
    base = np.array([cmath.exp(2j * np.pi * sum(a * b for a, b in
                                                 zip(v, lam)))
                     for lam in lams])
    assert np.max(np.abs(jet[:, 0] - base)) < 1e-14
    for i in range(3):
        alpha = tuple(1 if a == i else 0 for a in range(3))
        assert np.max(np.abs(oa.jet_deriv(jet, 3, alpha)[:, 0]
                             - 2j * np.pi * v[i] * base)) < 1e-13


# ------------------------------------------------ dict tables, transcribed

def _accumulate(out, key, value):
    out[key] = out[key] + value if key in out else value


def _as_dict(op, P, *order):
    """{term: table column}: the table of op at P as the dict table the
    array tables replaced."""
    return dict(zip(op.terms, op.table(P, *order).swapaxes(0, 1)))


def _dict_op_add(tables):
    """op_add (and pdo_add) on dict tables, transcribed."""
    out = {}
    for table in tables:
        for key, value in table.items():
            _accumulate(out, key, value)
    return out


def _dict_compose(a, b, P, ctx):
    """compose on dict tables, transcribed: b read once, at every point
    shifted by every key of a."""
    count = len(P)
    ta = _as_dict(a, P)
    tb = _as_dict(b, wt.shifted(P, a.terms, ctx.hbar).swapaxes(0, 1)
                  .reshape(-1, a.n))
    out = {}
    for ia, ka in enumerate(a.terms):
        for kb in b.terms:
            key = wt.canonical_key([x + y for x, y in zip(ka, kb)])
            _accumulate(out, key,
                        ta[ka] * tb[kb][ia * count:(ia + 1) * count])
    return out


def _dict_normal_det(matrix, t, P):
    """normal_det on dict tables: the Leibniz sum of every ordered key
    tuple's matrix, accumulated onto its canonical key."""
    from itertools import product
    size, zero = matrix.shape[0], (0,) * matrix.n
    rows = _as_dict(matrix, P)
    rows[zero] = rows.get(zero, np.zeros((len(P), size, size))) - t * np.eye(size)
    out = {}
    for tup in product(list(rows), repeat=size):
        value = leibniz_det(np.stack([rows[tup[r]][:, r] for r in range(size)],
                                     axis=1))
        _accumulate(out, wt.canonical_key(np.sum(tup, axis=0)), value)
    return out


def _dict_pdo_compose(a, b, P, order, ctx):
    """pdo_compose on dict tables, transcribed: one jet_mul and one
    jet_deriv per Leibniz item."""
    from itertools import product
    n = a.n
    ja, jb = _as_dict(a, P, order), _as_dict(b, P, order + a.order())
    out = {}
    for alpha in a.terms:
        for beta in b.terms:
            for gamma in product(*(range(x + 1) for x in alpha)):
                rest = tuple(x - y for x, y in zip(alpha, gamma))
                key = tuple(x + y for x, y in zip(gamma, beta))
                _accumulate(out, key, oa.jet_mul(
                    ja[alpha], oa.jet_deriv(jb[beta], n, rest), n)
                    * math.prod(map(math.comb, alpha, gamma)))
    return out


def _dict_d_op(c, m, P, order, ctx):
    """D[m] of build_d_ops on dict tables, transcribed: each (I, J) item
    added onto its alpha = I \\ J with out.get."""
    from itertools import combinations
    from etlax import transfer as tr
    n, factor = ctx.n, -ctx.n / c
    items = [(tuple(int(a in big_i and a not in jset) for a in range(n)),
              jset, factor ** (m - jsize))
             for big_i in combinations(range(n), m)
             for jsize in range(m + 1)
             for jset in combinations(big_i, jsize)]
    jsets = tuple(dict.fromkeys(jset for _, jset, _ in items))
    ratios = dict(zip(jsets, tr._delta_ratios(
        tr.delta_jet(P, order + max(map(len, jsets)), ctx), order, jsets,
        n).swapaxes(0, 1)))
    out = {}
    for alpha, jset, scale in items:
        out[alpha] = out.get(alpha, 0.0) + ratios[jset] * scale
    return out


def _dict_rel(op, got, want):
    """max |got - want| relative to the largest entry of want, over the
    union of the terms: the array table got of op against a dict table."""
    zero = 0.0 * next(iter(want.values()))
    assert set(op.terms) == set(want) and got.shape[1] == len(op.terms)
    got = dict(zip(op.terms, got.swapaxes(0, 1)))
    return (max(float(np.max(np.abs(got[key] - want[key]))) for key in want)
            / max(float(np.max(np.abs(v))) for v in want.values()))


def _dict_cases(n):
    """(name, array table, its operator, dict table) at rank n, for every
    combinator the dict path had."""
    from etlax import transfer as tr
    from etlax.context import default_context
    ctx = default_context(n)
    rng = np.random.default_rng(700 + n)
    c, u, v, t = (rand_complex(rng) for _ in range(4))
    P = wt.sample_many(70 + n, 3, ctx)
    m1, m2 = tr.m_closed(c, u, 1, ctx), tr.m_trace(c, v, 2, ctx)
    cases = []
    add = oa.op_add(m1, oa.op_scale(m2, t), tr.m_dot(c, 1, ctx))
    cases.append(("op_add", add, add.table(P), _dict_op_add(
        [_as_dict(m1, P), _as_dict(oa.op_scale(m2, t), P),
         _as_dict(tr.m_dot(c, 1, ctx), P)])))
    for a, b in ((m1, m1), (m1, m2),
                 (m2, matrix_entry(tr.l_op(c, u, ctx), 0, 1))):
        comp = oa.compose(a, b, ctx)
        cases.append(("compose", comp, comp.table(P),
                      _dict_compose(a, b, P, ctx)))
    for matrix, tt in ((tr.l_op(c, u, ctx), t), (tr.l_tilde(c, u, ctx), t),
                       (tr.sekiguchi_matrix(c, u, t, ctx), 0.0)):
        det = oa.normal_det(matrix, tt, ctx)
        cases.append(("normal_det", det, det.table(P),
                      _dict_normal_det(matrix, tt, P)))
    d_ops = tr.build_d_ops(c + 0.25, ctx)
    for m, op in enumerate(d_ops, start=1):
        for order in (0, 1):
            cases.append(("build_d_ops", op, op.table(P, order),
                          _dict_d_op(c + 0.25, m, P, order, ctx)))
    ham = tr.hamiltonian_cm(c, ctx)
    for a, b in ((d_ops[0], d_ops[-1]), (d_ops[-1], d_ops[0]), (ham, ham)):
        for order in (0, 1):
            comp = oa.pdo_compose(a, b, ctx)
            cases.append(("pdo_compose", comp, comp.table(P, order),
                          _dict_pdo_compose(a, b, P, order, ctx)))
    padd = oa.op_add(ham, d_ops[0], oa.op_scale(d_ops[1], t))
    cases.append(("pdo_add", padd, padd.table(P, 1), _dict_op_add(
        [_as_dict(ham, P, 1), _as_dict(d_ops[0], P, 1),
         _as_dict(oa.op_scale(d_ops[1], t), P, 1)])))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_array_tables_match_the_dict_tables(n):
    # normal_det pivots where its dict table adds the Leibniz products:
    # test_normal_det_equals_the_leibniz_sum reads it
    for name, op, got, want in _dict_cases(n):
        if name != "normal_det":
            assert _dict_rel(op, got, want) < 1e-14, name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_det_equals_the_leibniz_sum(n):
    # l_op, l_tilde and the Sekiguchi matrix, each coefficient against the
    # Leibniz sum of its key tuples, relative to the largest coefficient
    rels = [_dict_rel(op, got, want) for name, op, got, want
            in _dict_cases(n) if name == "normal_det"]
    assert len(rels) == 3 and max(rels) <= 1e-13


def test_merge_with_a_dropped_column_reads_wrong(monkeypatch):
    # negative control of the dict comparison: every key merge of opalg
    # loses one column of its merge matrix, the largest term that shares
    # its key with another
    real = oa.merge_keys

    def dropped(q, table):
        shared = np.nonzero(q[np.count_nonzero(q, axis=1) > 1].any(axis=0))[0]
        if len(shared):
            size = np.max(np.abs(table.swapaxes(0, 1).reshape(
                table.shape[1], -1)), axis=1)
            q = q.copy()
            q[:, shared[np.argmax(size[shared])]] = 0.0
        return real(q, table)
    monkeypatch.setattr(oa, "merge_keys", dropped)
    for n in (2, 3, 4):
        worst = {}
        for name, op, got, want in _dict_cases(n):
            worst[name] = max(worst.get(name, 0.0), _dict_rel(op, got, want))
        # every combinator that merges in opalg (the D operators and the
        # fused traces merge in transfer)
        for name in ("op_add", "compose", "normal_det", "pdo_compose",
                     "pdo_add"):
            assert worst[name] > 1e-3, (n, name)


def _plan_arrays(plan):
    """Every array inside a cached plan: tuples, dataclasses, named tuples."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            yield from _plan_arrays(part)
    elif dataclasses.is_dataclass(plan):
        for f in dataclasses.fields(plan):
            yield from _plan_arrays(getattr(plan, f.name))


def test_cached_plans_reject_writes(ctx3):
    from etlax import belavin as bv
    from etlax import theta as th
    from etlax import transfer as tr
    ctx = ctx3
    plans = [bv._r_index(3), bv.partial_shifts(3, 3), bv._orbit_plan(3, 3),
             tr._fusion_plan(3, 2),
             tr._subset_pairs(3, 2),
             th._series((0.5,), 1, complex(ctx.tau), 1),
             oa._det_plan(3, ((1, 0, 0), (0, 1, 0)), 2),
             oa._leibniz_plan(((0, 0, 0), (1, 0, 0)), ((0, 1, 0),)),
             oa._jet_plan(3, 2), oa._deriv_gather(3, 2, (1, 0, 0))]
    for plan in plans:
        arrays = list(_plan_arrays(plan))
        assert arrays, plan
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]
    # control: a fresh array of the same kind takes the write
    fresh = np.array(tr._subset_pairs(3, 2)[1])
    fresh.flat[0] = fresh.flat[0]
