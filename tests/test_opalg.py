"""Difference/differential operator calculus and the jet algebra."""

import cmath
import math

import numpy as np

from conftest import (diff_op, ones, pdo_coeff, rand_complex, shift_eps,
                      sumzero_exp)
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
    assert op.keys() == [(0, 0, 0)]
    assert abs(oa.apply_op(op, f, lam, ctx3) - f(lam)) < 1e-15


def test_compose_definition(ctx3):
    lam = wt.sample_generic(4, ctx3)
    hb = ctx3.hbar
    a = lambda mu: cmath.exp(mu[..., 0])
    b = lambda mu: mu[..., 1] ** 2 + 0.5
    opa = diff_op(3, [((1, 0, 0), a)])
    opb = diff_op(3, [((0, 1, 0), b)])
    comp = oa.compose(opa, opb, ctx3)
    assert comp.keys() == [(1, 1, 0)]
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
        inner = lambda mu: oa.apply_batch(b, f, mu.reshape(-1, 3), ctx3
                                          ).reshape(mu.shape[:-1])
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


def _matrix(n, keys, coeff):
    """OperatorMatrix with coefficient coeff(key, i, j, lam) of T_key in the
    entry (i, j), mapped over the batch."""
    def table(lams):
        return np.array([[[[coeff(key, i, j, lam) for j in range(n)]
                           for i in range(n)] for key in keys]
                         for lam in lams], dtype=complex)
    return oa.OperatorMatrix(n, n, tuple(keys), table)


def test_normal_det_scalar_matrix(ctx3, rng):
    lam = wt.sample_generic(9, ctx3)
    mat = np.array([[rand_complex(rng) for _ in range(3)] for _ in range(3)])
    t = rand_complex(rng)
    matrix = _matrix(3, [(0, 0, 0)], lambda key, i, j, mu: mat[i, j])
    det_op = oa.normal_det(matrix, t, ctx3)
    got = det_op.coeff((0, 0, 0), lam)
    want = complex(np.linalg.det(mat - t * np.eye(3)))
    assert abs(got - want) / abs(want) < 1e-13


def test_normal_det_diagonal_shift_operators(ctx3):
    lam = wt.sample_generic(10, ctx3)
    keys = [tuple(1 if k == i else 0 for k in range(3)) for i in range(3)]
    matrix = _matrix(3, keys, lambda key, i, j, mu:
                     mu[i] + 2.0 if i == j and key[i] else 0.0)
    assert matrix.entry(1, 1).table(lam[None])[keys[0]][0] == 0.0
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
    di = oa.pdo(3, [((1, 0, 0), 1.0)])
    dj = oa.pdo(3, [((0, 1, 0), 1.0)])
    assert oa.pdo_commutator_residual(di, dj, samples, ctx3).rel == 0.0


def test_leibniz_base_case(ctx3):
    lam = wt.sample_generic(15, ctx3)
    mult = oa.pdo(3, [((0, 0, 0), lambda lams, order:
                       _pair_jet(lams, 0, 1, order, ctx3))])
    d0 = oa.pdo(3, [((1, 0, 0), 1.0)])
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
    d2 = oa.pdo(3, [((2, 0, 0), 1.0)])
    got = oa.pdo_apply(d2, fjet, lams)
    want = (2j * np.pi * v[0]) ** 2 * fjet(lams, 0)[:, 0]
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_pdo_compose_full_leibniz(ctx3):
    lams = wt.sample_many(17, 3, ctx3)
    a = oa.pdo(3, [((0, 2, 0), 1.0)])
    b = oa.pdo(3, [((0, 0, 0), lambda mus, order:
                    _pair_jet(mus, 1, 2, order, ctx3))])
    table = oa.pdo_compose(a, b, ctx3).table(lams)
    xs = [lam[1] - lam[2] for lam in lams]
    values = lambda m: np.array([theta(x, ctx3, m) for x in xs])
    # d_1^2 (theta .) = theta'' + 2 theta' d_1 + theta d_1^2
    assert table.keys() == {(0, 0, 0), (0, 1, 0), (0, 2, 0)}
    assert all(jet.shape == (3, 1) for jet in table.values())
    assert np.max(np.abs(table[(0, 0, 0)][:, 0] - values(2))) < 1e-12
    assert np.max(np.abs(table[(0, 1, 0)][:, 0] - 2 * values(1))) < 1e-12
    assert np.max(np.abs(table[(0, 2, 0)][:, 0] - values(0))) < 1e-13


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
