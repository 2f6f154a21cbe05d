"""Difference/differential operator calculus and the jet algebra."""

import cmath
import math

import numpy as np

from conftest import rand_complex, sumzero_exp
from etlax import opalg as oa
from etlax import weights as wt
from etlax.theta import theta


def test_identity_apply(ctx3):
    lam = wt.sample_generic(1, ctx3)
    f = lambda mu: mu.coords[0] ** 2 + 2.0
    assert abs(oa.apply_op(oa.identity_op(3), f, lam, ctx3) - f(lam)) < 1e-15


def test_single_term_on_constant(ctx3):
    lam = wt.sample_generic(2, ctx3)
    a = lambda mu: mu.coords[0] - mu.coords[1]
    op = oa.diff_op(3, [((1, 0, 0), a)])
    one = lambda mu: 1.0 + 0.0j
    assert abs(oa.apply_op(op, one, lam, ctx3) - a(lam)) < 1e-15


def test_full_key_acts_as_identity(ctx3, rng):
    lam = wt.sample_generic(3, ctx3)
    f = sumzero_exp(rng, 3)
    op = oa.diff_op(3, [((1, 1, 1), lambda mu: 1.0)])
    assert op.keys() == [(0, 0, 0)]
    assert abs(oa.apply_op(op, f, lam, ctx3) - f(lam)) < 1e-15


def test_compose_definition(ctx3):
    lam = wt.sample_generic(4, ctx3)
    hb = ctx3.hbar
    a = lambda mu: cmath.exp(mu.coords[0])
    b = lambda mu: mu.coords[1] ** 2 + 0.5
    opa = oa.diff_op(3, [((1, 0, 0), a)])
    opb = oa.diff_op(3, [((0, 1, 0), b)])
    comp = oa.compose(opa, opb, ctx3)
    assert comp.keys() == [(1, 1, 0)]
    want = a(lam) * b(lam.shifted_eps(0, hb))
    assert abs(comp.coeff((1, 1, 0), lam) - want) < 1e-14


def test_compose_matches_double_application(ctx3, rng):
    lams = wt.sample_many(5, 3, ctx3)
    f = sumzero_exp(rng, 3)
    a = oa.diff_op(3, [((1, 0, 0), lambda mu: cmath.exp(mu.coords[0])),
                       ((0, 1, 0), lambda mu: mu.coords[1] ** 2 + 2)])
    b = oa.diff_op(3, [((0, 0, 1), lambda mu: 1 / (mu.coords[0] - mu.coords[2] + 0.5)),
                       ((1, 1, 1), lambda mu: 3.0)])
    ab = oa.compose(a, b, ctx3)
    for lam in lams:
        direct = oa.apply_op(ab, f, lam, ctx3)
        nested = oa.apply_op(a, lambda mu: oa.apply_op(b, f, mu, ctx3), lam, ctx3)
        assert abs(direct - nested) / (abs(direct) + 1e-300) < 1e-12


def test_compose_reads_left_coefficient_once_per_point(ctx3, rng):
    lam = wt.sample_generic(12, ctx3)
    calls = []

    def a_coeff(mu):
        calls.append(mu)
        return mu.coords[0] + 1.5
    a = oa.diff_op(3, [((1, 0, 0), a_coeff)])
    b = oa.diff_op(3, [((0, 0, 0), lambda mu: 2.0),
                       ((0, 1, 0), lambda mu: mu.coords[1]),
                       ((0, 0, 1), lambda mu: mu.coords[2])])
    oa.apply_op(oa.compose(a, b, ctx3), sumzero_exp(rng, 3), lam, ctx3)
    assert calls == [lam]


def test_compose_associative(ctx3, rng):
    samples = wt.sample_many(6, 4, ctx3)
    ops = []
    for s in range(3):
        key = tuple(1 if k == s else 0 for k in range(3))
        ops.append(oa.diff_op(3, [(key, (lambda s_: lambda mu:
                                         mu.coords[s_] + 1.5 + 0.2j)(s))]))
    left = oa.compose(oa.compose(ops[0], ops[1], ctx3), ops[2], ctx3)
    right = oa.compose(ops[0], oa.compose(ops[1], ops[2], ctx3), ctx3)
    assert oa.operator_residual(left, right, samples, ctx3).rel < 1e-13


def test_self_commutator_vanishes(ctx3):
    samples = wt.sample_many(7, 4, ctx3)
    a = oa.diff_op(3, [((1, 0, 0), lambda mu: mu.coords[0]),
                       ((0, 0, 1), lambda mu: 2.0 + 0j)])
    assert oa.commutator_residual(a, a, samples, ctx3).rel == 0.0


def test_operator_equality_detects_difference(ctx3):
    samples = wt.sample_many(8, 12, ctx3)
    a = oa.diff_op(3, [((0, 0, 0), lambda mu: mu.coords[0])])
    b = oa.diff_op(3, [((0, 0, 0), lambda mu: mu.coords[0] + 1e-6)])
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
                     mu.coords[i] + 2.0 if i == j and key[i] else 0.0)
    assert matrix.entry(1, 1).table([lam])[keys[0]][0] == 0.0
    det_op = oa.normal_det(matrix, 0.0, ctx3)
    got = det_op.coeff((1, 1, 1), lam)   # canonicalizes to the identity key
    want = math.prod(lam.coords[i] + 2.0 for i in range(3))
    assert abs(got - want) / abs(want) < 1e-14


# ------------------------------------------------------------------- jets

def test_jet_of_affine_against_finite_differences(ctx3):
    lam = wt.sample_generic(11, ctx3)
    grad = [1.0, -1.0, 0.0]
    x = lam.coords[0] - lam.coords[1]
    jet = oa.jet_of_affine([theta(x, ctx3, m) for m in range(4)], grad)
    h = 1e-5
    fd = (theta(x + h, ctx3) - 2 * theta(x, ctx3) + theta(x - h, ctx3)) / (h * h)
    assert abs(jet.deriv((2, 0, 0)) - fd) < 1e-5
    assert abs(jet.deriv((1, 1, 0)) + fd) < 1e-5   # mixed = -second by grad
    assert abs(jet.value - theta(x, ctx3)) < 1e-15


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


def test_jet_of_affine_matches_the_per_monomial_loop(rng):
    from etlax.context import default_context
    for n in (2, 3, 4):
        ctx = default_context(n)
        lam = wt.sample_generic(19, ctx)
        for order in range(5):
            for i, j in ((0, 1), (n - 1, 0)):
                grad = [0.0] * n
                grad[i], grad[j] = 1.0, -1.0
                x = lam.diff(i, j)
                derivs = [theta(x, ctx, m) for m in range(order + 1)]
                want = _per_monomial_jet(lambda m: theta(x, ctx, m), grad,
                                         order)
                got = oa.jet_of_affine(derivs, grad).coeffs
                assert got.keys() == want.keys()
                scale = max(abs(v) for v in want.values())
                assert max(abs(got[m] - want[m]) for m in want) \
                    <= 1e-15 * scale
                if order >= 2:
                    # negative control: the order-1 derivative dropped
                    dropped = derivs[:1] + derivs[2:] + [0.0]
                    bad = oa.jet_of_affine(dropped, grad).coeffs
                    assert max(abs(bad.get(m, 0.0) - want[m]) for m in want) \
                        > 1e-3 * scale


def test_jet_product_and_quotient(ctx3):
    lam = wt.sample_generic(12, ctx3)
    def mk(i, j, order):
        grad = [0.0] * 3
        grad[i], grad[j] = 1.0, -1.0
        return oa.jet_of_affine([theta(lam.coords[i] - lam.coords[j], ctx3, m)
                                 for m in range(order + 1)], grad)
    a, b = mk(0, 1, 3), mk(1, 2, 3)
    prod = a * b
    h = 1e-5
    def f(c0, c1, c2):
        return theta(c0 - c1, ctx3) * theta(c1 - c2, ctx3)
    fd = (f(lam.coords[0], lam.coords[1] + h, lam.coords[2])
          - f(lam.coords[0], lam.coords[1] - h, lam.coords[2])) / (2 * h)
    assert abs(prod.deriv((0, 1, 0)) - fd) < 1e-5
    quot = a / b
    def g(c0, c1, c2):
        return theta(c0 - c1, ctx3) / theta(c1 - c2, ctx3)
    fd2 = (g(lam.coords[0], lam.coords[1] + h, lam.coords[2])
           - g(lam.coords[0], lam.coords[1] - h, lam.coords[2])) / (2 * h)
    assert abs(quot.deriv((0, 1, 0)) - fd2) < 1e-4


def test_jet_dshift(ctx3):
    lam = wt.sample_generic(13, ctx3)
    grad = [1.0, 0.0, -1.0]
    jet = oa.jet_of_affine([theta(lam.coords[0] - lam.coords[2], ctx3, m)
                            for m in range(4)], grad)
    d0 = jet.dshift(0)
    assert abs(d0.value - theta(lam.coords[0] - lam.coords[2], ctx3, 1)) < 1e-14
    assert abs(d0.deriv((1, 0, 0))
               - theta(lam.coords[0] - lam.coords[2], ctx3, 2)) < 1e-13


# -------------------------------------------------------- differential ops

def test_partial_derivatives_commute(ctx3):
    samples = wt.sample_many(14, 3, ctx3)
    di = oa.pdo(3, [((1, 0, 0), oa.pdo_const_coeff(1.0))])
    dj = oa.pdo(3, [((0, 1, 0), oa.pdo_const_coeff(1.0))])
    assert oa.pdo_commutator_residual(di, dj, samples, ctx3).rel == 0.0


def test_leibniz_base_case(ctx3):
    lam = wt.sample_generic(15, ctx3)
    def coeff(mu, order):
        grad = [1.0, -1.0, 0.0]
        return oa.jet_of_affine([theta(mu.coords[0] - mu.coords[1], ctx3, m)
                                 for m in range(order + 1)], grad)
    mult = oa.pdo(3, [((0, 0, 0), coeff)])
    d0 = oa.pdo(3, [((1, 0, 0), oa.pdo_const_coeff(1.0))])
    comm_left = oa.pdo_compose(mult, d0, ctx3)
    comm_right = oa.pdo_compose(d0, mult, ctx3)
    got = comm_left.coeff((0, 0, 0), lam) - comm_right.coeff((0, 0, 0), lam)
    want = -theta(lam.coords[0] - lam.coords[1], ctx3, 1)
    assert abs(got - want) < 1e-13


def test_pdo_apply_with_exponential(ctx3, rng):
    lam = wt.sample_generic(16, ctx3)
    v = rng.normal(size=3)
    v -= v.mean()
    fjet = oa.exp_test_function(v)
    d2 = oa.pdo(3, [((2, 0, 0), oa.pdo_const_coeff(1.0))])
    got = oa.pdo_apply(d2, fjet, lam)
    want = (2j * np.pi * v[0]) ** 2 * fjet(lam, 0).value
    assert abs(got - want) / abs(want) < 1e-13


def test_pdo_compose_full_leibniz(ctx3):
    lam = wt.sample_generic(17, ctx3)
    def coeff(mu, order):
        grad = [0.0, 1.0, -1.0]
        return oa.jet_of_affine([theta(mu.coords[1] - mu.coords[2], ctx3, m)
                                 for m in range(order + 1)], grad)
    a = oa.pdo(3, [((0, 2, 0), oa.pdo_const_coeff(1.0))])
    b = oa.pdo(3, [((0, 0, 0), coeff)])
    comp = oa.pdo_compose(a, b, ctx3)
    x = lam.coords[1] - lam.coords[2]
    # d_1^2 (theta .) = theta'' + 2 theta' d_1 + theta d_1^2
    assert abs(comp.coeff((0, 0, 0), lam) - theta(x, ctx3, 2)) < 1e-12
    assert abs(comp.coeff((0, 1, 0), lam) - 2 * theta(x, ctx3, 1)) < 1e-12
    assert abs(comp.coeff((0, 2, 0), lam) - theta(x, ctx3)) < 1e-13


def test_exp_test_function_derivatives(ctx3, rng):
    v = rng.normal(size=3)
    v -= v.mean()
    fjet = oa.exp_test_function(v)
    lam = wt.sample_generic(18, ctx3)
    jet = fjet(lam, 2)
    base = jet.value
    for i in range(3):
        alpha = tuple(1 if a == i else 0 for a in range(3))
        assert abs(jet.deriv(alpha) - 2j * np.pi * v[i] * base) < 1e-13
