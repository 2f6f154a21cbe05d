"""L-operators, fused traces, generating function, and the limit checks."""

import numpy as np
import pytest

from conftest import rand_complex, sumzero_exp
from etlax.context import SingularParameterError
from etlax import opalg as oa
from etlax import transfer as tr
from etlax import weights as wt
from etlax.theta import theta


C0 = 0.37 + 0.21j
U0 = 0.213 + 0.057j
V0 = -0.113 + 0.088j


def test_l_operator_structure(ctx3):
    lop = tr.l_op(C0, U0, ctx3)
    for i in range(3):
        for j in range(3):
            keys = lop.entries[i][j].keys()
            assert len(keys) == 3      # one single-shift term per k
            assert (0, 0, 1) in keys or (0, 1, 0) in keys or (1, 0, 0) in keys


def test_c0_collapses_to_identity(ctx2, ctx3):
    one = lambda mu: 1.0 + 0.0j
    for ctx in (ctx2, ctx3):
        lop = tr.l_op(0.0, U0, ctx)
        lam = wt.sample_generic(21, ctx)
        for i in range(ctx.n):
            for j in range(ctx.n):
                got = oa.apply_op(lop.entries[i][j], one, lam, ctx)
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-12


def test_rll(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lams = wt.sample_many(22, 5, ctx)
        fns = [sumzero_exp(rng, ctx.n) for _ in range(5)]
        res = tr.verify_rll(rand_complex(rng), rand_complex(rng),
                            rand_complex(rng), ctx, lams, fns)
        assert res.rel < 1e-9


def test_rll_equal_spectral_points(ctx3, rng):
    lams = wt.sample_many(23, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    u = rand_complex(rng)
    assert tr.verify_rll(C0, u, u, ctx3, lams, fns).rel < 1e-11


def test_fused_l_edges(ctx3):
    f1 = tr.fused_l(C0, U0, 1, ctx3)
    lop = tr.l_op(C0, U0, ctx3)
    samples = wt.sample_many(24, 4, ctx3)
    for i in range(3):
        for j in range(3):
            res = oa.operator_residual(f1.entries[((i,), (j,))],
                                       lop.entries[i][j], samples, ctx3)
            assert res.rel < 1e-13
    fn = tr.fused_l(C0, U0, 3, ctx3)
    assert list(fn.entries) == [((0, 1, 2), (0, 1, 2))]


def test_fused_l_validation(ctx3):
    with pytest.raises(ValueError):
        tr.fused_l(C0, U0, 4, ctx3)


def test_main_theorem_trace_equals_closed(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(25, 12, ctx)
        for d in range(1, ctx.n + 1):
            for _ in range(2):
                res = tr.verify_trace_closed(rand_complex(rng),
                                             rand_complex(rng), d, ctx, samples)
                assert res.rel < 1e-7


def test_m_closed_edges(ctx3, rng):
    samples = wt.sample_many(26, 4, ctx3)
    lam = samples[0]
    # d = n: scalar times the identity shift
    full = tr.m_closed(C0, U0, 3, ctx3)
    assert full.keys() == [(0, 0, 0)]
    pref = theta(U0 + C0 * ctx3.hbar, ctx3) / theta(U0, ctx3)
    assert abs(full.coeff((0, 0, 0), lam) - pref) < 1e-13
    # d = 0 is the identity
    ident = tr.m_closed(C0, U0, 0, ctx3)
    assert abs(ident.coeff((0, 0, 0), lam) - 1.0) < 1e-15
    # c = 0: all ratios are 1
    flat = tr.m_closed(0.0, U0, 2, ctx3)
    for key in flat.keys():
        assert abs(flat.coeff(key, lam) - theta(U0, ctx3) / theta(U0, ctx3)) \
            < 1e-12


def test_m1_on_constant_sums_coefficients(ctx3):
    lam = wt.sample_generic(27, ctx3)
    m1 = tr.m_closed(C0, U0, 1, ctx3)
    one = lambda mu: 1.0 + 0.0j
    got = oa.apply_op(m1, one, lam, ctx3)
    want = sum(m1.coeff(key, lam) for key in m1.keys())
    assert abs(got - want) < 1e-13


def test_m_trace_key_collapse(ctx3):
    # the n^2 coefficient terms of the d=1 trace land on n shift keys
    m1 = tr.m_trace(C0, U0, 1, ctx3)
    assert sorted(m1.keys()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_compose_m1_matches_double_application(ctx3, rng):
    m1 = tr.m_closed(C0, U0, 1, ctx3)
    mm = oa.compose(m1, m1, ctx3)
    f = sumzero_exp(rng, 3)
    for lam in wt.sample_many(55, 3, ctx3):
        direct = oa.apply_op(mm, f, lam, ctx3)
        nested = oa.apply_op(m1, lambda mu: oa.apply_op(m1, f, mu, ctx3),
                             lam, ctx3)
        assert abs(direct - nested) / abs(direct) < 1e-12


def test_commutators(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(28, 12, ctx)
        c = rand_complex(rng)
        for d in range(1, ctx.n + 1):
            for dp in range(d, ctx.n + 1):
                res = tr.verify_commutation(c, rand_complex(rng),
                                            rand_complex(rng), d, dp, ctx,
                                            samples)
                assert res.rel < 1e-9


def test_commutator_trace_route(ctx3, rng):
    samples = wt.sample_many(29, 8, ctx3)
    res = tr.verify_commutation_trace(C0, U0, V0, 1, 2, ctx3, samples)
    assert res.rel < 1e-9


def test_commutes_with_full_shift(ctx3):
    samples = wt.sample_many(30, 6, ctx3)
    m2 = tr.m_closed(C0, U0, 2, ctx3)
    full_shift = oa.diff_op(3, [((1, 1, 1), lambda mu: 1.0)])
    assert oa.commutator_residual(m2, full_shift, samples, ctx3).rel < 1e-14


def test_spectral_parameter_factorizes(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(31, 8, ctx)
        res = tr.verify_spectral_factorization(rand_complex(rng),
                                               rand_complex(rng),
                                               rand_complex(rng), ctx.n, ctx,
                                               samples)
        assert res.rel < 1e-10


def test_generating_function(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(32, 12, ctx)
        c, u = rand_complex(rng), rand_complex(rng)
        for _ in range(2):
            assert tr.verify_genfunc(c, u, rand_complex(rng, 0.8), ctx,
                                     samples).rel < 1e-7
        assert tr.verify_genfunc(c, u, 0.0, ctx, samples).rel < 1e-7


def test_generating_function_leading_coefficient(ctx2, rng):
    # the operator-valued polynomial det(t) has leading term (-t)^n id
    ctx = ctx2
    samples = wt.sample_many(33, 6, ctx)
    lop = tr.l_op(C0, U0, ctx)
    ts = [0.41 - 0.07j, -0.33 + 0.19j, 0.12 + 0.52j]
    lam = samples[0]
    vander = np.array([[t ** k for k in range(3)] for t in ts])
    vals = np.array([oa.normal_det([list(r) for r in lop.entries], t, ctx)
                     .coeff((0, 0), lam) for t in ts])
    coeffs = np.linalg.solve(vander, vals)
    assert abs(coeffs[2] - 1.0) < 1e-10    # (-t)^2 coefficient of the 0-key


def test_sekiguchi_numerator(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(34, 10, ctx)
        res = tr.verify_sekiguchi(rand_complex(rng), rand_complex(rng),
                                  rand_complex(rng, 0.8), ctx, samples)
        assert res.rel < 1e-8


def test_lax_matrix_conjugation_route(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(35, 8, ctx)
        res = tr.verify_ltilde_conjugation(rand_complex(rng), rand_complex(rng),
                                           ctx, samples)
        assert res.rel < 1e-9


def test_lax_matrix_identity_limit(ctx3, rng):
    samples = wt.sample_many(36, 2, ctx3)
    res = tr.verify_ltilde_limit(C0, U0, ctx3, samples)
    assert res.rel < 0.05       # clean first-order convergence
    assert res.abs < 1e-3


def test_lax_matrix_determinant_route(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(37, 10, ctx)
        res = tr.verify_genfunc_ltilde(rand_complex(rng), rand_complex(rng),
                                       rand_complex(rng, 0.8), ctx, samples)
        assert res.rel < 1e-8


def test_lax_resonant_rejection(ctx3):
    near = wt.WeightPoint.make([1e-13, 0.0, 0.31])
    with pytest.raises(SingularParameterError):
        tr.ltilde_coeff(C0, U0, 0, 1, near, ctx3)


def test_fused_rll(ctx3, rng):
    lams = wt.sample_many(38, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    for k, kp in ((2, 2), (1, 2), (2, 1)):
        res = tr.verify_fused_rll(C0, U0, V0, k, kp, ctx3, lams, fns)
        assert res.rel < 1e-8


def test_rll_negative_control(ctx2, ctx3, rng, monkeypatch):
    # a braid matrix at the wrong spectral parameter must break both checks
    real = tr.fused_rcheck_matrix
    monkeypatch.setattr(tr, "fused_rcheck_matrix",
                        lambda k, kp, u, v, ctx: real(k, kp, u + 0.07, v, ctx))
    for ctx in (ctx2, ctx3):
        lams = wt.sample_many(22, 5, ctx)
        fns = [sumzero_exp(rng, ctx.n) for _ in range(5)]
        assert tr.verify_rll(C0, U0, V0, ctx, lams, fns).rel > 1e-2
    lams = wt.sample_many(38, 2, ctx3)
    fns = [sumzero_exp(rng, 3) for _ in range(2)]
    assert tr.verify_fused_rll(C0, U0, V0, 2, 2, ctx3, lams, fns).rel > 1e-2


def test_krichever_closed_form(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(39, 3, ctx)
        res = tr.verify_krichever(rand_complex(rng), rand_complex(rng), ctx,
                                  samples)
        assert res.rel < 1e-5


def test_krichever_structure(ctx3):
    kmat = tr.krichever_k(C0, U0, ctx3)
    lam = wt.sample_generic(40, ctx3)
    g = C0 / 3
    # diagonal: scalar part is (c/n) theta'(u)/theta(u), derivative part d_i
    for i in range(3):
        ei = tuple(1 if a == i else 0 for a in range(3))
        assert abs(kmat[i][i].coeff(ei, lam) - 1.0) < 1e-14
        want = g * theta(U0, ctx3, 1) / theta(U0, ctx3)
        assert abs(kmat[i][i].coeff((0, 0, 0), lam) - want) < 1e-13
    # c = 0 is the pure derivative matrix
    k0 = tr.krichever_k(0.0, U0, ctx3)
    for i in range(3):
        for j in range(3):
            for alpha in k0[i][j].terms:
                val = k0[i][j].coeff(alpha, lam)
                want = 1.0 if (i == j and sum(alpha) == 1 and alpha[j] == 1) \
                    else 0.0
                assert abs(val - want) < 1e-14


def test_ruijsenaars_identities(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for d in range(1, ctx.n + 1):
            lam = wt.sample_generic(41 + d, ctx)
            out = tr.verify_ruijsenaars(rand_complex(rng), rand_complex(rng),
                                        d, lam, ctx)
            assert out["ratio"].rel < 1e-8
            assert out["coefficient"].rel < 1e-7


def test_ruijsenaars_trivial_coupling(ctx2, rng):
    lam = wt.sample_generic(44, ctx2)
    out = tr.verify_ruijsenaars(0.0, rand_complex(rng), 1, lam, ctx2)
    assert out["coefficient"].rel < 1e-12


def test_ruijsenaars_needs_contracting_q(ctx2):
    bad = ctx2.replace(hbar=0.3 - 0.1j)    # |q| > 1
    with pytest.raises(SingularParameterError):
        tr._dplus(1.3 + 0.2j, 0.1, bad)


def test_debiard_first_operator(ctx3):
    d1 = tr.build_d_ops(C0, U0, ctx3)[0]
    lam = wt.sample_generic(45, ctx3)
    terms = [theta(lam.diff(i, k), ctx3, 1) / theta(lam.diff(i, k), ctx3)
             for i in range(3) for k in range(3) if k != i]
    assert abs(d1.coeff((0, 0, 0), lam) - sum(terms)) \
        / sum(abs(t) for t in terms) < 1e-13
    for i in range(3):
        ei = tuple(1 if a == i else 0 for a in range(3))
        assert abs(d1.coeff(ei, lam) - (-3 / C0)) < 1e-12


def test_debiard_second_operator(ctx3):
    d2 = tr.build_d_ops(C0, U0, ctx3)[1]
    lam = wt.sample_generic(46, ctx3)
    jd = tr.delta_jet(lam, 2, ctx3)
    for i in range(3):
        for j in range(i + 1, 3):
            eij = tuple(1 if a in (i, j) else 0 for a in range(3))
            assert abs(d2.coeff(eij, lam) - (3 / C0) ** 2) < 1e-11
    zterms = [(jd.dmulti(tuple(1 if a in (i, j) else 0 for a in range(3))) / jd
               ).value for i in range(3) for j in range(i + 1, 3)]
    assert abs(d2.coeff((0, 0, 0), lam) - sum(zterms)) \
        / sum(abs(t) for t in zterms) < 1e-12


def test_debiard_commutators(ctx3):
    samples = wt.sample_many(47, 3, ctx3)
    d_ops = tr.build_d_ops(C0, U0, ctx3)
    for a in range(3):
        for b in range(a + 1, 3):
            res = oa.pdo_commutator_residual(d_ops[a], d_ops[b], samples, ctx3)
            assert res.rel < 1e-8


def test_h_identity(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(48, 3, ctx)
        assert tr.verify_h_identity(C0, ctx, samples).rel < 1e-7


def test_cm_limit(ctx2, rng):
    samples = wt.sample_many(49, 2, ctx2)
    vecs = [rng.normal(size=2) for _ in range(2)]
    vecs = [v - v.mean() for v in vecs]
    res = tr.verify_cm_limit(C0, ctx2, samples, vecs)
    assert res.rel < 1e-4


def test_d2_via_mdot_second_derivatives(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(50, 2, ctx)
        vecs = [rng.normal(size=ctx.n) for _ in range(2)]
        vecs = [v - v.mean() for v in vecs]
        assert tr.verify_d2_via_mdot(C0, ctx, samples, vecs).rel < 1e-4


def test_macdonald_limit(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        mac = ctx.replace(tau=30j)
        samples = wt.sample_many(51, 4, mac)
        for d in range(1, ctx.n + 1):
            res = tr.verify_macdonald_limit(rand_complex(rng), U0, d, ctx,
                                            samples)
            assert res.rel < 1e-10
        assert tr.verify_macdonald_limit(0.0, U0, 1, ctx, samples).rel < 1e-14
