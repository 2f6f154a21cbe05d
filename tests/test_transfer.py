"""L-operators, fused traces, generating function, and the limit checks."""

import cmath
import itertools
import math

import numpy as np
import pytest

from conftest import (diff_op, ones, pdo_coeff, rand_complex, shift,
                      sumzero_exp, table_reads)
from etlax.context import SingularParameterError, default_context
from etlax import opalg as oa
from etlax import transfer as tr
from etlax import weights as wt
from etlax.suites import run_suite
from etlax.theta import theta


C0 = 0.37 + 0.21j
U0 = 0.213 + 0.057j
V0 = -0.113 + 0.088j


def test_l_operator_structure(ctx3):
    lop = tr.l_op(C0, U0, ctx3)
    for i in range(3):
        for j in range(3):
            keys = lop.entry(i, j).keys()
            assert len(keys) == 3      # one single-shift term per k
            assert (0, 0, 1) in keys or (0, 1, 0) in keys or (1, 0, 0) in keys


def test_c0_collapses_to_identity(ctx2, ctx3):
    one = ones
    for ctx in (ctx2, ctx3):
        lop = tr.l_op(0.0, U0, ctx)
        lam = wt.sample_generic(21, ctx)
        for i in range(ctx.n):
            for j in range(ctx.n):
                got = oa.apply_op(lop.entry(i, j), one, lam, ctx)
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
    # L(c|u) is the fused L-operator at k = 1: its table is the coefficient
    # tensor itself, bit for bit, with T_k the k-th unit key
    lop = tr.l_op(C0, U0, ctx3)
    samples = wt.sample_many(24, 4, ctx3)
    assert lop.terms == tuple(wt.unit_key(3, k) for k in range(3))
    want = tr.l_coeff_tensor(C0, [U0] * 4, samples, ctx3)     # [s, k, i, j]
    assert np.array_equal(lop.table(samples), want)
    for i in range(3):
        for j in range(3):
            entry = lop.entry(i, j).table(samples)
            for k, key in enumerate(lop.terms):
                assert np.array_equal(entry[key], want[:, k, i, j])
    fn = tr.fused_l(C0, U0, 3, ctx3)
    assert fn.table(samples).shape[2:] == (1, 1)   # the one subset (0, 1, 2)


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
    one = ones
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
        nested = oa.apply_op(m1, lambda mu: oa.apply_batch(
            m1, f, mu.reshape(-1, 3), ctx3).reshape(mu.shape[:-1]),
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
    full_shift = diff_op(3, [((1, 1, 1), lambda mu: 1.0)])
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
    vals = np.array([oa.normal_det(lop, t, ctx).coeff((0, 0), lam)
                     for t in ts])
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
    assert res.rel < 1e-3       # clean first-order convergence
    assert res.abs < 1e-3


def test_lax_matrix_determinant_route(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        samples = wt.sample_many(37, 10, ctx)
        res = tr.verify_genfunc_ltilde(rand_complex(rng), rand_complex(rng),
                                       rand_complex(rng, 0.8), ctx, samples)
        assert res.rel < 1e-8


def test_lax_resonant_rejection(ctx3):
    near = wt.canonical([1e-13, 0.0, 0.31])
    with pytest.raises(SingularParameterError):
        tr.ltilde_table(C0 * ctx3.hbar / 3, U0, [near], ctx3)
    with pytest.raises(SingularParameterError):
        tr.l_tilde(C0, U0, ctx3).table(np.vstack([wt.sample_many(66, 2, ctx3), near]))


def _ltilde_scalar(g, u, i, j, lam, ctx):
    """The Lax coefficient of T_i in the entry (i, j), one theta at a time:
    theta(g + u + lam_ji)/theta(u) prod_{k != j} theta(g + lam_ki)/theta(lam_kj)."""
    val = theta(g + u + (lam[j] - lam[i]), ctx) / theta(u, ctx)
    for k in range(ctx.n):
        if k != j:
            val *= theta(g + (lam[k] - lam[i]), ctx) / theta((lam[k] - lam[j]), ctx)
    return val


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ltilde_table_matches_scalar_formula(n):
    ctx = default_context(n)
    rng = np.random.default_rng([65, n])
    samples = wt.sample_many(65, 5, ctx)
    c, u = rand_complex(rng), rand_complex(rng)
    g = c * ctx.hbar / n
    want = np.array([[[_ltilde_scalar(g, u, i, j, lam, ctx) for j in range(n)]
                      for i in range(n)] for lam in samples])

    def rel(got):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel(tr.ltilde_table(g, u, samples, ctx)) <= 1e-13
    assert rel(tr.ltilde_table(-g, u, samples, ctx)) > 1e-3
    # l_tilde puts the coefficient of the entry (i, j) on T_i alone
    expect = np.einsum("ki,sij->skij", np.eye(n),
                       tr.ltilde_table(g, u, samples, ctx))
    assert np.array_equal(tr.l_tilde(c, u, ctx).table(samples), expect)


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
        assert abs(pdo_coeff(kmat[i][i], ei, lam) - 1.0) < 1e-14
        want = g * theta(U0, ctx3, 1) / theta(U0, ctx3)
        assert abs(pdo_coeff(kmat[i][i], (0, 0, 0), lam) - want) < 1e-13
    # c = 0 is the pure derivative matrix
    k0 = tr.krichever_k(0.0, U0, ctx3)
    for i in range(3):
        for j in range(3):
            for alpha in k0[i][j].terms:
                val = pdo_coeff(k0[i][j], alpha, lam)
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


def test_dplus_matches_double_loop(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        q, p = ctx.q, ctx.p
        for z, g in ((1.3 + 0.2j, 0.1), (0.7 - 0.4j, 0.35 + 0.2j)):
            qg = cmath.exp(2j * cmath.pi * ctx.hbar * g)
            mmax = max(8, math.ceil(-40.0 / math.log10(abs(q))))
            kmax = max(4, math.ceil(-40.0 / math.log10(abs(p))))
            want = 1.0 + 0.0j
            for k in range(kmax + 1):
                for m in range(mmax + 1):
                    a = z * q ** m * q * p ** k
                    b = q ** m / z * p ** (k + 1)
                    want *= (1 - a) / (1 - a * qg) * (1 - b / qg) / (1 - b)
            got = tr._dplus(z, g, ctx)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_debiard_first_operator(ctx3):
    d1 = tr.build_d_ops(C0, U0, ctx3)[0]
    lam = wt.sample_generic(45, ctx3)
    terms = [theta((lam[i] - lam[k]), ctx3, 1) / theta((lam[i] - lam[k]), ctx3)
             for i in range(3) for k in range(3) if k != i]
    assert abs(pdo_coeff(d1, (0, 0, 0), lam) - sum(terms)) \
        / sum(abs(t) for t in terms) < 1e-13
    for i in range(3):
        ei = tuple(1 if a == i else 0 for a in range(3))
        assert abs(pdo_coeff(d1, ei, lam) - (-3 / C0)) < 1e-12


def test_debiard_second_operator(ctx3):
    d2 = tr.build_d_ops(C0, U0, ctx3)[1]
    lam = wt.sample_generic(46, ctx3)
    jd = tr.delta_jet(lam[None], 2, ctx3)
    for i in range(3):
        for j in range(i + 1, 3):
            eij = tuple(1 if a in (i, j) else 0 for a in range(3))
            assert abs(pdo_coeff(d2, eij, lam) - (3 / C0) ** 2) < 1e-11
    zterms = [oa.jet_deriv(jd, 3, (int(a in (i, j)) for a in range(3)))[0, 0]
              / jd[0, 0] for i in range(3) for j in range(i + 1, 3)]
    assert abs(pdo_coeff(d2, (0, 0, 0), lam) - sum(zterms)) \
        / sum(abs(t) for t in zterms) < 1e-12


def test_debiard_commutators(ctx3):
    samples = wt.sample_many(47, 3, ctx3)
    d_ops = tr.build_d_ops(C0, U0, ctx3)
    for a in range(3):
        for b in range(a + 1, 3):
            res = oa.pdo_commutator_residual(d_ops[a], d_ops[b], samples, ctx3)
            assert res.rel < 1e-8


def test_pdo_commutator_reads_each_operand_once_per_batch(ctx3, monkeypatch):
    # every table read of D[1..3] asks for its ratios d^J Delta / Delta once
    real = tr._delta_ratios
    reads = []
    monkeypatch.setattr(tr, "_delta_ratios", lambda jd, order, jsets, n:
                        reads.append((len(jd), len(jsets), order))
                        or real(jd, order, jsets, n))
    d1, d2, _ = tr.build_d_ops(C0, U0, ctx3)
    k = 3
    samples = wt.sample_many(47, k, ctx3)
    res = oa.pdo_commutator_residual(d1, d2, samples, ctx3)
    assert res.rel < 1e-8
    # D[1] D[2] reads D[1] at order 0 and D[2] one order deeper; D[2] D[1]
    # reads D[2] at order 0 and D[1] two orders deeper; operator_residual
    # then reads each composition once, at order 0 (D[3] is not read)
    assert sorted(reads) == sorted([(k, 4, 0), (k, 7, 1), (k, 7, 0),
                                    (k, 4, 2)])


def test_debiard_divides_once_per_subset(monkeypatch):
    # D[1..3] at n = 3 hold 4 + 12 + 26 (I, J) items but only 4, 7 and 8
    # distinct J, and d^J Delta / Delta depends on J alone: a table read
    # inverts Delta's jet once and multiplies it into each distinct d^J Delta
    ctx = default_context(3)
    inverses, products = [], []
    inv, mul = oa.jet_inv, oa.jet_mul
    monkeypatch.setattr(tr, "jet_inv", lambda x, n: inverses.append(x.shape)
                        or inv(x, n))
    monkeypatch.setattr(tr, "jet_mul", lambda x, y, n: products.append(1)
                        or mul(x, y, n))
    d_ops = tr.build_d_ops(C0, U0, ctx)
    samples = wt.sample_many(47, 2, ctx)
    first = []
    for op, distinct in zip(d_ops, (4, 7, 8)):
        del inverses[:], products[:]
        first.append(op.table(samples, 1))
        # Delta's jet is 2 pair products, then one product per distinct
        # nonempty J (the empty J's ratio is the constant 1)
        assert len(inverses) == 1 and len(products) == 2 + distinct - 1
    again = [op.table(samples, 1) for op in d_ops]
    for a, b in zip(first, again):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[key], b[key]) for key in a)


def test_differential_tables_hold_the_jets_of_their_values(ctx3):
    # each coefficient's first derivatives in a table read at order 2 match
    # central differences of its values, and every jet has the width of
    # order 2 (a wider one would only broadcast)
    lam = wt.sample_generic(44, ctx3)
    h = 1e-5
    ops = [tr.hamiltonian_cm(C0, ctx3), *tr.build_d_ops(C0, U0, ctx3),
           tr.krichever_k(C0, U0, ctx3)[0][1]]
    for op in ops:
        table = op.table(lam[None], 2)
        assert table.keys() == set(op.terms)
        for alpha, jet in table.items():
            assert jet.shape == (1, 10)
            for i in range(3):
                e = tuple(int(a == i) for a in range(3))
                fd = (pdo_coeff(op, alpha, shift(lam, e, h))
                      - pdo_coeff(op, alpha, shift(lam, e, -h))) / (2 * h)
                got = oa.jet_deriv(jet, 3, e)[0, 0]
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


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


@pytest.mark.parametrize("n", [2, 3])
def test_cm_limit_suite_passes_across_seeds(n):
    # an unsymmetrized two-step 2E(h) - E(2h) fails 8 of these 48 runs
    failed = [seed for seed in range(24)
              if not run_suite("cm-limit", default_context(n), seed).passed]
    assert failed == []


def test_l_op_entry_reads_one_coefficient_tensor(ctx3, monkeypatch):
    calls = []
    real = tr.l_coeff_tensor

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(tr, "l_coeff_tensor", counted)
    lam = wt.sample_generic(52, ctx3)
    entry = tr.l_op(C0, U0, ctx3).entry(0, 1)
    oa.apply_op(entry, ones, lam, ctx3)
    assert len(calls) == 1


def test_genfunc_reads_one_coefficient_tensor(ctx3, monkeypatch):
    # the determinant reads the table of L once, not once per entry
    calls = []
    real = tr.l_coeff_tensor
    monkeypatch.setattr(tr, "l_coeff_tensor",
                        lambda *args: calls.append(args) or real(*args))
    samples = wt.sample_many(53, 4, ctx3)
    assert tr.verify_genfunc(C0, U0, 0.3 + 0.1j, ctx3, samples).rel < 1e-7
    assert len(calls) == 1


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


# ---------------------------------------- array contractions against oracles

def _tree_m_trace(c, u, d, ctx, wrong_level=None):
    """M_d as the closure tree of compose / op_add / op_scale over l_op
    entries; the level wrong_level is read at u - (r+1) hbar instead."""
    levels = [tr.l_op(c, u - (r + (r == wrong_level)) * ctx.hbar, ctx)
              for r in range(d)]
    parts = []
    for big_i in itertools.combinations(range(ctx.n), d):
        for perm in itertools.permutations(range(d)):
            op = levels[0].entry(big_i[perm[0]], big_i[0])
            for r in range(1, d):
                op = oa.compose(op, levels[r].entry(big_i[perm[r]], big_i[r]),
                                ctx)
            parts.append(oa.op_scale(op, float(oa.perm_sign(perm))))
    return oa.op_add(*parts)


def _det_by_definition(entries, t, samples):
    """:det[entries - t]: from its definition, a signed sum over permutations
    and over one key of each factor, on the entries' own tables."""
    n, zero = len(entries), (0,) * entries[0][0].n
    tabs = [[dict(op.table(samples)) for op in row] for row in entries]
    for i in range(n):
        tabs[i][i][zero] = tabs[i][i].get(zero, np.zeros(len(samples))) - t
    out = {}
    for perm in itertools.permutations(range(n)):
        for choice in itertools.product(*[tabs[r][perm[r]].items()
                                          for r in range(n)]):
            key = wt.canonical_key(np.sum([k for k, _ in choice], axis=0))
            value = oa.perm_sign(perm) * np.prod([v for _, v in choice], axis=0)
            out[key] = out.get(key, 0.0) + value
    return out


def _table_rel(got, want):
    zero = 0.0 * next(iter(want.values()))
    keys = set(got) | set(want)
    diff = max(np.max(np.abs(got.get(k, zero) - want.get(k, zero))) for k in keys)
    return diff / max(np.max(np.abs(v)) for v in want.values())


def _outcome(fn):
    """The value of fn(), or 'raised' if the intertwiner guard rejects it."""
    try:
        return fn()
    except SingularParameterError:
        return "raised"


def test_fused_trace_matches_closure_tree():
    rng = np.random.default_rng(606)
    raised = []
    for n in (2, 3, 4):
        ctx = default_context(n)
        samples = wt.sample_many(61, 4, ctx)
        for d in range(1, n + 1):
            for _ in range(3 if (n, d) == (4, 4) else 1):
                c, u = rand_complex(rng), rand_complex(rng)
                # separate caches: each path builds its own intertwiners
                got = _outcome(lambda: tr.m_trace(c, u, d, ctx.replace())
                               .table(samples))
                want = _outcome(lambda: _tree_m_trace(c, u, d, ctx.replace())
                                .table(samples))
                assert (got == "raised") == (want == "raised"), (n, d)
                if got == "raised":
                    raised.append((n, d))
                    continue
                assert _table_rel(got, want) <= 1e-12, (n, d)
    # the guard raised on some n = 4 draws, and both paths agreed there
    assert (4, 4) in raised


def test_fused_trace_negative_control(ctx3):
    samples = wt.sample_many(62, 4, ctx3)
    got = tr.m_trace(C0, U0, 3, ctx3).table(samples)
    for r in range(3):
        wrong = _tree_m_trace(C0, U0, 3, ctx3, wrong_level=r).table(samples)
        assert _table_rel(got, wrong) > 1e-3


def test_normal_det_matches_definition():
    rng = np.random.default_rng(607)
    for n in (2, 3, 4):
        ctx = default_context(n)
        samples = wt.sample_many(63, 4, ctx)
        c, u, t = rand_complex(rng), rand_complex(rng), rand_complex(rng, 0.8)
        for matrix, tt in ((tr.l_op(c, u, ctx), t),
                           (tr.l_tilde(c, u, ctx), t),
                           (tr.sekiguchi_matrix(c, u, t, ctx), 0.0)):
            entries = [[matrix.entry(i, j) for j in range(n)]
                       for i in range(n)]
            got = oa.normal_det(matrix, tt, ctx).table(samples)
            assert _table_rel(got, _det_by_definition(entries, tt, samples)) \
                <= 1e-12, n


def test_trace_closed_theta_tables_do_not_grow_with_samples(monkeypatch):
    from etlax import belavin as bv
    calls = []
    real = bv.theta_level_table
    monkeypatch.setattr(bv, "theta_level_table",
                        lambda *args: calls.append(args) or real(*args))
    for d in (1, 2, 3):
        counts = []
        for count in (4, 12):
            ctx = default_context(3)
            samples = wt.sample_many(64, count, ctx)
            calls.clear()
            tr.verify_trace_closed(C0, U0, d, ctx, samples)
            counts.append(len(calls))
        # one intertwiner batch per fused table (24, 96, 240 tables at 12
        # samples when every intertwiner was built on its own)
        assert counts == [1, 1], d


@pytest.mark.parametrize("n", [2, 3])
def test_operator_suites_pass_across_seeds(n):
    failed = [(name, seed)
              for name in ("trace-closed", "commute", "genfunc", "rll",
                           "debiard", "krichever", "theta-space")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_remaining_suites_pass_across_seeds(n):
    # with the operator suites gated above and the vertex and theta
    # identity suites in test_belavin.py, every suite of verify all is
    # gated at seeds 0-7
    failed = [(name, seed)
              for name in ("ruijsenaars", "macdonald-limit", "eigen-l1")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


def test_context_memoizes_no_theta_value_or_intertwiner():
    ctx = default_context(2)
    for name in ("intertwiner", "debiard", "krichever", "eigen-l1"):
        run_suite(name, ctx, 0)
    # theta values and intertwiners are read from tables on every use
    assert {key[0] for key in ctx._cache} == {"eta", "chilat"}


def test_delta_jet_reads_one_table_per_derivative_order(monkeypatch):
    reads = table_reads(monkeypatch)
    for n in (2, 3, 4):
        ctx = default_context(n)
        lams = wt.sample_many(47, 3, ctx)
        del reads[:]
        jet = tr.delta_jet(lams[:1], 3, ctx)
        # every pair lam_k - lam_l in one table per order 0..3, where the
        # per-monomial jets read theta once per monomial and pair
        assert reads == [n * (n - 1) // 2] * 4
        want = math.prod(theta((lams[0][k] - lams[0][l]), ctx)
                         for k in range(n) for l in range(k + 1, n))
        assert abs(jet[0, 0] - want) <= 1e-14 * abs(want)
        # and a batch reads the same four tables, over every point
        del reads[:]
        batch = tr.delta_jet(lams, 3, ctx)
        assert reads == [3 * n * (n - 1) // 2] * 4
        assert np.array_equal(batch[:1], jet)


def _nan_at_zero_key(coeffs_at):
    def poisoned(op, lam):
        out = coeffs_at(op, lam)
        return {alpha: (math.nan if not any(alpha) else value)
                for alpha, value in out.items()}
    return poisoned


def _nan_in_d_tables(build_d_ops):
    # every read of a D-operator table gets a NaN coefficient jet
    def poisoned(*args):
        return [oa.DifferentialOperator(op.n, op.terms, lambda lams, order=0,
                                        _table=op.table: {
            alpha: (jet * math.nan if not any(alpha) else jet)
            for alpha, jet in _table(lams, order).items()})
                for op in build_d_ops(*args)]
    return poisoned


def _nan_in_matrix(apply_matrix):
    def poisoned(matrix, f, lams, ctx):
        out = apply_matrix(matrix, f, lams, ctx)
        out[0, 0, 1] = math.nan
        return out
    return poisoned


def _nan_in_r(build_r):
    def poisoned(u, ctx):
        r = build_r(u, ctx)
        entries = r.entries.copy()
        entries[0, 1, 0, 1] = math.nan
        return type(r)(entries, r.u)
    return poisoned


def _nan_in_fused_rcheck(fused_rcheck_matrix):
    def poisoned(*args):
        out = fused_rcheck_matrix(*args).copy()
        out[0, 0] = math.nan
        return out
    return poisoned


_NAN_CASES = [
    ("rll", 2, "c0-identity", "suites", "apply_matrix", _nan_in_matrix),
    ("rll", 3, "fused-rll-k2", "transfer", "fused_rcheck_matrix",
     _nan_in_fused_rcheck),
    ("krichever", 2, "c0-pure-derivative", "suites", "_coeffs_at",
     _nan_at_zero_key),
    ("debiard", 2, "first-operator-form", "suites", "_coeffs_at",
     _nan_at_zero_key),
    ("debiard", 2, "second-operator-form", "suites", "_coeffs_at",
     _nan_at_zero_key),
    ("debiard", 2, "pairwise-commutators", "transfer", "build_d_ops",
     _nan_in_d_tables),
    ("eigen-l1", 2, "eigenvalue-shared", "thetaspace", "build_r", _nan_in_r),
]


@pytest.mark.parametrize("name, n, case, module, attr, poison", _NAN_CASES,
                         ids=[f"{c[0]}/{c[2]}" for c in _NAN_CASES])
def test_nan_residual_fails_its_suite_case(monkeypatch, name, n, case, module,
                                           attr, poison):
    # each of these cases reduced with Python's max, which drops a NaN,
    # except pairwise-commutators, which reads the D-operator tables through
    # pdo_commutator_residual: a NaN must neither raise nor pass there
    import importlib
    owner = importlib.import_module(f"etlax.{module}")
    monkeypatch.setattr(owner, attr, poison(getattr(owner, attr)))
    rep = run_suite(name, default_context(n), 0)
    got = {c.name: c for c in rep.cases}[case]
    assert math.isnan(got.rel) and not got.ok and not rep.passed


def _two_read_hamiltonian(c, ctx, P, order):
    """In-test transcription of the H table that read the pair theta tables
    twice: once for Delta's jet (its g_i) and once for the potential."""
    n = ctx.n
    g = c / n
    units = [tuple(int(a == i) for a in range(n)) for i in range(n)]
    firsts = [units[k] for k, _ in itertools.combinations(range(n), 2)]
    ratios = tr._delta_ratios(tr.delta_jet(P, order + 2, ctx), order + 1,
                              [(i,) for i in range(n)], n)
    pair_jets = tr._pair_jets(P, order + 2, ctx)
    pair_inv = oa.jet_inv(pair_jets, n)
    deeper = math.comb(n + order + 1, n)
    width = math.comb(n + order, n)
    out, zero = {}, oa.jet_constant(0.0, len(P), n, order)
    for i, e in enumerate(units):
        gi = ratios[(i,)] * g
        out[tuple(2 * x for x in e)] = oa.jet_constant(1.0, len(P), n, order)
        out[e] = gi[:, :width] * (-2.0)
        zero = (zero + oa.jet_deriv(gi, n, e) * (-1.0)
                + oa.jet_mul(gi[:, :width], gi, n))
    pot = sum(oa.jet_deriv(oa.jet_mul(oa.jet_deriv(pair_jets[:, p], n, e)
                                      [:, :deeper], pair_inv[:, p], n), n, e)
              for p, e in enumerate(firsts))
    out[(0,) * n] = zero + 2.0 * g * (g + 1.0) * pot
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hamiltonian_reads_the_pair_tables_once(n, monkeypatch):
    ctx = default_context(n)
    P = wt.sample_many(71, 3, ctx)
    ham = tr.hamiltonian_cm(C0, ctx)
    for order in (0, 1, 2):
        want = _two_read_hamiltonian(C0, ctx, P, order)
        reads = table_reads(monkeypatch)
        got = ham.table(P, order)
        # one theta table per derivative order 0..order+2 of the pair jets
        assert reads == [3 * n * (n - 1) // 2] * (order + 3)
        monkeypatch.undo()
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key], want[key]) for key in got)


def test_fused_rll_reads_every_test_function_once_per_side(ctx3, rng):
    lams = wt.sample_many(72, 2, ctx3)
    calls, fns = [], []
    for _ in range(3):
        f = sumzero_exp(rng, 3)
        fns.append(lambda P, f=f: calls.append(P.shape) or f(P))
    res = tr.verify_fused_rll(C0, U0, 0.31 - 0.12j, 2, 2, ctx3, lams, fns)
    assert res.rel < 1e-8
    assert len(calls) == 2 * len(fns)
    # the stacked functions read as the worst of the functions one by one
    alone = [tr.verify_fused_rll(C0, U0, 0.31 - 0.12j, 2, 2, ctx3, lams, [f])
             for f in fns]
    assert abs(res.abs - max(r.abs for r in alone)) <= 1e-12 * res.abs / res.rel
