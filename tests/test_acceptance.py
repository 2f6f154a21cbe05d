"""Acceptance battery: every headline claim at its stated tolerance.

Each criterion is one test (its PASSED/FAILED row is the pass/fail line;
an explicit `ACCEPTANCE k: ...` line is also printed for -s runs).

Criterion 11's dimension clause: the stated rank (l+n)!/(l!n!) of the
symmetric level-l space, 3/6/4 for (n,l) = (2,1)/(2,2)/(3,1), cannot be
attained.  A level-l function has Fourier modes in P and its coefficients are
fixed by their values on P/lQ, so the whole level-l space has dimension
n*l^(n-1) = 2/4/3, below every stated value.  The symmetric subspace has one
dimension per S_n-orbit on P/lQ, (l+n-1)!/(l!(n-1)!) = 2/3/3.  The test
checks that corrected target against a lattice oracle written here, which
shares no code with thetaspace: it enumerates P/lQ and its orbits and builds
their level-l theta sums.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import fay_residual, pdo_coeff, rand_complex, sumzero_exp
from etlax import belavin as bv
from etlax import opalg as oa
from etlax import theta as th
from etlax import thetaspace as ts
from etlax import transfer as tr
from etlax import weights as wt
from etlax.context import default_context


def _worst(found):
    """The worst rel of the residuals found by worst_of: a NaN wins, so a
    criterion that computed one fails (builtin max(0.0, nan) is 0.0)."""
    return th.worst_of(found).rel


def _worst_number(values):
    """_worst over bare deviations."""
    return _worst(th.Residual(v, v) for v in values)


def _report(num, label, worst, tol):
    ok = worst < tol
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"worst={worst:.3g} tol={tol:g}")
    return ok


def test_criterion_01_r_matrix_characterization():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([1, n])
        found.append(bv.verify_r_zero_is_permutation(ctx))
        found.append(bv.verify_r_holomorphy(ctx))
        for _ in range(10):
            u = rand_complex(rng)
            sym = bv.verify_r_symmetry(u, ctx)
            qp = bv.verify_r_quasiperiodicity(u, ctx)
            found += [sym["g"], sym["h"], qp["period-1"], qp["period-tau"]]
    assert _report(1, "five characterization conditions", _worst(found), 1e-8)


def test_criterion_02_yang_baxter():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([2, n])
        for _ in range(25):
            found.append(bv.verify_ybe(rand_complex(rng), rand_complex(rng),
                                       rand_complex(rng), ctx))
            lam = wt.sample_generic(int(rng.integers(0, 2 ** 31)), ctx)
            found.append(bv.verify_face_ybe(rand_complex(rng),
                                            rand_complex(rng),
                                            rand_complex(rng), lam, ctx))
    assert _report(2, "vertex and face Yang-Baxter", _worst(found), 1e-8)


def test_criterion_03_rll_relation():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([3, n])
        lams = wt.sample_many(int(rng.integers(0, 2 ** 31)), 5, ctx)
        fns = [sumzero_exp(rng, n) for _ in range(5)]
        found.append(tr.verify_rll(rand_complex(rng), rand_complex(rng),
                                   rand_complex(rng), ctx, lams, fns))
    assert _report(3, "RLL exchange relation", _worst(found), 1e-8)


def test_criterion_04_main_theorem():
    found_eq, found_comm = [], []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([4, n])
        samples = wt.sample_many(int(rng.integers(0, 2 ** 31)), 12, ctx)
        for d in range(1, n + 1):
            for _ in range(10):
                found_eq.append(tr.verify_trace_closed(
                    rand_complex(rng), rand_complex(rng), d, ctx, samples))
        c = rand_complex(rng)
        for d in range(1, n + 1):
            for dp in range(1, n + 1):
                found_comm.append(tr.verify_commutation(
                    c, rand_complex(rng), rand_complex(rng), d, dp, ctx,
                    samples))
        found_comm.append(tr.verify_commutation_trace(
            c, rand_complex(rng), rand_complex(rng), 1, min(2, n), ctx,
            samples))
    ok1 = _report(4, "trace equals closed form", _worst(found_eq), 1e-7)
    ok2 = _report(4, "commuting family", _worst(found_comm), 1e-8)
    assert ok1 and ok2


def test_criterion_05_determinant_identities():
    ctx = default_context(2)
    rng = np.random.default_rng(5)
    found_q, found_f = [], []
    for d in range(1, 5):
        done = 0
        while done < 50:
            u = rand_complex(rng)
            lams = [rand_complex(rng) for _ in range(d)]
            mus = [rand_complex(rng) for _ in range(d)]
            found_q.append(th.verify_qfay(d, u, lams, mus, ctx))
            try:
                found_f.append(fay_residual(d, u, lams, mus, ctx))
            except th.SingularParameterError:
                continue
            done += 1
    found_v = []
    for n in (2, 3, 4):
        sub = default_context(n)
        for _ in range(50):
            found_v.append(th.verify_vandermonde(
                [rand_complex(rng) for _ in range(n)], sub))
    ok = _report(5, "deformed determinant identity", _worst(found_q), 1e-9)
    ok &= _report(5, "trisecant identity", _worst(found_f), 1e-9)
    ok &= _report(5, "Vandermonde-type determinant", _worst(found_v), 1e-9)
    assert ok


def test_criterion_06_generating_function():
    found, lead_errs = [], []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([6, n])
        samples = wt.sample_many(int(rng.integers(0, 2 ** 31)), 12, ctx)
        c, u = rand_complex(rng), rand_complex(rng)
        for _ in range(5):
            found.append(tr.verify_genfunc(c, u, rand_complex(rng, 0.8), ctx,
                                           samples))
        found.append(tr.verify_genfunc(c, u, 0.0, ctx, samples))
        # leading coefficient of the operator polynomial det(t) is (-1)^n id
        lop = tr.l_op(c, u, ctx)
        lam = samples[0]
        ts_pts = [0.37 - 0.11j, -0.29 + 0.17j, 0.13 + 0.41j, 0.52 + 0.08j][: n + 1]
        vander = np.array([[t ** k for k in range(n + 1)] for t in ts_pts])
        vals = np.array([oa.normal_det(lop, t, ctx).coeff((0,) * n, lam)
                         for t in ts_pts])
        coeffs = np.linalg.solve(vander, vals)
        lead_errs.append(abs(coeffs[n] - (-1.0) ** n))
    ok = _report(6, "normal determinant equals generating sum", _worst(found),
                 1e-7)
    ok &= _report(6, "t^n edge coefficient", _worst_number(lead_errs), 1e-7)
    assert ok


def test_criterion_07_ground_state_conjugation():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        assert abs(ctx.q) <= 0.5
        rng = np.random.default_rng([7, n])
        for d in range(1, n + 1):
            lam = wt.sample_generic(int(rng.integers(0, 2 ** 31)), ctx)
            out = tr.verify_ruijsenaars(rand_complex(rng), rand_complex(rng),
                                        d, lam, ctx)
            found += [out["ratio"], out["coefficient"]]
    assert _report(7, "squared conjugation identity", _worst(found), 1e-6)


def test_criterion_08_krichever_matrix():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([8, n])
        samples = wt.sample_many(int(rng.integers(0, 2 ** 31)), 3, ctx)
        found.append(tr.verify_krichever(rand_complex(rng), rand_complex(rng),
                                         ctx, samples))
    assert _report(8, "Lax matrix hbar-derivative", _worst(found), 1e-5)


def test_nan_residual_turns_a_criterion_red(monkeypatch):
    # one of the two Krichever checks computes a NaN residual: the
    # criterion must fail, where max(worst, nan) would have kept worst
    krichever = tr.verify_krichever
    calls = []

    def second_nan(*args):
        calls.append(1)
        res = krichever(*args)
        return th.Residual(float("nan"), res.abs) if len(calls) == 2 else res
    monkeypatch.setattr(tr, "verify_krichever", second_nan)
    with pytest.raises(AssertionError):
        test_criterion_08_krichever_matrix()
    assert len(calls) == 2
    monkeypatch.undo()
    test_criterion_08_krichever_matrix()


def test_criterion_09_differential_limit():
    ctx3 = default_context(3)
    rng = np.random.default_rng(9)
    samples3 = wt.sample_many(int(rng.integers(0, 2 ** 31)), 3, ctx3)
    c = rand_complex(rng) + 0.25
    # displayed forms
    d_ops = tr.build_d_ops(c, 0.0, ctx3)
    lam = samples3[0]
    terms = [th.theta((lam[i] - lam[k]), ctx3, 1) / th.theta((lam[i] - lam[k]), ctx3)
             for i in range(3) for k in range(3) if k != i]
    form_errs = [abs(pdo_coeff(d_ops[0], (0, 0, 0), lam) - sum(terms))
                 / sum(abs(t) for t in terms)]
    for i in range(3):
        ei = tuple(1 if a == i else 0 for a in range(3))
        form_errs.append(abs(pdo_coeff(d_ops[0], ei, lam) - (-3 / c)) / abs(3 / c))
        for j in range(i + 1, 3):
            eij = tuple(1 if a in (i, j) else 0 for a in range(3))
            form_errs.append(abs(pdo_coeff(d_ops[1], eij, lam) - (3 / c) ** 2)
                             / abs(3 / c) ** 2)
    form_err = _worst_number(form_errs)
    comm = _worst(oa.pdo_commutator_residual(d_ops[a], d_ops[b], samples3, ctx3)
                  for a in range(3) for b in range(a + 1, 3))
    ctx2 = default_context(2)
    samples2 = wt.sample_many(int(rng.integers(0, 2 ** 31)), 2, ctx2)
    vecs = [v - v.mean() for v in (rng.normal(size=2), rng.normal(size=2))]
    h_err = _worst([tr.verify_h_identity(c, ctx2, samples2),
                    tr.verify_h_identity(c, ctx3, samples3)])
    limit_err = tr.verify_cm_limit(c, ctx2, samples2, vecs,
                                   steps=(1e-3, 2e-3)).rel
    ok = _report(9, "displayed differential operators", form_err, 1e-7)
    ok &= _report(9, "pairwise commutators", comm, 1e-7)
    ok &= _report(9, "hamiltonian identity", h_err, 1e-7)
    ok &= _report(9, "elliptic CM limit", limit_err, 1e-4)
    assert ok


def test_criterion_10_macdonald_limit():
    found = []
    for n in (2, 3):
        ctx = default_context(n)
        rng = np.random.default_rng([10, n])
        mac = ctx.replace(tau=30j)
        samples = wt.sample_many(int(rng.integers(0, 2 ** 31)), 5, mac)
        for d in range(1, n + 1):
            found.append(tr.verify_macdonald_limit(
                rand_complex(rng), rand_complex(rng), d, ctx, samples))
    assert _report(10, "trigonometric coefficients", _worst(found), 1e-9)


# Lattice oracle for criterion 11's dimension clause.  It shares no code with
# thetaspace: weights are integer vectors v in Z^n, read as the sum-zero
# weight v - mean(v), so P = Z^n / Z(1,...,1) and Q = {v : sum(v) = 0}.

def _lq_classes(n, l):
    """One integer vector per class of P/lQ: the j-th fundamental coset
    (1^j 0^(n-j)) plus sum_k c_k alpha_k with 0 <= c_k < l."""
    reps = []
    for j in range(n):
        for cs in itertools.product(range(l), repeat=n - 1):
            v = [1] * j + [0] * (n - j)
            for k, c in enumerate(cs):
                v[k] += c
                v[k + 1] -= c
            reps.append(tuple(v))
    return reps


def _same_lq_class(v, w, l):
    """v - w lies in Z(1,...,1) + lQ: sum(v - w) = k n and every
    coordinate of v - w - k(1,...,1) is divisible by l."""
    d = [a - b for a, b in zip(v, w)]
    k, r = divmod(sum(d), len(d))
    return r == 0 and all((x - k) % l == 0 for x in d)


def _class_index(v, reps, l):
    hits = [i for i, w in enumerate(reps) if _same_lq_class(v, w, l)]
    assert len(hits) == 1, f"{v} lies in {len(hits)} classes of P/lQ"
    return hits[0]


def _sn_orbits(reps, l):
    """The S_n-orbits on P/lQ, as sets of class indices."""
    return {frozenset(_class_index(perm, reps, l)
                      for perm in itertools.permutations(v))
            for v in reps}


def _lattice_theta(v, l, tau, coords):
    """sum over gamma in (v + lQ) of exp(2 pi i <lambda, gamma>
    + pi i tau |gamma|^2 / l), at each row of coords (sum-zero lambdas)."""
    n = len(v)
    radius2 = 40.0 * l
    span = math.isqrt(int(radius2)) + 2     # the q box holds the whole ball
    gammas = []
    for q in itertools.product(range(-span, span + 1), repeat=n - 1):
        w = np.array(v, float) + l * np.array(q + (-sum(q),), float)
        gamma = w - w.mean()
        if gamma @ gamma <= radius2:
            gammas.append(gamma)
    gammas = np.array(gammas)
    norms = np.einsum("ij,ij->i", gammas, gammas)
    return np.exp(2j * np.pi * (coords @ gammas.T)
                  + 1j * np.pi * tau * norms / l).sum(axis=1)


def _rank(columns):
    """Numerical rank at gram_rank's 1e-8 relative cutoff, columns scaled
    to unit norm; also the next singular value over the largest."""
    mat = np.column_stack(columns)
    svals = np.linalg.svd(mat / np.linalg.norm(mat, axis=0), compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    gap = svals[rank] / svals[0] if rank < len(svals) else 0.0
    return rank, gap


def _character_products(l, pts, ctx):
    basis = ts.character_basis(l, ctx)
    return [basis.function(m, ctx)(pts) for m in range(len(basis))]


def test_criterion_11_dimension_formula_as_stated():
    """Dimension of the symmetric level-l theta space, against a lattice count.

    A level-l function is Q-periodic with Fourier modes in P, and a shift by
    tau*alpha multiplies it by exp(-2 pi i l(<lambda, alpha> + tau)), so its
    Fourier coefficients are fixed by their values on P/lQ: the whole
    level-l space has dimension n*l^(n-1) (2, 4, 3 for (n, l) = (2, 1),
    (2, 2), (3, 1)).  The symmetric subspace has one dimension per
    S_n-orbit on P/lQ, (l+n-1)!/(l!(n-1)!) = 2, 3, 3.  The stated
    (l+n)!/(l!n!) = 3, 6, 4 exceeds n*l^(n-1) and cannot be attained.

    The oracle above enumerates P/lQ and its orbits directly and builds the
    lattice theta sum of every class and of every orbit.  The program's
    character products must have rank equal to the orbit count and lie in
    the span of the orbit sums; level-(l+1) products must not (negative
    control), so the clause can still fail.
    """
    rows, bad = [], []
    for n, l in ((2, 1), (2, 2), (3, 1)):
        ctx = default_context(n)
        pts = wt.sample_many(11, 30, ctx)
        coords = pts
        reps = _lq_classes(n, l)
        # every vector of the box [0, l]^n lies in exactly one class, and
        # together they reach every class: the reps list P/lQ once each
        covered = {_class_index(v, reps, l)
                   for v in itertools.product(range(l + 1), repeat=n)}
        orbits = _sn_orbits(reps, l)
        thetas = [_lattice_theta(v, l, ctx.tau, coords) for v in reps]
        orbit_sums = [sum(thetas[i] for i in orb) for orb in orbits]
        products = _character_products(l, pts, ctx)
        full, _ = _rank(thetas)
        sym, _ = _rank(orbit_sums)
        joint, gap = _rank(orbit_sums + products)
        control, _ = _rank(orbit_sums + _character_products(l + 1, pts, ctx))
        measured = ts.gram_rank(l, pts, ctx)
        bound = n * l ** (n - 1)
        stated = math.comb(l + n, n)
        row = dict(n=n, l=l, classes=len(reps), full=full,
                   orbits=len(orbits), sym=sym, products=measured,
                   joint=joint, gap=f"{gap:.1e}", control=control,
                   stated=stated)
        rows.append(row)
        if not (len(covered) == len(reps) == full == bound
                and len(orbits) == sym == measured == joint
                == math.comb(l + n - 1, l)
                and control > sym and stated > bound):
            bad.append(row)
    ok = not bad
    print(f"ACCEPTANCE 11 [dimension formula as stated]: "
          f"{'PASS' if ok else 'FAIL'} rows={rows}; the stated (l+n)!/(l!n!) "
          "exceeds n*l^(n-1), the dimension of the whole level-l space, so "
          "the symmetric dimension is the S_n-orbit count on P/lQ, "
          "(l+n-1)!/(l!(n-1)!)")
    assert ok, f"dimension clause fails against the lattice count: {bad}"


def test_criterion_11_invariance_and_module_structure():
    u = 0.213 + 0.057j
    fits, controls = [], []
    for n, l in ((2, 1), (2, 2), (3, 1)):
        ctx = default_context(n)
        lop = tr.l_op(float(l), u, ctx)
        for i in range(n):
            for j in range(n):
                fits.append(ts.fit_action(l, u, lop.entry(i, j), ctx, seed=3)[1])
        m1 = tr.m_closed(float(l), u, 1, ctx)
        controls.append(ts.negative_control(l, m1, ctx, seed=4).rel)
    rel_err = _worst([ts.verify_thminl1(u, default_context(2)),
                      ts.verify_thminl1(u, default_context(3))])
    iso_err = ts.verify_module_iso(2, u, default_context(2)).rel
    eigs = []
    for n in (2, 3):
        out = ts.m1_eigen_check(u, default_context(n))
        eigs += [out["eigen"], out["shared"]]
    ok = _report(11, "invariance of the symmetric theta space", _worst(fits),
                 1e-7)
    ok &= _report(11, "level-1 module relation", rel_err, 1e-7)
    ok &= _report(11, "symmetrized module isomorphism", iso_err, 1e-7)
    ok &= _report(11, "shared eigenvalue", _worst(eigs), 1e-8)
    # a NaN control is no floor: every control must reach it
    neg_floor = min(controls)
    neg_ok = all(rel >= 1e-2 for rel in controls)
    print(f"ACCEPTANCE 11 [negative control floor]: "
          f"{'PASS' if neg_ok else 'FAIL'} floor={neg_floor:.3g} >= 0.01")
    assert ok and neg_ok


def test_criterion_12_determinism(tmp_path):
    from etlax import cli
    from etlax.report import strip_timing
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli.main(["all", "--seed", "42", "--json", str(out1)])
    rc2 = cli.main(["all", "--seed", "42", "--json", str(out2)])
    same = strip_timing(out1.read_text()) == strip_timing(out2.read_text())
    ok = rc1 == 0 and rc2 == 0 and same
    print(f"ACCEPTANCE 12 [determinism]: {'PASS' if ok else 'FAIL'} "
          f"exit=({rc1},{rc2}) identical={same}")
    assert ok
