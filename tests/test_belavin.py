"""R-matrix characterization, face weights, intertwiners, fusion."""

import math
import re
from itertools import product

import numpy as np
import pytest

from conftest import rand_complex, shift_eps, table_reads
from etlax.context import (ContextError, ModularContext, SingularParameterError,
                           default_context)
from etlax import belavin as bv
from etlax import theta as th
from etlax import weights as wt


def test_r_zero_is_permutation(ctx2, ctx3):
    assert bv.verify_r_zero_is_permutation(ctx2).rel < 1e-12
    assert bv.verify_r_zero_is_permutation(ctx3).rel < 1e-12


def test_eight_vertex_pattern(ctx2, rng):
    ent = bv.build_r(rand_complex(rng), ctx2).entries
    nonzero = [(i, j, a, b) for i in range(2) for j in range(2)
               for a in range(2) for b in range(2)
               if abs(ent[i, j, a, b]) > 1e-12]
    assert len(nonzero) == 8
    for i, j, a, b in nonzero:
        assert (i + j) % 2 == (a + b) % 2


def test_ice_rule(ctx3, rng):
    ent = bv.build_r(rand_complex(rng), ctx3).entries
    for i in range(3):
        for j in range(3):
            for a in range(3):
                for b in range(3):
                    if (i + j) % 3 != (a + b) % 3:
                        assert ent[i, j, a, b] == 0


def test_gh_symmetry(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for _ in range(3):
            out = bv.verify_r_symmetry(rand_complex(rng), ctx)
            assert out["g"].rel < 1e-10
            assert out["h"].rel < 1e-10


def test_quasi_periodicity_laws(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for _ in range(3):
            out = bv.verify_r_quasiperiodicity(rand_complex(rng), ctx)
            assert out["period-1"].rel < 1e-9
            assert out["period-tau"].rel < 1e-9


def test_quasi_periodicity_composition(ctx3, rng):
    # u -> u+1+tau through either law first agrees with the direct build
    u = rand_complex(rng)
    n = ctx3.n
    rm = bv.build_r(u, ctx3).as_matrix()
    g1 = np.kron(bv.g_matrix(ctx3), np.eye(n))
    h1 = np.kron(bv.h_matrix(ctx3), np.eye(n))
    via_1_then_tau = (-np.exp(2j * np.pi * ((u + 1) + ctx3.hbar / n
                                            + ctx3.tau / 2.0))) ** (-1) \
        * (h1 @ (-np.linalg.inv(g1) @ rm @ g1) @ np.linalg.inv(h1))
    direct = bv.build_r(u + 1 + ctx3.tau, ctx3).as_matrix()
    assert np.max(np.abs(direct - via_1_then_tau)) / np.max(np.abs(direct)) < 1e-9


def test_holomorphy_contour(ctx2, ctx3):
    assert bv.verify_r_holomorphy(ctx2).rel < 1e-10
    assert bv.verify_r_holomorphy(ctx3).rel < 1e-10


def test_resonant_hbar_rejected():
    with pytest.raises(ContextError):
        ModularContext(n=2, tau=0.1 + 0.8j, hbar=1.0 + 0.0j)


def test_ybe(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for _ in range(5):
            res = bv.verify_ybe(rand_complex(rng), rand_complex(rng),
                                rand_complex(rng), ctx)
            assert res.rel < 1e-9


def test_ybe_degenerate_equal_points(ctx3, rng):
    u = rand_complex(rng)
    assert bv.verify_ybe(u, u, rand_complex(rng), ctx3).rel < 1e-10


def test_face_weight_values_at_zero(ctx3):
    lam = wt.sample_generic(4, ctx3)
    assert abs(bv.face_weight(lam, 1, 1, "diag", 0.0, ctx3) - 1.0) < 1e-12
    assert abs(bv.face_weight(lam, 0, 2, "cis", 0.0, ctx3) - 1.0) < 1e-12
    assert abs(bv.face_weight(lam, 0, 2, "trans", 0.0, ctx3)) < 1e-12


def test_face_weight_argument_validation(ctx3):
    lam = wt.sample_generic(4, ctx3)
    with pytest.raises(ValueError):
        bv.face_weight(lam, 0, 1, "diag", 0.1, ctx3)
    with pytest.raises(ValueError):
        bv.face_weight(lam, 1, 1, "cis", 0.1, ctx3)
    with pytest.raises(ValueError):
        bv.face_weight(lam, 0, 1, "sideways", 0.1, ctx3)


def test_face_weight_resonant_rejection(ctx3):
    near = wt.canonical([1e-12, 0.0, 0.31])
    with pytest.raises(SingularParameterError):
        bv.face_weight(near, 0, 1, "cis", 0.1, ctx3)


def test_face_ybe(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for s in range(3):
            lam = wt.sample_generic(30 + s, ctx)
            res = bv.verify_face_ybe(rand_complex(rng), rand_complex(rng),
                                     rand_complex(rng), lam, ctx)
            assert res.rel < 1e-9


# In-test copy of the dict path walk the face matrices were built with
# before the integer path plan: every path re-walks its prefix through
# one-point shifts and reads each weight from scalar cached thetas.

def _scalar_face_weight(lam, i, j, kind, u, ctx):
    from etlax.theta import theta
    hb = ctx.hbar
    if kind == "diag":
        return theta(u + hb, ctx) / theta(hb, ctx)
    lij = (lam[i] - lam[j])
    den = theta(lij, ctx)
    if kind == "cis":
        return theta(-u + lij, ctx) / den
    return theta(u, ctx) / theta(hb, ctx) * theta(hb + lij, ctx) / den


def _walk_move(base, state, pos, delta, ctx):
    out = {}
    for path, coeff in state.items():
        lam = base
        for r in range(pos):
            lam = shift_eps(lam, path[r], ctx.hbar)
        i, j = path[pos], path[pos + 1]
        if i == j:
            w = _scalar_face_weight(lam, i, i, "diag", delta, ctx)
            out[path] = out.get(path, 0.0) + coeff * w
        else:
            w = _scalar_face_weight(lam, i, j, "cis", delta, ctx)
            out[path] = out.get(path, 0.0) + coeff * w
            swapped = path[:pos] + (j, i) + path[pos + 2:]
            w = _scalar_face_weight(lam, i, j, "trans", delta, ctx)
            out[swapped] = out.get(swapped, 0.0) + coeff * w
    return out


def _path_walk_matrix(base, k, moves, ctx):
    plist = list(product(range(ctx.n), repeat=k))
    index = {p: a for a, p in enumerate(plist)}
    mat = np.zeros((len(plist), len(plist)), dtype=complex)
    for a, p in enumerate(plist):
        state = {p: 1.0 + 0.0j}
        for pos, delta in moves:
            state = _walk_move(base, state, pos, delta, ctx)
        for pth, coeff in state.items():
            mat[index[pth], a] = coeff
    return mat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_operator_matrix_matches_path_walk(n, rng):
    # measured at most 1.2e-15 (n <= 3) and 5.0e-15 (n = 4)
    bound = 1e-12 if n <= 3 else 1e-10
    ctx = default_context(n)
    for trial in range(3):
        lam = wt.sample_generic(90 + trial, ctx)
        for k in range(2, n + 1):
            moves = [(int(rng.integers(0, k - 1)), rand_complex(rng))
                     for _ in range(int(rng.integers(2, 7)))]
            got = bv.face_operator_matrix(lam, k, moves, ctx.replace())
            want = _path_walk_matrix(lam, k, moves, ctx.replace())
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), \
                (n, k, moves)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_batch_matches_per_sample_matrices(n, rng):
    ctx = default_context(n)
    lams = [wt.sample_generic(80 + s, ctx) for s in range(5)]
    moves = [(m, np.array([rand_complex(rng) for _ in lams]))
             for m in bv.fusion_moves(3)]
    got = bv.face_operator_matrix(lams, 3, moves, ctx)
    assert got.shape == (5, n ** 3, n ** 3)
    bound = 1e-12 if n <= 3 else 1e-10
    for s, lam in enumerate(lams):
        mine = [(m, deltas[s]) for m, deltas in moves]
        # the batch of one is the same arithmetic: bit for bit
        assert np.array_equal(got[s], bv.face_operator_matrix(lam, 3, mine, ctx))
        want = _path_walk_matrix(lam, 3, mine, ctx)
        assert np.max(np.abs(got[s] - want)) <= bound * np.max(np.abs(want))
    # the face YBE over the batch is the worst of its samples, exactly
    us, vs, ws = (np.array([rand_complex(rng) for _ in lams]) for _ in range(3))
    batch = bv.verify_face_ybe(us, vs, ws, lams, ctx)
    assert batch == th.worst_of(bv.verify_face_ybe(*sample, ctx)
                                for sample in zip(us, vs, ws, lams))
    assert batch.rel < 1e-9
    # negative control: sample 2 with u and v exchanged on one side only
    rhs = bv.face_operator_matrix(lams, 3, [(0, us - vs), (1, us - ws),
                                            (0, vs - ws)], ctx)
    us[2], vs[2] = vs[2], us[2]
    lhs = bv.face_operator_matrix(lams, 3, [(1, vs - ws), (0, us - ws),
                                            (1, us - vs)], ctx)
    dev = np.max(np.abs(lhs - rhs), axis=(1, 2)) / np.max(np.abs(rhs), axis=(1, 2))
    assert dev[2] > 1e-3 and np.delete(dev, 2).max() < 1e-9


def _kron_loop(base, params, ctx):
    cols = []
    for path in product(range(ctx.n), repeat=len(params)):
        lam, acc = base, None
        for m, step in enumerate(path):
            vec = bv.intertwiners(params[m], lam, ctx).phi[:, step]
            acc = vec if acc is None else np.kron(acc, vec)
            lam = shift_eps(lam, step, ctx.hbar)
        cols.append(acc)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_tensor_matrix_matches_kron_loop(n, rng):
    # measured at most 3.5e-15 (prefix weights shifted once, not re-walked)
    ctx = default_context(n)
    lam = wt.sample_generic(93, ctx)
    for k in range(1, n + 1):
        params = [rand_complex(rng) for _ in range(k)]
        got = bv.phi_tensor_matrix(lam, params, ctx.replace())
        want = _kron_loop(lam, params, ctx.replace())
        assert got.shape == want.shape == (n ** k, n ** k)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_face_and_path_maps_read_batched_thetas(monkeypatch, rng):
    ctx = default_context(3)
    lam = wt.sample_generic(94, ctx)
    calls = []
    table = bv.theta_table
    monkeypatch.setattr(bv, "theta_table",
                        lambda us, c: calls.append(len(us)) or table(us, c))
    moves = [(m, rand_complex(rng)) for m in bv.fusion_moves(3)]
    bv.face_operator_matrix(lam, 3, moves, ctx)
    assert len(calls) == len(moves)
    reads = table_reads(monkeypatch)
    bv.phi_tensor_matrix(lam, [rand_complex(rng) for _ in range(3)], ctx)
    bv.verify_face_ybe(*(rand_complex(rng) for _ in range(3)), lam, ctx)
    bv.verify_intertwining([rand_complex(rng)], [rand_complex(rng)], [lam], ctx)
    # one theta kernel call per path level, per face move (6 in the face
    # YBE) and per factor batch of the relation (weights, phis, R); a
    # scalar theta read would add calls of its own
    assert len(reads) == 3 + 6 + 3


def test_face_operator_matrix_resonant_prefix():
    ctx = default_context(3)
    # lam_01 = -hbar: resonant only after a first step 0, at position 1
    base = wt.canonical([-ctx.hbar, 0.0, 0.31])
    bv.face_operator_matrix(base, 3, [(0, 0.1 + 0.05j)], ctx)
    with pytest.raises(SingularParameterError, match="resonant weight"):
        bv.face_operator_matrix(base, 3, [(0, 0.1 + 0.05j), (1, 0.2j)], ctx)
    near = wt.canonical([1e-12, 0.0, 0.31])
    with pytest.raises(SingularParameterError, match="resonant weight"):
        bv.face_operator_matrix(near, 2, [(0, 0.1 + 0.05j)], ctx)


def test_intertwiner_duality(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lams = [wt.sample_generic(50 + s, ctx) for s in range(3)]
        us = [rand_complex(rng) for _ in lams]
        out = bv.verify_intertwiners(us, lams, ctx)
        assert out["duality"].rel < 1e-10
        assert out["det-closed-form"].rel < 1e-10
        # one batch reads as the worst of its batches of one, exactly
        ones = [bv.verify_intertwiners([u], [lam], ctx) for u, lam in zip(us, lams)]
        for key in out:
            assert out[key] == th.worst_of(one[key] for one in ones)


def test_intertwiner_entries_definition(ctx3, rng):
    from etlax.theta import dedekind_eta, theta_ml
    u = rand_complex(rng)
    lam = wt.sample_generic(8, ctx3)
    pair = bv.intertwiners(u, lam, ctx3)
    ieta = 1j * dedekind_eta(ctx3.tau, ctx3).value
    for j in range(3):
        for k in range(3):
            want = theta_ml(1.5 - j, 3, u / 3 - lam[k] + 0.5, ctx3.tau,
                            trunc=ctx3.trunc).value / ieta
            assert abs(pair.phi[j, k] - want) < 1e-13


def test_dedekind_eta_built_once_per_context(monkeypatch, rng):
    calls = []
    product = th._eta_product
    monkeypatch.setattr(th, "_eta_product",
                        lambda *args: calls.append(args) or product(*args))
    ctx = default_context(3)
    lam = wt.sample_generic(8, ctx)
    for _ in range(4):
        bv.intertwiners(rand_complex(rng), lam, ctx)
    th.verify_vandermonde([rand_complex(rng) for _ in range(3)], ctx)
    assert len(calls) == 1
    bv.intertwiners(rand_complex(rng), lam, ctx.replace())
    assert len(calls) == 2


def test_intertwiner_determinant_closed_form(ctx3, rng):
    from etlax.theta import dedekind_eta, theta, vandermonde_sign
    u = rand_complex(rng)
    lam = wt.sample_generic(8, ctx3)
    pair = bv.intertwiners(u, lam, ctx3)
    n = 3
    ieta = 1j * dedekind_eta(ctx3.tau, ctx3).value
    us = [u / n - lam[k] for k in range(n)]
    want = vandermonde_sign(n) * theta(sum(us), ctx3) / ieta
    for a in range(n):
        for b in range(a + 1, n):
            want *= theta(us[b] - us[a], ctx3) / ieta
    want *= (-1) ** (n - 1)      # rows 0..n-1 vs 1..n ordering
    got = complex(np.linalg.det(pair.phi))
    assert abs(got - want) / abs(want) < 1e-10


def test_intertwiner_condition_rejection(ctx3):
    lam = wt.sample_generic(8, ctx3)
    with pytest.raises(SingularParameterError):
        bv.intertwiners(0.4 + 0.2j, lam, ctx3, cond_limit=1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_batch_matches_single_builds(n, rng):
    ctx = default_context(n)
    lams = [wt.sample_generic(70 + s, ctx) for s in range(3)]
    us = [rand_complex(rng) for _ in range(4)]
    # a repeated pair and several distinct ones, all in one build: every
    # pair, the repeat too, is one column block of a single theta table
    pairs = [(us[0], lams[0]), (us[1], lams[1]), (us[0], lams[0]),
             (us[2], lams[2]), (us[3], lams[0]), (us[1], lams[2])]
    with pytest.MonkeyPatch.context() as mp:
        reads = table_reads(mp)
        phi, phibar = bv.intertwiner_arrays([u for u, _ in pairs],
                                            [lam for _, lam in pairs], ctx)
    assert reads == [len(pairs) * n]
    assert phi.shape == phibar.shape == (len(pairs), n, n)
    for p, (u, lam) in enumerate(pairs):
        single = bv.intertwiners(u, lam, ctx.replace())
        assert np.array_equal(phi[p], single.phi)
        assert np.array_equal(phibar[p], single.phibar)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_batch_names_the_singular_pair(n, rng):
    ctx = default_context(n)
    lam = wt.sample_generic(8, ctx)
    coords = wt.sample_generic(9, ctx)
    coords[1] = coords[0]                 # two equal columns of phi
    flat = wt.canonical(coords)
    us = [0.11 + 0.05j, 0.23 - 0.07j, -0.17 + 0.13j]
    with pytest.raises(SingularParameterError, match=r"at u=\(0\.23-0\.07j\)"):
        bv.intertwiner_arrays(us, [lam, flat, lam], ctx)
    with pytest.raises(SingularParameterError):
        bv.intertwiners(us[1], flat, ctx.replace())


def _near_pair(n, gap):
    """A point whose coordinates 0 and 1 lie gap apart: phi has two nearly
    equal columns, so its cond grows like 1 / gap."""
    ctx = default_context(n)
    coords = wt.sample_generic(9, ctx)
    coords[1] = coords[0] + gap
    return ctx, wt.canonical(coords)


def test_intertwiner_guard_raises_on_equal_columns_where_solve_fails():
    # at n = 3 this phi, two equal columns, is singular in floating point:
    # the stacked solve raises LinAlgError, and the guard reports the cond
    ctx = default_context(3)
    coords = wt.sample_generic(0, ctx)
    coords[1] = coords[0]
    flat = wt.canonical(coords)
    u = 0.23 - 0.07j
    ieta = 1j * th.dedekind_eta(ctx.tau, ctx).value
    phi = th.theta_level_table(range(3), u / 3 - flat, ctx) / ieta
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(phi[None], np.eye(3, dtype=complex))
    with pytest.raises(SingularParameterError, match=re.escape(
            f"(cond={np.linalg.cond(phi):.3g}) at u={u}")):
        bv.intertwiner_arrays([0.1j, u], [wt.sample_generic(8, ctx), flat],
                              ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_guard_names_the_exact_cond(n):
    ctx, near = _near_pair(n, 1e-10)
    lam = wt.sample_generic(8, ctx)
    us = [0.11 + 0.05j, 0.23 - 0.07j, -0.17 + 0.13j, 0.05 + 0.3j]
    phi = bv.intertwiners(us[1], near, ctx, cond_limit=math.inf).phi
    cond = np.linalg.cond(phi)
    assert cond > 1e8
    # the first ill-conditioned pair is named, with its 2-norm cond
    with pytest.raises(SingularParameterError,
                       match=re.escape(f"(cond={cond:.3g}) at u={us[1]}")):
        bv.intertwiner_arrays(us, [lam, near, lam, near], ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_guard_admits_a_pair_above_the_screen(n, monkeypatch):
    u = 0.23 - 0.07j
    ctx, near = _near_pair(n, 1e-6)
    # move the gap until the exact cond sits at 7e7 (it scales as 1 / gap)
    cond = np.linalg.cond(bv.intertwiners(u, near, ctx, math.inf).phi)
    ctx, near = _near_pair(n, 1e-6 * cond / 7e7)
    pair = bv.intertwiners(u, near, ctx, math.inf)
    bound = np.linalg.norm(pair.phi) * np.linalg.norm(pair.phibar)
    assert bound > 0.5 * bv._COND_LIMIT
    assert 5e7 < pair.cond < bv._COND_LIMIT
    conds = []
    svd_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda x: conds.append(len(x)) or svd_cond(x))
    lam = wt.sample_generic(8, ctx)
    phi, phibar = bv.intertwiner_arrays([u, u, u], [lam, near, lam], ctx)
    assert np.array_equal(phi[1], pair.phi)
    assert np.array_equal(phibar[1], pair.phibar)
    # only the pair above the screen took the SVD
    assert conds == [1]
    del conds[:]
    bv.intertwiner_arrays([u, u], [lam, lam], ctx)
    assert conds == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiners_report_the_exact_cond(n, rng):
    ctx = default_context(n)
    for s in range(3):
        pair = bv.intertwiners(rand_complex(rng), wt.sample_generic(70 + s, ctx),
                               ctx)
        assert pair.cond == np.linalg.cond(pair.phi)


def test_vertex_face_intertwining(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lam = wt.sample_generic(60, ctx)
        res = bv.verify_intertwining([rand_complex(rng)], [rand_complex(rng)],
                                     [lam], ctx)["vertex-face"]
        assert res.rel < 1e-9


def test_dual_intertwining(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lam = wt.sample_generic(61, ctx)
        res = bv.verify_intertwining([rand_complex(rng)], [rand_complex(rng)],
                                     [lam], ctx)["dual"]
        assert res.rel < 1e-9


def test_intertwining_at_equal_points(ctx3):
    lam = wt.sample_generic(62, ctx3)
    res = bv.verify_intertwining([0.21 + 0.08j], [0.21 + 0.08j], [lam],
                                 ctx3)["vertex-face"]
    assert res.rel < 1e-11


def test_antisymmetrizer_image(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        pi2 = bv.antisymmetrizer(2, ctx, u=rand_complex(rng))
        perm = bv.permutation_matrix(ctx.n)
        sym = (np.eye(ctx.n ** 2) + perm) @ pi2
        assert np.max(np.abs(sym)) / np.max(np.abs(pi2)) < 1e-12


def test_antisymmetrizer_rank(ctx3):
    for k in (2, 3):
        pi = bv.antisymmetrizer(k, ctx3, u=0.13 + 0.21j)
        svals = np.linalg.svd(pi, compute_uv=False)
        assert int(np.sum(svals > 1e-8 * svals[0])) == math.comb(3, k)


def test_antisymmetrizer_u_independence(ctx3, rng):
    for k in (2, 3):
        a = bv.antisymmetrizer(k, ctx3, u=rand_complex(rng))
        b = bv.antisymmetrizer(k, ctx3, u=rand_complex(rng))
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-10


def test_antisymmetrizer_range_validation(ctx3):
    with pytest.raises(ValueError):
        bv.antisymmetrizer(4, ctx3)


def test_fusion_intertwining(ctx3, rng):
    lam = wt.sample_generic(70, ctx3)
    assert bv.verify_fusion_intertwining(2, rand_complex(rng), lam, ctx3).rel \
        < 1e-9
    assert bv.verify_fusion_intertwining(3, rand_complex(rng), lam, ctx3).rel \
        < 1e-8


def test_fused_rcheck_reduces_to_rcheck(ctx3, rng):
    u, v = rand_complex(rng), rand_complex(rng)
    fused = bv.fused_rcheck_matrix(1, 1, u, v, ctx3)
    plain = bv.rcheck_table([u - v], ctx3)[0]
    assert np.max(np.abs(fused - plain)) < 1e-12


# In-test copy of the per-entry loop build_r used before the R tables:
# 4n scalar theta_char values and an n^3 placement loop.

def _loop_r(u, ctx):
    from etlax.theta import theta_char_table

    def theta_char(k, u, ctx):
        return complex(theta_char_table([k], [u], ctx)[0, 0])
    n = ctx.n
    tc_u = np.array([theta_char(k, u, ctx) for k in range(n)])
    tc_uh = np.array([theta_char(k, u + ctx.hbar, ctx) for k in range(n)])
    tc_h = np.array([theta_char(k, ctx.hbar, ctx) for k in range(n)])
    tc_0 = np.array([theta_char(k, 0.0, ctx) for k in range(n)])
    denom0 = np.prod(tc_0[1:])
    prod_except = [np.prod(np.concatenate([tc_u[:m], tc_u[m + 1:]]))
                   for m in range(n)]
    ent = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for ip in range(n):
                jp = (i + j - ip) % n
                ent[i, j, ip, jp] = (tc_uh[(ip - jp) % n] / tc_h[(ip - i) % n]
                                     * prod_except[(i - jp) % n] / denom0)
    return ent


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_table_matches_entry_loop(n, rng):
    # measured at most 1.3e-16 relative to each R's largest entry
    ctx = default_context(n)
    us = [rand_complex(rng) for _ in range(6)] + [0.0, ctx.tau / 2]
    got = bv.r_table(us, ctx)
    want = np.stack([_loop_r(u, ctx.replace()) for u in us])
    assert got.shape == (len(us),) + (n,) * 4
    scale = np.max(np.abs(want), axis=(1, 2, 3, 4))[:, None, None, None, None]
    assert np.max(np.abs(got - want) / scale) <= 1e-14
    i, j, ip, jp = np.indices((n,) * 4)
    off = (i + j - ip - jp) % n != 0           # the ice rule, exactly
    assert np.all(got[:, off] == 0) and np.all(want[:, off] == 0)
    assert np.all(got[:, ~off] != 0)
    for p, u in enumerate(us):
        # numpy's vector loops may round a lone point and a batch member
        # differently, in the last bit
        one = bv.build_r(u, ctx).entries
        assert np.max(np.abs(one - got[p])) <= 1e-15 * np.max(np.abs(one))
    # control: the same comparison sees i' and j' exchanged
    swapped = want.transpose(0, 1, 2, 4, 3)
    assert np.max(np.abs(got - swapped) / scale) > 1e-2


def _kron_braid(params, moves, ctx):
    # the dense product the braids were built with before: P R as a
    # matrix, lifted to all k slots with two Kronecker products per move
    n, total, params = ctx.n, len(params), list(params)
    op = np.eye(n ** total, dtype=complex)
    for m in moves:
        ent = _loop_r(params[m] - params[m + 1], ctx)
        rc = bv.permutation_matrix(n) @ np.transpose(
            ent, (2, 3, 0, 1)).reshape(n * n, n * n)
        lift = np.kron(np.kron(np.eye(n ** m), rc),
                       np.eye(n ** (total - m - 2)))
        op = lift @ op
        params[m], params[m + 1] = params[m + 1], params[m]
    return op


@pytest.mark.parametrize("n", [2, 3, 4])
def test_braid_matrix_matches_kron_slots(n, rng):
    # measured at most 3e-16 relative to the largest entry
    ctx = default_context(n)
    for k in range(2, n + 1):
        params = [rand_complex(rng) for _ in range(k)]
        for moves in (bv.fusion_moves(k), [k - 2, 0, k - 2]):
            got = bv.braid_matrix(params, moves, ctx)
            want = _kron_braid(params, moves, ctx)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (k, moves)
        # the same moves applied to columns
        cols = rng.normal(size=(n ** k, 3)) + 1j * rng.normal(size=(n ** k, 3))
        on_cols = bv._braid_on(params, moves, cols.copy(), ctx)
        assert np.max(np.abs(on_cols - want @ cols)) \
            <= 1e-13 * scale * np.max(np.abs(cols)) * n ** k
        # control: the parameters in reverse order give another operator
        back = _kron_braid(params[::-1], moves, ctx)
        assert np.max(np.abs(got - back)) > 1e-3 * scale
    plain = bv.braid_matrix(params[:2], [0], ctx.replace())
    assert np.max(np.abs(plain - _kron_braid(params[:2], [0], ctx))) \
        <= 1e-13 * np.max(np.abs(plain))


# In-test copies of the intertwining relations as they were written before
# the einsum contractions: one generator sum per output entry.

def _loop_vertex_face(u, v, lam, ctx):
    from etlax.theta import residual_pair, worst_of
    n = ctx.n
    rt = _loop_r(u - v, ctx)
    keep, cross = (w[0] for w in bv._two_step_weights(lam[None], [u - v], ctx))
    ups = [shift_eps(lam, a, ctx.hbar) for a in range(n)]
    phi_u, phi_v = bv.intertwiners(u, lam, ctx).phi, bv.intertwiners(v, lam, ctx).phi
    phi_u_up = [bv.intertwiners(u, mu, ctx).phi for mu in ups]
    phi_v_up = [bv.intertwiners(v, mu, ctx).phi for mu in ups]
    found = []
    for a in range(n):
        for b in range(n):
            middles = ([(a, a, keep[a, a])] if a == b else
                       [(a, b, keep[a, b]), (b, a, cross[a, b])])
            for ip in range(n):
                for jp in range(n):
                    lhs = sum(rt[i, j, ip, jp] * phi_u[i, a] * phi_v_up[a][j, b]
                              for i in range(n) for j in range(n))
                    rhs = sum(phi_v[jp, ap] * phi_u_up[ap][ip, bp] * w
                              for ap, bp, w in middles)
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


def _loop_dual(u, v, lam, ctx):
    from etlax.theta import residual_pair, worst_of
    n = ctx.n
    rt = _loop_r(u - v, ctx)
    keep, cross = (w[0] for w in bv._two_step_weights(lam[None], [u - v], ctx))
    ups = [shift_eps(lam, a, ctx.hbar) for a in range(n)]
    pb_u = bv.intertwiners(u, lam, ctx).phibar
    pb_v = bv.intertwiners(v, lam, ctx).phibar
    pb_u_up = [bv.intertwiners(u, mu, ctx).phibar for mu in ups]
    pb_v_up = [bv.intertwiners(v, mu, ctx).phibar for mu in ups]
    found = []
    for a in range(n):
        for b in range(n):
            middles = ([(a, a, keep[a, a])] if a == b else
                       [(a, b, keep[a, b]), (b, a, cross[b, a])])
            for i in range(n):
                for j in range(n):
                    lhs = sum(pb_v[a, jp] * pb_u_up[a][b, ip] * rt[i, j, ip, jp]
                              for ip in range(n) for jp in range(n))
                    rhs = sum(w * pb_u[ap, i] * pb_v_up[ap][bp, j]
                              for ap, bp, w in middles)
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwining_relations_match_loop_forms(n, rng, monkeypatch):
    ctx = default_context(n)
    lams = [wt.sample_generic(63 + s, ctx) for s in range(3)]
    us = [rand_complex(rng) for _ in lams]
    vs = [rand_complex(rng) for _ in lams]
    pairs = (("vertex-face", _loop_vertex_face), ("dual", _loop_dual))
    got = bv.verify_intertwining(us, vs, lams, ctx)
    for key, loop in pairs:
        assert got[key].rel < 1e-11
        assert max(loop(*sample, ctx).rel for sample in zip(us, vs, lams)) < 1e-11
    # control: keep and cross exchanged off the diagonal (a == b has the
    # one middle keep[a, a]) break both relations, and the batch reports
    # the worst residual of the per-sample loop forms
    weights = bv._two_step_weights
    def swapped(*args):
        keep, cross = weights(*args)
        diag = keep * np.eye(n)
        return cross + diag, keep - diag
    monkeypatch.setattr(bv, "_two_step_weights", swapped)
    got = bv.verify_intertwining(us, vs, lams, ctx)
    for key, loop in pairs:
        want = max(loop(*sample, ctx).rel for sample in zip(us, vs, lams))
        assert want > 1e-2
        assert abs(got[key].rel - want) <= 1e-12 * want


def test_vertex_checks_read_one_character_table_per_batch(monkeypatch, rng):
    ctx = default_context(3)
    calls = []
    table = bv.theta_char_table
    monkeypatch.setattr(bv, "theta_char_table",
                        lambda rows, us, c: calls.append(len(us))
                        or table(rows, us, c))
    us = [rand_complex(rng) for _ in range(10)]
    lam = wt.sample_generic(64, ctx)
    checks = [
        lambda: bv.r_table(us, ctx),
        lambda: bv.build_r(us[0], ctx),
        lambda: bv.verify_r_symmetry(us, ctx),
        lambda: bv.verify_r_quasiperiodicity(us, ctx),
        lambda: bv.verify_r_holomorphy(ctx),
        lambda: bv.verify_ybe(us[:4], us[4:8], us[6:], ctx),
        lambda: bv.braid_matrix(us[:3], bv.fusion_moves(3), ctx),
        lambda: bv.verify_intertwining(us[:1], us[1:2], [lam], ctx),
    ]
    reads = table_reads(monkeypatch)
    for check in checks:
        calls.clear()
        del reads[:]
        check()
        assert len(calls) == 1
        # and no scalar theta read next to it: R alone is one kernel call,
        # the intertwining relation adds its face weights and phis
        assert len(reads) == (3 if check is checks[-1] else 1)
    assert calls == [1 * 2 + 2]        # u - v and u - v + hbar, hbar, 0


def test_nan_residual_fails_its_case(monkeypatch):
    from etlax.suites import run_suite
    ctx = default_context(2)
    # a NaN through the vectorized reduction: one R of the vertex-ybe batch
    table = bv.rcheck_table
    def poisoned(deltas, c):
        out = table(deltas, c)
        if len(deltas) == 75:
            out[7] = np.nan
        return out
    monkeypatch.setattr(bv, "rcheck_table", poisoned)
    rep = run_suite("ybe", ctx, 0)
    case = {c.name: c for c in rep.cases}["vertex-ybe"]
    assert math.isnan(case.rel) and not case.ok and not rep.passed
    # and through the batched face-ybe check: one of its 25 samples
    monkeypatch.undo()
    face = bv.face_operator_matrix
    def one_nan(bases, k, moves, c):
        out = face(bases, k, moves, c)
        if len(bases) == 25:
            out[2, 0, 0] = np.nan
        return out
    monkeypatch.setattr(bv, "face_operator_matrix", one_nan)
    rep = run_suite("face-ybe", ctx, 0)
    case = {c.name: c for c in rep.cases}["face-ybe"]
    assert math.isnan(case.rel) and not case.ok and not rep.passed


@pytest.mark.parametrize("n", [2, 3])
def test_vertex_suites_pass_across_seeds(n):
    from etlax.suites import run_suite
    failed = [(name, seed)
              for name in ("ybe", "face-ybe", "intertwiner")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3])
def test_identity_suites_pass_across_seeds(n):
    # the theta identity suites of the identities workload, next to its
    # vertex suites above
    from etlax.suites import run_suite
    failed = [(name, seed)
              for name in ("theta", "qfay", "fay", "vandermonde")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []
