"""R-matrix characterization, face weights, intertwiners, fusion."""

import math
from itertools import product

import numpy as np
import pytest

from conftest import rand_complex
from etlax.context import (ContextError, ModularContext, SingularParameterError,
                           default_context)
from etlax import belavin as bv
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
    near = wt.WeightPoint.make([1e-12, 0.0, 0.31])
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
# WeightPoint shifts and reads each weight from scalar cached thetas.

def _scalar_face_weight(lam, i, j, kind, u, ctx):
    from etlax.theta import theta
    hb = ctx.hbar
    if kind == "diag":
        return theta(u + hb, ctx) / theta(hb, ctx)
    lij = lam.diff(i, j)
    den = theta(lij, ctx)
    if kind == "cis":
        return theta(-u + lij, ctx) / den
    return theta(u, ctx) / theta(hb, ctx) * theta(hb + lij, ctx) / den


def _walk_move(base, state, pos, delta, ctx):
    out = {}
    for path, coeff in state.items():
        lam = base
        for r in range(pos):
            lam = lam.shifted_eps(path[r], ctx.hbar)
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


def _kron_loop(base, params, ctx):
    cols = []
    for path in product(range(ctx.n), repeat=len(params)):
        lam, acc = base, None
        for m, step in enumerate(path):
            vec = bv.intertwiners(params[m], lam, ctx).phi[:, step]
            acc = vec if acc is None else np.kron(acc, vec)
            lam = lam.shifted_eps(step, ctx.hbar)
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
    bv.phi_tensor_matrix(lam, [rand_complex(rng) for _ in range(3)], ctx)
    bv.verify_face_ybe(*(rand_complex(rng) for _ in range(3)), lam, ctx)
    bv.verify_vertex_face_intertwining(rand_complex(rng), rand_complex(rng),
                                       lam, ctx)
    assert not [key for key in ctx._cache if key[0] == "jt"]


def test_face_operator_matrix_resonant_prefix():
    ctx = default_context(3)
    # lam_01 = -hbar: resonant only after a first step 0, at position 1
    base = wt.WeightPoint.make([-ctx.hbar, 0.0, 0.31])
    bv.face_operator_matrix(base, 3, [(0, 0.1 + 0.05j)], ctx)
    with pytest.raises(SingularParameterError, match="resonant weight"):
        bv.face_operator_matrix(base, 3, [(0, 0.1 + 0.05j), (1, 0.2j)], ctx)
    near = wt.WeightPoint.make([1e-12, 0.0, 0.31])
    with pytest.raises(SingularParameterError, match="resonant weight"):
        bv.face_operator_matrix(near, 2, [(0, 0.1 + 0.05j)], ctx)


def test_intertwiner_duality(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for s in range(3):
            lam = wt.sample_generic(50 + s, ctx)
            out = bv.verify_intertwiner_duality(rand_complex(rng), lam, ctx)
            assert out["phibar-phi"].rel < 1e-10
            assert out["phi-phibar"].rel < 1e-10


def test_intertwiner_entries_definition(ctx3, rng):
    from etlax.theta import dedekind_eta, theta_level_n
    u = rand_complex(rng)
    lam = wt.sample_generic(8, ctx3)
    pair = bv.intertwiners(u, lam, ctx3)
    ieta = 1j * dedekind_eta(ctx3.tau, ctx3).value
    for j in range(3):
        for k in range(3):
            want = theta_level_n(j, u / 3 - lam.pair_eps(k), ctx3) / ieta
            assert abs(pair.phi[j, k] - want) < 1e-13


def test_dedekind_eta_built_once_per_context(monkeypatch, rng):
    from etlax import theta as th
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
    us = [u / n - lam.pair_eps(k) for k in range(n)]
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
    # a repeated pair, a pair cached before the batch, and several new ones
    pairs = [(us[0], lams[0]), (us[1], lams[1]), (us[0], lams[0]),
             (us[2], lams[2]), (us[3], lams[0]), (us[1], lams[2])]
    bv.intertwiners(us[3], lams[0], ctx)
    phi, phibar = bv.intertwiner_arrays([u for u, _ in pairs],
                                        [lam for _, lam in pairs], ctx)
    assert phi.shape == phibar.shape == (len(pairs), n, n)
    for p, (u, lam) in enumerate(pairs):
        single = bv.intertwiners(u, lam, ctx.replace())
        assert np.array_equal(phi[p], single.phi)
        assert np.array_equal(phibar[p], single.phibar)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_batch_names_the_singular_pair(n, rng):
    ctx = default_context(n)
    lam = wt.sample_generic(8, ctx)
    coords = list(wt.sample_generic(9, ctx).coords)
    coords[1] = coords[0]                 # two equal columns of phi
    flat = wt.WeightPoint.make(coords)
    us = [0.11 + 0.05j, 0.23 - 0.07j, -0.17 + 0.13j]
    with pytest.raises(SingularParameterError, match=r"at u=\(0\.23-0\.07j\)"):
        bv.intertwiner_arrays(us, [lam, flat, lam], ctx)
    with pytest.raises(SingularParameterError):
        bv.intertwiners(us[1], flat, ctx.replace())


def test_vertex_face_intertwining(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lam = wt.sample_generic(60, ctx)
        res = bv.verify_vertex_face_intertwining(rand_complex(rng),
                                                 rand_complex(rng), lam, ctx)
        assert res.rel < 1e-9


def test_dual_intertwining(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        lam = wt.sample_generic(61, ctx)
        res = bv.verify_dual_intertwining(rand_complex(rng), rand_complex(rng),
                                          lam, ctx)
        assert res.rel < 1e-9


def test_intertwining_at_equal_points(ctx3):
    lam = wt.sample_generic(62, ctx3)
    res = bv.verify_vertex_face_intertwining(0.21 + 0.08j, 0.21 + 0.08j,
                                             lam, ctx3)
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
    plain = bv.rcheck_matrix(u - v, ctx3)
    assert np.max(np.abs(fused - plain)) < 1e-12
