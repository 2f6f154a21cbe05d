"""R-matrix characterization, face weights, intertwiners, fusion."""

import math
import re
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (phi_tensor_matrix, rand_complex, shift_eps,
                      table_reads)
from etlax.context import (ContextError, ModularContext, SingularParameterError,
                           default_context)
from etlax import belavin as bv
from etlax import context
from etlax import theta as th
from etlax import weights as wt


def test_r_zero_is_permutation(ctx2, ctx3):
    assert bv.verify_r_zero_is_permutation(ctx2).rel < 1e-12
    assert bv.verify_r_zero_is_permutation(ctx3).rel < 1e-12


def test_eight_vertex_pattern(ctx2, rng):
    ent = bv.build_r(rand_complex(rng), ctx2)
    nonzero = [(i, j, a, b) for i in range(2) for j in range(2)
               for a in range(2) for b in range(2)
               if abs(ent[i, j, a, b]) > 1e-12]
    assert len(nonzero) == 8
    for i, j, a, b in nonzero:
        assert (i + j) % 2 == (a + b) % 2


def test_ice_rule(ctx3, rng):
    ent = bv.build_r(rand_complex(rng), ctx3)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_r_checks_invert_unitary_matrices(n):
    # verify_r_symmetry and verify_r_quasiperiodicity invert kron(x, x) and
    # kron(x, 1), x = g, h, by their conjugate transposes: all are unitary
    ctx = default_context(n)
    for x in (bv.g_matrix(ctx), bv.h_matrix(ctx)):
        for m in (np.kron(x, x), np.kron(x, np.eye(n))):
            assert np.max(np.abs(m @ m.conj().T - np.eye(n * n))) <= 1e-15


def test_gh_symmetry_reads_one_r_entry_off_by_1e_3(monkeypatch):
    # negative control: R[0, 0, 0, 0] times 1.001 breaks the h symmetry
    from etlax.suites import run_suite
    real = bv.build_r

    def off(us, ctx):
        ent = np.array(real(us, ctx))
        ent[..., 0, 0, 0, 0] *= 1.001
        return ent

    def gh_symmetry():
        rep = run_suite("ybe", default_context(3), 0)
        return next(c for c in rep.cases if c.name == "gh-symmetry")
    assert gh_symmetry().ok
    monkeypatch.setattr(bv, "build_r", off)
    case = gh_symmetry()
    assert not case.ok and case.rel > 1e-4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitarity_reads_red_at_minus_u_plus_0_07(n, monkeypatch):
    # R_12(u) R_21(-u) is theta(hbar + u) theta(hbar - u) / theta(hbar)^2
    # times 1 at the ybe draws of seeds 0-7 (rel at most 1e-14); read at
    # -u + 0.07 instead, the case turns red (rel 0.19-0.91)
    from etlax.suites import run_suite
    real = bv.verify_r_unitarity

    def unitarity(seed):
        rep = run_suite("ybe", default_context(n), seed)
        return next(c for c in rep.cases if c.name == "unitarity")
    for seed in range(8):
        assert unitarity(seed).ok and unitarity(seed).rel < 1e-13
    monkeypatch.setattr(bv, "verify_r_unitarity",
                        lambda us, vs, ctx: real(us, vs + 0.07, ctx))
    for seed in range(8):
        case = unitarity(seed)
        assert not case.ok and case.rel > 1e-2


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
    rm = bv._r_matrices(bv.build_r([u], ctx3))[0]
    g1 = np.kron(bv.g_matrix(ctx3), np.eye(n))
    h1 = np.kron(bv.h_matrix(ctx3), np.eye(n))
    via_1_then_tau = (-np.exp(2j * np.pi * ((u + 1) + ctx3.hbar / n
                                            + ctx3.tau / 2.0))) ** (-1) \
        * (h1 @ (-np.linalg.inv(g1) @ rm @ g1) @ np.linalg.inv(h1))
    direct = bv._r_matrices(bv.build_r([u + 1 + ctx3.tau], ctx3))[0]
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


def _face_weights(lij, deltas, ctx):
    """diag, cis, trans of one move at lij[s], deltas[s]: the reader the
    module kept beside _face_orbits, on the same _weight_tables."""
    keep, cross = bv._weight_tables([lij], [(0, deltas)], ctx)[0]
    return keep[:, -1], keep[:, :-1], cross[:, :-1]


def test_face_weight_values_at_zero(ctx3):
    # W(0) on two-step paths is the identity: diag and cis 1, trans 0 at
    # every lam_ij the paths reach
    lam = wt.sample_generic(4, ctx3)
    assert np.max(np.abs(bv.face_operator_matrix(lam, 2, [(0, 0.0)], ctx3)
                         - np.eye(9))) < 1e-12
    # control: off u = 0 the cis weight of the path (0, 2) and the trans
    # weight to its swap (2, 0) move away from 1 and 0
    w = bv.face_operator_matrix(lam, 2, [(0, 0.3)], ctx3)
    assert abs(w[2, 2] - 1.0) > 1e-3 and abs(w[6, 2]) > 1e-3
    # the three entries the face-weight-*-u0 cases read are the weights of
    # the one-move reader at lam_01, bit for bit
    for n, tau in product((2, 3, 4), (0.1 + 0.8j, 0.05j)):
        ctx = default_context(n, tau=tau)
        for s in range(5):
            lam = wt.sample_generic(40 + s, ctx)
            w = bv.face_operator_matrix(lam, 2, [(0, 0.0)], ctx)
            diag, cis, trans = _face_weights([[lam[0] - lam[1]]], [0.0], ctx)
            assert w[0, 0] == diag[0] and w[1, 1] == cis[0, 0]
            assert w[n, 1] == trans[0, 0]


def test_face_weight_resonant_rejection(ctx3):
    near = wt.canonical([1e-12, 0.0, 0.31])
    with pytest.raises(SingularParameterError, match="resonant weight"):
        bv.face_operator_matrix(near, 2, [(0, 0.1)], ctx3)


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


# In-test copy of the block plan the face matrices were built with before
# the moves acted on the path tensor: the paths sorted into step-multiset
# blocks (short blocks padded), a swap partner per slot, a scatter map into
# the path matrix, and the weights of each move read at the distinct
# (i, j, count_i - count_j) of its paths in order of first appearance.

def _block_plan(n, k):
    tuples = list(product(range(n), repeat=k))
    index = {t: p for p, t in enumerate(tuples)}
    blocks = {}
    for p, t in enumerate(tuples):
        blocks.setdefault(tuple(sorted(t)), []).append(p)
    width = max(len(b) for b in blocks.values())
    layout = np.full((len(blocks), width), len(tuples))
    slot = np.empty(len(tuples), dtype=int)
    for b, members in enumerate(blocks.values()):
        layout[b, :len(members)] = members
        slot[members] = np.arange(len(members))
    real = layout < len(tuples)
    pairs, pair, partner = [], [], []
    for pos in range(k - 1):
        found = {}
        at = np.full(len(tuples), -1)
        swap = np.empty(len(tuples), dtype=int)
        for p, t in enumerate(tuples):
            i, j = t[pos], t[pos + 1]
            swap[p] = index[t[:pos] + (j, i) + t[pos + 2:]]
            if i != j:
                triple = (i, j, t[:pos].count(i) - t[:pos].count(j))
                at[p] = found.setdefault(triple, len(found))
        pairs.append(np.array(list(found), dtype=int).reshape(-1, 3))
        pair.append(at)
        mate = np.tile(np.arange(width), (len(blocks), 1))
        mate[real] = slot[swap[layout[real]]]
        partner.append(mate)
    b, s, sp = np.nonzero(real[:, :, None] & real[:, None, :])
    scatter = ((b * width + s) * width + sp, layout[b, s], layout[b, sp])
    return SimpleNamespace(size=len(tuples), pairs=pairs, pair=pair,
                           layout=layout, partner=partner, scatter=scatter)


def _block_move_weights(plan, pos, coords, deltas, ctx):
    i, j, m = plan.pairs[pos].T
    diag, cis, trans = _face_weights(
        coords[:, i] - coords[:, j] + ctx.hbar * m, deltas, ctx)
    at = plan.pair[pos]                 # -1 reads the appended entry
    return (np.concatenate([cis, diag[:, None]], axis=1)[:, at],
            np.concatenate([trans, np.zeros((len(trans), 1))], axis=1)[:, at])


def _braid_matrix(params, moves, ctx):
    """The dense product of vertex Rcheck moves with positional parameter
    tracking: the columns of the identity, braided."""
    return bv._braid_on(params, moves,
                        np.eye(ctx.n ** len(params), dtype=complex), ctx)


def _antisymmetrizer(k, ctx, u=0.0):
    """The dense vertex fusion operator on V^(x)k: the columns of the
    identity, under antisymmetrizer_on."""
    return bv.antisymmetrizer_on(k, np.eye(ctx.n ** k, dtype=complex), ctx, u)


def _face_fusion_oracle(k, base, ctx, u=0.0):
    """The dense face fusion operator on the length-k paths from base: the
    face moves of the fusion braid, with positional parameter tracking, as
    one n^k x n^k matrix."""
    moves = bv.fusion_moves(k)
    return bv.face_operator_matrix(base, k, list(zip(
        moves, bv._move_deltas(bv.fusion_parameters(k, u, ctx), moves))), ctx)


def _block_face_matrix(base, k, moves, ctx):
    base = np.asarray(base, dtype=complex)
    coords = base.reshape(-1, ctx.n)
    plan = _block_plan(ctx.n, k)
    count, width = plan.layout.shape
    rows = np.arange(count)[:, None]
    stack = np.tile(np.eye(width, dtype=complex), (len(coords), count, 1, 1))
    for pos, delta in moves:
        keep, cross = (np.pad(w, ((0, 0), (0, 1))) for w in _block_move_weights(
            plan, pos, coords, np.broadcast_to(delta, len(coords)), ctx))
        mate = plan.partner[pos]
        swapped = stack[:, rows, mate]
        swapped *= cross[:, plan.layout[rows, mate]][..., None]
        stack *= keep[:, plan.layout][..., None]
        stack += swapped
    mat = np.zeros((len(coords), plan.size, plan.size), dtype=complex)
    src, row, col = plan.scatter
    mat[:, row, col] = stack.reshape(len(coords), -1)[:, src]
    return mat[0] if base.ndim == 1 else mat


def _block_phi_tensor(base, params, ctx):
    # phi(params[m]) at the exact step counts of level m, one kernel call
    # per level: phi(v - m hbar) read at v = params[m] + m hbar
    n, k = ctx.n, len(params)
    prefixes, prefix = bv.partial_shifts(n, k)
    paths = np.array(list(product(range(n), repeat=k)), dtype=int)
    mat = np.ones((n ** k, len(paths)), dtype=complex)
    grid = mat.reshape((n,) * k + (len(paths),))
    for m, counts in enumerate(prefixes):
        phi = bv.shift_intertwiners(params[m] + m * ctx.hbar, base, counts,
                                    ctx)
        vecs = phi[prefix[m], :, paths[:, m]]
        grid *= vecs.T.reshape((1,) * m + (n,) + (1,) * (k - m - 1)
                               + (len(paths),))
    return mat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_moves_on_the_path_tensor_equal_the_block_plan(n, rng):
    ctx = default_context(n)
    for trial in range(2):
        lam = wt.sample_generic(110 + trial, ctx)
        P = wt.sample_many(120 + trial, 3, ctx)
        for k in range(2, n + 1):
            moves = [(int(rng.integers(0, k - 1)), rand_complex(rng))
                     for _ in range(int(rng.integers(2, 7)))]
            assert np.array_equal(bv.face_operator_matrix(lam, k, moves, ctx),
                                  _block_face_matrix(lam, k, moves, ctx))
            batched = [(pos, np.array([rand_complex(rng) for _ in P]))
                       for pos, _ in moves]
            assert np.array_equal(bv.face_operator_matrix(P, k, batched, ctx),
                                  _block_face_matrix(P, k, batched, ctx))
            # the weights themselves, path by path: each move alone
            for move in batched:
                assert np.array_equal(
                    bv.face_operator_matrix(P, k, [move], ctx),
                    _pair_loop_face_matrix(P, k, [move], ctx))
            # the fusion operator, moves and parameters of the fusion braid
            u = rand_complex(rng)
            fm = bv.fusion_moves(k)
            fused = list(zip(fm, bv._move_deltas(bv.fusion_parameters(k, u, ctx),
                                                 fm)))
            assert np.array_equal(_face_fusion_oracle(k, lam, ctx, u),
                                  _block_face_matrix(lam, k, fused, ctx))


def _pair_weights(k, pos, coords, deltas, ctx):
    """keep[s, a, i, j] and cross[s, a, i, j]: the block plan's weights of
    the move at (pos, pos+1) with argument deltas[s] on the length-k paths
    with prefix a (of n^pos) and steps (i, j) there, at the base weight
    coords[s], to themselves and to their swaps (0 where i == j)."""
    return tuple(w.reshape(len(coords), ctx.n ** pos, ctx.n, ctx.n, -1)[..., 0]
                 for w in _block_move_weights(_block_plan(ctx.n, k), pos,
                                              coords, deltas, ctx))


def _pair_loop_face_matrix(base, k, moves, ctx, weights=_pair_weights):
    """face_operator_matrix as it was before the one swap update per move:
    each pair i < j of steps at (pos, pos + 1) updated in turn."""
    base = np.asarray(base, dtype=complex)
    coords = base.reshape(-1, ctx.n)
    n, count, size = ctx.n, len(coords), ctx.n ** k
    mat = np.zeros((count, size, size), dtype=complex)
    mat[:, np.arange(size), np.arange(size)] = 1.0
    for pos, delta in moves:
        keep, cross = (w[..., None] for w in weights(
            k, pos, coords, np.broadcast_to(delta, count), ctx))
        rows = mat.reshape(count, n ** pos, n, n, -1)
        for i in range(n):
            rows[:, :, i, i] *= keep[:, :, i, i]
            for j in range(i + 1, n):
                x, y = rows[:, :, i, j], rows[:, :, j, i]
                old = x.copy()
                x *= keep[:, :, i, j]
                x += y * cross[:, :, j, i]
                y *= keep[:, :, j, i]
                y += old * cross[:, :, i, j]
    return mat[0] if base.ndim == 1 else mat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_swap_update_equals_the_pair_loop(n, rng):
    # the same products and sums of the same entries, in the same order:
    # bit for bit, for one base, a batch of bases, and the fusion braid
    ctx = default_context(n)
    lam = wt.sample_generic(140, ctx)
    P = wt.sample_many(141, 3, ctx)
    for k in (2, 3, 4):
        moves = [(int(rng.integers(0, k - 1)), rand_complex(rng))
                 for _ in range(int(rng.integers(2, 7)))]
        assert np.array_equal(bv.face_operator_matrix(lam, k, moves, ctx),
                              _pair_loop_face_matrix(lam, k, moves, ctx))
        batched = [(pos, np.array([rand_complex(rng) for _ in P]))
                   for pos, _ in moves]
        assert np.array_equal(bv.face_operator_matrix(P, k, batched, ctx),
                              _pair_loop_face_matrix(P, k, batched, ctx))
        u = rand_complex(rng)
        fm = bv.fusion_moves(k)
        fused = list(zip(fm, bv._move_deltas(bv.fusion_parameters(k, u, ctx),
                                             fm)))
        got = _face_fusion_oracle(k, lam, ctx, u)
        assert np.array_equal(got, _pair_loop_face_matrix(lam, k, fused, ctx))
        # negative control: the cross weight of each path read from the
        # path itself, not from its swap
        def unswapped(*args):
            keep, cross = _pair_weights(*args)
            return keep, cross.swapaxes(-1, -2)
        wrong = _pair_loop_face_matrix(lam, k, fused, ctx, unswapped)
        assert np.max(np.abs(wrong - got)) > 1e-3 * np.max(np.abs(got))


def _step_multiset_mask(n, k):
    """[row, col]: whether the two length-k paths hold the same steps."""
    keys = [tuple(sorted(t)) for t in product(range(n), repeat=k)]
    return np.array([[a == b for b in keys] for a in keys])


def test_face_matrix_is_zero_outside_the_step_multisets(rng):
    # a face move only reorders the steps of a path, so a product of moves
    # is 0 outside the S_k orbit of each column: at most the sum over step
    # multisets of (arrangements)^2 entries, 256 of 4,096 at n = 4, k = 3
    for n, k, most in ((4, 3, 256), (4, 4, 2716), (3, 3, 93), (2, 2, 6)):
        ctx = default_context(n)
        mask = _step_multiset_mask(n, k)
        assert np.count_nonzero(mask) == most
        lam = wt.sample_generic(150 + k, ctx)
        moves = [(int(rng.integers(0, k - 1)), rand_complex(rng))
                 for _ in range(6)]
        for mat in (bv.face_operator_matrix(lam, k, moves, ctx),
                    _pair_loop_face_matrix(lam, k, moves, ctx)):
            assert not np.any(mat[~mask])
            assert 0 < np.count_nonzero(mat) <= most


def _scatter_orbits(stack, n, k):
    """An orbit stack M[s, e] written into the paths x paths matrices: one
    entry for each column c and each distinct reordering c o sigma of its
    steps, in order of c and then of the row c o sigma."""
    paths = list(product(range(n), repeat=k))
    index = {t: a for a, t in enumerate(paths)}
    entries = [(c, r) for c, t in enumerate(paths) for r in sorted(
        {index[tuple(t[m] for m in sigma)]
         for sigma in permutations(range(k))})]
    assert stack.shape[1] == len(entries)
    mat = np.zeros((len(stack), len(paths), len(paths)), dtype=complex)
    for e, (c, r) in enumerate(entries):
        mat[:, r, c] = stack[:, e]
    return mat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_stacks_scatter_to_the_dense_face_matrix(n, rng):
    # the orbit stacks, scattered path by path, are the face matrix and the
    # dense pair-loop update bit for bit, for one base and a batch of bases;
    # the face YBE residual is _rel of the dense matrices of both sides
    ctx = default_context(n)
    lam = wt.sample_generic(160, ctx)
    P = wt.sample_many(161, 3, ctx)
    for k in range(1, n + 1):
        # the empty product is the identity, at every k
        assert np.array_equal(bv.face_operator_matrix(lam, k, [], ctx),
                              np.eye(n ** k))
        if k == 1:
            continue
        moves = [(int(rng.integers(0, k - 1)), rand_complex(rng))
                 for _ in range(int(rng.integers(2, 7)))]
        batched = [(pos, np.array([rand_complex(rng) for _ in P]))
                   for pos, _ in moves]
        for base, mv in ((lam, moves), (P, batched)):
            coords = np.asarray(base, dtype=complex).reshape(-1, n)
            stack, = bv._face_orbits(base, k, [mv], ctx)
            assert stack.shape == (len(coords), len(bv._orbit_plan(n, k)[0]))
            got = _scatter_orbits(stack, n, k)
            dense = _pair_loop_face_matrix(coords, k, mv, ctx)
            assert np.array_equal(got, dense)
            face = bv.face_operator_matrix(base, k, mv, ctx)
            assert np.array_equal(got.reshape(face.shape), face)
    us, vs, ws = (np.array([rand_complex(rng) for _ in P]) for _ in range(3))
    lhs = _pair_loop_face_matrix(P, 3, [(1, vs - ws), (0, us - ws),
                                        (1, us - vs)], ctx)
    rhs = _pair_loop_face_matrix(P, 3, [(0, us - vs), (1, us - ws),
                                        (0, vs - ws)], ctx)
    assert bv.verify_face_ybe(us, vs, ws, P, ctx) == bv._rel(lhs, rhs)


def test_phi_tensor_matrix_names_the_singular_level():
    # lam_01 = -hbar: phi is regular at lam itself and has two equal
    # columns after a first step 0.  The path map reads phi alone and
    # forms it; the dual of that level, counts (1, 0, 0), raises, naming
    # its vanishing factor theta(x_k - x_a) and the point
    ctx = default_context(3)
    base = wt.canonical([-ctx.hbar, 0.0, 0.31])
    params = [0.11 + 0.03j, 0.27 - 0.05j, -0.13 + 0.2j]
    assert np.all(np.isfinite(phi_tensor_matrix(base, params, ctx)))
    counts = np.array([[0, 0, 0], [1, 0, 0]])
    bv.dual_intertwiners(params[1], base, counts[:1], ctx)
    with pytest.raises(SingularParameterError,
                       match=re.escape("theta(x_k - x_a)~0 at ")):
        bv.dual_intertwiners(params[1], base, counts, ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_tensor_and_intertwining_equal_the_block_plan(n, rng, monkeypatch):
    ctx = default_context(n)
    lam = wt.sample_generic(130, ctx)
    for k in range(1, n + 1):
        params = bv.fusion_parameters(k, rand_complex(rng), ctx)
        assert np.array_equal(phi_tensor_matrix(lam, params, ctx),
                              _block_phi_tensor(lam, params, ctx))
    P = wt.sample_many(131, 3, ctx)
    us, vs = ([rand_complex(rng) for _ in P] for _ in range(2))
    got = bv.verify_intertwining(us, vs, P, ctx)
    # W from the block plan: the same relations, bit for bit
    monkeypatch.setattr(bv, "face_operator_matrix", _block_face_matrix)
    assert bv.verify_intertwining(us, vs, P, ctx) == got


def test_face_moves_read_only_the_weights_their_prefixes_reach():
    ctx = default_context(2)
    base = np.array([1e-12, -1e-12], dtype=complex)     # theta(lam_01) ~ 0
    # at pos 1 the prefix holds one step, so lam_01 is read shifted by
    # +-hbar only: no raise, as with the block plan
    for moves in ([(1, 0.3)], [(1, 0.3), (1, 0.1)]):
        assert np.array_equal(bv.face_operator_matrix(base, 3, moves, ctx),
                              _block_face_matrix(base, 3, moves, ctx))
    # control: at pos 0 the empty prefix reads lam_01 itself
    for face in (bv.face_operator_matrix, _block_face_matrix):
        with pytest.raises(SingularParameterError, match="resonant weight"):
            face(base, 3, [(1, 0.3), (0, 0.3)], ctx)


def _kron_loop(base, params, ctx):
    cols = []
    for path in product(range(ctx.n), repeat=len(params)):
        lam, acc = base, None
        for m, step in enumerate(path):
            vec = bv.intertwiners(params[m], lam, ctx)[0][:, step]
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
        got = phi_tensor_matrix(lam, params, ctx.replace())
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
    # every move of a product, and both sides of the face YBE, read one
    # theta table
    u, v, w = (rand_complex(rng) for _ in range(3))
    for face in (lambda: bv.face_operator_matrix(lam, 3, moves, ctx),
                 lambda: _face_fusion_oracle(3, lam, ctx, u),
                 lambda: bv.verify_face_ybe(u, v, w, lam, ctx)):
        del calls[:]
        face()
        assert len(calls) == 1
    bv._dual_nodes(ctx)
    reads = table_reads(monkeypatch)
    phi_tensor_matrix(lam, [rand_complex(rng) for _ in range(3)], ctx)
    bv.verify_face_ybe(*(rand_complex(rng) for _ in range(3)), lam, ctx)
    bv.verify_intertwining([rand_complex(rng)], [rand_complex(rng)], [lam], ctx)
    # one theta kernel call for the path map (one intertwiner batch over
    # its levels), one for the face YBE, and for the relation one for its
    # weights, one for R and one per level for the phis and for the
    # phibars; a scalar theta read would add calls of its own
    assert len(reads) == 1 + 1 + 6


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
    ieta = 1j * dedekind_eta(ctx3)
    for j in range(3):
        for k in range(3):
            want = theta_ml(1.5 - j, 3, u / 3 - lam[k] + 0.5,
                            ctx3.tau).value / ieta
            assert abs(pair[0][j, k] - want) < 1e-13


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
    ieta = 1j * dedekind_eta(ctx3)
    us = [u / n - lam[k] for k in range(n)]
    want = vandermonde_sign(n) * theta(sum(us), ctx3) / ieta
    for a in range(n):
        for b in range(a + 1, n):
            want *= theta(us[b] - us[a], ctx3) / ieta
    want *= (-1) ** (n - 1)      # rows 0..n-1 vs 1..n ordering
    got = complex(np.linalg.det(pair[0]))
    assert abs(got - want) / abs(want) < 1e-10


def test_intertwiner_condition_rejection(monkeypatch):
    # the closed-form phibar rejects a point whose denominator
    # theta(x_0 - x_1) falls below TOL_IDENTITY * theta_scale, and admits
    # it where the floor sits just below that factor
    ctx, near = _near_pair(3, 1e-6)
    factor = abs(th.theta(near[0] - near[1], ctx)) / th.theta_scale(ctx)
    monkeypatch.setattr(context, "TOL_IDENTITY", 0.99 * factor)
    bv.intertwiners(0.4 + 0.2j, near, ctx)
    monkeypatch.setattr(context, "TOL_IDENTITY", 1.01 * factor)
    with pytest.raises(SingularParameterError,
                       match=re.escape("theta(x_k - x_a)~0")):
        bv.intertwiners(0.4 + 0.2j, near, ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_batch_matches_single_builds(n, rng):
    ctx = default_context(n)
    lams = [wt.sample_generic(70 + s, ctx) for s in range(3)]
    us = [rand_complex(rng) for _ in range(4)]
    # a repeated pair and several distinct ones, all in one build: every
    # pair, the repeat too, is one column block of a single theta table
    pairs = [(us[0], lams[0]), (us[1], lams[1]), (us[0], lams[0]),
             (us[2], lams[2]), (us[3], lams[0]), (us[1], lams[2])]
    bv._dual_nodes(ctx)
    with pytest.MonkeyPatch.context() as mp:
        reads = table_reads(mp)
        phi, phibar = bv.intertwiners([u for u, _ in pairs],
                                      [lam for _, lam in pairs], ctx)
    # phi: n level-n columns a pair; phibar: the odd thetas of its n^2
    # theta(y_t - x_a), n^2 theta(S - x_k + y_t), n(n-1)/2 theta(x_k - x_a)
    # and one theta(S)
    assert reads == [len(pairs) * n,
                     len(pairs) * (2 * n * n + n * (n - 1) // 2 + 1)]
    assert phi.shape == phibar.shape == (len(pairs), n, n)
    for p, (u, lam) in enumerate(pairs):
        single = bv.intertwiners(u, lam, ctx.replace())
        assert np.array_equal(phi[p], single[0])
        assert np.array_equal(phibar[p], single[1])


def _theta_phi(us, mus, ctx):
    """phi as the theta path read it before it went through
    shift_intertwiners: one theta_level_table at the arguments
    u/n - <mu, epsbar_k> (u/n divided as Python does), over i eta."""
    n = ctx.n
    args = (np.array([complex(u) / n for u in us], dtype=complex)[:, None]
            - np.asarray(mus, dtype=complex).reshape(-1, n))
    ieta = 1j * th.dedekind_eta(ctx)
    return (th.theta_level_table(range(n), args.ravel(), ctx) / ieta).reshape(
        n, len(us), n).transpose(1, 0, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.3j, 0.1 + 0.08j])
def test_intertwiner_arrays_read_the_theta_path_bit_for_bit(n, tau, rng):
    # the one phi kernel, shift_intertwiners at the zero count, reads the
    # same bits as the theta path it replaced, for batches of 1 to 11 pairs
    ctx = default_context(n, tau=tau)
    for count in range(1, 12):
        us = [rand_complex(rng) for _ in range(count)]
        mus = wt.sample_many(200 + count, count, ctx)
        phi, _ = bv.intertwiners(us, mus, ctx)
        assert np.array_equal(phi, _theta_phi(us, mus, ctx))
    # control: the same path at u + hbar reads other bits
    assert not np.array_equal(phi, _theta_phi([u + ctx.hbar for u in us],
                                              mus, ctx))
    # the kernels broadcast v[2, 1] against P[2, 3, n]: at nonzero counts
    # every (v, point) of the batch reads the bits it reads alone
    counts = np.array([[0] * n, [1] + [0] * (n - 1), [2, 1] + [0] * (n - 2)])
    v = np.array([[rand_complex(rng)] for _ in range(2)])
    P = wt.sample_many(300, 6, ctx).reshape(2, 3, n)
    for kernel in (bv.shift_intertwiners, bv.dual_intertwiners):
        batch = kernel(v, P, counts, ctx)
        assert batch.shape == (2, 3, len(counts), n, n)
        for d, s in product(range(2), range(3)):
            assert np.array_equal(batch[d, s],
                                  kernel(v[d, 0], P[d, s], counts, ctx))
    # one u or one point is its row of a batch, bit for bit
    rs = bv.build_r(v + P[..., 0], ctx)
    assert rs.shape == (2, 3) + (n,) * 4
    assert np.array_equal(rs[1, 2], bv.build_r(v[1, 0] + P[1, 2, 0], ctx))
    pair = bv.intertwiners(us[-1], mus[-1], ctx)
    assert np.array_equal(pair[0], phi[-1])
    assert np.array_equal(pair[1], bv.intertwiners(us, mus, ctx)[1][-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_batch_names_the_singular_pair(n, rng):
    ctx = default_context(n)
    lam = wt.sample_generic(8, ctx)
    coords = wt.sample_generic(9, ctx)
    coords[1] = coords[0]                 # two equal columns of phi
    flat = wt.canonical(coords)
    us = [0.11 + 0.05j, 0.23 - 0.07j, -0.17 + 0.13j]
    # theta(x_0 - x_1) = theta(0) vanishes exactly at the point flat
    named = re.escape("singular intertwiner: theta(x_k - x_a)~0 at 0j")
    with pytest.raises(SingularParameterError, match=named):
        bv.intertwiners(us, [lam, flat, lam], ctx)
    with pytest.raises(SingularParameterError, match=named):
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
    # a stacked solve raises LinAlgError, and the closed form names the
    # vanishing factor theta(x_0 - x_1) at its point
    ctx = default_context(3)
    coords = wt.sample_generic(0, ctx)
    coords[1] = coords[0]
    flat = wt.canonical(coords)
    u = 0.23 - 0.07j
    ieta = 1j * th.dedekind_eta(ctx)
    phi = th.theta_level_table(range(3), u / 3 - flat, ctx) / ieta
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(phi[None], np.eye(3, dtype=complex))
    with pytest.raises(SingularParameterError, match=re.escape(
            "theta(x_k - x_a)~0 at 0j")):
        bv.intertwiners([0.1j, u], [wt.sample_generic(8, ctx), flat], ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_guard_names_the_exact_cond(n):
    ctx, near = _near_pair(n, 1e-10)
    lam = wt.sample_generic(8, ctx)
    us = [0.11 + 0.05j, 0.23 - 0.07j, -0.17 + 0.13j, 0.05 + 0.3j]
    phi = bv.shift_intertwiners(us[1], near, np.zeros((1, n), dtype=int),
                                ctx)[0]
    assert np.linalg.cond(phi) > 1e8
    # the singular pair is named by its factor, at the exact argument the
    # kernel reads
    arg = complex(near[0] - near[1] + ctx.hbar * 0)
    with pytest.raises(SingularParameterError, match=re.escape(
            f"theta(x_k - x_a)~0 at {arg}")):
        bv.intertwiners(us, [lam, near, lam, near], ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_guard_admits_a_pair_above_the_screen(n):
    # move the gap until theta(x_0 - x_1) sits at twice the floor
    # TOL_IDENTITY * theta_scale (it scales as the gap): the pair is
    # admitted, its phibar inverts phi to the rounding of a cond of about
    # 1e8, and at half the floor it raises
    u = 0.23 - 0.07j
    ctx, near = _near_pair(n, 1e-6)
    floor = context.TOL_IDENTITY * th.theta_scale(ctx)
    gap = 1e-6 * floor / abs(th.theta(near[0] - near[1], ctx))
    ctx, near = _near_pair(n, 2 * gap)
    pair = bv.intertwiners(u, near, ctx)
    cond = np.linalg.cond(pair[0])
    assert 1e7 < cond < 1e10
    assert np.max(np.abs(pair[1] @ pair[0] - np.eye(n))) <= 1e-14 * cond
    lam = wt.sample_generic(8, ctx)
    phi, phibar = bv.intertwiners([u, u, u], [lam, near, lam], ctx)
    assert np.array_equal(phi[1], pair[0])
    assert np.array_equal(phibar[1], pair[1])
    ctx, near = _near_pair(n, gap / 2)
    with pytest.raises(SingularParameterError,
                       match=re.escape("theta(x_k - x_a)~0")):
        bv.intertwiners(u, near, ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiners_report_the_exact_cond(n, rng):
    # phibar is the inverse itself, so |phi|_2 |phibar|_2 is the 2-norm
    # cond of phi, to rounding
    ctx = default_context(n)
    for s in range(3):
        pair = bv.intertwiners(rand_complex(rng), wt.sample_generic(70 + s, ctx),
                               ctx)
        cond = np.linalg.norm(pair[0], 2) * np.linalg.norm(pair[1], 2)
        assert abs(cond - np.linalg.cond(pair[0])) <= 1e-12 * cond


def _mp_phibar(u, lam, n, tau, dps=30):
    """phi(u)^-1 at lam[n] from a dps-digit mpmath inverse, phi[j, k] =
    theta_level_j(u/n - lam_k) / (i eta) with theta_level_j(x) =
    e^(2 pi i (m (x + 1/2) + m^2 tau/(2n))) jtheta_3(pi (n (x + 1/2) + m tau),
    e^(i pi n tau)), m = n/2 - j, and eta = p^(1/24) prod (1 - p^k)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        tau, u = mp.mpc(tau), mp.mpc(u)
        p = mp.exp(2j * mp.pi * tau)
        eta = mp.exp(2j * mp.pi * tau / 24) * mp.nprod(lambda k: 1 - p ** k,
                                                        [1, mp.inf])
        phi = mp.matrix(n, n)
        for j in range(n):
            m = mp.mpf(n) / 2 - j
            for k in range(n):
                x = u / n - mp.mpc(lam[k]) + mp.mpf(1) / 2
                phase = mp.exp(2j * mp.pi * (m * x + m * m * tau / (2 * n)))
                phi[j, k] = phase * mp.jtheta(
                    3, mp.pi * (n * x + m * tau),
                    mp.exp(1j * mp.pi * n * tau)) / (1j * eta)
        inv = phi ** -1
        return np.array([[complex(inv[a, b]) for b in range(n)]
                         for a in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tau", [0.1 + 0.8j, 0.1 + 0.3j, 0.1 + 0.08j])
def test_closed_form_phibar_matches_a_30_digit_inverse(n, tau, rng):
    # the closed form against mpmath at 30 digits, relative to the largest
    # entry of each matrix; the cond of phi reaches 1e5 at tau = 0.1+0.08i
    ctx = default_context(n, tau=tau)
    us = [rand_complex(rng) for _ in range(3)]
    lams = wt.sample_many(140 + n, 3, ctx)
    _, phibar = bv.intertwiners(us, lams, ctx)
    for u, lam, got in zip(us, lams, phibar):
        want = _mp_phibar(u, lam, n, tau)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_duality_reads_a_moved_column_of_phi_red(n, monkeypatch):
    # phibar no longer comes from phi, so duality can fail: one column of
    # every phi moved by 1e-6 relative turns it red at every seed 0-7
    from etlax.suites import run_suite
    plain = bv.shift_intertwiners

    def moved(*args):
        out = plain(*args)
        out[..., 0] *= 1 + 1e-6
        return out

    def duality(seed):
        rep = run_suite("intertwiner", default_context(n), seed)
        return {c.name: c for c in rep.cases}["duality"]
    clean = [duality(seed) for seed in range(8)]
    monkeypatch.setattr(bv, "shift_intertwiners", moved)
    bad = [duality(seed) for seed in range(8)]
    assert all(c.ok for c in clean) and not any(b.ok for b in bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_columns_1e_12_apart_raise_naming_the_factor(n):
    ctx, near = _near_pair(n, 1e-12)
    assert abs(near[0] - near[1] + 1e-12) < 1e-15
    with pytest.raises(SingularParameterError, match=re.escape(
            f"singular intertwiner: theta(x_k - x_a)~0 at "
            f"{complex(near[0] - near[1] + ctx.hbar * 0)}")):
        bv.intertwiners(0.23 - 0.07j, near, ctx)


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


@pytest.mark.parametrize("n", [2, 3])
def test_intertwining_reads_only_the_pairs_its_relations_use(n):
    # at u = hbar, phibar(u - hbar) = phibar(0) at a first step has
    # theta(S) = theta(0): the relations read phibar(u) there (count e_a at
    # u + hbar), so they are formed and hold
    ctx = default_context(n)
    lam, v = wt.sample_generic(66, ctx), 0.27 - 0.05j
    res = bv.verify_intertwining([ctx.hbar], [v], [lam], ctx)
    assert res["vertex-face"].rel < 1e-9 and res["dual"].rel < 1e-9
    # control: one dual call over the cross product of the parameters
    # and the counts of both levels reads that pair and raises
    counts = np.vstack([np.zeros(n, dtype=int), np.eye(n, dtype=int)])
    with pytest.raises(SingularParameterError,
                       match=re.escape("theta(S)~0 at ")):
        bv.dual_intertwiners(np.array([ctx.hbar, v, 2 * ctx.hbar,
                                       v + ctx.hbar]), lam, counts, ctx)


def test_antisymmetrizer_image(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        pi2 = _antisymmetrizer(2, ctx, u=rand_complex(rng))
        perm = bv.permutation_matrix(ctx.n)
        sym = (np.eye(ctx.n ** 2) + perm) @ pi2
        assert np.max(np.abs(sym)) / np.max(np.abs(pi2)) < 1e-12


def test_antisymmetrizer_rank(ctx3):
    for k in (2, 3):
        pi = _antisymmetrizer(k, ctx3, u=0.13 + 0.21j)
        svals = np.linalg.svd(pi, compute_uv=False)
        assert int(np.sum(svals > 1e-8 * svals[0])) == math.comb(3, k)


def test_antisymmetrizer_u_independence(ctx3, rng):
    for k in (2, 3):
        a = _antisymmetrizer(k, ctx3, u=rand_complex(rng))
        b = _antisymmetrizer(k, ctx3, u=rand_complex(rng))
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-10


def test_antisymmetrizer_range_validation(ctx3):
    with pytest.raises(ValueError):
        bv.antisymmetrizer_on(4, np.eye(3 ** 4, dtype=complex), ctx3)


def test_fusion_intertwining(ctx3, rng):
    lam = wt.sample_generic(70, ctx3)
    assert bv.verify_fusion_intertwining(2, rand_complex(rng), lam, ctx3).rel \
        < 1e-9
    assert bv.verify_fusion_intertwining(3, rand_complex(rng), lam, ctx3).rel \
        < 1e-8


def _dense_fusion_intertwining(k, u, lam, ctx):
    # the relation on whole matrices: the braid of pi on all n^k columns of
    # Phi, and Phi' times the dense face fusion operator
    params, moves = bv.fusion_parameters(k, u, ctx), bv.fusion_moves(k)
    lhs = bv._braid_on(params, moves, phi_tensor_matrix(lam, params, ctx),
                       ctx)
    rhs = phi_tensor_matrix(lam, params[::-1], ctx) \
        @ _face_fusion_oracle(k, lam, ctx, u)
    return bv._rel(lhs, rhs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocked_fusion_residual_equals_the_dense_product(n, rng):
    # the column blocks of Phi, its braid and Phi' F reduce to _rel of the
    # dense braid and the dense product with the dense face fusion
    # operator, bit for bit
    ctx = default_context(n)
    read = 0
    for seed in range(4):
        lam = wt.sample_generic(170 + seed, ctx)
        for k in range(2, n + 1):
            u = rand_complex(rng)
            try:
                got = bv.verify_fusion_intertwining(k, u, lam, ctx)
            except SingularParameterError:
                continue
            assert got == _dense_fusion_intertwining(k, u, lam, ctx), (seed, k)
            read += 1
    assert read >= 2 * (n - 1)


def test_intertwiner_n4_equals_the_dense_oracle_at_the_identities_seeds(
        monkeypatch):
    # at the program seeds of a 45 s identities run at seed 42 (which
    # hold the runs whose fusion-intertwining-k4 reads within rounding of
    # its tolerance), every case of the blocked run equals the run with
    # the dense relation patched in: rel, abs and ok
    from etlax.suites import run_suite
    ctx = default_context(4)
    seeds = [42 + i * 1_000_003 for i in range(17)]
    blocked = [run_suite("intertwiner", ctx, s).cases for s in seeds]
    monkeypatch.setattr(bv, "verify_fusion_intertwining",
                        _dense_fusion_intertwining)
    dense = [run_suite("intertwiner", ctx, s).cases for s in seeds]
    assert blocked == dense
    assert any(not c.ok for cases in dense for c in cases)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_path_tensor_column_ranges_equal_the_whole(n, rng):
    # any range lo:hi of columns, into a fresh array or into out, is the
    # slice of the whole matrix, bit for bit
    ctx = default_context(n)
    lam = wt.sample_generic(171, ctx)
    for k in range(1, n + 1):
        levels = bv._phi_levels(lam, [rand_complex(rng) for _ in range(k)],
                                ctx)
        whole, size = bv._path_tensor(levels, n), n ** k
        for lo, hi in ((0, size), (0, 1), (size - 1, size),
                       *(sorted(rng.choice(size + 1, 2, replace=False))
                         for _ in range(3))):
            assert np.array_equal(bv._path_tensor(levels, n, lo, hi),
                                  whole[:, lo:hi])
            out = np.full((size, hi - lo), np.nan, dtype=complex)
            assert bv._path_tensor(levels, n, lo, hi, out) is out
            assert np.array_equal(out, whole[:, lo:hi])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_path_rows_equal_the_rows_of_the_whole(n, rng):
    # every row block a of _path_rows, at every level count k = 1..n, is
    # the rows a n^(k-1) to (a + 1) n^(k-1) of the whole matrix, bit for
    # bit, written into the one buffer it is given
    ctx = default_context(n)
    lam = wt.sample_generic(172, ctx)
    for k in range(1, n + 1):
        levels = bv._phi_levels(lam, [rand_complex(rng) for _ in range(k)],
                                ctx)
        whole, rows = bv._path_tensor(levels, n), bv._path_rows(levels, n)
        height = n ** (k - 1)
        out = np.full((height, n ** k), np.nan, dtype=complex)
        for a in (*range(n), 0):
            assert rows(a, out) is out
            block = whole[a * height:(a + 1) * height]
            assert np.array_equal(out.view(np.uint64),
                                  block.view(np.uint64)), (k, a)


def test_fusion_intertwining_reads_one_face_stack_entry_off_red(monkeypatch):
    # the largest entry of the face stack in the column of the path
    # (0, 1, 2), whose orbit holds no repeated path, off by 1e-6 relative:
    # the k = 3 case reads red at every seed 0-7 (the least 4.7e-8), clean
    # at most 1e-10, against 1e-8
    from etlax.suites import run_suite
    ctx = default_context(3)
    face = bv._face_orbits
    column = np.flatnonzero(bv._orbit_plan(3, 3)[1] == 5)

    def case(seed):
        rep = run_suite("intertwiner", ctx, seed)
        return {c.name: c for c in rep.cases}["fusion-intertwining-k3"]

    def off(base, k, sides, c):
        out = face(base, k, sides, c)
        if k == 3:
            entry = out[0][0]
            entry[column[np.argmax(np.abs(entry[column]))]] *= 1 + 1e-6
        return out
    clean = [case(seed) for seed in range(8)]
    monkeypatch.setattr(bv, "_face_orbits", off)
    bad = [case(seed) for seed in range(8)]
    assert all(c.ok for c in clean) and not any(b.ok for b in bad)


def test_intertwiner_run_stays_small():
    # fusion-intertwining-k4 holds Phi, its braid and Phi' F in column
    # blocks of 16 and Phi' in row blocks of 64, never an n^k x n^k
    # matrix: about 0.95 MB at n = 4.  A whole Phi' alone is 1,048,576
    # bytes there, so the bound fails if one comes back
    import tracemalloc
    from etlax.suites import run_suite
    ctx = default_context(4)
    run_suite("intertwiner", ctx, 0)                  # warm plan caches
    peaks = []
    for seed in range(8):
        tracemalloc.start()
        try:
            run_suite("intertwiner", ctx, seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.0e6


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
    got = bv.build_r(us, ctx)
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
        one = bv.build_r(u, ctx)
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
            got = _braid_matrix(params, moves, ctx)
            want = _kron_braid(params, moves, ctx)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (k, moves)
        # the same moves applied to columns
        cols = rng.normal(size=(n ** k, 3)) + 1j * rng.normal(size=(n ** k, 3))
        on_cols = bv._braid_on(params, moves, cols.copy(), ctx)
        assert np.max(np.abs(on_cols - want @ cols)) \
            <= 1e-13 * scale * np.max(np.abs(cols)) * n ** k
        # and on the fixed random block the fusion cases read
        block = bv.sketch_block(k, n, math.comb(n, k) + 2)
        on_block = bv._braid_on(params, moves, block.astype(complex), ctx)
        assert np.max(np.abs(on_block - got @ block)) \
            <= 1e-13 * np.max(np.abs(got @ block))
        # control: the parameters in reverse order give another operator
        back = _kron_braid(params[::-1], moves, ctx)
        assert np.max(np.abs(got - back)) > 1e-3 * scale
    plain = _braid_matrix(params[:2], [0], ctx.replace())
    assert np.max(np.abs(plain - _kron_braid(params[:2], [0], ctx))) \
        <= 1e-13 * np.max(np.abs(plain))


# In-test copies of the intertwining relations as they were written before
# the einsum contractions: one generator sum per output entry.

def _loop_vertex_face(u, v, lam, ctx):
    from etlax.theta import residual_pair, worst_of
    n = ctx.n
    rt = _loop_r(u - v, ctx)
    keep, cross = (w[0, 0] for w in _pair_weights(2, 0, lam[None], [u - v],
                                                   ctx))
    ups = [shift_eps(lam, a, ctx.hbar) for a in range(n)]
    phi_u = bv.intertwiners(u, lam, ctx)[0]
    phi_v = bv.intertwiners(v, lam, ctx)[0]
    phi_u_up = [bv.intertwiners(u, mu, ctx)[0] for mu in ups]
    phi_v_up = [bv.intertwiners(v, mu, ctx)[0] for mu in ups]
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
    keep, cross = (w[0, 0] for w in _pair_weights(2, 0, lam[None], [u - v],
                                                   ctx))
    ups = [shift_eps(lam, a, ctx.hbar) for a in range(n)]
    pb_u = bv.intertwiners(u, lam, ctx)[1]
    pb_v = bv.intertwiners(v, lam, ctx)[1]
    pb_u_up = [bv.intertwiners(u, mu, ctx)[1] for mu in ups]
    pb_v_up = [bv.intertwiners(v, mu, ctx)[1] for mu in ups]
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


def _swapped_off_diagonal(tables):
    """_weight_tables with keep and cross exchanged off the diagonal: the
    last column, where i == j, keeps its one weight, diag in keep."""
    def swapped(*args):
        return [(np.concatenate([cross[:, :-1], keep[:, -1:]], axis=1),
                 np.concatenate([keep[:, :-1], cross[:, -1:]], axis=1))
                for keep, cross in tables(*args)]
    return swapped


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
    # control: keep and cross exchanged off the diagonal inside
    # _weight_tables break both relations, and the batch reports the worst
    # residual of the per-sample loop forms, which read the same tables
    monkeypatch.setattr(bv, "_weight_tables",
                        _swapped_off_diagonal(bv._weight_tables))
    got = bv.verify_intertwining(us, vs, lams, ctx)
    for key, loop in pairs:
        want = max(loop(*sample, ctx).rel for sample in zip(us, vs, lams))
        assert want > 1e-2
        assert abs(got[key].rel - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwining_cases_read_their_controls_red(n):
    # on the tensor matrices, at seeds 0-7: keep and cross exchanged off
    # the diagonal inside _weight_tables turn both relations red; one entry
    # of each phibar batch off by 1e-6 relative turns the dual relation red
    # on its own, and the outgoing one, which reads no phibar, keeps its bits
    from etlax.suites import run_suite
    dual_kernel = bv.dual_intertwiners

    def one_entry_off(*args):
        out = dual_kernel(*args)
        out[(0,) * out.ndim] *= 1 + 1e-6
        return out

    def cases(seed, patch=()):
        with pytest.MonkeyPatch.context() as mp:
            if patch:
                mp.setattr(bv, *patch)
            rep = run_suite("intertwiner", default_context(n), seed)
        return {c.name: c for c in rep.cases}

    outgoing, dual = "vertex-face-intertwining", "dual-intertwining"
    for seed in range(8):
        clean = cases(seed)
        swapped = cases(seed, ("_weight_tables",
                               _swapped_off_diagonal(bv._weight_tables)))
        assert swapped[outgoing].rel > 1e-2 and swapped[dual].rel > 1e-2
        off = cases(seed, ("dual_intertwiners", one_entry_off))
        assert clean[dual].ok and not off[dual].ok
        assert off[outgoing].rel == clean[outgoing].rel


def test_vertex_checks_read_one_character_table_per_batch(monkeypatch, rng):
    ctx = default_context(3)
    calls = []
    table = bv.theta_char_table
    monkeypatch.setattr(bv, "theta_char_table",
                        lambda rows, us, c: calls.append(len(us))
                        or table(rows, us, c))
    us = [rand_complex(rng) for _ in range(10)]
    lam = wt.sample_generic(64, ctx)
    bv._dual_nodes(ctx)
    checks = [
        lambda: bv.build_r(us, ctx),
        lambda: bv.build_r(us[0], ctx),
        lambda: bv.verify_r_symmetry(us, ctx),
        lambda: bv.verify_r_quasiperiodicity(us, ctx),
        lambda: bv.verify_r_holomorphy(ctx),
        lambda: bv.verify_ybe(us[:4], us[4:8], us[6:], ctx),
        lambda: _braid_matrix(us[:3], bv.fusion_moves(3), ctx),
        lambda: bv.verify_intertwining(us[:1], us[1:2], [lam], ctx),
    ]
    reads = table_reads(monkeypatch)
    for check in checks:
        calls.clear()
        del reads[:]
        check()
        assert len(calls) == 1
        # and no scalar theta read next to it: R alone is one kernel call,
        # the intertwining relation adds its face weights, and the phis and
        # the phibars of its two levels
        assert len(reads) == (6 if check is checks[-1] else 1)
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
    # and through the batched face-ybe check: one of its 25 samples, on
    # the orbit stack of one side
    monkeypatch.undo()
    face = bv._face_orbits
    def one_nan(bases, k, sides, c):
        out = face(bases, k, sides, c)
        if len(bases) == 25:
            out[0][2, 0] = np.nan
        return out
    monkeypatch.setattr(bv, "_face_orbits", one_nan)
    rep = run_suite("face-ybe", ctx, 0)
    case = {c.name: c for c in rep.cases}["face-ybe"]
    assert math.isnan(case.rel) and not case.ok and not rep.passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_suites_pass_across_seeds(n):
    from etlax.suites import run_suite
    # intertwiner raises at some seeds at n = 4 (ill-conditioned phi)
    names = ("ybe", "face-ybe", "intertwiner")[:2 if n == 4 else 3]
    failed = [(name, seed)
              for name in names
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_suites_pass_across_seeds(n):
    # the theta identity suites of the identities workload, next to its
    # vertex suites above
    from etlax.suites import run_suite
    failed = [(name, seed)
              for name in ("theta", "qfay", "fay", "vandermonde")
              for seed in range(8)
              if not run_suite(name, default_context(n), seed).passed]
    assert failed == []


def test_partial_shifts_are_the_plans_of_both_sides():
    from etlax import transfer as tr
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            prefixes, prefix = bv.partial_shifts(n, k)
            # the per-level loop each plan ran on its own, transcribed, on
            # the exact step counts
            tuples = list(product(range(n), repeat=k))
            for r in range(k):
                counts = [tuple(t[:r].count(i) for i in range(n))
                          for t in tuples]
                distinct = tuple(dict.fromkeys(counts))
                assert prefixes[r] == distinct
                assert all(sum(c) == r for c in distinct)
                assert prefix[r].dtype == int and np.array_equal(
                    prefix[r], [distinct.index(c) for c in counts])
                # one level's counts are equal exactly when their canonical
                # keys are, so the plan is the one the keys made
                keys = [wt.canonical_key(c) for c in counts]
                assert np.array_equal(prefix[r], [
                    tuple(dict.fromkeys(keys)).index(key) for key in keys])
            plan = tr._fusion_plan(n, k)
            assert plan.prefix is prefix
            assert np.array_equal(plan.counts,
                                  [c for level in prefixes for c in level])
            # and the counts the plan once rebuilt from the canonical keys
            assert np.array_equal(plan.counts, [
                [x + (r - sum(key)) // n for x in key]
                for r, level in enumerate(prefixes)
                for key in map(wt.canonical_key, level)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sketched_fusion_rank_agrees_with_the_full_svd(n, monkeypatch):
    # fusion-rank-k{k} counts the singular values of pi G, G the fixed
    # random block: it passes at every pi the suite reads, whose full
    # SVD reads C(n, k) too, and a rank-one bump of 1e-3 max|pi|, applied
    # as bump G, makes it read red
    from etlax.suites import run_suite
    ctx, build, built = default_context(n), bv.antisymmetrizer_on, []
    bumps = {}
    for k in range(2, n + 1):
        bump = np.outer(*np.random.default_rng(k).standard_normal((2, n ** k)))
        bumps[k] = 1e-3 * bump / np.max(np.abs(bump))

    def rank_cases(scale):
        def bumped(k, cols, ctx, u=0.0):
            pi = build(k, np.eye(n ** k, dtype=complex), ctx, u)
            built.append((k, pi))
            bump_g = bumps[k] @ cols
            return build(k, cols, ctx, u) \
                + scale * np.max(np.abs(pi)) * bump_g
        monkeypatch.setattr(bv, "antisymmetrizer_on", bumped)
        found = []
        for seed in range(8):
            rep = run_suite("intertwiner", ctx, seed)
            found += [c.ok for c in rep.cases
                      if c.name.startswith("fusion-rank-k")]
        assert len(found) == 8 * (n - 1)
        return found

    assert all(rank_cases(0.0))
    for k, pi in built:
        assert np.linalg.matrix_rank(pi, rtol=1e-8) == math.comb(n, k)
    assert not any(rank_cases(1.0))


def _dense_ybe(us, vs, ws, ctx):
    # verify_ybe as it was written before the random block: both sides
    # braid the n^3 x n^3 identity of every triple
    n = ctx.n
    r_uv, r_uw, r_vw = bv.rcheck_table(
        np.concatenate([us - vs, us - ws, vs - ws]), ctx).reshape(
            3, len(us), n * n, n * n)
    eye = np.tile(np.eye(n ** 3, dtype=complex), (len(us), 1, 1))
    lhs = bv._apply_moves(eye.copy(), [r_vw, r_uw, r_uv], [1, 0, 1], n)
    rhs = bv._apply_moves(eye, [r_uv, r_uw, r_vw], [0, 1, 0], n)
    return bv._rel(lhs, rhs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sketched_ybe_matches_the_dense_oracle(n, monkeypatch):
    # both read rounding at seeds 0-7, and one Rcheck off by 1e-6 of its
    # largest entry turns both red at the suite tolerance 1e-8
    ctx = default_context(n)
    for seed in range(8):
        us, vs, ws = np.random.default_rng(seed).uniform(
            -0.4, 0.4, size=(3, 25, 2)).view(complex)[..., 0]
        assert bv.verify_ybe(us, vs, ws, ctx).rel <= 1e-13
        assert _dense_ybe(us, vs, ws, ctx).rel <= 1e-13
    table = bv.rcheck_table
    def off(deltas, c):
        out = table(deltas, c)
        out[7, 1, 2] += 1e-6 * np.max(np.abs(out[7]))
        return out
    monkeypatch.setattr(bv, "rcheck_table", off)
    assert bv.verify_ybe(us, vs, ws, ctx).rel > 1e-8
    assert _dense_ybe(us, vs, ws, ctx).rel > 1e-8


def _bumped_case(name, n, seed, monkeypatch, patch):
    # the case `name` of the suite at (n, seed) with `patch` in place
    from etlax.suites import run_suite
    monkeypatch.setattr(bv, patch[0], patch[1])
    suite = "ybe" if "ybe" in name else "intertwiner"
    try:
        rep = run_suite(suite, default_context(n), seed)
    finally:
        monkeypatch.undo()
    return {c.name: c for c in rep.cases}[name]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sketched_cases_read_their_controls_red(n, monkeypatch):
    # each case read on the random block sees a defect of 1e-6 relative
    # in the operator it checks, at every seed 0-7, at its tolerance
    table, build = bv.rcheck_table, bv.antisymmetrizer_on
    gen = np.random.default_rng(5)

    def one_rcheck_off(deltas, c):
        # one Rcheck of the vertex-ybe batch of 25 triples
        out = table(deltas, c)
        if len(deltas) == 75:
            bump = gen.standard_normal(out[7].shape)
            out[7] += 1e-6 * np.max(np.abs(out[7])) * bump / np.max(np.abs(bump))
        return out

    def bumped(sym):
        # pi + 1e-6 max|pi| B, B a fixed Gaussian scaled to max 1: made
        # symmetric under the swap P and added at k = 2 (sym), else added
        # to every pi(u) but that of the first u read at each k
        first = {}
        def on(k, cols, c, u=0.0):
            out = build(k, cols.copy(), c, u)
            if not (k == 2 if sym else first.setdefault(k, u) != u):
                return out
            bump = np.random.default_rng(k).standard_normal((n ** k,) * 2)
            if sym:
                bump += bv.permutation_matrix(n).real @ bump
            pi = build(k, np.eye(n ** k, dtype=complex), c, u)
            return out + 1e-6 * np.max(np.abs(pi)) \
                * (bump / np.max(np.abs(bump))) @ cols
        return on

    read = 0
    for seed in range(8):
        controls = (("vertex-ybe", ("rcheck_table", one_rcheck_off)),
                    ("fusion-antisymmetry", ("antisymmetrizer_on", bumped(True))))
        controls += tuple((f"fusion-u-independence-k{k}",
                           ("antisymmetrizer_on", bumped(False)))
                          for k in range(2, n + 1))
        for name, patch in controls:
            case = _bumped_case(name, n, seed, monkeypatch, patch)
            assert case.tol == 1e-8 and not case.ok, (name, seed, case.rel)
            read += 1
    assert read == 8 * (n + 1)


def test_vertex_suites_braid_no_dense_operand_outside_fusion_intertwining(
        monkeypatch):
    # at n = 4 every _apply_moves operand of the ybe and intertwiner suites
    # has fewer than n^k columns; fusion-intertwining-k{k} braids the phi
    # tensor matrix in blocks of 16 columns, so no operand of k = 3, 4 has
    # n^k columns and only k = 2, whose 16 columns are one block, is square
    from etlax.suites import run_suite
    apply, fusion = bv._apply_moves, bv.verify_fusion_intertwining
    shapes, inside = [], []
    def recorded(op, rchecks, moves, n, buf=None):
        shapes.append((op.shape, bool(inside)))
        return apply(op, rchecks, moves, n, buf)
    def within(*args):
        inside.append(1)
        try:
            return fusion(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(bv, "_apply_moves", recorded)
    monkeypatch.setattr(bv, "verify_fusion_intertwining", within)
    ctx = default_context(4)
    for name in ("ybe", "intertwiner"):
        del shapes[:]
        run_suite(name, ctx, 1)
        fused = [shape for shape, fused in shapes if fused]
        assert fused == ([(16, 16)] + [(64, 16)] * 4 + [(256, 16)] * 16
                         if name == "intertwiner" else [])
        assert shapes and all(shape[-1] < shape[-2]
                              for shape, fused in shapes if not fused)


def test_zero_sketch_reads_fusion_rank_red(monkeypatch, tmp_path, capsys):
    # a sketch block of zeros makes pi G zero: its u-independence and
    # antisymmetry read Residual(0, 0) through theta.relative, and the rank
    # cases, which read rank 0, fail the command (exit 1)
    import json
    from etlax import cli
    monkeypatch.setattr(bv, "sketch_block",
                        lambda k, n, cols: np.zeros((n ** k, cols)))
    path = tmp_path / "rep.json"
    assert cli.main(["intertwiner", "--n", "3", "--json", str(path)]) == 1
    capsys.readouterr()
    cases = {c["name"]: c for c in
             json.loads(path.read_text())["suites"][0]["cases"]}
    red = sorted(name for name, c in cases.items() if not c["ok"])
    assert red == ["fusion-rank-k2", "fusion-rank-k3"]
    for name in ("fusion-u-independence-k2", "fusion-u-independence-k3",
                 "fusion-antisymmetry"):
        assert (cases[name]["rel"], cases[name]["abs"]) == (0.0, 0.0)
