"""Belavin's elliptic R-matrix, face weights, intertwining vectors, fusion.

Vertex side: V = span(e^0, ..., e^{n-1}) with indices mod n.  The R-matrix
acts as R(u) e^i x e^j = sum e^{i'} x e^{j'} R(u)^{ij}_{i'j'} with entries

    R(u)^{ij}_{i'j'} = d_{i+j,i'+j'}  theta^(i'-j')(u+hbar) / theta^(i'-i)(hbar)
                       * prod_{k != i-j'} theta^(k)(u) / prod_{k=1}^{n-1} theta^(k)(0),

where the theta^(i-j')(u) denominator has been cancelled against the
numerator product, making every entry manifestly holomorphic in u (this is
what makes R(0) = P exact instead of a 0/0 limit).

Face side: paths are step sequences (i_1, ..., i_k) from a base weight, each
step adding hbar*epsbar_i, held as an (n^k, k) integer array.  The weight
after a prefix is base + hbar * (its step counts), so lam_ij there is
base_ij + hbar * (count_i - count_j) with integer counts, never a
re-canonicalized shifted point.  A face move at (pos, pos+1) reads all its
weights from one theta table; it keeps every path's step multiset, so a
product of moves is block-diagonal (blocks of at most k! paths), is applied
to a stack of blocks and scattered into the path matrix once.  The path
plan of each (n, k) is built once.  The intertwiner map along paths reads
one intertwiner batch per step level, at the distinct prefix weights.
The fusion operators on both sides are products of adjacent-swap moves whose
spectral parameters are tracked positionally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np

from .context import ModularContext, SingularParameterError
from .opalg import perm_sign
from .theta import (Residual, dedekind_eta, residual_pair, theta_char,
                    theta_level_table, theta_table, worst_of)
from .weights import WeightPoint, canonical_key

_EPS = 1e-300


# ---------------------------------------------------------------- vertex side

def g_matrix(ctx: ModularContext) -> np.ndarray:
    """g e^k = exp(2 pi i k / n) e^k."""
    return np.diag(np.exp(2j * np.pi * np.arange(ctx.n) / ctx.n))


def h_matrix(ctx: ModularContext) -> np.ndarray:
    """h e^k = e^{k+1}."""
    n = ctx.n
    m = np.zeros((n, n), dtype=complex)
    for k in range(n):
        m[(k + 1) % n, k] = 1.0
    return m


@dataclass(frozen=True)
class RTensor:
    """R(u) as an (n,n,n,n) array indexed [i, j, i', j'], plus its u."""

    entries: np.ndarray
    u: complex

    def as_matrix(self) -> np.ndarray:
        """Matrix with column (i,j), row (i',j'): out = M @ in."""
        n = self.entries.shape[0]
        return np.transpose(self.entries, (2, 3, 0, 1)).reshape(n * n, n * n)


def build_r(u: complex, ctx: ModularContext) -> RTensor:
    """Belavin R-matrix at spectral parameter u."""
    n = ctx.n
    tc_u = np.array([theta_char(k, u, ctx) for k in range(n)])
    tc_uh = np.array([theta_char(k, u + ctx.hbar, ctx) for k in range(n)])
    tc_h = np.array([theta_char(k, ctx.hbar, ctx) for k in range(n)])
    tc_0 = np.array([theta_char(k, 0.0, ctx) for k in range(n)])
    if min(abs(x) for x in tc_h) < 100 * _EPS:
        raise SingularParameterError(f"theta^(k)(hbar) vanishes at hbar={ctx.hbar}")
    denom0 = np.prod(tc_0[1:])
    # prod_except[m] = prod_{k != m} theta^(k)(u)
    prod_except = np.empty(n, dtype=complex)
    for m in range(n):
        prod_except[m] = np.prod(np.concatenate([tc_u[:m], tc_u[m + 1:]]))
    ent = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s = (i + j) % n
            for ip in range(n):
                jp = (s - ip) % n
                ent[i, j, ip, jp] = (tc_uh[(ip - jp) % n] / tc_h[(ip - i) % n]
                                     * prod_except[(i - jp) % n] / denom0)
    return RTensor(ent, u)


def permutation_matrix(n: int) -> np.ndarray:
    p = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            p[b * n + a, a * n + b] = 1.0
    return p


def rcheck_matrix(delta: complex, ctx: ModularContext) -> np.ndarray:
    """Rcheck(delta) = P R(delta) as an n^2 x n^2 matrix."""
    return permutation_matrix(ctx.n) @ build_r(delta, ctx).as_matrix()


def _conj(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    return x @ m @ np.linalg.inv(x)


def _rel(a: np.ndarray, b: np.ndarray) -> Residual:
    d = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(a)) + np.max(np.abs(b)) + _EPS)
    return Residual(rel=d / scale, abs=d)


def verify_r_symmetry(u: complex, ctx: ModularContext) -> dict:
    """(x (x) x) R (x (x) x)^{-1} = R for x = g, h."""
    rm = build_r(u, ctx).as_matrix()
    out = {}
    for name, x in (("g", g_matrix(ctx)), ("h", h_matrix(ctx))):
        xx = np.kron(x, x)
        out[name] = _rel(_conj(xx, rm), rm)
    return out


def verify_r_quasiperiodicity(u: complex, ctx: ModularContext) -> dict:
    """The u+1 and u+tau transformation laws of the R-matrix."""
    n = ctx.n
    rm = build_r(u, ctx).as_matrix()
    g1 = np.kron(g_matrix(ctx), np.eye(n))
    h1 = np.kron(h_matrix(ctx), np.eye(n))
    r_u1 = build_r(u + 1.0, ctx).as_matrix()
    law1 = -np.linalg.inv(g1) @ rm @ g1
    r_ut = build_r(u + ctx.tau, ctx).as_matrix()
    fac = (-np.exp(2j * np.pi * (u + ctx.hbar / n + ctx.tau / 2.0))) ** (-1)
    lawt = fac * (h1 @ rm @ np.linalg.inv(h1))
    return {"period-1": _rel(r_u1, law1), "period-tau": _rel(r_ut, lawt)}


def verify_r_zero_is_permutation(ctx: ModularContext) -> Residual:
    return _rel(build_r(0.0, ctx).as_matrix(), permutation_matrix(ctx.n))


def verify_r_holomorphy(ctx: ModularContext, radius: float = 0.12,
                        nodes: int = 64) -> Residual:
    """Contour check: entrywise loop integral of R(u) around candidate poles.

    The raw entry formula divides by theta^(i-j')(u); its zeros m*tau are the
    only candidate u-poles.  A vanishing loop integral certifies that the
    cancellation against the numerator product is real, not accidental.
    """
    worst_abs, scale = 0.0, 0.0
    for m in range(1, ctx.n):
        center = m * ctx.tau
        acc = np.zeros((ctx.n,) * 4, dtype=complex)
        for t in range(nodes):
            ang = 2.0 * np.pi * t / nodes
            z = center + radius * np.exp(1j * ang)
            dz = radius * np.exp(1j * ang) * (2j * np.pi / nodes)
            ent = build_r(z, ctx).entries
            acc += ent * dz
            scale = max(scale, float(np.max(np.abs(ent))) * 2.0 * np.pi * radius)
        worst_abs = max(worst_abs, float(np.max(np.abs(acc))))
    return Residual(rel=worst_abs / (scale + _EPS), abs=worst_abs)


def verify_ybe(u: complex, v: complex, w: complex, ctx: ModularContext) -> Residual:
    """Yang-Baxter equation in braid (Rcheck) form on V^(x)3."""
    n = ctx.n
    eye = np.eye(n)
    def lift12(m):
        return np.kron(m, eye)
    def lift23(m):
        return np.kron(eye, m)
    r_uv = rcheck_matrix(u - v, ctx)
    r_uw = rcheck_matrix(u - w, ctx)
    r_vw = rcheck_matrix(v - w, ctx)
    lhs = lift23(r_uv) @ lift12(r_uw) @ lift23(r_vw)
    rhs = lift12(r_vw) @ lift23(r_uw) @ lift12(r_uv)
    return _rel(lhs, rhs)


# ------------------------------------------------------------------ face side

@functools.lru_cache(maxsize=None)
def _path_plan(n: int, k: int) -> SimpleNamespace:
    """Index arrays of the length-k paths at rank n.

    paths[p] is the step sequence of path p, in paths order (lexicographic).
    At level r, prefixes[r] holds the distinct canonical step counts of the
    first r steps and prefix[r][p] the one of path p.  A move at position
    pos acts on steps (pos, pos+1) with the weight lam_ij,
    lam = base + hbar * (step counts of the prefix): pairs[pos] lists the
    distinct (i, j, count_i - count_j) over the paths with i != j there and
    pair[pos][p] indexes it (-1 when i == j).  A move keeps each path's
    step multiset, so it acts on blocks: layout[b, s] is the path in slot s
    of block b (len(paths) pads short blocks), partner[pos][b, s] the slot
    of its swap at pos (its own slot for padding), and the stack entry
    (b, s, s') lands at scatter[0] in the flattened stack and at
    (scatter[1], scatter[2]) in the path matrix.
    """
    tuples = list(product(range(n), repeat=k))
    index = {t: p for p, t in enumerate(tuples)}
    prefixes, prefix = [], []
    for r in range(k):
        keys = [canonical_key([t[:r].count(i) for i in range(n)])
                for t in tuples]
        distinct = tuple(dict.fromkeys(keys))
        pos = {key: a for a, key in enumerate(distinct)}
        prefixes.append(distinct)
        prefix.append(np.array([pos[key] for key in keys], dtype=int))
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
    paths = np.array(tuples, dtype=int).reshape(len(tuples), k)
    for arr in (paths, *prefix, *pairs, *pair, layout, *partner, *scatter):
        arr.setflags(write=False)       # the cached plan is shared
    return SimpleNamespace(
        paths=paths, prefixes=tuple(prefixes), prefix=tuple(prefix), pairs=tuple(pairs),
        pair=tuple(pair), layout=layout, partner=tuple(partner),
        scatter=scatter)


def _face_weights(lij, delta: complex, ctx: ModularContext):
    """The face weights with spectral argument delta, from one theta table:

    diag                          theta(delta+h)/theta(h)
    cis[a]   at lij[a]            theta(-delta+lij)/theta(lij)
    trans[a] at lij[a]            theta(delta)/theta(h) * theta(h+lij)/theta(lij)

    Raises SingularParameterError where |theta(lij)| < tol_identity.
    """
    hb = ctx.hbar
    lij = np.asarray(lij, dtype=complex)
    m = len(lij)
    t = theta_table(np.concatenate(
        [[delta + hb, hb, delta], lij, lij - delta, lij + hb]), ctx)
    den = t[3:3 + m]
    bad = np.abs(den) < ctx.tol_identity
    if bad.any():
        raise SingularParameterError(
            f"resonant weight: theta(lambda_ij)~0 at {lij[np.argmax(bad)]}")
    return (t[0] / t[1], t[3 + m:3 + 2 * m] / den,
            t[2] / t[1] * t[3 + 2 * m:] / den)


def face_weight(lam: WeightPoint, i: int, j: int, kind: str, u: complex,
                ctx: ModularContext) -> complex:
    """One face weight at base weight lam (the one-entry _face_weights).

    kind 'diag':  both steps i (requires i == j)     theta(u+h)/theta(h)
    kind 'cis':   steps (i,j), unchanged middle      theta(-u+lam_ij)/theta(lam_ij)
    kind 'trans': steps (i,j), crossed middle        theta(u)/theta(h)
                                                     * theta(h+lam_ij)/theta(lam_ij)
    """
    if kind not in ("diag", "cis", "trans"):
        raise ValueError(f"unknown face weight kind {kind!r}")
    if (kind == "diag") != (i == j):
        raise ValueError(f"{kind} face weight needs "
                         f"{'i == j' if kind == 'diag' else 'i != j'}")
    diag, cis, trans = _face_weights([] if i == j else [lam.diff(i, j)], u,
                                     ctx)
    return complex(diag if kind == "diag" else
                   (cis if kind == "cis" else trans)[0])


def _move_weights(plan: SimpleNamespace, pos: int, base: WeightPoint,
                  delta: complex, ctx: ModularContext):
    """keep[p] and cross[p]: the weights of the move at (pos, pos+1) from
    path p to itself and to its swap (0 where the steps agree)."""
    i, j, m = plan.pairs[pos].T
    coords = np.array(base.coords)
    diag, cis, trans = _face_weights(coords[i] - coords[j] + ctx.hbar * m,
                                     delta, ctx)
    at = plan.pair[pos]                 # -1 reads the appended entry
    return np.append(cis, diag)[at], np.append(trans, 0.0)[at]


def face_operator_matrix(base: WeightPoint, k: int, moves, ctx: ModularContext) -> np.ndarray:
    """Matrix of a product of face moves on the length-k path space at base.

    moves is a list of (pos, delta), first entry applied first.  Each move
    reads its weights from one theta table and acts on the stack of
    step-multiset blocks; the stack is scattered into the paths x paths
    matrix once.
    """
    plan = _path_plan(ctx.n, k)
    count, width = plan.layout.shape
    rows = np.arange(count)[:, None]
    stack = np.tile(np.eye(width, dtype=complex), (count, 1, 1))
    for pos, delta in moves:
        keep, cross = _move_weights(plan, pos, base, delta, ctx)
        keep, cross = np.append(keep, 0.0), np.append(cross, 0.0)
        mate = plan.partner[pos]
        # path q receives keep[q] from itself and cross[swap q] from its
        # swap; updated in place, so a move holds one extra stack
        swapped = stack[rows, mate]
        swapped *= cross[plan.layout[rows, mate]][:, :, None]
        stack *= keep[plan.layout][:, :, None]
        stack += swapped
    size = len(plan.paths)
    mat = np.zeros((size, size), dtype=complex)
    src, row, col = plan.scatter
    mat[row, col] = stack.reshape(-1)[src]
    return mat


def verify_face_ybe(u: complex, v: complex, w: complex, lam: WeightPoint,
                    ctx: ModularContext) -> Residual:
    """Face Yang-Baxter equation on three-step paths from lam."""
    lhs = face_operator_matrix(lam, 3, [(1, v - w), (0, u - w), (1, u - v)], ctx)
    rhs = face_operator_matrix(lam, 3, [(0, u - v), (1, u - w), (0, v - w)], ctx)
    return _rel(lhs, rhs)


# ------------------------------------------------------------- intertwiners

@dataclass(frozen=True)
class IntertwinerPair:
    """phi(u) at base mu (rows = vector index, columns = step index) and its
    inverse phibar (rows = step index), with the recorded condition number."""

    phi: np.ndarray
    phibar: np.ndarray
    u: complex
    mu: WeightPoint
    cond: float


# Largest raw 2-norm condition number of phi accepted by the intertwiners.
_COND_LIMIT = 1e8


def _build_intertwiners(us, mus, ctx: ModularContext,
                        cond_limit: float = _COND_LIMIT) -> list:
    """IntertwinerPairs of the pairs (us[p], mus[p]): one theta table, one
    stacked condition number and one stacked solve for all of them."""
    n, count = ctx.n, len(us)
    ieta = 1j * dedekind_eta(ctx.tau, ctx).value
    args = [u / n - mu.pair_eps(k) for u, mu in zip(us, mus) for k in range(n)]
    phi = np.ascontiguousarray(
        (theta_level_table(range(n), args, ctx) / ieta)
        .reshape(n, count, n).transpose(1, 0, 2))
    cond = np.linalg.cond(phi)
    within = cond <= cond_limit          # False for nan and inf as well
    if not within.all():
        p = int(np.argmin(within))
        raise SingularParameterError(
            f"intertwiner matrix ill-conditioned (cond={cond[p]:.3g}) "
            f"at u={us[p]}")
    phibar = np.linalg.solve(phi, np.eye(n, dtype=complex))
    return [IntertwinerPair(phi[p], phibar[p], us[p], mus[p], float(cond[p]))
            for p in range(count)]


def intertwiner_arrays(us, mus, ctx: ModularContext):
    """phi and phibar of every pair (us[p], mus[p]), stacked as (P, n, n).

    The pairs not cached yet are built in one batch, under the same guard
    on the raw 2-norm condition number as intertwiners.
    """
    pairs = ctx.cached_many(
        [("itw", complex(u), mu.coords) for u, mu in zip(us, mus)],
        lambda todo: _build_intertwiners([us[p] for p in todo],
                                         [mus[p] for p in todo], ctx))
    return (np.stack([pair.phi for pair in pairs]),
            np.stack([pair.phibar for pair in pairs]))


def intertwiners(u: complex, mu: WeightPoint, ctx: ModularContext,
                 cond_limit: float = _COND_LIMIT) -> IntertwinerPair:
    """Intertwining vectors phi[j,k] = theta_j(u/n - <mu,epsbar_k>)/(i eta)
    and the inverse matrix phibar, solved numerically (a batch of one)."""
    return ctx.cached(("itw", complex(u), mu.coords),
                      lambda: _build_intertwiners([u], [mu], ctx,
                                                  cond_limit)[0])


def verify_intertwiner_duality(u: complex, mu: WeightPoint,
                               ctx: ModularContext) -> dict:
    pair = intertwiners(u, mu, ctx)
    eye = np.eye(ctx.n)
    return {"phibar-phi": _rel(pair.phibar @ pair.phi, eye),
            "phi-phibar": _rel(pair.phi @ pair.phibar, eye)}


def _two_step_weights(lam: WeightPoint, delta: complex, ctx: ModularContext):
    """keep[a, b] and cross[a, b]: the weights of the move on the two-step
    paths (a, b) from lam, to (a, b) and to (b, a)."""
    keep, cross = _move_weights(_path_plan(ctx.n, 2), 0, lam, delta, ctx)
    return keep.reshape(ctx.n, ctx.n), cross.reshape(ctx.n, ctx.n)


def verify_vertex_face_intertwining(u: complex, v: complex, lam: WeightPoint,
                                    ctx: ModularContext) -> Residual:
    """Outgoing intertwining relation tying R(u-v) to the face weights."""
    n = ctx.n
    rt = build_r(u - v, ctx).entries
    keep, cross = _two_step_weights(lam, u - v, ctx)
    ups = [lam.shifted_eps(a, ctx.hbar) for a in range(n)]
    phi_u, phi_v = intertwiners(u, lam, ctx).phi, intertwiners(v, lam, ctx).phi
    phi_u_up = [intertwiners(u, mu, ctx).phi for mu in ups]
    phi_v_up = [intertwiners(v, mu, ctx).phi for mu in ups]
    found = []
    for a in range(n):          # first step lam -> mu
        for b in range(n):      # second step mu -> nu
            # middle weight lam + h epsbar_ap, second step bp, weight w
            middles = ([(a, a, keep[a, a])] if a == b else
                       [(a, b, keep[a, b]), (b, a, cross[a, b])])
            for ip in range(n):
                for jp in range(n):
                    lhs = sum(rt[i, j, ip, jp] * phi_u[i, a] * phi_v_up[a][j, b]
                              for i in range(n) for j in range(n))
                    rhs = 0.0 + 0.0j
                    for ap, bp, w in middles:
                        rhs += phi_v[jp, ap] * phi_u_up[ap][ip, bp] * w
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


def verify_dual_intertwining(u: complex, v: complex, lam: WeightPoint,
                             ctx: ModularContext) -> Residual:
    """Incoming intertwining relation (the inverse-vector version)."""
    n = ctx.n
    rt = build_r(u - v, ctx).entries
    keep, cross = _two_step_weights(lam, u - v, ctx)
    ups = [lam.shifted_eps(a, ctx.hbar) for a in range(n)]
    pb_u_lam = intertwiners(u, lam, ctx).phibar
    pb_v_lam = intertwiners(v, lam, ctx).phibar    # lam -> lam + h eps_a
    pb_u_up = [intertwiners(u, mu, ctx).phibar for mu in ups]
    pb_v_up = [intertwiners(v, mu, ctx).phibar for mu in ups]
    found = []
    for a in range(n):
        for b in range(n):
            middles = ([(a, a, keep[a, a])] if a == b else
                       [(a, b, keep[a, b]), (b, a, cross[b, a])])
            for i in range(n):
                for j in range(n):
                    lhs = sum(pb_v_lam[a, jp] * pb_u_up[a][b, ip] * rt[i, j, ip, jp]
                              for ip in range(n) for jp in range(n))
                    rhs = 0.0 + 0.0j
                    for ap, bp, w in middles:
                        rhs += w * pb_u_lam[ap, i] * pb_v_up[ap][bp, j]
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


# ----------------------------------------------------------------- fusion

def fusion_moves(k: int):
    """Adjacent-swap positions of the half-twist fusion braid (applied first
    to last); pairing with spectral parameters happens positionally."""
    moves = []
    for j in range(k - 1):
        for m in range(k - 2, j - 1, -1):
            moves.append(m)
    return moves


def crossing_moves(k: int, l: int):
    """Moves carrying l strands from the right of a k-block to its left."""
    moves = []
    for j in range(l):
        for m in range(k + j - 1, j - 1, -1):
            moves.append(m)
    return moves


def _slot_matrix(mat2: np.ndarray, pos: int, total: int, n: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(n ** pos), mat2), np.eye(n ** (total - pos - 2)))


def braid_matrix(params, moves, ctx: ModularContext) -> np.ndarray:
    """Product of vertex Rcheck moves with positional parameter tracking."""
    n = ctx.n
    total = len(params)
    params = list(params)
    op = np.eye(n ** total, dtype=complex)
    for m in moves:
        delta = params[m] - params[m + 1]
        op = _slot_matrix(rcheck_matrix(delta, ctx), m, total, n) @ op
        params[m], params[m + 1] = params[m + 1], params[m]
    return op


def face_braid_matrix(base: WeightPoint, params, moves, ctx: ModularContext) -> np.ndarray:
    """Product of face moves with positional parameter tracking."""
    params = list(params)
    mv = []
    for m in moves:
        mv.append((m, params[m] - params[m + 1]))
        params[m], params[m + 1] = params[m + 1], params[m]
    return face_operator_matrix(base, len(params), mv, ctx)


def fusion_parameters(k: int, u: complex, ctx: ModularContext):
    """(u - (k-1) hbar, ..., u - hbar, u)."""
    return [u - (k - 1 - r) * ctx.hbar for r in range(k)]


def antisymmetrizer(k: int, ctx: ModularContext, u: complex = 0.0) -> np.ndarray:
    """The vertex fusion operator on V^(x)k (independent of u)."""
    if not 2 <= k <= ctx.n:
        raise ValueError(f"k must be in 2..n, got {k}")
    return braid_matrix(fusion_parameters(k, u, ctx), fusion_moves(k), ctx)


def face_fusion_operator(k: int, base: WeightPoint, ctx: ModularContext,
                         u: complex = 0.0) -> np.ndarray:
    """The face-side fusion operator on length-k paths from base."""
    return face_braid_matrix(base, fusion_parameters(k, u, ctx), fusion_moves(k), ctx)


def phi_tensor_matrix(base: WeightPoint, params, ctx: ModularContext) -> np.ndarray:
    """The stacked outgoing intertwiner map paths -> V^(x)k at base weight.

    Column (i_1..i_k) holds tensor prod_m phi(params[m]) along the path.
    Level m reads phi(params[m]) at every distinct prefix weight in one
    intertwiner batch and multiplies its vectors into every column at once.
    """
    n, k = ctx.n, len(params)
    plan = _path_plan(n, k)
    size = len(plan.paths)
    mat = np.ones((n ** k, size), dtype=complex)
    grid = mat.reshape((n,) * k + (size,))
    for m, keys in enumerate(plan.prefixes):
        pts = [base.shifted(key, ctx.hbar) if m else base for key in keys]
        phi, _ = intertwiner_arrays([params[m]] * len(pts), pts, ctx)
        vecs = phi[plan.prefix[m], :, plan.paths[:, m]]        # [path, i]
        # tensor factor m of every column, multiplied in place
        grid *= vecs.T.reshape((1,) * m + (n,) + (1,) * (k - m - 1) + (size,))
    return mat


def verify_fusion_intertwining(k: int, u: complex, lam: WeightPoint,
                               ctx: ModularContext) -> Residual:
    """pi_{1^k} (phi x ... x phi) = (phi x ... x phi) Pi_{1^k} at base lam."""
    params = fusion_parameters(k, u, ctx)
    lhs = antisymmetrizer(k, ctx, u) @ phi_tensor_matrix(lam, params, ctx)
    rhs = phi_tensor_matrix(lam, list(reversed(params)), ctx) \
        @ face_fusion_operator(k, lam, ctx, u)
    return _rel(lhs, rhs)


def antisym_vector(n: int, subset) -> np.ndarray:
    """e^I = sum_sigma sgn(sigma) e^{i_sigma(1)} x ... x e^{i_sigma(k)}."""
    from itertools import permutations
    k = len(subset)
    vec = np.zeros(n ** k, dtype=complex)
    base = list(subset)
    for perm in permutations(range(k)):
        sgn = perm_sign(perm)
        idx = 0
        for r in range(k):
            idx = idx * n + base[perm[r]]
        vec[idx] += sgn
    return vec


def subsets(n: int, k: int):
    from itertools import combinations
    return list(combinations(range(n), k))


def fused_rcheck_matrix(k: int, kp: int, u: complex, v: complex,
                        ctx: ModularContext) -> np.ndarray:
    """Fused braid operator V(1^k_u) x V(1^kp_v) -> V(1^kp_v) x V(1^k_u),
    written in the antisymmetric subset bases on both sides."""
    n = ctx.n
    params = fusion_parameters(k, u, ctx)[::-1] + fusion_parameters(kp, v, ctx)[::-1]
    big = braid_matrix(params, crossing_moves(k, kp), ctx)
    cols = []
    for big_i in subsets(n, k):
        vi = antisym_vector(n, big_i)
        for big_j in subsets(n, kp):
            cols.append(np.kron(vi, antisym_vector(n, big_j)))
    incoming = np.stack(cols, axis=1)
    image = big @ incoming
    # read off coefficients on the dual (increasing-index slot) basis
    rows = []
    for big_jp in subsets(n, kp):
        for big_ip in subsets(n, k):
            idx = 0
            for s in big_jp:
                idx = idx * n + s
            for s in big_ip:
                idx = idx * n + s
            rows.append(idx)
    return image[rows, :]
