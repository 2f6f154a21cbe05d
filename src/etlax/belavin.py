"""Belavin's elliptic R-matrix, face weights, intertwining vectors, fusion.

Vertex side: V = span(e^0, ..., e^{n-1}) with indices mod n.  The R-matrix
acts as R(u) e^i x e^j = sum e^{i'} x e^{j'} R(u)^{ij}_{i'j'} with entries

    R(u)^{ij}_{i'j'} = d_{i+j,i'+j'}  theta^(i'-j')(u+hbar) / theta^(i'-i)(hbar)
                       * prod_{k != i-j'} theta^(k)(u) / prod_{k=1}^{n-1} theta^(k)(0),

where the theta^(i-j')(u) denominator has been cancelled against the
numerator product, making every entry manifestly holomorphic in u (this is
what makes R(0) = P exact instead of a 0/0 limit).  R is evaluated per
batch of spectral parameters: r_table reads one table of the characters
theta^(k) at every u, u + hbar, hbar and 0 and places the n^3 entries of the
ice rule through an index map cached per n.  Rcheck = P R is R with its
rows reordered.  A product of Rcheck moves (braid_matrix) reads all its
Rchecks from one table and applies each to its two tensor slots of the
accumulated operator, as an n^2 x n^2 matrix on a reshaped stack; no
n^k x n^k slot matrix is formed.  The symmetry, quasi-periodicity,
holomorphy and Yang-Baxter checks take a whole sample batch, and the two
vertex-face intertwining relations are einsum contractions over one
intertwiner batch.

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
from itertools import combinations, permutations, product
from types import SimpleNamespace

import numpy as np

from .context import ModularContext, SingularParameterError
from .opalg import perm_sign
from .theta import (Residual, dedekind_eta, residual_arrays, theta_char_table,
                    theta_level_table, theta_table, vandermonde_product,
                    worst_of_arrays)
from .weights import canonical_key, shifted, unit_key

_EPS = 1e-300


# ---------------------------------------------------------------- vertex side

def g_matrix(ctx: ModularContext) -> np.ndarray:
    """g e^k = exp(2 pi i k / n) e^k."""
    return np.diag(np.exp(2j * np.pi * np.arange(ctx.n) / ctx.n))


def h_matrix(ctx: ModularContext) -> np.ndarray:
    """h e^k = e^{k+1}."""
    return np.roll(np.eye(ctx.n, dtype=complex), 1, axis=0)


@dataclass(frozen=True)
class RTensor:
    """R(u) as an (n,n,n,n) array indexed [i, j, i', j'], plus its u."""

    entries: np.ndarray
    u: complex

    def as_matrix(self) -> np.ndarray:
        """Matrix with column (i,j), row (i',j'): out = M @ in."""
        return _r_matrices(self.entries[None])[0]


@functools.lru_cache(maxsize=None)
def _r_index(n: int):
    """Where the n^3 entries R[i, j, i', j'] with i + j = i' + j' (mod n)
    sit, and which characters each reads: (i, j, i', j'), the rows i' - j'
    of theta^(.)(u + hbar), i' - i of theta^(.)(hbar) and i - j' of the
    products prod_{k != m} theta^(k)(u), whose factors k are others[m]."""
    i, j, ip = np.indices((n, n, n)).reshape(3, -1)
    jp = (i + j - ip) % n
    others = np.array([[k for k in range(n) if k != m] for m in range(n)])
    index = (i, j, ip, jp, (ip - jp) % n, (ip - i) % n, (i - jp) % n, others)
    for arr in index:
        arr.setflags(write=False)       # the cached map is shared
    return index


def _r_values(us, ctx: ModularContext) -> np.ndarray:
    """The n^3 entries of the ice rule of R at every u of us, as [p, e] in
    the order of _r_index(n), from one table of the characters theta^(k)
    at every u, u + hbar, hbar and 0."""
    n = ctx.n
    us = np.atleast_1d(np.asarray(us, dtype=complex))
    count = len(us)
    tc = theta_char_table(range(n), np.concatenate(
        [us, us + ctx.hbar, [ctx.hbar, 0.0]]), ctx).T
    tc_u, tc_uh, tc_h, tc_0 = tc[:count], tc[count:-2], tc[-2], tc[-1]
    if np.min(np.abs(tc_h)) < 100 * _EPS:
        raise SingularParameterError(f"theta^(k)(hbar) vanishes at hbar={ctx.hbar}")
    denom0 = np.prod(tc_0[1:])
    _, _, _, _, a, b, c, others = _r_index(n)
    # prod_except[p, m] = prod_{k != m} theta^(k)(us[p])
    prod_except = np.prod(tc_u[:, others], axis=-1)
    return tc_uh[:, a] / tc_h[b] * prod_except[:, c] / denom0


def r_table(us, ctx: ModularContext) -> np.ndarray:
    """Belavin R-matrices at the spectral parameters us, as [p, i, j, i', j']:
    the _r_values placed through the cached index map of n."""
    n = ctx.n
    values = _r_values(us, ctx)
    i, j, ip, jp = _r_index(n)[:4]
    ent = np.zeros((len(values), n, n, n, n), dtype=complex)
    ent[:, i, j, ip, jp] = values
    return ent


def build_r(u: complex, ctx: ModularContext) -> RTensor:
    """Belavin R-matrix at spectral parameter u (the r_table of one)."""
    return RTensor(r_table([u], ctx)[0], u)


def _r_matrices(ent: np.ndarray) -> np.ndarray:
    """RTensor.as_matrix of every R in an r_table."""
    n = ent.shape[1]
    return ent.transpose(0, 3, 4, 1, 2).reshape(len(ent), n * n, n * n)


def permutation_matrix(n: int) -> np.ndarray:
    """P e^a x e^b = e^b x e^a."""
    return np.eye(n * n, dtype=complex)[np.arange(n * n).reshape(n, n).T.ravel()]


def rcheck_table(deltas, ctx: ModularContext) -> np.ndarray:
    """Rcheck(delta) = P R(delta) at every delta, as [p, n^2, n^2].

    P only swaps the row pair (i', j') to (j', i'), so each Rcheck is R
    with its rows reordered.
    """
    n = ctx.n
    ent = r_table(deltas, ctx)
    return ent.transpose(0, 4, 3, 1, 2).reshape(len(ent), n * n, n * n)


def _apply_moves(op: np.ndarray, rchecks, moves, n: int) -> np.ndarray:
    """rchecks[r] applied to the slots (moves[r], moves[r] + 1) of the
    columns of op, in order; op is [..., n^k, cols] and rchecks[r]
    [..., n^2, n^2] with the same leading axes.  op is overwritten: the
    moves alternate between it and one buffer, where a fresh array per move
    left the heap about 1 MB larger at n = k = 4."""
    buf = np.empty_like(op)
    for m, rc in zip(moves, rchecks):
        slots = (*op.shape[:-2], n ** m, n * n, -1)
        np.matmul(rc[..., None, :, :], op.reshape(slots), out=buf.reshape(slots))
        op, buf = buf, op
    return op


def _rel(a: np.ndarray, b: np.ndarray) -> Residual:
    """Max entry difference relative to max|a| + max|b|, per matrix of the
    stacks a, b [..., rows, cols]; the worst over the stacks."""
    d = np.max(np.abs(a - b), axis=(-2, -1))
    scale = (np.max(np.abs(a), axis=(-2, -1))
             + np.max(np.abs(b), axis=(-2, -1)) + _EPS)
    return worst_of_arrays(d / scale, d)


def verify_r_symmetry(us, ctx: ModularContext) -> dict:
    """(x (x) x) R (x (x) x)^{-1} = R for x = g, h, worst over the batch us."""
    rm = _r_matrices(r_table(us, ctx))
    out = {}
    for name, x in (("g", g_matrix(ctx)), ("h", h_matrix(ctx))):
        xx = np.kron(x, x)
        out[name] = _rel(xx @ rm @ np.linalg.inv(xx), rm)
    return out


def verify_r_quasiperiodicity(us, ctx: ModularContext) -> dict:
    """The u+1 and u+tau transformation laws of the R-matrix, worst over
    the batch us (one r_table at us, us + 1 and us + tau)."""
    n = ctx.n
    us = np.atleast_1d(np.asarray(us, dtype=complex))
    rm, r_u1, r_ut = _r_matrices(r_table(
        np.concatenate([us, us + 1.0, us + ctx.tau]), ctx)).reshape(
            3, len(us), n * n, n * n)
    g1 = np.kron(g_matrix(ctx), np.eye(n))
    h1 = np.kron(h_matrix(ctx), np.eye(n))
    law1 = -np.linalg.inv(g1) @ rm @ g1
    fac = (-np.exp(2j * np.pi * (us + ctx.hbar / n + ctx.tau / 2.0))) ** (-1)
    lawt = fac[:, None, None] * (h1 @ rm @ np.linalg.inv(h1))
    return {"period-1": _rel(r_u1, law1), "period-tau": _rel(r_ut, lawt)}


def verify_r_zero_is_permutation(ctx: ModularContext) -> Residual:
    return _rel(build_r(0.0, ctx).as_matrix(), permutation_matrix(ctx.n))


def verify_r_holomorphy(ctx: ModularContext, radius: float = 0.12,
                        nodes: int = 64) -> Residual:
    """Contour check: entrywise loop integral of R(u) around candidate poles.

    The raw entry formula divides by theta^(i-j')(u); its zeros m*tau are the
    only candidate u-poles.  A vanishing loop integral certifies that the
    cancellation against the numerator product is real, not accidental.
    All (n-1) * nodes contour nodes are read from one table; the entries
    the ice rule sets to 0 integrate to 0 and are left out.
    """
    n = ctx.n
    ring = radius * np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    dz = ring * (2j * np.pi / nodes)
    centers = np.arange(1, n) * ctx.tau
    values = _r_values((centers[:, None] + ring).ravel(), ctx)
    acc = dz @ values.reshape(n - 1, nodes, -1)          # [center, entry]
    worst_abs = float(np.max(np.abs(acc)))
    scale = float(np.max(np.abs(values))) * 2.0 * np.pi * radius
    return Residual(rel=worst_abs / (scale + _EPS), abs=worst_abs)


def verify_ybe(us, vs, ws, ctx: ModularContext) -> Residual:
    """Yang-Baxter equation in braid (Rcheck) form on V^(x)3,

        Rcheck_23(u-v) Rcheck_12(u-w) Rcheck_23(v-w)
            = Rcheck_12(v-w) Rcheck_23(u-w) Rcheck_12(u-v),

    worst over the triples (us[p], vs[p], ws[p]), from one Rcheck table.
    """
    n = ctx.n
    us, vs, ws = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=complex))
                                       for x in (us, vs, ws)))
    r_uv, r_uw, r_vw = rcheck_table(
        np.concatenate([us - vs, us - ws, vs - ws]), ctx).reshape(
            3, len(us), n * n, n * n)
    eye = np.eye(n ** 3, dtype=complex)
    lhs = _apply_moves(np.tile(eye, (len(us), 1, 1)), [r_vw, r_uw, r_uv],
                       [1, 0, 1], n)
    rhs = _apply_moves(np.tile(eye, (len(us), 1, 1)), [r_uv, r_uw, r_vw],
                       [0, 1, 0], n)
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


def _face_weights(lij, deltas, ctx: ModularContext):
    """The face weights of every sample s, with spectral argument deltas[s]
    at the weights lij[s], from one theta table:

    diag[s]                        theta(delta+h)/theta(h)
    cis[s, a]   at lij[s, a]       theta(-delta+lij)/theta(lij)
    trans[s, a] at lij[s, a]       theta(delta)/theta(h) * theta(h+lij)/theta(lij)

    Raises SingularParameterError where |theta(lij)| < tol_identity.
    """
    hb = ctx.hbar
    lij = np.asarray(lij, dtype=complex)
    deltas = np.asarray(deltas, dtype=complex)[:, None]
    m = lij.shape[1]
    t = theta_table(np.concatenate(
        [deltas + hb, np.broadcast_to(hb, deltas.shape), deltas, lij,
         lij - deltas, lij + hb], axis=1), ctx)
    den = t[:, 3:3 + m]
    bad = np.abs(den) < ctx.tol_identity
    if bad.any():
        raise SingularParameterError(
            f"resonant weight: theta(lambda_ij)~0 at {lij[bad][0]}")
    return (t[:, 0] / t[:, 1], t[:, 3 + m:3 + 2 * m] / den,
            (t[:, 2] / t[:, 1])[:, None] * t[:, 3 + 2 * m:] / den)


def face_weight(lam, i: int, j: int, kind: str, u: complex,
                ctx: ModularContext) -> complex:
    """One face weight at base weight lam[n] (the one-entry _face_weights).

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
    diag, cis, trans = _face_weights([[lam[i] - lam[j]] if i != j else []],
                                     [u], ctx)
    return complex(diag[0] if kind == "diag" else (cis if kind == "cis" else trans)[0, 0])


def _move_weights(plan: SimpleNamespace, pos: int, coords: np.ndarray,
                  deltas, ctx: ModularContext):
    """keep[s, p] and cross[s, p]: the weights of the move at (pos, pos+1)
    with argument deltas[s] from path p at the base weight coords[s] to
    itself and to its swap (0 where the steps agree)."""
    i, j, m = plan.pairs[pos].T
    diag, cis, trans = _face_weights(coords[:, i] - coords[:, j] + ctx.hbar * m,
                                     deltas, ctx)
    at = plan.pair[pos]                 # -1 reads the appended entry
    return (np.concatenate([cis, diag[:, None]], axis=1)[:, at],
            np.concatenate([trans, np.zeros((len(trans), 1))], axis=1)[:, at])


def face_operator_matrix(base, k: int, moves, ctx: ModularContext) -> np.ndarray:
    """Matrix of a product of face moves on the length-k path space at one
    point base[n], or the stack of these matrices at the points base[s, n].

    moves is a list of (pos, delta), first entry applied first; delta is one
    value or one per base.  Each move reads its weights at every base from
    one theta table and acts on the stack of step-multiset blocks; the
    stack is scattered into the paths x paths matrices once.
    """
    base = np.asarray(base, dtype=complex)
    coords = base.reshape(-1, ctx.n)
    plan = _path_plan(ctx.n, k)
    count, width = plan.layout.shape
    rows = np.arange(count)[:, None]
    stack = np.tile(np.eye(width, dtype=complex), (len(coords), count, 1, 1))
    for pos, delta in moves:
        # a 0 for the padding slot len(paths) of short blocks
        keep, cross = (np.pad(w, ((0, 0), (0, 1))) for w in _move_weights(
            plan, pos, coords, np.broadcast_to(delta, len(coords)), ctx))
        mate = plan.partner[pos]
        # path q receives keep[q] from itself and cross[swap q] from its
        # swap; updated in place, so a move holds one extra stack
        swapped = stack[:, rows, mate]
        swapped *= cross[:, plan.layout[rows, mate]][..., None]
        stack *= keep[:, plan.layout][..., None]
        stack += swapped
    size = len(plan.paths)
    mat = np.zeros((len(coords), size, size), dtype=complex)
    src, row, col = plan.scatter
    mat[:, row, col] = stack.reshape(len(coords), -1)[:, src]
    return mat[0] if base.ndim == 1 else mat


def verify_face_ybe(us, vs, ws, P, ctx: ModularContext) -> Residual:
    """Face Yang-Baxter equation on three-step paths from P[s] at the
    spectral parameters (us[s], vs[s], ws[s]), worst over the samples s
    (or at one triple and one base weight P[n])."""
    us, vs, ws = (np.asarray(x, dtype=complex) for x in (us, vs, ws))
    lhs = face_operator_matrix(P, 3, [(1, vs - ws), (0, us - ws), (1, us - vs)], ctx)
    rhs = face_operator_matrix(P, 3, [(0, us - vs), (1, us - ws), (0, vs - ws)], ctx)
    return _rel(lhs, rhs)


# ------------------------------------------------------------- intertwiners

@dataclass(frozen=True)
class IntertwinerPair:
    """phi(u) at base mu[n] (rows = vector index, columns = step index) and
    its inverse phibar (rows = step index), with the recorded condition
    number."""

    phi: np.ndarray
    phibar: np.ndarray
    u: complex
    mu: np.ndarray
    cond: float


# Largest raw 2-norm condition number of phi accepted by the intertwiners.
_COND_LIMIT = 1e8


def _build_intertwiners(us, mus, ctx: ModularContext,
                        cond_limit: float = _COND_LIMIT):
    """phi and phibar of the pairs (us[p], mus[p]), stacked as (P, n, n):
    one theta table and one stacked solve for all of them.

    The guard on the 2-norm condition number is screened first: it is at
    most |phi|_F |phibar|_F, so a pair whose product stays below half the
    limit (room for the rounding of phibar) passes without an SVD.  The
    rest, or every pair where the solve finds phi singular, get the
    stacked np.linalg.cond, and the first above the limit raises.
    """
    n, count = ctx.n, len(us)
    ieta = 1j * dedekind_eta(ctx.tau, ctx).value
    args = _phi_args(us, mus, n).ravel()
    phi = np.ascontiguousarray(
        (theta_level_table(range(n), args, ctx) / ieta)
        .reshape(n, count, n).transpose(1, 0, 2))
    try:
        phibar = np.linalg.solve(phi, np.eye(n, dtype=complex))
        bound = (np.linalg.norm(phi, axis=(1, 2))
                 * np.linalg.norm(phibar, axis=(1, 2)))
        suspect = np.flatnonzero(~(bound <= 0.5 * cond_limit))
    except np.linalg.LinAlgError:
        phibar, suspect = None, np.arange(count)
    if suspect.size:
        cond = np.linalg.cond(phi[suspect])
        within = cond <= cond_limit          # False for nan and inf as well
        if not within.all():
            p = int(np.argmin(within))
            raise SingularParameterError(
                f"intertwiner matrix ill-conditioned (cond={cond[p]:.3g}) "
                f"at u={us[suspect[p]]}")
    if phibar is None:
        phibar = np.linalg.solve(phi, np.eye(n, dtype=complex))
    return phi, phibar


def _phi_args(us, mus, n: int) -> np.ndarray:
    """[p, k] = us[p]/n - <mus[p], epsbar_k>, u/n divided as Python does."""
    return (np.array([complex(u) / n for u in us], dtype=complex)[:, None]
            - np.asarray(mus, dtype=complex).reshape(-1, n))


def intertwiner_arrays(us, mus, ctx: ModularContext):
    """phi and phibar of every pair (us[p], mus[p]), stacked as (P, n, n),
    built in one batch under the guard on the raw 2-norm condition number."""
    return _build_intertwiners(list(us), mus, ctx)


def intertwiners(u: complex, mu, ctx: ModularContext,
                 cond_limit: float = _COND_LIMIT) -> IntertwinerPair:
    """Intertwining vectors phi[j,k] = theta_j(u/n - <mu,epsbar_k>)/(i eta)
    and the inverse matrix phibar at one point mu[n], solved numerically:
    the batch of one (a one-point view kept for the traced benchmark)."""
    mu = np.asarray(mu, dtype=complex)
    phi, phibar = _build_intertwiners([u], mu[None], ctx, cond_limit)
    return IntertwinerPair(phi[0], phibar[0], u, mu,
                           float(np.linalg.cond(phi[0])))


def verify_intertwiners(us, mus, ctx: ModularContext) -> dict:
    """Duality phibar phi = phi phibar = 1 and the closed determinant

        det phi = (-1)^(n-1) vandermonde_product(u/n - <mu, epsbar_k>, k < n)

    (rows 0..n-1 of phi are a cyclic shift of the rows 1..n of the
    Vandermonde matrix), worst over the pairs (us[p], mus[p]), from one
    intertwiner batch."""
    n = ctx.n
    phi, phibar = intertwiner_arrays(us, mus, ctx)
    want = vandermonde_product(_phi_args(list(us), mus, n),
                               ctx) * (-1) ** (n - 1)
    return {"duality": _rel(np.stack([phibar @ phi, phi @ phibar], axis=1),
                            np.eye(n)),
            "det-closed-form": worst_of_arrays(*residual_arrays(
                np.linalg.det(phi), want))}


def _two_step_weights(P, deltas, ctx: ModularContext):
    """keep[s, a, b] and cross[s, a, b]: the weights of the move with
    argument deltas[s] on the two-step paths (a, b) from P[s], to (a, b)
    and to (b, a)."""
    n = ctx.n
    keep, cross = _move_weights(_path_plan(n, 2), 0, P, deltas, ctx)
    return keep.reshape(-1, n, n), cross.reshape(-1, n, n)


def verify_intertwining(us, vs, P, ctx: ModularContext) -> dict:
    """The outgoing ("vertex-face") and incoming ("dual") vertex-face
    intertwining relations at the samples (us[s], vs[s], P[s]), worst
    over the samples and entries, from one intertwiner batch:

        sum_ij R^{ij}_{i'j'} phi_u[i, a] phi_v^{a}[j, b]
            = sum over the middles (a', b') of phi_v[j', a'] phi_u^{a'}[i', b'] W,
        sum_{i'j'} phibar_v[a, j'] phibar_u^{a}[b, i'] R^{ij}_{i'j'}
            = sum over the middles of W phibar_u[a', i] phibar_v^{a'}[b', j],

    with R = R(u-v) and phi^{a} at lam + h epsbar_a.  The middles of the
    path (a, b) are (a, b) with W = keep[a, b] and (b, a) with W = cross[a, b]
    (outgoing) or cross[b, a] (incoming), the two-step face weights at u-v.
    """
    n = ctx.n
    us, vs = np.asarray(us, dtype=complex), np.asarray(vs, dtype=complex)
    P = np.asarray(P, dtype=complex)
    keep, cross = _two_step_weights(P, us - vs, ctx)
    keep, cross = keep[..., None, None], cross[..., None, None]
    rt = r_table(us - vs, ctx)
    # per sample, phi at (u, lam), (v, lam), (u, lam + h epsbar_a) and
    # (v, lam + h epsbar_a) for a < n
    params = np.stack([us, vs] + [us] * n + [vs] * n, axis=1).ravel()
    ups = shifted(P, [unit_key(n, a) for a in range(n)], ctx.hbar)
    pts = np.concatenate([P[:, None], P[:, None], ups, ups], axis=1)
    phi, phibar = (x.reshape(len(P), 2 * n + 2, n, n)
                   for x in intertwiner_arrays(params, pts.reshape(-1, n),
                                               ctx))
    phi_u, phi_v = phi[:, 0], phi[:, 1]
    phi_u_up, phi_v_up = phi[:, 2:2 + n], phi[:, 2 + n:]
    lhs = np.einsum("sijpq,sia,sajb->sabpq", rt, phi_u, phi_v_up)
    # [s, a, b, i'] = phi_u^{a}[i', b]; cross is 0 on the diagonal a = b
    up = phi_u_up.transpose(0, 1, 3, 2)
    phi_vt = phi_v.transpose(0, 2, 1)
    rhs = (phi_vt[:, :, None, None, :] * up[..., None] * keep
           + phi_vt[:, None, :, None, :] * up.transpose(0, 2, 1, 3)[..., None]
           * cross)
    out = {"vertex-face": worst_of_arrays(*residual_arrays(lhs, rhs))}
    pb_u, pb_v = phibar[:, 0], phibar[:, 1]
    pb_u_up, pb_v_up = phibar[:, 2:2 + n], phibar[:, 2 + n:]
    lhs = np.einsum("saq,sabp,sijpq->sabij", pb_v, pb_u_up, rt)
    rhs = (keep * pb_u[:, :, None, :, None] * pb_v_up[:, :, :, None, :]
           + cross.transpose(0, 2, 1, 3, 4) * pb_u[:, None, :, :, None]
           * pb_v_up.transpose(0, 2, 1, 3)[:, :, :, None, :])
    out["dual"] = worst_of_arrays(*residual_arrays(lhs, rhs))
    return out


# ----------------------------------------------------------------- fusion

def fusion_moves(k: int):
    """Adjacent-swap positions of the half-twist fusion braid (applied first
    to last); pairing with spectral parameters happens positionally."""
    return [m for j in range(k - 1) for m in range(k - 2, j - 1, -1)]


def crossing_moves(k: int, l: int):
    """Moves carrying l strands from the right of a k-block to its left."""
    return [m for j in range(l) for m in range(k + j - 1, j - 1, -1)]


def _move_deltas(params, moves):
    """The spectral argument params[m] - params[m + 1] of every move m, the
    parameters swapping places as the moves go (positional tracking)."""
    params, deltas = list(params), []
    for m in moves:
        deltas.append(params[m] - params[m + 1])
        params[m], params[m + 1] = params[m + 1], params[m]
    return deltas


def _braid_on(params, moves, op: np.ndarray, ctx: ModularContext) -> np.ndarray:
    """The vertex Rcheck moves, with positional parameter tracking, applied
    to the columns of op (n^k rows); op is overwritten.

    The Rchecks of all moves come from one table; each acts on its two
    slots of the accumulated columns, never as an n^k x n^k matrix.
    Applying the moves to the columns themselves, not forming the product
    and then multiplying, also rounds less where the product projects
    away most of the columns (the rank-1 antisymmetrizer at k = n).
    """
    return _apply_moves(op, rcheck_table(_move_deltas(params, moves), ctx),
                        moves, ctx.n)


def braid_matrix(params, moves, ctx: ModularContext) -> np.ndarray:
    """Product of vertex Rcheck moves with positional parameter tracking."""
    return _braid_on(params, moves,
                     np.eye(ctx.n ** len(params), dtype=complex), ctx)


def fusion_parameters(k: int, u: complex, ctx: ModularContext):
    """(u - (k-1) hbar, ..., u - hbar, u)."""
    return [u - (k - 1 - r) * ctx.hbar for r in range(k)]


def antisymmetrizer(k: int, ctx: ModularContext, u: complex = 0.0) -> np.ndarray:
    """The vertex fusion operator on V^(x)k (independent of u)."""
    if not 2 <= k <= ctx.n:
        raise ValueError(f"k must be in 2..n, got {k}")
    return braid_matrix(fusion_parameters(k, u, ctx), fusion_moves(k), ctx)


def face_fusion_operator(k: int, base, ctx: ModularContext,
                         u: complex = 0.0) -> np.ndarray:
    """The face-side fusion operator on length-k paths from base: the face
    moves of the fusion braid, with positional parameter tracking."""
    moves = fusion_moves(k)
    return face_operator_matrix(base, k, list(zip(
        moves, _move_deltas(fusion_parameters(k, u, ctx), moves))), ctx)


def phi_tensor_matrix(base, params, ctx: ModularContext) -> np.ndarray:
    """The stacked outgoing intertwiner map paths -> V^(x)k at the base
    weight base[n].

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
        pts = shifted(base, keys, ctx.hbar) if m else np.asarray(base)[None]
        phi, _ = intertwiner_arrays([params[m]] * len(pts), pts, ctx)
        vecs = phi[plan.prefix[m], :, plan.paths[:, m]]        # [path, i]
        # tensor factor m of every column, multiplied in place
        grid *= vecs.T.reshape((1,) * m + (n,) + (1,) * (k - m - 1) + (size,))
    return mat


def verify_fusion_intertwining(k: int, u: complex, lam,
                               ctx: ModularContext) -> Residual:
    """pi_{1^k} (phi x ... x phi) = (phi x ... x phi) Pi_{1^k} at base lam[n];
    the braid of pi acts on the columns of (phi x ... x phi)."""
    params = fusion_parameters(k, u, ctx)
    # rhs first: at n = k = 4 the other order left the heap about 1 MB
    # larger (glibc serves the 1 MB arrays from the heap once a larger
    # one has been freed)
    rhs = phi_tensor_matrix(lam, list(reversed(params)), ctx) \
        @ face_fusion_operator(k, lam, ctx, u)
    lhs = _braid_on(params, fusion_moves(k),
                    phi_tensor_matrix(lam, params, ctx), ctx)
    return _rel(lhs, rhs)


def antisym_vector(n: int, subset) -> np.ndarray:
    """e^I = sum_sigma sgn(sigma) e^{i_sigma(1)} x ... x e^{i_sigma(k)}."""
    k = len(subset)
    vec = np.zeros(n ** k, dtype=complex)
    for perm in permutations(range(k)):
        vec[np.ravel_multi_index([subset[p] for p in perm], (n,) * k)] += perm_sign(perm)
    return vec


def subsets(n: int, k: int):
    return list(combinations(range(n), k))


def fused_rcheck_matrix(k: int, kp: int, u: complex, v: complex,
                        ctx: ModularContext) -> np.ndarray:
    """Fused braid operator V(1^k_u) x V(1^kp_v) -> V(1^kp_v) x V(1^k_u),
    written in the antisymmetric subset bases on both sides."""
    n = ctx.n
    params = fusion_parameters(k, u, ctx)[::-1] + fusion_parameters(kp, v, ctx)[::-1]
    cols = []
    for big_i in subsets(n, k):
        vi = antisym_vector(n, big_i)
        for big_j in subsets(n, kp):
            cols.append(np.kron(vi, antisym_vector(n, big_j)))
    image = _braid_on(params, crossing_moves(k, kp), np.stack(cols, axis=1),
                      ctx)
    # read off coefficients on the dual (increasing-index slot) basis
    rows = [np.ravel_multi_index(big_jp + big_ip, (n,) * (k + kp))
            for big_jp in subsets(n, kp) for big_ip in subsets(n, k)]
    return image[rows, :]
