"""Belavin's elliptic R-matrix, face weights, intertwining vectors, fusion.

Vertex side: V = span(e^0, ..., e^{n-1}) with indices mod n.  The R-matrix
acts as R(u) e^i x e^j = sum e^{i'} x e^{j'} R(u)^{ij}_{i'j'} with entries

    R(u)^{ij}_{i'j'} = d_{i+j,i'+j'}  theta^(i'-j')(u+hbar) / theta^(i'-i)(hbar)
                       * prod_{k != i-j'} theta^(k)(u) / prod_{k=1}^{n-1} theta^(k)(0),

where the theta^(i-j')(u) denominator has been cancelled against the
numerator product, making every entry manifestly holomorphic in u (this is
what makes R(0) = P exact instead of a 0/0 limit).  build_r reads one table
of the characters theta^(k) at every u, u + hbar, hbar and 0 and places the
n^3 entries of the ice rule through an index map cached per n; Rcheck = P R
is R with its rows reordered.  A product of Rcheck moves reads all its
Rchecks from one table and applies each to its two tensor slots of the
accumulated columns, never as an n^k x n^k matrix.  An identity of braids
whose residual is rounding is read on a fixed real random block G
(sketch_block, Freivalds' check): the Yang-Baxter equation on n columns,
and the u-independence, rank and antisymmetry of the fusion operator pi on
pi G (antisymmetrizer_on), C(n, k) + 2 columns.

Face side: paths are step sequences (i_1, ..., i_k) from a base weight, each
step adding hbar*epsbar_i, in product order (the first step most
significant).  The weight after a prefix is base + hbar * (its step counts),
so lam_ij there is base_ij + hbar * (count_i - count_j) with integer counts,
never a re-canonicalized shifted point.  A move only reorders steps, so
the moves of a product act on the S_k orbit of each column path, a stack
of n^k * k! entries per base read from one theta table (_face_orbits),
never on the n^k x n^k path matrix.  phi has one kernel, shift_intertwiners,
and phibar one, dual_intertwiners, in closed form with no solve; each
broadcasts its spectral parameters v[...] against the points P[..., n], as
build_r and opalg.apply_op take leading axes.  They build every phi and
phibar of the module, always at integer step counts (partial_shifts decides
those of a path map), so the vertex-face layer never forms a shifted point.
The map along paths multiplies one batch of phi out level by level, and
both two-step intertwining relations are read on these tensor matrices.
The fusion intertwining holds one n^k x n^k matrix, Phi' at the reversed
parameters: Phi and its braid, and Phi' F from the stack, are formed 16
columns at a time, Phi' F over all n^k rows of F so that it rounds as the
dense product (its rounding decides the case at some n = 4 seeds).
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations, product

import numpy as np

from .context import ModularContext, SingularParameterError, read_only
from .opalg import perm_sign
from .stream import Stream
from .theta import (_EPS, Residual, circle, dedekind_eta,
                    laurent_coefficient, relative, residual_pair,
                    theta_char_table, theta_level_table, theta_scale,
                    theta_table, vandermonde_product, worst_of_arrays)

# ---------------------------------------------------------------- vertex side

def g_matrix(ctx: ModularContext) -> np.ndarray:
    """g e^k = exp(2 pi i k / n) e^k."""
    return np.diag(np.exp(2j * np.pi * np.arange(ctx.n) / ctx.n))


def h_matrix(ctx: ModularContext) -> np.ndarray:
    """h e^k = e^{k+1}."""
    return np.roll(np.eye(ctx.n, dtype=complex), 1, axis=0)


@functools.lru_cache(maxsize=None)
def _r_index(n: int):
    """Where the n^3 entries R[i, j, i', j'] with i + j = i' + j' (mod n)
    sit, and which characters each reads: (i, j, i', j'), the rows i' - j'
    of theta^(.)(u + hbar), i' - i of theta^(.)(hbar) and i - j' of the
    products prod_{k != m} theta^(k)(u), whose factors k are others[m]."""
    i, j, ip = np.indices((n, n, n)).reshape(3, -1)
    jp = (i + j - ip) % n
    others = np.array([[k for k in range(n) if k != m] for m in range(n)])
    return read_only(i, j, ip, jp, (ip - jp) % n, (ip - i) % n, (i - jp) % n,
                     others)


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
    # prod_except[p, m] = prod_{k != m} theta^(k)(us[p]), left to right, so
    # that a value does not depend on the batch (np.prod rounds one row
    # apart from the rows of a longer batch)
    factors = tc_u[:, others]
    prod_except = factors[..., 0]
    for k in range(1, n - 1):
        prod_except = prod_except * factors[..., k]
    return tc_uh[:, a] / tc_h[b] * prod_except[:, c] / denom0


def build_r(us, ctx: ModularContext) -> np.ndarray:
    """Belavin R-matrices at every spectral parameter of us, an array of
    any shape, as [..., i, j, i', j'] ([i, j, i', j'] at one u): the
    _r_values placed through the cached index map of n."""
    n = ctx.n
    us = np.asarray(us, dtype=complex)
    values = _r_values(us.ravel(), ctx)
    i, j, ip, jp = _r_index(n)[:4]
    ent = np.zeros((len(values), n, n, n, n), dtype=complex)
    ent[:, i, j, ip, jp] = values
    return ent.reshape(us.shape + (n,) * 4)


def _r_matrices(ent: np.ndarray) -> np.ndarray:
    """Every R of a build_r batch [..., i, j, i', j'] as the matrix with
    column (i, j) and row (i', j'): out = M @ in."""
    n = ent.shape[-1]
    return np.ascontiguousarray(ent.reshape(
        ent.shape[:-4] + (n * n, n * n)).swapaxes(-1, -2))


def permutation_matrix(n: int) -> np.ndarray:
    """P e^a x e^b = e^b x e^a."""
    return np.eye(n * n, dtype=complex)[np.arange(n * n).reshape(n, n).T.ravel()]


def rcheck_table(deltas, ctx: ModularContext) -> np.ndarray:
    """Rcheck(delta) = P R(delta) at every delta, as [p, n^2, n^2].

    P only swaps the row pair (i', j') to (j', i'), so each Rcheck is R
    with its rows reordered.
    """
    n = ctx.n
    ent = build_r(deltas, ctx)
    return ent.transpose(0, 4, 3, 1, 2).reshape(len(ent), n * n, n * n)


def _apply_moves(op: np.ndarray, rchecks, moves, n: int,
                 buf: np.ndarray | None = None) -> np.ndarray:
    """rchecks[r] applied to the slots (moves[r], moves[r] + 1) of the
    columns of op, in order; op is [..., n^k, cols] and rchecks[r]
    [..., n^2, n^2] with the same leading axes.  op is overwritten: the
    moves alternate between it and one buffer (buf if given, an array like
    op), where a fresh array per move left the heap about 1 MB larger at
    n = k = 4; the result is whichever of the two the last move wrote."""
    buf = np.empty_like(op) if buf is None else buf
    for m, rc in zip(moves, rchecks):
        slots = (*op.shape[:-2], n ** m, n * n, -1)
        np.matmul(rc[..., None, :, :], op.reshape(slots), out=buf.reshape(slots))
        op, buf = buf, op
    return op


@functools.lru_cache(maxsize=None)
def sketch_block(k: int, n: int, cols: int) -> np.ndarray:
    """A fixed real block [n^k, cols] of uniform(-1, 1) draws of Stream(k),
    the columns an identity of operators on V^(x)k is read on (read-only)."""
    return read_only(Stream(k).uniform(-1, 1, size=(n ** k, cols)))[0]


def _rel(a: np.ndarray, b: np.ndarray) -> Residual:
    """Max entry difference relative to max|a| + max|b|, per matrix of the
    stacks a, b [..., rows, cols]; the worst over the stacks."""
    return worst_of_arrays(*relative(
        np.max(np.abs(a - b), axis=(-2, -1)),
        np.max(np.abs(a), axis=(-2, -1)) + np.max(np.abs(b), axis=(-2, -1))))


def verify_r_symmetry(us, ctx: ModularContext) -> dict:
    """(x (x) x) R (x (x) x)^{-1} = R for x = g, h, worst over the batch us."""
    rm = _r_matrices(build_r(us, ctx))
    out = {}
    for name, x in (("g", g_matrix(ctx)), ("h", h_matrix(ctx))):
        xx = np.kron(x, x)
        out[name] = _rel(xx @ rm @ np.linalg.inv(xx), rm)
    return out


def verify_r_quasiperiodicity(us, ctx: ModularContext) -> dict:
    """The u+1 and u+tau transformation laws of the R-matrix, worst over
    the batch us (one build_r at us, us + 1 and us + tau).

    The entries at u + tau carry about exp(pi Im tau) per theta factor, and
    products of two such factors leave the double range from Im tau of
    about 225 on: an overflow there raises FloatingPointError, an
    evaluation out of floating-point range, not a warning and a NaN case."""
    n = ctx.n
    us = np.atleast_1d(np.asarray(us, dtype=complex))
    with np.errstate(over="raise", invalid="raise"):
        rm, r_u1, r_ut = _r_matrices(build_r(
            np.concatenate([us, us + 1.0, us + ctx.tau]), ctx)).reshape(
                3, len(us), n * n, n * n)
        g1 = np.kron(g_matrix(ctx), np.eye(n))
        h1 = np.kron(h_matrix(ctx), np.eye(n))
        law1 = -np.linalg.inv(g1) @ rm @ g1
        fac = (-np.exp(2j * np.pi * (us + ctx.hbar / n + ctx.tau / 2.0))) \
            ** (-1)
        lawt = fac[:, None, None] * (h1 @ rm @ np.linalg.inv(h1))
        return {"period-1": _rel(r_u1, law1), "period-tau": _rel(r_ut, lawt)}


def verify_r_zero_is_permutation(ctx: ModularContext) -> Residual:
    return _rel(_r_matrices(build_r(0.0, ctx)), permutation_matrix(ctx.n))


def verify_r_holomorphy(ctx: ModularContext) -> Residual:
    """Contour check: entrywise loop integral of R(u) around candidate poles.

    The raw entry formula divides by theta^(i-j')(u); its zeros m*tau are the
    only candidate u-poles.  A vanishing loop integral certifies that the
    cancellation against the numerator product is real, not accidental.
    The loop integral is 2 pi i times the residue a_-1 of
    theta.laurent_coefficient on the circle of radius 0.12 and 64 nodes;
    all (n-1) * 64 nodes are read from one table; the entries the ice rule
    sets to 0 integrate to 0 and are left out.
    """
    n, radius = ctx.n, 0.12
    ring = circle(radius, 64)
    values = _r_values(np.add.outer(ring, np.arange(1, n) * ctx.tau).ravel(),
                       ctx).reshape(len(ring), n - 1, -1)
    acc = 2j * np.pi * laurent_coefficient(values, ring, -1)  # [center, entry]
    scale = float(np.max(np.abs(values))) * 2.0 * np.pi * radius
    return worst_of_arrays(*relative(float(np.max(np.abs(acc))), scale))


def verify_ybe(us, vs, ws, ctx: ModularContext) -> Residual:
    """Yang-Baxter equation in braid (Rcheck) form on V^(x)3,

        Rcheck_23(u-v) Rcheck_12(u-w) Rcheck_23(v-w)
            = Rcheck_12(v-w) Rcheck_23(u-w) Rcheck_12(u-v),

    worst over the triples (us[p], vs[p], ws[p]), from one Rcheck table.
    Both sides act on the n columns of sketch_block(3, n, n), not on
    the identity: AG = BG for a fixed random G (Freivalds' check) reads
    a defect in any Rcheck, and no n^3 x n^3 product is formed.
    """
    n = ctx.n
    us, vs, ws = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=complex))
                                       for x in (us, vs, ws)))
    r_uv, r_uw, r_vw = rcheck_table(
        np.concatenate([us - vs, us - ws, vs - ws]), ctx).reshape(
            3, len(us), n * n, n * n)
    block = np.broadcast_to(sketch_block(3, n, n), (len(us), n ** 3, n))
    lhs = _apply_moves(block.astype(complex), [r_vw, r_uw, r_uv], [1, 0, 1], n)
    rhs = _apply_moves(block.astype(complex), [r_uv, r_uw, r_vw], [0, 1, 0], n)
    return _rel(lhs, rhs)


# ------------------------------------------------------------------ face side

@functools.lru_cache(maxsize=None)
def partial_shifts(n: int, k: int) -> tuple:
    """(prefixes, prefix): the partial shifts of the ordered step tuples
    [n]^k, in product order, as exact step counts.  At level r < k,
    prefixes[r] holds the distinct step counts t[:r].count(i) of the first
    r steps, in order of first appearance, and prefix[r][t] indexes the one
    of tuple t.  The counts of one level all sum to r, so two are equal
    exactly when their shift keys modulo (1, ..., 1) are."""
    tuples = list(product(range(n), repeat=k))
    prefixes, prefix = [], []
    for r in range(k):
        counts = [tuple(t[:r].count(i) for i in range(n)) for t in tuples]
        distinct = tuple(dict.fromkeys(counts))
        pos = {count: a for a, count in enumerate(distinct)}
        prefixes.append(distinct)
        prefix += read_only(np.array([pos[c] for c in counts], dtype=int))
    return tuple(prefixes), tuple(prefix)


@functools.lru_cache(maxsize=None)
def _orbit_plan(n: int, k: int):
    """The S_k orbits of the length-k paths c (product order), one entry e
    per distinct (c, r), r = c o sigma (steps c[sigma(0)], ..., c[sigma(k-1)])
    a reordering of c, ordered by c and then r: row[e] = r, col[e] = c,
    start[e] whether r is c; and per move position pos: ti, tj, tm, the
    distinct (i, j, count_i - count_j), i != j, that the prefixes reach, in
    order of first appearance; pair[a, i, j], the one of prefix a (of n^pos)
    and steps (i, j), len(ti) where i == j; partner[e], the entry (c, r with
    steps pos and pos+1 swapped); keep[e], cross[e], pair at the steps
    (i, j) of r there and at (j, i)."""
    size, place = n ** k, n ** np.arange(k - 1, -1, -1)
    steps = np.indices((n,) * k).reshape(k, -1).T[:, list(permutations(
        range(k)))]                                          # [c, sigma, m]
    key, first = np.unique(np.arange(size)[:, None] * size + steps @ place,
                           return_index=True)
    col, row = np.divmod(key, size)
    steps, moves = steps.reshape(-1, k)[first], []           # [e, m]
    for pos in range(k - 1):
        found = {}
        pair = np.array([[found.setdefault((i, j, t.count(i) - t.count(j)),
                                           len(found)) if i != j else -1
                          for i in range(n) for j in range(n)]
                         for t in product(range(n), repeat=pos)])
        pair = np.where(pair < 0, len(found), pair).reshape(-1, n, n)
        a, i, j = row // n ** (k - pos), steps[:, pos], steps[:, pos + 1]
        swap = row + (j - i) * place[pos] + (i - j) * place[pos + 1]
        moves.append(read_only(*np.array(list(found)).T, pair,
                               np.searchsorted(key, col * size + swap),
                               pair[a, i, j], pair[a, j, i]))
    return read_only(row, col, row == col) + (tuple(moves),)


def _weight_tables(lijs, moves, ctx: ModularContext) -> list:
    """The face weights of every move (g, deltas) of moves, at the weights
    lijs[g][s] with spectral argument deltas[s], as [cis, diag] and
    [trans, 0] along the last axis, from one theta table:
        diag[s]                    theta(delta+h)/theta(h)
        cis[s, a]   at lij[s, a]   theta(-delta+lij)/theta(lij)
        trans[s, a] at lij[s, a]   theta(delta)/theta(h) * theta(h+lij)/theta(lij)
    theta(lij) and theta(lij + h) are read once per lijs[g].  Raises
    SingularParameterError at the first lijs[g] in order of use where
    |theta(lij)| < tol_identity * theta_scale, the floor of the sampling
    guard on its scale."""
    hb = ctx.hbar
    lijs = [np.asarray(lij, dtype=complex) for lij in lijs]
    ds = [np.asarray(d, dtype=complex)[:, None] for _, d in moves]
    parts = [x for lij in lijs for x in (lij, lij + hb)] + [
        x for (g, _), d in zip(moves, ds) for x in (lijs[g] - d, d + hb, d)]
    t = np.split(theta_table(np.concatenate(
        parts + [np.full((len(ds[0]), 1), hb)], axis=1), ctx),
        np.cumsum([x.shape[1] for x in parts]), axis=1)
    floor = ctx.tol_identity * theta_scale(ctx)
    for g in dict.fromkeys(g for g, _ in moves):
        bad = np.abs(t[2 * g]) < floor
        if bad.any():
            raise SingularParameterError(
                f"resonant weight: theta(lambda_ij)~0 at {lijs[g][bad][0]}")
    th, out = t[-1], []
    for r, (g, _) in enumerate(moves):
        den, t_lh = t[2 * g], t[2 * g + 1]
        t_lmd, t_dh, t_d = t[2 * len(lijs) + 3 * r:][:3]
        out.append((np.concatenate([t_lmd / den, t_dh / th], axis=1),
                    np.concatenate([t_d / th * t_lh / den, np.zeros_like(th)],
                                   axis=1)))
    return out


def _face_orbits(base, k: int, sides, ctx: ModularContext) -> list:
    """The products of moves sides[r] (lists of (pos, delta), delta one
    value or one per base) on the length-k paths at the bases base[s], as
    stacks M[s, e] over the entries e of _orbit_plan, M[s, e] at row row[e],
    column col[e]: a move only reorders steps, so all others are 0.  All
    moves read one _weight_tables; one at pos sets M[e] to keep times M[e]
    plus cross times M[partner]."""
    coords = np.asarray(base, dtype=complex).reshape(-1, ctx.n)
    (_, _, start, plans), count = _orbit_plan(ctx.n, k), len(coords)
    moves = [(pos, np.broadcast_to(delta, count)) for side in sides
             for pos, delta in side]
    groups = list(dict.fromkeys(pos for pos, _ in moves))
    lijs = [coords[:, ti] - coords[:, tj] + ctx.hbar * tm
            for ti, tj, tm in (plans[pos][:3] for pos in groups)]
    weights = iter(moves and _weight_tables(
        lijs, [(groups.index(pos), d) for pos, d in moves], ctx))
    out = []
    for side in sides:
        # as [e, s], so that every gather reads whole contiguous rows
        stack = np.repeat(start[:, None].astype(complex), count, axis=1)
        for pos, _ in side:
            partner, keep, cross = plans[pos][4:]
            w_keep, w_cross = next(weights)
            w_keep, w_cross = w_keep.T[keep], w_cross.T[cross]
            # the stack on the left of each product, as on the path matrix:
            # numpy's complex multiply (FMA) rounds a * b and b * a apart
            stack = stack * w_keep + stack[partner] * w_cross
        out.append(stack.T)
    return out


def face_operator_matrix(base, k: int, moves, ctx: ModularContext) -> np.ndarray:
    """Matrix of a product of face moves on the length-k path space at one
    point base[n], or the stack of these matrices at the points base[s, n]:
    moves is a list of (pos, delta), first entry applied first; delta is one
    value or one per base.  The _face_orbits stack, scattered."""
    base, size = np.asarray(base, dtype=complex), ctx.n ** k
    stack, = _face_orbits(base, k, [moves], ctx)
    row, col = _orbit_plan(ctx.n, k)[:2]
    mat = np.zeros((len(stack), size, size), dtype=complex)
    mat[:, row, col] = stack
    return mat[0] if base.ndim == 1 else mat


def verify_face_ybe(us, vs, ws, P, ctx: ModularContext) -> Residual:
    """Face Yang-Baxter equation on three-step paths from P[s] at the
    spectral parameters (us[s], vs[s], ws[s]), worst over the samples s
    (or at one triple and one base weight P[n]), on the _face_orbits
    stacks of both sides."""
    us, vs, ws = (np.asarray(x, dtype=complex) for x in (us, vs, ws))
    lhs, rhs = _face_orbits(P, 3, [
        [(1, vs - ws), (0, us - ws), (1, us - vs)],
        [(0, us - vs), (1, us - ws), (0, vs - ws)]], ctx)
    return _rel(lhs[..., None], rhs[..., None])


# ------------------------------------------------------------- intertwiners

def _over_n(v, n: int) -> np.ndarray:
    """v / n at every complex v of an array, part by part as Python divides
    a complex by an int: numpy's complex division multiplies by 1/n, which
    rounds otherwise."""
    v = np.asarray(v, dtype=complex)
    out = np.empty_like(v)
    out.real = (v.real + v.imag * 0.0) / n
    out.imag = (v.imag - v.real * 0.0) / n
    return out


def shift_intertwiners(v, P, counts, ctx: ModularContext) -> np.ndarray:
    """phi(v - r hbar) at lam + hbar sum_j counts[m][j] epsbar_j, r the sum
    of counts[m], as [..., m, n, n] for v[...] broadcast against the points
    lam = P[..., n].

    Column k there is theta_level(v/n - lam_k - hbar counts[m][k]) / (i eta),
    exactly: <lam + hbar sum_j kappa_j epsbar_j, epsbar_k> is
    lam_k + hbar (kappa_k - r/n), and the r/n cancels against the shift of
    v.  So one theta_level_table over the distinct (v, k, counts_k) of every
    point fills every matrix by a gather, with no shifted point
    re-canonicalized; v/n is divided as Python does (_over_n)."""
    n = ctx.n
    P, counts = np.asarray(P, dtype=complex), np.asarray(counts)
    heights = np.arange(counts.max() + 1)
    # [..., h, k] = v/n - lam_k - hbar h
    args = ((_over_n(v, n)[..., None, None] - P[..., None, :])
            - ctx.hbar * heights[:, None])
    values = (theta_level_table(range(n), args.ravel(), ctx)
              / (1j * dedekind_eta(ctx.tau, ctx))).reshape(n, *args.shape)
    # [..., m, k, j] = column k of matrix m, then as [..., m, j, k]
    cols = np.moveaxis(values, 0, -1)[..., counts, np.arange(n), :]
    return np.ascontiguousarray(cols.swapaxes(-1, -2))


@functools.lru_cache(maxsize=64)
def _dual_nodes(ctx: ModularContext):
    """The nodes y_t = y0 + t/n of dual_intertwiners and its DFT matrix
    F[t, j] = i eta (-omega^j)^t / (n theta_level_j(y0)), omega = e^(2 pi i/n),
    y0 the point of the grid a/(8n) + i b Im(tau)/4 (a < 8, |b| <= 2) with
    the largest min_j |theta_level_j(y0)|: n and tau alone choose it."""
    n = ctx.n
    grid = (np.arange(8)[:, None] / (8 * n)
            + 0.25j * ctx.tau.imag * np.arange(-2, 3)).ravel()
    values = theta_level_table(range(n), grid, ctx)
    best = int(np.argmax(np.min(np.abs(values), axis=0)))
    dft = (-np.exp(2j * np.pi * np.arange(n) / n)) ** np.arange(n)[:, None]
    return read_only(grid[best] + np.arange(n) / n, 1j * dedekind_eta(
        ctx.tau, ctx) * dft / (n * values[:, best]))


def dual_intertwiners(v, P, counts, ctx: ModularContext) -> np.ndarray:
    """phibar(v - r hbar) = phi(v - r hbar)^-1 in closed form, as
    [..., m, k, j] (row k the step) with shift_intertwiners' indices.

    Row k is g_k(y) = theta(S - x_k + y)/theta(S) prod_{a != k}
    theta(y - x_a)/theta(x_k - x_a) (Cramer's rule and the Vandermonde
    identity; x_k = v/n - lam_k - hbar kappa_k, S = sum_k x_k) in the basis
    theta_level_j / (i eta), read by the DFT sum_t g_k(y_t) F[t, j] at the
    _dual_nodes.  One theta_table holds the odd-theta factors of every
    count, on grids of small integers: (kappa_a, a), (r - kappa_k, k), r
    and (kappa_a - kappa_k, a < k), pairs a > k read by oddness.  A
    denominator below tol_identity * theta_scale raises naming it."""
    n, hb, col = ctx.n, ctx.hbar, np.arange(ctx.n)
    P, counts = np.asarray(P, dtype=complex), np.asarray(counts)
    r = counts.sum(axis=1)
    top = int(r.max())
    nodes, dft = _dual_nodes(ctx)
    first, second = np.array(list(combinations(range(n), 2))).T
    # as [..., (t,) grid], the grid (h, a), (q, k), (r, 1) or (D, a < k)
    # flattened: the batch leads, so a matrix reads the same bits in any
    h = hb * np.arange(-top, top + 1)[:, None]
    lam = P[..., None, None, :]                         # [..., 1, 1, n]
    sums = lam.sum(axis=-1, keepdims=True)
    bases = _over_n(v, n)[..., None, None, None]
    y = nodes[:, None, None]
    args = [a.reshape(*a.shape[:-2], -1) for a in (
        y - ((bases - lam) - h[top:]),
        y + (((n - 1) * bases - (sums - lam)) - h[top:]),
        ((n * bases - sums) - h[top:])[..., 0, :, :],
        ((lam[..., first] - lam[..., second]) + h)[..., 0, :, :])]
    tables = np.split(theta_table(np.concatenate([a.ravel() for a in args]),
                                  ctx), np.cumsum([a.size for a in args])[:-1])
    at_y, at_rest, at_s, at_diff = (t.reshape(a.shape)
                                    for t, a in zip(tables, args))
    # [j, k]: the factors a = k + j + 1 != k, as the pairs (lo, hi), lo < hi
    a = (col + np.arange(1, n)[:, None]) % n
    lo, hi = np.minimum(a, col), np.maximum(a, col)
    pairs = ((counts[:, lo] - counts[:, hi] + top) * len(first)
             + lo * (2 * n - lo - 1) // 2 + hi - lo - 1)
    floor = ctx.tol_identity * theta_scale(ctx)
    for name, table, arg, index in (
            ("theta(S)", at_s, args[2], r),
            ("theta(x_k - x_a)", at_diff, args[3], pairs)):
        bad = np.abs(np.take(table, index, axis=-1)) < floor
        if bad.any():
            raise SingularParameterError(
                f"singular intertwiner: {name}~0 at "
                f"{complex(np.take(arg, index, axis=-1)[bad][0])}")
    g = np.take(at_rest, (r[:, None] - counts) * n + col, axis=-1)
    ys = np.take(at_y, counts[:, a] * n + a, axis=-1)  # [..., t, m, j, k]
    # theta(x_k - x_a) is the pair's factor, negated for the n - 1 - k a > k
    den = np.take(at_s, r, axis=-1)[..., None] * (-1.0) ** (n - 1 - col)
    diffs = np.take(at_diff, pairs, axis=-1)             # [..., m, j, k]
    for j in range(n - 1):
        g *= ys[..., j, :]
        den = den * diffs[..., j, :]
    return np.einsum("...tmk,tj->...mkj", g / den[..., None, :, :], dft)


def intertwiners(u, mu, ctx: ModularContext) -> tuple:
    """(phi, phibar) for u[...] broadcast against the points mu[..., n], as
    [..., n, n] each, phi[j, k] = theta_j(u/n - <mu, epsbar_k>)/(i eta) and
    phibar its inverse: both kernels at the zero count."""
    zero = [[0] * ctx.n]
    return (shift_intertwiners(u, mu, zero, ctx)[..., 0, :, :],
            dual_intertwiners(u, mu, zero, ctx)[..., 0, :, :])


def verify_intertwiners(us, mus, ctx: ModularContext) -> dict:
    """Duality phibar phi = phi phibar = 1 and the closed determinant

        det phi = (-1)^(n-1) vandermonde_product(u/n - <mu, epsbar_k>, k < n)

    (rows 0..n-1 of phi are a cyclic shift of the rows 1..n of the
    Vandermonde matrix), worst over the pairs (us[p], mus[p]), from one
    intertwiner batch."""
    n = ctx.n
    phi, phibar = intertwiners(us, mus, ctx)
    args = _over_n(us, n)[:, None] - np.asarray(mus, dtype=complex)
    want = vandermonde_product(args, ctx) * (-1) ** (n - 1)
    return {"duality": _rel(np.stack([phibar @ phi, phi @ phibar], axis=1),
                            np.eye(n)),
            "det-closed-form": residual_pair(np.linalg.det(phi), want)}


def verify_intertwining(us, vs, P, ctx: ModularContext) -> dict:
    """The outgoing ("vertex-face") and incoming ("dual") vertex-face
    intertwining relations on two-step paths at the samples (us[s], vs[s],
    P[s]), worst over the samples and entries:

        Rcheck(u-v) Phi(u, v) = Phi(v, u) W,
        Phibar(v, u) Rcheck(u-v) = W Phibar(u, v),

    W the face move at (0, 1) with argument u - v, Phi(u, v) the
    _path_tensor of phi(u) at lam and phi(v) at lam + h epsbar_a, and
    Phibar(u, v) that of the rows of phibar, row (a, b) the product of row
    a of phibar(u) and row b of phibar(v), so that Phibar Phi = 1.  Each
    kernel is called once per level: count 0 at u and v, e_a at u + h and
    v + h (where it reads phi(u) and phi(v)), so no other pair is formed.
    """
    n = ctx.n
    us, vs = np.asarray(us, dtype=complex), np.asarray(vs, dtype=complex)
    P = np.asarray(P, dtype=complex)
    w = face_operator_matrix(P, 2, [(0, us - vs)], ctx)
    rc = rcheck_table(us - vs, ctx)
    pair = np.stack([us, vs], axis=1)
    # per level, [s, (u, v), count, n, n]
    levels = [(pair, [[0] * n]), (pair + ctx.hbar, np.eye(n, dtype=int))]
    phi, phibar = ([kernel(x, P[:, None], counts, ctx) for x, counts in levels]
                   for kernel in (shift_intertwiners, dual_intertwiners))
    # the levels of Phi(u, v) and of Phi(v, u)
    uv = lambda x: _path_tensor([x[0][:, 0], x[1][:, 1]], n)
    vu = lambda x: _path_tensor([x[0][:, 1], x[1][:, 0]], n)
    rows = [x.swapaxes(-1, -2) for x in phibar]
    return {"vertex-face": residual_pair(rc @ uv(phi), vu(phi) @ w),
            "dual": residual_pair(vu(rows).swapaxes(-1, -2) @ rc,
                                  w @ uv(rows).swapaxes(-1, -2))}


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


def fusion_parameters(k: int, u: complex, ctx: ModularContext):
    """(u - (k-1) hbar, ..., u - hbar, u)."""
    return [u - (k - 1 - r) * ctx.hbar for r in range(k)]


def antisymmetrizer_on(k: int, cols: np.ndarray, ctx: ModularContext,
                       u: complex = 0.0) -> np.ndarray:
    """The vertex fusion operator pi on V^(x)k (independent of u) applied
    to the columns of cols [n^k, m], which are overwritten; pi itself is
    not formed."""
    if not 2 <= k <= ctx.n:
        raise ValueError(f"k must be in 2..n, got {k}")
    return _braid_on(fusion_parameters(k, u, ctx), fusion_moves(k), cols, ctx)


def _path_tensor(levels, n: int, lo: int = 0, hi: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The columns lo:hi (all by default) of the tensor matrices
    [..., n^k, n^k] of the k = len(levels) levels [..., points, n, n] of
    partial_shifts(n, k): column (i_1..i_k) holds prod_m column i_m of
    level m at its prefix, multiplied in per level, into out if given (an
    array [..., n^k, hi - lo])."""
    k = len(levels)
    hi = n ** k if hi is None else hi
    prefix, paths = partial_shifts(n, k)[1], np.arange(lo, hi)
    lead = levels[0].shape[:-3]
    if out is None:
        out = np.empty(lead + (n ** k, hi - lo), dtype=complex)
    out[...] = 1.0
    grid = out.reshape(lead + (n,) * k + (-1,))
    for m, level in enumerate(levels):
        step = paths // n ** (k - 1 - m) % n
        vecs = np.moveaxis(level[..., prefix[m][lo:hi], :, step], 0, -1)
        # tensor factor m of every column, multiplied in place
        grid *= vecs.reshape(lead + (1,) * m + (n,) + (1,) * (k - m - 1)
                             + (-1,))
    return out


def _phi_levels(base, params, ctx: ModularContext) -> list:
    """The levels [points, n, n] of the outgoing intertwiner map paths ->
    V^(x)k at the base weight base[n] (column (i_1..i_k) the tensor
    prod_m phi(params[m]) along the path, their _path_tensor): phi(params[m])
    at the step counts of level m of partial_shifts(n, k), from one
    shift_intertwiners call at base, which reads phi(v - m hbar) there at
    v = params[m] + m hbar; level m is its block of counts."""
    n, k = ctx.n, len(params)
    prefixes = partial_shifts(n, k)[0]
    phi = shift_intertwiners([params[m] + m * ctx.hbar for m in range(k)],
                             base, [c for counts in prefixes for c in counts],
                             ctx)
    edges = np.cumsum([0] + [len(counts) for counts in prefixes])
    return [phi[m, edges[m]:edges[m + 1]] for m in range(k)]


def verify_fusion_intertwining(k: int, u: complex, lam,
                               ctx: ModularContext) -> Residual:
    """pi_{1^k} Phi = Phi' F at base lam[n], Phi = phi x ... x phi the path
    map at the fusion parameters, Phi' the one at the reversed parameters
    and F the face moves of the fusion braid: max|lhs - rhs| relative to
    max|lhs| + max|rhs|, lhs = pi Phi and rhs = Phi' F, with no n^k x n^k
    matrix but Phi'.

    Both sides are formed 16 columns at a time (no block under 8 columns:
    BLAS rounds 1- and 2-column products apart), the three maxima folded
    block by block.  A block of Phi is its _path_tensor columns, braided by
    the Rchecks of one table; F's block is scattered from the _face_orbits
    stack.  Phi' stays whole, so that each block of Phi' F is one matmul
    over all n^k rows of F and BLAS sums every entry as in the dense
    product.  The block arrays are reused from block to block."""
    n, size = ctx.n, ctx.n ** k
    params, moves = fusion_parameters(k, u, ctx), fusion_moves(k)
    deltas = _move_deltas(params, moves)
    rev = _phi_levels(lam, params[::-1], ctx)
    stack = _face_orbits(lam, k, [list(zip(moves, deltas))], ctx)[0][0]
    # Phi' after the face stack, whose temporaries are then freed, and
    # its phi batch freed before Phi's
    phir = _path_tensor(rev, n)
    del rev
    levels = _phi_levels(lam, params, ctx)
    rchecks = rcheck_table(deltas, ctx)
    row, col = _orbit_plan(n, k)[:2]
    edges = [*range(0, max(size - 8, 1), 16), size]
    width = max(np.diff(edges))
    work = np.empty((4, size * width), dtype=complex)
    worst = np.zeros(3)                # max|lhs - rhs|, max|rhs|, max|lhs|
    for lo, hi in zip(edges[:-1], edges[1:]):
        phi, buf, f, rhs = (a[:size * (hi - lo)].reshape(size, hi - lo)
                            for a in work)
        lhs = _apply_moves(_path_tensor(levels, n, lo, hi, phi), rchecks,
                           moves, n, buf)
        # column c of F holds the entries (c, r) at rows r
        part = slice(*np.searchsorted(col, [lo, hi]))
        f[...] = 0.0
        f[row[part], col[part] - lo] = stack[part]
        np.matmul(phir, f, out=rhs)
        high = np.max(np.abs(rhs))
        rhs -= lhs
        worst = np.maximum(worst, [np.max(np.abs(rhs)), high,
                                   np.max(np.abs(lhs))])
    return worst_of_arrays(*relative(worst[0], worst[2] + worst[1]))


def antisym_vector(n: int, subset) -> np.ndarray:
    """e^I = sum_sigma sgn(sigma) e^{i_sigma(1)} x ... x e^{i_sigma(k)}."""
    k = len(subset)
    vec = np.zeros(n ** k, dtype=complex)
    for perm in permutations(range(k)):
        vec[np.ravel_multi_index([subset[p] for p in perm], (n,) * k)] += perm_sign(perm)
    return vec


def fused_rcheck_matrix(k: int, kp: int, u: complex, v: complex,
                        ctx: ModularContext) -> np.ndarray:
    """Fused braid operator V(1^k_u) x V(1^kp_v) -> V(1^kp_v) x V(1^k_u),
    written in the antisymmetric subset bases on both sides."""
    n = ctx.n
    params = fusion_parameters(k, u, ctx)[::-1] + fusion_parameters(kp, v, ctx)[::-1]
    cols = []
    for big_i in combinations(range(n), k):
        vi = antisym_vector(n, big_i)
        for big_j in combinations(range(n), kp):
            cols.append(np.kron(vi, antisym_vector(n, big_j)))
    image = _braid_on(params, crossing_moves(k, kp), np.stack(cols, axis=1),
                      ctx)
    # read off coefficients on the dual (increasing-index slot) basis
    rows = [np.ravel_multi_index(big_jp + big_ip, (n,) * (k + kp))
            for big_jp in combinations(range(n), kp)
            for big_ip in combinations(range(n), k)]
    return image[rows, :]
