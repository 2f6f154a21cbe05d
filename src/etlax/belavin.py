"""Belavin's elliptic R-matrix, face weights, intertwining vectors, fusion.

Vertex side: V = span(e^0, ..., e^{n-1}) with indices mod n.  The R-matrix
acts as R(u) e^i x e^j = sum e^{i'} x e^{j'} R(u)^{ij}_{i'j'} with entries

    R(u)^{ij}_{i'j'} = d_{i+j,i'+j'}  theta^(i'-j')(u+hbar) / theta^(i'-i)(hbar)
                       * prod_{k != i-j'} theta^(k)(u) / prod_{k=1}^{n-1} theta^(k)(0),

where the theta^(i-j')(u) denominator has been cancelled against the
numerator product, making every entry manifestly holomorphic in u (this is
what makes R(0) = P exact instead of a 0/0 limit).

Face side: paths are step sequences (i_1, ..., i_k) from a base weight, each
step adding hbar*epsbar_i; face operators act on dicts path -> coefficient.
The fusion operators on both sides are products of adjacent-swap moves whose
spectral parameters are tracked positionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import ModularContext, SingularParameterError
from .opalg import perm_sign
from .theta import Residual, residual_pair, theta, theta_char
from .weights import WeightPoint

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
    tc_u = np.array([theta_char(k, u, ctx).value for k in range(n)])
    tc_uh = np.array([theta_char(k, u + ctx.hbar, ctx).value for k in range(n)])
    tc_h = np.array([theta_char(k, ctx.hbar, ctx).value for k in range(n)])
    tc_0 = np.array([theta_char(k, 0.0, ctx).value for k in range(n)])
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

def face_weight(lam: WeightPoint, i: int, j: int, kind: str, u: complex,
                ctx: ModularContext) -> complex:
    """The three admissible face weights at base weight lam.

    kind 'diag':  both steps i (requires i == j)     theta(u+h)/theta(h)
    kind 'cis':   steps (i,j), unchanged middle      theta(-u+lam_ij)/theta(lam_ij)
    kind 'trans': steps (i,j), crossed middle        theta(u)/theta(h)
                                                     * theta(h+lam_ij)/theta(lam_ij)
    """
    hb = ctx.hbar
    if kind == "diag":
        if i != j:
            raise ValueError("diag face weight needs i == j")
        return theta(u + hb, ctx) / theta(hb, ctx)
    if i == j:
        raise ValueError(f"{kind} face weight needs i != j")
    lij = lam.diff(i, j)
    den = theta(lij, ctx)
    if abs(den) < ctx.tol_identity:
        raise SingularParameterError(f"resonant weight: theta(lambda_ij)~0 at {lij}")
    if kind == "cis":
        return theta(-u + lij, ctx) / den
    if kind == "trans":
        return theta(u, ctx) / theta(hb, ctx) * theta(hb + lij, ctx) / den
    raise ValueError(f"unknown face weight kind {kind!r}")


def face_apply(base: WeightPoint, state: dict, pos: int, delta: complex,
               ctx: ModularContext) -> dict:
    """Apply the face operator at step pair (pos, pos+1) to a path state.

    state maps step tuples (i_1, ..., i_k) to coefficients; all paths start
    at base.  delta is the spectral argument of the face weight.
    """
    out = {}
    for path, coeff in state.items():
        lam = base
        for r in range(pos):
            lam = lam.shifted_eps(path[r], ctx.hbar)
        i, j = path[pos], path[pos + 1]
        if i == j:
            w = face_weight(lam, i, i, "diag", delta, ctx)
            out[path] = out.get(path, 0.0) + coeff * w
        else:
            w_keep = face_weight(lam, i, j, "cis", delta, ctx)
            out[path] = out.get(path, 0.0) + coeff * w_keep
            swapped = path[:pos] + (j, i) + path[pos + 2:]
            w_cross = face_weight(lam, i, j, "trans", delta, ctx)
            out[swapped] = out.get(swapped, 0.0) + coeff * w_cross
    return out


def paths_from(n: int, k: int):
    """All step sequences of length k (the admissible paths from any base)."""
    if k == 0:
        return [()]
    shorter = paths_from(n, k - 1)
    return [p + (i,) for p in shorter for i in range(n)]


def face_operator_matrix(base: WeightPoint, k: int, moves, ctx: ModularContext) -> np.ndarray:
    """Matrix of a product of face moves on the length-k path space at base.

    moves is a list of (pos, delta), first entry applied first.
    """
    plist = paths_from(ctx.n, k)
    index = {p: a for a, p in enumerate(plist)}
    mat = np.zeros((len(plist), len(plist)), dtype=complex)
    for a, p in enumerate(plist):
        state = {p: 1.0 + 0.0j}
        for pos, delta in moves:
            state = face_apply(base, state, pos, delta, ctx)
        for pth, coeff in state.items():
            mat[index[pth], a] = coeff
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


def intertwiners(u: complex, mu: WeightPoint, ctx: ModularContext,
                 cond_limit: float = 1e8) -> IntertwinerPair:
    """Intertwining vectors phi[j,k] = theta_j(u/n - <mu,epsbar_k>)/(i eta)
    and the inverse matrix phibar, solved numerically."""
    def build():
        from .theta import dedekind_eta, theta_level_n
        n = ctx.n
        ieta = 1j * dedekind_eta(ctx.tau, ctx).value
        phi = np.empty((n, n), dtype=complex)
        for k in range(n):
            arg = u / n - mu.pair_eps(k)
            for j in range(n):
                phi[j, k] = theta_level_n(j, arg, ctx).value / ieta
        cond = float(np.linalg.cond(phi))
        if not np.isfinite(cond) or cond > cond_limit:
            raise SingularParameterError(
                f"intertwiner matrix ill-conditioned (cond={cond:.3g}) at u={u}")
        phibar = np.linalg.solve(phi, np.eye(n, dtype=complex))
        return IntertwinerPair(phi, phibar, u, mu, cond)
    return ctx.cached(("itw", complex(u), mu.coords), build)


def verify_intertwiner_duality(u: complex, mu: WeightPoint,
                               ctx: ModularContext) -> dict:
    pair = intertwiners(u, mu, ctx)
    eye = np.eye(ctx.n)
    return {"phibar-phi": _rel(pair.phibar @ pair.phi, eye),
            "phi-phibar": _rel(pair.phi @ pair.phibar, eye)}


def verify_vertex_face_intertwining(u: complex, v: complex, lam: WeightPoint,
                                    ctx: ModularContext) -> Residual:
    """Outgoing intertwining relation tying R(u-v) to the face weights."""
    n = ctx.n
    rt = build_r(u - v, ctx).entries
    worst = Residual(0.0, 0.0)
    for a in range(n):          # first step lam -> mu
        mu = lam.shifted_eps(a, ctx.hbar)
        phi_u = intertwiners(u, lam, ctx).phi
        phi_v_up = intertwiners(v, mu, ctx).phi
        for b in range(n):      # second step mu -> nu
            for ip in range(n):
                for jp in range(n):
                    lhs = sum(rt[i, j, ip, jp] * phi_u[i, a] * phi_v_up[j, b]
                              for i in range(n) for j in range(n))
                    rhs = 0.0 + 0.0j
                    for ap in range(n):     # middle weight lam + h epsbar_ap
                        if a == b:
                            if ap != a:
                                continue
                            w = face_weight(lam, a, a, "diag", u - v, ctx)
                            bp = a
                        elif ap == a:
                            w = face_weight(lam, a, b, "cis", u - v, ctx)
                            bp = b
                        elif ap == b:
                            w = face_weight(lam, a, b, "trans", u - v, ctx)
                            bp = a
                        else:
                            continue
                        mup = lam.shifted_eps(ap, ctx.hbar)
                        phi_v = intertwiners(v, lam, ctx).phi
                        phi_u_up = intertwiners(u, mup, ctx).phi
                        rhs += phi_v[jp, ap] * phi_u_up[ip, bp] * w
                    r = residual_pair(lhs, rhs)
                    if r.rel > worst.rel:
                        worst = r
    return worst


def verify_dual_intertwining(u: complex, v: complex, lam: WeightPoint,
                             ctx: ModularContext) -> Residual:
    """Incoming intertwining relation (the inverse-vector version)."""
    n = ctx.n
    rt = build_r(u - v, ctx).entries
    worst = Residual(0.0, 0.0)
    for a in range(n):
        mu = lam.shifted_eps(a, ctx.hbar)
        pb_v_lam = intertwiners(v, lam, ctx).phibar    # lam -> lam + h eps_a
        pb_u_mu = intertwiners(u, mu, ctx).phibar
        for b in range(n):
            for i in range(n):
                for j in range(n):
                    lhs = sum(pb_v_lam[a, jp] * pb_u_mu[b, ip] * rt[i, j, ip, jp]
                              for ip in range(n) for jp in range(n))
                    rhs = 0.0 + 0.0j
                    for ap in range(n):
                        if a == b:
                            if ap != a:
                                continue
                            w = face_weight(lam, a, a, "diag", u - v, ctx)
                            bp = a
                        elif ap == a:
                            w = face_weight(lam, ap, b, "cis", u - v, ctx)
                            bp = b
                        elif ap == b:
                            w = face_weight(lam, ap, a, "trans", u - v, ctx)
                            bp = a
                        else:
                            continue
                        mup = lam.shifted_eps(ap, ctx.hbar)
                        pb_u_lam = intertwiners(u, lam, ctx).phibar
                        pb_v_mup = intertwiners(v, mup, ctx).phibar
                        rhs += w * pb_u_lam[ap, i] * pb_v_mup[bp, j]
                    r = residual_pair(lhs, rhs)
                    if r.rel > worst.rel:
                        worst = r
    return worst


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
    """
    n = ctx.n
    k = len(params)
    plist = paths_from(n, k)
    mat = np.zeros((n ** k, len(plist)), dtype=complex)
    for col, path in enumerate(plist):
        vecs = []
        lam = base
        for m, step in enumerate(path):
            vecs.append(intertwiners(params[m], lam, ctx).phi[:, step])
            lam = lam.shifted_eps(step, ctx.hbar)
        acc = vecs[0]
        for v in vecs[1:]:
            acc = np.kron(acc, v)
        mat[:, col] = acc
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
