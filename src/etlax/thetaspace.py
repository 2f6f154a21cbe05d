"""Symmetric theta functions on the weight space and their module structure.

chi_j is the lattice theta series over the shifted root lattice Lambda_j + Q
(Lambda_j the classical part of the j-th fundamental weight, realized as
integer vectors of coordinate sum j projected to sum zero).  Products of l of
them span the symmetric level-l space; the evaluators here check the
quasi-periodicity laws, the dimension by numerical rank, invariance under the
difference operators at integer coupling, and the identification of that
action with the l-fold R-matrix coproduct on symmetrized tensors.

chi_table(P) reads every character at every point of a batch P[..., n] as
one array X[..., j]; a basis member is a product of its columns, so a point
set is read once for every member.  The lattice sum at lambda keeps the
vectors w of a ball |w| <= R around 0.  The term of w has modulus
G exp(-pi Im(tau) |w - w*|^2), a Gaussian whose peak w* = -Im(lambda)/Im(tau)
moves with Im(lambda).  R is |w*| plus a margin rho fixed by Im tau, the
rank and the target: the terms left out then sum to at most
min(2^-60, tol_series) times the largest term kept (_margin), so the ball
grows as Im tau falls and stays small at the default modulus.  The lattice
points of a batch's largest ball are built once per (n, j, ceil(R^2)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .context import ContextError, ModularContext
from .belavin import build_r, r_table
from .opalg import (DifferenceOperator, OperatorMatrix, apply_batch,
                    apply_matrix, exp_function)
from .theta import (_WINDOW_DROP, Residual, residual_arrays, theta_table,
                    worst_of, worst_of_arrays)
from .transfer import l_op, m_closed
from .weights import canonical, sample_many, sample_points, subseeds

_EPS = 1e-300
_CHI_CHUNK = 1 << 20    # terms of a chi_table work array (16 MB)
_CHI_BOX = 1 << 21      # lattice candidates a ball may enumerate (~0.4 GB)


@functools.lru_cache(maxsize=None)
def _margin(n: int, a: float, drop: float) -> float:
    """Least rho (in steps of 1/16) such that the lattice vectors farther
    than rho from the peak add up to at most drop times the largest term
    kept, a = pi Im(tau): at most (1 + sqrt(2) r)^(n-1) coset points (sqrt(2)
    apart) lie within r of a point, and one lies within the covering radius
    delta of the peak, delta^2 = floor(n/2) ceil(n/2) / n."""
    delta2 = (n // 2) * (n - n // 2) / n
    rho = math.sqrt(delta2)
    while True:
        tail = sum((1.0 + math.sqrt(2.0) * (rho + k + 1)) ** (n - 1)
                   * math.exp(-a * ((rho + k) ** 2 - delta2))
                   for k in range(64))
        if tail <= drop:
            return rho
        rho += 1.0 / 16.0


def _ball_radii2(P: np.ndarray, ctx: ModularContext) -> np.ndarray:
    """ceil(R^2) of every point's ball: R = |w*| + _margin of P[s, n]."""
    imt = ctx.tau.imag
    reach = np.linalg.norm(P.imag, axis=-1) / imt
    radius = _margin(ctx.n, math.pi * imt,
                     min(_WINDOW_DROP, ctx.tol_series)) + np.where(
                         np.isfinite(reach), reach, 0.0)
    return np.ceil(radius * radius)


def _lattice_points(n: int, j: int, radius2: int, ctx: ModularContext):
    """Rows V of integer v with sum(v) = j and nn = |v - (j/n) 1|^2 <= radius2,
    sorted by nn (ties lexicographic): a smaller ball is a prefix."""
    def build():
        span = math.isqrt(radius2) + 1
        centre = j / n
        axis = np.arange(math.floor(centre) - span, math.ceil(centre) + span + 1)
        if len(axis) ** (n - 1) > _CHI_BOX:     # Im tau far too small for n
            raise ContextError(f"character lattice ball radius^2 {radius2} "
                               f"is too large at n = {n}")
        head = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"),
                        axis=-1).reshape(-1, n - 1)
        vs = np.column_stack([head, j - head.sum(axis=1)])
        nn = ((vs - centre) ** 2).sum(axis=1)
        order = np.argsort(nn, kind="stable")
        keep = order[nn[order] <= radius2]
        return vs[keep], nn[keep]
    return ctx.cached(("chilat", n, j, radius2), build)


def chi_table(P, ctx: ModularContext) -> np.ndarray:
    """X[..., j] = chi_j at every point of P[..., n], j < n.  Each point
    sums the prefix of the batch's lattice that is its own ball, left to
    right, so a value depends on its own point alone."""
    return _chi_columns(P, range(ctx.n), ctx)


def _chi_columns(P, labels, ctx: ModularContext) -> np.ndarray:
    """The columns labels of chi_table, [..., a] = chi_{labels[a]}."""
    P = np.asarray(P, dtype=complex)
    n = ctx.n
    flat = P.reshape(-1, n)
    radii2 = _ball_radii2(flat, ctx)
    radius2 = int(np.max(radii2, initial=0.0))
    out = np.empty((len(flat), len(labels)), dtype=complex)
    for a, j in enumerate(labels):
        vs, nn = _lattice_points(n, j, radius2, ctx)
        ends = np.searchsorted(nn, radii2, side="right") - 1
        # the terms, built in place, for at most _CHI_CHUNK at a time
        step = max(1, _CHI_CHUNK // len(nn))
        for s in range(0, len(flat), step):
            terms = flat[s:s + step, :1] * vs[:, 0]
            for k in range(1, n):
                terms += flat[s:s + step, k:k + 1] * vs[:, k]
            terms += nn * (ctx.tau / 2.0)
            terms *= 2j * np.pi
            np.cumsum(np.exp(terms, out=terms), axis=-1, out=terms)
            out[s:s + step, a] = terms[np.arange(len(terms)), ends[s:s + step]]
    return out.reshape(P.shape[:-1] + (len(labels),))


def chi(j: int, lam, ctx: ModularContext) -> complex:
    """chi_j at one point lam[n]: a one-point view the benchmark traces."""
    return complex(chi_table(np.asarray(lam)[None], ctx)[0, j % ctx.n])


def _products(X: np.ndarray, elements) -> np.ndarray:
    """[..., m] = prod_{j in elements[m]} X[..., j]."""
    return np.stack([np.prod(X[..., list(js)], axis=-1) for js in elements],
                    axis=-1)


@dataclass(frozen=True)
class CharacterBasis:
    """Products chi_{j_1} ... chi_{j_l} over multisets 0 <= j_1 <= ... <= n-1."""

    level: int
    elements: tuple  # sorted index tuples

    def __len__(self):
        return len(self.elements)

    def table(self, P, ctx: ModularContext) -> np.ndarray:
        """[..., m] = member m at every point of P[..., n], one chi_table."""
        return _products(chi_table(P, ctx), self.elements)

    def function(self, member, ctx: ModularContext):
        """The test function of one member (an index, or labels mod n)."""
        js = self.elements[member] if isinstance(member, int) else tuple(
            j % ctx.n for j in member)
        labels = sorted(set(js))
        columns = [labels.index(j) for j in js]
        return lambda P: np.prod(_chi_columns(P, labels, ctx)[..., columns], -1)


def character_basis(l: int, ctx: ModularContext) -> CharacterBasis:
    elements = tuple(combinations_with_replacement(range(ctx.n), l))
    return CharacterBasis(l, elements)


def basis_dimension(n: int, l: int) -> int:
    """Multiset count = (l+n-1)! / (l! (n-1)!)."""
    return math.comb(n + l - 1, l)


def verify_chi_quasiperiodicity(l: int, ctx: ModularContext, seed: int = 0,
                                samples: int = 10) -> Residual:
    """Both level-l laws on random basis products and random small roots:
    chi_table at the samples, shifted by their roots and by tau times them."""
    n = ctx.n
    rng = np.random.default_rng(seed)
    basis = character_basis(l, ctx)
    P = sample_many(seed, samples, ctx)
    members, roots = [], np.zeros((samples, n), dtype=int)
    for s in range(samples):
        members.append(basis.elements[int(rng.integers(0, len(basis)))])
        i = int(rng.integers(0, n))
        roots[s, i], roots[s, (i + 1 + int(rng.integers(0, n - 1))) % n] = 1, -1
    base, shifted_1, shifted_tau = (
        np.array([np.prod(X[s, list(js)]) for s, js in enumerate(members)])
        for X in (chi_table(Q, ctx) for Q in (
            P, canonical(P + 1.0 * roots), canonical(P + ctx.tau * roots))))
    pairing = np.sum(P * roots, axis=-1)                # <lambda, alpha>
    factor = np.exp(-2j * np.pi * l * (pairing + 2.0 * ctx.tau / 2.0))
    return worst_of_arrays(*residual_arrays(
        np.stack([shifted_1, shifted_tau], axis=-1),
        np.stack([base, factor * base], axis=-1)))


def gram_rank(l: int, points, ctx: ModularContext,
              cutoff: float = 1e-8) -> int:
    """Numerical rank of the basis evaluation matrix at the given points."""
    basis = character_basis(l, ctx)
    if len(points) < 2 * len(basis):
        raise ValueError("need at least 2 * dim sample points")
    svals = np.linalg.svd(basis.table(points, ctx), compute_uv=False)
    return int(np.sum(svals > cutoff * svals[0]))


def _fit_seeds(l: int, seed: int, ctx: ModularContext):
    """The sub-seeds of the 3 dim fit points and the dim + 4 held-out points
    of a fit."""
    dim = basis_dimension(ctx.n, l)
    return subseeds(seed, 3 * dim), subseeds(seed + 77, dim + 4)


def _fit_values(table, values, hold_table, held) -> tuple:
    """Least-squares expansion of the values at the fit points (basis
    table rows) and its residual at the held-out points, in relative sup
    norm."""
    coeffs, *_ = np.linalg.lstsq(table, values, rcond=1e-10)
    err = np.abs(hold_table @ coeffs - held)
    scale = float(np.max(np.abs(held))) + _EPS
    return coeffs, Residual(rel=float(np.max(err)) / scale, abs=float(np.max(err)))


def _fit_entries(l: int, apply, seeds, ctx: ModularContext):
    """Fit column e of apply(fn, P) at the points of seeds[e], for every
    basis function fn: one apply per function, at the points of all columns.
    The points of every (function, column) fit are sampled in one call and
    read in one basis table.

    Returns the coefficients [e, m, :] and the held-out Residuals [e][m].
    """
    basis = character_basis(l, ctx)
    dim = len(basis)
    sets = [_fit_seeds(l, seed + m, ctx) for m in range(dim) for seed in seeds]
    k = len(sets[0][0])
    size = k + len(sets[0][1])
    # [m, e] = the fit points, then the held-out points, of function m and
    # column e
    P = sample_points([s for fit, held in sets for s in fit + held],
                      ctx).reshape(dim, len(seeds), size, ctx.n)
    table = basis.table(P, ctx)
    coeffs = np.empty((len(seeds), dim, dim), dtype=complex)
    found = [[None] * dim for _ in seeds]
    for m in range(dim):
        values = apply(basis.function(m, ctx), P[m].reshape(-1, ctx.n)
                       ).reshape(len(seeds), size, len(seeds))
        for e in range(len(seeds)):
            coeffs[e, m], found[e][m] = _fit_values(
                table[m, e, :k], values[e, :k, e], table[m, e, k:],
                values[e, k:, e])
    return coeffs, found


def fit_action(l: int, u: complex, op: DifferenceOperator, ctx: ModularContext,
               seed: int = 0):
    """Expand op applied to every basis function back in the basis.

    Returns (coefficient matrix, worst held-out Residual).
    """
    coeffs, found = _fit_entries(
        l, lambda fn, P: apply_batch(op, fn, P, ctx)[:, None], [seed], ctx)
    return coeffs[0], worst_of(found[0])


def fit_matrix_action(l: int, matrix: OperatorMatrix, ctx: ModularContext,
                      seeds):
    """fit_action of every entry of matrix, entry (i, j) at the points of
    seeds[i * size + j]; each basis function reads the matrix table once,
    at the points of all entries.

    Returns (coefficients [i, j, m, :], worst held-out Residual), the worst
    taken entry by entry in row-major order.
    """
    coeffs, found = _fit_entries(
        l, lambda fn, P: apply_matrix(matrix, fn, P, ctx).reshape(len(P), -1),
        seeds, ctx)
    size, dim = matrix.size, coeffs.shape[-1]
    return (coeffs.reshape(size, size, dim, dim),
            worst_of(res for row in found for res in row))


def negative_control(l: int, op: DifferenceOperator, ctx: ModularContext,
                     seed: int = 0) -> Residual:
    """Fit residual for op applied to a generic non-theta exponential."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=ctx.n) + 0.1 * rng.normal(size=ctx.n)
    vec = vec - vec.mean() + 0.37   # generic: not in the dual lattice
    fn = exp_function(vec)
    fit, held = _fit_seeds(l, seed, ctx)
    P = sample_points(fit + held, ctx)
    table = character_basis(l, ctx).table(P, ctx)
    pts, hold = P[:len(fit)], P[len(fit):]
    return _fit_values(table[:len(fit)], apply_batch(op, fn, pts, ctx),
                       table[len(fit):], apply_batch(op, fn, hold, ctx))[1]


def gamma_index(j: int, n: int) -> int:
    """Character label paired with the vector index j: chi_{-j mod n}.

    Pinned numerically by the level-1 module relation (the two labelings
    coincide at n = 2, and only the negated one satisfies it at n = 3).
    """
    return (-j) % n


def verify_thminl1(u: complex, ctx: ModularContext, seed: int = 0,
                   samples: int = 15) -> Residual:
    """L(1|u)^i_j gamma(e^a) = theta(hbar)/theta(u) sum_b gamma(e^b) R(u)^{ia}_{jb}."""
    n = ctx.n
    lop = l_op(1.0, u, ctx)
    r4 = build_r(u, ctx).entries
    th_h, th_u = theta_table([ctx.hbar, u], ctx).tolist()
    pref = th_h / th_u
    P = sample_many(seed, samples, ctx)
    gamma = [gamma_index(b, n) for b in range(n)]
    basis = character_basis(1, ctx)
    lhs = np.stack([apply_matrix(lop, basis.function((j,), ctx), P, ctx)
                    for j in gamma], axis=1)                    # [s, a, i, j]
    rhs = pref * np.einsum("sb,iajb->saij", chi_table(P, ctx)[:, gamma], r4)
    return worst_of_arrays(*residual_arrays(lhs, rhs))


def m1_eigen_check(u: complex, ctx: ModularContext, seed: int = 0,
                   samples: int = 15) -> dict:
    """chi_j are joint eigenfunctions of M_1(1|u) with a shared eigenvalue."""
    n = ctx.n
    m1 = m_closed(1.0, u, 1, ctx)
    r4 = build_r(u, ctx).entries
    th_h, th_u = theta_table([ctx.hbar, u], ctx).tolist()
    pref = th_h / th_u
    eig = pref * sum(r4[i, 0, i, 0] for i in range(n))
    eigs_by_j = [pref * sum(r4[i, j, i, j] for i in range(n)) for j in range(n)]
    spread = [abs(e - eig) / (abs(eig) + _EPS) for e in eigs_by_j]
    P = sample_many(seed, samples, ctx)
    basis = character_basis(1, ctx)
    applied = np.stack([apply_batch(m1, basis.function(j, ctx), P, ctx)
                        for j in range(n)], axis=1)
    return {"eigen": worst_of_arrays(*residual_arrays(
                applied, eig * chi_table(P, ctx))),
            "shared": worst_of_arrays(spread, spread)}


def _coproduct_action(i: int, ip: int, js: tuple, u: complex,
                      ctx: ModularContext) -> dict:
    """R-matrix coproduct action on the monomial e^{j_1} x ... x e^{j_l}.

    Slot m carries spectral parameter -(m-1) hbar; returns a map from output
    index tuples to coefficients, with boundary indices (i, ip).
    """
    n = ctx.n
    l = len(js)
    rmats = r_table([u + m * ctx.hbar for m in range(l)], ctx)
    out = {}

    def rec(m, ia, prefix, coeff):
        if m == l:
            if ia == ip:
                out[prefix] = out.get(prefix, 0.0) + coeff
            return
        for ib in range(n):
            for jp in range(n):
                w = rmats[m][ia, js[m], ib, jp]
                if abs(w) < 1e-16:
                    continue
                rec(m + 1, ib, prefix + (jp,), coeff * w)
    rec(0, i, (), 1.0 + 0.0j)
    return out


def verify_module_iso(l: int, u: complex, ctx: ModularContext, seed: int = 0,
                      samples: int = 12) -> Residual:
    """The symmetrized l-fold coproduct matches the normalized operators.

    gamma(L(u)^i_ip . monomial) vs L_norm(l|u)^i_ip gamma(monomial), where
    gamma sends e^{j_1}...e^{j_l} to chi_{-j_1}...chi_{-j_l} (labels mod n)
    and L_norm carries the scalar factor prod_{s<l} theta(u+s hbar)/theta(hbar).
    """
    n = ctx.n
    lop = l_op(float(l), u, ctx)
    values = theta_table([u + s * ctx.hbar for s in range(l)] + [ctx.hbar],
                         ctx).tolist()
    norm = 1.0 + 0.0j
    for value in values[:-1]:
        norm *= value / values[-1]
    basis = character_basis(l, ctx)
    P = sample_many(seed, samples, ctx)
    X = chi_table(P, ctx)
    lhs, rhs = [], []
    for js in basis.elements:
        gjs = tuple(gamma_index(j, n) for j in js)
        applied = apply_matrix(lop, basis.function(gjs, ctx), P, ctx)
        for i in range(n):
            for ip in range(n):
                action = _coproduct_action(i, ip, js, u, ctx)
                lhs.append(sum(coeff * _products(X, [[gamma_index(j, n)
                                                      for j in outjs]])[:, 0]
                               for outjs, coeff in action.items()))
                rhs.append(norm * applied[:, i, ip])
    return worst_of_arrays(*residual_arrays(np.array(lhs), np.array(rhs)))


def verify_symmetrized_ordering(l: int, u: complex, ctx: ModularContext,
                                seed: int = 0) -> Residual:
    """Transposed monomial orderings give the same symmetrized image."""
    n = ctx.n
    X = chi_table(sample_many(seed, 4, ctx), ctx)
    sides = ([], [])
    for js in combinations_with_replacement(range(n), l):
        if len(set(js)) < 2:
            continue
        for i in range(n):
            for ip in range(n):
                for side, order in zip(sides, (js, tuple(reversed(js)))):
                    action = _coproduct_action(i, ip, order, u, ctx)
                    side.append(sum(c * _products(X, [outjs])[:, 0]
                                    for outjs, c in action.items()))
    return worst_of_arrays(*residual_arrays(np.array(sides[0]),
                                            np.array(sides[1])))
