"""Symmetric theta functions on the weight space and their module structure.

chi_j is the lattice theta series over the shifted root lattice Lambda_j + Q
(Lambda_j the classical part of the j-th fundamental weight, realized as
integer vectors of coordinate sum j projected to sum zero).  Products of l of
them span the symmetric level-l space; the evaluators here check the
quasi-periodicity laws, the dimension by numerical rank, invariance under the
difference operators at integer coupling, and the identification of that
action with the l-fold R-matrix coproduct on symmetrized tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .context import ModularContext
from .belavin import build_r, r_table
from .opalg import DifferenceOperator, OperatorMatrix, apply_batch, apply_matrix
from .theta import (Residual, residual_pair, theta_table, worst_of,
                    worst_of_arrays)
from .transfer import l_op, m_closed
from .weights import WeightPoint, sample_many

_EPS = 1e-300
LATTICE_RADIUS2 = 40.0


def _lattice_points(n: int, j: int, ctx: ModularContext):
    """Integer vectors v with sum(v) = j and |v - (j/n) 1|^2 <= radius^2.

    Returned as the rows of an integer matrix V and the vector nn of their
    squared norms |v - (j/n) 1|^2.
    """
    def build():
        span = int(np.ceil(np.sqrt(LATTICE_RADIUS2))) + 1
        lo, hi = int(np.floor(j / n)) - span, int(np.ceil(j / n)) + span
        pts, norms = [], []
        def rec(prefix, remaining):
            if remaining == 1:
                v = prefix + (j - sum(prefix),)
                if lo <= v[-1] <= hi:
                    nn = sum((x - j / n) ** 2 for x in v)
                    if nn <= LATTICE_RADIUS2:
                        pts.append(v)
                        norms.append(nn)
                return
            for x in range(lo, hi + 1):
                rec(prefix + (x,), remaining - 1)
        rec((), n)
        return np.array(pts, dtype=int), np.array(norms)
    return ctx.cached(("chilat", n, j), build)


def chi(j: int, lam: WeightPoint, ctx: ModularContext) -> complex:
    """Level-one character theta sum over Lambda_j + Q."""
    n = ctx.n
    vs, nn = _lattice_points(n, j % n, ctx)
    return complex(np.exp(2j * np.pi * (vs @ np.asarray(lam.coords)
                                        + nn * (ctx.tau / 2.0))).sum())


@dataclass(frozen=True)
class CharacterBasis:
    """Products chi_{j_1} ... chi_{j_l} over multisets 0 <= j_1 <= ... <= n-1."""

    level: int
    elements: tuple  # sorted index tuples

    def __len__(self):
        return len(self.elements)

    def function(self, member, ctx: ModularContext):
        js = self.elements[member] if isinstance(member, int) else tuple(member)
        def fn(lam: WeightPoint) -> complex:
            val = 1.0 + 0.0j
            for j in js:
                val *= chi(j, lam, ctx)
            return val
        return fn


def character_basis(l: int, ctx: ModularContext) -> CharacterBasis:
    elements = tuple(combinations_with_replacement(range(ctx.n), l))
    return CharacterBasis(l, elements)


def basis_dimension(n: int, l: int) -> int:
    """Multiset count = (l+n-1)! / (l! (n-1)!)."""
    from math import comb
    return comb(n + l - 1, l)


def verify_chi_quasiperiodicity(l: int, ctx: ModularContext, seed: int = 0,
                                samples: int = 10) -> Residual:
    """Both level-l laws on random basis products and random small roots."""
    rng = np.random.default_rng(seed)
    basis = character_basis(l, ctx)
    lams = sample_many(seed, samples, ctx)
    found = []
    for lam in lams:
        m = int(rng.integers(0, len(basis)))
        fn = basis.function(m, ctx)
        i = int(rng.integers(0, ctx.n))
        j = (i + 1 + int(rng.integers(0, ctx.n - 1))) % ctx.n
        alpha = tuple(1 if a == i else (-1 if a == j else 0) for a in range(ctx.n))
        base = fn(lam)
        shifted_1 = fn(lam.shifted(alpha, 1.0))
        r1 = residual_pair(shifted_1, base)
        pairing = lam.coords[i] - lam.coords[j]
        factor = np.exp(-2j * np.pi * l * (pairing + 2.0 * ctx.tau / 2.0))
        shifted_tau = fn(lam.shifted(alpha, ctx.tau))
        found += [r1, residual_pair(shifted_tau, factor * base)]
    return worst_of(found)


def gram_rank(l: int, points, ctx: ModularContext,
              cutoff: float = 1e-8) -> int:
    """Numerical rank of the basis evaluation matrix at the given points."""
    basis = character_basis(l, ctx)
    if len(points) < 2 * len(basis):
        raise ValueError("need at least 2 * dim sample points")
    mat = np.array([[basis.function(m, ctx)(lam) for m in range(len(basis))]
                    for lam in points])
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > cutoff * svals[0]))


def _fit_points(l: int, seed: int, ctx: ModularContext):
    """The 3 dim fit points and dim + 4 held-out points of a fit."""
    dim = basis_dimension(ctx.n, l)
    return sample_many(seed, 3 * dim, ctx), sample_many(seed + 77, dim + 4, ctx)


def _fit_values(l: int, pts, values, hold, held, ctx: ModularContext):
    """Least-squares expansion of the values at pts in the basis and its
    residual at the held-out points, in relative sup norm."""
    basis = character_basis(l, ctx)
    dim = len(basis)
    mat = np.array([[basis.function(m, ctx)(lam) for m in range(dim)]
                    for lam in pts])
    coeffs, *_ = np.linalg.lstsq(mat, values, rcond=1e-10)
    hm = np.array([[basis.function(m, ctx)(lam) for m in range(dim)]
                   for lam in hold])
    err = np.abs(hm @ coeffs - held)
    scale = float(np.max(np.abs(held))) + _EPS
    return coeffs, Residual(rel=float(np.max(err)) / scale, abs=float(np.max(err)))


def fit_function(l: int, target, ctx: ModularContext, seed: int = 0):
    """Least-squares expansion of target in the basis; residual on held-out
    points in relative sup norm.  target maps a list of points to the array
    of its values there.  Returns (coefficients, Residual)."""
    pts, hold = _fit_points(l, seed, ctx)
    return _fit_values(l, pts, target(pts), hold, target(hold), ctx)


def _fit_entries(l: int, apply, seeds, ctx: ModularContext):
    """Fit column e of apply(fn, lams) at the points of seeds[e], for every
    basis function fn: one apply per function, at the points of all columns.

    Returns the coefficients [e, m, :] and the held-out Residuals [e][m].
    """
    basis = character_basis(l, ctx)
    dim = len(basis)
    coeffs = np.empty((len(seeds), dim, dim), dtype=complex)
    found = [[None] * dim for _ in seeds]
    for m in range(dim):
        sets = [_fit_points(l, seed + m, ctx) for seed in seeds]
        lams = [lam for pts, hold in sets for lam in (*pts, *hold)]
        values = apply(basis.function(m, ctx), lams)
        start = 0
        for e, (pts, hold) in enumerate(sets):
            mid, stop = start + len(pts), start + len(pts) + len(hold)
            coeffs[e, m], found[e][m] = _fit_values(
                l, pts, values[start:mid, e], hold, values[mid:stop, e], ctx)
            start = stop
    return coeffs, found


def fit_action(l: int, u: complex, op: DifferenceOperator, ctx: ModularContext,
               seed: int = 0):
    """Expand op applied to every basis function back in the basis.

    Returns (coefficient matrix, worst held-out Residual).
    """
    coeffs, found = _fit_entries(
        l, lambda fn, lams: apply_batch(op, fn, lams, ctx)[:, None], [seed],
        ctx)
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
        l, lambda fn, lams: apply_matrix(matrix, fn, lams, ctx).reshape(
            len(lams), -1), seeds, ctx)
    size, dim = matrix.size, coeffs.shape[-1]
    return (coeffs.reshape(size, size, dim, dim),
            worst_of(res for row in found for res in row))


def negative_control(l: int, op: DifferenceOperator, ctx: ModularContext,
                     seed: int = 0) -> Residual:
    """Fit residual for op applied to a generic non-theta exponential."""
    import cmath
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=ctx.n) + 0.1 * rng.normal(size=ctx.n)
    vec = vec - vec.mean() + 0.37   # generic: not in the dual lattice
    fn = lambda lam: cmath.exp(2j * np.pi * sum(
        v * c for v, c in zip(vec, lam.coords)))
    target = lambda lams: apply_batch(op, fn, lams, ctx)
    _, res = fit_function(l, target, ctx, seed=seed)
    return res


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
    lams = sample_many(seed, samples, ctx)
    lhs_all = [apply_matrix(lop, lambda mu, _a=a: chi(gamma_index(_a, n),
                                                      mu, ctx), lams, ctx)
               for a in range(n)]
    found = []
    for s, lam in enumerate(lams):
        chival = [chi(gamma_index(b, n), lam, ctx) for b in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    lhs = complex(lhs_all[a][s, i, j])
                    rhs = pref * sum(chival[b] * r4[i, a, j, b] for b in range(n))
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


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
    lams = sample_many(seed, samples, ctx)
    fns = [lambda mu, _j=j: chi(_j, mu, ctx) for j in range(n)]
    applied = [apply_batch(m1, fn, lams, ctx) for fn in fns]
    found = [residual_pair(complex(applied[j][s]), eig * fns[j](lam))
             for s, lam in enumerate(lams) for j in range(n)]
    return {"eigen": worst_of(found),
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
    lams = sample_many(seed, samples, ctx)
    found = []
    for js in basis.elements:
        gjs = tuple(gamma_index(j, n) for j in js)
        applied_all = apply_matrix(lop, basis.function(gjs, ctx), lams, ctx)
        for i in range(n):
            for ip in range(n):
                action = _coproduct_action(i, ip, js, u, ctx)
                applied = applied_all[:, i, ip]
                for s, lam in enumerate(lams):
                    lhs = 0.0 + 0.0j
                    for outjs, coeff in action.items():
                        val = coeff
                        for j in outjs:
                            val *= chi(gamma_index(j, n), lam, ctx)
                        lhs += val
                    rhs = norm * complex(applied[s])
                    found.append(residual_pair(lhs, rhs))
    return worst_of(found)


def verify_symmetrized_ordering(l: int, u: complex, ctx: ModularContext,
                                seed: int = 0) -> Residual:
    """Transposed monomial orderings give the same symmetrized image."""
    n = ctx.n
    lams = sample_many(seed, 4, ctx)
    found = []
    for js in combinations_with_replacement(range(n), l):
        if len(set(js)) < 2:
            continue
        rev = tuple(reversed(js))
        for i in range(n):
            for ip in range(n):
                a1 = _coproduct_action(i, ip, js, u, ctx)
                a2 = _coproduct_action(i, ip, rev, u, ctx)
                for lam in lams:
                    v1 = sum(c * np.prod([chi(j, lam, ctx) for j in outjs])
                             for outjs, c in a1.items())
                    v2 = sum(c * np.prod([chi(j, lam, ctx) for j in outjs])
                             for outjs, c in a2.items())
                    found.append(residual_pair(complex(v1), complex(v2)))
    return worst_of(found)
