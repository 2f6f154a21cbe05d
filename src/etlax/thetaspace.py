"""Symmetric theta functions on the weight space and their module structure.

chi_j is the lattice theta series over the shifted root lattice Lambda_j + Q
(Lambda_j the classical part of the j-th fundamental weight, realized as
integer vectors of coordinate sum j projected to sum zero).  Products of l of
them span the symmetric level-l space; the evaluators here check the
quasi-periodicity laws, the dimension by numerical rank, invariance under the
difference operators at integer coupling, and that L(l|u) acts there as the
l-fold coproduct T, slot m < l carrying R(u + m hbar), on symmetrized tensors.

chi_table(P) reads every character at every point of a batch P[..., n] as
one array X[..., j]; a basis member is a product of its columns, so a point
set is read once for every member.  The characters come from the one theta
kernel (theta._table), by the decomposition of Z^n into the cosets of the
weight lattice (Kac, Infinite-dimensional Lie Algebras, ch. 12-13): at a
point of coordinate sum zero, a vector v of sum j + n t is w + t (1, ..., 1)
with w of sum j, so the length-n discrete Fourier transform of a product of
n one-dimensional theta_3 splits into the characters,

    (1/n) sum_{m<n} e^(-2 pi i j m/n) prod_k theta_3(lambda_k + m/n)
        = chi_j(lambda) D_j,   D_j = theta_{j,n}(0 | tau),

exactly: the vectors it adds to chi_j are the w + t (1, ..., 1), and they
give the constant factor D_j = sum_t exp(pi i n tau (t + j/n)^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .context import ModularContext, read_only
from .belavin import r_table
from .opalg import DifferenceOperator, OperatorMatrix, apply_batch, exp_function
from .theta import (_EPS, Residual, _series, _table, residual_arrays,
                    theta_table, worst_of, worst_of_arrays)
from .transfer import l_op, m_closed
from .weights import canonical, sample_many, sample_points, subseeds


@functools.lru_cache(maxsize=16)
def _chi_constants(n: int, tau: complex) -> tuple:
    """D_j = theta_{j,n}(0 | tau), j < n, and the DFT [e^(-2 pi i jm/n)]_{j,m}
    of chi_table, read-only as every call shares them."""
    m = np.arange(n)
    return read_only(_table(_series(tuple(range(n)), n, tau, 0),
                            np.zeros(1, dtype=complex))[:, 0],
                     np.exp(-2j * np.pi / n * np.outer(m, m)))


def chi_table(P, ctx: ModularContext) -> np.ndarray:
    """X[..., j] = chi_j at every point of P[..., n], j < n: one theta_3
    table at the n shifts lambda_k + m/n, and D_j and the DFT of
    _chi_constants.  The transform is an elementwise product summed over m,
    so a value depends on its own point alone."""
    P = np.asarray(P, dtype=complex)
    n, tau, m = ctx.n, complex(ctx.tau), np.arange(ctx.n)
    theta3 = _table(_series((0.0,), 1, tau, 0),
                    (P[..., None, :] + m[:, None] / n).ravel())
    prods = np.prod(theta3.reshape(P.shape[:-1] + (n, n)), axis=-1)  # [..., m]
    norms, dft = _chi_constants(n, tau)
    return np.sum(prods[..., None, :] * dft, axis=-1) / (n * norms)


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
        js = list(self.elements[member] if isinstance(member, int) else (
            j % ctx.n for j in member))
        return lambda P: np.prod(chi_table(P, ctx)[..., js], -1)


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


def gram_rank(l: int, points, ctx: ModularContext) -> int:
    """Numerical rank of the basis evaluation matrix at the given points:
    its singular values above 1e-8 times the largest."""
    basis = character_basis(l, ctx)
    if len(points) < 2 * len(basis):
        raise ValueError("need at least 2 * dim sample points")
    svals = np.linalg.svd(basis.table(points, ctx), compute_uv=False)
    return int(np.sum(svals > 1e-8 * svals[0]))


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


def fit_action(l: int, op: DifferenceOperator, ctx: ModularContext,
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
        l, lambda fn, P: apply_batch(matrix, fn, P, ctx).reshape(len(P), -1),
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


def m1_eigen_check(u: complex, ctx: ModularContext, seed: int = 0,
                   samples: int = 15) -> dict:
    """chi_j are joint eigenfunctions of M_1(1|u) with a shared eigenvalue:
    theta(hbar)/theta(u) sum_i R(u)^{ij}_{ij}, read from the level-1 T."""
    n = ctx.n
    m1 = m_closed(1.0, u, 1, ctx)
    T = _coproduct(1, u, ctx)
    th_h, th_u = theta_table([ctx.hbar, u], ctx).tolist()
    pref = th_h / th_u
    eigs = [pref * sum(T[i, j, i, j] for i in range(n)) for j in range(n)]
    spread = [abs(e - eigs[0]) / (abs(eigs[0]) + _EPS) for e in eigs]
    P = sample_many(seed, samples, ctx)
    basis = character_basis(1, ctx)
    applied = np.stack([apply_batch(m1, basis.function(j, ctx), P, ctx)
                        for j in range(n)], axis=1)
    return {"eigen": worst_of_arrays(*residual_arrays(
                applied, eigs[0] * chi_table(P, ctx))),
            "shared": worst_of_arrays(spread, spread)}


def _coproduct(l: int, u: complex, ctx: ModularContext) -> np.ndarray:
    """The l-fold R-matrix coproduct as T[i, J, i', J'], J and J' row-major
    over [n]^l: the coefficient of e^J' with boundary indices (i, i') when
    the auxiliary line crosses e^J = e^{j_0} x ... x e^{j_(l-1)}, slot m
    carrying R(u + m hbar), a_0 = i and a_l = i':

        T[i, J, i', J'] = sum_a prod_m R(u + m hbar)^{a_m j_m}_{a_(m+1) j'_m}.

    One r_table reads the l R-matrices, and the line is contracted slot by
    slot, each product formed left to right."""
    n = ctx.n
    rs = r_table([u + m * ctx.hbar for m in range(l)], ctx)
    T = rs[0]
    for r in rs[1:]:
        width = T.shape[1] * n
        T = np.einsum("iJaK,ajbk->iJjbKk", T, r).reshape(n, width, n, width)
    return T


def _images(monomials, u: complex, labels, P, ctx: ModularContext):
    """[J, i, i', s] = sum_J' T[i, J, i', J'] prod_m chi_{labels[j'_m]}(P[s])
    for the monomials J of one level: their coproduct images read through
    the character labels, from one T and one chi_table."""
    n, l = ctx.n, len(monomials[0])
    rows = np.ravel_multi_index(np.array(monomials).T, (n,) * l)
    Y = _products(chi_table(P, ctx)[:, labels],
                  list(product(range(n), repeat=l)))
    return np.einsum("iJaK,sK->Jias", _coproduct(l, u, ctx)[:, rows], Y)


def verify_module_iso(l: int, u: complex, ctx: ModularContext, seed: int = 0,
                      samples: int = 12) -> Residual:
    """The symmetrized l-fold coproduct matches the normalized operators.

    gamma(T^i_i' . monomial) vs L_norm(l|u)^i_i' gamma(monomial), where
    gamma sends e^{j_1}...e^{j_l} to chi_{-j_1}...chi_{-j_l} (labels mod n)
    and L_norm carries the scalar factor prod_{s<l} theta(u+s hbar)/theta(hbar).
    At l = 1 this is L(1|u)^i_j gamma(e^a) = theta(hbar)/theta(u) sum_b
    gamma(e^b) R(u)^{ia}_{jb}, both sides times theta(u)/theta(hbar).
    """
    n = ctx.n
    lop = l_op(float(l), u, ctx)
    *shifts, th_h = theta_table([u + s * ctx.hbar for s in range(l)]
                                 + [ctx.hbar], ctx).tolist()
    norm = math.prod(value / th_h for value in shifts)
    basis = character_basis(l, ctx)
    P = sample_many(seed, samples, ctx)
    gamma = [gamma_index(j, n) for j in range(n)]
    applied = np.stack([apply_batch(lop, basis.function(
        tuple(gamma[j] for j in js), ctx), P, ctx) for js in basis.elements])
    return worst_of_arrays(*residual_arrays(
        _images(basis.elements, u, gamma, P, ctx),
        norm * applied.transpose(0, 2, 3, 1)))


def verify_symmetrized_ordering(l: int, u: complex, ctx: ModularContext,
                                seed: int = 0) -> Residual:
    """Transposed monomial orderings give the same symmetrized image."""
    orders = [js for js in combinations_with_replacement(range(ctx.n), l)
              if len(set(js)) > 1]
    images = _images(orders + [js[::-1] for js in orders], u, range(ctx.n),
                     sample_many(seed, 4, ctx), ctx)
    return worst_of_arrays(*residual_arrays(*np.split(images, 2)))
