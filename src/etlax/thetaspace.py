"""Symmetric theta functions on the weight space and their module structure.

chi_j is the lattice theta series over the shifted root lattice Lambda_j + Q
(Lambda_j the classical part of the j-th fundamental weight, realized as
integer vectors of coordinate sum j projected to sum zero).  Products of l of
them span the symmetric level-l space; the evaluators check the
quasi-periodicity laws, the rank against the S_n-orbits on P/lQ, invariance
under the difference operators at integer coupling, and that L(l|u) acts as
the l-fold coproduct T (slot m < l at R(u + m hbar)) on symmetrized tensors.

chi_table(P) reads every character at every point of a batch P[..., n] as
one array X[..., j]; a basis member is a product of its columns, the row of
its multiset in E = character_basis(l, n), so basis_table(E, P) is one
gather of X and a point set is read once for every member.  The characters come from the one theta
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
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .context import ModularContext, read_only
from .belavin import build_r
from .opalg import DifferenceOperator, apply_op, exp_function
from .stream import Stream
from .theta import (Residual, _series, _table, pivoted_qr, relative,
                    residual_pair, theta_table, worst_of_arrays)
from .transfer import l_op, m_closed
from .weights import canonical, sample_generic, sample_many, subseeds


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


@functools.lru_cache(maxsize=32)
def character_basis(l: int, n: int) -> np.ndarray:
    """E[m, l]: the multisets 0 <= j_1 <= ... <= j_l <= n-1 of the basis
    members chi_{j_1} ... chi_{j_l}, in combinations_with_replacement order
    (read-only, as every call shares it)."""
    return read_only(np.array(list(combinations_with_replacement(range(n), l)),
                              dtype=int))[0]


def basis_table(E, P, ctx: ModularContext) -> np.ndarray:
    """[..., m] = prod_k chi_{E[m, k]} at every point of P[..., n], one
    chi_table; a single row E[m] gives that member alone, [...]."""
    # the factors are multiplied left to right, so that a point's value
    # does not depend on the batch (np.prod rounds one row apart from the
    # rows of a longer batch).  The gather lays the point axes innermost in
    # memory; the product is a C-order copy, so a fit's matrix products
    # read contiguous rows (np.matmul's rounding depends on the layout)
    factors = chi_table(P, ctx)[..., E]
    out = factors[..., 0].copy()
    for k in range(1, factors.shape[-1]):
        out *= factors[..., k]
    return out


def orbit_count(n: int, l: int) -> int:
    """The S_n-orbits on P/lQ (P = Z^n / Z(1, ..., 1), Q the sum-zero vectors),
    the dimension of the symmetric level-l space, counted on the lattice: v
    lies in the class (x mod l, sum(x // l) mod n), x = v[:-1] - v[-1], and
    (r_0 + l a, r_1, ..., r_{n-2}, 0), r_k < l, a < n, are all the classes."""
    def key(v):
        x = [c - v[-1] for c in v[:-1]]
        return tuple(c % l for c in x), sum(c // l for c in x) % n
    return len({frozenset(map(key, permutations((r[0] + l * a, *r[1:], 0))))
                for r in product(range(l), repeat=n - 1) for a in range(n)})


def verify_chi_quasiperiodicity(l: int, ctx: ModularContext, seed: int = 0,
                                samples: int = 10) -> Residual:
    """Both level-l laws on random basis products and random small roots:
    each sample's member, its column of basis_table, at the sample, shifted
    by its root and by tau times it."""
    n = ctx.n
    rng = Stream(seed)
    E = character_basis(l, n)
    P = sample_many(seed, samples, ctx)
    members, roots = np.zeros(samples, dtype=int), np.zeros((samples, n), int)
    for s in range(samples):
        members[s] = int(rng.integers(0, len(E)))
        i = int(rng.integers(0, n))
        roots[s, i], roots[s, (i + 1 + int(rng.integers(0, n - 1))) % n] = 1, -1
    base, shifted_1, shifted_tau = (
        basis_table(E, Q, ctx)[np.arange(samples), members] for Q in (
            P, canonical(P + 1.0 * roots), canonical(P + ctx.tau * roots)))
    pairing = np.sum(P * roots, axis=-1)                # <lambda, alpha>
    factor = np.exp(-2j * np.pi * l * (pairing + 2.0 * ctx.tau / 2.0))
    return residual_pair(np.stack([shifted_1, shifted_tau], axis=-1),
                         np.stack([base, factor * base], axis=-1))


def gram_rank(l: int, points, ctx: ModularContext) -> int:
    """Numerical rank of the basis evaluation matrix at the given points:
    its leading pivots |R_jj| above 1e-8 |R_11| in the pivoted QR
    (theta.pivoted_qr)."""
    E = character_basis(l, ctx.n)
    if len(points) < 2 * len(E):
        raise ValueError("need at least 2 * dim sample points")
    return int(pivoted_qr(basis_table(E, points, ctx), rtol=1e-8)[0])


def _fit(l: int, op, fn, seeds, ctx: ModularContext):
    """Fit entry e of op applied to the functions fn (points P[..., n] to
    their values [..., m]) in the level-l basis: every function of entry e
    is expanded by least squares at the 3 dim points of
    sample_many(seeds[e]), and its residual taken, in relative sup norm, at
    the dim + 4 held-out points of sample_many(seeds[e] + 77).  The points
    of every entry are sampled in one call and read in one basis table, op
    is applied once, to every function at the points of every entry, and
    every function of every entry is fitted by one pivoted_qr, its pivots
    kept above 1e-10 |R_11|.

    Returns the coefficients [e, m, :] and the worst held-out Residual,
    taken entry by entry, function by function.
    """
    E, entries = character_basis(l, ctx.n), len(seeds)
    k, size = 3 * len(E), 4 * len(E) + 4        # fit points, all points
    P = sample_generic([s for seed in seeds for s in subseeds(seed, k)
                        + subseeds(seed + 77, size - k)], ctx)
    table = basis_table(E, P.reshape(entries, size, ctx.n), ctx)
    values = apply_op(op, fn, P, ctx)                   # [e size, ..., m]
    values = values.reshape(entries, size, -1, values.shape[-1])
    if values.shape[2] != entries:
        raise ValueError(f"{values.shape[2]} operator entries, "
                         f"{entries} seeds")
    own = values[np.arange(entries), :, np.arange(entries)]   # [e, size, m]
    fit = pivoted_qr(table[:, :k], own[:, :k], rtol=1e-10)[1]  # [e, member, m]
    held = own[:, k:]
    ab = np.max(np.abs(table[:, k:] @ fit - held), axis=1)
    return fit.swapaxes(1, 2), worst_of_arrays(
        *relative(ab, np.max(np.abs(held), axis=1)))


def fit_action(l: int, op, ctx: ModularContext, seeds):
    """Expand op applied to every basis function back in the basis: op a
    DifferenceOperator of shape () (one entry) or (size, size) (size^2
    entries, row-major), entry e fitted at the points of seeds[e].

    Returns (coefficients [e, m, :], worst held-out Residual).
    """
    return _fit(l, op, functools.partial(
        basis_table, character_basis(l, ctx.n), ctx=ctx), seeds, ctx)


def negative_control(l: int, op: DifferenceOperator, ctx: ModularContext,
                     seed: int = 0) -> Residual:
    """Fit residual for op applied to a generic non-theta exponential."""
    rng = Stream(seed)
    vec = rng.uniform(-1, 1, size=ctx.n) + 0.1 * rng.uniform(-1, 1, size=ctx.n)
    vec = vec - vec.mean() + 0.37   # generic: not in the dual lattice
    control = exp_function(vec)
    return _fit(l, op, lambda P: control(P)[..., None], [seed], ctx)[1]


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
    P = sample_many(seed, samples, ctx)
    applied = apply_op(m1, functools.partial(
        basis_table, character_basis(1, n), ctx=ctx), P, ctx)    # [s, m]
    return {"eigen": residual_pair(applied, eigs[0] * chi_table(P, ctx)),
            "shared": worst_of_arrays(*relative(
                [abs(e - eigs[0]) for e in eigs], abs(eigs[0])))}


def _coproduct(l: int, u: complex, ctx: ModularContext) -> np.ndarray:
    """The l-fold R-matrix coproduct as T[i, J, i', J'], J and J' row-major
    over [n]^l: the coefficient of e^J' with boundary indices (i, i') when
    the auxiliary line crosses e^J = e^{j_0} x ... x e^{j_(l-1)}, slot m
    carrying R(u + m hbar), a_0 = i and a_l = i':

        T[i, J, i', J'] = sum_a prod_m R(u + m hbar)^{a_m j_m}_{a_(m+1) j'_m}.

    One build_r reads the l R-matrices, and the line is contracted slot by
    slot, each product formed left to right."""
    n = ctx.n
    rs = build_r([u + m * ctx.hbar for m in range(l)], ctx)
    T = rs[0]
    for r in rs[1:]:
        width = T.shape[1] * n
        T = np.einsum("iJaK,ajbk->iJjbKk", T, r).reshape(n, width, n, width)
    return T


def _images(monomials, u: complex, labels, P, ctx: ModularContext):
    """[J, i, i', s] = sum_J' T[i, J, i', J'] prod_m chi_{labels[j'_m]}(P[s])
    for the monomials J of one level: their coproduct images read through
    the character labels, from one T and one chi_table."""
    n, l = ctx.n, monomials.shape[1]
    rows = np.ravel_multi_index(monomials.T, (n,) * l)
    Y = basis_table(np.asarray(labels)[list(product(range(n), repeat=l))], P,
                    ctx)
    return np.einsum("iJaK,sK->Jias", _coproduct(l, u, ctx)[:, rows], Y)


def verify_module_iso(l: int, u: complex, ctx: ModularContext, seed: int,
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
    E = character_basis(l, n)
    P = sample_many(seed, samples, ctx)
    gamma = [gamma_index(j, n) for j in range(n)]
    applied = apply_op(lop, functools.partial(
        basis_table, np.array(gamma)[E], ctx=ctx), P, ctx)   # [s, i, j, m]
    return residual_pair(_images(E, u, gamma, P, ctx),
                         norm * applied.transpose(3, 1, 2, 0))


def verify_symmetrized_ordering(l: int, u: complex, ctx: ModularContext,
                                seed: int) -> Residual:
    """Transposed monomial orderings give the same symmetrized image."""
    E = character_basis(l, ctx.n)
    orders = E[E[:, 0] != E[:, -1]]             # not one index l times
    images = _images(np.concatenate([orders, orders[:, ::-1]]), u,
                     range(ctx.n), sample_many(seed, 4, ctx), ctx)
    return residual_pair(*np.split(images, 2))
