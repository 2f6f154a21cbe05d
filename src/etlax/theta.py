"""Elliptic theta functions with characteristics and their identities.

The whole package is built on the level-(m,l) series

    theta_{m,l}(u, tau) = sum_{mu in m + l Z} exp 2 pi i (mu u + mu^2 tau / (2l)),

truncated to |mu - m| <= l * trunc; theta_ml also returns an estimate of the
discarded tail.  Three named specializations appear throughout:

    theta(u)        = theta_{1/2,1}(u + 1/2, tau)        (odd Jacobi theta)
    theta_char_j(u) = theta_{1/2-j/n,1}(u + 1/2, n tau)  (R-matrix characters)
    theta_level_j(u)= theta_{n/2-j,n}(u + 1/2, tau)      (intertwiner entries)

Each is evaluated as a table over a batch of points (theta_table,
theta_char_table, theta_level_table); theta is the table of one point.
Derivatives are always taken term-wise on the series; finite differences
are used only as independent cross-checks in the test suites.

The u-independent part of a series is computed once per (characteristics,
level, tau, trunc, derivative order) and shared: 2 pi i mu, the exponent
2 pi i mu^2 tau/(2l) and the factor (2 pi i mu)^d.  A table is then one exp
over a (rows, points, terms) array per chunk of points and one sum.  The
exponent is kept inside the exp, not split off as a Gaussian factor,
because exp(2 pi i mu u) alone overflows where that factor underflows
(|Im u| of a few periods), and inf * 0 is nan.  The face weights, the
R-matrices, the intertwiners, the determinant identities, the closed-form
M_d coefficients and the sampling guard read all their theta values from
one such table per move or per batch of samples: the determinant
identities (qFay, Fay, Vandermonde) take leading batch axes, one point
set per sample, and a single point set is the batch of one.

Only a window of the terms is summed.  Along k the terms follow a Gaussian
whose peak moves with Im u: the term dk places from the peak is smaller by
exp(-pi Im(tau) l dk^2).  Each (row, point) sums the 2w + 1 terms around
its own peak (the window moved inside [-trunc, trunc] where it sticks
out), and the terms left out are bounded, all together, by 2^-60 times the
largest term kept: below the rounding of the sum.  The half-width w
depends on l, Im tau, trunc and the derivative order alone; at the default
tau and n <= 4 it is 2 to 5, so a table sums 5 to 11 of the 49 terms.
Where Im tau is small, w is trunc and the sum is that of all the terms, bit
for bit.  A value depends on its own row and point only, never on the rest
of the batch.  theta_ml, whose tail estimate is read against an absolute
tolerance, sums every term at a point where the window's left-out terms
are not below 2^-60 in absolute terms.

A check reduces its residuals with worst_of (or worst_of_arrays for a
vectorized check): the largest rel, the first on ties, and a NaN rel wins,
so a check that computed a NaN fails.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .context import ContextError, ModularContext, SingularParameterError

TWO_PI_I = 2j * math.pi
_EPS = 1e-300
_TABLE_CHUNK = 3136    # terms per row of a theta table work array (64 x 49)
# the terms a theta table leaves out sum to at most this times the largest
# term it keeps (_dropped_bound): below the rounding of the kept sum;
# theta_ml sums a window only where what it leaves out is below this itself
_WINDOW_DROP = 2.0 ** -60


@dataclass(frozen=True)
class ThetaValue:
    """A truncated series value together with its tail estimate."""

    value: complex
    tail_bound: float

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True)
class Residual:
    """Relative and absolute residual of an identity check."""

    rel: float
    abs: float

    def __float__(self) -> float:
        return self.rel


def worst_of(residuals) -> Residual:
    """The residual with the largest rel, the first one on ties.

    Starts from Residual(0, 0), so an empty or all-zero input gives that.
    A NaN rel wins over every number (the first NaN is kept), so a check
    that computed a NaN residual fails.  Every item is consumed.
    """
    worst = Residual(0.0, 0.0)
    for r in residuals:
        if r.rel > worst.rel or (r.rel != r.rel and worst.rel == worst.rel):
            worst = r
    return worst


def worst_of_arrays(rel, ab) -> Residual:
    """worst_of over the residuals Residual(rel[k], ab[k]), k running over
    the flattened arrays: the first NaN, else the first maximum if it is
    positive, else Residual(0, 0)."""
    rel = np.asarray(rel, dtype=float).ravel()
    if not rel.size:
        return Residual(0.0, 0.0)
    nan = np.isnan(rel)
    k = int(np.argmax(nan)) if nan[np.argmax(nan)] else int(np.argmax(rel))
    if not (nan[k] or rel[k] > 0.0):
        return Residual(0.0, 0.0)
    return Residual(float(rel[k]), float(np.asarray(ab, dtype=float).ravel()[k]))


def residual_arrays(lhs, rhs) -> tuple:
    """rel and abs of residual_pair at every entry of the arrays lhs, rhs."""
    d = np.abs(lhs - rhs)
    return d / (np.abs(lhs) + np.abs(rhs) + _EPS), d


def residual_pair(lhs: complex, rhs: complex) -> Residual:
    """|lhs-rhs| in absolute and in relative (scale |lhs|+|rhs|) form."""
    d = abs(lhs - rhs)
    return Residual(rel=d / (abs(lhs) + abs(rhs) + _EPS), abs=d)


def _term_magnitude(mu: float, u: complex, tau2l: complex, order: int) -> float:
    ex = -2.0 * math.pi * (mu * u + mu * mu * tau2l).imag
    if ex > 700.0:
        return math.inf
    return math.exp(ex) * (2.0 * math.pi * abs(mu)) ** order if order else math.exp(ex)


class _Series(NamedTuple):
    """Shared constants of one series table (see _series)."""

    tpm: np.ndarray        # 2 pi i mu, (rows, 2 trunc + 1)
    phase: np.ndarray      # 2 pi i mu^2 tau / (2l), same shape
    dfac: np.ndarray | None   # (2 pi i mu)^deriv_order, or None at order 0
    half: int              # half-width w of the summed window of terms
    centre: np.ndarray     # trunc - w + 1/2 - m_r / l, (rows, 1)
    offsets: np.ndarray    # flat index r (2 trunc + 1) of row r, (rows, 1)
    inv_im_tau: float      # 1 / Im tau


def _dropped_bound(a: float, half: int, trunc: int, deriv_order: int) -> float:
    """Bound on the terms a window of half-width `half` leaves out, summed
    over both sides, relative to the reference term it keeps.

    With a = pi Im(tau) l, the term at k has modulus G exp(-a (k - k*)^2)
    |2 pi mu_k|^d, where k* (a real number) is the peak of the Gaussian and
    G its height, and a left-out term lies at |k - k*| >= half + 1/2.  The
    reference is the term at the k nearest k* (at least G exp(-a/4)) when
    d = 0.  When d > 0 it is the one of the two terms around k* with the
    larger |mu|, M: its Gaussian factor is at least exp(-a), and M is at
    least l/2 and at least |mu*| (mu at k*, which lies between the two), so
    a left-out |mu_k| <= |mu*| + l |k - k*| is at most M (1 + 2 |k - k*|).
    A window moved to an end of [-trunc, trunc] leaves out only terms
    farther from k* still.
    """
    lost = 0.25 if deriv_order == 0 else 1.0
    total = 0.0
    for j in range(2 * trunc + 1):
        delta = half + 0.5 + j
        total += 2.0 * math.exp(-a * (delta * delta - lost)) \
            * (1.0 + 2.0 * delta) ** deriv_order
    return total


@functools.lru_cache(maxsize=64)
def _series(ms: tuple, l: int, tau: complex, trunc: int,
            deriv_order: int) -> _Series:
    """Shared constants of the series with characteristics ms at level l.

    Rows follow ms, columns mu = m + l*k for k in [-trunc, trunc]: 2 pi i mu,
    the exponent 2 pi i mu^2 tau/(2l) and (2 pi i mu)^deriv_order (None when
    deriv_order is 0).  The arrays are read-only because callers share them.

    half is the least half-width w whose dropped terms (_dropped_bound) stay
    below _WINDOW_DROP, clamped at trunc; it depends on l, Im tau, trunc and
    deriv_order only.  A small Im tau therefore sums all 2 trunc + 1 terms.
    """
    k = np.arange(-trunc, trunc + 1, dtype=float)
    mu = np.array(ms, dtype=float)[:, None] + l * k
    tpm = TWO_PI_I * mu
    phase = TWO_PI_I * (mu * mu * (tau / (2.0 * l)))
    dfac = tpm ** deriv_order if deriv_order else None
    a = math.pi * tau.imag * l
    half = next((w for w in range(1, trunc)
                 if _dropped_bound(a, w, trunc, deriv_order) <= _WINDOW_DROP),
                trunc)
    centre = (trunc - half + 0.5) - np.array(ms, dtype=float)[:, None] / l
    offsets = np.arange(0, tpm.size, 2 * trunc + 1)[:, None]
    for arr in (tpm, phase, dfac, centre, offsets):
        if arr is not None:
            arr.setflags(write=False)
    return _Series(tpm, phase, dfac, half, centre, offsets, 1.0 / tau.imag)


def _window_starts(series: _Series, args) -> np.ndarray:
    """Column of the first summed term, for every row and point: the window
    [k0 - w, k0 + w] around k0 = floor(-Im(arg)/Im tau - m_r/l + 1/2), the
    term nearest the Gaussian peak, moved inside [-trunc, trunc] where it
    sticks out.  The column is computed from the row's own constants and
    the point alone, as floor(centre - Im(arg)/Im tau) clamped to
    [0, 2 (trunc - w)].

    Clamping before the integer cast also maps a non-finite Im(arg) to an
    end of the range (its value is non-finite anyway).
    """
    pos = series.centre - args.imag * series.inv_im_tau
    np.fmax(pos, 0.5, out=pos)
    np.fmin(pos, series.tpm.shape[1] - 2 * series.half - 0.5, out=pos)
    return pos.astype(np.intp)


def theta_ml(m: float, l: int, u: complex, tau: complex, *,
             trunc: int = 24, deriv_order: int = 0) -> ThetaValue:
    """Truncated theta series with characteristic m at level l, and its tail.

    Sums mu = m + l*k over k in [-trunc, trunc]; deriv_order differentiates
    each term in u.  Raises ContextError off the upper half-plane.  The
    value is the _table of one point; the tail bound is computed here, the
    only place that reads it, and covers everything the value leaves out.
    That bound is read against an absolute tolerance, while the terms a
    window leaves out are small only relative to its largest term.  So the
    window is summed where the terms it leaves out add up to at most
    _WINDOW_DROP in absolute terms (added to the tail), and every term of
    [-trunc, trunc] elsewhere: the tail is then the series beyond trunc
    alone, a geometric bound.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ContextError(f"Im tau must be positive, got {tau}")
    series = _series((m,), l, tau, trunc, deriv_order)
    args = np.array([u], dtype=complex)
    tau2l = tau / (2.0 * l)
    first = int(_window_starts(series, args)[0, 0]) - trunc
    tail = sum(_term_magnitude(m + l * k, u, tau2l, deriv_order)
               for k in range(-trunc, trunc + 1)
               if not first <= k <= first + 2 * series.half)
    if tail > _WINDOW_DROP:
        series, tail = series._replace(half=trunc), 0.0
    value = complex(_table(series, args)[0, 0])
    for sgn in (1, -1):
        mu1 = m + sgn * l * (trunc + 1)
        mu2 = m + sgn * l * (trunc + 2)
        t1 = _term_magnitude(mu1, u, tau2l, deriv_order)
        t2 = _term_magnitude(mu2, u, tau2l, deriv_order)
        ratio = min(t2 / t1 if t1 > 0 else 0.0, 0.95)
        tail += t1 / (1.0 - ratio)
    return ThetaValue(value, tail)


def _table(series: _Series, args) -> np.ndarray:
    """[sum_terms exp(tpm[r] args[k] + phase[r]) dfac[r]]_{r, k}: the series
    values of every row of the _series constants at the points args.

    Each (row, point) sums only the 2w + 1 terms of its own window
    (_window_starts); the terms left out are below _WINDOW_DROP times the
    largest term kept.  A value therefore depends on its own row and point
    alone, never on the rest of the batch, and where w = trunc the sum is
    that of all 2 trunc + 1 terms, in the same order.
    """
    tpm, phase = series.tpm.ravel(), series.phase.ravel()
    dfac = None if series.dfac is None else series.dfac.ravel()
    out = np.empty((len(series.tpm), len(args)), dtype=complex)
    # flat index of the first term of every window, and the offsets of the
    # rest: the terms are gathered from the flattened constants
    first = _window_starts(series, args)
    first += series.offsets
    window = np.arange(2 * series.half + 1)
    # the (rows, points, terms) work array is built and exponentiated in
    # place, at most _TABLE_CHUNK terms per row at a time: a batch of
    # thousands of points then holds one small work array, not three
    # whole-batch ones
    chunk = max(1, _TABLE_CHUNK // len(window))
    for start in range(0, len(args), chunk):
        part = slice(start, start + chunk)
        index = first[:, part, None] + window
        terms = tpm[index]
        np.multiply(terms, args[None, part, None], out=terms)
        terms += phase[index]
        np.exp(terms, out=terms)
        if dfac is not None:
            terms *= dfac[index]
        out[:, part] = terms.sum(axis=-1)
    return out


def theta_table(us, ctx: ModularContext, deriv_order: int = 0) -> np.ndarray:
    """The odd Jacobi theta theta(u) = theta_{1/2,1}(u + 1/2), or its
    deriv_order-th u-derivative, at every point of the array us, same shape.
    """
    if deriv_order < 0 or deriv_order > 8:
        raise ContextError(f"deriv_order must be in 0..8, got {deriv_order}")
    us = np.asarray(us, dtype=complex)
    series = _series((0.5,), 1, complex(ctx.tau), ctx.trunc, deriv_order)
    return _table(series, us.ravel() + 0.5)[0].reshape(us.shape)


def theta_char_table(rows, us, ctx: ModularContext) -> np.ndarray:
    """The table [theta_char_j(u_k)]_{j in rows, k} of R-matrix characters:
    characteristic j mod n at modulus n*tau."""
    n = ctx.n
    series = _series(tuple(0.5 - (j % n) / n for j in rows), 1,
                     complex(n * ctx.tau), ctx.trunc, 0)
    return _table(series, np.asarray(us, dtype=complex) + 0.5)


def theta_level_table(rows, us, ctx: ModularContext) -> np.ndarray:
    """The table [theta_level_j(u_k)]_{j in rows, k} of the level-n thetas
    entering the intertwining vectors, j mod n."""
    n = ctx.n
    series = _series(tuple(n / 2.0 - j % n for j in rows), n,
                     complex(ctx.tau), ctx.trunc, 0)
    return _table(series, np.asarray(us, dtype=complex) + 0.5)


def theta(u: complex, ctx: ModularContext, deriv_order: int = 0) -> complex:
    """theta_table at one point u."""
    return complex(theta_table([u], ctx, deriv_order)[0])


def dedekind_eta(tau: complex, ctx: ModularContext) -> ThetaValue:
    """Dedekind eta p^{1/24} prod (1 - p^m), p = exp(2 pi i tau).

    Memoized in ctx: every intertwiner build divides by i eta(tau).
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ContextError(f"Im tau must be positive, got {tau}")
    return ctx.cached(("eta", tau), lambda: _eta_product(tau, ctx.trunc))


def _eta_product(tau: complex, trunc: int) -> ThetaValue:
    p = cmath.exp(TWO_PI_I * tau)
    ap = abs(p)
    nterms = max(trunc, min(6000, int(math.ceil(-46.0 / math.log10(ap)))))
    value = cmath.exp(TWO_PI_I * tau / 24.0)
    for mm in range(1, nterms + 1):
        value *= 1.0 - p ** mm
    tail = abs(value) * ap ** (nterms + 1) / (1.0 - ap) * 2.0
    return ThetaValue(value, tail)


def dedekind_eta_logsum(tau: complex, ctx: ModularContext) -> complex:
    """Independent log-domain route: exp(2 pi i tau/24 + sum log(1 - p^m))."""
    p = cmath.exp(TWO_PI_I * complex(tau))
    nterms = max(ctx.trunc, min(6000, int(math.ceil(-46.0 / math.log10(abs(p))))))
    acc = TWO_PI_I * tau / 24.0
    for mm in range(1, nterms + 1):
        acc += cmath.log(1.0 - p ** mm)
    return cmath.exp(acc)


def jacobi_theta_triple_product(u: complex, ctx: ModularContext) -> complex:
    """Product form i p^{1/8} (z^{1/2} - z^{-1/2}) prod (1-z p^m)(1-p^m/z)(1-p^m).

    Independent oracle for the series evaluation of theta(u);
    z^{1/2} = exp(pi i u), p^{1/8} = exp(pi i tau / 4).
    """
    p = ctx.p
    zh = cmath.exp(1j * math.pi * u)
    z = zh * zh
    nterms = max(ctx.trunc, min(6000, int(math.ceil(-46.0 / math.log10(abs(p))))))
    value = 1j * cmath.exp(1j * math.pi * ctx.tau / 4.0) * (zh - 1.0 / zh)
    for mm in range(1, nterms + 1):
        pm = p ** mm
        value *= (1.0 - z * pm) * (1.0 - pm / z) * (1.0 - pm)
    return value


def eta_tau_log_derivative(ctx: ModularContext) -> complex:
    """d/dtau log eta(tau) = 2 pi i (1/24 - sum m p^m / (1 - p^m))."""
    p = ctx.p
    nterms = max(ctx.trunc, min(6000, int(math.ceil(-46.0 / math.log10(abs(p))))))
    s = sum(mm * p ** mm / (1.0 - p ** mm) for mm in range(1, nterms + 1))
    return TWO_PI_I * (1.0 / 24.0 - s)


def weierstrass_p(u: complex, ctx: ModularContext) -> complex:
    """Weierstrass p-function via -(log theta)''(u) - 2h, h = -2 pi i d_tau log eta.

    The constant follows from sigma(u) = exp(h u^2) theta(u)/theta'(0):
    -(log sigma)'' = -(log theta)'' - 2h.  Pinned against a direct lattice
    summation oracle (a "+h" constant instead leaves a spurious constant
    term 3h in the Laurent expansion at 0).
    """
    from .context import lattice_distance
    if lattice_distance(complex(u), complex(ctx.tau)) <= 10 * ctx.tol_identity:
        raise SingularParameterError(f"u={u} is on the period lattice (pole)")
    t0 = theta(u, ctx)
    t1 = theta(u, ctx, 1)
    t2 = theta(u, ctx, 2)
    h = -TWO_PI_I * eta_tau_log_derivative(ctx)
    return -(t2 * t0 - t1 * t1) / (t0 * t0) - 2.0 * h


def vandermonde_sign(n: int) -> int:
    """Sign relating det[theta_j(u_k)] to theta(sum u) prod theta(u_k - u_j).

    Numerically pinned to (-1)^(n-1) * (-1)^(n(n-1)/2) for n in 2..4 across
    several tau; the closed determinant formulas below always use ratios of
    two such determinants, where this sign cancels.
    """
    return (-1) ** (n - 1) * (-1) ** (n * (n - 1) // 2)


def vandermonde_product(us, ctx: ModularContext):
    """vandermonde_sign(n) * theta(sum u)/(i eta) * prod_{j<k} theta(u_k-u_j)/(i eta)
    over the n points on the last axis of us, at every sample of its leading
    axes, from one theta_table call."""
    us = np.asarray(us, dtype=complex)
    n = us.shape[-1]
    j, k = np.triu_indices(n, 1)
    ieta = 1j * dedekind_eta(ctx.tau, ctx).value
    table = theta_table(np.concatenate(
        [sum(us[..., [c]] for c in range(n)), us[..., k] - us[..., j]], axis=-1), ctx)
    # the columns are summed in order, and the factors multiplied in
    # Python's complex arithmetic: numpy's complex division rounds otherwise
    out = []
    for values in table.reshape(-1, table.shape[-1]).tolist():
        value = vandermonde_sign(n) * values[0] / ieta
        for factor in values[1:]:
            value *= factor / ieta
        out.append(value)
    return np.array(out, dtype=complex).reshape(us.shape[:-1])[()]


def verify_vandermonde(us, ctx: ModularContext) -> Residual:
    """Determinant identity for the level-n thetas.

    det[theta_j(u_k) / (i eta)]_{j,k=1..n} against vandermonde_product(us),
    at every sample of the leading axes of us (one stacked det); the worst
    over them, or the one sample's own residual when us is one point set.

    Both sides below tol_identity times the Hadamard bound of the matrix
    (the product of its column norms) reports as degenerate residual 0.
    """
    n = ctx.n
    us = np.asarray(us, dtype=complex)
    if us.shape[-1:] != (n,):
        raise ValueError(f"need exactly n={n} points, got {us.shape[-1:]}")
    ieta = 1j * dedekind_eta(ctx.tau, ctx).value
    mat = np.moveaxis((theta_level_table(range(1, n + 1), us.ravel(), ctx) / ieta)
                      .reshape((n,) + us.shape), 0, -2)
    lhs = np.linalg.det(mat)
    rhs = vandermonde_product(us, ctx)
    rel, ab = residual_arrays(lhs, rhs)
    # Hadamard's bound |det| <= prod of column norms sets the scale of the
    # rounding in a determinant that vanishes exactly
    floor = ctx.tol_identity * np.prod(np.linalg.norm(mat, axis=-2), axis=-1)
    rel = np.where((np.abs(lhs) < floor) & (np.abs(rhs) < floor), 0.0, rel)
    if rel.ndim == 0:
        return Residual(float(rel), float(ab))
    return worst_of_arrays(rel, ab)


def qfay_lhs(d: int, u, lambdas, mus, ctx: ModularContext):
    """Determinant side of the hbar-deformed determinant identity.

    u holds one point per sample, lambdas and mus d points per sample on
    their last axis; the d x d x d theta arguments of every sample are read
    from one theta_table call and the d x d matrices take one stacked det.
    """
    hb = ctx.hbar
    u, lam, mu = (np.asarray(x, dtype=complex) for x in (u, lambdas, mus))
    # offset [..., s, r]: hb below the diagonal, u - s hb on it
    off = np.tril(np.full(u.shape + (d, d), hb, dtype=complex), -1)
    off[..., range(d), range(d)] = u[..., None] - np.arange(d) * hb
    # argument [..., s, s', r] = mu_r - lambda_s' + offset[s, r]
    args = (mu[..., None, None, :] - lam[..., None, :, None]) + off[..., :, None, :]
    return np.linalg.det(np.prod(theta_table(args, ctx), axis=-1))


def qfay_rhs(d: int, u, lambdas, mus, ctx: ModularContext):
    """Product side of the hbar-deformed determinant identity, at every
    sample (one theta table for all their factors)."""
    hb = ctx.hbar
    u, lam, mu = (np.asarray(x, dtype=complex) for x in (u, lambdas, mus))
    s, sp = np.triu_indices(d, 1)
    args = np.concatenate([
        (u + sum(mu[..., r] - lam[..., r] for r in range(d)))[..., None],
        u[..., None] - np.arange(1, d) * hb,
        np.stack([lam[..., sp] - lam[..., s], hb + mu[..., s] - mu[..., sp]],
                 axis=-1).reshape(u.shape + (-1,))], axis=-1)
    return np.prod(theta_table(args, ctx), axis=-1)


def verify_qfay(d: int, u, lambdas, mus, ctx: ModularContext) -> Residual:
    """Residual of the deformed determinant identity, worst over the
    samples (one point set or a batch of them, as in qfay_lhs)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return worst_of_arrays(*residual_arrays(qfay_lhs(d, u, lambdas, mus, ctx),
                                            qfay_rhs(d, u, lambdas, mus, ctx)))


def fay_sides(d: int, u, lambdas, mus, ctx: ModularContext):
    """Both sides of the Cauchy-type determinant identity (genus-one
    trisecant) at every sample, from one theta_table call, and where it is
    singular: small[..., 0] marks |theta(u)| < tol_identity and
    small[..., 1] some |theta(mu_s - lambda_s')| < tol_identity, where
    the sides are left out (they read 0).
    """
    tol = ctx.tol_identity
    u, lam, mu = (np.asarray(x, dtype=complex) for x in (u, lambdas, mus))
    cross = (mu[..., :, None] - lam[..., None, :]).reshape(u.shape + (d * d,))
    s, sp = np.triu_indices(d, 1)
    table = theta_table(np.concatenate([
        u[..., None], (u + sum(mu[..., r] - lam[..., r] for r in range(d)))[..., None],
        cross, cross + u[..., None],
        np.stack([mu[..., s] - mu[..., sp], lam[..., sp] - lam[..., s]],
                 axis=-1).reshape(u.shape + (-1,))], axis=-1), ctx)
    # the quotients are formed in Python's complex arithmetic, sample by
    # sample, as in vandermonde_product
    mats, rhs, small = [], [], []
    for values in table.reshape(-1, table.shape[-1]).tolist():
        tu, top, dens = values[0], values[1], values[2:2 + d * d]
        nums, rest = values[2 + d * d:2 + 2 * d * d], values[2 + 2 * d * d:]
        small.append((abs(tu) < tol, any(abs(den) < tol for den in dens)))
        if any(small[-1]):
            tu, top, dens, nums = 1.0, 0j, [1.0] * (d * d), [0j] * (d * d)
        mats.append([num / (den * tu) for num, den in zip(nums, dens)])
        value = top / tu
        for mu_factor, lambda_factor in zip(rest[::2], rest[1::2]):
            value *= mu_factor * lambda_factor
        for den in dens:
            value /= den
        rhs.append(value)
    return (np.linalg.det(np.array(mats, dtype=complex).reshape(u.shape + (d, d))),
            np.array(rhs, dtype=complex).reshape(u.shape)[()],
            np.array(small).reshape(u.shape + (2,)))

