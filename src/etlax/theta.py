"""Elliptic theta functions with characteristics and their identities.

The whole package is built on the level-(m,l) series

    theta_{m,l}(u, tau) = sum_{mu in m + l Z} exp 2 pi i (mu u + mu^2 tau / (2l)),

summed over the terms around its peak; theta_ml also returns a bound on the
terms it leaves out.  Three named specializations appear throughout:

    theta(u)        = theta_{1/2,1}(u + 1/2, tau)        (odd Jacobi theta)
    theta_char_j(u) = theta_{1/2-j/n,1}(u + 1/2, n tau)  (R-matrix characters)
    theta_level_j(u)= theta_{n/2-j,n}(u + 1/2, tau)      (intertwiner entries)

Each is evaluated as a table over a batch of points (theta_table,
theta_char_table, theta_level_table); theta is the table of one point.
Derivatives are always taken term-wise on the series.  Every limit
hbar -> 0 and every contour integral is one rule, laurent_coefficient: the
trapezoidal Cauchy mean of the values on a circle of nodes.

The constants of a series are computed once per (characteristics, level,
tau, derivative order) and shared: the window half-width and the row
constants.  A table then forms, for the terms of every window, 2 pi i mu,
the exponent 2 pi i mu^2 tau/(2l) and the factor (2 pi i mu)^d, and takes
one exp over a (rows, points, terms) array per chunk of points and one
sum.  The exponent is kept inside the exp, not split off as a Gaussian
factor, because exp(2 pi i mu u) alone overflows where that factor
underflows (|Im u| of a few periods), and inf * 0 is nan.  The face
weights, the R-matrices, the intertwiners, the determinant identities, the
closed-form M_d coefficients and the sampling guard read all their theta
values from one table per product of moves or batch of samples: the
determinant identities (qFay, Fay, Vandermonde) take leading batch axes,
one point set per sample, and a single point set is the batch of one.
They, the intertwiners and the operators of opalg and transfer take every
determinant from det, one batched LU that runs on mpmath arrays too.

Only a window of the terms is summed (the windowed evaluation of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions", Math. Comp. 73 (2004)).  Along k the terms follow a Gaussian
whose peak moves with Im u: the term dk places from the peak is smaller by
exp(-pi Im(tau) l dk^2).  Each (row, point) sums the 2w + 1 terms around
its own peak, wherever that peak lies, and the terms left out are bounded,
all together, by 2^-60 times the largest term kept: below the rounding of
the sum.  The half-width w depends on l, Im tau and the derivative order
alone; at the default tau and n <= 4 it is 2 to 5, and it grows like
1/sqrt(Im tau).  A value depends on its own row and point only, never on
the rest of the batch.  A product over powers x^m (eta, the triple
product, the ground-state weight) stops by the same 2^-60, at the least M
with |x|^M <= 2^-60 (_product_length).

Every rel is relative's quotient, a deviation over its scale + _EPS (no
other module divides by _EPS); two sides compare by residual_pair
(residual_arrays entry by entry), and the worst case is worst_of_arrays
(worst_of over Residuals): the largest rel, the first on ties; a NaN wins.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import context
from .context import (ContextError, ModularContext, SingularParameterError,
                      lattice_distance, read_only)

TWO_PI_I = 2j * math.pi
_EPS = 1e-300
_TABLE_CHUNK = 3136    # terms per row of a theta table work array
# the terms a theta table leaves out sum to at most this times the largest
# term it keeps (_dropped_bound): below the rounding of the kept sum
_WINDOW_DROP = 2.0 ** -60
# the deepest theta_table derivative, as deep as its tail is checked against
# mpmath: D[n-1] D[n] of debiard reads Delta's jet to order 2n - 1
MAX_DERIV_ORDER = 10
# every hbar -> 0 limit reads its expression at the HBAR_NODES nodes of the
# circle |h| = HBAR_RADIUS (circle, laurent_coefficient)
HBAR_RADIUS, HBAR_NODES = 0.003, 12


@dataclass(frozen=True)
class ThetaValue:
    """A windowed series value together with a bound on the terms it leaves
    out."""

    value: complex
    tail_bound: float


@dataclass(frozen=True)
class Residual:
    """Relative and absolute residual of an identity check."""

    rel: float
    abs: float


def worst_of(residuals) -> Residual:
    """worst_of_arrays over the rel and abs of the residuals, in order: the
    first NaN rel, else the first largest rel if it is positive, else
    Residual(0, 0).  Every item is consumed."""
    found = list(residuals)
    return worst_of_arrays([r.rel for r in found], [r.abs for r in found])


def worst_of_arrays(rel, ab) -> Residual:
    """The worst of the residuals Residual(rel[k], ab[k]), k running over
    the flattened arrays: the first NaN rel, so that a check that computed
    a NaN fails, else the first maximum if it is positive, else
    Residual(0, 0), which an empty or all-zero input gives."""
    rel = np.asarray(rel, dtype=float).ravel()
    if not rel.size:
        return Residual(0.0, 0.0)
    nan = np.isnan(rel)
    k = int(np.argmax(nan)) if nan[np.argmax(nan)] else int(np.argmax(rel))
    if not (nan[k] or rel[k] > 0.0):
        return Residual(0.0, 0.0)
    return Residual(float(rel[k]), float(np.asarray(ab, dtype=float).ravel()[k]))


def relative(dev, scale) -> tuple:
    """rel and abs of a check's deviations on its scales, entry by entry
    and broadcast together: dev / (scale + _EPS), the package's one rel."""
    dev = np.asarray(dev, dtype=float)
    return dev / (np.asarray(scale, dtype=float) + _EPS), dev


def residual_arrays(lhs, rhs) -> tuple:
    """relative of |lhs - rhs| to |lhs| + |rhs| at every entry of lhs and
    rhs (scalars, sequences or arrays, broadcast together)."""
    return relative(np.abs(np.subtract(lhs, rhs)), np.abs(lhs) + np.abs(rhs))


def max_relative(lhs, rhs, axis=None) -> Residual:
    """The worst relative of max|lhs - rhs| to max(max|lhs|, max|rhs|), the
    maxima over axis (all of it by default).  np.max, unlike Python's max,
    keeps a NaN, so a NaN entry gives a NaN rel."""
    return worst_of_arrays(*relative(
        np.max(np.abs(lhs - rhs), axis=axis),
        np.maximum(np.max(np.abs(lhs), axis=axis),
                   np.max(np.abs(rhs), axis=axis))))


def residual_pair(lhs, rhs) -> Residual:
    """The worst residual_arrays entry of lhs against rhs: the one
    comparison of two sides, of a scalar pair or of arrays of any shape."""
    return worst_of_arrays(*residual_arrays(lhs, rhs))


class _Series(NamedTuple):
    """Shared constants of one series table (see _series)."""

    ms: np.ndarray         # the characteristics m_r, (rows, 1, 1)
    l: int                 # the level
    tau2l: complex         # tau / (2l)
    deriv_order: int
    half: int              # half-width w of the summed window of terms
    centre: np.ndarray     # 1/2 - m_r / l, (rows, 1)
    inv_im_tau: float      # 1 / Im tau


def _dropped_bound(a: float, half: int, deriv_order: int) -> float:
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
    The bound is summed until its terms stop adding to it: they rise at
    most to one peak and then only fall.
    """
    lost = 0.25 if deriv_order == 0 else 1.0
    total, delta = 0.0, half + 0.5
    while True:
        term = 2.0 * math.exp(-a * (delta * delta - lost)) \
            * (1.0 + 2.0 * delta) ** deriv_order
        if total + term == total:
            return total
        total += term
        delta += 1.0


def _half_width(a: float, deriv_order: int) -> int:
    """The least half-width w >= 1 whose dropped terms (_dropped_bound)
    stay below _WINDOW_DROP.

    The bound falls as w grows, so w is found by doubling steps and then
    bisection, starting where the first left-out term alone (at least
    2 exp(-a ((w + 1/2)^2 - 1/4))) no longer exceeds _WINDOW_DROP: every
    w below that start fails.  That keeps the search to a few dozen bounds
    even where w runs to tens of thousands (Im tau = 1e-8).
    """
    def fits(w):
        return _dropped_bound(a, w, deriv_order) <= _WINDOW_DROP

    lo = max(1, math.floor(math.sqrt(-math.log(_WINDOW_DROP / 2.0) / a + 0.25)
                           - 0.5))
    hi = lo                  # every w below lo fails
    while not fits(hi):
        lo, hi = hi + 1, hi + 2 * (hi - lo + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid + 1, hi)
    return hi


@functools.lru_cache(maxsize=64)
def _series(ms: tuple, l: int, tau: complex, deriv_order: int) -> _Series:
    """Shared constants of the series with characteristics ms at level l.

    Rows follow ms.  half is the window half-width (_half_width); it
    depends on l, Im tau and deriv_order only.  The arrays are read-only
    because callers share them.
    """
    ms = np.array(ms, dtype=float)[:, None, None]
    half = _half_width(math.pi * tau.imag * l, deriv_order)
    centre = 0.5 - ms[:, :, 0] / l
    read_only(ms, centre)
    return _Series(ms, l, tau / (2.0 * l), deriv_order, half, centre,
                   1.0 / tau.imag)


def _window_first(series: _Series, args) -> np.ndarray:
    """k of the first summed term, for every row and point: the window
    [k0 - w, k0 + w] around k0 = floor(1/2 - m_r/l - Im(arg)/Im tau), the
    term nearest the Gaussian peak.  It is a float, so a non-finite Im(arg)
    gives a non-finite k, and a non-finite value, with no integer cast."""
    return np.floor(series.centre - args.imag * series.inv_im_tau) \
        - series.half


def theta_ml(m: float, l: int, u: complex, tau: complex, *,
             deriv_order: int = 0) -> ThetaValue:
    """Theta series with characteristic m at level l, and its tail.

    deriv_order differentiates each term in u.  Raises ContextError off the
    upper half-plane.  The value is the _table of one point.  The tail
    bound, computed here, the only place that reads it, is the window's
    dropped-term bound (_dropped_bound) times the largest term it keeps,
    so it covers every term the value leaves out and is at most
    _WINDOW_DROP times that term.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ContextError(f"Im tau must be positive, got {tau}")
    series = _series((m,), l, tau, deriv_order)
    tail = _dropped_bound(math.pi * tau.imag * l, series.half, deriv_order) \
        * largest_term(m, l, u, tau, deriv_order=deriv_order)
    return ThetaValue(
        complex(_table(series, np.array([u], dtype=complex))[0, 0]), tail)


def largest_term(m: float, l: int, u: complex, tau: complex, *,
                 deriv_order: int = 0) -> float:
    """The modulus of the largest term theta_ml(m, l, u, tau) sums in its
    window: the scale of its tail bound, and of a zero it vanishes at."""
    series = _series((m,), l, complex(tau), deriv_order)
    mu = m + l * (_window_first(series, np.array([u], dtype=complex))[0, 0]
                  + np.arange(2 * series.half + 1))
    return float(np.max(
        np.exp(-2.0 * math.pi * (mu * u + mu * mu * series.tau2l).imag)
        * (2.0 * math.pi * np.abs(mu)) ** deriv_order))


def _table(series: _Series, args) -> np.ndarray:
    """[sum_k exp(2 pi i mu u_p + 2 pi i mu^2 tau/(2l)) (2 pi i mu)^d]_{r, p},
    mu = m_r + l k: the series values of every row of the _series
    constants at the points args.

    Each (row, point) sums only the 2w + 1 terms of its own window
    (_window_first); the terms left out are below _WINDOW_DROP times the
    largest term kept.  A value therefore depends on its own row and point
    alone, never on the rest of the batch.
    """
    out = np.empty((len(series.ms), len(args)), dtype=complex)
    first = _window_first(series, args)
    window = np.arange(2 * series.half + 1, dtype=float)
    # the (rows, points, terms) work arrays are built at most _TABLE_CHUNK
    # terms per row at a time: a batch of thousands of points then holds a
    # few small work arrays, not whole-batch ones
    chunk = max(1, _TABLE_CHUNK // len(window))
    for start in range(0, len(args), chunk):
        part = slice(start, start + chunk)
        mu = first[:, part, None] + window
        mu *= series.l
        mu += series.ms
        # the exponent 2 pi i mu u + 2 pi i mu^2 tau/(2l) in two buffers,
        # each product formed in place where it can be
        phase = np.multiply(mu * mu, series.tau2l)
        phase *= TWO_PI_I
        terms = np.multiply(mu, TWO_PI_I)
        terms *= args[None, part, None]
        terms += phase
        del phase
        np.exp(terms, out=terms)
        if series.deriv_order:
            terms *= (TWO_PI_I * mu) ** series.deriv_order
        out[:, part] = terms.sum(axis=-1)
        del mu, terms           # before the next chunk builds its own
    return out


def theta_table(us, ctx: ModularContext, deriv_order: int = 0) -> np.ndarray:
    """The odd Jacobi theta theta(u) = theta_{1/2,1}(u + 1/2), or its
    deriv_order-th u-derivative, at every point of the array us, same shape.
    """
    if not 0 <= deriv_order <= MAX_DERIV_ORDER:
        raise ContextError(f"deriv_order must be in 0..{MAX_DERIV_ORDER}, "
                           f"got {deriv_order}")
    us = np.asarray(us, dtype=complex)
    series = _series((0.5,), 1, complex(ctx.tau), deriv_order)
    return _table(series, us.ravel() + 0.5)[0].reshape(us.shape)


def theta_scale(ctx: ModularContext) -> float:
    """2|p|^{1/8} = 2 exp(-pi Im tau / 4), p = e^(2 pi i tau): the modulus of
    the leading terms of the theta series, so |theta(u)| / theta_scale ->
    |sin pi u| as p -> 0.  The singularity floors on theta are taken on
    this scale, so that they mean the same at every modulus."""
    return 2.0 * math.exp(-math.pi * ctx.tau.imag / 4.0)


def singular(values, ctx: ModularContext) -> np.ndarray:
    """Where |values| < context.TOL_IDENTITY * theta_scale: the singular ones."""
    return np.abs(values) < context.TOL_IDENTITY * theta_scale(ctx)


def require_regular(values, args, what: str, ctx: ModularContext) -> None:
    """The one guard on theta denominators: SingularParameterError "<what>~0
    at <arg>", arg the entry of args at the first singular value."""
    bad = singular(values, ctx)
    if bad.any():
        raise SingularParameterError(
            f"{what}~0 at {complex(np.asarray(args)[bad][0])}")


def theta_char_table(rows, us, ctx: ModularContext) -> np.ndarray:
    """The table [theta_char_j(u_k)]_{j in rows, k} of R-matrix characters:
    characteristic j mod n at modulus n*tau."""
    n = ctx.n
    series = _series(tuple(0.5 - (j % n) / n for j in rows), 1,
                     complex(n * ctx.tau), 0)
    return _table(series, np.asarray(us, dtype=complex) + 0.5)


def theta_level_table(rows, us, ctx: ModularContext) -> np.ndarray:
    """The table [theta_level_j(u_k)]_{j in rows, k} of the level-n thetas
    entering the intertwining vectors, j mod n."""
    n = ctx.n
    series = _series(tuple(n / 2.0 - j % n for j in rows), n,
                     complex(ctx.tau), 0)
    return _table(series, np.asarray(us, dtype=complex) + 0.5)


def theta(u: complex, ctx: ModularContext, deriv_order: int = 0) -> complex:
    """theta_table at one point u."""
    return complex(theta_table([u], ctx, deriv_order)[0])


def dedekind_eta(ctx: ModularContext) -> complex:
    """Dedekind eta p^{1/24} prod (1 - p^m), p = exp(2 pi i ctx.tau).

    Memoized in ctx: every intertwiner build divides by i eta(tau).
    """
    tau = complex(ctx.tau)
    return ctx.cached(("eta", tau), lambda: _eta_product(tau))


def _product_length(x: complex) -> int:
    """Factors of a product over the powers x^m, |x| < 1 (x is 0 above Im
    tau of about 118): the least M >= 1 with |x|^M <= _WINDOW_DROP."""
    return max(1, math.ceil(math.log2(_WINDOW_DROP)
                            / math.log2(max(abs(x), _WINDOW_DROP))))


def _eta_product(tau: complex) -> complex:
    p = cmath.exp(TWO_PI_I * tau)
    return math.prod((1.0 - p ** mm for mm in range(1, _product_length(p) + 1)),
                     start=cmath.exp(TWO_PI_I * tau / 24.0))


def dedekind_eta_logsum(tau: complex) -> complex:
    """Independent log-domain route: exp(2 pi i tau/24 + sum log(1 - p^m))."""
    p = cmath.exp(TWO_PI_I * complex(tau))
    return cmath.exp(sum((cmath.log(1.0 - p ** mm)
                          for mm in range(1, _product_length(p) + 1)),
                         TWO_PI_I * tau / 24.0))


def jacobi_theta_triple_product(u: complex, ctx: ModularContext) -> complex:
    """Product form i p^{1/8} (z^{1/2} - z^{-1/2}) prod (1-z p^m)(1-p^m/z)(1-p^m).

    Independent oracle for the series evaluation of theta(u);
    z^{1/2} = exp(pi i u), p^{1/8} = exp(pi i tau / 4).
    """
    p = ctx.p
    zh = cmath.exp(1j * math.pi * u)
    z = zh * zh
    return math.prod(
        ((1.0 - z * pm) * (1.0 - pm / z) * (1.0 - pm)
         for pm in (p ** mm for mm in range(1, _product_length(p) + 1))),
        start=1j * cmath.exp(1j * math.pi * ctx.tau / 4.0) * (zh - 1.0 / zh))


def eta_tau_log_derivative(ctx: ModularContext) -> complex:
    """d/dtau log eta(tau) = 2 pi i (1/24 - sum m p^m / (1 - p^m))."""
    p = ctx.p
    s = sum(mm * p ** mm / (1.0 - p ** mm)
            for mm in range(1, _product_length(p) + 1))
    return TWO_PI_I * (1.0 / 24.0 - s)


def weierstrass_p(u, ctx: ModularContext):
    """Weierstrass p-function via -(log theta)''(u) - 2h, h = -2 pi i d_tau log eta,
    at every point of the array u, from one theta table per derivative order.

    The constant follows from sigma(u) = exp(h u^2) theta(u)/theta'(0):
    -(log sigma)'' = -(log theta)'' - 2h.  Pinned against a direct lattice
    summation oracle (a "+h" constant instead leaves a spurious constant
    term 3h in the Laurent expansion at 0).
    """
    us = np.asarray(u, dtype=complex)
    for x in map(complex, us.flat):
        if lattice_distance(x, complex(ctx.tau)) <= 10 * context.TOL_IDENTITY:
            raise SingularParameterError(f"u={x} is on the period lattice (pole)")
    t0, t1, t2 = (theta_table(us, ctx, k) for k in range(3))
    h = -TWO_PI_I * eta_tau_log_derivative(ctx)
    return (-(t2 * t0 - t1 * t1) / (t0 * t0) - 2.0 * h)[()]


def det(matrices) -> np.ndarray:
    """The determinants of matrices[..., k, k] over any leading axes (a
    scalar for one matrix): the signed product of the pivots of Gaussian
    elimination with partial pivoting (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 9), column j's pivot the first row of largest
    modulus at or below row j.  A 1 x 1 matrix returns its entry bit for
    bit, a zero pivot column gives 0, not nan, a matrix rounds alike alone
    and in any batch, and object arrays of mpmath numbers work too."""
    matrices = np.asarray(matrices)
    lead, size = matrices.shape[:-2], matrices.shape[-1]
    # a[i, j] is entry (i, j) of every matrix, one contiguous batch vector
    a = np.moveaxis(matrices.reshape(-1, size, size), 0, -1).copy()
    batch = np.arange(a.shape[-1])
    odd = np.zeros(a.shape[-1], dtype=bool)
    for j in range(size - 1):
        pivots = j + np.argmax(abs(a[j:, j]), axis=0)
        # rows j and pivots[b] of matrix b trade places: a gather, a scatter
        row = a[pivots, j:, batch]
        a[pivots, j:, batch] = a[j, j:].T
        a[j, j:] = row.T
        odd ^= pivots != j
        # a zero pivot heads a zero column: dividing by 1 keeps it zero
        inverse = 1 / np.where(a[j, j] == 0, 1, a[j, j])
        # entry by entry: a row at once would round a lone matrix (its batch
        # axis of length 1 broadcast away) in another kernel than a batch
        for i in range(j + 1, size):
            factor = a[i, j] * inverse
            for col in range(j + 1, size):
                a[i, col] -= factor * a[j, col]
    out = a[0, 0]
    for j in range(1, size):
        out = out * a[j, j]
    return np.where(odd, -out, out).reshape(lead)[()]


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
    axes: one theta_table call, and the factors of every sample multiplied
    along its last axis."""
    us = np.asarray(us, dtype=complex)
    n = us.shape[-1]
    j, k = np.triu_indices(n, 1)
    ieta = 1j * dedekind_eta(ctx)
    table = theta_table(np.concatenate(
        [sum(us[..., [c]] for c in range(n)), us[..., k] - us[..., j]], axis=-1), ctx)
    return vandermonde_sign(n) * np.prod(table / ieta, axis=-1)[()]


def verify_vandermonde(us, ctx: ModularContext) -> Residual:
    """Determinant identity for the level-n thetas.

    det[theta_j(u_k) / (i eta)]_{j,k=1..n} against vandermonde_product(us),
    at every sample of the leading axes of us (one stacked det; one point
    set is the batch of one); the worst over them.  A sample with both
    sides below TOL_IDENTITY times the Hadamard bound of its matrix (the
    product of its column norms) is degenerate: its deviation counts as 0.
    """
    n = ctx.n
    us = np.asarray(us, dtype=complex)
    if us.shape[-1:] != (n,):
        raise ValueError(f"need exactly n={n} points, got {us.shape[-1:]}")
    ieta = 1j * dedekind_eta(ctx)
    mat = np.moveaxis((theta_level_table(range(1, n + 1), us.ravel(), ctx) / ieta)
                      .reshape((n,) + us.shape), 0, -2)
    lhs = det(mat)
    rhs = vandermonde_product(us, ctx)
    # Hadamard's bound |det| <= prod of column norms sets the scale of the
    # rounding in a determinant that vanishes exactly
    floor = context.TOL_IDENTITY * np.prod(np.linalg.norm(mat, axis=-2), axis=-1)
    dev = np.where((np.abs(lhs) < floor) & (np.abs(rhs) < floor), 0.0,
                   np.abs(np.subtract(lhs, rhs)))
    return worst_of_arrays(*relative(dev, np.abs(lhs) + np.abs(rhs)))


def qfay_lhs(d: int, u, lambdas, mus, ctx: ModularContext, hbar=None):
    """Determinant side of the hbar-deformed determinant identity.

    u and hbar (ctx.hbar by default) hold one value per sample, lambdas and
    mus d points per sample on their last axis; one theta_table call reads
    the d x d x d arguments of all samples, and their matrices take one det.
    """
    hb = np.asarray(ctx.hbar if hbar is None else hbar, dtype=complex)[..., None]
    u, lam, mu = (np.asarray(x, dtype=complex) for x in (u, lambdas, mus))
    # offset [..., s, r]: hb below the diagonal, u - s hb on it
    off = np.tril(hb[..., None] * np.ones(u.shape + (d, d)), -1)
    off[..., range(d), range(d)] = u[..., None] - np.arange(d) * hb
    # argument [..., s, s', r] = mu_r - lambda_s' + offset[s, r]
    args = (mu[..., None, None, :] - lam[..., None, :, None]) + off[..., :, None, :]
    return det(np.prod(theta_table(args, ctx), axis=-1))


def circle(radius: float = HBAR_RADIUS, count: int = HBAR_NODES) -> np.ndarray:
    """The nodes r w^j (j < N, w = exp(2 pi i/N)) of laurent_coefficient."""
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def laurent_coefficient(values, nodes, k: int):
    """The order-k Laurent coefficient at 0 of f, from its values f_j =
    values[j] (node axis first) at the nodes of a circle:

        a_k = (1/N) sum_j f_j (r w^j)^(-k),

    the trapezoidal rule on the Cauchy integral (Lyness and Moler, SIAM J.
    Numer. Anal. 4 (1967); Bornemann, Found. Comput. Math. 11 (2011)).  A
    term c h^m of f adds nothing unless m = k + jN, and then c r^(jN): the
    rule is exact on N consecutive powers, and on a disk of analyticity of
    radius R its error falls like (r/R)^N.  Every hbar -> 0 limit reads it
    on circle(); the u-plane contours on circles of their own."""
    return np.tensordot(nodes ** -k, np.asarray(values), 1) / len(nodes)


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


def fay_sides(d: int, u, lambdas, mus, ctx: ModularContext):
    """Both sides of the Cauchy-type determinant identity (genus-one
    trisecant) at every sample, from one theta_table call, and where it is
    singular: small[..., 0] marks a singular theta(u) and small[..., 1]
    some singular theta(mu_s - lambda_s') (theta.singular), where the sides
    are left out (they read 0).  The quotients, the products and the
    stacked det are each one array expression over the batch.
    """
    u, lam, mu = (np.asarray(x, dtype=complex) for x in (u, lambdas, mus))
    cross = (mu[..., :, None] - lam[..., None, :]).reshape(u.shape + (d * d,))
    s, sp = np.triu_indices(d, 1)
    table = theta_table(np.concatenate([
        u[..., None], (u + sum(mu[..., r] - lam[..., r] for r in range(d)))[..., None],
        cross, cross + u[..., None],
        np.stack([mu[..., s] - mu[..., sp], lam[..., sp] - lam[..., s]],
                 axis=-1).reshape(u.shape + (-1,))], axis=-1), ctx)
    tu, top = table[..., 0], table[..., 1]
    dens, nums = table[..., 2:2 + d * d], table[..., 2 + d * d:2 + 2 * d * d]
    small = np.stack([singular(tu, ctx), np.any(singular(dens, ctx), axis=-1)],
                     axis=-1)
    # a singular sample is left out: its sides read 0
    skip = small.any(axis=-1)
    tu, top = np.where(skip, 1.0, tu), np.where(skip, 0.0, top)
    dens = np.where(skip[..., None], 1.0, dens)
    nums = np.where(skip[..., None], 0.0, nums)
    mats = nums / (dens * tu[..., None])
    rhs = top / tu * np.prod(table[..., 2 + 2 * d * d:], axis=-1) \
        / np.prod(dens, axis=-1)
    return det(mats.reshape(u.shape + (d, d))), rhs[()], small

