"""Shared evaluation context for all elliptic evaluators.

Every evaluator in this package is a pure function of its arguments and a
ModularContext, which fixes the rank n, the modulus tau and the deformation
parameter hbar.  The coupling c is a builder argument, drawn by each suite;
the pass thresholds are the tolerances of the one table suites.SUITES.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

TOL_IDENTITY = 1e-8
"""The singularity floor, not a pass threshold: quotients of theta values
hold only off the resonant points theta(lambda_ij) = 0.  It sets the
sampling guard (x10); on theta_scale, through theta.singular, the
face-weight, dual-intertwiner and ltilde denominators and fay_sides'
singular samples; the lattice distance of hbar (x1) and of a weierstrass_p
point (x10); and the Vandermonde "both vanish" floor (times the Hadamard
bound).  Each reads it as context.TOL_IDENTITY: one patch reaches them all."""


class ContextError(ValueError):
    """Invalid context parameters (wrong half-plane, resonant hbar, ...)."""


class SingularParameterError(ArithmeticError):
    """An evaluation hit a zero of a required denominator."""


class SamplingError(RuntimeError):
    """Generic-point sampling exhausted its resampling budget."""


def read_only(*arrays) -> tuple:
    """The arrays of a cached plan, marked read-only because every caller
    shares them (a None entry is skipped)."""
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return arrays


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest point of Z + Z*tau."""
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    a0, b0 = round(a), round(b)
    return min(abs(z - ((a0 + da) + (b0 + db) * tau))
               for da in (-1, 0, 1) for db in (-1, 0, 1))


@dataclasses.dataclass(frozen=True)
class ModularContext:
    """Global parameters shared by every evaluator.

    n           rank (the operators live on the sl_n weight space), n >= 2
    tau         modulus, Im tau > 0, with exp(pi Im tau) a double
    hbar        deformation parameter, kept off the period lattice
    """

    n: int
    tau: complex
    hbar: complex
    _cache: dict = dataclasses.field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ContextError(f"rank n must be >= 2, got {self.n}")
        if complex(self.tau).imag <= 0:
            raise ContextError(f"Im tau must be positive, got tau={self.tau}")
        # theta(u + tau) is theta(u) times about exp(pi Im tau): OverflowError
        # where that leaves the double range, before a theta table overflows
        math.exp(math.pi * complex(self.tau).imag)
        if lattice_distance(complex(self.hbar), complex(self.tau)) <= TOL_IDENTITY:
            raise ContextError(f"hbar={self.hbar} sits on the period lattice Z + Z*tau")

    @property
    def p(self) -> complex:
        """Nome p = exp(2 pi i tau)."""
        return cmath.exp(2j * cmath.pi * self.tau)

    @property
    def q(self) -> complex:
        """q = exp(2 pi i hbar), the multiplicative shift step."""
        return cmath.exp(2j * cmath.pi * self.hbar)

    def cached(self, key, builder):
        """Memoize pure evaluations keyed by exact argument values.

        The one key family is eta (Dedekind eta); theta values, characters,
        intertwiners and the jets of the differential operators are read
        from tables, not memoized.
        """
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def replace(self, **kw) -> "ModularContext":
        """A copy of this context with some fields replaced (fresh cache)."""
        return dataclasses.replace(self, **kw)


DEFAULT_TAU = 0.1 + 0.8j
DEFAULT_HBAR = 0.173 + 0.219j


def default_context(n: int = 2, **kw) -> ModularContext:
    """The generic desk-scale context used by the verification suites."""
    return ModularContext(n, **{"tau": DEFAULT_TAU, "hbar": DEFAULT_HBAR, **kw})
