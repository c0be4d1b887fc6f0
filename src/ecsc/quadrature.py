"""Numeric perturbation integrals over the Coulomb basis.

This is the internal cross-check for the closed forms: the first- and
second-order corrections are the density-weighted integrals

    E1 = integral chi^2(r) (-A delta^3/3) r^2 dr
    E2 = integral chi^2(r) [A delta^4/6 r^3 - W1(r)^2] dr

with W1 a quadratic polynomial, so every integrand is chi^2 times a
polynomial of degree at most 4.  In x = 2 beta r the density has no units,
and its moments

    S_k = integral chi^2(r) (2 beta r)^k dr = <x^k>

are exact rationals (``ecsc.coulomb._moment_fraction``).  An integrand f is
passed as its coefficients a_0, ..., a_5 in r; its integral is
sum_k a_k (2 beta)^-k S_k.  Only the six S_k are cached, each an exact
rational rounded once to a float, per (n, ell) on first use, and they serve
every strength and unit.  The sum is exact up to rounding, so it carries no
error estimate and raises only when not finite.

E2 expands the square of the closed-form superpotential W1 = c0 + c1 r +
c2 r^2 from its three coefficients, in one place, ``_second_order_integral``:
``second_order_energy_numeric`` reads them from the ``Polynomial`` its caller
passes, and ``ecsc.tables.scan_delta`` passes the three floats that
``ecsc.perturbation.superpotential_first`` is built from.  This module
imports none of the closed-form energies it is used to check, nor
``radial_moment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite

from numpy.polynomial import Polynomial

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError
from .coulomb import _moment_fraction, coulomb_beta
from .coulomb import coulomb_norm, laguerre  # noqa: F401  traced here by perfbench/tracing.py


class ToleranceNotMetError(ArithmeticError):
    """A density integral whose sum is not finite: an ArithmeticError, carrying that
    sum as the best estimate and an infinite error estimate, since it has no other."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Names the one density rule, "gauss"; kept for callers that pass it."""

    scheme: str = "gauss"

    def __post_init__(self) -> None:
        if self.scheme != "gauss":
            raise ValidationError(f"scheme must be 'gauss', got {self.scheme!r}")


#: the domain and window of a Polynomial that maps its argument to itself
_DEFAULT_WINDOW = [-1.0, 1.0]


@lru_cache(maxsize=None)
def _moments(n: int, ell: int) -> tuple[float, ...]:
    # S_k = <x^k>, k = 0..5, each exact rational rounded once; the first use
    # of a level sums O(n^2) exact terms: on one Xeon core 65 ms for all 72
    # levels with n <= 8 and ell <= 7, 14 ms at n = 21, 0.5 s at (100, 5)
    return tuple(float(_moment_fraction(n, ell, k)) for k in range(6))


def integrate_density(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                      coef) -> float:
    """integral_0^inf chi^2(r) f(r) dr for f the polynomial in r with the
    coefficients ``coef`` (at most six; see the module docstring).  Raises
    ValidationError for more, or for a non-finite one, and ToleranceNotMetError
    when the sum is not finite."""
    if len(coef) > 6 or not all(map(isfinite, coef)):
        raise ValidationError(f"coef must be at most six finite numbers, got {coef!r}")
    s, power, total = 0.5 / coulomb_beta(state, spec, units), 1.0, 0.0
    # the powers (2 beta)^-k by products, so that one leaving the floats is inf
    for a, s_k in zip(coef, _moments(state.n, state.ell)):
        total += a * power * s_k
        power *= s
    if not isfinite(total):
        raise ToleranceNotMetError("integral is not finite", total, inf)
    return total


def first_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
) -> float:
    """E1 as the density integral of -(A delta^3/3) r^2."""
    a_d3 = spec.strength * spec.delta**3 / 3.0
    return integrate_density(state, spec, units, (0.0, 0.0, -a_d3))


def second_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    w1,
    qspec: QuadratureSpec | None = None,
) -> float:
    """E2 as the density integral of A delta^4/6 r^3 - W1(r)^2.

    ``w1`` is the first-order superpotential to square: a ``Polynomial`` of
    degree <= 2 with the default domain and window, such as
    :func:`ecsc.perturbation.superpotential_first` returns (a closed-form
    hierarchy variant).  The square is expanded from its power-series
    coefficients; any other ``w1`` raises ValidationError.
    ``qspec`` selects nothing: there is one rule.
    """
    if not (isinstance(w1, Polynomial) and w1.coef.size <= 3
            and w1.domain.tolist() == _DEFAULT_WINDOW == w1.window.tolist()):
        raise ValidationError(
            "w1 must be a Polynomial of degree <= 2 with the default domain and window, "
            f"got {w1!r}")
    c0, c1, c2 = w1.coef.tolist() + [0.0] * (3 - w1.coef.size)
    return _second_order_integral(state, spec, units, c0, c1, c2)


def _second_order_integral(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                           c0: float, c1: float, c2: float) -> float:
    # E2 for W1 = c0 + c1 r + c2 r^2: the one expansion of A delta^4/6 r^3 - W1^2
    sixth = spec.strength * spec.delta**4 / 6.0
    return integrate_density(state, spec, units, (
        -c0 * c0, -2.0 * c0 * c1, -(c1 * c1 + 2.0 * c0 * c2), sixth - 2.0 * c1 * c2, -c2 * c2))
