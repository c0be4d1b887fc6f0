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
sum_k a_k (2 beta)^-k S_k, formed in one place, ``_density_sum``.  The six
S_k are cached per (n, ell) on first use, each an exact rational rounded
once to a float, and serve every strength and unit.  Each level's pairs
((2 beta)^-k, S_k) are cached as well, in ``_density``, per (n, ell, hbar,
m, A) and type of each, at most 256 of them.  The sum is exact up to
rounding, so it carries no error estimate and raises only when not finite,
as it is where an integrand coefficient formed here has left the floats.

E2 expands the square of the closed-form superpotential W1 = c0 + c1 r +
c2 r^2 from its three coefficients, in one place, ``_second_order_coef``:
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


@lru_cache(maxsize=256, typed=True)
def _density(n: int, ell: int, hbar: float, mass: float,
             strength: float) -> tuple[tuple[float, float], ...]:
    # the pairs ((2 beta)^-k, S_k), k = 0..5, of one level at one (hbar, m, A):
    # the powers by products, so that one leaving the floats is inf
    spec, units = ScreeningSpec(0.0, strength), UnitSystem(hbar, mass)
    s = 0.5 / coulomb_beta(QuantumState(n, ell), spec, units)
    powers = [1.0]
    for _ in range(5):
        powers.append(powers[-1] * s)
    return tuple(zip(powers, _moments(n, ell)))


def _density_sum(coef, terms) -> float:
    # sum_k a_k (2 beta)^-k S_k over the pairs of _density, the one density
    # sum; ToleranceNotMetError when it is not finite, as it is wherever a
    # coefficient is not
    total = 0.0
    for a, (power, s_k) in zip(coef, terms):
        total += a * power * s_k
    if not isfinite(total):
        raise ToleranceNotMetError("integral is not finite", total, inf)
    return total


def integrate_density(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                      coef) -> float:
    """integral_0^inf chi^2(r) f(r) dr for f the polynomial in r with the
    coefficients ``coef`` (at most six; see the module docstring).  Raises
    ValidationError for more, or for a non-finite one, and ToleranceNotMetError
    when the sum is not finite."""
    if len(coef) > 6 or not all(map(isfinite, coef)):
        raise ValidationError(f"coef must be at most six finite numbers, got {coef!r}")
    return _density_sum(coef, _density(state.n, state.ell, units.hbar, units.mass,
                                       spec.strength))


def _first_order_coef(strength: float, delta: float) -> tuple[float, float, float]:
    # the integrand -(A delta^3/3) r^2 of E1
    a_d3 = strength * delta**3 / 3.0
    return 0.0, 0.0, -a_d3


def first_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
) -> float:
    """E1 as the density integral of -(A delta^3/3) r^2; ToleranceNotMetError
    when it, or the integrand's coefficient, leaves the floats."""
    return _density_sum(_first_order_coef(spec.strength, spec.delta),
                        _density(state.n, state.ell, units.hbar, units.mass, spec.strength))


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
    from numpy.polynomial import Polynomial

    if not (isinstance(w1, Polynomial) and w1.coef.size <= 3
            and w1.domain.tolist() == _DEFAULT_WINDOW == w1.window.tolist()):
        raise ValidationError(
            "w1 must be a Polynomial of degree <= 2 with the default domain and window, "
            f"got {w1!r}")
    c0, c1, c2 = w1.coef.tolist() + [0.0] * (3 - w1.coef.size)
    return _density_sum(_second_order_coef(spec.strength, spec.delta, c0, c1, c2),
                        _density(state.n, state.ell, units.hbar, units.mass, spec.strength))


def _second_order_coef(strength: float, delta: float, c0: float, c1: float,
                       c2: float) -> tuple[float, ...]:
    # the integrand A delta^4/6 r^3 - W1^2 of E2 for W1 = c0 + c1 r + c2 r^2,
    # the one expansion of the square
    sixth = strength * delta**4 / 6.0
    return (-c0 * c0, -2.0 * c0 * c1, -(c1 * c1 + 2.0 * c0 * c2), sixth - 2.0 * c1 * c2,
            -c2 * c2)
