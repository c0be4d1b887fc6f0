"""Numeric perturbation integrals over the Coulomb basis.

This is the internal cross-check for the closed forms: the first- and
second-order corrections are the density-weighted integrals

    E1 = integral chi^2(r) (-A delta^3/3) r^2 dr
    E2 = integral chi^2(r) [A delta^4/6 r^3 - W1(r)^2] dr

with W1 a quadratic polynomial, so every integrand is chi^2 times a
polynomial of degree at most 4.  In x = 2 beta r the density has no units,

    chi^2(r) dr = ratio x^(2 ell + 2) L_n^(2 ell + 1)(x)^2 exp(-x) dx,

with ratio the exact rational part of norm^2, and chi^2 f is x^(2 ell + 2)
exp(-x) times a polynomial of degree 2n + deg f.  The M-point generalized
Gauss-Laguerre rule with alpha = 2 ell + 2 integrates that exactly while
deg f <= 2(M - n) - 1 (Golub and Welsch, Math. Comp. 23 (1969) 221), so
M = n + 3 is exact for deg f <= 5.

An integrand f is passed as its coefficients a_0, ..., a_5 in r.  The
(n + 4)-point rule, one point more than exactness needs, with x nodes x_i and
chi^2 dr weights w_i, gives sum_k a_k (2 beta)^-k S_k, S_k = sum_i w_i x_i^k.
The weights' constant factor ratio (2 ell + 2)! is one exact rational that
stays finite at high ell.  Only the six S_k are cached, per (n, ell) on first
use, and they serve every strength and unit.  The sum is exact up to
rounding, so it carries no error estimate and raises only when not finite.

E2 expands the square of the closed-form superpotential W1 = c0 + c1 r +
c2 r^2 from its three coefficients, in one place, ``_second_order_integral``:
``second_order_energy_numeric`` reads them from the ``Polynomial`` its caller
passes, and ``ecsc.tables.scan_delta`` passes the three floats that
``ecsc.perturbation.superpotential_first`` is built from.  This module
imports none of the closed-form energies or exact moments it is used to
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, inf, isfinite

import numpy as np
from numpy.polynomial import Polynomial

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError
from .coulomb import _norm_ratio, coulomb_beta, laguerre
from .coulomb import coulomb_norm  # noqa: F401  perfbench/tracing.py traces it under this module


class ToleranceNotMetError(RuntimeError):
    """A density integral whose sum is not finite; carries that sum as the best
    estimate, and an infinite error estimate, since the rule has no other."""

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


def _density_rule(n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    # x nodes of the (n + 4)-point rule and chi^2 dr times the weights there:
    # the eigenvalues x and eigenvectors v of the Jacobi matrix of L^(alpha)
    # give the weights (alpha)! v[0]^2
    alpha, m = 2 * ell + 2, n + 4
    k = np.arange(1.0, m)
    x, v = np.linalg.eigh(np.diag(2.0 * np.arange(m) + 1.0 + alpha)
                          + np.diag(np.sqrt(k * (k + alpha)), -1))
    mass = float(_norm_ratio(n, ell) * factorial(alpha))
    return x, mass * v[0] ** 2 * laguerre(n, 2 * ell + 1, x) ** 2


@lru_cache(maxsize=None)
def _rule_moments(n: int, ell: int) -> tuple[float, ...]:
    # S_k = sum_i w_i x_i^k, k = 0..5; reduceat adds the rows one after
    # another, where .sum(axis=0) would group them and move the last bits
    x, density = _density_rule(n, ell)
    return tuple(np.add.reduceat(density[:, None] * x[:, None] ** np.arange(6), (0,))[0].tolist())


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
    for a, s_k in zip(coef, _rule_moments(state.n, state.ell)):
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
