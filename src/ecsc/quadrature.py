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

An integrand f is passed as its coefficients a_0, ..., a_5 in r, and a rule
with x nodes x_i and chi^2 dr weights w_i gives sum_k a_k (2 beta)^-k S_k,
S_k = sum_i w_i x_i^k.  Each level's (n + 3)- and (n + 4)-point rules, whose
constant factor ratio (2 ell + 2)! is one exact rational that stays finite
at high ell, and their moments S_k are built once per (n, ell), on first use,
and serve every strength and unit.  The (n + 4)-point sum is accepted when it
agrees with the (n + 3)-point one to 1e-10 of the integral, or to 64 eps times
sum_k |a_k (2 beta)^-k| S_k (formed only when the first test fails), so that
integrands cancelling to near zero are accepted in every unit of length.  The
rules are exact for deg f <= 5 and so differ by rounding alone.

E2 expands the square of the closed-form superpotential its caller passes.
This module imports none of the closed-form energies or exact moments it is
used to check.
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
    """The rules disagree beyond rounding, or a sum is not finite; carries the best estimate."""

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


#: the two rules agree to _REL_TOL of the integral or to _FLOOR sum_k |a_k (2 beta)^-k| S_k
_REL_TOL, _FLOOR = 1e-10, 64.0 * np.finfo(float).eps
#: the domain and window of a Polynomial that maps its argument to itself
_DEFAULT_WINDOW = [-1.0, 1.0]


@lru_cache(maxsize=None)
def _density_rule(n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only x nodes of the (n + 3)- and (n + 4)-point rules, concatenated,
    # and chi^2 dr times the weights there: the eigenvalues x and eigenvectors
    # v of the Jacobi matrix of L^(alpha) give the weights (alpha)! v[0]^2
    alpha = 2 * ell + 2
    mass = float(_norm_ratio(n, ell) * factorial(alpha))
    nodes, weights = [], []
    for m in (n + 3, n + 4):
        k = np.arange(1.0, m)
        x, v = np.linalg.eigh(np.diag(2.0 * np.arange(m) + 1.0 + alpha)
                              + np.diag(np.sqrt(k * (k + alpha)), -1))
        nodes.append(x)
        weights.append(mass * v[0] ** 2 * laguerre(n, 2 * ell + 1, x) ** 2)
    x, density = np.concatenate(nodes), np.concatenate(weights)
    x.setflags(write=False)
    density.setflags(write=False)
    return x, density


@lru_cache(maxsize=None)
def _rule_moments(n: int, ell: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # S_k = sum_i w_i x_i^k, k = 0..5, of the (n + 3)- and the (n + 4)-point rule
    x, density = _density_rule(n, ell)
    sums = np.add.reduceat(density[:, None] * x[:, None] ** np.arange(6), (0, n + 3))
    return tuple(tuple(row) for row in sums.tolist())


def integrate_density_with_error(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                                 coef) -> tuple[float, float]:
    """integral_0^inf chi^2(r) f(r) dr and its error estimate, the difference
    of the (n + 4)- and (n + 3)-point rules, for f the polynomial in r with the
    coefficients ``coef`` (at most six; see the module docstring).  Raises
    ValidationError for more, or for a non-finite one, and ToleranceNotMetError
    when a sum is not finite or the rules disagree beyond rounding."""
    if len(coef) > 6 or not all(map(isfinite, coef)):
        raise ValidationError(f"coef must be at most six finite numbers, got {coef!r}")
    s, power, coarse, fine = 0.5 / coulomb_beta(state, spec, units), 1.0, 0.0, 0.0
    coarse_moments, fine_moments = _rule_moments(state.n, state.ell)
    # the powers (2 beta)^-k by products, so that one leaving the floats is inf
    for a, coarse_k, fine_k in zip(coef, coarse_moments, fine_moments):
        term, power = a * power, power * s
        coarse += term * coarse_k
        fine += term * fine_k
    if not (isfinite(coarse) and isfinite(fine)):
        raise ToleranceNotMetError("integral is not finite", fine, inf)
    err = abs(fine - coarse)
    if err > _REL_TOL * abs(fine) and err > _FLOOR * sum(
            abs(a) * s**k * fine_k for k, (a, fine_k) in enumerate(zip(coef, fine_moments))):
        m = state.n + 3
        raise ToleranceNotMetError(
            f"the {m}- and {m + 1}-point rules differ by {err:.3g}, beyond rounding", fine, err)
    return fine, err


def integrate_density(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                      coef) -> float:
    """integral_0^inf chi^2(r) f(r) dr for f the polynomial with coefficients ``coef``:
    the value of :func:`integrate_density_with_error`, which says how it is accepted."""
    return integrate_density_with_error(state, spec, units, coef)[0]


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
    sixth = spec.strength * spec.delta**4 / 6.0
    return integrate_density(state, spec, units, (
        -c0 * c0, -2.0 * c0 * c1, -(c1 * c1 + 2.0 * c0 * c2), sixth - 2.0 * c1 * c2, -c2 * c2))
