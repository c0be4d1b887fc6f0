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

Each level's (n + 3)- and (n + 4)-point rules are built once per (n, ell),
on first use, and serve every strength and unit: their x nodes, and as
weights chi^2 dr there, whose constant factor ratio (2 ell + 2)! is formed as
one exact rational, so that it stays finite at high ell.  An integrand f
maps an array of radii to an array of values and is called once, on the
nodes of both rules, and both rules' sums are formed in one pass.  The
(n + 4)-point sum is accepted when it agrees with the (n + 3)-point one to
1e-10 of the integral, or to 64 eps times integral |chi^2 f| so that
integrands cancelling to near zero are accepted; neither bound depends on the
unit of length, and the second, a sum over the nodes, is formed only when the
first fails.  A disagreement means that f is not a polynomial of degree <= 5.

E2 squares the closed-form superpotential its caller passes to
:func:`second_order_energy_numeric`, read from its power-series coefficients
by Horner's rule.  This module imports none of the closed-form energies or
exact moments it is used to check.
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
    """The two rules disagree, or a sum is not finite; carries the best estimate."""

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


#: the two rules agree to _REL_TOL of the integral or to _FLOOR integral |chi^2 f|
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


def integrate_density_with_error(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
) -> tuple[float, float]:
    """integral_0^inf chi^2(r) f(r) dr and its error estimate, for f a
    polynomial of degree <= 5 on arrays of radii.

    The estimate is the difference of the (n + 4)- and (n + 3)-point rules
    (see the module docstring).  Raises ToleranceNotMetError when they
    disagree, which they do for any other f, or when a sum is not finite.
    """
    x, density = _density_rule(state.n, state.ell)
    terms = f(x / (2.0 * coulomb_beta(state, spec, units))) * density
    m = state.n + 3  # the nodes of the m-point rule come first
    coarse, fine = np.add.reduceat(terms, (0, m)).tolist()
    if not (isfinite(coarse) and isfinite(fine)):
        raise ToleranceNotMetError("integral is not finite", fine, inf)
    err = abs(fine - coarse)
    # the roundoff floor is summed only when the relative test fails
    if err > _REL_TOL * abs(fine) and err > _FLOOR * np.abs(terms[m:]).sum():
        raise ToleranceNotMetError(
            f"the {m}- and {m + 1}-point rules differ by {err:.3g}: "
            "the integrand is not a polynomial of degree <= 5", fine, err
        )
    return fine, err


def integrate_density(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
) -> float:
    """integral_0^inf chi^2(r) f(r) dr: the value of
    :func:`integrate_density_with_error`, which says how it is accepted."""
    return integrate_density_with_error(state, spec, units, f)[0]


def first_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
) -> float:
    """E1 as the density integral of -(A delta^3/3) r^2."""
    a_d3 = spec.strength * spec.delta**3 / 3.0
    return integrate_density(state, spec, units, lambda r: -a_d3 * r**2)


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
    hierarchy variant).  It is evaluated on the nodes by Horner's rule from
    its power-series coefficients; any other ``w1`` raises ValidationError.
    ``qspec`` selects nothing: there is one rule.
    """
    if not (isinstance(w1, Polynomial) and w1.coef.size <= 3
            and w1.domain.tolist() == _DEFAULT_WINDOW == w1.window.tolist()):
        raise ValidationError(
            "w1 must be a Polynomial of degree <= 2 with the default domain and window, "
            f"got {w1!r}")
    c0, c1, c2 = w1.coef.tolist() + [0.0] * (3 - w1.coef.size)
    sixth = spec.strength * spec.delta**4 / 6.0
    return integrate_density(
        state, spec, units, lambda r: sixth * r**3 - (c0 + (c1 + c2 * r) * r) ** 2)
