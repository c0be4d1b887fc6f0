"""Numeric perturbation integrals over the Coulomb basis.

This is the internal cross-check for the closed forms: the first- and
second-order corrections are the density-weighted integrals

    E1 = integral chi^2(r) (-A delta^3/3) r^2 dr
    E2 = integral chi^2(r) [A delta^4/6 r^3 - W1(r)^2] dr

and the first-order superpotential follows from the cumulative integral

    W1(r) = (sqrt(2m)/hbar) chi(r)^-2 *
            integral_0^r chi^2(x) [E1 + A delta^3 x^2 / 3] dx.

Two schemes sit behind one interface.  The default ("adaptive") doubles the
panels of a composite 20-point Gauss-Legendre rule on [0, 40/beta] until two
estimates agree to rel_tol, or to 64 eps times integral |chi^2 f| so that
integrands cancelling to near zero converge; the other ("gauss") is a fixed
Gauss-Laguerre rule on the exponential weight.  Every integrand f maps an
array of radii to an array of values, and is called once per rule.

The cumulative W1 construction divides by chi^2 and is therefore only
offered for the node-free ground level; for excited states the caller
passes a closed-form hierarchy superpotential to
:func:`second_order_energy_numeric`.  This module imports none of the
closed-form energies it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np
from scipy.special import roots_laguerre

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError
from .coulomb import coulomb_beta, coulomb_norm, laguerre


class ToleranceNotMetError(RuntimeError):
    """Quadrature refinement stalled; carries the best estimate found."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme choice and accuracy target for the density integrals."""

    scheme: str = "adaptive"
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.scheme not in ("adaptive", "gauss"):
            raise ValidationError(f"scheme must be 'adaptive' or 'gauss', got {self.scheme!r}")
        if not self.rel_tol > 0.0:
            raise ValidationError("rel_tol must be positive")


_DEFAULT_SPEC = QuadratureSpec()

#: adaptive integrals stop at r = _R_MAX_FACTOR / beta, where chi^2 ~ r^(2 ell + 2) exp(-80)
_R_MAX_FACTOR = 40.0
#: Gauss-Legendre panels double from 4 (the density integrals converge at 8) up to 256
_PANEL_POINTS = 20
_MIN_PANELS, _MAX_PANELS = 4, 256
#: Gauss-Laguerre nodes; the error estimate compares with a rule of 32 fewer
_GAUSS_NODES = 150


@lru_cache(maxsize=None)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    # composite Gauss-Legendre nodes and weights on [0, 1] split into equal panels
    t, w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    left = np.arange(panels)[:, None] / panels
    return (left + (t + 1.0) / (2.0 * panels)).ravel(), np.tile(w / (2.0 * panels), panels)


def _integrate(g, lo, width, epsrel: float):
    """(integral, error estimate) of g over [lo, lo + width]; lo and width may be arrays.

    The panel count doubles until at every point the last two estimates
    differ by at most epsrel times the finer one or 64 eps integral |g|.
    """
    lo, width = np.asarray(lo, dtype=float)[..., None], np.asarray(width, dtype=float)[..., None]
    coarse, panels = None, _MIN_PANELS
    while True:
        t, w = _panel_rule(panels)
        terms = g(lo + width * t) * (width * w)
        fine = terms.sum(axis=-1)
        if not np.isfinite(fine).all():
            raise ToleranceNotMetError("integral is not finite", fine, np.inf)
        if coarse is not None:
            err = np.abs(fine - coarse)
            floor = 64.0 * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
            if (err <= np.maximum(epsrel * np.abs(fine), floor)).all():
                return fine, err
            if panels >= _MAX_PANELS:
                raise ToleranceNotMetError(f"panel doubling stalled at {panels} panels", fine, err)
        coarse, panels = fine, 2 * panels


def _density_without_exp(state: QuantumState, norm: float, r, x):
    # chi^2 exp(x) = norm^2 r^(2 ell + 2) L_n^(2 ell + 1)(x)^2 at x = 2 beta r
    lag = laguerre(state.n, 2 * state.ell + 1, x)
    return norm**2 * r ** (2 * state.ell + 2) * lag**2


def _chi2_factory(state: QuantumState, spec: ScreeningSpec, units: UnitSystem):
    beta = coulomb_beta(state, spec, units)
    norm = coulomb_norm(state, spec, units)

    def chi2(r):
        x = 2.0 * beta * r
        return _density_without_exp(state, norm, r, x) * np.exp(-x)

    return chi2, beta


_laguerre_rule = lru_cache(maxsize=None)(roots_laguerre)


def _gauss_eval(state, spec, units, f, nodes: int) -> float:
    # substitute x = 2 beta r so exp(-x) becomes the Gauss-Laguerre weight
    beta = coulomb_beta(state, spec, units)
    norm = coulomb_norm(state, spec, units)
    x, w = _laguerre_rule(nodes)
    r = x / (2.0 * beta)
    return float(np.sum(w * _density_without_exp(state, norm, r, x) * f(r)) / (2.0 * beta))


def integrate_density_with_error(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
    qspec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """integral chi^2 f dr together with the scheme's error estimate."""
    qspec = qspec or _DEFAULT_SPEC
    if qspec.scheme == "gauss":
        val = _gauss_eval(state, spec, units, f, _GAUSS_NODES)
        err = abs(val - _gauss_eval(state, spec, units, f, _GAUSS_NODES - 32))
    else:
        chi2, beta = _chi2_factory(state, spec, units)
        val, err = _integrate(lambda r: chi2(r) * f(r), 0.0, _R_MAX_FACTOR / beta, qspec.rel_tol)
        val, err = float(val), float(err)
    if not (isfinite(val) and isfinite(err)):
        raise ToleranceNotMetError(
            f"integral is not finite: value {val}, error estimate {err}", val, err
        )
    return val, err


def integrate_density(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
    qspec: QuadratureSpec | None = None,
) -> float:
    """integral_0^inf chi^2(r) f(r) dr for polynomially bounded f on arrays of radii.

    The adaptive scheme doubles panels on [0, 40/beta] down to rel_tol or the
    roundoff floor (see the module docstring).
    """
    qspec = qspec or _DEFAULT_SPEC
    val, err = integrate_density_with_error(state, spec, units, f, qspec)
    if err > max(qspec.rel_tol * abs(val), 1e-12):
        raise ToleranceNotMetError(
            f"error estimate {err:.2e} exceeds tolerance for value {val:.6e}", val, err
        )
    return val


def first_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    qspec: QuadratureSpec | None = None,
) -> float:
    """E1 as the density integral of -(A delta^3/3) r^2."""
    a_d3 = spec.strength * spec.delta**3 / 3.0
    return integrate_density(state, spec, units, lambda r: -a_d3 * r**2, qspec)


def superpotential_first_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    qspec: QuadratureSpec | None = None,
):
    """Cumulative-integral W1(r) for the node-free ground level (n = 0).

    W1 maps r >= 0, a float or an array, to the same.  The lower limit 0
    picks the solution that is finite at the origin.  Past the density peak
    the forward integral is evaluated through its vanishing total as minus
    the tail integral over [r, r + 40/beta], which preserves relative
    accuracy where chi^2 is tiny.  Both use the adaptive panel doubling.
    """
    if state.n != 0:
        raise ValidationError(
            "chi^2 vanishes at the nodes of excited states; use the closed-form "
            "hierarchy superpotential for n >= 1"
        )
    qspec = qspec or _DEFAULT_SPEC
    e1 = first_order_energy_numeric(state, spec, units, qspec)
    chi2, beta = _chi2_factory(state, spec, units)
    third = spec.strength * spec.delta**3 / 3.0
    pref = sqrt(2.0 * units.mass) / units.hbar
    r_split = 2.0 * (state.ell + 1) / beta
    integrand = lambda x: chi2(x) * (e1 + third * x**2)

    def w1(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise ValidationError("radius must be nonnegative")
        tail = arr > r_split
        val, _ = _integrate(integrand, np.where(tail, arr, 0.0),
                            np.where(tail, _R_MAX_FACTOR / beta, arr), qspec.rel_tol)
        # the integral over [0, 0] is exactly 0, so any nonzero divisor serves at r = 0
        out = pref * np.where(tail, -val, val) / chi2(np.where(arr > 0.0, arr, 1.0))
        return out if out.ndim else float(out)

    return w1


def second_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    w1,
    qspec: QuadratureSpec | None = None,
) -> float:
    """E2 as the density integral of A delta^4/6 r^3 - W1(r)^2.

    ``w1`` is the first-order superpotential to square (on arrays): the
    numeric one for n = 0, or a closed-form hierarchy variant for any n.
    """
    sixth = spec.strength * spec.delta**4 / 6.0
    return integrate_density(
        state, spec, units, lambda r: sixth * r**3 - w1(r) ** 2, qspec
    )
