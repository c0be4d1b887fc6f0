"""Numeric perturbation integrals over the Coulomb basis.

This is the internal cross-check for the closed forms: the first- and
second-order corrections are the density-weighted integrals

    E1 = integral chi^2(r) (-A delta^3/3) r^2 dr
    E2 = integral chi^2(r) [A delta^4/6 r^3 - W1(r)^2] dr

and the first-order superpotential follows from the cumulative integral

    W1(r) = (sqrt(2m)/hbar) chi(r)^-2 *
            integral_0^r chi^2(x) [E1 + A delta^3 x^2 / 3] dx.

Two schemes sit behind one interface: adaptive subdivision on [0, r_max]
(default) and a fixed-node Gauss-Laguerre rule on the exponential weight.

The cumulative W1 construction divides by chi^2 and is therefore only
offered for the node-free ground level; for excited states the caller
passes a closed-form hierarchy superpotential to
:func:`second_order_energy_numeric`.  This module imports none of the
closed-form energies it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np
from scipy.integrate import quad
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
#: Gauss-Laguerre nodes; the error estimate compares with a rule of 32 fewer
_GAUSS_NODES = 150


def _density_without_exp(state: QuantumState, norm: float, r, x):
    # chi^2 exp(x) = norm^2 r^(2 ell + 2) L_n^(2 ell + 1)(x)^2 at x = 2 beta r
    lag = laguerre(state.n, 2 * state.ell + 1, x)
    return norm**2 * r ** (2 * state.ell + 2) * lag**2


def _chi2_factory(state: QuantumState, spec: ScreeningSpec, units: UnitSystem):
    beta = coulomb_beta(state, spec, units)
    norm = coulomb_norm(state, spec, units)

    def chi2(r: float) -> float:
        x = 2.0 * beta * r
        return _density_without_exp(state, norm, r, x) * np.exp(-x)

    return chi2, beta, norm


def _gauss_eval(state, spec, units, f, nodes: int) -> float:
    # substitute x = 2 beta r so exp(-x) becomes the Gauss-Laguerre weight
    beta = coulomb_beta(state, spec, units)
    norm = coulomb_norm(state, spec, units)
    x, w = roots_laguerre(nodes)
    r = x / (2.0 * beta)
    fx = np.array([f(ri) for ri in r], dtype=float)
    return float(np.sum(w * _density_without_exp(state, norm, r, x) * fx) / (2.0 * beta))


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
        chi2, beta, _ = _chi2_factory(state, spec, units)
        r_max = _R_MAX_FACTOR / beta
        integrand = lambda r: chi2(r) * f(r)
        epsrel = max(qspec.rel_tol * 1e-2, 5e-14)
        val, err, *info = quad(integrand, 0.0, r_max, epsabs=0.0, epsrel=epsrel,
                               limit=300, full_output=True)
        if len(info) > 1:  # quad appended a warning message: retry with an absolute floor
            val, err, *info = quad(integrand, 0.0, r_max,
                                   epsabs=max(qspec.rel_tol * abs(val), 1e-300),
                                   epsrel=epsrel, limit=300, full_output=True)
            if len(info) > 1:
                raise ToleranceNotMetError(
                    f"adaptive refinement stalled: {info[1]}", float(val), float(err)
                )
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
    """integral_0^inf chi^2(r) f(r) dr for polynomially bounded f."""
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

    The lower limit 0 picks the solution that is finite at the origin.
    Past the density peak the forward integral is evaluated through its
    vanishing total as minus the tail integral, which preserves relative
    accuracy where chi^2 is tiny.
    """
    if state.n != 0:
        raise ValidationError(
            "chi^2 vanishes at the nodes of excited states; use the closed-form "
            "hierarchy superpotential for n >= 1"
        )
    qspec = qspec or _DEFAULT_SPEC
    e1 = first_order_energy_numeric(state, spec, units, qspec)
    chi2, beta, _ = _chi2_factory(state, spec, units)
    third = spec.strength * spec.delta**3 / 3.0
    pref = sqrt(2.0 * units.mass) / units.hbar
    r_split = 2.0 * (state.ell + 1) / beta
    r_max = _R_MAX_FACTOR / beta
    eps_abs = max(1e-6 * qspec.rel_tol * abs(e1), 1e-300)

    def integrand(x: float) -> float:
        return chi2(x) * (e1 + third * x**2)

    def w1(r: float) -> float:
        if r < 0.0:
            raise ValidationError("radius must be nonnegative")
        if r == 0.0:
            return 0.0
        if r <= r_split:
            val, _ = quad(integrand, 0.0, r, epsabs=eps_abs, epsrel=1e-12, limit=200)
        else:
            tail, _ = quad(integrand, r, r_max, epsabs=eps_abs, epsrel=1e-12, limit=200)
            val = -tail
        return pref * val / chi2(r)

    return w1


def second_order_energy_numeric(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    w1,
    qspec: QuadratureSpec | None = None,
) -> float:
    """E2 as the density integral of A delta^4/6 r^3 - W1(r)^2.

    ``w1`` is the first-order superpotential to square: the numeric one for
    n = 0, or a closed-form hierarchy variant for any n.
    """
    sixth = spec.strength * spec.delta**4 / 6.0
    return integrate_density(
        state, spec, units, lambda r: sixth * r**3 - w1(r) ** 2, qspec
    )

