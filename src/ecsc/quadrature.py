"""Numeric perturbation integrals over the Coulomb basis.

This is the internal cross-check for the closed forms: the first- and
second-order corrections are the density-weighted integrals

    E1 = integral chi^2(r) (-A delta^3/3) r^2 dr
    E2 = integral chi^2(r) [A delta^4/6 r^3 - W1(r)^2] dr

and the first-order superpotential follows from the cumulative integral

    W1(r) = (sqrt(2m)/hbar) chi(r)^-2 *
            integral_0^r chi^2(x) [E1 + A delta^3 x^2 / 3] dx.

Both schemes feed rules of rising order to one convergence loop, which
accepts the first rule that agrees with the one before it to 1e-10 of the
integral, or to 64 eps times integral |chi^2 f| so that integrands cancelling
to near zero converge; neither bound depends on the unit of length.  The
default ("adaptive") supplies a composite 20-point Gauss-Legendre rule on
[0, 40/beta] of 4 to 256 panels, and doubles the cutoff, up to 320/beta,
while the outermost panel exceeds that bound; the other ("gauss") supplies
Gauss-Laguerre rules of 118 and 150 nodes in x = 2 beta r.  Every integrand
f maps an array of radii to an array of values, and is called once per rule.

Both schemes' rules are fixed in x (the adaptive panels span [0, 80 2^w]),
where the density has no units:

    chi^2(r) dr = ratio x^(2 ell + 2) L_n^(2 ell + 1)(x)^2 exp(-x) dx,

with ratio the exact rational part of norm^2.  Each rule's nodes and chi^2 dr
weights are therefore built once per (n, ell, rule), on first use, and serve
every strength and unit.  Formed as one exponential, they stay finite where
the separate factors r^(2 ell + 2) and (2 beta)^(2 ell + 3) would overflow or
underflow: at extreme units of length, or at high ell.

The cumulative W1 construction divides by chi^2 and is therefore only
offered for the node-free ground level; for excited states the caller
passes a closed-form hierarchy superpotential to
:func:`second_order_energy_numeric`.  This module imports none of the
closed-form energies it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log, sqrt

import numpy as np

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError
from .coulomb import _norm_ratio, coulomb_beta, laguerre
from .coulomb import coulomb_norm  # noqa: F401  perfbench/tracing.py traces it under this module


class ToleranceNotMetError(RuntimeError):
    """Quadrature refinement stalled; carries the best estimate found."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme choice for the density integrals."""

    scheme: str = "adaptive"

    def __post_init__(self) -> None:
        if self.scheme not in ("adaptive", "gauss"):
            raise ValidationError(f"scheme must be 'adaptive' or 'gauss', got {self.scheme!r}")


_DEFAULT_SPEC = QuadratureSpec()

#: two successive rules agree to _REL_TOL of the integral or to _FLOOR integral |g|
_REL_TOL, _FLOOR = 1e-10, 64.0 * np.finfo(float).eps
#: adaptive integrals stop at r = _R_MAX_FACTOR / beta, where chi^2 ~ r^(2 ell + 2) exp(-80),
#: or at up to 8 times that; at 320 / beta, exp(-2 beta r) = exp(-640) is still normal
_R_MAX_FACTOR, _MAX_WIDENINGS = 40.0, 3
#: Gauss-Legendre panels double from 4 (the density integrals converge at 8) up to 256
_PANEL_POINTS = 20
_PANEL_COUNTS = tuple(4 * 2**k for k in range(7))
#: Gauss-Laguerre node counts; the error estimate compares the two
_GAUSS_NODES = (118, 150)


@lru_cache(maxsize=None)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    # composite Gauss-Legendre nodes and weights on [0, 1] split into equal panels
    t, w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    left = np.arange(panels)[:, None] / panels
    return (left + (t + 1.0) / (2.0 * panels)).ravel(), np.tile(w / (2.0 * panels), panels)


def _panel_rules(lo, width):
    """The panel rules on [lo, lo + width]; lo and width may be arrays."""
    lo, width = np.asarray(lo, dtype=float)[..., None], np.asarray(width, dtype=float)[..., None]
    return ((lo + width * t, width * w) for t, w in map(_panel_rule, _PANEL_COUNTS))


def _converge(g, rules):
    """(integral, error estimate, tolerance, terms) of g by the first of the
    (nodes, weights) ``rules`` that agrees with the one before it at every
    point (nodes may carry leading axes, one integral each): to _REL_TOL
    times its sum or _FLOOR times the sum of its absolute terms."""
    coarse = err = None
    for nodes, weights in rules:
        terms = g(nodes) * weights
        fine = terms.sum(axis=-1)
        if not np.isfinite(fine).all():
            raise ToleranceNotMetError("integral is not finite", fine, np.inf)
        if coarse is not None:
            err = np.abs(fine - coarse)
            tol = np.maximum(_REL_TOL * np.abs(fine), _FLOOR * np.abs(terms).sum(axis=-1))
            if (err <= tol).all():
                return fine, err, tol, terms
        coarse = fine
    raise ToleranceNotMetError(f"no two rules agree up to {terms.shape[-1]} nodes", fine, err)


@lru_cache(maxsize=None)
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Laguerre nodes on [0, inf), the weight exp(-x) folded into the
    # weights: the eigenvalues of the Jacobi matrix of L_n (Golub and Welsch,
    # Math. Comp. 23 (1969) 221), each polished by one Newton step with
    # L_n' = -L^(1)_(n-1); w exp(x) = 1/(x (L^(1)_(n-1)(x) exp(-x/2))^2)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(nodes) + 1.0)
                           + np.diag(np.arange(1.0, nodes), -1))
    x += laguerre(nodes, 0, x) / laguerre(nodes - 1, 1, x)
    return x, 1.0 / (x * (laguerre(nodes - 1, 1, x) * np.exp(-0.5 * x)) ** 2)


@lru_cache(maxsize=None)
def _density_rule(n: int, ell: int, rule) -> tuple[np.ndarray, np.ndarray]:
    # read-only x nodes of ``rule`` (a Gauss-Laguerre node count, or an adaptive
    # (widening, panels) pair on [0, 2 _R_MAX_FACTOR 2^widening]) and chi^2 dr
    # times the weights there (see the module docstring); ln ratio is taken
    # exactly, as the log of its numerator minus that of its denominator
    if isinstance(rule, tuple):
        widening, panels = rule
        span = 2.0 * _R_MAX_FACTOR * 2**widening
        t, w = _panel_rule(panels)
        x, w = span * t, span * w
    else:
        x, w = _laguerre_rule(rule)
    ratio = _norm_ratio(n, ell)
    log_ratio = log(ratio.numerator) - log(ratio.denominator)
    lag = laguerre(n, 2 * ell + 1, x)
    density = np.exp((2 * ell + 2) * np.log(x) - x + log_ratio) * lag**2 * w
    x.setflags(write=False)
    density.setflags(write=False)
    return x, density


def integrate_density_with_error(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
    qspec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """integral_0^inf chi^2(r) f(r) dr and its error estimate, for polynomially
    bounded f on arrays of radii.

    The scheme's rules run through one convergence loop (see the module
    docstring); the estimate is the difference of the last two rules.
    Raises ToleranceNotMetError when no two rules agree, when a sum is not
    finite, or when chi^2 f is not negligible at the widest adaptive
    cutoff, 320/beta.
    """
    beta = coulomb_beta(state, spec, units)

    def rules(keys):
        # each rule's radii and chi^2 dr weights, built once per level and rule
        for key in keys:
            x, density = _density_rule(state.n, state.ell, key)
            yield x / (2.0 * beta), density

    if (qspec or _DEFAULT_SPEC).scheme == "gauss":
        val, err, *_ = _converge(f, rules(_GAUSS_NODES))
        return float(val), float(err)
    for widening in range(_MAX_WIDENINGS + 1):
        val, err, tol, terms = _converge(f, rules((widening, p) for p in _PANEL_COUNTS))
        if np.abs(terms[-_PANEL_POINTS:]).sum() <= tol:  # the outermost panel
            return float(val), float(err)
    cutoff = _R_MAX_FACTOR * 2**widening / beta
    raise ToleranceNotMetError(
        f"integrand is not negligible at the widest cutoff r = {cutoff:.6g}", val, err
    )


def integrate_density(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    f,
    qspec: QuadratureSpec | None = None,
) -> float:
    """integral_0^inf chi^2(r) f(r) dr: the value of
    :func:`integrate_density_with_error`, which says how it is accepted."""
    return integrate_density_with_error(state, spec, units, f, qspec)[0]


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
    e1 = first_order_energy_numeric(state, spec, units, qspec)
    beta = coulomb_beta(state, spec, units)
    third = spec.strength * spec.delta**3 / 3.0
    pref = sqrt(2.0 * units.mass) / units.hbar
    r_split = 2.0 * (state.ell + 1) / beta

    def w1(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise ValidationError("radius must be nonnegative")
        tail = arr > r_split
        # integrate chi^2(x) / chi^2(r) = (x/r)^(2 ell + 2) exp(-2 beta (x - r))
        # (n = 0), finite where chi^2 underflows; r = 0 spans [0, 0], so any
        # divisor serves there
        ref = np.where(arr > 0.0, arr, 1.0)[..., None]
        integrand = lambda x: ((x / ref) ** (2 * state.ell + 2) * np.exp(-2.0 * beta * (x - ref))
                               * (e1 + third * x**2))
        val, *_ = _converge(integrand, _panel_rules(np.where(tail, arr, 0.0),
                                                    np.where(tail, _R_MAX_FACTOR / beta, arr)))
        out = pref * np.where(tail, -val, val)
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
