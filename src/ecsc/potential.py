"""The exponential-cosine-screened Coulomb potential and its small-delta expansion.

The potential is

    V(r) = -(A/r) exp(-delta r) cos(g delta r)

with strength A > 0 and screening parameter delta >= 0.  For g = 1 it expands
for small delta*r as

    V(r) = -(A/r) * sum_i  V_i (delta r)^i,
    V_0 = 1, V_1 = -1, V_2 = 0, V_3 = 1/3, V_4 = -1/6, V_5 = 1/30, ...

where V_i = Re[(-1 - i_unit)^i] / i! follows from exp(-x) cos(x) =
Re exp(-(1+i_unit) x).  Everything past the bare Coulomb term is the
perturbation

    dV(r) = -A * sum_{i>=1} V_i delta^i r^(i-1)
          = A delta - (A delta^3/3) r^2 + (A delta^4/6) r^3 - ...
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from numbers import Integral

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core import ScreeningSpec, UnitSystem, ValidationError, check_positive_radius

#: truncation orders accepted by perturbation_remainder (V_2 = 0, so 2 is never needed)
_REMAINDER_ORDERS = (1, 3, 4, 5)


@lru_cache(maxsize=None)
def _gauss_power(i: int) -> tuple[int, int]:
    # (-1 - i_unit)^i as an exact Gaussian integer (re, im)
    re, im = 1, 0
    for _ in range(i):
        re, im = -re + im, -re - im
    return re, im


def series_coefficient(i: int) -> Fraction:
    """Exact rational V_i of the g = 1 expansion; V_0 = 1 from the Coulomb limit."""
    if not isinstance(i, Integral) or i < 0:
        raise ValidationError(f"series index must be an integer >= 0, got {i!r}")
    re, _ = _gauss_power(i)
    return Fraction(re, factorial(i))


def evaluate_potential(r, spec: ScreeningSpec):
    """V(r) = -(A/r) exp(-delta r) cos(g delta r); accepts scalars or arrays."""
    arr = check_positive_radius(r)
    out = -(spec.strength / arr) * np.exp(-spec.delta * arr) * np.cos(spec.g * spec.delta * arr)
    return out if out.ndim else float(out)


def effective_potential(r, spec: ScreeningSpec, ell: int, units: UnitSystem):
    """Screened potential plus the centrifugal barrier hbar^2 l(l+1)/(2 m r^2)."""
    if ell < 0:
        raise ValidationError(f"ell must be >= 0, got {ell}")
    # evaluate_potential rejects r <= 0 before the barrier divides by r^2
    screened = evaluate_potential(r, spec)
    if ell == 0:  # no barrier, and no 0/0 where r^2 underflows
        return screened
    arr = np.asarray(r, dtype=float)
    out = screened + units.hbar**2 * ell * (ell + 1) / (2.0 * units.mass * arr**2)
    return out if out.ndim else float(out)


def perturbation_remainder(r, spec: ScreeningSpec, max_order: int = 4):
    """Truncated perturbation dV(r) = -A sum_{i=1..max_order} V_i delta^i r^(i-1).

    Only the g = 1 expansion is implemented; the default truncation keeps the
    terms through r^3, which is the working set of the closed-form theory.
    """
    if spec.g != 1.0:
        raise ValidationError(
            f"the small-delta expansion is only available for g = 1, got g = {spec.g}"
        )
    if not isinstance(max_order, Integral) or max_order not in _REMAINDER_ORDERS:
        raise ValidationError(f"max_order must be one of {_REMAINDER_ORDERS}, got {max_order}")
    arr = check_positive_radius(r)
    coeffs = [-spec.strength * float(series_coefficient(i)) * spec.delta**i
              for i in range(1, max_order + 1)]
    out = polyval(arr, coeffs)
    return out if out.ndim else float(out)
