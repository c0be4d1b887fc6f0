"""Closed-form perturbation theory for the screened Coulomb bound states.

With the potential split as pure Coulomb plus
dV = A delta - (A delta^3/3) r^2 + (A delta^4/6) r^3 - ..., the level with
quantum numbers (n, ell) and N = n + ell + 1 acquires corrections

    E = E0 + A delta + E1 + E2,

where the first order is E1 = -(A delta^3/3) <r^2> over the Coulomb state.
The hydrogen moment <r^2> = (a^2 N^2/2)(5N^2 + 1 - 3 ell(ell+1)), with
a = hbar^2/(m A), makes this closed for every n; with integer polynomials
p1(n, ell) and c4(ell), c6(ell):

    E1 = -hbar^4 p1 delta^3 / (6 A m^2),    p1 = N^2 (5N^2 + 1 - 3 ell(ell+1))
    E2 = hbar^6 c4(ell) delta^4 / (24 A^2 m^3)
         - hbar^10 c6(ell) delta^6 / (72 A^4 m^5)

The integer coefficients are constructed exactly and converted to float only
when multiplied by powers of delta, so the five-digit sextic coefficients
carry no transcription roundoff.

The superpotentials (log-derivative corrections) W^(1) and W^(2) are numpy
``Polynomial``s, and the moderated ground-state wavefunction is derived from
them rather than expanded separately:

    psi(r) = norm * r^(ell+1) * exp(P(r)),
    P(r) = -beta r - (sqrt(2m)/hbar) integral_0^r (W^(1) + W^(2)),

a ``Polynomial`` with coef = (0, p1, ..., p5).

Second order is only available in closed form for n <= 2; for n = 1 two
printed alternatives exist (see SecondOrderVariant), and the TRUNCATED one
is the default because it reproduces the reference tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import inf, log, sqrt

import numpy as np
from numpy.polynomial import Polynomial

from .core import (
    EnergyBreakdown,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    UnitSystem,
    ValidationError,
    check_positive_radius,
    coulomb_scales,
)
from .coulomb import coulomb_beta, coulomb_energy, coulomb_norm
from .coulomb import radial_moment  # noqa: F401  perfbench/tracing.py traces it under this module


def _require_expansion(spec: ScreeningSpec) -> None:
    # at delta = 0 the potential is pure Coulomb whatever g is
    if spec.g != 1.0 and spec.delta != 0.0:
        raise ValidationError(
            f"closed-form corrections assume g = 1, got g = {spec.g}"
        )


def first_order_coefficient(n: int, ell: int) -> int:
    """Exact integer p1 = N^2 (5N^2 + 1 - 3 ell(ell+1)) with E1 = -hbar^4 p1 delta^3 / (6 A m^2).

    p1 = 2 <r^2> / a^2 for the hydrogen level (Bethe & Salpeter, section 3),
    so it holds for every n.
    """
    big_n = n + ell + 1
    return big_n**2 * (5 * big_n**2 + 1 - 3 * ell * (ell + 1))


def second_order_coefficients(
    n: int, ell: int, variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED
) -> tuple[int, int]:
    """Exact integers (c4, c6) of the quartic and sextic second-order terms.

    The variant only matters for n = 1; the ground and second excited levels
    each have a single closed form.
    """
    return _second_order_coefficients(n, ell, SecondOrderVariant(variant))


@lru_cache(maxsize=None)
def _second_order_coefficients(n: int, ell: int, variant: SecondOrderVariant) -> tuple[int, int]:
    # second_order_coefficients for a variant that is already an enum member;
    # cached, since every table cell and scan point asks for the same few
    if n == 0:
        c4 = (ell + 1) ** 3 * (ell + 2) * (2 * ell + 3) * (2 * ell + 5)
        c6 = (ell + 1) ** 6 * (ell + 2) * (2 * ell + 3) * (8 * ell**2 + 37 * ell + 43)
    elif n == 1:
        c4 = (ell + 2) ** 3 * (ell + 11) * (2 * ell + 3) * (2 * ell + 5)
        if variant is SecondOrderVariant.TRUNCATED:
            c6 = (ell + 2) ** 6 * (ell + 3) * (2 * ell + 3) * (7 * ell**2 + 101 * ell + 211)
        else:
            c6 = (ell + 2) ** 5 * (
                16 * ell**5 + 294 * ell**4 + 1795 * ell**3 + 5085 * ell**2 + 6878 * ell + 3568
            )
    elif n == 2:
        c4 = (ell + 2) * (ell + 3) ** 2 * (2 * ell + 5) * (2 * ell**2 + 45 * ell + 153)
        c6 = (ell + 2) * (ell + 3) ** 5 * (
            16 * ell**4 + 474 * ell**3 + 3879 * ell**2 + 12118 * ell + 12873
        )
    else:
        raise ValidationError(
            f"no closed second-order form for n = {n}; only n <= 2 is available"
        )
    return c4, c6


def first_order_shift(state: QuantumState, spec: ScreeningSpec, units: UnitSystem) -> float:
    """First-order energy correction E1 = -(A delta^3 / 3) <r^2>, for every level."""
    _require_expansion(spec)
    hb, m = units.hbar, units.mass
    a_s, d = spec.strength, spec.delta
    p1 = first_order_coefficient(state.n, state.ell)
    return -(hb**4) * p1 * d**3 / (6.0 * a_s * m**2)


def second_order_terms(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED,
) -> tuple[float, float]:
    """The (quartic, sextic) pieces of E2, each returned positive; E2 = quartic - sextic."""
    _require_expansion(spec)
    return _second_order_terms(state, spec, units, SecondOrderVariant(variant))


def _second_order_terms(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                        variant: SecondOrderVariant) -> tuple[float, float]:
    # second_order_terms once the expansion is checked and the variant is a member
    c4, c6 = _second_order_coefficients(state.n, state.ell, variant)
    hb, m = units.hbar, units.mass
    a_s, d = spec.strength, spec.delta
    quartic = hb**6 * c4 * d**4 / (24.0 * a_s**2 * m**3)
    sextic = hb**10 * c6 * d**6 / (72.0 * a_s**4 * m**5)
    return quartic, sextic


def second_order_shift(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED,
) -> float:
    """Second-order energy correction E2 for n <= 2."""
    quartic, sextic = second_order_terms(state, spec, units, variant)
    return quartic - sextic


def total_energy(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED,
) -> EnergyBreakdown:
    """Assembled level energy E0 + A delta + E1 + E2 with its parts.

    For n > 2 no second-order closed form exists; the breakdown carries
    e2 = 0 and is flagged ``first_order_only``.
    """
    if not isinstance(variant, SecondOrderVariant):  # a member skips the Enum call
        variant = SecondOrderVariant(variant)
    e0 = coulomb_energy(state, spec, units)
    if spec.delta == 0.0:
        return EnergyBreakdown(e0, 0.0, 0.0, 0.0, variant)
    _require_expansion(spec)
    linear = spec.strength * spec.delta
    e1 = first_order_shift(state, spec, units)
    if state.n <= 2:
        quartic, sextic = _second_order_terms(state, spec, units, variant)
        return EnergyBreakdown(e0, linear, e1, quartic - sextic, variant)
    return EnergyBreakdown(e0, linear, e1, 0.0, variant, first_order_only=True)


# ---------------------------------------------------------------------------
# superpotentials and the moderated ground-state wavefunction


@dataclass(frozen=True)
class GroundCoefficients:
    """Parameters (a, b, c) of the ground-level second-order superpotential W^(2)."""

    a: float
    b: float
    c: float


def ground_coefficients(ell: int, spec: ScreeningSpec, units: UnitSystem) -> GroundCoefficients:
    """The (a, b, c) parameter set entering W^(2) for n = 0."""
    QuantumState(0, ell)  # rejects ell < 0
    _require_expansion(spec)
    wavenumber = coulomb_scales(spec.strength, units)[0]
    d, lp = spec.delta, ell + 1
    a = lp * (3 * ell + 7) * d**2 / wavenumber - 3.0 * wavenumber / lp**2
    b = (lp**2 * (8 * ell**2 + 37 * ell + 43) * d**2 / (2.0 * wavenumber**2)
         - 1.5 * (2 * ell + 5) / lp)
    c = lp**3 / (9.0 * wavenumber)
    return GroundCoefficients(a, b, c)


def superpotential_w0(state: QuantumState, spec: ScreeningSpec, units: UnitSystem):
    """Unperturbed ground superpotential W0(r), the negative scaled log-derivative of chi.

    W0(r) = -(hbar/sqrt(2m)) (ell+1)/r + sqrt(m/2) A / ((ell+1) hbar).
    Only the node-free n = 0 level has this node-free closed form.
    """
    if state.n != 0:
        raise ValidationError(
            "unperturbed superpotentials are only closed-form for n = 0 (excited ones have nodes)"
        )
    hb, m = units.hbar, units.mass
    k = hb / sqrt(2.0 * m)
    const = sqrt(m / 2.0) * spec.strength / ((state.ell + 1) * hb)
    lp = state.ell + 1

    def w0(r):
        arr = check_positive_radius(r)
        out = -k * lp / arr + const
        return out if out.ndim else float(out)

    return w0


def superpotential_first(state: QuantumState, spec: ScreeningSpec, units: UnitSystem,
                         variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED) -> Polynomial:
    """First-order superpotential W^(1)(r), a quadratic ``Polynomial``.

    For n = 0 this is the exact quadratic solution of the first-order
    Riccati equation,

        W^(1)(r) = -(hbar (ell+1) delta^3 r / (3 sqrt(2m)))
                   * (r + hbar^2 (ell+1)(ell+2) / (A m)),

    which vanishes at the origin and has no interior root.  For n >= 1 the
    node difficulties are bypassed with the hierarchy form

        W^(1)(r) ~ -(hbar N delta^3 / (3 sqrt(2m)))
                   * (r^2 + hbar^2 N(N+1)/(A m) r - 2 hbar^4 (N-1) N^2/(A^2 m^2)),

    N = n + ell + 1.  Its constant belongs to the FULL second-order form of
    n = 1 only (see SecondOrderVariant); every other level and variant keeps
    the r^2 and r terms alone, and ``variant`` is read only for n = 1.
    """
    return Polynomial(_superpotential_first_coefficients(state, spec, units, variant))


def _superpotential_first_coefficients(
    state: QuantumState, spec: ScreeningSpec, units: UnitSystem, variant: SecondOrderVariant
) -> tuple[float, float, float]:
    # the power-series coefficients (c0, c1, c2) of superpotential_first, the
    # one place they are formed; scan_delta sums E2 from them directly
    _require_expansion(spec)
    wavenumber = coulomb_scales(spec.strength, units)[0]
    big_n = state.principal
    pref = -units.hbar / sqrt(2.0 * units.mass) * big_n * spec.delta**3 / 3.0
    lin = big_n * (big_n + 1) / wavenumber
    const = (-2.0 * (big_n - 1) * big_n**2 / wavenumber**2
             if state.n == 1 and SecondOrderVariant(variant) is SecondOrderVariant.FULL else 0.0)
    return pref * const, pref * lin, pref


def superpotential_second_ground(ell: int, spec: ScreeningSpec, units: UnitSystem) -> Polynomial:
    """Second-order ground superpotential W^(2)(r) for n = 0, a quartic ``Polynomial``.

    W^(2)(r) = -(hbar delta^4 c r / (2 sqrt(2m)))
               * (delta^2 r^3 + a r^2 + b (r + hbar^2 (ell+1)(ell+2)/(A m)))
               - (hbar (ell+1) / (sqrt(2m) A)) E2.

    The trailing constant adjusts the asymptotic decay rate for the
    second-order energy shift.  At delta = 0 every coefficient is zero.
    """
    state = QuantumState(0, ell)
    k = units.hbar / sqrt(2.0 * units.mass)
    gc = ground_coefficients(ell, spec, units)
    cr = (ell + 1) * (ell + 2) / coulomb_scales(spec.strength, units)[0]
    tail = -k * (ell + 1) / spec.strength * second_order_shift(state, spec, units)
    scale = -k * gc.c * spec.delta**4 / 2.0
    return Polynomial((tail, scale * gc.b * cr, scale * gc.b, scale * gc.a, scale * spec.delta**2))


def wavefunction_polynomial(ell: int, spec: ScreeningSpec, units: UnitSystem) -> Polynomial:
    """The exponent P(r) = sum_i p_i r^i, i = 1..5, of the moderated ground state.

    A numpy ``Polynomial`` with ``coef = (0, p1, ..., p5)``, derived as
    P = -beta r - (sqrt(2m)/hbar) integral_0^r (W^(1) + W^(2)).  At delta = 0
    only p1 = -beta survives (pure Coulomb decay).
    """
    state = QuantumState(0, ell)
    w = superpotential_first(state, spec, units) + superpotential_second_ground(ell, spec, units)
    exponent = (Polynomial((0.0, -coulomb_beta(state, spec, units)))
                - sqrt(2.0 * units.mass) / units.hbar * w.integ())
    # polynomial arithmetic trims trailing zeros; restore all six coefficients
    return Polynomial(np.pad(exponent.coef, (0, 6 - exponent.coef.size)))


#: the log of the largest float, less a margin above the rounding of the logs
#: that _norm_integral compares with it
_LOG_FLOAT_MAX = log(sys.float_info.max) - 1e-10


def _norm_integral(ell: int, poly: Polynomial, r_stop: float, points: int) -> float:
    """Integral of (r^(ell+1) exp(P(r)))^2 over [0, r_stop] by the
    ``points``-point Gauss-Legendre rule, or inf when a factor r^(ell+1) or
    exp(P), a squared term or the sum would leave the floats.  That is
    decided from logs, before anything is exponentiated."""
    t, w = np.polynomial.legendre.leggauss(points)
    x = 0.5 * r_stop * (t + 1.0)
    power, exponent = (ell + 1) * np.log(x), poly(x)
    log_square = 2.0 * (power + exponent)
    # the log of np.dot(w, square) by log-sum-exp; the integral adds log(r_stop / 2)
    log_terms = log_square + np.log(w)
    top = float(log_terms.max())
    log_dot = top + log(float(np.exp(log_terms - top).sum()))
    if max(power.max(), exponent.max(), log_square.max(), log_dot,
           log_dot + log(0.5 * r_stop)) >= _LOG_FLOAT_MAX:
        return inf
    return float(0.5 * r_stop * np.dot(w, (x ** (ell + 1) * np.exp(poly(x))) ** 2))


def ground_wavefunction(
    ell: int, spec: ScreeningSpec, units: UnitSystem, renormalize: bool = False
):
    """Moderated ground-state radial wavefunction for n = 0, with its validity radius.

    Returns (psi, poly, r_c) where psi(r) = norm * r^(ell+1) * exp(P(r)),
    poly is the ``Polynomial`` P and r_c the radius where psi stops
    decaying.  P carries a positive r^5 tail for delta > 0, so the closed
    form is asymptotic, valid only inside r_c: the first point past the peak
    (ell+1)/beta, on 20000 points up to 200/beta, where the log-derivative
    turns nonnegative again after the decaying stretch.  r_c is infinite at
    delta = 0 and when no such turn lies within 200 Coulomb lengths (the
    amplitude there is already negligible), and it is the peak itself when
    nothing past the peak decays.  psi raises ValidationError at any r past r_c.
    By default the Coulomb normalization constant is kept (ValidationError
    where :func:`ecsc.coulomb.coulomb_norm` refuses it), so psi is not
    exactly unit-normalized once delta > 0; pass ``renormalize=True`` to
    rescale numerically (useful for plotting) by a 200-point
    Gauss-Legendre rule on [0, min(60/beta, r_c)].  Raises ValidationError
    when a 300-point rule on the same interval differs from it by more than
    1e-10 relative: far past critical screening the density piles up
    against r_c, and no fixed rule resolves it (hbar2m 4f at delta = 0.15).
    Also raises ValidationError, naming l, delta, A, hbar and m, when either
    rule's integral overflows the floats (from l = 51 at A = hbar = m = 1 and
    delta = 0, from l = 42 at delta = 0.001) or underflows to 0.
    """
    state = QuantumState(0, ell)
    poly = wavefunction_polynomial(ell, spec, units)
    beta = coulomb_beta(state, spec, units)
    r_c = float("inf")
    if spec.delta != 0.0:
        peak = (ell + 1) / beta
        rs = np.linspace(peak, 200.0 / beta, 20000)
        rate = (ell + 1) / rs + poly.deriv()(rs)
        # the first zero of the log-derivative is the peak itself; the breakdown
        # is where the rate turns nonnegative again after the decaying stretch
        decaying = np.nonzero(rate < 0.0)[0]
        if decaying.size == 0:
            r_c = float(peak)
        else:
            turned = np.nonzero(rate[decaying[0]:] >= 0.0)[0]
            if turned.size:
                r_c = float(rs[decaying[0] + turned[0]])
    if renormalize:
        r_stop = min(60.0 / beta, r_c)
        val, check = (_norm_integral(ell, poly, r_stop, points) for points in (200, 300))
        if inf in (val, check) or 0.0 in (val, check):
            raise ValidationError(
                f"cannot renormalize the l={ell} wavefunction at delta={spec.delta:g} with "
                f"A = {spec.strength:g}, hbar = {units.hbar:g} and m = {units.mass:g}: its norm "
                f"integral {'overflows the floats' if inf in (val, check) else 'underflows to 0'}"
            )
        if not abs(val - check) <= 1e-10 * check:
            raise ValidationError(
                f"cannot renormalize the l={ell} wavefunction at delta={spec.delta:g}: "
                f"200- and 300-point rules give {val:.6g} and {check:.6g}, "
                f"{abs(val - check) / check:.3g} apart relative"
            )
        scale = 1.0 / sqrt(val)
    else:
        scale = coulomb_norm(state, spec, units)

    def psi(r):
        arr = check_positive_radius(r)
        if arr.max(initial=0.0) > r_c:
            raise ValidationError(
                f"r = {arr.max():g} lies past the validity radius r_c = {r_c:g} of the "
                f"l={ell} wavefunction at delta={spec.delta:g}, where it stops decaying")
        out = scale * arr ** (ell + 1) * np.exp(poly(arr))
        return out if out.ndim else float(out)

    return psi, poly, r_c
