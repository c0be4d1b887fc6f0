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
carry no transcription roundoff.  Everything but the powers of delta depends
only on the level, the units and A: those factors are formed once per
(n, ell, variant, hbar, m, A) and cached (``_level``).

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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite, sqrt
from typing import TYPE_CHECKING

from .core import (
    EnergyBreakdown,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    UnitSystem,
    ValidationError,
    _variant,
    check_positive_radius,
    coulomb_scales,
    energy_total,
)
from .coulomb import coulomb_beta, coulomb_energy, coulomb_norm
from .coulomb import radial_moment  # noqa: F401  perfbench/tracing.py traces it under this module

if TYPE_CHECKING:
    from numpy.polynomial import Polynomial


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
    return _second_order_coefficients(n, ell, _variant(variant))


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


class _Level:
    """The delta-free factors of one level's closed forms at one (variant, hbar, m, A).

    Each group is formed on first use and then kept, grouped exactly as the
    per-delta products below group it, so every value keeps its bits and a
    reader forms (and raises on) only the factors it uses, in the order it
    used them: E0 at delta = 0, E1's pair, E2's quartic and sextic pairs
    (n <= 2), W1's two factors and the constant of the FULL n = 1 form.
    Readers take a record from ``_level``.
    """

    def __init__(self, n: int, ell: int, variant: SecondOrderVariant, hbar: float,
                 mass: float, strength: float):
        self.state, self.variant = QuantumState(n, ell), variant
        self.spec, self.units = ScreeningSpec(0.0, strength), UnitSystem(hbar, mass)

    @cached_property
    def e0(self) -> float:
        return coulomb_energy(self.state, self.spec, self.units)

    @cached_property
    def wavenumber(self) -> float:
        return coulomb_scales(self.spec.strength, self.units)[0]

    @cached_property
    def first_order(self) -> tuple[float, float]:
        # E1 = num delta^3 / den
        hb, m = self.units.hbar, self.units.mass
        p1 = first_order_coefficient(self.state.n, self.state.ell)
        return -(hb**4) * p1, 6.0 * self.spec.strength * m**2

    @cached_property
    def quartic(self) -> tuple[float, float]:
        # the quartic term of E2 is num delta^4 / den and the sextic one
        # num delta^6 / den; the sextic pair is formed after the quartic
        # division, so a denominator that underflows to 0 still raises first
        c4 = _second_order_coefficients(self.state.n, self.state.ell, self.variant)[0]
        hb, m, a_s = self.units.hbar, self.units.mass, self.spec.strength
        return hb**6 * c4, 24.0 * a_s**2 * m**3

    @cached_property
    def sextic(self) -> tuple[float, float]:
        c6 = _second_order_coefficients(self.state.n, self.state.ell, self.variant)[1]
        hb, m, a_s = self.units.hbar, self.units.mass, self.spec.strength
        return hb**10 * c6, 72.0 * a_s**4 * m**5

    @cached_property
    def w1(self) -> tuple[float, float]:
        # W1 = pref (const + lin r + r^2) with pref = w delta^3 / 3
        big_n = self.state.principal
        return (-self.units.hbar / sqrt(2.0 * self.units.mass) * big_n,
                big_n * (big_n + 1) / self.wavenumber)

    @cached_property
    def full_const(self) -> float:
        big_n = self.state.principal
        return -2.0 * (big_n - 1) * big_n**2 / self.wavenumber**2

    def e1(self, delta: float) -> float:
        num, den = self.first_order
        return num * delta**3 / den

    def e2_terms(self, delta: float) -> tuple[float, float]:
        num, den = self.quartic
        quartic = num * delta**4 / den
        num, den = self.sextic
        return quartic, num * delta**6 / den

    def energies(self, delta: float) -> tuple[float, float, float, float, float]:
        """(E0, A delta, E1, E2, total) at ``delta`` as plain floats: the one
        assembly of the closed forms.  E2 is 0.0 for n > 2, and at delta = 0
        every correction is 0.0; OverflowError when the total is not finite."""
        e0 = self.e0
        if delta == 0.0:
            return e0, 0.0, 0.0, 0.0, energy_total(e0, 0.0, 0.0, 0.0)
        linear = self.spec.strength * delta
        e1 = self.e1(delta)
        e2 = 0.0
        if self.state.n <= 2:
            quartic, sextic = self.e2_terms(delta)
            e2 = quartic - sextic
        return e0, linear, e1, e2, energy_total(e0, linear, e1, e2)

    def breakdown(self, spec: ScreeningSpec) -> EnergyBreakdown:
        # ``energies`` as a record
        if spec.g != 1.0 and spec.delta != 0.0:
            self.e0  # formed first: out-of-range Coulomb scales are reported before g
            _require_expansion(spec)
        e0, linear, e1, e2, _ = self.energies(spec.delta)
        return EnergyBreakdown(e0, linear, e1, e2, self.variant,
                               self.state.n > 2 and spec.delta != 0.0)

    def w1_coefficients(self, delta: float, variant) -> tuple[float, float, float]:
        # (c0, c1, c2) of W1; ``variant`` is checked after W1's factors, whose
        # Coulomb scales check A, and read only for n = 1
        w, lin = self.w1
        if not isinstance(variant, SecondOrderVariant):  # a member skips the call
            variant = _variant(variant)
        pref = w * delta**3 / 3.0
        const = (self.full_const if self.state.n == 1
                 and variant is SecondOrderVariant.FULL else 0.0)
        return pref * const, pref * lin, pref


#: the records of _Level, one per (n, ell, variant, hbar, m, A) and type of each;
#: the bound holds a few hundred levels and unit systems
_level = lru_cache(maxsize=256, typed=True)(_Level)


def first_order_shift(state: QuantumState, spec: ScreeningSpec, units: UnitSystem) -> float:
    """First-order energy correction E1 = -(A delta^3 / 3) <r^2>, for every level."""
    _require_expansion(spec)
    return _level(state.n, state.ell, SecondOrderVariant.TRUNCATED, units.hbar, units.mass,
                  spec.strength).e1(spec.delta)


def second_order_terms(
    state: QuantumState,
    spec: ScreeningSpec,
    units: UnitSystem,
    variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED,
) -> tuple[float, float]:
    """The (quartic, sextic) pieces of E2, each returned positive; E2 = quartic - sextic."""
    _require_expansion(spec)
    return _level(state.n, state.ell, _variant(variant), units.hbar, units.mass,
                  spec.strength).e2_terms(spec.delta)


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
    e2 = 0 and is flagged ``first_order_only``.  The delta-free factors come
    from the level's cached record (``_level``), so a call forms only the
    powers of delta and the sums.
    """
    if not isinstance(variant, SecondOrderVariant):  # a member skips the call
        variant = _variant(variant)
    return _level(state.n, state.ell, variant, units.hbar, units.mass,
                  spec.strength).breakdown(spec)


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
    the r^2 and r terms alone.  ``variant`` is checked at every n (after
    the Coulomb scales) and read only for n = 1.
    """
    from numpy.polynomial import Polynomial

    return Polynomial(_superpotential_first_coefficients(state, spec, units, variant))


def _superpotential_first_coefficients(
    state: QuantumState, spec: ScreeningSpec, units: UnitSystem, variant: SecondOrderVariant
) -> tuple[float, float, float]:
    # the power-series coefficients (c0, c1, c2) of superpotential_first, from
    # the level's record, whose W1 factors do not depend on its variant
    _require_expansion(spec)
    return _level(state.n, state.ell, SecondOrderVariant.TRUNCATED, units.hbar, units.mass,
                  spec.strength).w1_coefficients(spec.delta, variant)


def superpotential_second_ground(ell: int, spec: ScreeningSpec, units: UnitSystem) -> Polynomial:
    """Second-order ground superpotential W^(2)(r) for n = 0, a quartic ``Polynomial``.

    W^(2)(r) = -(hbar delta^4 c r / (2 sqrt(2m)))
               * (delta^2 r^3 + a r^2 + b (r + hbar^2 (ell+1)(ell+2)/(A m)))
               - (hbar (ell+1) / (sqrt(2m) A)) E2.

    The trailing constant adjusts the asymptotic decay rate for the
    second-order energy shift.  At delta = 0 every coefficient is zero.
    """
    from numpy.polynomial import Polynomial

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
    only p1 = -beta survives (pure Coulomb decay); OverflowError if a p_i is not finite.
    """
    import numpy as np
    from numpy.polynomial import Polynomial

    state = QuantumState(0, ell)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (superpotential_first(state, spec, units)
             + superpotential_second_ground(ell, spec, units))
        exponent = (Polynomial((0.0, -coulomb_beta(state, spec, units)))
                    - sqrt(2.0 * units.mass) / units.hbar * w.integ())
    if not np.isfinite(exponent.coef).all():
        raise OverflowError(f"the exponent P of the l={ell} wavefunction is not finite")
    # polynomial arithmetic trims trailing zeros; restore all six coefficients
    return Polynomial(np.pad(exponent.coef, (0, 6 - exponent.coef.size)))


def _norm_integral(ell: int, poly: Polynomial, r_stop: float, points: int) -> float:
    """Integral of (r^(ell+1) exp(P(r)))^2 over [0, r_stop] by the ``points``-point
    Gauss-Legendre rule; inf or nan, with no warning, where it leaves the floats."""
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(points)
    x = 0.5 * r_stop * (t + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
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
    rule's integral is not finite (from l = 51 at A = hbar = m = 1 and delta = 0,
    from l = 42 at delta = 0.001) or is 0.  OverflowError: see
    :func:`wavefunction_polynomial`; psi raises it where its value is not finite.
    """
    import numpy as np

    state = QuantumState(0, ell)
    poly = wavefunction_polynomial(ell, spec, units)
    beta = coulomb_beta(state, spec, units)
    r_c = float("inf")
    if spec.delta != 0.0:
        peak = (ell + 1) / beta
        rs = np.linspace(peak, 200.0 / beta, 20000)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite rate keeps its sign
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
        if not (isfinite(val) and isfinite(check)) or 0.0 in (val, check):
            raise ValidationError(
                f"cannot renormalize the l={ell} wavefunction at delta={spec.delta:g} with "
                f"A = {spec.strength:g}, hbar = {units.hbar:g} and m = {units.mass:g}: its norm "
                f"integral {'underflows to 0' if 0.0 in (val, check) else 'overflows the floats'}"
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
        with np.errstate(over="ignore", invalid="ignore"):
            out = scale * arr ** (ell + 1) * np.exp(poly(arr))
        if not np.isfinite(out).all():
            raise OverflowError(f"psi of the l={ell} wavefunction is not finite")
        return out if out.ndim else float(out)

    return psi, poly, r_c
