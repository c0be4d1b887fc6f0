"""Unperturbed Coulomb eigensystem: energies, radial functions, exact moments.

For strength A the bound levels and normalized radial amplitudes are

    E_N = -m A^2 / (2 hbar^2 N^2),          N = n + ell + 1,
    chi(r) = norm * r^(ell+1) exp(-beta r) * L_n^(2 ell + 1)(2 beta r),
    beta = m A / (N hbar^2),

with the associated Laguerre polynomial in the convention

    L_n^k(x) = sum_m (-1)^m (n+k)! / ((n-m)! (m+k)! m!) x^m.

Radial moments <r^k> are computed analytically from the Laguerre expansion
with exact integer arithmetic, which makes this module an oracle that is
independent of any numerical quadrature.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, sqrt
from numbers import Integral

import numpy as np

from .core import (_NORMAL_MIN, QuantumState, ScreeningSpec, UnitSystem, ValidationError,
                   check_positive_radius, coulomb_scales)


def laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x); accepts scalars or arrays.

    Evaluated by the three-term recurrence
    (j + 1) L_(j+1) = (2j + 1 + k - x) L_j - (j + k) L_(j-1) from L_0 = 1 and
    L_1 = 1 + k - x; the exact rational coefficients live in
    :func:`_moment_fraction`, where exact arithmetic is needed.
    """
    if not (isinstance(n, Integral) and isinstance(k, Integral)) or n < 0 or k < 0:
        raise ValidationError(f"need integers n >= 0 and k >= 0, got (n={n!r}, k={k!r})")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)[()]
    previous, current = 1.0, 1.0 + k - x
    for j in range(1, n):
        previous, current = current, ((2 * j + 1 + k - x) * current - (j + k) * previous) / (j + 1)
    return current


def coulomb_energy(state: QuantumState, spec: ScreeningSpec, units: UnitSystem) -> float:
    """Unperturbed level E = -m A^2 / (2 hbar^2 (n + ell + 1)^2)."""
    big_n = state.principal
    return -coulomb_scales(spec.strength, units)[1] / (2.0 * big_n**2)


def coulomb_beta(state: QuantumState, spec: ScreeningSpec, units: UnitSystem) -> float:
    """Exponential decay rate beta = m A / ((n + ell + 1) hbar^2)."""
    return coulomb_scales(spec.strength, units)[0] / state.principal


@lru_cache(maxsize=None)
def _norm_ratio(n: int, ell: int) -> Fraction:
    # exact part of norm^2: n! / ((n + 2 ell + 1)! * 2 (n + ell + 1))
    return Fraction(factorial(n), factorial(n + 2 * ell + 1) * 2 * (n + ell + 1))


def coulomb_norm(state: QuantumState, spec: ScreeningSpec, units: UnitSystem) -> float:
    """Normalization constant making the radial density integrate to one.
    Raises ValidationError naming the level, A, hbar and m when its square is
    no normal float: at A = hbar = m = 1 it is subnormal from ell = 51 on."""
    beta = coulomb_beta(state, spec, units)
    ratio = _norm_ratio(state.n, state.ell)
    try:
        square = float(ratio) * (2.0 * beta) ** (2 * state.ell + 3)
    except OverflowError:
        square = inf
    if not _NORMAL_MIN <= square < inf:
        raise ValidationError(
            f"the {state.label} level with A = {spec.strength:g}, hbar = {units.hbar:g} and "
            f"m = {units.mass:g} puts its norm^2 outside the normal floats")
    return sqrt(square)


def coulomb_wavefunction(state: QuantumState, spec: ScreeningSpec, units: UnitSystem, r):
    """Normalized radial amplitude chi(r); accepts scalars or arrays."""
    arr = check_positive_radius(r)
    beta = coulomb_beta(state, spec, units)
    norm = coulomb_norm(state, spec, units)
    out = (
        norm
        * arr ** (state.ell + 1)
        * np.exp(-beta * arr)
        * laguerre(state.n, 2 * state.ell + 1, 2.0 * beta * arr)
    )
    return out if np.ndim(out) else float(out)


@lru_cache(maxsize=None)
def _moment_fraction(n: int, ell: int, k: int) -> Fraction:
    # <r^k> in units of (2 beta)^(-k), exact:
    #   ratio * sum_{p,q} c_p c_q (2 ell + 2 + k + p + q)!
    # with c_m = (-1)^m C(n + a, n - m) / m! the exact coefficients of L_n^a.
    a = 2 * ell + 1
    cs = [Fraction((-1) ** m * comb(n + a, n - m), factorial(m)) for m in range(n + 1)]
    j = 2 * ell + 2 + k
    return _norm_ratio(n, ell) * sum(cp * cq * factorial(j + p + q)
                                     for p, cp in enumerate(cs) for q, cq in enumerate(cs))


def radial_moment(state: QuantumState, spec: ScreeningSpec, units: UnitSystem, k: int) -> float:
    """Analytic <r^k> = integral chi^2 r^k dr for integer k >= -2."""
    if not isinstance(k, Integral) or k < -2:
        raise ValidationError(f"moment <r^{k!r}> not supported; need an integer k >= -2")
    beta = coulomb_beta(state, spec, units)
    return float(_moment_fraction(state.n, state.ell, k)) / (2.0 * beta) ** k
