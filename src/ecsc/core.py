"""Shared domain types: unit systems, quantum states, screening parameters."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from math import inf, isfinite
from numbers import Integral

import numpy as np


#: largest number of scan steps or wavefunction samples any command allocates
MAX_SAMPLES = 2**22
#: smallest positive float with full precision
_NORMAL_MIN = sys.float_info.min


class ValidationError(ValueError):
    """An argument lies outside what the package accepts or what a closed form covers."""


#: spectroscopic letters in order of increasing orbital angular momentum
_ORBITAL_LETTERS = "spdfghik"

_PRESETS = {
    "atomic": (1.0, 1.0),
    "hbar2m": (1.0, 0.5),
}


@dataclass(frozen=True)
class UnitSystem:
    """Explicit (hbar, mass) pair; every formula takes these, nothing is hardcoded."""

    hbar: float
    mass: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not all(isfinite(x) and x > 0.0 for x in (self.hbar, self.mass)):
            raise ValidationError(
                f"hbar and mass must be positive and finite, got ({self.hbar}, {self.mass})"
            )


def make_unit_system(text: str) -> UnitSystem:
    """Parse "atomic" (hbar = m = 1), "hbar2m" (hbar = 1, m = 1/2) or "custom:HBAR,MASS"."""
    if text in _PRESETS:
        return UnitSystem(*_PRESETS[text], label=text)
    if text.startswith("custom:"):
        try:
            h, m = (float(v) for v in text[len("custom:"):].split(","))
        except ValueError:
            raise ValidationError(f"cannot parse units {text!r}; expected custom:HBAR,MASS")
        return UnitSystem(h, m)
    raise ValidationError(
        f"unknown units {text!r}; expected {', '.join(_PRESETS)} or custom:HBAR,MASS"
    )


def check_positive_radius(r) -> np.ndarray:
    """``r`` as a float array, or ValidationError if any entry is not positive
    and finite (nan fails both comparisons; an empty array passes)."""
    arr = np.asarray(r, dtype=float)
    if not (arr.min(initial=inf) > 0.0 and arr.max(initial=0.0) < inf):
        raise ValidationError("radius must be positive and finite "
                              "(Coulomb singularity at r = 0)")
    return arr


ATOMIC = make_unit_system("atomic")
HBAR2M = make_unit_system("hbar2m")


def coulomb_scales(strength: float, units: UnitSystem) -> tuple[float, float]:
    """The Coulomb wavenumber m A/hbar^2 and energy m A^2/hbar^2, through which
    alone the levels and wavefunctions depend on the units.  Raises
    ValidationError naming A, hbar and m when forming either raises or gives no
    normal positive float: a subnormal one has lost precision."""
    quantity = "wavenumber m A/hbar^2"
    try:
        wavenumber = units.mass * strength / units.hbar**2
        if _NORMAL_MIN <= wavenumber < inf:
            quantity = "energy m A^2/hbar^2"
            energy = units.mass * strength**2 / units.hbar**2
            if _NORMAL_MIN <= energy < inf:
                return wavenumber, energy
    except ArithmeticError:
        pass
    raise ValidationError(f"A = {strength:g} with hbar = {units.hbar:g} and m = {units.mass:g} "
                          f"puts the Coulomb {quantity} outside the normal floats")


@dataclass(frozen=True, order=True)
class QuantumState:
    """Radial quantum number n (node count) and orbital angular momentum ell.

    The principal index is N = n + ell + 1, so "1s" is (n=0, ell=0) and
    "3d" is (n=0, ell=2).
    """

    n: int
    ell: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, Integral) and isinstance(self.ell, Integral)):
            raise ValidationError(
                f"n and ell must be integers, got (n={self.n!r}, ell={self.ell!r})"
            )
        if self.n < 0 or self.ell < 0:
            raise ValidationError(f"need n >= 0 and ell >= 0, got (n={self.n}, ell={self.ell})")

    @property
    def principal(self) -> int:
        return self.n + self.ell + 1

    @property
    def label(self) -> str:
        if self.ell >= len(_ORBITAL_LETTERS) or self.principal > 9:
            return f"(n={self.n},l={self.ell})"
        return f"{self.principal}{_ORBITAL_LETTERS[self.ell]}"


_LABEL_RE = re.compile(r"^([1-9])([a-z])$")


def state_from_label(label: str) -> QuantumState:
    """Parse a spectroscopic label like "1s", "2p", "3d" into a QuantumState."""
    m = _LABEL_RE.match(label.strip().lower())
    if m is None:
        raise ValidationError(f"not a spectroscopic label: {label!r}")
    principal = int(m.group(1))
    letter = m.group(2)
    ell = _ORBITAL_LETTERS.find(letter)
    if ell < 0:
        raise ValidationError(f"unknown orbital letter {letter!r} in {label!r}")
    if ell >= principal:
        raise ValidationError(f"invalid state {label!r}: l={ell} must be below N={principal}")
    return QuantumState(n=principal - ell - 1, ell=ell)


@dataclass(frozen=True)
class ScreeningSpec:
    """Screened-Coulomb parameters: strength A, screening delta, cosine factor g.

    g = 1 is the exponential-cosine-screened case; g = 0 reduces to the
    plain Yukawa form.
    """

    delta: float
    strength: float = 1.0
    g: float = 1.0

    def __post_init__(self) -> None:
        for name in ("delta", "strength", "g"):
            if not isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta < 0.0:
            raise ValidationError(f"screening parameter must be >= 0, got {self.delta}")
        if not self.strength > 0.0:
            raise ValidationError(f"strength must be positive, got {self.strength}")


class SecondOrderVariant(Enum):
    """Which second-order closed form to use for the first excited level.

    TRUNCATED keeps the two leading superpotential terms and is the form
    that reproduces the reference tables; FULL keeps all three, and the
    third, the hierarchy constant of W^(1), belongs to this form alone.
    The two differ only for n = 1, in the sextic coefficient of E2 and in
    that constant; every other level has one form.
    """

    TRUNCATED = "truncated"
    FULL = "full"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into zeroth order, the linear A*delta shift, and corrections.

    ``total`` is always the exact same-precision sum of the four parts, and always
    finite: a sum that is not raises OverflowError.  ``first_order_only`` marks
    levels where no second-order closed form exists (n > 2) and e2 is identically zero.
    """

    e0: float
    linear_shift: float
    e1: float
    e2: float
    variant: SecondOrderVariant
    first_order_only: bool = False
    total: float = field(init=False)

    def __post_init__(self) -> None:
        total = self.e0 + self.linear_shift + self.e1 + self.e2
        if not isfinite(total):
            raise OverflowError(f"the total energy E0 + A delta + E1 + E2 is {total}")
        object.__setattr__(self, "total", total)

