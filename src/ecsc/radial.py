"""Numerical radial bound-state solver, independent of the perturbation theory.

The radial equation -(hbar^2/2m) chi'' + V_eff(r) chi = E chi is discretised
with the three-point Laplacian on a uniform grid, with chi = 0 at r = 0 and
at r_max.  That gives a symmetric tridiagonal matrix with negative
off-diagonals, whose (n+1)-th lowest eigenvector has exactly n sign changes
(discrete oscillation theorem), so the level with n nodes is selected by its
index.  LAPACK bisection with Sturm counts (dstebz; Barth, Martin &
Wilkinson, Numer. Math. 9 (1967) 386) finds that one eigenvalue on the grids
h, 2h and 4h.  One Richardson step on the O(h^2) discretisation error gives
the energy, and the difference of the (h, 2h) and (2h, 4h) steps, plus the
roundoff floor, its error estimate.

The caller supplies the full effective potential including the centrifugal
barrier (see :func:`ecsc.potential.effective_potential`).  It is evaluated
once, on the finest grid; the coarser grids take every second and fourth
point of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError

_EPS = np.finfo(float).eps
# dstebz locates eigenvalues most accurately at twice the underflow threshold
_BISECTION_TOL = 2.0 * np.finfo(float).tiny
#: largest grid any command allocates, in intervals (or samples, or scan
#: points); the default grid of 40 000 N intervals stays below it up to N = 104
MAX_INTERVALS = 2**22


class NoBoundStateError(RuntimeError):
    """No level with the requested node count exists below the continuum."""


@dataclass(frozen=True)
class SolverConfig:
    """Uniform grid spacing, outer cutoff and convergence target.

    The grid r_max / step must have between 16 and ``MAX_INTERVALS`` intervals.
    A level is ``converged`` when its error estimate is at most
    ``energy_abs_tol``, an absolute energy in the caller's units.
    """

    step: float
    r_max: float
    energy_abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.step < np.inf and 0.0 < self.r_max < np.inf):
            raise ValidationError("step and r_max must be positive and finite")
        if not 16 <= self.r_max / self.step <= MAX_INTERVALS:
            raise ValidationError(f"grid must have between 16 and {MAX_INTERVALS} intervals")
        if not self.energy_abs_tol > 0.0:
            raise ValidationError("energy_abs_tol must be positive")


def default_solver_config(
    state: QuantumState, spec: ScreeningSpec, units: UnitSystem
) -> SolverConfig:
    """Grid and target scaled to the Coulomb level: fine step, far cutoff.

    The step and cutoff are multiples of the state's Coulomb length
    N hbar^2/(m A).  The convergence target is 1e-9 in units of m A^2/hbar^2,
    because the roundoff floor of the estimate scales with that energy; at
    A = 1 in atomic units it is 1e-9.
    """
    length = state.principal * units.hbar**2 / (units.mass * spec.strength)
    return SolverConfig(
        step=1e-3 * length,
        r_max=40.0 * state.principal * length,
        energy_abs_tol=1e-9 * units.mass * spec.strength**2 / units.hbar**2,
    )


@dataclass(frozen=True)
class RadialFunction:
    """A solved bound state: normalized amplitude samples and metadata.

    ``error_estimate`` estimates |energy - exact level| at the given cutoff
    r_max: the spread of two Richardson steps plus the roundoff floor.
    ``converged`` says whether it is within the config's energy_abs_tol;
    ``error_estimate`` is nan when a caller builds the record without one.
    """

    grid: np.ndarray
    values: np.ndarray
    node_count: int
    energy: float
    converged: bool
    error_estimate: float = float("nan")


def _count_interior_nodes(values: np.ndarray) -> int:
    big = 1e-9 * np.max(np.abs(values))
    sig = values[np.abs(values) > big]
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def _level(v: np.ndarray, h: float, kinetic: float, n: int, vector: bool = False):
    """Eigenvalue n of the three-point Hamiltonian on interior samples ``v``.

    ``kinetic`` is hbar^2/m.  With ``vector`` the result is the pair
    (eigenvalues, eigenvectors) of eigh_tridiagonal, else the eigenvalue.
    """
    diagonal = kinetic / h**2 + v
    off_diagonal = np.full(v.size - 1, -0.5 * kinetic / h**2)
    found = eigh_tridiagonal(
        diagonal, off_diagonal, eigvals_only=not vector, select="i",
        select_range=(n, n), lapack_driver="stebz", tol=_BISECTION_TOL,
    )
    return found if vector else float(found[0])


def _solve(potential, state: QuantumState, units: UnitSystem, config: SolverConfig):
    """The level as a RadialFunction, or the reason why it is not bound."""
    h = config.step
    # intervals, a multiple of four so that r_max is a node of every grid
    intervals = 4 * round(config.r_max / (4.0 * h))
    if intervals // 4 - 1 <= state.n:
        raise ValidationError(f"grid too coarse for a level with {state.n} nodes")
    r = h * np.arange(1, intervals)
    v = np.asarray(potential(r), dtype=float)
    if v.shape != r.shape:
        raise ValidationError(
            f"potential returned shape {v.shape} on a grid of shape {r.shape}; "
            "it must accept and return arrays"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("potential is not finite on the grid")
    if not np.any(v < 0.0):
        return "effective potential is nowhere negative; nothing is bound"

    unbound = (f"level n={state.n}, l={state.ell} lies at E >= 0 on the grid to "
               f"r_max = {intervals * h:g}: a box-quantised continuum state, not bound")
    kinetic = units.hbar**2 / units.mass
    levels, vectors = _level(v, h, kinetic, state.n, vector=True)
    e_h = float(levels[0])
    if e_h >= 0.0:
        return unbound
    e_2h = _level(v[1::2], 2.0 * h, kinetic, state.n)
    e_4h = _level(v[3::4], 4.0 * h, kinetic, state.n)
    energy = (4.0 * e_h - e_2h) / 3.0
    if energy >= 0.0:
        return unbound

    # The level sits some 1e6 times below the diagonal kinetic / h^2 that it
    # is resolved against, and bisection finds the level of the rounded matrix
    # to a small part of eps * kinetic / h^2: 0.006 (1s) to 0.085 (2p, 3p) of
    # it on Coulomb levels, measured against extended-precision bisection
    floor = _EPS * kinetic / h**2 / 8.0
    estimate = abs(energy - (4.0 * e_2h - e_4h) / 3.0) + floor

    chi = vectors[:, 0]
    values = np.zeros(intervals + 1)
    values[1:-1] = chi / sqrt(h)  # unit sum chi_i^2 h, the trapezoidal norm
    if values[np.argmax(np.abs(values))] < 0:
        values = -values
    return RadialFunction(
        grid=h * np.arange(intervals + 1),
        values=values,
        node_count=_count_interior_nodes(values),
        energy=energy,
        converged=estimate <= config.energy_abs_tol,
        error_estimate=estimate,
    )


def solve_bound_state(
    potential, state: QuantumState, units: UnitSystem, config: SolverConfig
) -> RadialFunction:
    """Find the bound level with ``state.n`` interior nodes and its wavefunction.

    ``potential`` maps an array of radii to the effective potential there.
    Raises NoBoundStateError when the potential is nowhere negative or the
    level lies at or above E = 0, where a potential vanishing at infinity
    has its continuum; raises ValidationError when the potential does not
    return finite values of the grid's shape.
    """
    level = _solve(potential, state, units, config)
    if isinstance(level, str):
        # raised here, not inside _solve: the traceback keeps the frames it
        # passes through alive until the cyclic collector runs, and this
        # frame holds no grid-sized arrays
        raise NoBoundStateError(level)
    return level
