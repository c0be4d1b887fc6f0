"""Numerical radial bound-state solver, independent of the perturbation theory.

The radial equation -(hbar^2/2m) chi'' + V_eff(r) chi = E chi is discretised
with the three-point Laplacian on a uniform grid, with chi = 0 at r = 0 and
at r_max.  That gives a symmetric tridiagonal matrix with negative
off-diagonals, whose (n+1)-th lowest eigenvector has exactly n sign changes
(discrete oscillation theorem), so the level with n nodes is eigenvalue n.
LAPACK bisection with Sturm counts (dstebz; Barth, Martin & Wilkinson,
Numer. Math. 9 (1967) 386) finds it on a grid of step 8h 2^k with at least
1024 intervals.  Each finer grid down to h refines the interpolated vector
and the Richardson prediction of the eigenvalue by inverse iteration shifted
to the Rayleigh quotient (Parlett, The Symmetric Eigenvalue Problem, ch. 4);
a grid whose vector has other than n sign changes is bisected instead.
Romberg extrapolation over the grids h, 2h, 4h and 8h gives the energy: a
Richardson step on each neighbouring pair removes the h^2 error term, and a
second column over those steps the h^4 term (Richardson & Gaunt, Phil.
Trans. R. Soc. A 226 (1927) 299; Romberg, Norske Vid. Selsk. Forh. 28
(1955) 30).  The difference of the second-column values over (h, 2h, 4h) and
(2h, 4h, 8h), plus the roundoff floor, is its error estimate.  The amplitude
is the Richardson step of the h and 2h vectors on the 2h points.

The caller supplies the full effective potential including the centrifugal
barrier (see :func:`ecsc.potential.effective_potential`).  It is evaluated
once, on the finest grid; the coarser grids take every 2^k-th point of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError

_EPS = np.finfo(float).eps
# dstebz locates eigenvalues most accurately at twice the underflow threshold
_BISECTION_TOL = 2.0 * np.finfo(float).tiny
# intervals of the bisected start grid; Rayleigh-quotient steps per finer grid
_START_INTERVALS, _MAX_ITERATIONS = 1024, 8
#: largest grid any command allocates, in intervals (or samples, or scan
#: points); the default grid of 10 000 N intervals stays below it up to N = 419
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
    """Grid and target scaled to the Coulomb level: step 4e-3, cutoff 40 N.

    The step and cutoff are multiples of the state's Coulomb length
    N hbar^2/(m A); the Romberg energy of a Coulomb level 1s-4f is then
    within 2e-14 of exact, and one level costs 5-15 ms.  The convergence
    target is 1e-9 in units of m A^2/hbar^2, because the roundoff floor of the
    estimate scales with that energy; at A = 1 in atomic units it is 1e-9.
    """
    length = state.principal * units.hbar**2 / (units.mass * spec.strength)
    return SolverConfig(
        step=4e-3 * length,
        r_max=40.0 * state.principal * length,
        energy_abs_tol=1e-9 * units.mass * spec.strength**2 / units.hbar**2,
    )


@dataclass(frozen=True)
class RadialFunction:
    """A solved bound state: normalized amplitude samples and metadata.

    ``grid`` has spacing 2 step, and ``values`` is the Richardson-extrapolated
    amplitude there, with unit trapezoidal norm.  ``node_count`` counts the
    sign changes of the step-h eigenvector: on a grid too coarse for the
    extrapolation (step 0.5 Coulomb lengths) the tail of ``values`` can
    change sign where that vector does not.
    ``error_estimate`` estimates |energy - exact level| at the given cutoff
    r_max: the spread of two Romberg values plus the roundoff floor.  It is
    blind to the cutoff itself: Yukawa 1s at screening 1.0 (A = 1, atomic
    units) is -0.0102852 at r_max = 40 and -0.0102858 at 80, both +- 3e-12.
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


def _level(v: np.ndarray, c: float, n: int) -> float:
    """Eigenvalue n of the matrix with diagonal 2c + v, off-diagonal -c, by bisection."""
    return float(eigh_tridiagonal(
        2.0 * c + v, np.full(v.size - 1, -c), eigvals_only=True, select="i",
        select_range=(n, n), lapack_driver="stebz", tol=_BISECTION_TOL,
    )[0])


def _refine(v: np.ndarray, c: float, n: int, shift: float, x: np.ndarray, tolerance: float):
    """Inverse iteration, shifted to the Rayleigh quotient, on the matrix of
    ``_level``: (eigenvalue, unit vector, whether it settled on n nodes)."""
    for _ in range(_MAX_ITERATIONS):
        *_, x, info = dgtsv(np.full(v.size - 1, -c), v - (shift - 2.0 * c),
                            np.full(v.size - 1, -c), x, True, True, True, True)
        if info != 0:
            return shift, x, False
        x /= np.linalg.norm(x)
        # x^T T x in difference form: no cancellation against the diagonal 2c
        quotient = c * (np.sum(np.diff(x) ** 2) + x[0] ** 2 + x[-1] ** 2) + np.dot(v, x * x)
        moved, shift = abs(quotient - shift), quotient
        if moved <= tolerance:
            return shift, x, _count_interior_nodes(x) == n
    return shift, x, False


def _solve(potential, state: QuantumState, units: UnitSystem, config: SolverConfig):
    """The level as a RadialFunction, or the reason why it is not bound."""
    h = config.step
    # intervals, a multiple of eight so that r_max is a node of every grid
    intervals = 8 * round(config.r_max / (8.0 * h))
    if intervals // 8 - 1 <= max(state.n, 1):  # the 8h grid needs level n and two points
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
    kinetic, n = units.hbar**2 / units.mass, state.n
    # The level sits some 1e5 times below the diagonal kinetic / h^2.  At step
    # 1e-3 on Coulomb 1s, 2p, 3p and 4f the Rayleigh quotient is within 1.5e-4
    # eps kinetic / h^2 of 80-bit bisection of the unrounded matrix, and bisection
    # of the rounded one within 0.0045 (1s) to 0.086 (2p, 3p); each grid refines
    # to floor / 64.
    floor = _EPS * kinetic / h**2 / 8.0
    # the start grid: the coarsest of step 8h 2^k with _START_INTERVALS or more
    stride = 8
    while intervals % (2 * stride) == 0 and intervals // (2 * stride) >= _START_INTERVALS:
        stride *= 2
    levels, vectors, tolerance = [], [], floor / 64.0
    while stride >= 1:
        grid_v, c = v[stride - 1::stride], 0.5 * kinetic / (stride * h) ** 2
        settled = False
        if levels:
            # the vector interpolated linearly onto this grid, and Richardson's
            # prediction of its level from the two coarser ones
            twice, last = np.repeat(np.pad(x, 1), 2), levels[-2:]
            e, x, settled = _refine(grid_v, c, n, last[-1] + (last[-1] - last[0]) / 4.0,
                                    0.5 * (twice[1:-2] + twice[2:-1]), tolerance)
        if not settled:  # the start grid, or the vector found another level
            start = np.random.default_rng(0).uniform(-1.0, 1.0, grid_v.size)
            e, x, _ = _refine(grid_v, c, n, _level(grid_v, c, n), start, tolerance)
        levels.append(e)
        vectors = [*vectors[-1:], x]
        stride //= 2
    # Romberg: Richardson on (s, 2s) removes the h^2 term, a second column the h^4
    r_4h, r_2h, r_h = ((4.0 * fine - coarse) / 3.0
                       for coarse, fine in zip(levels[-4:-1], levels[-3:]))
    energy = (16.0 * r_h - r_2h) / 15.0
    if levels[-1] >= 0.0 or energy >= 0.0:
        return unbound
    estimate = abs(energy - (16.0 * r_2h - r_4h) / 15.0) + floor

    # (4 chi_h - chi_2h) / 3 at the 2h points, chi_s = x_s / sqrt(s) with the
    # vectors' signs aligned; the renormalisation absorbs the 1/3
    x_2h, x_h = vectors[0], vectors[1][1::2]
    if np.dot(x_2h, x_h) < 0.0:
        x_2h = -x_2h
    chi = 4.0 * x_h / sqrt(h) - x_2h / sqrt(2.0 * h)
    values = np.zeros(intervals // 2 + 1)
    values[1:-1] = chi / sqrt(2.0 * h * np.dot(chi, chi))  # unit trapezoidal norm
    if values[np.argmax(np.abs(values))] < 0:
        values = -values
    return RadialFunction(
        grid=2.0 * h * np.arange(intervals // 2 + 1),
        values=values,
        node_count=_count_interior_nodes(vectors[1]),
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
