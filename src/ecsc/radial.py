"""Numerical radial bound-state solver, independent of the perturbation theory.

The radial equation -(hbar^2/2m) chi'' + V_eff(r) chi = E chi is solved in
the box [0, r_max] with chi = 0 at both ends, on a Lagrange mesh: the
Gauss-Lobatto-Legendre points of order N mapped onto the box (D. Baye,
Phys. Rep. 565 (2015) 1).  In the basis of the N - 1 interior Lagrange
functions the kinetic matrix is exact and the potential is diagonal, its
values at the mesh points, so the level with n nodes is eigenvalue n of one
dense symmetric matrix.  The energy is the eigenvector's Rayleigh quotient
with its kinetic part summed as squares.  The order grows through
48 1.5^k up to 820 until two orders agree to ``energy_abs_tol``; their
difference, plus the quotient's rounding error (eps times the sum of the
absolute values of its terms), is the error estimate.  The amplitude is the
eigenvector at the mesh points.

The orders do not grow with r_max, so the mesh near the origin coarsens as
the box widens.  On boxes up to ``MAX_BOX_SCALE`` times
:func:`default_solver_config`'s every bound level was found bound; on wider
ones two coarse orders can miss the well and agree on a box state above
E = 0, which is then reported unbound.

The caller supplies the full effective potential including the centrifugal
barrier (see :func:`ecsc.potential.effective_potential`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isfinite

import numpy as np
from scipy.linalg import eigh
from scipy.special import eval_legendre, roots_jacobi

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError

_EPS = float(np.finfo(float).eps)
#: mesh orders N tried in turn
_ORDERS = tuple(round(48 * 1.5**k) for k in range(8))
#: widest box, as a multiple of default_solver_config's, that the orders
#: resolve: Coulomb-limit, ECSC and Yukawa 1s-4f levels at every bound
#: screening stayed bound at 6 times the default box; one (ECSC 4s at
#: delta = 0.04) did not at 8
MAX_BOX_SCALE = 4.0


class NoBoundStateError(RuntimeError):
    """No level with the requested node count exists below the continuum."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer cutoff of the box and convergence target.

    A level is ``converged`` when its error estimate is at most
    ``energy_abs_tol``, an absolute energy in the caller's units.  An r_max
    above ``MAX_BOX_SCALE`` times the default box is accepted but not
    resolved; see the module docstring.
    """

    r_max: float
    energy_abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.r_max < np.inf:
            raise ValidationError("r_max must be positive and finite")
        if not self.energy_abs_tol > 0.0:
            raise ValidationError("energy_abs_tol must be positive")


def default_solver_config(
    state: QuantumState, spec: ScreeningSpec, units: UnitSystem
) -> SolverConfig:
    """Box and target scaled to the Coulomb level: cutoff 40 N Coulomb lengths.

    The cutoff is a multiple of the state's Coulomb length
    N hbar^2/(m A); a Coulomb level 1s-4f then comes out within 5e-14 of
    exact, and one level costs about 1-5 ms.  The convergence target is
    1e-9 in units of m A^2/hbar^2, because the roundoff floor of the
    estimate scales with that energy; at A = 1 in atomic units it is 1e-9.
    """
    length = state.principal * units.hbar**2 / (units.mass * spec.strength)
    return SolverConfig(
        r_max=40.0 * state.principal * length,
        energy_abs_tol=1e-9 * units.mass * spec.strength**2 / units.hbar**2,
    )


@dataclass(frozen=True)
class RadialFunction:
    """A solved bound state: normalized amplitude samples and metadata.

    ``grid`` is the mesh: 0, the interior points and r_max.  ``values`` is
    the amplitude there, zero at both ends, with unit norm under the mesh's
    Gauss-Lobatto quadrature.  ``node_count`` counts its sign changes where
    it exceeds 1e-6 of its largest magnitude.
    ``error_estimate`` estimates |energy - exact level| at the given cutoff
    r_max: the spread of the last two orders plus the quotient's rounding
    error.  It is blind to the cutoff itself: Yukawa 1s at screening 1.0
    (A = 1, atomic units) is -0.0102852 at r_max = 40 and -0.0102858 at 80.
    ``converged`` says whether it is within the config's energy_abs_tol;
    ``error_estimate`` is nan when a caller builds the record without one.
    """

    grid: np.ndarray
    values: np.ndarray
    node_count: int
    energy: float
    converged: bool
    error_estimate: float = float("nan")


@cache
def _mesh(order: int):
    """The Gauss-Lobatto mesh of order ``order`` on [-1, 1]: interior points,
    all weights, the derivatives of the normalised interior Lagrange
    functions at every point and the kinetic matrix -d^2/dx^2 between those
    functions."""
    # the interior points are the zeros of P'_N, a Jacobi polynomial P^(1,1)_(N-1)
    x = np.concatenate(([-1.0], roots_jacobi(order - 1, 1.0, 1.0)[0], [1.0]))
    p = eval_legendre(order, x)
    w = 2.0 / (order * (order + 1) * p**2)
    # d_ij: derivative of Lagrange function j at point i
    gap = x[:, None] - x
    np.fill_diagonal(gap, 1.0)
    d = p[:, None] / (p * gap)
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[-1, -1] = -order * (order + 1) / 4.0, order * (order + 1) / 4.0
    grad = d[:, 1:-1] / np.sqrt(w[1:-1])
    # sum_k w_k grad_ki grad_kj is exact: the integrand has degree 2N - 2
    kinetic = grad.T @ (w[:, None] * grad)
    mesh = x[1:-1], w, grad, kinetic
    for array in mesh:  # every caller shares them
        array.flags.writeable = False
    return mesh


def _count_interior_nodes(values: np.ndarray) -> int:
    big = 1e-6 * np.max(np.abs(values))
    sig = values[np.abs(values) > big]
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def _solve(potential, state: QuantumState, units: UnitSystem, config: SolverConfig):
    """The level as a RadialFunction, or the reason why it is not bound."""
    r_max, n = config.r_max, state.n
    orders = [order for order in _ORDERS if order - 1 > n]
    if len(orders) < 2:
        raise ValidationError(f"no two meshes of up to {_ORDERS[-1]} points hold a level "
                              f"with {n} nodes")
    # -(hbar^2/2m) d^2/dr^2 = -(hbar^2/2m) (2/r_max)^2 d^2/dx^2
    scale = units.hbar**2 / (2.0 * units.mass) * (2.0 / r_max) ** 2
    previous = None
    for order in orders:
        x, w, grad, kinetic = _mesh(order)
        # the largest entry of a positive definite matrix is on its diagonal
        if not isfinite(scale * float(np.max(np.diagonal(kinetic)))):
            raise ValidationError(f"r_max = {r_max:g} is too small: the kinetic matrix overflows")
        r = 0.5 * r_max * (1.0 + x)
        v = np.asarray(potential(r), dtype=float)
        if v.shape != r.shape:
            raise ValidationError(
                f"potential returned shape {v.shape} on a mesh of shape {r.shape}; "
                "it must accept and return arrays"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential is not finite on the mesh")
        if not np.any(v < 0.0):
            return "effective potential is nowhere negative on the mesh; nothing is bound"
        h = scale * kinetic
        h[np.diag_indices(order - 1)] += v
        u = eigh(h, subset_by_index=[n, n])[1][:, 0]
        # the Rayleigh quotient with its kinetic part a sum of squares: eigh's
        # eigenvalue is good only to about eps |h|, this to eps times the sum
        # of the absolute values of the terms it adds up
        g = grad @ u
        energy = float(scale * np.dot(w, g * g) + np.dot(v, u * u))
        roundoff = _EPS * float(scale * np.dot(w, np.abs(g) * (np.abs(grad) @ np.abs(u)))
                                + np.dot(np.abs(v), u * u))
        if previous is not None:
            estimate = abs(energy - previous) + roundoff
            if estimate <= config.energy_abs_tol:
                break
        previous = energy
    if energy >= 0.0 or estimate >= -energy:
        return (f"level n={n}, l={state.ell} lies at E = {energy:.3g} +- {estimate:.1g} on the "
                f"mesh to r_max = {r_max:g}: a box-quantised continuum state, not bound")

    chi = u / np.sqrt(0.5 * r_max * w[1:-1])
    if chi[np.argmax(np.abs(chi))] < 0:
        chi = -chi
    return RadialFunction(
        grid=np.concatenate(([0.0], r, [r_max])),
        values=np.pad(chi, 1),
        node_count=_count_interior_nodes(chi),
        energy=energy,
        converged=estimate <= config.energy_abs_tol,
        error_estimate=estimate,
    )


def solve_bound_state(
    potential, state: QuantumState, units: UnitSystem, config: SolverConfig
) -> RadialFunction:
    """Find the bound level with ``state.n`` interior nodes and its wavefunction.

    ``potential`` maps an array of radii to the effective potential there.
    Raises NoBoundStateError when the potential is nowhere negative on the
    mesh or the level lies at or above E = 0, where a potential vanishing at
    infinity has its continuum, or within its error estimate of it; raises
    ValidationError when the potential does not return finite values of the
    mesh's shape.
    """
    level = _solve(potential, state, units, config)
    if isinstance(level, str):
        # raised here, not inside _solve: the traceback keeps the frames it
        # passes through alive until the cyclic collector runs, and this
        # frame holds no mesh-sized arrays
        raise NoBoundStateError(level)
    return level
