"""Numerical radial bound-state solver, independent of the perturbation theory.

The radial equation -(hbar^2/2m) chi'' + V_eff(r) chi = E chi is solved in
the box [0, r_max] with chi = 0 at both ends, on a graded Lagrange mesh: the
Gauss-Lobatto-Legendre points x of order N mapped onto the box by
r = r_max (e^(a t) - 1)/(e^a - 1), t = (1 + x)/2 and a = 3, which crowds
them toward the origin (D. Baye, Phys. Rep. 565 (2015) 1, on mapped
meshes).  In the basis of the N - 1 interior Lagrange functions, each
scaled by 1/sqrt(w_i J_i) with J = (dr/dx)/r_max, the kinetic matrix is
the mesh's Gauss approximation of the exact one and the potential is
diagonal, its values at the mesh points, so the level with n nodes is
eigenvalue n of one dense symmetric matrix.  The order grows through
28 1.5^k up to 718 until two orders agree to ``energy_abs_tol``.
The first order computes eigenvalue n alone.  Each finer order takes one step of
inverse iteration shifted to the previous order's energy (B. N. Parlett, The
Symmetric Eigenvalue Problem, ch. 4): the second from the vector of ones, every
later one from the previous order's eigenvector, evaluated exactly at its own
points by the coarser Lagrange functions (a matrix that each order's cached
mesh record carries).  One potential call covers the first two orders' interior
points; each later order makes its own.  Every right-hand side is scaled by the
power of two nearest the kinetic scale hbar^2/(2 m r_max^2): exact, it changes
no result that stays in the floats without it, and it keeps the vectors in the
floats however far that scale is from 1.  Where the shift lies nearer another
level, the step returns a vector of another node count, and that order computes
its own eigenvalue n and takes the step from the vector of ones shifted to
it.  The energy is the eigenvector's Rayleigh quotient with its kinetic part
summed as squares under the weights w/J.  Its change from the previous order,
plus its rounding error (eps times the sum of the absolute values of its
terms), is the mesh's error estimate.  On it, each of 1680 levels of
:func:`default_solver_config`'s box (1s-4f, Coulomb, ECSC and Yukawa at every
bound screening) stopped at order 42 and took the eigenvalues at order 28
only.  A refined eigenvector keeps about the coarser order's error times the
energy change between the two orders over the distance to the nearest other
level, up to 1e-9 of its largest magnitude where levels crowd (Coulomb N = 20,
or a weakly bound level in a wide box).  So the last order's eigenvector u takes
one more step of inverse iteration, shifted to its own energy, and the
amplitude is u_i/sqrt(r_max w_i J_i).

The wall at r_max raises a level by about (hbar^2/2m) chi'(r_max)^2/(2 kappa),
kappa = sqrt(2 m |E|)/hbar, chi the normalised amplitude; the error estimate
adds twice that.  Without the factor 2 the term came to 0.82-1.01 of
E(r_max) - E(4 r_max) for 1s-3s Coulomb, ECSC and Yukawa levels in 0.15-0.3
times the default box.  The order ladder and the unbound test use the
mesh's estimate alone.

The orders do not grow with r_max, so the mesh near the origin coarsens as
the box widens.  On boxes up to ``MAX_BOX_SCALE`` times
:func:`default_solver_config`'s every bound level was found bound; on wider
ones two coarse orders can miss the well and agree on a box state above
E = 0, which is then reported unbound, or on a level below it with other than
n nodes or decaying within the first mesh point r_1 (kappa r_1 >= 1; the
1289 bound levels that ``tools/solver_digest.py`` solves, in boxes up to 4
times the default, have n nodes and kappa r_1 <= 0.215), which is refused
with ValidationError.

The caller supplies the full effective potential including the centrifugal
barrier (see :func:`ecsc.potential.effective_potential`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from math import exp, expm1, isfinite, log, log2, sqrt
from typing import NamedTuple

import numpy as np

from .core import QuantumState, ScreeningSpec, UnitSystem, ValidationError, coulomb_scales

_EPS = float(np.finfo(float).eps)
#: mesh orders N tried in turn
_ORDERS = tuple(round(28 * 1.5**k) for k in range(9))
#: grading a of the map from the Gauss-Lobatto points to the box
_GRADING = 3.0
#: J = ds/dx at the wall x = 1, the same at every order
_WALL_JACOBIAN = 0.5 * _GRADING * exp(_GRADING) / expm1(_GRADING)
#: bounds every order's largest kinetic entry, which lies at 3.7-3.9 N^4
_KINETIC_BOUND = 4.0 * _ORDERS[-1] ** 4
#: widest box, as a multiple of default_solver_config's, that the orders
#: resolve: Coulomb-limit, ECSC and Yukawa 1s-4f levels at every bound
#: screening stayed bound at 6 times the default box; ECSC 4s at
#: delta = 0.04 did not at 8, and the verdict is not monotone in the width
#: (bound again at 10 and 12, unbound at 15 and 16, bound at 32)
MAX_BOX_SCALE = 4.0


class NoBoundStateError(RuntimeError):
    """No level with the requested node count exists below the continuum."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer cutoff of the box and convergence target.

    A level is ``converged`` when its error estimate is at most
    ``energy_abs_tol``, an absolute energy in the caller's units.  An r_max
    above ``MAX_BOX_SCALE`` times the default box is accepted but not
    resolved: the solve is refused when the level it finds has the wrong node
    count or decays within the first mesh point, but a bound level can still
    be reported unbound there, which nothing detects yet; see the module
    docstring.
    """

    r_max: float
    energy_abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.r_max < np.inf:
            raise ValidationError("r_max must be positive and finite")
        if not 0.0 < self.energy_abs_tol < np.inf:
            raise ValidationError("energy_abs_tol must be positive and finite")


def default_solver_config(
    state: QuantumState, spec: ScreeningSpec, units: UnitSystem
) -> SolverConfig:
    """Box and target scaled to the Coulomb level: cutoff 40 N Coulomb lengths.

    The cutoff is a multiple of the state's Coulomb length N/k, k = m A/hbar^2
    the wavenumber of :func:`ecsc.core.coulomb_scales`; a Coulomb level 1s-4f
    then comes out within 5e-14 of exact at mesh order 42, and one level costs
    about 0.14-0.3 ms on a shared 2-CPU x86-64 machine, as the host's load
    varies.  The convergence target is 1e-9 times the Coulomb energy
    m A^2/hbar^2, because the roundoff floor of the estimate scales with that
    energy.  Raises ValidationError naming A, hbar and m when either scale is
    not a normal float, or when the box is not finite.
    """
    wavenumber, energy = coulomb_scales(spec.strength, units)
    r_max = 40.0 * state.principal * (state.principal / wavenumber)
    if not r_max < np.inf:
        raise ValidationError(
            f"A = {spec.strength:g} with hbar = {units.hbar:g} and m = {units.mass:g} puts the "
            "solver's box 40 N^2 hbar^2/(m A) outside the finite floats")
    return SolverConfig(r_max=r_max, energy_abs_tol=1e-9 * energy)


@dataclass(frozen=True)
class RadialFunction:
    """A solved bound state: normalized amplitude samples and metadata.

    ``grid`` is the mesh: 0, the interior points and r_max.  ``values`` is
    the amplitude there, zero at both ends, with unit norm under the graded
    mesh's quadrature: the sum of w_i (dr/dx)_i values_i^2 over the mesh,
    w the Gauss-Lobatto weights.  ``node_count`` counts its sign changes
    where it exceeds 1e-6 of its largest magnitude.
    ``error_estimate`` estimates |energy - exact level|: the spread of the
    last two orders, plus the quotient's rounding error, plus twice the rise
    the wall at r_max gives the level (see the module docstring).
    ``converged`` says whether it is within the config's energy_abs_tol;
    ``error_estimate`` is nan when a caller builds the record without one.
    """

    grid: np.ndarray
    values: np.ndarray
    node_count: int
    energy: float
    converged: bool
    error_estimate: float = float("nan")


class _Mesh(NamedTuple):
    """Every constant of the graded Gauss-Lobatto mesh of one order N on [0, 1]
    that a solve reads, the prolongation from the order before it included.
    Its arrays are read-only: every caller shares them."""

    x: np.ndarray  # the Gauss-Lobatto-Legendre points on [-1, 1], -1 and 1 included
    p: np.ndarray  # the Legendre polynomial P_N at x
    box: np.ndarray  # s = r/r_max at x: 0, the interior points and 1, the ends exact
    weight: np.ndarray  # the Rayleigh quotient's weights w/J at every point
    grad: np.ndarray  # (i, j): derivative of normalised interior Lagrange function j at point i
    abs_grad: np.ndarray  # |grad|
    root_wj: np.ndarray  # sqrt(w J) at the interior points
    kinetic: np.ndarray  # the Gauss approximation of -d^2/ds^2 between those functions
    prolong: np.ndarray | None  # takes the previous order's eigenvector here; None at the first two


@cache
def _mesh(order: int) -> _Mesh:
    """The graded Gauss-Lobatto mesh of order N = ``order``, one of
    ``_ORDERS``, with w the Gauss-Lobatto weights and J = ds/dx the Jacobian
    of the map."""
    # the interior points are the zeros of P'_N, a Jacobi polynomial P^(1,1)_(N-1):
    # the eigenvalues of its Jacobi matrix (Golub and Welsch, Math. Comp. 23 (1969) 221)
    k = np.arange(1.0, order - 1)
    jacobi = np.diag(np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0))), -1)
    x = np.concatenate(([-1.0], np.linalg.eigvalsh(jacobi), [1.0]))
    previous, p = 1.0, x
    for j in range(1, order):  # P_N by its three-term recurrence
        previous, p = p, ((2 * j + 1) * x * p - j * previous) / (j + 1)
    w = 2.0 / (order * (order + 1) * p**2)
    # s = (e^(a t) - 1)/(e^a - 1) with t = (1 + x)/2, to full relative
    # precision near the origin, where the potential is largest; x = -1 and 1
    # give t = 0 and 1, so s = 0 and 1 exactly
    at = 0.5 * _GRADING * (1.0 + x)
    s = np.expm1(at) / np.expm1(_GRADING)
    jac = 0.5 * _GRADING * np.exp(at) / np.expm1(_GRADING)
    # d_ij: derivative of Lagrange function j at point i
    gap = x[:, None] - x
    np.fill_diagonal(gap, 1.0)
    d = p[:, None] / (p * gap)
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[-1, -1] = -order * (order + 1) / 4.0, order * (order + 1) / 4.0
    root_wj = np.sqrt((w * jac)[1:-1])
    grad = d[:, 1:-1] / root_wj
    # the Gauss approximation: 1/J is not a polynomial, so the sum is not exact
    kinetic = grad.T @ ((w / jac)[:, None] * grad)
    prolong = None
    if order not in _ORDERS[:2]:  # always a solve's first or second order, which prolong nothing
        # entry (i, j): the previous order's Lagrange function j at interior
        # point i, times sqrt(w J) there over that at x_j, in the barycentric
        # form l_j(x) = (1/(P_N(x_j) (x - x_j))) / sum_k 1/(P_N(x_k) (x - x_k)),
        # N that order and k over all its points.  Both even orders of a pair
        # hold x = 0 only to rounding (some 1e-16 apart); there the product form
        # (x^2 - 1) P'_N(x)/(N (N + 1) P_N(x_j) (x - x_j)), P_N taken from the
        # Legendre recurrence, is off by O(1) in l_j, the barycentric ratio is not
        coarse = _mesh(_ORDERS[_ORDERS.index(order) - 1])
        ratios = 1.0 / (coarse.p * (x[1:-1, None] - coarse.x))
        prolong = ratios[:, 1:-1] / np.sum(ratios, axis=1, keepdims=True)
        prolong = prolong * root_wj[:, None] / coarse.root_wj
        prolong.flags.writeable = False
    arrays = x, p, s, w / jac, grad, np.abs(grad), root_wj, kinetic
    for array in arrays:
        array.flags.writeable = False
    return _Mesh(*arrays, prolong)


def _count_interior_nodes(values: np.ndarray) -> int:
    magnitude = np.abs(values)
    sig = values[magnitude > 1e-6 * magnitude.max()]
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def _potential_on(potential, r: np.ndarray) -> np.ndarray:
    """The potential's values at the radii ``r``, refused unless finite and of r's shape."""
    v = np.asarray(potential(r), dtype=float)
    if v.shape != r.shape:
        raise ValidationError(f"potential returned shape {v.shape} on a mesh of shape {r.shape}; "
                              "it must accept and return arrays")
    if not (isfinite(v.min()) and isfinite(v.max())):  # min is nan if any value is nan
        raise ValidationError("potential is not finite on the mesh")
    return v


def _solve(potential, state: QuantumState, units: UnitSystem, config: SolverConfig):
    """The level as a RadialFunction, or the reason why it is not bound."""
    r_max, n = config.r_max, state.n
    orders = [order for order in _ORDERS if order - 1 > n]
    if len(orders) < 2:
        raise ValidationError(f"no two meshes of up to {_ORDERS[-1]} points hold a level "
                              f"with {n} nodes")
    # -(hbar^2/2m) d^2/dr^2 = -(hbar^2/2m) r_max^-2 d^2/ds^2
    try:
        scale = units.hbar**2 / (2.0 * units.mass * r_max**2)
    except ArithmeticError:
        scale = np.nan
    if not (sys.float_info.min <= scale and scale * _KINETIC_BOUND < np.inf):
        size = "small" if 2.0 * (log(units.hbar) - log(r_max)) > log(2.0 * units.mass) else "large"
        raise ValidationError(
            f"r_max = {r_max:g} is too {size} for hbar = {units.hbar:g} and m = {units.mass:g}: "
            "the mesh's kinetic matrix hbar^2/(2 m r_max^2) d^2/ds^2 leaves the normal floats")
    # the right-hand sides' scale: the vectors inverse iteration returns
    # scale as one over h, and unscaled left the floats at A = 1e-70 or 1e90
    unit = 2.0 ** round(log2(scale))
    # one potential call on the first two orders' interior points; a later order makes its own
    first, second = (_mesh(order).box[1:-1] for order in orders[:2])
    v = _potential_on(potential, r_max * np.concatenate((first, second)))
    pair = v[:first.size], v[first.size:]
    u = energy = None
    for i, order in enumerate(orders):
        mesh = _mesh(order)
        v = pair[i] if i < 2 else _potential_on(potential, r_max * mesh.box[1:-1])
        if not v.min() < 0.0:
            return "effective potential is nowhere negative on the mesh; nothing is bound"
        h = scale * mesh.kinetic
        diagonal = h.reshape(-1)[::order]  # a view of h's diagonal
        diagonal += v
        if energy is None:  # the first order: eigenvalue n alone, the second's shift
            energy = float(np.linalg.eigvalsh(h)[n])
            continue
        unshifted = diagonal.copy()
        # one step of inverse iteration shifted to the coarser order's energy, from
        # its eigenvector on this mesh, or at the second order from the vector of ones
        diagonal -= energy
        start = np.ones(order - 1) if u is None else mesh.prolong @ u
        u = np.linalg.solve(h, unit * start)
        if _count_interior_nodes(u / mesh.root_wj) != n:
            # a shift nearer another level: eigenvalue n, then its
            # eigenvector by the same step from the vector of ones
            diagonal[:] = unshifted
            diagonal -= np.linalg.eigvalsh(h)[n]
            u = np.linalg.solve(h, np.full(order - 1, unit))
        u /= sqrt(u @ u)
        # the Rayleigh quotient with its kinetic part a sum of squares: an
        # eigenvalue is good only to about eps |h|, this to eps times the sum
        # of the absolute values of the terms it adds up
        g = mesh.grad @ u
        density = u * u
        previous, energy = energy, float(scale * (mesh.weight @ (g * g)) + v @ density)
        roundoff = _EPS * float(scale * (mesh.weight @ (np.abs(g) * (mesh.abs_grad @ np.abs(u))))
                                + np.abs(v) @ density)
        estimate = abs(energy - previous) + roundoff
        if estimate <= config.energy_abs_tol:
            break
    if energy >= 0.0 or estimate >= -energy:
        return (f"level n={n}, l={state.ell} lies at E = {energy:.3g} +- {estimate:.1g} on the "
                f"mesh to r_max = {r_max:g}: a box-quantised continuum state, not bound")

    # one more step, shifted to the energy just found: a refined vector keeps
    # the coarser order's error times |energy - shift| over the distance to
    # the nearest other level, up to 1e-9 of its peak where levels crowd
    diagonal[:] = unshifted - energy
    u = np.linalg.solve(h, unit * u)
    norm = sqrt(u @ u)
    # twice the wall's rise (see the module docstring), in units of r_max:
    # r_max^(3/2) chi'(r_max) = grad[-1] @ u/J(1) and kappa r_max = sqrt(-E/scale)
    slope = float(mesh.grad[-1] @ u) / (norm * _WALL_JACOBIAN)
    kappa_r_max = sqrt(-energy / scale)
    estimate += scale * slope**2 / kappa_r_max
    chi = u / (norm * sqrt(r_max) * mesh.root_wj)
    nodes = _count_interior_nodes(chi)
    # a bound level has n nodes and decays over many mesh points near the
    # origin; a box far wider than the default misses the well, and its
    # level has other nodes or decays within the first point r_1
    kappa_r1 = kappa_r_max * mesh.box[1]
    if nodes != n or kappa_r1 >= 1.0:
        raise ValidationError(
            f"r_max = {r_max:g} is too wide to resolve level n={n}, l={state.ell}: the mesh's "
            f"level at E = {energy:.3g} has {nodes} nodes and decay rate times first mesh point "
            f"kappa r_1 = {kappa_r1:.3g}, where a bound level has n nodes and kappa r_1 < 1")
    values = np.zeros(order + 1)
    values[1:-1] = -chi if chi[np.argmax(np.abs(chi))] < 0 else chi
    return RadialFunction(grid=r_max * mesh.box, values=values, node_count=nodes, energy=energy,
                          converged=estimate <= config.energy_abs_tol, error_estimate=estimate)


def solve_bound_state(
    potential, state: QuantumState, units: UnitSystem, config: SolverConfig
) -> RadialFunction:
    """Find the bound level with ``state.n`` interior nodes and its wavefunction.

    ``potential`` maps an array of radii to the effective potential there.
    It is called once on the first two mesh orders' interior points together,
    which are not sorted, and once on each later order's, so it must act
    pointwise.  Raises NoBoundStateError when the potential is nowhere
    negative on a mesh or the level lies at or above E = 0, where a potential
    vanishing at infinity has its continuum, or within its error estimate of
    it; raises ValidationError when the potential does not return finite
    values of the mesh's shape, or when the level found has other than n
    nodes or decays within the first mesh point (a box too wide for the mesh).
    """
    level = _solve(potential, state, units, config)
    if isinstance(level, str):
        # raised here, not inside _solve: the traceback keeps the frames it
        # passes through alive until the cyclic collector runs, and this
        # frame holds no mesh-sized arrays
        raise NoBoundStateError(level)
    return level
