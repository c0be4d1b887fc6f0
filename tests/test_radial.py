import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_legendre

from ecsc import (
    ATOMIC,
    HBAR2M,
    NoBoundStateError,
    QuantumState,
    ScreeningSpec,
    SolverConfig,
    ValidationError,
    coulomb_energy,
    coulomb_wavefunction,
    default_solver_config,
    effective_potential,
    solve_bound_state,
    state_from_label,
    total_energy,
)
from ecsc.cli import main
from ecsc.radial import MAX_BOX_SCALE

SQ2 = math.sqrt(2.0)


def _bisection_level(v, c, n):
    """Reference: eigenvalue n of the matrix (2c + v, -c) by full LAPACK bisection."""
    return float(eigh_tridiagonal(
        2.0 * c + v, np.full(v.size - 1, -c), eigvals_only=True, select="i",
        select_range=(n, n), lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
    )[0])


def _bisection_levels(potential, units, h, r_max, n):
    """Reference eigenvalue n of the three-point Laplacian with chi = 0 at 0
    and r_max, on the grids h, 2h, 4h and 8h."""
    v = potential(h * np.arange(1, 8 * round(r_max / (8.0 * h))))
    kinetic = units.hbar**2 / units.mass
    return [_bisection_level(v[stride - 1::stride], 0.5 * kinetic / (stride * h) ** 2, n)
            for stride in (1, 2, 4, 8)]


def _romberg(e_h, e_2h, e_4h, e_8h):
    """Richardson on each pair of neighbouring grids, then one more column."""
    r_4h, r_2h, r_h = ((4.0 * fine - coarse) / 3.0
                       for coarse, fine in ((e_8h, e_4h), (e_4h, e_2h), (e_2h, e_h)))
    return (16.0 * r_h - r_2h) / 15.0


def _mesh_norm(rf):
    """Gauss-Lobatto quadrature of values^2 over the mesh rf.grid of [0, r_max]."""
    order, r_max = rf.grid.size - 1, rf.grid[-1]
    p = eval_legendre(order, 2.0 * rf.grid / r_max - 1.0)
    return 0.5 * r_max * np.sum(2.0 / (order * (order + 1) * p**2) * rf.values**2)


class TestSolverConfig:
    def test_default_grid_scales_with_state(self):
        cfg1 = default_solver_config(state_from_label("1s"), ScreeningSpec(delta=0.0), ATOMIC)
        cfg4 = default_solver_config(state_from_label("4f"), ScreeningSpec(delta=0.0), ATOMIC)
        # 40 N Coulomb lengths of N a each
        assert (cfg1.r_max, cfg4.r_max) == (40.0, 640.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(r_max=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(r_max=-2.0)
        with pytest.raises(ValidationError):
            SolverConfig(r_max=10.0, energy_abs_tol=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(r_max=math.inf)
        with pytest.raises(ValidationError):
            SolverConfig(r_max=math.nan)


class TestPotentialInput:
    def test_potential_must_return_grid_shaped_finite_values(self):
        cfg = SolverConfig(r_max=10.0)
        st = QuantumState(0, 0)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0, st, ATOMIC, cfg)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0 / r[:-1], st, ATOMIC, cfg)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: np.where(r > 5.0, np.nan, -1.0 / r), st, ATOMIC, cfg)

    def test_grid_must_resolve_the_nodes(self):
        # only the largest mesh, of 819 interior points, holds level 600;
        # the error estimate needs two meshes
        cfg = SolverConfig(r_max=16.0)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0 / r, QuantumState(600, 0), ATOMIC, cfg)

    def test_box_too_small_is_a_usage_error(self, capsys):
        # (2/r_max)^2 hbar^2/2m is finite, the kinetic matrix of order 48 is not
        assert main(["oracle", "--state", "1s", "--delta", "0", "--rmax", "1e-152"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: r_max = 1e-152 is too small") and "Traceback" not in err


class TestCoulombLimit:
    def test_hydrogen_ground(self, solve):
        rf = solve(state_from_label("1s"), 1.0, 0.0, ATOMIC)
        assert rf.energy == pytest.approx(-0.5, abs=1e-7)
        assert rf.converged and rf.node_count == 0

    def test_hydrogen_2p_degeneracy(self, solve):
        rf = solve(state_from_label("2p"), 1.0, 0.0, ATOMIC)
        assert rf.energy == pytest.approx(-0.125, abs=1e-7)

    @pytest.mark.parametrize("label", ["2s", "3p", "3d", "4f"])
    def test_excited_levels(self, solve, label):
        st = state_from_label(label)
        rf = solve(st, 1.0, 0.0, ATOMIC)
        want = coulomb_energy(st, ScreeningSpec(delta=0.0), ATOMIC)
        assert abs(rf.energy - want) <= 1e-6 * abs(want)
        assert rf.node_count == st.n

    def test_other_units_and_strength(self, solve):
        st = QuantumState(1, 1)
        rf = solve(st, 4.0, 0.0, HBAR2M)
        want = coulomb_energy(st, ScreeningSpec(delta=0.0, strength=4.0), HBAR2M)
        assert abs(rf.energy - want) <= 1e-6 * abs(want)


class TestRomberg:
    """Coulomb levels to 5e-14 and amplitudes to 1e-9."""

    @pytest.mark.parametrize("label", ["1s", "2s", "2p", "3s", "3p", "3d", "4s", "4p", "4d", "4f"])
    def test_coulomb_energy(self, solve, label):
        st = state_from_label(label)
        rf = solve(st, 1.0, 0.0, ATOMIC)
        assert abs(rf.energy - coulomb_energy(st, ScreeningSpec(delta=0.0), ATOMIC)) <= 5e-14

    @pytest.mark.parametrize("label", ["1s", "2p", "3d", "4s"])
    def test_coulomb_amplitude(self, solve, label):
        st = state_from_label(label)
        rf = solve(st, 1.0, 0.0, ATOMIC)
        want = coulomb_wavefunction(st, ScreeningSpec(delta=0.0), ATOMIC, rf.grid[1:])
        want *= np.sign(np.dot(want, rf.values[1:]))  # the solver's largest lobe is positive
        assert rf.values[0] == 0.0
        assert np.max(np.abs(rf.values[1:] - want)) <= 1e-9
        assert _mesh_norm(rf) == pytest.approx(1.0, abs=1e-12)


class TestScreenedStates:
    def test_reference_ground_level(self, solve):
        rf = solve(state_from_label("1s"), 1.0, 0.05, ATOMIC)
        assert rf.energy == pytest.approx(-0.4501174, abs=2e-6)

    def test_2s_against_pade_benchmark(self, solve):
        # the sharpest published benchmark for this point is -0.034941
        rf = solve(state_from_label("2s"), 1.0, 0.10, ATOMIC)
        assert rf.energy == pytest.approx(-0.034941, abs=2e-6)
        assert rf.node_count == 1

    def test_monotone_in_screening(self, solve):
        st = state_from_label("1s")
        energies = [solve(st, 1.0, d, ATOMIC).energy for d in (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_yukawa_continuity_to_coulomb(self, solve):
        e = solve(state_from_label("1s"), 1.0, 0.001, ATOMIC, g=0.0).energy
        assert e > -0.5
        assert e == pytest.approx(-0.5, abs=1.2e-3)

    def test_wavefunction_metadata(self, solve):
        rf = solve(state_from_label("3s"), 1.0, 0.01, ATOMIC)
        assert rf.node_count == 2
        assert rf.values[0] == 0.0
        assert abs(rf.values[-1]) < 1e-12 * np.max(np.abs(rf.values))
        assert _mesh_norm(rf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label, delta, g", [
        ("1s", 0.05, 1.0), ("3s", 0.06, 1.0), ("4s", 0.04, 1.0), ("4p", 0.06, 0.0),
    ])
    def test_widest_box_keeps_the_level(self, label, delta, g):
        # a wider box can only lower a level; the last three are reported
        # unbound on a box of 8 to 15 times the default
        st = state_from_label(label)
        spec = ScreeningSpec(delta=delta, g=g)
        pot = lambda r: effective_potential(r, spec, st.ell, ATOMIC)
        cfg = default_solver_config(st, spec, ATOMIC)
        want = solve_bound_state(pot, st, ATOMIC, cfg).energy
        rf = solve_bound_state(pot, st, ATOMIC, SolverConfig(r_max=MAX_BOX_SCALE * cfg.r_max))
        assert rf.converged and rf.node_count == st.n
        assert rf.energy <= want + cfg.energy_abs_tol

    def test_grid_refinement_stability(self, solve):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.05)
        pot = lambda r: effective_potential(r, spec, 0, ATOMIC)
        # a box 1.5 times as wide: no mesh point in common
        coarse = default_solver_config(st, spec, ATOMIC)
        fine = SolverConfig(r_max=1.5 * coarse.r_max)
        e_coarse = solve_bound_state(pot, st, ATOMIC, coarse).energy
        e_fine = solve_bound_state(pot, st, ATOMIC, fine).energy
        assert abs(e_coarse - e_fine) < 1e-8


class TestBracketing:
    """The level lies in [energy - error_estimate, energy + error_estimate]."""

    def test_coulomb_bracket_contains_level(self):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.0)
        pot = lambda r: effective_potential(r, spec, 0, ATOMIC)
        rf = solve_bound_state(pot, st, ATOMIC, default_solver_config(st, spec, ATOMIC))
        lo, hi = rf.energy - rf.error_estimate, rf.energy + rf.error_estimate
        assert lo < -0.5 < hi < 0.0

    def test_screened_bracket(self):
        # -0.4008785 is the closed-form total, good to criterion 6's 1e-5 here
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        pot = lambda r: effective_potential(r, spec, 0, ATOMIC)
        rf = solve_bound_state(pot, st, ATOMIC, default_solver_config(st, spec, ATOMIC))
        assert rf.converged and rf.error_estimate < 1e-9
        assert abs(rf.energy - -0.4008785) < 1e-5

    def test_repulsive_potential(self):
        cfg = SolverConfig(r_max=40.0)
        with pytest.raises(NoBoundStateError):
            solve_bound_state(lambda r: 1.0 / r, QuantumState(0, 0), ATOMIC, cfg)

    def test_overscreened_state_is_reported_missing(self):
        # at delta = 1.0 the screened well holds no n = 2 level
        st = state_from_label("3s")
        spec = ScreeningSpec(delta=1.0)
        pot = lambda r: effective_potential(r, spec, 0, ATOMIC)
        with pytest.raises(NoBoundStateError):
            solve_bound_state(pot, st, ATOMIC, default_solver_config(st, spec, ATOMIC))


class TestErrorEstimate:
    @pytest.mark.parametrize("label", ["1s", "2s", "2p", "3s", "3p", "3d", "4s", "4p", "4d", "4f"])
    def test_coulomb_level_within_estimate(self, solve, label):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=0.0)
        rf = solve(st, 1.0, 0.0, ATOMIC)
        want = coulomb_energy(st, spec, ATOMIC)
        tol = default_solver_config(st, spec, ATOMIC).energy_abs_tol
        assert abs(rf.energy - want) <= rf.error_estimate <= tol
        assert rf.converged

    def test_level_at_the_largest_order(self):
        # 1s at A = 250 in a box of 40 a needs order 820, where eigh's own
        # eigenvalue is good to eps |h|, some 3e-9; the quotient's rounding
        # error is far below the 1e-9 target
        rf = solve_bound_state(lambda r: -250.0 / r, QuantumState(0, 0), ATOMIC,
                               SolverConfig(r_max=40.0))
        assert rf.grid.size == 821
        assert rf.converged and abs(rf.energy - -31250.0) <= rf.error_estimate

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_target_scales_with_the_level(self, solve, delta):
        # 1s at A = 16 in hbar2m units lies near E = -64; the default target
        # is 1e-9 in units of m A^2 / hbar^2, so it scales with the level
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=delta, strength=16.0)
        assert default_solver_config(st, spec, HBAR2M).energy_abs_tol == pytest.approx(128e-9)
        assert default_solver_config(st, ScreeningSpec(delta=delta), ATOMIC).energy_abs_tol == 1e-9
        rf = solve(st, 16.0, delta, HBAR2M)
        assert rf.converged
        assert abs(rf.energy - total_energy(st, spec, HBAR2M).total) <= rf.error_estimate


class TestAgainstBisection:
    """The mesh level matches the box's level by independent means: full
    LAPACK bisection of the three-point Laplacian on an explicit step of 4e-3
    Coulomb lengths, Romberg-extrapolated over the grids h-8h."""

    @pytest.mark.parametrize("label, strength, delta, g, units, r_max", [
        ("1s", 1.0, 0.0, 1.0, ATOMIC, None),
        ("2s", 1.0, 0.0, 1.0, ATOMIC, None),
        ("3d", 1.0, 0.0, 1.0, ATOMIC, 90.0),
        ("4f", 1.0, 0.0, 1.0, ATOMIC, 160.0),
        ("1s", 16.0, 0.0, 1.0, HBAR2M, None),
        ("1s", 1.0, 0.05, 1.0, ATOMIC, None),
        ("2s", 1.0, 0.10, 1.0, ATOMIC, None),
        ("1s", 1.0, 1.0, 0.0, ATOMIC, None),
    ], ids=["coulomb-1s", "coulomb-2s", "coulomb-3d", "coulomb-4f", "A16-hbar2m-1s",
            "screened-1s", "screened-2s", "yukawa-1s"])
    def test_grid_levels(self, label, strength, delta, g, units, r_max):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=delta, strength=strength, g=g)
        cfg = default_solver_config(st, spec, units)
        if r_max is not None:
            cfg = SolverConfig(r_max=r_max, energy_abs_tol=cfg.energy_abs_tol)
        pot = lambda r: effective_potential(r, spec, st.ell, units)
        step = 4e-3 * st.principal * units.hbar**2 / (units.mass * strength)
        rf = solve_bound_state(pot, st, units, cfg)
        want = _romberg(*_bisection_levels(pot, units, step, cfg.r_max, st.n))
        # 1e-11 in units of m A^2 / hbar^2: the reference's roundoff grows with
        # the level, some 6e-11 at A = 16 in hbar2m units (E = -64)
        assert abs(rf.energy - want) <= 1e-2 * cfg.energy_abs_tol
        assert rf.node_count == st.n


def _grid_arrays_held(tb) -> list[str]:
    held = []
    while tb is not None:
        frame = tb.tb_frame
        held += [f"{frame.f_code.co_name}.{name}" for name, value in frame.f_locals.items()
                 if isinstance(value, np.ndarray) and value.size > 1000]
        tb = tb.tb_next
    return held


class TestUnboundTraceback:
    """The traceback of NoBoundStateError keeps its frames alive until the
    cyclic collector runs; none of them may hold a grid-sized array."""

    def test_repulsive_potential(self):
        cfg = SolverConfig(r_max=40.0)
        with pytest.raises(NoBoundStateError) as exc:
            solve_bound_state(lambda r: 1.0 / r, QuantumState(0, 0), ATOMIC, cfg)
        assert _grid_arrays_held(exc.value.__traceback__) == []

    def test_yukawa_2p_past_critical_screening(self, solve):
        # critical screening of the Yukawa 2p level is 0.2202 Coulomb lengths
        with pytest.raises(NoBoundStateError) as exc:
            solve(state_from_label("2p"), 1.0, 0.25, ATOMIC, g=0.0)
        assert _grid_arrays_held(exc.value.__traceback__) == []


class TestDump:
    def test_two_column_roundtrip(self, solve, tmp_path):
        out = tmp_path / "chi.txt"
        assert main(["oracle", "--state", "1s", "--A", "1", "--delta", "0.05",
                     "--out", str(out)]) == 0
        rf = solve(state_from_label("1s"), 1.0, 0.05, ATOMIC)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == rf.grid.size
        r0, v0 = (float(tok) for tok in lines[1].split())
        assert r0 == pytest.approx(rf.grid[1])
        assert v0 == pytest.approx(rf.values[1])
