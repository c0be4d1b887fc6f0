import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import ecsc.radial
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

SQ2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def _bisection_level(v, c, n):
    """Reference: eigenvalue n of the matrix (2c + v, -c) by full LAPACK bisection."""
    return float(eigh_tridiagonal(
        2.0 * c + v, np.full(v.size - 1, -c), eigvals_only=True, select="i",
        select_range=(n, n), lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
    )[0])


def _bisection_levels(potential, units, config, n):
    """Reference eigenvalue n on the grids h, 2h, 4h and 8h, each with its
    roundoff floor eps kinetic / (s h)^2 / 8."""
    h = config.step
    v = potential(h * np.arange(1, 8 * round(config.r_max / (8.0 * h))))
    kinetic = units.hbar**2 / units.mass
    out = []
    for stride in (1, 2, 4, 8):
        c = 0.5 * kinetic / (stride * h) ** 2
        out.append((_bisection_level(v[stride - 1::stride], c, n), EPS * 2.0 * c / 8.0))
    return out


def _romberg(e_h, e_2h, e_4h, e_8h):
    """Richardson on each pair of neighbouring grids, then one more column."""
    r_4h, r_2h, r_h = ((4.0 * fine - coarse) / 3.0
                       for coarse, fine in ((e_8h, e_4h), (e_4h, e_2h), (e_2h, e_h)))
    return (16.0 * r_h - r_2h) / 15.0


class TestSolverConfig:
    def test_default_grid_scales_with_state(self):
        cfg1 = default_solver_config(state_from_label("1s"), ScreeningSpec(delta=0.0), ATOMIC)
        cfg4 = default_solver_config(state_from_label("4f"), ScreeningSpec(delta=0.0), ATOMIC)
        assert cfg1.r_max / cfg1.step >= 2000
        assert cfg4.r_max > cfg1.r_max and cfg4.step > cfg1.step

    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(step=0.0, r_max=10.0)
        with pytest.raises(ValidationError):
            SolverConfig(step=1.0, r_max=2.0)
        with pytest.raises(ValidationError):
            SolverConfig(step=1e-3, r_max=10.0, energy_abs_tol=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(step=1e-3, r_max=math.inf)
        with pytest.raises(ValidationError):
            SolverConfig(step=math.nan, r_max=10.0)


class TestPotentialInput:
    def test_potential_must_return_grid_shaped_finite_values(self):
        cfg = SolverConfig(step=1e-2, r_max=10.0)
        st = QuantumState(0, 0)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0, st, ATOMIC, cfg)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0 / r[:-1], st, ATOMIC, cfg)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: np.where(r > 5.0, np.nan, -1.0 / r), st, ATOMIC, cfg)

    def test_grid_must_resolve_the_nodes(self):
        cfg = SolverConfig(step=1.0, r_max=16.0)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0 / r, QuantumState(3, 0), ATOMIC, cfg)

    def test_coarsest_grid_of_one_point(self):
        # 16 intervals leave the 8h grid a single interior point
        cfg = SolverConfig(step=1.0, r_max=16.0)
        with pytest.raises(ValidationError):
            solve_bound_state(lambda r: -1.0 / r, QuantumState(0, 0), ATOMIC, cfg)
        assert solve_bound_state(lambda r: -1.0 / r, QuantumState(0, 0), ATOMIC,
                                 SolverConfig(step=1.0, r_max=24.0)).node_count == 0

    def test_coarsest_grid_of_one_point_is_a_usage_error(self, capsys):
        assert main(["oracle", "--state", "1s", "--delta", "0", "--step", "1", "--rmax", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid too coarse") and "Traceback" not in err


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
    """The second Richardson column: Coulomb levels to 5e-14, amplitudes to 1e-9."""

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
        assert np.trapezoid(rf.values**2, rf.grid) == pytest.approx(1.0, abs=1e-12)


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
        norm = np.trapezoid(rf.values**2, rf.grid)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_grid_refinement_stability(self, solve):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.05)
        pot = lambda r: effective_potential(r, spec, 0, ATOMIC)
        coarse = default_solver_config(st, spec, ATOMIC)
        fine = SolverConfig(step=coarse.step / 2.0, r_max=coarse.r_max)
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
        cfg = SolverConfig(step=1e-3, r_max=40.0)
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

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_target_scales_with_the_level(self, solve, delta):
        # 1s at A = 16 in hbar2m units lies near E = -64, where the roundoff
        # floor of the estimate is some 4e-9; the default target is 1e-9 in
        # units of m A^2 / hbar^2, so it scales with the level
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=delta, strength=16.0)
        assert default_solver_config(st, spec, HBAR2M).energy_abs_tol == pytest.approx(128e-9)
        assert default_solver_config(st, ScreeningSpec(delta=delta), ATOMIC).energy_abs_tol == 1e-9
        rf = solve(st, 16.0, delta, HBAR2M)
        assert rf.converged
        assert abs(rf.energy - total_energy(st, spec, HBAR2M).total) <= rf.error_estimate


class TestAgainstBisection:
    """Inverse iteration lands within two roundoff floors of full bisection."""

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
    def test_grid_levels(self, monkeypatch, label, strength, delta, g, units, r_max):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=delta, strength=strength, g=g)
        cfg = default_solver_config(st, spec, units)
        if r_max is not None:
            cfg = SolverConfig(step=cfg.step, r_max=r_max, energy_abs_tol=cfg.energy_abs_tol)
        pot = lambda r: effective_potential(r, spec, st.ell, units)
        found, refine = {}, ecsc.radial._refine  # grid size -> last eigenvalue refined on it

        def spy(v, *args):
            out = refine(v, *args)
            found[v.size] = out[0]
            return out

        monkeypatch.setattr(ecsc.radial, "_refine", spy)
        rf = solve_bound_state(pot, st, units, cfg)
        sizes = sorted(found, reverse=True)[:4]
        for size, (want, floor) in zip(sizes, _bisection_levels(pot, units, cfg, st.n)):
            assert abs(found[size] - want) <= 2.0 * floor
        assert rf.energy == _romberg(*(found[size] for size in sizes))
        assert rf.node_count == st.n

    def test_level_the_start_grid_cannot_see(self):
        # a deep well 5h wide between the samples of the grids 8h and coarser
        # binds a level below the Coulomb 1s; the ladder, started on 32h, must
        # notice the extra node on 4h and take the well's level there
        pot = lambda r: -1.0 / r - 1e3 * (np.abs(r - 1.012) < 0.0025)
        cfg = SolverConfig(step=1e-3, r_max=40.0)
        rf = solve_bound_state(pot, QuantumState(0, 0), ATOMIC, cfg)
        levels = _bisection_levels(pot, ATOMIC, cfg, 0)
        e_h, floor = levels[0]
        assert rf.node_count == 0
        assert e_h < -1.0
        assert abs(rf.energy - _romberg(*(e for e, _ in levels))) <= 3.0 * floor

    @pytest.mark.parametrize("label, r_max", [("1s", 40.0), ("2s", 60.0)])
    def test_iteration_cap(self, monkeypatch, label, r_max):
        # at step 0.5 inverse iteration runs out of its 8 steps unsettled
        # (1s on the grids of 19 and 39 points, 2s on its start grid); the
        # ladder still lands on the Romberg value of full bisection
        st = state_from_label(label)
        cfg = SolverConfig(step=0.5, r_max=r_max)
        pot = lambda r: effective_potential(r, ScreeningSpec(delta=0.0), st.ell, ATOMIC)
        settled, refine = [], ecsc.radial._refine

        def spy(*args):
            out = refine(*args)
            settled.append(out[2])
            return out

        monkeypatch.setattr(ecsc.radial, "_refine", spy)
        rf = solve_bound_state(pot, st, ATOMIC, cfg)
        assert not all(settled)
        assert rf.node_count == st.n
        levels = _bisection_levels(pot, ATOMIC, cfg, st.n)
        assert abs(rf.energy - _romberg(*(e for e, _ in levels))) <= 1e-13

    def test_start_on_8h(self):
        # 40008 = 8 x 5001 intervals: the start grid is 8h itself
        pot = lambda r: -1.0 / r
        st = QuantumState(0, 0)
        odd = solve_bound_state(pot, st, ATOMIC, SolverConfig(step=1e-3, r_max=40.008))
        ladder = solve_bound_state(pot, st, ATOMIC, SolverConfig(step=1e-3, r_max=40.0))
        assert odd.node_count == 0
        assert abs(odd.energy - ladder.energy) <= odd.error_estimate + ladder.error_estimate


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
        cfg = SolverConfig(step=1e-3, r_max=40.0)
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
