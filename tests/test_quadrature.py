import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_laguerre

import ecsc

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuadratureSpec,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    ToleranceNotMetError,
    ValidationError,
    coulomb_energy,
    first_order_energy_numeric,
    first_order_shift,
    integrate_density,
    integrate_density_with_error,
    radial_moment,
    scan_delta,
    second_order_coefficients,
    second_order_energy_numeric,
    second_order_shift,
    second_order_terms,
    state_from_label,
    superpotential_first,
    superpotential_first_numeric,
)
from ecsc.quadrature import _GAUSS_NODES, _laguerre_rule

SQ2 = math.sqrt(2.0)
GAUSS = QuadratureSpec(scheme="gauss")


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.scheme == "adaptive"

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(scheme="monte-carlo")


class TestGaussLaguerreRule:
    @pytest.mark.parametrize("nodes", _GAUSS_NODES)
    def test_against_scipy(self, nodes):
        # the gaps to scipy are at most 1.1e-13 relative in the nodes and
        # 1.7e-12 relative in w exp(x), both at 150 nodes; the bounds leave a factor of 2
        x, folded = _laguerre_rule(nodes)
        want_x, want_w = roots_laguerre(nodes)
        assert np.max(np.abs(x - want_x) / want_x) <= 2.2e-13
        want = want_w * np.exp(want_x)
        assert np.max(np.abs(folded - want) / want) <= 3.4e-12


class TestIntegrateDensity:
    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_normalization(self, qspec):
        st = state_from_label("1s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, lambda r: 1.0, qspec)
        assert got == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_ground_mean_square(self, qspec):
        st = state_from_label("1s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, lambda r: r**2, qspec)
        assert got == pytest.approx(3.0, abs=3e-10)

    def test_2s_mean_square(self):
        st = state_from_label("2s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, lambda r: r**2)
        assert got == pytest.approx(42.0, abs=5e-9)

    @pytest.mark.parametrize("label", ["2p", "3s", "3d"])
    def test_matches_analytic_moments(self, label):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=0.0, strength=4.0)
        for k in (1, 3):
            got = integrate_density(st, spec, HBAR2M, lambda r: r**k)
            assert got == pytest.approx(radial_moment(st, spec, HBAR2M, k), rel=1e-10)

    def test_error_estimate_brackets_refinement(self):
        # each scheme's estimate bounds its distance to the exact integral
        # (1/2) integral r^4 (1 - r/2)^2 exp(-1.05 r) dr
        st = state_from_label("2s")
        spec = ScreeningSpec(delta=0.05)
        f = lambda r: r**2 * np.exp(-0.05 * r)
        q = Fraction(21, 20)
        exact = (96 / q**5 - 480 / q**6 + 720 / q**7) / 8
        for qspec in (None, GAUSS):
            val, err = integrate_density_with_error(st, spec, ATOMIC, f, qspec)
            assert abs(Fraction(val) - exact) <= err

    def test_tolerance_failure_carries_best_estimate(self):
        st = state_from_label("1s")
        nasty = lambda r: np.sin(1e5 * r)
        with pytest.raises(ToleranceNotMetError) as exc:
            integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, nasty)
        assert math.isfinite(exc.value.best_estimate)
        assert exc.value.error_estimate > 0.0

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    @pytest.mark.parametrize("strength", [1.0, 0.1, 0.01])
    def test_acceptance_is_scale_free(self, qspec, strength):
        # the same cancelling integral with every length 1, 10 and 100 times
        # longer: it converges at the roundoff floor in every unit
        st = QuantumState(2, 3)
        spec = ScreeningSpec(delta=0.0, strength=strength)
        m2 = radial_moment(st, spec, ATOMIC, 2)
        got = integrate_density(st, spec, ATOMIC, lambda r: r**2 - m2, qspec)
        assert abs(got) <= 1e-14 * m2

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_integrand_takes_arrays_a_few_times(self, qspec):
        seen = []

        def f(r):
            seen.append(type(r))
            return r**2

        integrate_density(state_from_label("3d"), ScreeningSpec(delta=0.1), ATOMIC, f, qspec)
        assert set(seen) == {np.ndarray} and 1 <= len(seen) <= 6

    @pytest.mark.parametrize("scheme", ["adaptive", "gauss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, scheme, value):
        st = state_from_label("1s")
        with pytest.raises(ToleranceNotMetError):
            integrate_density_with_error(st, ScreeningSpec(delta=0.0), ATOMIC,
                                         lambda r: value, QuadratureSpec(scheme=scheme))


class TestCutoff:
    """The adaptive cutoff widens from 40/beta while chi^2 f is not negligible there."""

    def test_wide_level_moment(self):
        # (5,5) spreads past 40/beta: cut there, <r^4> is 1.1e-9 low
        st = QuantumState(5, 5)
        spec = ScreeningSpec(delta=0.1)
        got = integrate_density(st, spec, ATOMIC, lambda r: r**4)
        assert got == pytest.approx(radial_moment(st, spec, ATOMIC, 4), rel=1e-10)

    def test_wide_level_cancelling(self):
        st = QuantumState(5, 5)
        spec = ScreeningSpec(delta=0.0)
        m2 = radial_moment(st, spec, ATOMIC, 2)
        assert abs(integrate_density(st, spec, ATOMIC, lambda r: r**2 - m2)) <= 1e-14 * m2

    @pytest.mark.filterwarnings("error")
    def test_divergent_integrand_raises(self):
        # chi^2 exp(2.2 r) grows like r^2 exp(0.2 r): no cutoff up to 320/beta holds it
        st = state_from_label("1s")
        with pytest.raises(ToleranceNotMetError, match="widest cutoff"):
            integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, lambda r: np.exp(2.2 * r))


class TestFirstOrderNumeric:
    def test_ground_value(self):
        st = state_from_label("1s")
        got = first_order_energy_numeric(st, ScreeningSpec(delta=0.1), ATOMIC)
        assert got == pytest.approx(-0.001, abs=1e-12)

    def test_2s_value(self):
        st = state_from_label("2s")
        got = first_order_energy_numeric(st, ScreeningSpec(delta=0.05), ATOMIC)
        assert got == pytest.approx(-14.0 * 0.05**3, abs=1e-11)

    def test_zero_screening(self):
        st = state_from_label("3d")
        assert first_order_energy_numeric(st, ScreeningSpec(delta=0.0), ATOMIC) == 0.0

    @pytest.mark.parametrize("units,strength", [(ATOMIC, 1.0), (HBAR2M, 8.0)])
    def test_closed_form_equivalence(self, units, strength):
        for n in (0, 1, 2):
            for ell in (0, 1, 2, 3):
                for delta in (0.02, 0.1):
                    st = QuantumState(n, ell)
                    spec = ScreeningSpec(delta=delta, strength=strength)
                    num = first_order_energy_numeric(st, spec, units)
                    closed = first_order_shift(st, spec, units)
                    assert abs(num - closed) <= 1e-10 * abs(closed)


class TestSuperpotentialNumeric:
    def test_matches_closed_form(self):
        for ell in (0, 1):
            for delta in (0.05, 0.1):
                st = QuantumState(0, ell)
                spec = ScreeningSpec(delta=delta)
                w_num = superpotential_first_numeric(st, spec, ATOMIC)
                w_closed = superpotential_first(st, spec, ATOMIC)
                for r in (0.3, 1.0, 2.0, 5.0, 9.0):
                    assert w_num(r) == pytest.approx(w_closed(r), abs=1e-9)

    def test_frozen_ground_value(self):
        # -(delta^3/(3 sqrt 2)) r (r + 2) at r = 1
        st = state_from_label("1s")
        w_num = superpotential_first_numeric(st, ScreeningSpec(delta=0.1), ATOMIC)
        assert w_num(1.0) == pytest.approx(-7.0710678118654754e-4, abs=1e-9)

    def test_origin_limit(self):
        st = state_from_label("1s")
        w_num = superpotential_first_numeric(st, ScreeningSpec(delta=0.1), ATOMIC)
        assert w_num(0.0) == 0.0
        assert abs(w_num(1e-4)) < 1e-7

    def test_past_the_cutoff(self):
        # the tail integral spans [r, r + 40/beta], so W1 holds at and beyond r = 40/beta
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        rs = np.array([30.0, 39.0, 45.0])
        got = superpotential_first_numeric(st, spec, ATOMIC)(rs)
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, superpotential_first(st, spec, ATOMIC)(rs), rtol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_where_chi2_underflows(self):
        # chi^2 underflows past 2 beta r ~ 708 (r ~ 354 here): W1 stays finite
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        rs = np.array([400.0, 1000.0])
        got = superpotential_first_numeric(st, spec, ATOMIC)(rs)
        np.testing.assert_allclose(got, superpotential_first(st, spec, ATOMIC)(rs), rtol=1e-9)

    def test_negative_radius_refused(self):
        w_num = superpotential_first_numeric(state_from_label("1s"), ScreeningSpec(delta=0.1), ATOMIC)
        with pytest.raises(ValidationError, match="nonnegative"):
            w_num(-1.0)

    def test_excited_states_refused(self):
        with pytest.raises(ValidationError):
            superpotential_first_numeric(state_from_label("2s"), ScreeningSpec(delta=0.1), ATOMIC)


class TestSecondOrderNumeric:
    def test_ground_with_closed_w(self):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        w1 = superpotential_first(st, spec, ATOMIC)
        got = second_order_energy_numeric(st, spec, ATOMIC, w1)
        assert got == pytest.approx(1.2141666666666667e-4, abs=1e-10)

    def test_ground_with_numeric_w(self):
        # full numeric chain: cumulative-integral W fed back into the integral
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        w1 = superpotential_first_numeric(st, spec, ATOMIC)
        got = second_order_energy_numeric(st, spec, ATOMIC, w1)
        closed = second_order_shift(st, spec, ATOMIC)
        assert got == pytest.approx(closed, rel=1e-9)

    def test_heavy_case(self):
        st = state_from_label("2p")
        spec = ScreeningSpec(delta=0.2, strength=8.0)
        w1 = superpotential_first(st, spec, HBAR2M)
        got = second_order_energy_numeric(st, spec, HBAR2M, w1)
        assert got == pytest.approx(0.0064133333333333, abs=1e-8)

    def test_zero_screening(self):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.0)
        w1 = superpotential_first(st, spec, ATOMIC)
        assert second_order_energy_numeric(st, spec, ATOMIC, w1) == 0.0

    def test_cancelling_integrand(self):
        # the E2 integrand of this level nearly cancels at this delta; the
        # panel doubling converges on its roundoff floor instead of stalling
        st, delta = QuantumState(2, 3), 0.0872618
        spec = ScreeningSpec(delta=delta, strength=8.0)
        (row,) = scan_delta(st, 8.0, HBAR2M, delta, delta, 1).rows
        square = (superpotential_first(st, spec, HBAR2M, truncated=True) ** 2).coef
        mom = lambda k: radial_moment(st, spec, HBAR2M, k)
        e2 = 8.0 * delta**4 / 6.0 * mom(3) - sum(c * mom(k) for k, c in enumerate(square))
        e0 = coulomb_energy(st, spec, HBAR2M)
        e1 = first_order_shift(st, spec, HBAR2M)
        tolerance = 1e-10 * abs(e1) + 1e-9 * abs(e2) + 4.0 * math.ulp(e0)
        assert abs(row.quadrature - (e0 + 8.0 * delta + e1 + e2)) <= tolerance

    @pytest.mark.parametrize("units,strength", [(ATOMIC, 1.0), (HBAR2M, 8.0)])
    def test_ground_equivalence_grid(self, units, strength):
        for ell in (0, 1, 2, 3):
            for delta in (0.02, 0.1):
                st = QuantumState(0, ell)
                spec = ScreeningSpec(delta=delta, strength=strength)
                w1 = superpotential_first(st, spec, units)
                num = second_order_energy_numeric(st, spec, units, w1)
                closed = second_order_shift(st, spec, units)
                assert abs(num - closed) <= 1e-9 * abs(closed)


class TestResidualReport:
    """The n >= 1 second-order integrals against the printed closed forms.

    The quartic piece is superpotential-free and must agree exactly; the
    sextic piece depends on which hierarchy superpotential is squared.
    """

    def test_quartic_isolation(self):
        for n in (1, 2):
            st = QuantumState(n, 1)
            spec = ScreeningSpec(delta=0.1)
            sixth = spec.delta**4 / 6.0
            quartic = integrate_density(st, spec, ATOMIC, lambda r: sixth * r**3)
            quartic_closed, _ = second_order_terms(st, spec, ATOMIC)
            assert quartic == pytest.approx(quartic_closed, rel=1e-12)

    def test_first_excited_residuals_are_real(self):
        # two-term W integral gives 1856 delta^6 at ell = 0 against the printed
        # 1688 (truncated) and 114176/72 (full); the all-terms W gives 14336/9
        st = state_from_label("2s")
        spec = ScreeningSpec(delta=0.1)
        d4, d6 = spec.delta**4, spec.delta**6
        w_trunc = superpotential_first(st, spec, ATOMIC, truncated=True)
        w_full = superpotential_first(st, spec, ATOMIC, truncated=False)
        num_trunc = second_order_energy_numeric(st, spec, ATOMIC, w_trunc)
        num_full = second_order_energy_numeric(st, spec, ATOMIC, w_full)
        assert num_trunc == pytest.approx(55 * d4 - 1856 * d6, rel=1e-12)
        assert num_full == pytest.approx(55 * d4 - (14336.0 / 9.0) * d6, rel=1e-12)
        closed_trunc = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.TRUNCATED)
        closed_full = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.FULL)
        assert num_trunc - closed_trunc == pytest.approx(-(1856 - 121536 / 72) * d6, rel=1e-9)
        assert num_full - closed_full == pytest.approx(-(14336 / 9 - 114176 / 72) * d6, rel=1e-9)

    def test_second_excited_truncated_matches_closed(self):
        # for n = 2 the two-term route reproduces the printed form exactly
        st = state_from_label("3s")
        spec = ScreeningSpec(delta=0.1)
        w_trunc = superpotential_first(st, spec, ATOMIC, truncated=True)
        num_trunc = second_order_energy_numeric(st, spec, ATOMIC, w_trunc)
        assert num_trunc == pytest.approx(second_order_shift(st, spec, ATOMIC), rel=1e-12)

    def test_first_excited_sextic_is_exact(self):
        # 2s at A = 1, atomic units: the moments are exact floats, and with
        # W1 = -(2 delta^3 / (3 sqrt 2)) (r^2 + 6r + const) the sextic
        # coefficient times 72 is 4 N^2 <(r^2 + 6r + const)^2>
        st = state_from_label("2s")
        mom = [radial_moment(st, ScreeningSpec(delta=0.0), ATOMIC, k) for k in range(5)]
        assert mom == [1.0, 6.0, 42.0, 330.0, 2880.0]
        n2 = st.principal**2

        def sextic72(const):
            # <(r^2 + 6r + c)^2> expanded into moments
            square = (mom[4] + 12 * mom[3] + (36 + 2 * const) * mom[2]
                      + 12 * const * mom[1] + const**2 * mom[0])
            return 4 * n2 * square

        assert sextic72(0) == 133632 == 72 * 1856
        assert sextic72(-8) == 114688 == 72 * 14336 // 9
        assert 4 * mom[3] == 1320
        assert second_order_coefficients(1, 0, SecondOrderVariant.TRUNCATED) == (1320, 121536)
        assert second_order_coefficients(1, 0, SecondOrderVariant.FULL) == (1320, 114176)


def _imported_modules(tree: ast.AST):
    """Every module an import statement names, relative ones under ``ecsc``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ecsc." + base if base else "ecsc"
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


class TestLayering:
    # the three routes stay independent: none imports another or the tables,
    # and the eigensolver does not even use the Coulomb basis; the quadrature
    # has one integrator, its panel-doubling rule, and no QUADPACK beside it
    @pytest.mark.parametrize(
        "route, forbidden",
        [
            ("quadrature", ("ecsc.perturbation", "ecsc.radial", "ecsc.tables", "scipy.integrate")),
            ("perturbation", ("ecsc.quadrature", "ecsc.radial", "ecsc.tables")),
            ("radial", ("ecsc.quadrature", "ecsc.perturbation", "ecsc.tables", "ecsc.coulomb")),
        ],
        ids=["quadrature", "perturbation", "radial"],
    )
    def test_route_imports_no_other_route(self, route, forbidden):
        path = Path(ecsc.__file__).parent / f"{route}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad = [m for m in _imported_modules(tree)
               if any(m == f or m.startswith(f + ".") for f in forbidden)]
        assert bad == []

    # numpy is the only runtime dependency; scipy serves the tests as a reference
    @pytest.mark.parametrize("path", sorted(Path(ecsc.__file__).parent.glob("*.py")),
                             ids=lambda path: path.stem)
    def test_module_imports_no_scipy(self, path):
        # ast.walk reaches imports deferred into function bodies too
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert [m for m in _imported_modules(tree) if m.split(".")[0] == "scipy"] == []

    def test_import_loads_no_scipy(self):
        src = str(Path(ecsc.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, ecsc, ecsc.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"
