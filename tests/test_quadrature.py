import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import ecsc
import ecsc.quadrature
from ecsc import (
    ATOMIC,
    HBAR2M,
    QuadratureSpec,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    ToleranceNotMetError,
    ValidationError,
    coulomb_beta,
    coulomb_energy,
    first_order_energy_numeric,
    first_order_shift,
    integrate_density,
    radial_moment,
    scan_delta,
    second_order_coefficients,
    second_order_energy_numeric,
    second_order_shift,
    second_order_terms,
    state_from_label,
    superpotential_first,
)
from ecsc.coulomb import _moment_fraction

SQ2 = math.sqrt(2.0)
GAUSS = QuadratureSpec(scheme="gauss")


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.scheme == "gauss"

    def test_validation(self):
        for scheme in ("monte-carlo", "adaptive"):
            with pytest.raises(ValidationError):
                QuadratureSpec(scheme=scheme)


class TestIntegrateDensity:
    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_normalization(self, qspec):
        # and through E2: at delta = 0 a constant W1 = 1 leaves -integral chi^2
        st = state_from_label("1s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, (1.0,))
        assert got == pytest.approx(1.0, abs=1e-10)
        e2 = second_order_energy_numeric(st, ScreeningSpec(delta=0.0), ATOMIC,
                                         Polynomial([1.0]), qspec)
        assert e2 == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_ground_mean_square(self, qspec):
        # and through E2: at delta = 0, W1 = r leaves -integral chi^2 r^2
        st = state_from_label("1s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, (0.0, 0.0, 1.0))
        assert got == pytest.approx(3.0, abs=3e-10)
        e2 = second_order_energy_numeric(st, ScreeningSpec(delta=0.0), ATOMIC,
                                         Polynomial([0.0, 1.0]), qspec)
        assert e2 == pytest.approx(-3.0, abs=3e-10)

    def test_2s_mean_square(self):
        st = state_from_label("2s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, (0.0, 0.0, 1.0))
        assert got == pytest.approx(42.0, abs=5e-9)

    @pytest.mark.parametrize("label", ["2p", "3s", "3d"])
    def test_matches_analytic_moments(self, label):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=0.0, strength=4.0)
        for k in (1, 3):
            got = integrate_density(st, spec, HBAR2M, (0.0,) * k + (1.0,))
            assert got == pytest.approx(radial_moment(st, spec, HBAR2M, k), rel=1e-10)

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    @pytest.mark.parametrize("strength", [1.0, 0.1, 0.01])
    def test_acceptance_is_scale_free(self, qspec, strength):
        # the same cancelling integrals with every length 1, 10 and 100 times
        # longer: they cancel to their rounding in every unit; in E2 the
        # constant W1 with W1^2 = A delta^4/6 <r^3> cancels the r^3 term
        st = QuantumState(2, 3)
        spec = ScreeningSpec(delta=0.0, strength=strength)
        m2 = radial_moment(st, spec, ATOMIC, 2)
        got = integrate_density(st, spec, ATOMIC, (-m2, 0.0, 1.0))
        assert abs(got) <= 1e-14 * m2
        spec = ScreeningSpec(delta=0.01 * strength, strength=strength)
        r3 = spec.strength * spec.delta**4 / 6.0 * radial_moment(st, spec, ATOMIC, 3)
        e2 = second_order_energy_numeric(st, spec, ATOMIC, Polynomial([math.sqrt(r3)]), qspec)
        assert abs(e2) <= 1e-14 * r3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, value):
        # a non-finite coefficient is refused before any sum is formed
        st = state_from_label("1s")
        for coef in ((value,), (0.0, 1.0, -value)):
            with pytest.raises(ValidationError, match="at most six finite numbers"):
                integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, coef)

    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_coefficients_are_any_sequence(self, kind):
        st = state_from_label("2s")
        got = integrate_density(st, ScreeningSpec(delta=0.1), ATOMIC, kind([0.0, 0.0, 1.0]))
        assert got == pytest.approx(42.0, abs=5e-9)

    def test_a_power_that_leaves_the_floats_is_not_finite(self):
        # (2 beta)^-3 overflows at A = 1e-150: a not-finite integral, not an
        # OverflowError, while the lower powers stay exact
        st, spec = state_from_label("1s"), ScreeningSpec(delta=0.0, strength=1e-150)
        assert integrate_density(st, spec, ATOMIC, (1.0,)) == pytest.approx(1.0, rel=1e-14)
        assert integrate_density(st, spec, ATOMIC, (0.0, 0.0, 1e-300)) == pytest.approx(
            radial_moment(st, spec, ATOMIC, 2) * 1e-300, rel=1e-13)
        with pytest.raises(ToleranceNotMetError, match="not finite"):
            integrate_density(st, spec, ATOMIC, (0.0, 0.0, 0.0, 1.0))

    def test_seven_coefficients_are_refused(self):
        st = state_from_label("2s")
        integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, (0.0,) * 5 + (1.0,))
        with pytest.raises(ValidationError, match="at most six finite numbers"):
            integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, (0.0,) * 6 + (1.0,))

    def test_tolerance_failure_carries_best_estimate(self):
        # finite coefficients whose sum leaves the floats: not finite, and
        # the best estimate is that sum
        st, coef = state_from_label("1s"), (0.0,) * 5 + (1e308,)
        with pytest.raises(ToleranceNotMetError, match="not finite") as exc:
            integrate_density(st, ScreeningSpec(delta=0.0), ATOMIC, coef)
        assert exc.value.best_estimate == math.inf and exc.value.error_estimate == math.inf


class TestDensityCache:
    """The exact moments of chi^2 dr are cached per (n, ell) in the unit-free x = 2 beta r."""

    @pytest.mark.parametrize("qspec", [None, GAUSS])
    def test_warm_integral_calls_no_laguerre(self, qspec, monkeypatch):
        # nor np.linalg.eigh, cold or warm: the first integral of a level
        # fills its cached moments from exact rationals, and a later integral,
        # and an E2 under either spec, reads them alone
        st, spec = state_from_label("3d"), ScreeningSpec(delta=0.1)
        calls = []
        real, real_eigh = ecsc.quadrature.laguerre, np.linalg.eigh
        monkeypatch.setattr(ecsc.quadrature, "laguerre", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a) or real_eigh(*a))
        ecsc.quadrature._moments.cache_clear()
        integrate_density(st, spec, ATOMIC, (0.0, 0.0, 1.0))
        got = integrate_density(st, spec, HBAR2M, (0.0, 0.0, 1.0))
        w1 = superpotential_first(st, spec, HBAR2M)
        e2 = second_order_energy_numeric(st, spec, HBAR2M, w1, qspec)
        assert calls == []
        assert got == pytest.approx(radial_moment(st, spec, HBAR2M, 2), rel=1e-10)
        assert e2 == pytest.approx(second_order_shift(st, spec, HBAR2M), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("qspec", [None, GAUSS])
    @pytest.mark.parametrize("strength", [1e-20, 1e20])
    def test_extreme_length_units(self, strength, qspec):
        # (2 beta)^17 and r^16 leave the float range here; x^16 does not
        st = QuantumState(0, 7)
        spec = ScreeningSpec(delta=0.05 * strength / st.principal, strength=strength)
        e1 = first_order_energy_numeric(st, spec, ATOMIC)
        assert e1 == pytest.approx(first_order_shift(st, spec, ATOMIC), rel=1e-10)
        w1 = superpotential_first(st, spec, ATOMIC)
        e2 = second_order_energy_numeric(st, spec, ATOMIC, w1, qspec)
        assert e2 == pytest.approx(second_order_shift(st, spec, ATOMIC), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("qspec", [None, GAUSS])
    @pytest.mark.parametrize("ell", [40, 60])
    def test_high_angular_momentum(self, ell, qspec):
        # norm^2 underflows and r^(2 ell + 2) overflows a float here
        st = QuantumState(0, ell)
        spec = ScreeningSpec(delta=0.05 / st.principal)
        e1 = first_order_energy_numeric(st, spec, ATOMIC)
        assert e1 == pytest.approx(first_order_shift(st, spec, ATOMIC), rel=1e-10)
        w1 = superpotential_first(st, spec, ATOMIC)
        e2 = second_order_energy_numeric(st, spec, ATOMIC, w1, qspec)
        assert e2 == pytest.approx(second_order_shift(st, spec, ATOMIC), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("units,strength", [(ATOMIC, 1.0), (HBAR2M, 8.0)])
    @pytest.mark.parametrize("scale", [1.0, 1e20, 1e-20])
    def test_matches_exact_moment_sums(self, units, strength, scale):
        # chi^2 times a polynomial of degree <= 5, n <= 3, ell <= 60: within
        # 1e-13 of integral chi^2 |f| of the exact Fraction sum, for each r^k
        # the sum takes and some sums of them; r^k - <r^k> cancels to the
        # rounding of <r^k>; the largest gap seen was 1.1e-14
        spec = ScreeningSpec(delta=0.0, strength=strength * scale)
        polys = ((0, 0, 1), (0, 0, 0, 1), (1, 1, 1, 1, 1))
        for n in range(4):
            for ell in range(61):
                st = QuantumState(n, ell)
                two_beta = Fraction(2.0 * coulomb_beta(st, spec, units))
                mom = [_moment_fraction(n, ell, k) / two_beta**k for k in range(6)]
                # (coefficients, exact integral, integral chi^2 |f| or a bound on it)
                cases = [(c, sum(ck * mom[k] for k, ck in enumerate(c)),
                          sum(ck * mom[k] for k, ck in enumerate(c))) for c in polys]
                for k in range(6):
                    cases.append(((0.0,) * k + (1.0,), mom[k], mom[k]))
                for k in range(1, 6):
                    m = float(mom[k])
                    cases.append(((-m,) + (0.0,) * (k - 1) + (1.0,), mom[k] - Fraction(m),
                                  2 * mom[k]))
                for coef, exact, absolute in cases:
                    got = integrate_density(st, spec, units, coef)
                    assert abs(Fraction(got) - exact) <= 1e-13 * absolute, (n, ell, coef)


class TestCutoff:
    """The sum has no cutoff: a wide level is integrated exactly."""

    def test_wide_level_moment(self):
        # (5,5) spreads furthest of the levels tested, past r = 40/beta
        st = QuantumState(5, 5)
        spec = ScreeningSpec(delta=0.1)
        got = integrate_density(st, spec, ATOMIC, (0.0, 0.0, 0.0, 0.0, 1.0))
        assert got == pytest.approx(radial_moment(st, spec, ATOMIC, 4), rel=1e-10)

    def test_wide_level_cancelling(self):
        st = QuantumState(5, 5)
        spec = ScreeningSpec(delta=0.0)
        m2 = radial_moment(st, spec, ATOMIC, 2)
        assert abs(integrate_density(st, spec, ATOMIC, (-m2, 0.0, 1.0))) <= 1e-14 * m2


def _assert_scan_matches_moments(st, strength, units, delta):
    """The one-point scan's quadrature column is E0 + A delta + E1 + E2, E2 the
    integral of A delta^4/6 r^3 - W1^2 from ``radial_moment``, within the
    tolerance perfbench's cross-check points apply."""
    spec = ScreeningSpec(delta=delta, strength=strength)
    (row,) = scan_delta(st, strength, units, delta, delta, 1).rows
    square = (superpotential_first(st, spec, units) ** 2).coef
    mom = lambda k: radial_moment(st, spec, units, k)
    e2 = strength * delta**4 / 6.0 * mom(3) - sum(c * mom(k) for k, c in enumerate(square))
    e0 = coulomb_energy(st, spec, units)
    e1 = first_order_shift(st, spec, units)
    tolerance = 1e-10 * abs(e1) + 1e-9 * abs(e2) + 4.0 * math.ulp(e0)
    assert abs(row.quadrature - (e0 + strength * delta + e1 + e2)) <= tolerance


class TestDeepLevels:
    """From n = 22 on, sums over a float Gauss-Laguerre rule went wrong with
    no error: its tiny tail weights keep only absolute accuracy, and
    L_n(x)^2 is huge there.  The exact moments hold at every n."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ell", [0, 5])
    @pytest.mark.parametrize("n", [22, 25, 30])
    def test_normalization_and_first_order(self, n, ell):
        st, spec = QuantumState(n, ell), ScreeningSpec(delta=1e-4)
        assert integrate_density(st, spec, ATOMIC, (1.0,)) == pytest.approx(1.0, abs=1e-14)
        closed = first_order_shift(st, spec, ATOMIC)
        assert first_order_energy_numeric(st, spec, ATOMIC) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("ell", [0, 5])
    def test_scan_quadrature_column(self, ell):
        _assert_scan_matches_moments(QuantumState(30, ell), 1.0, ATOMIC, 1e-4)


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


class TestSecondOrderNumeric:
    def test_ground_with_closed_w(self):
        st = state_from_label("1s")
        spec = ScreeningSpec(delta=0.1)
        w1 = superpotential_first(st, spec, ATOMIC)
        got = second_order_energy_numeric(st, spec, ATOMIC, w1)
        assert got == pytest.approx(1.2141666666666667e-4, abs=1e-10)

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
        # sum stays within its rounding
        _assert_scan_matches_moments(QuantumState(2, 3), 8.0, HBAR2M, 0.0872618)

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

    def test_w1_is_read_from_its_coefficients(self, monkeypatch):
        def refuse(self, arg):
            raise AssertionError("Polynomial.__call__")

        st, spec = state_from_label("2s"), ScreeningSpec(delta=0.1)
        w1 = superpotential_first(st, spec, ATOMIC, SecondOrderVariant.FULL)
        monkeypatch.setattr(Polynomial, "__call__", refuse)
        assert second_order_energy_numeric(st, spec, ATOMIC, w1) == pytest.approx(
            55 * 0.1**4 - (14336.0 / 9.0) * 0.1**6, rel=1e-12)

    @pytest.mark.parametrize("units,strength", [(ATOMIC, 1.0), (HBAR2M, 8.0)])
    def test_matches_the_squared_polynomial(self, units, strength):
        # against the exact Fraction integral of A delta^4/6 r^3 - w1(r)^2 with
        # the float coefficients, within 32 eps times the integral of chi^2
        # (A delta^4/6 r^3 + w1(r)^2) >= integral chi^2 |f|; the largest gap
        # seen was 13.9 eps here, and 14.6 eps for a sum over the nodes
        eps = np.finfo(float).eps
        for n in range(4):
            for ell in range(5):
                st = QuantumState(n, ell)
                for delta in (0.02, 0.1):
                    spec = ScreeningSpec(delta=delta, strength=strength)
                    two_beta = Fraction(2.0 * coulomb_beta(st, spec, units))
                    mom = [_moment_fraction(n, ell, k) / two_beta**k for k in range(5)]
                    quartic = Fraction(strength * delta**4 / 6.0) * mom[3]
                    for variant in SecondOrderVariant:
                        w1 = superpotential_first(st, spec, units, variant)
                        c = [Fraction(ck) for ck in w1.coef.tolist()]
                        square = sum(ci * cj * mom[i + j]
                                     for i, ci in enumerate(c) for j, cj in enumerate(c))
                        got = second_order_energy_numeric(st, spec, units, w1)
                        bound = 32 * eps * (quartic + square)
                        assert abs(Fraction(got) - (quartic - square)) <= bound, (
                            n, ell, delta, variant)

    @pytest.mark.parametrize("w1", [
        Polynomial((0.0, 1.0, 1.0), domain=(0.0, 2.0)),
        Polynomial((0.0, 1.0, 1.0), window=(0.0, 1.0)),
        Polynomial((0.0, 0.0, 0.0, 1.0)),
        lambda r: r**2,
    ], ids=["domain", "window", "cubic", "callable"])
    def test_other_w1_is_refused(self, w1):
        st = state_from_label("1s")
        with pytest.raises(ValidationError, match="w1 must be a Polynomial of degree <= 2"):
            second_order_energy_numeric(st, ScreeningSpec(delta=0.1), ATOMIC, w1)

    def test_short_w1_is_padded(self):
        # a constant or linear Polynomial is a quadratic with zero top coefficients
        st, spec = state_from_label("2p"), ScreeningSpec(delta=0.1)
        got = [second_order_energy_numeric(st, spec, ATOMIC, Polynomial(c))
               for c in ((0.5,), (0.5, 0.25), (0.5, 0.25, 0.0))]
        assert got[0] != got[1] == got[2]


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
            quartic = integrate_density(st, spec, ATOMIC, (0.0, 0.0, 0.0, sixth))
            quartic_closed, _ = second_order_terms(st, spec, ATOMIC)
            assert quartic == pytest.approx(quartic_closed, rel=1e-12)

    def test_first_excited_residuals_are_real(self):
        # two-term W integral gives 1856 delta^6 at ell = 0 against the printed
        # 1688 (truncated) and 114176/72 (full); the all-terms W gives 14336/9
        st = state_from_label("2s")
        spec = ScreeningSpec(delta=0.1)
        d4, d6 = spec.delta**4, spec.delta**6
        w_trunc = superpotential_first(st, spec, ATOMIC, SecondOrderVariant.TRUNCATED)
        w_full = superpotential_first(st, spec, ATOMIC, SecondOrderVariant.FULL)
        num_trunc = second_order_energy_numeric(st, spec, ATOMIC, w_trunc)
        num_full = second_order_energy_numeric(st, spec, ATOMIC, w_full)
        assert num_trunc == pytest.approx(55 * d4 - 1856 * d6, rel=1e-12)
        assert num_full == pytest.approx(55 * d4 - (14336.0 / 9.0) * d6, rel=1e-12)
        closed_trunc = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.TRUNCATED)
        closed_full = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.FULL)
        assert num_trunc - closed_trunc == pytest.approx(-(1856 - 121536 / 72) * d6, rel=1e-9)
        assert num_full - closed_full == pytest.approx(-(14336 / 9 - 114176 / 72) * d6, rel=1e-9)

    def test_second_excited_truncated_matches_closed(self):
        # for n = 2 the two-term route reproduces the printed form exactly; the
        # level has one form, so both variants give it
        st = state_from_label("3s")
        spec = ScreeningSpec(delta=0.1)
        for variant in SecondOrderVariant:
            w1 = superpotential_first(st, spec, ATOMIC, variant)
            num = second_order_energy_numeric(st, spec, ATOMIC, w1)
            assert num == pytest.approx(second_order_shift(st, spec, ATOMIC, variant), rel=1e-12)

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
    # sums the exact moments of the density, with no QUADPACK beside them,
    # and does not import radial_moment, the float moments it is checked against
    @pytest.mark.parametrize(
        "route, forbidden",
        [
            ("quadrature", ("ecsc.perturbation", "ecsc.radial", "ecsc.tables", "scipy.integrate",
                            "ecsc.coulomb.radial_moment")),
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

    def test_import_fills_no_cache(self):
        # moments, meshes, densities and level records are built on first use, not at import
        src = str(Path(ecsc.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, ecsc, ecsc.cli; "
                "caches = {f'{m.__name__}.{name}': f.cache_info().currsize "
                "for m in list(sys.modules.values()) if m.__name__.startswith('ecsc') "
                "for name, f in vars(m).items() if hasattr(f, 'cache_info')}; "
                "print(sorted(caches)); print(sorted(k for k, v in caches.items() if v))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        found, filled = run.stdout.splitlines()
        for cache in ("quadrature._moments", "quadrature._density", "perturbation._level",
                      "radial._mesh"):
            assert f"'ecsc.{cache}'" in found
        assert filled == "[]"

    def test_import_loads_no_scipy(self):
        src = str(Path(ecsc.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, ecsc, ecsc.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"
