import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ecsc import (
    ATOMIC,
    HBAR2M,
    ScreeningSpec,
    ValidationError,
    effective_potential,
    evaluate_potential,
    series_coefficient,
)


class TestEvaluatePotential:
    def test_pure_coulomb_limit(self):
        assert evaluate_potential(1.0, ScreeningSpec(delta=0.0)) == -1.0

    def test_yukawa_reduction(self):
        spec = ScreeningSpec(delta=0.5, g=0.0)
        assert evaluate_potential(2.0, spec) == pytest.approx(-0.5 * math.exp(-1.0), abs=1e-12)

    def test_scalar_value(self):
        # frozen from the truncated series: -(1 - 0.1 + 1e-3/3 - 1e-4/6 + 1e-5/30)
        spec = ScreeningSpec(delta=0.1)
        expect = -math.exp(-0.1) * math.cos(0.1)
        assert evaluate_potential(1.0, spec) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(-0.9003170, abs=5e-8)

    def test_array_input(self):
        spec = ScreeningSpec(delta=0.1, strength=2.0)
        r = np.array([0.5, 1.0, 4.0])
        vals = evaluate_potential(r, spec)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(evaluate_potential(1.0, spec))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_radius(self, bad):
        with pytest.raises(ValidationError):
            evaluate_potential(bad, ScreeningSpec(delta=0.1))

    def test_yukawa_matches_exponential_form(self):
        # g = 0 must agree with -(A/r) exp(-delta r) to machine precision
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            r = float(rng.uniform(0.05, 20.0))
            delta = float(rng.uniform(0.0, 2.0))
            a = float(rng.uniform(0.2, 5.0))
            spec = ScreeningSpec(delta=delta, strength=a, g=0.0)
            want = -(a / r) * math.exp(-delta * r)
            assert evaluate_potential(r, spec) == pytest.approx(want, rel=1e-15, abs=1e-300)


class TestSeriesCoefficients:
    def test_printed_values(self):
        want = [Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 3),
                Fraction(-1, 6), Fraction(1, 30)]
        assert [series_coefficient(i) for i in range(6)] == want

    def test_general_law_matches_complex_power(self):
        # V_i = Re[(-1-1j)^i] / i!, evaluated in floating point as a cross-check
        for i in range(0, 25):
            z = (-1.0 - 1.0j) ** i
            got = float(series_coefficient(i)) * math.factorial(i)
            assert got == pytest.approx(z.real, rel=1e-12, abs=1e-9)

    def test_negative_index(self):
        with pytest.raises(ValidationError):
            series_coefficient(-1)

    def test_non_integer_index(self):
        with pytest.raises(ValidationError):
            series_coefficient(1.5)
        assert series_coefficient(np.int64(3)) == Fraction(1, 3)

    def test_partial_sums_converge_to_potential(self):
        # -(A/r) sum V_i (delta r)^i approaches the closed form for delta*r < 1
        spec = ScreeningSpec(delta=0.2, strength=1.3)
        for r in (0.3, 1.0, 3.0):
            total = sum(float(series_coefficient(i)) * (spec.delta * r) ** i for i in range(40))
            want = evaluate_potential(r, spec)
            assert -(spec.strength / r) * total == pytest.approx(want, rel=1e-13)

    def test_alternating_tail_bound(self):
        # truncation after i = 8 stays below |A/r| (delta r)^9 * 2 for delta r <= 0.3;
        # a few ulps of slack cover the roundoff of evaluating both sides
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = float(rng.uniform(0.05, 10.0))
            delta = float(rng.uniform(0.0, 0.3 / r))
            spec = ScreeningSpec(delta=delta, strength=1.0)
            partial = sum(float(series_coefficient(i)) * (delta * r) ** i for i in range(9))
            err = abs(evaluate_potential(r, spec) - (-(1.0 / r) * partial))
            assert err <= (1.0 / r) * ((delta * r) ** 9 * 2.0 + 1e-15)


class TestEffectivePotential:
    def test_s_wave_has_no_barrier(self):
        assert effective_potential(1.0, ScreeningSpec(delta=0.0), 0, ATOMIC) == -1.0

    def test_p_wave_cancellation_point(self):
        assert effective_potential(1.0, ScreeningSpec(delta=0.0), 1, ATOMIC) == pytest.approx(0.0)

    def test_hbar2m_barrier_weight(self):
        # hbar^2/(2m) = 1 in this preset: -1/2 + 6/4
        got = effective_potential(2.0, ScreeningSpec(delta=0.0), 2, HBAR2M)
        assert got == pytest.approx(1.0)

    def test_negative_ell_rejected(self):
        with pytest.raises(ValidationError):
            effective_potential(1.0, ScreeningSpec(delta=0.1), -1, ATOMIC)

    @pytest.mark.parametrize("r", [1e-170, [1e-170, 1.0]], ids=["scalar", "array"])
    def test_s_wave_where_r_squared_underflows(self, r):
        # r^2 is 0 at r = 1e-170: the s-wave has no barrier to divide 0 by it
        spec = ScreeningSpec(delta=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = effective_potential(r, spec, 0, ATOMIC)
        np.testing.assert_array_equal(got, evaluate_potential(r, spec))
        assert np.ravel(got)[0] == pytest.approx(-1e170, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, [1.0, 0.0]], ids=["zero", "negative", "array"])
    def test_nonpositive_radius_rejected_before_the_barrier(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero in the barrier first
            with pytest.raises(ValidationError):
                effective_potential(bad, ScreeningSpec(delta=0.1), 2, ATOMIC)

