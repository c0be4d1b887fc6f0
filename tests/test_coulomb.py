import math
import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, roots_genlaguerre

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    ValidationError,
    coulomb_beta,
    coulomb_energy,
    coulomb_norm,
    coulomb_wavefunction,
    laguerre,
    radial_moment,
    state_from_label,
)
from ecsc.coulomb import _moment_fraction, _norm_ratio

SPEC1 = ScreeningSpec(delta=0.0, strength=1.0)


class TestLaguerre:
    def test_zeroth_order_is_one(self):
        for k in (0, 1, 5):
            assert laguerre(0, k, 3.3) == 1.0

    def test_first_order_root(self):
        # L_1^1(x) = 2 - x
        assert laguerre(1, 1, 2.0) == 0.0

    def test_value_at_zero_is_binomial(self):
        assert laguerre(2, 3, 0.0) == 10.0

    def test_matches_scipy_convention(self):
        xs = np.linspace(0.0, 12.0, 7)
        for n in range(0, 7):
            for k in range(0, 8):
                got = laguerre(n, k, xs)
                want = eval_genlaguerre(n, k, xs)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_exact_sum(self):
        # independent of scipy: sum_m (-1)^m C(n+k, n-m) x^m / m! in exact
        # rationals, at points that are exact binary fractions
        for x in (0.0, 0.5, 3.25, 12.0):
            for n in range(9):
                for k in range(8):
                    terms = [Fraction((-1) ** m * math.comb(n + k, n - m), math.factorial(m))
                             * Fraction(x) ** m for m in range(n + 1)]
                    scale = float(sum(abs(t) for t in terms))
                    assert abs(laguerre(n, k, x) - float(sum(terms))) <= 1e-12 * scale

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValidationError):
            laguerre(-1, 0, 1.0)

    def test_non_integer_orders_rejected(self):
        # scipy would evaluate the Laguerre function of non-integer degree
        for n, k in ((1.5, 1), (1, 1.0)):
            with pytest.raises(ValidationError):
                laguerre(n, k, 0.3)
        assert laguerre(np.int64(1), np.int64(1), 2.0) == 0.0


class TestCoulombEnergy:
    def test_hydrogen_ground(self):
        assert coulomb_energy(state_from_label("1s"), SPEC1, ATOMIC) == -0.5

    def test_strength_and_units(self):
        spec = ScreeningSpec(delta=0.0, strength=4.0)
        assert coulomb_energy(state_from_label("1s"), spec, HBAR2M) == -4.0

    def test_first_excited(self):
        assert coulomb_energy(state_from_label("2s"), SPEC1, ATOMIC) == -0.125

    def test_degeneracy_in_principal_number(self):
        e2s = coulomb_energy(state_from_label("2s"), SPEC1, ATOMIC)
        e2p = coulomb_energy(state_from_label("2p"), SPEC1, ATOMIC)
        assert e2s == e2p


class TestCoulombWavefunction:
    def test_ground_state_closed_form(self):
        # chi_1s(r) = 2 r exp(-r)
        assert coulomb_wavefunction(state_from_label("1s"), SPEC1, ATOMIC, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14
        )
        assert 2.0 * math.exp(-1.0) == pytest.approx(0.7357589, abs=5e-8)

    @pytest.mark.parametrize(
        "label,units,strength",
        [("1s", ATOMIC, 1.0), ("2s", ATOMIC, 1.0), ("2p", ATOMIC, 1.0),
         ("3s", ATOMIC, 1.0), ("3d", ATOMIC, 1.0), ("2p", HBAR2M, 4.0),
         ("4f", HBAR2M, 16.0)],
    )
    def test_unit_normalization(self, label, units, strength):
        st = state_from_label(label)
        spec = ScreeningSpec(delta=0.0, strength=strength)
        beta = coulomb_beta(st, spec, units)
        val, _ = quad(lambda r: coulomb_wavefunction(st, spec, units, r) ** 2,
                      0.0, 60.0 / beta, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_2s_interior_zero_at_two(self):
        # root of L_1^1(2 beta r) with beta = 1/2
        st = state_from_label("2s")
        assert coulomb_wavefunction(st, SPEC1, ATOMIC, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert coulomb_wavefunction(st, SPEC1, ATOMIC, 1.9) * coulomb_wavefunction(
            st, SPEC1, ATOMIC, 2.1
        ) < 0.0

    @pytest.mark.parametrize("n", range(0, 6))
    @pytest.mark.parametrize("ell", range(0, 4))
    def test_node_counts(self, n, ell):
        st = QuantumState(n, ell)
        beta = coulomb_beta(st, SPEC1, ATOMIC)
        r = np.linspace(1e-4, 50.0 / beta, 40001)
        vals = coulomb_wavefunction(st, SPEC1, ATOMIC, r)
        big = np.abs(vals) > 1e-9 * np.max(np.abs(vals))
        sig = vals[big]
        nodes = int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))
        assert nodes == n

    @pytest.mark.parametrize("ell, strength", [(51, 1.0), (60, 1.0), (1, 1e100)],
                             ids=["l=51", "l=60", "A=1e100"])
    def test_norm_refused_outside_the_normal_floats(self, ell, strength):
        # norm^2 = ratio (2 beta)^(2 ell + 3) is subnormal at l = 51, 0.0 at
        # l = 60 (chi would be all zeros), and overflows at l = 1, A = 1e100
        st, spec = QuantumState(0, ell), ScreeningSpec(delta=0.0, strength=strength)
        match = re.escape(f"the {st.label} level with A = {strength:g}, hbar = 1 and m = 1 "
                          "puts its norm^2 outside the normal floats")
        with pytest.raises(ValidationError, match=match):
            coulomb_norm(st, spec, ATOMIC)
        with pytest.raises(ValidationError, match=match):
            coulomb_wavefunction(st, spec, ATOMIC, 1.0)

    def test_norm_kept_up_to_the_last_normal_square(self):
        # l = 50 is the highest normal norm^2 at A = 1: chi still integrates to 1
        st = QuantumState(0, 50)
        two_beta = 2.0 * coulomb_beta(st, SPEC1, ATOMIC)
        x, w = np.polynomial.laguerre.laggauss(80)
        chi = coulomb_wavefunction(st, SPEC1, ATOMIC, x / two_beta)
        assert np.sum(w * np.exp(x) * chi**2) / two_beta == pytest.approx(1.0, rel=1e-12)

    def test_orthogonality_fixed_ell(self):
        for ell in (0, 1):
            for na in range(0, 4):
                for nb in range(na + 1, 4):
                    sa, sb = QuantumState(na, ell), QuantumState(nb, ell)
                    val, _ = quad(
                        lambda r: coulomb_wavefunction(sa, SPEC1, ATOMIC, r)
                        * coulomb_wavefunction(sb, SPEC1, ATOMIC, r),
                        0.0, 400.0, limit=400,
                    )
                    assert abs(val) < 1e-9


class TestRadialMoment:
    def test_normalization_moment(self):
        assert radial_moment(state_from_label("1s"), SPEC1, ATOMIC, 0) == pytest.approx(1.0, rel=1e-15)

    def test_ground_mean_square(self):
        assert radial_moment(state_from_label("1s"), SPEC1, ATOMIC, 2) == pytest.approx(3.0, rel=1e-15)

    def test_2s_mean_square(self):
        # N^2 (5 N^2 + 1 - 3 l (l+1))/2 = 42 at N = 2, l = 0
        assert radial_moment(state_from_label("2s"), SPEC1, ATOMIC, 2) == pytest.approx(42.0, rel=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("k", [-2, -1, 1, 2, 3, 4])
    def test_against_numerical_quadrature(self, n, ell, k):
        st = QuantumState(n, ell)
        spec = ScreeningSpec(delta=0.0, strength=1.5)
        beta = coulomb_beta(st, spec, ATOMIC)
        want, _ = quad(
            lambda r: coulomb_wavefunction(st, spec, ATOMIC, r) ** 2 * r**k,
            0.0, 80.0 / beta, limit=300,
        )
        assert radial_moment(st, spec, ATOMIC, k) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("ell", range(12))
    def test_moment_fractions_against_a_gauss_laguerre_rule(self, ell):
        # <x^k>, x = 2 beta r, k <= 5: scipy's (n + 4)-point generalized
        # Gauss-Laguerre rule with alpha = 2 ell + 2 is exact for chi^2 x^k,
        # its weights scaled to sum to the one exact rational norm^2 (2 ell + 2)!;
        # the largest gap seen was 1.3e-14
        alpha = 2 * ell + 2
        for n in range(6):
            x, w, mu = roots_genlaguerre(n + 4, alpha, mu=True)
            mass = float(_norm_ratio(n, ell) * factorial(alpha))
            density = mass * w / mu * eval_genlaguerre(n, alpha - 1, x) ** 2
            for k in range(6):
                want = float(np.sum(density * x**k))
                assert float(_moment_fraction(n, ell, k)) == pytest.approx(want, rel=3e-14), (n, k)

    @pytest.mark.parametrize("strength", [1e-70, 1e70])
    def test_moment_out_of_the_floats_is_refused(self, strength):
        # (2 beta)^5 underflows to 0 (a ZeroDivisionError) or overflows
        spec = ScreeningSpec(delta=0.0, strength=strength)
        with pytest.raises(OverflowError, match="^" + re.escape(
                f"<r^5> of the 1s level with A = {strength:g}, hbar = 1 and m = 1 "
                "leaves the floats") + "$"):
            radial_moment(state_from_label("1s"), spec, ATOMIC, 5)

    def test_divergent_request_rejected(self):
        with pytest.raises(ValidationError):
            radial_moment(state_from_label("1s"), SPEC1, ATOMIC, -3)

    def test_non_integer_power_rejected(self):
        st = state_from_label("2p")
        with pytest.raises(ValidationError):
            radial_moment(st, SPEC1, ATOMIC, 1.5)
        assert radial_moment(st, SPEC1, ATOMIC, np.int64(2)) == radial_moment(st, SPEC1, ATOMIC, 2)

    def test_units_scaling(self):
        # <r^k> scales as (hbar^2/(m A))^k
        st = state_from_label("2p")
        spec = ScreeningSpec(delta=0.0, strength=8.0)
        got = radial_moment(st, spec, HBAR2M, 2)
        length = HBAR2M.hbar**2 / (HBAR2M.mass * spec.strength)
        want = radial_moment(st, SPEC1, ATOMIC, 2) * length**2
        assert got == pytest.approx(want, rel=1e-13)

    def test_virial_identity(self):
        # A <1/r> equals twice the binding energy of the level, exactly
        for label in ("1s", "2s", "2p", "3s", "3p", "3d"):
            st = state_from_label(label)
            for units, strength in ((ATOMIC, 1.0), (HBAR2M, 16.0)):
                spec = ScreeningSpec(delta=0.0, strength=strength)
                lhs = strength * radial_moment(st, spec, units, -1)
                rhs = 2.0 * abs(coulomb_energy(st, spec, units))
                assert lhs == pytest.approx(rhs, rel=1e-12)
