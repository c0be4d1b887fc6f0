import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    ValidationError,
    coulomb_wavefunction,
    first_order_shift,
    ground_coefficients,
    ground_wavefunction,
    radial_moment,
    second_order_coefficients,
    second_order_shift,
    second_order_terms,
    state_from_label,
    superpotential_first,
    superpotential_second_ground,
    superpotential_w0,
    total_energy,
    wavefunction_polynomial,
)
from ecsc.coulomb import _moment_fraction
from ecsc import perturbation
from ecsc.perturbation import first_order_coefficient

SQ2 = math.sqrt(2.0)


class TestFirstOrder:
    def test_ground_atomic(self):
        # -(delta^3/3) <r^2> with <r^2> = 3
        spec = ScreeningSpec(delta=0.1)
        assert first_order_shift(state_from_label("1s"), spec, ATOMIC) == pytest.approx(
            -0.001, rel=1e-13
        )

    def test_2p_high_strength(self):
        spec = ScreeningSpec(delta=0.2, strength=8.0)
        got = first_order_shift(state_from_label("2p"), spec, HBAR2M)
        assert got == pytest.approx(-0.04, rel=1e-13)

    def test_2s_high_strength(self):
        spec = ScreeningSpec(delta=0.2, strength=16.0)
        got = first_order_shift(state_from_label("2s"), spec, HBAR2M)
        assert got == pytest.approx(-0.028, rel=1e-13)

    @pytest.mark.parametrize("n", range(0, 6))
    @pytest.mark.parametrize("ell", range(0, 7))
    def test_moment_identity(self, n, ell):
        # closed form == -(A delta^3/3) <r^2>, an exact polynomial identity in ell
        st = QuantumState(n, ell)
        for units, strength in ((ATOMIC, 1.0), (HBAR2M, 16.0)):
            spec = ScreeningSpec(delta=0.07, strength=strength)
            closed = first_order_shift(st, spec, units)
            moment = -(strength * spec.delta**3 / 3.0) * radial_moment(st, spec, units, 2)
            assert closed == pytest.approx(moment, rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("ell", range(0, 7))
    def test_coefficient_is_the_exact_moment(self, n, ell):
        # p1 = 2 <r^2>/a^2 and <r^2> = _moment_fraction / (2 beta)^2 with beta = 1/(N a)
        big_n = n + ell + 1
        exact = Fraction(big_n**2, 2) * _moment_fraction(n, ell, 2)
        assert first_order_coefficient(n, ell) == exact

    def test_high_n_uses_moment_route(self):
        st = QuantumState(5, 1)
        spec = ScreeningSpec(delta=0.01)
        got = first_order_shift(st, spec, ATOMIC)
        want = -(spec.delta**3 / 3.0) * radial_moment(st, spec, ATOMIC, 2)
        assert got == pytest.approx(want, rel=1e-14)

    def test_strength_scaling(self):
        # in fixed units E1 carries exactly one inverse power of A
        st = state_from_label("2p")
        for a in (2.0, 5.0, 16.0):
            e1 = first_order_shift(st, ScreeningSpec(delta=0.05, strength=a), ATOMIC)
            ref = first_order_shift(st, ScreeningSpec(delta=0.05, strength=1.0), ATOMIC)
            assert e1 * a == pytest.approx(ref, rel=1e-13)

    def test_requires_cosine_factor_one(self):
        with pytest.raises(ValidationError):
            first_order_shift(state_from_label("1s"), ScreeningSpec(delta=0.1, g=0.0), ATOMIC)


class TestSecondOrder:
    def test_ground_atomic(self):
        # 1.25 delta^4 - (258/72) delta^6 at ell = 0
        spec = ScreeningSpec(delta=0.1)
        got = second_order_shift(state_from_label("1s"), spec, ATOMIC)
        want = 1.25e-4 - (258.0 / 72.0) * 1e-6
        assert got == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(1.2141667e-4, abs=5e-11)

    def test_first_excited_truncated(self):
        spec = ScreeningSpec(delta=0.2, strength=16.0)
        got = second_order_shift(state_from_label("2s"), spec, HBAR2M)
        # quartic 0.00275 minus sextic 121536 * 0.2^6 * 32 / (72 * 16^4)
        want = 0.00275 - 121536.0 * 0.2**6 * 32.0 / (72.0 * 65536.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(2.6973e-3, abs=1e-7)

    def test_second_excited(self):
        spec = ScreeningSpec(delta=0.2, strength=16.0)
        got = second_order_shift(state_from_label("3s"), spec, HBAR2M)
        assert got == pytest.approx(2.59721e-2, abs=1e-7)

    def test_variant_coefficients_at_ell0(self):
        # the two printed sextic alternatives for n = 1 differ
        c4t, c6t = second_order_coefficients(1, 0, SecondOrderVariant.TRUNCATED)
        c4f, c6f = second_order_coefficients(1, 0, SecondOrderVariant.FULL)
        assert c4t == c4f == 1320
        assert c6t == 121536
        assert c6f == 114176

    def test_variant_only_matters_for_n1(self):
        spec = ScreeningSpec(delta=0.1)
        for label in ("1s", "2p", "3s", "3d"):
            st = state_from_label(label)
            if st.n == 1:
                continue
            a = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.TRUNCATED)
            b = second_order_shift(st, spec, ATOMIC, SecondOrderVariant.FULL)
            assert a == b

    def test_quartic_term_strength_scaling(self):
        # the delta^4 piece carries exactly two inverse powers of A
        st = state_from_label("3p")
        for a in (2.0, 7.0):
            q, _ = second_order_terms(st, ScreeningSpec(delta=0.05, strength=a), ATOMIC)
            q1, _ = second_order_terms(st, ScreeningSpec(delta=0.05, strength=1.0), ATOMIC)
            assert q * a**2 == pytest.approx(q1, rel=1e-13)

    def test_no_closed_form_beyond_n2(self):
        with pytest.raises(ValidationError):
            second_order_shift(QuantumState(3, 0), ScreeningSpec(delta=0.1), ATOMIC)


class TestTotalEnergy:
    def test_reference_row_atomic(self):
        spec = ScreeningSpec(delta=0.05)
        bd = total_energy(state_from_label("1s"), spec, ATOMIC)
        assert bd.total == pytest.approx(-0.4501172, abs=5e-8)
        assert bd.total == bd.e0 + bd.linear_shift + bd.e1 + bd.e2

    def test_reference_row_scaled_strength(self):
        # the published cell is truncated, not rounded, hence the 1e-7 window
        spec = ScreeningSpec(delta=0.05 * SQ2, strength=SQ2)
        bd = total_energy(state_from_label("1s"), spec, ATOMIC)
        assert bd.total == pytest.approx(-0.9002344, abs=1e-7)

    def test_reference_row_heavy(self):
        spec = ScreeningSpec(delta=0.2, strength=24.0)
        bd = total_energy(QuantumState(2, 2), spec, HBAR2M)
        assert bd.total == pytest.approx(-1.411568, abs=5e-7)

    def test_coulomb_limit_is_exact(self):
        for label in ("1s", "2p", "3d"):
            bd = total_energy(state_from_label(label), ScreeningSpec(delta=0.0), ATOMIC)
            assert bd.total == bd.e0
            assert (bd.linear_shift, bd.e1, bd.e2) == (0.0, 0.0, 0.0)

    def test_small_delta_continuity(self):
        st = state_from_label("2p")
        c_cubic = 10.0  # (l+1)^2 (l+2)(2l+3)/6 at l = 1, atomic units
        for delta in (1e-3, 1e-4, 1e-5):
            bd = total_energy(st, ScreeningSpec(delta=delta), ATOMIC)
            assert abs(bd.e1) <= c_cubic * delta**3 * (1.0 + 1e-12)
            assert abs(bd.e2) <= 40.0 * delta**4

    def test_level_ordering_small_delta(self):
        for delta in (0.01, 0.05):
            spec = ScreeningSpec(delta=delta)
            t = {s: total_energy(state_from_label(s), spec, ATOMIC).total
                 for s in ("1s", "2s", "2p", "3s")}
            assert t["1s"] < t["2s"] < t["3s"]
            assert t["2s"] < t["2p"]

    def test_high_n_first_order_only(self):
        bd = total_energy(QuantumState(4, 0), ScreeningSpec(delta=0.01), ATOMIC)
        assert bd.first_order_only
        assert bd.e2 == 0.0
        assert bd.e1 != 0.0

    def test_variant_passthrough(self):
        spec = ScreeningSpec(delta=0.2, strength=16.0)
        t = total_energy(state_from_label("2s"), spec, HBAR2M, SecondOrderVariant.TRUNCATED)
        f = total_energy(state_from_label("2s"), spec, HBAR2M, SecondOrderVariant.FULL)
        assert abs(t.total - f.total) > 1e-6
        assert t.variant is SecondOrderVariant.TRUNCATED


class TestSuperpotentials:
    def test_w0_root_for_hydrogen(self):
        w0 = superpotential_w0(state_from_label("1s"), ScreeningSpec(delta=0.0), ATOMIC)
        assert w0(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_w0_matches_log_derivative(self):
        st = state_from_label("2p")
        spec = ScreeningSpec(delta=0.0, strength=1.0)
        w0 = superpotential_w0(st, spec, ATOMIC)
        h = 1e-5
        r = 2.0
        chi = lambda x: coulomb_wavefunction(st, spec, ATOMIC, x)
        logder = (chi(r + h) - chi(r - h)) / (2.0 * h * chi(r))
        assert -logder / math.sqrt(2.0) == pytest.approx(w0(r), abs=1e-10)

    def test_w0_asymptotic_constant(self):
        w0 = superpotential_w0(QuantumState(0, 1), ScreeningSpec(delta=0.0), ATOMIC)
        assert w0(1e12) == pytest.approx(1.0 / (2.0 * SQ2), abs=1e-11)

    def test_w0_rejects_excited(self):
        with pytest.raises(ValidationError):
            superpotential_w0(state_from_label("2s"), ScreeningSpec(delta=0.0), ATOMIC)

    def test_w1_ground_closed_form(self):
        # exact solution -(delta^3/(3 sqrt 2)) r (r + 2) for l = 0, atomic units;
        # it vanishes only at the origin
        spec = ScreeningSpec(delta=0.1)
        w1 = superpotential_first(state_from_label("1s"), spec, ATOMIC)
        assert w1(1.0) == pytest.approx(-7.0710678118654754e-4, rel=1e-12)
        assert w1(2.0) == pytest.approx(-1.8856180831641268e-3, rel=1e-12)
        assert w1(0.0) == 0.0
        r = np.linspace(0.05, 20.0, 100)
        assert np.all(w1(r) < 0.0)

    def test_w1_ground_riccati_identity(self):
        # first order of the Riccati equation, times r to make it polynomial:
        # r (2 W0 W1 - (hbar/sqrt(2m)) W1') == r (-(A delta^3/3) r^2 - E1), with
        # r W0 = -(hbar/sqrt(2m)) (ell+1) + sqrt(m/2) A r / ((ell+1) hbar)
        r = Polynomial((0.0, 1.0))
        for units, strength in ((ATOMIC, 1.0), (HBAR2M, 8.0)):
            hb, m = units.hbar, units.mass
            k = hb / math.sqrt(2.0 * m)
            spec = ScreeningSpec(delta=0.1, strength=strength)
            for ell in range(4):
                st = QuantumState(0, ell)
                r_w0 = Polynomial((-k * (ell + 1), math.sqrt(m / 2.0) * strength / ((ell + 1) * hb)))
                w1 = superpotential_first(st, spec, units)
                lhs = 2.0 * r_w0 * w1 - k * r * w1.deriv()
                e1 = first_order_shift(st, spec, units)
                rhs = r * Polynomial((-e1, 0.0, -strength * spec.delta**3 / 3.0))
                scale = np.max(np.abs(rhs.coef))
                assert np.max(np.abs((lhs - rhs).coef)) <= 1e-14 * scale

    def test_w1_hierarchy_constant_positive(self):
        # the first excited level's FULL hierarchy has a positive value at the origin
        spec = ScreeningSpec(delta=0.1)
        w1 = superpotential_first(state_from_label("2s"), spec, ATOMIC, SecondOrderVariant.FULL)
        assert w1(0.0) == pytest.approx(16.0e-3 / (3.0 * SQ2), rel=1e-12)
        assert w1(0.0) > 0.0

    def test_w1_truncation_drops_constant(self):
        spec = ScreeningSpec(delta=0.1)
        w1t = superpotential_first(state_from_label("2s"), spec, ATOMIC)
        assert w1t(0.0) == 0.0
        # quadratic and linear parts are unchanged
        w1 = superpotential_first(state_from_label("2s"), spec, ATOMIC, SecondOrderVariant.FULL)
        assert w1(3.0) - w1(0.0) == pytest.approx(w1t(3.0), rel=1e-12)

    def test_w1_constant_belongs_to_the_first_excited_full_form(self):
        spec = ScreeningSpec(delta=0.1)
        for n in range(4):
            for ell in range(4):
                for variant in ("truncated", "full", *SecondOrderVariant):
                    w1 = superpotential_first(QuantumState(n, ell), spec, ATOMIC, variant)
                    full = n == 1 and SecondOrderVariant(variant) is SecondOrderVariant.FULL
                    assert (w1.coef[0] != 0.0) == full, (n, ell, variant)

    @pytest.mark.parametrize("units", [ATOMIC, HBAR2M], ids=["atomic", "hbar2m"])
    @pytest.mark.parametrize("strength", [1.0, 8.0])
    @pytest.mark.parametrize("variant", list(SecondOrderVariant), ids=lambda v: v.name)
    def test_w1_is_the_polynomial_of_its_coefficients(self, units, strength, variant):
        # superpotential_first and the scan's E2 read the same three floats
        for delta in (0.0, 0.03, 0.1):
            spec = ScreeningSpec(delta=delta, strength=strength)
            for n in range(4):
                for ell in range(4):
                    st = QuantumState(n, ell)
                    coefficients = perturbation._superpotential_first_coefficients(
                        st, spec, units, variant)
                    w1 = superpotential_first(st, spec, units, variant)
                    assert w1.coef.tolist() == list(coefficients), (delta, n, ell)

    def test_w1_vanishes_without_screening(self):
        spec = ScreeningSpec(delta=0.0)
        for label in ("1s", "2s", "3d"):
            w1 = superpotential_first(state_from_label(label), spec, ATOMIC)
            assert all(w1(r) == 0.0 for r in (0.1, 1.0, 10.0))

    def test_w2_origin_value(self):
        spec = ScreeningSpec(delta=0.1)
        w2 = superpotential_second_ground(0, spec, ATOMIC)
        e2 = second_order_shift(state_from_label("1s"), spec, ATOMIC)
        assert w2(0.0) == pytest.approx(-e2 / SQ2, rel=1e-12)
        assert w2(0.0) == pytest.approx(-8.5855e-5, abs=1e-9)

    def test_w2_vanishes_without_screening(self):
        # at delta = 0 the potential is pure Coulomb, so any g is accepted
        for g in (1.0, 0.0):
            w2 = superpotential_second_ground(2, ScreeningSpec(delta=0.0, g=g), ATOMIC)
            assert all(w2(r) == 0.0 for r in (0.1, 1.0, 10.0))

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_log_derivative_identity(self, ell):
        # -(hbar/sqrt(2m)) d/dr log psi == W0 + W1 + W2 pointwise; the exponent
        # polynomial is differentiated analytically, so this is an exact identity
        spec = ScreeningSpec(delta=0.05)
        st = QuantumState(0, ell)
        poly = wavefunction_polynomial(ell, spec, ATOMIC)
        w_total = lambda r: (
            superpotential_w0(st, spec, ATOMIC)(r)
            + superpotential_first(st, spec, ATOMIC)(r)
            + superpotential_second_ground(ell, spec, ATOMIC)(r)
        )
        k = 1.0 / SQ2
        beta = 1.0 / (ell + 1)
        for r in np.linspace(0.1, 10.0, 23):
            logder = (ell + 1) / r + poly.deriv()(r)
            assert -k * logder == pytest.approx(w_total(r), rel=1e-10, abs=1e-13)


class TestGroundCoefficients:
    def test_small_delta_limits(self):
        for ell in (0, 1, 3):
            gc = ground_coefficients(ell, ScreeningSpec(delta=1e-9), ATOMIC)
            assert gc.a == pytest.approx(-3.0 / (ell + 1) ** 2, rel=1e-9)
            assert gc.b == pytest.approx(-1.5 * (2 * ell + 5) / (ell + 1), rel=1e-9)
            assert gc.c > 0.0


class TestGroundWavefunction:
    def test_coulomb_limit_polynomial(self):
        for g in (1.0, 0.0):
            poly = wavefunction_polynomial(0, ScreeningSpec(delta=0.0, g=g), ATOMIC)
            assert tuple(poly.coef) == (0.0, -1.0, 0.0, 0.0, 0.0, 0.0)

    def test_subnormal_screening_keeps_every_coefficient(self):
        # p2 = delta^3/3 at ell = 0 in atomic units; delta^4 is subnormal here, so
        # p2 must come from W^(1) alone and p5 = delta^6/90 underflows to zero
        delta = 1e-80
        poly = wavefunction_polynomial(0, ScreeningSpec(delta=delta), ATOMIC)
        assert poly.coef.size == 6
        assert poly.coef[2] == pytest.approx(delta**3 / 3.0, rel=1e-12, abs=0.0)

    def test_coulomb_limit_amplitude(self):
        psi, _, _ = ground_wavefunction(0, ScreeningSpec(delta=0.0), ATOMIC)
        assert psi(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)

    def test_leading_coefficients_example(self):
        spec = ScreeningSpec(delta=0.1)
        poly = wavefunction_polynomial(0, spec, ATOMIC)
        assert poly.coef[5] == pytest.approx((1.0 / 9.0) * 1e-6 / 10.0, rel=1e-12)
        e2 = second_order_shift(state_from_label("1s"), spec, ATOMIC)
        assert poly.coef[1] == pytest.approx(e2 - 1.0, rel=1e-12)
        assert poly.coef[1] == pytest.approx(-0.9998786, abs=5e-8)

    def test_renormalization_flag(self):
        spec = ScreeningSpec(delta=0.08)
        psi, _, r_stop = ground_wavefunction(1, spec, ATOMIC, renormalize=True)
        val, _ = quad(lambda r: psi(r) ** 2, 0.0, min(r_stop, 120.0), limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("units, ell, delta", [(ATOMIC, 3, 0.2), (HBAR2M, 3, 0.15)],
                             ids=["atomic-4f", "hbar2m-4f"])
    def test_renormalization_refused_where_the_rules_disagree(self, units, ell, delta):
        # the 200- and 300-point rules differ by 2.9e-8 and 0.35 relative here
        with pytest.raises(ValidationError, match="cannot renormalize"):
            ground_wavefunction(ell, ScreeningSpec(delta=delta), units, renormalize=True)
        # the closed form with its Coulomb normalisation is still available
        psi, _, _ = ground_wavefunction(ell, ScreeningSpec(delta=delta), units)
        assert math.isfinite(psi(1.0))

    @pytest.mark.parametrize("ell, delta", [(51, 0.0), (42, 0.001)])
    def test_renormalization_refused_where_the_norm_integral_overflows(self, ell, delta):
        # the first l at which a term of the 200-point sum leaves the floats;
        # the refusal comes before the overflow, so no RuntimeWarning is raised
        with pytest.raises(ValidationError, match=(
                f"^cannot renormalize the l={ell} wavefunction at delta={delta:g} with "
                "A = 1, hbar = 1 and m = 1: its norm integral overflows the floats$")):
            ground_wavefunction(ell, ScreeningSpec(delta=delta), ATOMIC, renormalize=True)

    @pytest.mark.parametrize("ell, delta", [(50, 0.0), (41, 0.001)])
    def test_norm_integral_below_the_overflow_is_the_plain_sum(self, ell, delta):
        spec = ScreeningSpec(delta=delta)
        psi, poly, r_c = ground_wavefunction(ell, spec, ATOMIC, renormalize=True)
        assert psi(float((ell + 1) ** 2)) > 0.0
        r_stop = min(60.0 * (ell + 1), r_c)
        t, w = np.polynomial.legendre.leggauss(200)
        x = 0.5 * r_stop * (t + 1.0)
        plain = 0.5 * r_stop * np.dot(w, (x ** (ell + 1) * np.exp(poly(x))) ** 2)
        assert perturbation._norm_integral(ell, poly, r_stop, 200) == float(plain)

    def test_renormalization_refused_where_the_norm_integral_underflows(self):
        # the rules' sums are 0.0 here, which 1/sqrt would divide by
        with pytest.raises(ValidationError, match="l=15 .* its norm integral underflows to 0$"):
            ground_wavefunction(15, ScreeningSpec(delta=0.05), ATOMIC, renormalize=True)

    def test_rule_disagreement_gives_the_relative_gap(self):
        # both sums print alike to 6 digits; the gap tells them apart
        with pytest.raises(ValidationError, match=(
                r"give 3\.05354e\+147 and 3\.05354e\+147, \d\.\d\de-\d\d apart relative$")):
            ground_wavefunction(16, ScreeningSpec(delta=0.01), ATOMIC, renormalize=True)

    def test_coulomb_normalisation_refused_at_high_ell(self):
        # norm^2 underflows to 0.0 here, so psi would be all zeros
        with pytest.raises(ValidationError, match="norm\\^2 outside the normal floats"):
            ground_wavefunction(60, ScreeningSpec(delta=0.0), ATOMIC)

    def test_renormalized_psi_needs_no_coulomb_norm(self, monkeypatch):
        # renormalize=True replaces the Coulomb constant, so a refused one
        # cannot make it raise; l = 50 is the highest level it returns here
        def refuse(*args):
            raise AssertionError("coulomb_norm")

        monkeypatch.setattr(perturbation, "coulomb_norm", refuse)
        for ell in (0, 10, 50):
            psi, _, _ = ground_wavefunction(ell, ScreeningSpec(delta=0.0), ATOMIC,
                                            renormalize=True)
            assert psi(float((ell + 1) ** 2)) > 0.0

    def test_validity_radius(self):
        # infinite in the Coulomb limit, finite and beyond the bulk for delta > 0
        assert ground_wavefunction(0, ScreeningSpec(delta=0.0), ATOMIC)[2] == math.inf
        psi, _, r_turn = ground_wavefunction(1, ScreeningSpec(delta=0.08), ATOMIC)
        assert 10.0 < r_turn < 200.0
        assert psi(r_turn) < psi(4.0)

    @pytest.mark.parametrize("ell, delta", [(1, 0.1), (0, 0.7)])
    def test_psi_refused_past_validity_radius(self, ell, delta):
        spec = ScreeningSpec(delta=delta)
        psi, _, r_c = ground_wavefunction(ell, spec, ATOMIC)
        assert math.isfinite(psi(r_c))
        for r in (np.nextafter(r_c, math.inf), np.array([0.5, 2.0 * r_c]), 400.0):
            with pytest.raises(ValidationError, match=f"r_c = {r_c:g}"):
                psi(r)

    def test_coulomb_limit_has_no_validity_radius(self):
        psi, _, _ = ground_wavefunction(0, ScreeningSpec(delta=0.0), ATOMIC)
        assert psi(np.array([1.0, 1e3])).tolist() == [2.0 * math.exp(-1.0), 0.0]

    def test_validity_radius_without_a_decaying_stretch(self):
        # at delta = 0.7, just below the critical screening of 1s, the
        # moderated exponent never falls again past the peak 1/beta = 1, so
        # the closed form is valid only up to the peak itself
        spec = ScreeningSpec(delta=0.7)
        rs = np.linspace(1.0, 200.0, 1000)
        assert np.all(1.0 / rs + wavefunction_polynomial(0, spec, ATOMIC).deriv()(rs) >= 0.0)
        assert ground_wavefunction(0, spec, ATOMIC)[2] == 1.0

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_moderating_function_consistency(self, ell):
        # exp(-(sqrt(2m)/hbar) int (W1+W2)) equals exp(P(r) + beta r) up to a
        # constant factor; the left side is integrated numerically here
        spec = ScreeningSpec(delta=0.05)
        st = QuantumState(0, ell)
        w1 = superpotential_first(st, spec, ATOMIC)
        w2 = superpotential_second_ground(ell, spec, ATOMIC)
        poly = wavefunction_polynomial(ell, spec, ATOMIC)
        beta = 1.0 / (ell + 1)
        r0 = 0.1

        def u_direct(r):
            val, _ = quad(lambda x: w1(x) + w2(x), r0, r, limit=200, epsabs=1e-14)
            return math.exp(-SQ2 * val)

        def u_poly(r):
            return math.exp(poly(r) + beta * r)

        anchor = u_direct(1.0) / u_poly(1.0)
        for r in np.linspace(0.1, 8.0, 17):
            assert u_direct(r) / u_poly(r) == pytest.approx(anchor, rel=1e-6)


class TestNegativeEll:
    @pytest.mark.parametrize("ell", [-1, -2])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    @pytest.mark.parametrize(
        "helper",
        [ground_coefficients, superpotential_second_ground, wavefunction_polynomial,
         ground_wavefunction],
    )
    def test_ground_helpers_reject(self, helper, delta, ell):
        with pytest.raises(ValidationError):
            helper(ell, ScreeningSpec(delta=delta), ATOMIC)


class TestPolynomialForms:
    def test_superpotentials_and_exponent_are_polynomials(self):
        spec = ScreeningSpec(delta=0.05)
        assert isinstance(superpotential_first(state_from_label("2s"), spec, ATOMIC), Polynomial)
        assert isinstance(superpotential_second_ground(1, spec, ATOMIC), Polynomial)
        assert isinstance(wavefunction_polynomial(1, spec, ATOMIC), Polynomial)
