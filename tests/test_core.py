import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecsc
from ecsc import (
    ATOMIC,
    HBAR2M,
    EnergyBreakdown,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    UnitSystem,
    ValidationError,
    coulomb_beta,
    coulomb_energy,
    default_solver_config,
    ground_coefficients,
    make_unit_system,
    state_from_label,
    superpotential_first,
    superpotential_second_ground,
)
from ecsc.core import coulomb_scales


class TestUnitSystem:
    def test_atomic_preset(self):
        u = make_unit_system("atomic")
        assert (u.hbar, u.mass) == (1.0, 1.0)
        assert u.label == "atomic"

    def test_hbar2m_preset(self):
        u = make_unit_system("hbar2m")
        assert (u.hbar, u.mass) == (1.0, 0.5)

    def test_explicit_pair(self):
        u = UnitSystem(2.0, 3.0)
        assert (u.hbar, u.mass) == (2.0, 3.0)

    @pytest.mark.parametrize("hbar,mass", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_rejected(self, hbar, mass):
        with pytest.raises(ValidationError):
            UnitSystem(hbar, mass)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            make_unit_system("si")

    def test_custom_pair(self):
        u = make_unit_system("custom:2,0.5")
        assert (u.hbar, u.mass, u.label) == (2.0, 0.5, "custom")

    @pytest.mark.parametrize("bad", ["custom:1", "custom:1,2,3", "custom:a,b", "custom:0,1"])
    def test_bad_custom_pair(self, bad):
        with pytest.raises(ValidationError):
            make_unit_system(bad)

    def test_module_constants(self):
        assert ATOMIC.mass == 1.0 and HBAR2M.mass == 0.5


class TestQuantumState:
    @pytest.mark.parametrize(
        "label,n,ell",
        [("1s", 0, 0), ("2s", 1, 0), ("2p", 0, 1), ("3s", 2, 0), ("3p", 1, 1), ("3d", 0, 2)],
    )
    def test_spectroscopic_mapping(self, label, n, ell):
        st = state_from_label(label)
        assert (st.n, st.ell) == (n, ell)
        assert st.principal == n + ell + 1

    def test_label_roundtrip(self):
        for big_n in range(1, 10):
            for ell in range(0, min(big_n, 4)):
                label = f"{big_n}{'spdf'[ell]}"
                assert state_from_label(label).label == label

    @pytest.mark.parametrize("bad", ["2d", "1p", "3f", "0s", "x2", "", "10s"])
    def test_invalid_labels(self, bad):
        with pytest.raises(ValidationError):
            state_from_label(bad)

    def test_unknown_orbital_letter(self):
        # "j" is skipped in the spectroscopic sequence s p d f g h i k
        with pytest.raises(ValidationError, match="unknown orbital letter"):
            state_from_label("2j")

    def test_label_past_the_letters(self):
        # l = 9 has no letter and N = 10 no single digit: both fall back to numbers
        assert QuantumState(0, 9).label == "(n=0,l=9)"
        assert QuantumState(9, 0).label == "(n=9,l=0)"

    def test_negative_quantum_numbers(self):
        with pytest.raises(ValidationError):
            QuantumState(-1, 0)
        with pytest.raises(ValidationError):
            QuantumState(0, -2)

    @pytest.mark.parametrize("n,ell", [(0.5, 0), (0, 1.0), (1.0, 1), ("1", 0)])
    def test_non_integer_quantum_numbers(self, n, ell):
        with pytest.raises(ValidationError):
            QuantumState(n, ell)

    def test_numpy_integers_accepted(self):
        assert QuantumState(np.int64(1), np.int64(0)).label == "2s"


class TestScreeningSpec:
    def test_defaults(self):
        spec = ScreeningSpec(delta=0.1)
        assert spec.strength == 1.0 and spec.g == 1.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            ScreeningSpec(delta=-0.1)

    def test_nonpositive_strength_rejected(self):
        with pytest.raises(ValidationError):
            ScreeningSpec(delta=0.1, strength=0.0)

    @given(
        field=st.sampled_from(["delta", "strength", "g"]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        delta=st.floats(0.0, 10.0),
        strength=st.floats(1e-3, 1e3),
        g=st.floats(-10.0, 10.0),
    )
    def test_non_finite_parameters_rejected(self, field, bad, delta, strength, g):
        params = dict(delta=delta, strength=strength, g=g)
        ScreeningSpec(**params)
        params[field] = bad
        with pytest.raises(ValidationError):
            ScreeningSpec(**params)

    @given(hbar=st.floats(allow_nan=True, allow_infinity=True),
           mass=st.floats(allow_nan=True, allow_infinity=True))
    def test_unit_system_accepts_only_positive_finite_pairs(self, hbar, mass):
        if all(math.isfinite(x) and x > 0.0 for x in (hbar, mass)):
            assert UnitSystem(hbar, mass).hbar == hbar
        else:
            with pytest.raises(ValidationError):
                UnitSystem(hbar, mass)


class TestEnergyBreakdown:
    def test_total_is_exact_component_sum(self):
        bd = EnergyBreakdown(-0.5, 0.05, -1.25e-4, 7.8e-6, SecondOrderVariant.TRUNCATED)
        assert bd.total == -0.5 + 0.05 + -1.25e-4 + 7.8e-6

    def test_coulomb_limit_shape(self):
        bd = EnergyBreakdown(-0.125, 0.0, 0.0, 0.0, SecondOrderVariant.TRUNCATED)
        assert bd.total == bd.e0

    @pytest.mark.parametrize("parts, total", [
        ((-0.5, 0.0, -1e308, -1e308), "-inf"),
        ((-0.5, 0.0, -math.inf, math.inf), "nan"),
    ], ids=["overflow", "nan"])
    def test_a_total_out_of_the_floats_is_refused(self, parts, total):
        with pytest.raises(OverflowError, match=f"^the total energy E0 \\+ A delta \\+ E1 "
                                                f"\\+ E2 is {total}$"):
            EnergyBreakdown(*parts, SecondOrderVariant.TRUNCATED)


_SPEC = ScreeningSpec(delta=0.1)
_RADIUS_TAKERS = {
    "evaluate_potential": lambda r: ecsc.evaluate_potential(r, _SPEC),
    "effective_potential": lambda r: ecsc.effective_potential(r, _SPEC, 1, ATOMIC),
    "coulomb_wavefunction": lambda r: ecsc.coulomb_wavefunction(
        state_from_label("2p"), _SPEC, ATOMIC, r),
    "ground_wavefunction": lambda r: ecsc.ground_wavefunction(0, _SPEC, ATOMIC)[0](r),
}


class TestCoulombScales:
    def test_values(self):
        assert coulomb_scales(3.0, UnitSystem(2.0, 5.0)) == (5.0 * 3.0 / 4.0, 5.0 * 9.0 / 4.0)

    @pytest.mark.parametrize("strength, units, quantity", [
        (1e160, ATOMIC, "energy"),  # A^2 overflows
        (1e-155, ATOMIC, "energy"),  # subnormal
        (1e-200, HBAR2M, "energy"),  # underflows to 0
        (1e-310, ATOMIC, "wavenumber"),
        (1.0, UnitSystem(1e-200, 1.0), "wavenumber"),  # hbar^2 underflows: divides by zero
        (1.0, UnitSystem(1e200, 1.0), "wavenumber"),  # hbar^2 overflows
        (1.0, UnitSystem(1.0, 1e-309), "wavenumber"),
    ])
    def test_refuses_a_scale_that_is_not_a_normal_float(self, strength, units, quantity):
        with pytest.raises(ValidationError) as exc:
            coulomb_scales(strength, units)
        assert str(exc.value).startswith(
            f"A = {strength:g} with hbar = {units.hbar:g} and m = {units.mass:g} puts the "
            f"Coulomb {quantity} ")

    @pytest.mark.parametrize("units", [ATOMIC, HBAR2M, UnitSystem(1.0, 1.0)],
                             ids=["atomic", "hbar2m", "hbar=m=1"])
    def test_readers_keep_the_presets_bit_for_bit(self, units):
        # each reader of coulomb_scales against the expression in hbar, m and A
        # that it replaced: with hbar = 1 and m a power of two the two differ
        # only by exact power-of-two scalings, so every preset table and scan
        # keeps its bits
        hb, m = units.hbar, units.mass
        k = hb / math.sqrt(2.0 * m)
        for a_s in (1.0, math.sqrt(2.0), 4.0, 8.0, 16.0, 24.0):
            for d in (0.05, 0.2):
                spec = ScreeningSpec(delta=d, strength=a_s)
                for big_n in range(1, 5):
                    pref = -k * big_n * d**3 / 3.0
                    lin = hb**2 * big_n * (big_n + 1) / (a_s * m)
                    const = -2.0 * hb**4 * (big_n - 1) * big_n**2 / (a_s**2 * m**2)
                    for ell in range(big_n):
                        state = QuantumState(big_n - ell - 1, ell)
                        assert coulomb_energy(state, spec, units) == (
                            -m * a_s**2 / (2.0 * hb**2 * big_n**2))
                        assert coulomb_beta(state, spec, units) == m * a_s / (big_n * hb**2)
                        config = default_solver_config(state, spec, units)
                        assert config.r_max == 40.0 * big_n * (big_n * hb**2 / (m * a_s))
                        assert config.energy_abs_tol == 1e-9 * m * a_s**2 / hb**2
                        for variant in SecondOrderVariant:
                            w1 = superpotential_first(state, spec, units, variant)
                            full = state.n == 1 and variant is SecondOrderVariant.FULL
                            want = const if full else 0.0
                            assert w1.coef.tolist() == [pref * want, pref * lin, pref]
                    ell, lp = big_n - 1, big_n
                    gc = ground_coefficients(ell, spec, units)
                    assert gc.a == (hb**2 * lp * (3 * ell + 7) * d**2 / (a_s * m)
                                    - 3.0 * a_s * m / (hb**2 * lp**2))
                    assert gc.b == (hb**4 * lp**2 * (8 * ell**2 + 37 * ell + 43) * d**2
                                    / (2.0 * a_s**2 * m**2) - 1.5 * (2 * ell + 5) / lp)
                    assert gc.c == hb**2 * lp**3 / (9.0 * a_s * m)
                    cr = hb**2 * (ell + 1) * (ell + 2) / (a_s * m)
                    w2 = superpotential_second_ground(ell, spec, units)
                    assert w2.coef[1] == -k * gc.c * d**4 / 2.0 * gc.b * cr


class TestRadiusCheck:
    @pytest.mark.filterwarnings("error")  # refused before any arithmetic warns
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("taker", sorted(_RADIUS_TAKERS))
    def test_bad_radius_rejected(self, taker, shape, bad):
        r = bad if shape == "scalar" else np.array([0.5, bad, 2.0])
        with pytest.raises(ValidationError, match="radius must be positive and finite"):
            _RADIUS_TAKERS[taker](r)

    @pytest.mark.parametrize("taker", sorted(_RADIUS_TAKERS))
    def test_empty_array_passes(self, taker):
        assert _RADIUS_TAKERS[taker](np.array([])).shape == (0,)


class TestErrorTypes:
    def test_one_value_error_type(self):
        # rejected arguments raise ValidationError; the other two report results
        # that could not be computed
        defined = {}
        for info in pkgutil.iter_modules(ecsc.__path__):
            module = importlib.import_module(f"ecsc.{info.name}")
            defined.update((c.__name__, c) for c in vars(module).values()
                           if isinstance(c, type) and issubclass(c, BaseException)
                           and c.__module__ == module.__name__)
        assert sorted(defined) == ["NoBoundStateError", "ToleranceNotMetError", "ValidationError"]
        assert [n for n, c in defined.items() if issubclass(c, ValueError)] == ["ValidationError"]
        # a density integral that leaves the floats is refused as any other result is
        assert issubclass(ecsc.ToleranceNotMetError, ArithmeticError)
