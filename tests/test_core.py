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
    make_unit_system,
    state_from_label,
)


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
