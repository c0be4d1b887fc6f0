"""Acceptance gates for the whole package, one check per criterion.

Run under pytest as usual, or as a script for a one-line-per-criterion
report:

    python tests/test_acceptance.py

Criteria 3 and 4 are expected to FAIL: one cell of reference table T3 and
five cells of the T5 3d column are internally inconsistent with the rest of
the published data (see "Known reference-data discrepancies" in README.md;
the bundled values are kept verbatim and the gates are applied as stated
rather than weakened to hide the defect).
"""

import math
import sys

import pytest

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    coulomb_beta,
    coulomb_energy,
    coulomb_wavefunction,
    default_solver_config,
    effective_potential,
    first_order_energy_numeric,
    first_order_shift,
    integrate_density,
    radial_moment,
    reproduce_table,
    second_order_energy_numeric,
    second_order_shift,
    second_order_terms,
    solve_bound_state,
    state_from_label,
    superpotential_first,
    total_energy,
)

SQ2 = math.sqrt(2.0)
PRESETS = ((ATOMIC, 1.0), (HBAR2M, 8.0))


def _solve(state, strength, delta, units):
    spec = ScreeningSpec(delta=delta, strength=strength)
    pot = lambda r: effective_potential(r, spec, state.ell, units)
    return solve_bound_state(pot, state, units, default_solver_config(state, spec, units))


def _require_table(table_id, spot_checks=()):
    res = reproduce_table(table_id)
    if not res.passed:
        detail = "; ".join(
            f"{dict(c.key)}: computed {c.computed:.9f}, published {c.reference}, "
            f"diff {c.diff:+.2e}" for c in res.failures
        )
        pytest.fail(
            f"{table_id}: {len(res.failures)} cell(s) beyond {res.definition.tolerance:g}: "
            f"{detail}  [known upstream data defect, see README]"
        )
    for key, value in spot_checks:
        cell = next(c for c in res.cells if dict(c.key) == key)
        assert cell.computed == pytest.approx(value, abs=res.definition.tolerance), (
            f"{table_id} spot check {key}: computed {cell.computed!r}, published {value!r}"
        )


def check_criterion_1():
    """Table T1 (1s, atomic units): all ten cells within 1e-6."""
    _require_table(
        "T1", ((dict(delta=0.05), -0.4501172), (dict(delta=0.10), -0.4008785))
    )


def check_criterion_2():
    """Table T2 (2s, atomic units): all ten cells within 1e-6."""
    _require_table(
        "T2", ((dict(delta=0.02), -0.1051033), (dict(delta=0.10), -0.0351880))
    )


def check_criterion_3():
    """Tables T3 and T4 (2s..3d): every cell within 1e-6."""
    _require_table("T4", ((dict(state="3p", delta=0.02), -0.0359640),))
    _require_table("T3")


def check_criterion_4():
    """Table T5 (A = sqrt 2, delta = sqrt 2 G): all 30 cells within 1e-6."""
    _require_table(
        "T5",
        ((dict(G=0.050, state="1s"), -0.9002344), (dict(G=0.025, state="3d"), -0.0615665)),
    )


def check_criterion_5():
    """Table T6 (hbar = 2m = 1): all cells within 1e-5, truncated variant."""
    _require_table(
        "T6",
        (
            (dict(A=4, ell=0, n=0), -3.207029),
            (dict(A=16, ell=0, n=1), -12.825303),
            (dict(A=16, ell=0, n=2), -4.023139),
        ),
    )


def check_criterion_6():
    """Radial solver vs closed forms for the 1s level, atomic units."""
    st = state_from_label("1s")
    for delta in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06):
        spec = ScreeningSpec(delta=delta)
        gap = _solve(st, 1.0, delta, ATOMIC).energy - total_energy(st, spec, ATOMIC).total
        assert abs(gap) <= 5e-6, f"delta={delta}: |oracle - analytic| = {abs(gap):.2e}"
    spec = ScreeningSpec(delta=0.10)
    gap = _solve(st, 1.0, 0.10, ATOMIC).energy - total_energy(st, spec, ATOMIC).total
    assert abs(gap) <= 1e-5, f"delta=0.10: |oracle - analytic| = {abs(gap):.2e}"


def check_criterion_7():
    """Quadrature engine vs closed forms: first order, ground second order,
    and the superpotential-free quartic term in isolation."""
    for units, strength in PRESETS:
        for n in (0, 1, 2):
            for ell in (0, 1, 2, 3):
                for delta in (0.02, 0.05, 0.10):
                    st = QuantumState(n, ell)
                    spec = ScreeningSpec(delta=delta, strength=strength)
                    num = first_order_energy_numeric(st, spec, units)
                    closed = first_order_shift(st, spec, units)
                    assert abs(num - closed) <= 1e-10 * abs(closed)
                    if n == 0:
                        w1 = superpotential_first(st, spec, units)
                        num2 = second_order_energy_numeric(st, spec, units, w1)
                        closed2 = second_order_shift(st, spec, units)
                        assert abs(num2 - closed2) <= 1e-9 * abs(closed2)
    for units, strength in PRESETS:
        for n in (0, 1, 2):
            for ell in (0, 1, 2, 3):
                st = QuantumState(n, ell)
                spec = ScreeningSpec(delta=0.05, strength=strength)
                sixth = strength * spec.delta**4 / 6.0
                quartic_num = integrate_density(st, spec, units, (0.0, 0.0, 0.0, sixth))
                quartic_closed, _ = second_order_terms(st, spec, units)
                assert abs(quartic_num - quartic_closed) <= 1e-10 * abs(quartic_closed)


def check_criterion_8():
    """Moment identity: -(A delta^3/3) <r^2> equals every printed first-order
    polynomial for n in {0, 1, 2} and ell up to 6, to relative 1e-12."""
    for units, strength in ((ATOMIC, 1.0), (HBAR2M, 16.0)):
        spec = ScreeningSpec(delta=0.07, strength=strength)
        for n in (0, 1, 2):
            for ell in range(0, 7):
                st = QuantumState(n, ell)
                closed = first_order_shift(st, spec, units)
                moment = -(strength * spec.delta**3 / 3.0) * radial_moment(st, spec, units, 2)
                assert abs(closed - moment) <= 1e-12 * abs(moment), (n, ell)


def check_criterion_9():
    """Coulomb limit across all modules: closed forms exact, solver to 1e-6
    relative, unit normalization, and node counts."""
    zero = ScreeningSpec(delta=0.0)
    states = [QuantumState(n, ell) for big in range(1, 5) for ell in range(big)
              for n in [big - ell - 1]]
    for st in states:
        bd = total_energy(st, zero, ATOMIC)
        assert bd.total == bd.e0 and bd.e1 == bd.e2 == 0.0
    from scipy.integrate import quad

    for st in (QuantumState(0, 0), QuantumState(1, 1), QuantumState(2, 0)):
        beta = coulomb_beta(st, zero, ATOMIC)
        val, _ = quad(lambda r: coulomb_wavefunction(st, zero, ATOMIC, r) ** 2,
                      0.0, 60.0 / beta, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)
    for units in (ATOMIC, HBAR2M):
        for strength in (1.0, SQ2, 4.0):
            spec = ScreeningSpec(delta=0.0, strength=strength)
            for st in states:
                rf = _solve(st, strength, 0.0, units)
                want = coulomb_energy(st, spec, units)
                assert abs(rf.energy - want) <= 1e-6 * abs(want), (st, strength, units.label)
                assert rf.node_count == st.n, (st, strength, units.label)


def check_criterion_10():
    """The alternative (all-terms) second-order form must not reproduce the
    first-excited reference cells: documented > 1e-6 disagreement."""
    res = reproduce_table("T6", SecondOrderVariant.FULL)
    cell = next(c for c in res.cells if dict(c.key) == dict(A=16, ell=0, n=1))
    assert abs(cell.diff) > 1e-6, (
        f"expected the full variant to miss the published value, diff {cell.diff:+.2e}"
    )


CRITERIA = (
    (1, "reference table T1 within 1e-6", check_criterion_1),
    (2, "reference table T2 within 1e-6", check_criterion_2),
    (3, "reference tables T3/T4 within 1e-6", check_criterion_3),
    (4, "reference table T5 within 1e-6", check_criterion_4),
    (5, "reference table T6 within 1e-5", check_criterion_5),
    (6, "radial solver vs closed forms (1s)", check_criterion_6),
    (7, "quadrature vs closed forms", check_criterion_7),
    (8, "moment identity for first order", check_criterion_8),
    (9, "Coulomb limit across all modules", check_criterion_9),
    (10, "second-order variant discrimination", check_criterion_10),
)


def test_criterion_01_table_t1():
    check_criterion_1()


def test_criterion_02_table_t2():
    check_criterion_2()


def test_criterion_03_tables_t3_t4():
    check_criterion_3()


def test_criterion_04_table_t5():
    check_criterion_4()


def test_criterion_05_table_t6():
    check_criterion_5()


def test_criterion_06_oracle_cross_validation():
    check_criterion_6()


def test_criterion_07_quadrature_equivalence():
    check_criterion_7()


def test_criterion_08_moment_identity():
    check_criterion_8()


def test_criterion_09_coulomb_limit():
    check_criterion_9()


def test_criterion_10_variant_gate():
    check_criterion_10()


def main() -> int:
    failed = 0
    for number, description, check in CRITERIA:
        try:
            check()
        except BaseException as exc:  # report every gate, keep going
            failed += 1
            reason = str(exc).strip().splitlines()[0] if str(exc).strip() else repr(exc)
            print(f"criterion {number:2d} ({description}): FAIL - {reason}")
        else:
            print(f"criterion {number:2d} ({description}): PASS")
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
