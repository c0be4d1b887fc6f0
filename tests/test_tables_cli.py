import ast
import csv
import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ecsc
from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    ToleranceNotMetError,
    ValidationError,
    coulomb_energy,
    first_order_energy_numeric,
    ground_wavefunction,
    reproduce_table,
    scan_delta,
    second_order_energy_numeric,
    state_from_label,
    superpotential_first,
    total_energy,
)
from ecsc import perturbation
from ecsc.cli import main
from ecsc.core import MAX_SAMPLES
from ecsc.tables import TABLES, TableResult, render_text


class TestReproduceTables:
    def test_t1_all_cells_pass(self):
        res = reproduce_table("T1")
        assert res.passed
        by_delta = {c.key[0][1]: c for c in res.cells}
        assert by_delta[0.10].computed == pytest.approx(-0.4008785, abs=1e-6)
        assert by_delta[0.05].computed == pytest.approx(-0.4501172, abs=1e-6)

    def test_t2_all_cells_pass(self):
        res = reproduce_table("T2")
        assert res.passed
        by_delta = {c.key[0][1]: c for c in res.cells}
        assert by_delta[0.02].computed == pytest.approx(-0.1051033, abs=1e-6)

    def test_t3_has_exactly_one_known_bad_cell(self):
        # the published 2p value at delta = 0.04 carries a digit slip; the
        # correct closed-form value is -0.0855552, printed is -0.0855520
        res = reproduce_table("T3")
        bad = res.failures
        assert len(bad) == 1
        cell = bad[0]
        assert dict(cell.key) == {"state": "2p", "delta": 0.04}
        assert cell.computed == pytest.approx(-0.0855552, abs=1e-7)
        assert abs(cell.diff) == pytest.approx(3.2e-6, abs=5e-7)

    def test_t4_all_cells_pass(self):
        res = reproduce_table("T4")
        assert res.passed
        cells = {(dict(c.key)["state"], dict(c.key)["delta"]): c for c in res.cells}
        assert cells[("3p", 0.02)].computed == pytest.approx(-0.0359640, abs=1e-6)

    def test_t5_known_bad_3d_column(self):
        # the published 3d column beyond G = 0.002 was produced with half the
        # first-order shift; the other 25 cells reproduce within the gate
        res = reproduce_table("T5")
        bad = res.failures
        assert len(bad) == 5
        assert all(dict(c.key)["state"] == "3d" for c in bad)
        assert sorted(dict(c.key)["G"] for c in bad) == [0.005, 0.010, 0.020, 0.025, 0.050]
        # halving the first-order shift reproduces every bad cell
        for cell in bad:
            g_factor = dict(cell.key)["G"]
            sq2 = math.sqrt(2.0)
            delta = sq2 * g_factor
            half_e1 = 0.5 * (-42.0) * (delta / sq2) ** 3 * 2.0  # atomic-equivalent, rescaled
            assert cell.computed - half_e1 == pytest.approx(cell.reference, abs=2e-7)

    def test_t6_all_cells_pass(self):
        res = reproduce_table("T6")
        assert res.passed
        cells = {tuple(dict(c.key).values()): c for c in res.cells}
        assert cells[(4, 0, 0)].computed == pytest.approx(-3.207029, abs=1e-5)
        assert cells[(16, 0, 1)].computed == pytest.approx(-12.825303, abs=1e-5)
        assert cells[(16, 0, 2)].computed == pytest.approx(-4.023139, abs=1e-5)

    def test_t6_full_variant_breaks_first_excited_cells(self):
        res = reproduce_table("T6", SecondOrderVariant.FULL)
        cells = {tuple(dict(c.key).values()): c for c in res.cells}
        assert abs(cells[(16, 0, 1)].diff) > 1e-6

    def test_unknown_table(self):
        with pytest.raises(ValidationError):
            reproduce_table("T9")

    def test_definitions_are_complete(self, monkeypatch):
        assert sorted(TABLES) == ["T1", "T2", "T3", "T4", "T5", "T6"]
        results = {t: reproduce_table(t) for t in TABLES}
        sizes = {t: len(res.cells) for t, res in results.items()}
        assert sizes == {"T1": 10, "T2": 10, "T3": 10, "T4": 12, "T5": 30, "T6": 17}
        for tid, res in results.items():
            definition = TABLES[tid]
            for cell in res.cells:
                assert tuple(name for name, _ in cell.key) == definition.key_columns
                assert tuple(name for name, _ in cell.literature) == definition.reference_columns
        # every row is zipped strictly with the column names
        t1 = TABLES["T1"]
        for bad_row in (t1.rows[0][:-1], t1.rows[0] + (0.0,)):
            monkeypatch.setitem(TABLES, "T1", replace(t1, rows=(bad_row,)))
            with pytest.raises(ValueError):
                reproduce_table("T1")


class TestEmission:
    def test_csv_header_and_shape(self):
        text = reproduce_table("T1").to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "delta,E_ref,E_computed,diff"
        assert len(lines) == 11
        assert "." in lines[1].split(",")[1]  # decimal point, not comma

    def test_csv_significant_digits(self):
        text = reproduce_table("T1").to_csv_text()
        computed = text.strip().splitlines()[1].split(",")[2]
        assert computed == f"{-0.49000098750358333:.9g}"

    def test_markdown_t6_columns(self):
        md = reproduce_table("T6").to_markdown_text()
        header = md.splitlines()[2]
        for col in ("A", "ell", "n", "-E computed", "-E reference"):
            assert col in header

    def test_determinism(self):
        a = reproduce_table("T3").to_csv_text()
        b = reproduce_table("T3").to_csv_text()
        assert a == b
        assert reproduce_table("T3").to_markdown_text() == reproduce_table("T3").to_markdown_text()

    @pytest.mark.parametrize("tid", sorted(TABLES))
    def test_table_takes_the_variant_by_name_or_member(self, tid):
        for variant in SecondOrderVariant:
            assert reproduce_table(tid, variant.value) == reproduce_table(tid, variant)

    def test_empty_result_is_header_only(self):
        empty = TableResult(TABLES["T1"], ())
        assert empty.to_csv_text() == "delta,E_ref,E_computed,diff\n"

    def test_render_hash(self):
        # pins the bytes of every table in both variants, csv then markdown
        digest = hashlib.sha256()
        for tid in sorted(TABLES):
            for variant in SecondOrderVariant:
                result = reproduce_table(tid, variant)
                digest.update(result.to_csv_text().encode())
                digest.update(result.to_markdown_text().encode())
        assert digest.hexdigest() == (
            "87edacdd86bf769c0eb834c881d0f89d610f7ca58ca025de7b77e6e53dd4ba1d"
        )

    def test_wavefunction_hash(self, capsys, tmp_path):
        # pins the bytes of three sampled moderated wavefunctions
        digest = hashlib.sha256()
        for argv in (
            ["--state", "1s", "--delta", "0.05"],
            ["--state", "2p", "--delta", "0.1", "--renormalize"],
            ["--state", "3d", "--A", "8", "--units", "hbar2m", "--delta", "0.2"],
        ):
            assert main(["wavefunction", *argv, "--points", "50"]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "bf0dd92d4ab4adeb48cbdaeb9933c4235461081dc3a67771b907e6443c6e548f"
        )
        assert main(["wavefunction", "--state", "1s", "--delta", "0.05", "--points", "50",
                     "--out", str(tmp_path / "wf.csv")]) == 0
        assert capsys.readouterr().out == (
            "exponent coefficients: p1=-0.999992, p2=3.90812e-05, p3=1.30271e-05, "
            "p4=-2.58898e-07, p5=1.73611e-10\n"
        )


class TestScanDelta:
    def test_endpoints_match_reference_rows(self):
        res = scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.0, 0.1, 11)
        assert res.rows[0].analytic == pytest.approx(-0.5)
        assert res.rows[-1].analytic == pytest.approx(-0.4008785, abs=1e-6)
        assert [r.delta for r in res.rows][:3] == pytest.approx([0.0, 0.01, 0.02])
        # bundled table values are attached wherever they exist
        assert res.rows[0].reference is None
        assert res.rows[-1].reference == -0.4008785

    @pytest.mark.parametrize("label", ["1s", "2s"])
    def test_every_grid_point_of_a_bundled_table_has_its_reference(self, label):
        # the grid's delta are within 1e-12 of the rows, not all bit-equal:
        # 0.1 * 3/10 = 0.030000000000000006
        res = scan_delta(state_from_label(label), 1.0, ATOMIC, 0.0, 0.1, 11)
        table = TABLES[{"1s": "T1", "2s": "T2"}[label]]
        assert res.rows[3].delta != 0.03
        assert [r.reference for r in res.rows] == [None] + [row["E"] for row in table.named_rows()]

    def test_single_point_2s(self):
        res = scan_delta(state_from_label("2s"), 1.0, ATOMIC, 0.1, 0.1, 1)
        assert len(res.rows) == 1
        assert res.rows[0].analytic == pytest.approx(-0.0351880, abs=1e-6)

    def test_coulomb_point_all_methods_agree(self, solve):
        res = scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.0, 0.0, 1, with_oracle=True)
        row = res.rows[0]
        assert row.oracle_status == "ok"
        assert abs(row.quad_minus_analytic) < 1e-6
        assert abs(row.oracle_minus_analytic) < 1e-6

    def test_quadrature_column_tracks_closed_forms_for_ground(self):
        res = scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.02, 0.1, 3)
        for row in res.rows:
            assert abs(row.quad_minus_analytic) < 1e-12

    def test_first_excited_discrepancy_is_visible(self):
        # the engine's two-term route differs from the closed form by 168 delta^6
        res = scan_delta(state_from_label("2s"), 1.0, ATOMIC, 0.1, 0.1, 1)
        assert res.rows[0].quad_minus_analytic == pytest.approx(-168e-6, rel=1e-6)

    def test_quadrature_column_carries_a_second_order_past_n2(self, capsys):
        # for n >= 3 the closed form is first order only, but the column adds
        # the E2 of the truncated hierarchy W1, so the difference is that E2
        st, spec = state_from_label("4s"), ScreeningSpec(delta=0.01)
        e2 = second_order_energy_numeric(st, spec, ATOMIC, superpotential_first(st, spec, ATOMIC))
        assert scan_delta(st, 1.0, ATOMIC, 0.01, 0.01, 1).rows[0].quad_minus_analytic == (
            pytest.approx(e2, rel=1e-12))
        assert main(["scan", "--state", "4s", "--delta-start", "0.01", "--delta-end", "0.01",
                     "--steps", "1", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[7] == f"{e2:.6e}" == "2.979712e-05"

    @pytest.mark.parametrize("label", ["3s", "4s"])
    @pytest.mark.parametrize("delta", ["0.01", "0.05"])
    def test_scan_variants_agree_past_the_first_excited_level(self, capsys, label, delta):
        # n = 2 and 3 have one form each, so the variant changes no byte of the row
        rows = []
        for variant in ("truncated", "full"):
            assert main(["scan", "--state", label, "--delta-start", delta, "--delta-end", delta,
                         "--steps", "1", "--format", "csv", "--variant", variant]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("label", ["1s", "2s", "2p", "3s", "4s"])
    def test_scan_takes_the_variant_by_name_or_member(self, label):
        st = state_from_label(label)
        for variant in SecondOrderVariant:
            by_name, by_member = (scan_delta(st, 1.0, ATOMIC, 0.01, 0.05, 3, variant=v)
                                  for v in (variant.value, variant))
            assert by_name == by_member

    def test_overscreened_row_is_recorded_not_fatal(self):
        res = scan_delta(state_from_label("3s"), 1.0, ATOMIC, 1.0, 1.0, 1, with_oracle=True)
        assert res.rows[0].oracle is None
        assert res.rows[0].oracle_status == "no-bound-state"

    def test_csv_round_trip(self):
        res = scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.0, 0.05, 2)
        text = res.to_csv_text()
        assert text.splitlines()[0].startswith("state,delta,E_analytic")
        assert len(text.strip().splitlines()) == 3

    @pytest.mark.parametrize("n, ell", [(9, 0), (0, 8)], ids=["N=10", "l=8"])
    def test_csv_quotes_a_label_with_a_comma(self, n, ell):
        # a level with no spectroscopic label is named "(n=..,l=..)"; its cell
        # is quoted, so every row has the header's nine fields
        res = scan_delta(QuantumState(n, ell), 1.0, ATOMIC, 0.001, 0.001, 1)
        text = res.to_csv_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [9, 9]
        assert rows[1][0] == f"(n={n},l={ell})" == res.rows[0].state_label
        assert text.splitlines()[1].startswith(f'"(n={n},l={ell})",0.001,')

    def test_csv_quotes_as_csv_writer_does(self):
        header, rows = ("a", "b,c"), [('say "hi"', 1.5), ("plain", None), ("two\nlines", 2)]
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [header] + [(a, "" if b is None else f"{b:.9g}") for a, b in rows])
        assert render_text("csv", header, rows) == want.getvalue()

    def test_markdown_layout(self):
        res = scan_delta(state_from_label("3s"), 1.0, ATOMIC, 0.0, 1.0, 2, with_oracle=True)
        lines = res.to_markdown_text().splitlines()
        assert lines[0] == "| state | delta | analytic | quadrature | oracle | reference |"
        assert lines[1] == "|---|---:|---:|---:|---:|---:|"
        assert len(lines) == 4
        bound, unbound = ([c.strip() for c in line[1:-1].split("|")] for line in lines[2:])
        assert bound[:2] == ["3s", "0"] and float(bound[4]) == pytest.approx(-1 / 18)
        assert unbound[:2] == ["3s", "1"] and unbound[4] == "no-bound-state"
        assert unbound[5] == ""

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.1, 0.0, 5)
        with pytest.raises(ValidationError):
            scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.0, 0.1, 0)
        # rejected before the list of screening values is built
        with pytest.raises(ValidationError):
            scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.0, 0.1, MAX_SAMPLES + 1)

    def test_one_step_needs_equal_ends(self):
        # one step samples delta_start alone, so a different delta_end would be dropped
        with pytest.raises(ValidationError, match="delta_end == delta_start"):
            scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.01, 0.02, 1)
        (row,) = scan_delta(state_from_label("1s"), 1.0, ATOMIC, 0.02, 0.02, 1).rows
        assert row.delta == 0.02


def _composed_quadrature(state, spec, units, variant):
    """The quadrature column composed from the public functions."""
    e2 = second_order_energy_numeric(state, spec, units,
                                     superpotential_first(state, spec, units, variant))
    return (coulomb_energy(state, spec, units) + spec.strength * spec.delta
            + first_order_energy_numeric(state, spec, units) + e2)


class TestScanComposition:
    """scan_delta's columns equal, bit for bit, the closed form and the
    composition of the public density integrals."""

    @pytest.mark.parametrize("units", [ATOMIC, HBAR2M], ids=["atomic", "hbar2m"])
    @pytest.mark.parametrize("strength", [1.0, 8.0])
    @pytest.mark.parametrize("variant", list(SecondOrderVariant), ids=lambda v: v.name)
    def test_columns_equal_the_composition(self, units, strength, variant):
        for n in range(4):
            for ell in range(4):
                st = QuantumState(n, ell)
                rows = [row for delta in (0.0, 0.05)
                        for row in scan_delta(st, strength, units, delta, delta, 1,
                                              variant=variant).rows]
                rows += scan_delta(st, strength, units, 0.0, 0.1, 5, variant=variant).rows
                for row in rows:
                    spec = ScreeningSpec(delta=row.delta, strength=strength)
                    assert row.analytic == total_energy(st, spec, units, variant).total
                    assert row.quadrature == _composed_quadrature(st, spec, units, variant), (
                        n, ell, row.delta)


class TestCli:
    def test_energy_verb(self, capsys):
        assert main(["energy", "--state", "2s", "--A", "16", "--delta", "0.2",
                     "--units", "hbar2m"]) == 0
        out = capsys.readouterr().out
        assert "-12.82530275" in out

    def test_table_pass_exit_code(self, capsys):
        assert main(["table", "T1", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("delta,E_ref")

    def test_table_gate_failure_exit_code(self, capsys):
        assert main(["table", "T5"]) == 1
        assert "25/30" in capsys.readouterr().out

    def test_table_to_file(self, tmp_path, capsys):
        out = tmp_path / "t6.csv"
        assert main(["table", "T6", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("A,ell,n,E_ref")
        assert "17/17" in capsys.readouterr().out

    def test_scan_verb(self, capsys):
        assert main(["scan", "--state", "1s", "--A", "1", "--delta-start", "0",
                     "--delta-end", "0.1", "--steps", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("bounds", [("0", "0.1", "0"), ("0.1", "0", "3"),
                                        ("0.01", "0.02", "1")])
    def test_bad_scan_arguments_are_a_usage_error(self, capsys, bounds):
        start, end, steps = bounds
        assert main(["scan", "--state", "1s", "--delta-start", start,
                     "--delta-end", end, "--steps", steps]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_wavefunction_verb(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--state", "1s", "--A", "1", "--delta", "0.05",
                     "--points", "50", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,psi"
        assert len(lines) == 51

    def test_wavefunction_rejects_excited(self, capsys):
        assert main(["wavefunction", "--state", "2s", "--A", "1", "--delta", "0.05"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unresolved_renormalization_is_a_usage_error(self, capsys):
        assert main(["wavefunction", "--state", "4f", "--units", "hbar2m", "--delta", "0.15",
                     "--renormalize"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot renormalize") and "Traceback" not in err

    def test_programming_errors_are_not_usage_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(ecsc.cli, "total_energy", broken)
        with pytest.raises(KeyError):
            main(["energy", "--state", "1s", "--delta", "0.1"])

    def test_unconverged_quadrature_is_reported(self, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise ToleranceNotMetError("integral is not finite", 0.0, math.inf)

        monkeypatch.setattr(ecsc.tables, "first_order_energy_numeric", stalled)
        assert main(["scan", "--state", "1s", "--delta-start", "0.1", "--delta-end", "0.1",
                     "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: quadrature: integral is not finite\n"

    @pytest.mark.filterwarnings("error")
    def test_scan_at_extreme_length_units(self, capsys):
        # beta = 2.5e-41: the density is formed in x = 2 beta r, so no factor overflows
        assert main(["scan", "--state", "4f", "--A", "1e-40", "--delta-start", "5e-42",
                     "--delta-end", "5e-42", "--steps", "1", "--format", "csv"]) == 0
        analytic, quadrature = capsys.readouterr().out.splitlines()[1].split(",")[2:4]
        assert float(quadrature) == pytest.approx(float(analytic), rel=1e-9)

    @pytest.mark.parametrize("option", [("--points", "0"), ("--points", "-3"),
                                        ("--rmax", "-1"), ("--rmax", "nan")])
    def test_bad_wavefunction_arguments_are_a_usage_error(self, capsys, option):
        assert main(["wavefunction", "--state", "1s", "--delta", "0.05", *option]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, ell, spec, units", [
        (["--state", "2p", "--delta", "0.1", "--rmax", "400", "--points", "8"],
         1, ScreeningSpec(delta=0.1), ATOMIC),
        (["--state", "3d", "--A", "8", "--units", "hbar2m", "--delta", "0.2", "--rmax", "40",
          "--points", "4"], 2, ScreeningSpec(delta=0.2, strength=8.0), HBAR2M),
    ], ids=["2p", "3d-hbar2m"])
    def test_wavefunction_past_validity_radius_is_a_usage_error(self, capsys, argv, ell, spec,
                                                                 units):
        # both printed inf or values above 1e16 with exit 0 before
        r_c = ground_wavefunction(ell, spec, units)[2]
        assert main(["wavefunction", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"r_c = {r_c:g}" in err

    def test_wavefunction_builds_the_exponent_and_scans_once(self, capsys, monkeypatch):
        # the validity radius comes with psi, so the default window reuses it
        builds, scans = [], []
        build, linspace = perturbation.wavefunction_polynomial, np.linspace

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        def counted_linspace(*args, **kw):
            if args[2:] == (20000,):
                scans.append(args)
            return linspace(*args, **kw)

        monkeypatch.setattr(perturbation, "wavefunction_polynomial", counted_build)
        monkeypatch.setattr(np, "linspace", counted_linspace)
        assert main(["wavefunction", "--state", "2p", "--delta", "0.1", "--points", "8"]) == 0
        assert (len(builds), len(scans)) == (1, 1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_oracle_rmax_must_be_positive_and_finite(self, capsys, value):
        assert main(["oracle", "--state", "1s", "--delta", "0.1", f"--rmax={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: --rmax must be positive and finite")

    @pytest.mark.parametrize("argv, scale", [
        (["oracle", "--state", "1s", "--delta", "0", "--A", "1e-160"], "energy"),
        (["scan", "--state", "1s", "--delta-start", "0", "--delta-end", "0", "--steps", "1",
          "--with-oracle", "--A", "1e-200"], "energy"),
        (["oracle", "--state", "1s", "--delta", "0", "--A", "1e-310"], "wavenumber"),
    ], ids=["oracle-target", "scan-target", "oracle-box"])
    def test_solver_scale_out_of_range_names_the_strength(self, capsys, argv, scale):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: A = {float(argv[-1]):g} with hbar = 1 and m = 1 ")
        assert f"Coulomb {scale}" in err
        assert "r_max" not in err and "energy_abs_tol" not in err

    @pytest.mark.parametrize("strength", ["1e160", "1e-200"])
    @pytest.mark.parametrize("argv", [
        ["energy", "--delta", "0.05"],
        ["scan", "--delta-start", "0", "--delta-end", "0.1", "--steps", "2"],
        ["wavefunction", "--delta", "0.05"],
        ["oracle", "--delta", "0.05"],
    ], ids=["energy", "scan", "wavefunction", "oracle"])
    def test_every_verb_names_a_strength_out_of_range(self, capsys, argv, strength):
        # m A^2/hbar^2 overflows at 1e160 and underflows to 0 at 1e-200
        assert main([argv[0], "--state", "1s", *argv[1:], "--A", strength]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: A = {float(strength):g} with hbar = 1 and m = 1 puts the Coulomb energy ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strength", ["1e-150", "1e-70", "1e100"])
    def test_oracle_far_from_unit_strength(self, capsys, strength):
        # at 1e-150 this printed "numeric energy +nan ... converged=False" and exited 0
        assert main(["oracle", "--state", "1s", "--delta", "0", "--A", strength]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "converged=True" in out

    def test_oracle_names_a_box_out_of_range(self, capsys):
        # both Coulomb scales are normal floats; the box 40/(m A/hbar^2) is not finite
        assert main(["oracle", "--state", "1s", "--delta", "0.05", "--units", "custom:1,1e-307"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: A = 1 with hbar = 1 and m = 1e-307 puts the solver's box ")

    @pytest.mark.parametrize("argv, inputs", [
        (["--delta", "1e80"], "A = 1, hbar = 1, m = 1 and delta = 1e+80"),
        (["--delta", "0.05", "--units", "custom:1e100,1"],
         "A = 1, hbar = 1e+100, m = 1 and delta = 0.05"),
    ], ids=["delta", "hbar"])
    def test_closed_form_overflow_names_the_inputs(self, capsys, argv, inputs):
        assert main(["energy", "--state", "1s", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: out of floating-point range at {inputs}: Numerical result out of range\n")

    def test_oracle_verb(self, capsys, tmp_path):
        out = tmp_path / "chi.txt"
        assert main(["oracle", "--state", "1s", "--A", "1", "--delta", "0.05",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert "numeric energy" in line and "converged=True" in line
        assert 0.0 < float(line.split("error_estimate=")[1]) <= 1e-9

    @pytest.mark.parametrize("argv, order", [
        (["--state", "1s", "--delta", "0.05"], 42),
        # four times the default box of 640 Coulomb lengths
        (["--state", "4s", "--delta", "0", "--rmax", "2560"], 63),
    ], ids=["default-box", "widest-box"])
    def test_oracle_reports_the_mesh_order(self, capsys, argv, order):
        assert main(["oracle", *argv]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert f" mesh={order} " in line

    @pytest.mark.parametrize("grid", [[], ["--rmax", "10"]])
    def test_oracle_deep_level_converges(self, capsys, grid):
        # E near -64: the default target scales with the level, and a box
        # override keeps it
        assert main(["oracle", "--state", "1s", "--A", "16", "--units", "hbar2m",
                     "--delta", "0.01", *grid]) == 0
        assert "converged=True" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_delta_is_a_usage_error(self, capsys, value):
        assert main(["energy", "--state", "1s", f"--delta={value}"]) == 2
        assert main(["oracle", "--state", "1s", "--delta", "0.05", f"--g={value}"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table", "T1"],
        ["scan", "--state", "1s", "--delta-start", "0", "--delta-end", "0.1", "--steps", "2"],
        ["wavefunction", "--state", "1s", "--delta", "0.05", "--points", "5"],
        ["oracle", "--state", "1s", "--delta", "0.05"],
    ], ids=["table", "scan", "wavefunction", "oracle"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "x"
        assert main([*argv, "--out", str(out)]) == 2
        # every verb writes its file before it prints, so a failed write prints nothing
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("argv", [
        ["energy", "--state", "1s", "--delta", "0.1", "--A", "1e-300"],
        ["energy", "--state", "1s", "--delta", "0.1", "--A", "1e300"],
        ["energy", "--state", "2s", "--delta", "1e100"],
        ["oracle", "--state", "1s", "--delta", "0.1", "--A", "1e200"],
        ["scan", "--state", "1s", "--delta-start", "0.1", "--delta-end", "0.1",
         "--steps", "1", "--A", "1e-200"],
        ["energy", "--state", "1s", "--delta", "0.1", "--units", "custom:1e-200,1"],
    ])
    def test_out_of_range_parameters_are_a_usage_error(self, capsys, argv):
        # finite, but their scales over- or underflow a float
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["oracle", "--state", "1s", "--delta", "0.05", "--rmax", "1e9"],
        # bound at -0.4501, but on this box the mesh would miss the well and
        # report a box state as unbound
        ["oracle", "--state", "1s", "--delta", "0.05", "--rmax", "1e5"],
        ["wavefunction", "--state", "1s", "--delta", "0.05", "--points", "1000000000"],
        ["scan", "--state", "1s", "--delta-start", "0", "--delta-end", "0.1",
         "--steps", "1000000000"],
    ], ids=["rmax", "rmax-unresolved", "points", "steps"])
    def test_oversized_grids_are_a_usage_error(self, capsys, argv):
        # rejected before anything of that size is allocated or solved
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oracle_widest_box(self, capsys):
        # four times the default box of 40 Coulomb lengths is the widest allowed
        assert main(["oracle", "--state", "1s", "--delta", "0.05", "--rmax", "160"]) == 0
        assert "numeric energy  -0.4501174664" in capsys.readouterr().out
        assert main(["oracle", "--state", "1s", "--delta", "0.05", "--rmax", "160.001"]) == 2
        assert capsys.readouterr().err.startswith("error: --rmax must be at most 160,")

    def test_only_the_cli_opens_files(self):
        package = Path(ecsc.__file__).parent
        openers = sorted(
            path.name for path in package.glob("*.py")
            if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        )
        assert openers == ["cli.py"]

    def test_oracle_no_bound_state_exit(self, capsys):
        assert main(["oracle", "--state", "3s", "--A", "1", "--delta", "1.0"]) == 1
        assert "no bound state" in capsys.readouterr().err

    def test_custom_units(self, capsys):
        assert main(["energy", "--state", "1s", "--A", "1", "--delta", "0",
                     "--units", "custom:1,0.5"]) == 0
        assert "-0.25" in capsys.readouterr().out

    def test_bad_units_exit_code(self, capsys):
        assert main(["energy", "--state", "1s", "--A", "1", "--delta", "0.1",
                     "--units", "galactic"]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "T7"])
        assert exc.value.code == 2

    def test_variant_flag(self, capsys):
        assert main(["energy", "--state", "2s", "--A", "16", "--delta", "0.2",
                     "--units", "hbar2m", "--variant", "full"]) == 0
        out = capsys.readouterr().out
        assert "-12.82529956" in out
