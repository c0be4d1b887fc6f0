"""Self-tests of the benchmark's own logic: span arithmetic and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q

Every test here runs in well under a second; none solves a radial problem.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ecsc.perturbation  # noqa: E402
import ecsc.quadrature  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ecsc import ATOMIC, NoBoundStateError, RadialFunction, ScreeningSpec  # noqa: E402
from ecsc import state_from_label  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


# --- spans and self time ----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("c", 1.5, 2.5, 1, 0),  # child of a, grandchild of op
    ]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])
    # the self times of a tree add up to the root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_aggregate_and_layer_totals():
    spans = [
        Span("op", 0.0, 4.0, -1, 0),
        Span("quadrature.first_order_energy_numeric", 0.5, 3.5, 0, 0),
        Span("quadrature.integrate_density", 1.0, 3.0, 1, 0),
        Span("op", 4.0, 5.0, -1, 1),
        Span("quadrature.integrate_density", 4.2, 4.8, 3, 1),
    ]
    agg = tracing.aggregate(spans)
    assert agg["quadrature.integrate_density"]["calls"] == 2
    assert agg["quadrature.integrate_density"]["self_s"] == pytest.approx(2.6)
    assert agg["op"]["self_s"] == pytest.approx(1.0 + 0.4)
    assert tracing.layer_self_s(agg)["quadrature"] == pytest.approx(1.0 + 2.6)
    assert tracing.layer_self_s(agg)["coulomb"] == 0.0
    # a one-function layer's total would repeat that function's own metric
    assert "radial" not in tracing.layer_self_s(agg)


def test_leaf_time_leaves_the_self_time_of_its_caller():
    tracer = Tracer()
    leaf = tracer.wrap_leaf("coulomb.laguerre", lambda: sum(range(20000)))
    outer = tracer.wrap("quadrature.integrate_density", lambda: leaf() + leaf())
    outer()
    assert tracer.spans == [] and tracer.leaves["coulomb.laguerre"] == [0, 0.0]
    tracer.active = True
    with tracer.span("op"):
        outer()
        leaf()
    op, integral = tracer.spans
    calls, seconds = tracer.leaves["coulomb.laguerre"]
    assert calls == 3 and 0.0 < integral.leaf_s < seconds
    assert op.leaf_s == pytest.approx(seconds - integral.leaf_s)
    agg = tracing.aggregate(tracer.spans, tracer.leaves)
    assert agg["coulomb.laguerre"]["calls"] == 3
    # self times, leaf time included, still add up to the operation's duration
    total = sum(e["self_s"] for e in agg.values())
    assert total == pytest.approx(op.duration)


def test_tracer_records_nesting_only_while_active():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.active, tracer.op_id = True, 7
    with tracer.span("op"):
        assert outer(1) == 4
    names = [(s.name, s.parent, s.op_id) for s in tracer.spans]
    assert names == [("op", -1, 7), ("outer", 0, 7), ("inner", 1, 7)]
    first, second, third = tracer.spans
    assert first.start <= second.start <= third.start <= third.end <= second.end <= first.end


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    tracer.active = True
    boom = tracer.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    (span,) = tracer.spans
    assert span.name == "boom" and span.parent == -1 and span.end >= span.start
    assert span.raised
    tracer.wrap("fine", lambda: 1)()
    assert not tracer.spans[-1].raised


def test_installed_wraps_and_restores_every_binding():
    import importlib

    originals = {
        (m, a): getattr(importlib.import_module(m), a)
        for bindings in (tracing.LAYER_BINDINGS, tracing.LEAF_BINDINGS)
        for sites in bindings.values() for m, a in sites
    }
    tracer = Tracer()
    with tracing.installed(tracer):
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_every_layer_has_a_binding():
    layers = {name.split(".", 1)[0] for name in (*tracing.LAYER_BINDINGS,
                                                  *tracing.LEAF_BINDINGS)}
    assert layers == set(tracing.LAYERS)


# --- failure accounting -----------------------------------------------------


def test_tally_counts_failures_and_unexpected_outcomes():
    tally = workloads.Tally()
    tally.check(True, "fine")
    tally.check(False, "documented defect", expect_fail=True)
    assert (tally.made, tally.failed, tally.unexpected) == (2, 1, [])
    tally.check(False, "wrong")
    tally.check(True, "defect that went away", expect_fail=True)
    assert (tally.made, tally.failed, len(tally.unexpected)) == (4, 2, 2)


def _radial(energy, nodes):
    return RadialFunction(np.zeros(5), np.zeros(5), nodes, energy, True)


def test_wrong_solver_result_is_a_failed_check():
    op = workloads.SolveOp(state_from_label("1s"), ScreeningSpec(delta=0.0), ATOMIC, "coulomb")
    tally = workloads.Tally()
    op.check(_radial(-0.5, 0), tally)
    assert (tally.failed, tally.unexpected) == (0, [])
    op.check(_radial(-0.5 * (1 + 2e-6), 0), tally)
    op.check(_radial(-0.5, 1), tally)
    op.check(NoBoundStateError("gone"), tally)
    assert tally.failed == 3 and len(tally.unexpected) == 3
    assert tally.counts["radial.node_mismatch"] == 1
    assert tally.counts["radial.no_bound_state.unexpected"] == 1


def test_wrong_published_reference_is_a_failed_check():
    row = workloads.THRESHOLD_CYCLE[0]
    good = workloads._threshold_op(row, ATOMIC, 1.0)
    wrong = workloads._threshold_op((*row[:4], row[4] + 1e-6), ATOMIC, 1.0)
    tally = workloads.Tally()
    good.check(_radial(-0.40705803, 0), tally)
    assert tally.failed == 0
    wrong.check(_radial(-0.40705803, 0), tally)
    assert tally.failed == 1 and len(tally.unexpected) == 1


def test_bound_answer_past_critical_screening_is_a_failed_check():
    op = workloads._threshold_op(workloads.THRESHOLD_CYCLE[1], ATOMIC, 1.0)
    tally = workloads.Tally()
    op.check(NoBoundStateError("unbound"), tally)
    assert tally.failed == 0 and tally.counts["radial.no_bound_state.expected"] == 1
    op.check(_radial(-1e-4, 0), tally)
    assert tally.failed == 1


def test_threshold_inputs_scale_with_units_and_strength():
    row = workloads.THRESHOLD_CYCLE[0]
    atomic = workloads._threshold_op(row, ATOMIC, 1.0)
    scaled = workloads._threshold_op(row, ecsc.HBAR2M, 4.0)
    # hbar = 1, m = 1/2, A = 4: Coulomb length 1/2, energy unit 8
    assert scaled.spec.delta == pytest.approx(2.0 * atomic.spec.delta)
    assert scaled.reference == pytest.approx(8.0 * atomic.reference)


def test_wrong_closed_form_fails_a_crosscheck(monkeypatch):
    op = workloads.CrossOp(state_from_label("1s"), ScreeningSpec(delta=0.05), ATOMIC, scan=False)
    outcome = op.run()
    tally = workloads.Tally()
    op.check(outcome, tally)
    assert (tally.made, tally.failed) == (3, 0)
    real = ecsc.perturbation.first_order_shift
    monkeypatch.setattr(ecsc.perturbation, "first_order_shift",
                        lambda *a: real(*a) * (1 + 1e-9))
    op.check(outcome, tally)
    assert tally.failed == 1 and "E1" in tally.unexpected[0]


def test_scan_point_matches_the_moment_sum():
    for label in ("1s", "2s", "3s"):  # n = 0, 1 and 2
        op = workloads.CrossOp(state_from_label(label), ScreeningSpec(delta=0.1), ATOMIC,
                               scan=True)
        tally = workloads.Tally()
        op.check(op.run(), tally)
        assert (tally.made, tally.failed) == (2, 0), tally.unexpected


def test_tolerance_not_met_is_counted():
    op = workloads.CrossOp(state_from_label("1s"), ScreeningSpec(delta=0.05), ATOMIC, scan=False)
    tally = workloads.Tally()
    op.check(ecsc.quadrature.ToleranceNotMetError("stalled", 0.0, 1.0), tally)
    assert tally.failed == 1 and tally.counts["quadrature.tolerance_not_met"] == 1


def test_table_defects_fail_in_every_pass(tmp_path):
    tally = workloads.Tally()
    for tid in sorted(workloads.TABLE_CELLS):
        for fmt in ("csv", "md"):
            op = workloads.TableOp(tid, fmt, tmp_path / f"t.{fmt}")
            op.check(op.run(), tally)
    cells = 2 * sum(workloads.TABLE_CELLS.values())
    assert (tally.made, tally.failed, tally.unexpected) == (cells, 12, [])
    assert tally.counts["tables.cells_failed"] == 12


def test_table_defect_without_its_listing_is_unexpected(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "KNOWN_DEFECTS", frozenset())
    tally = workloads.Tally()
    op = workloads.TableOp("T5", "csv", tmp_path / "t.csv")
    op.check(op.run(), tally)
    assert tally.failed == 5 and len(tally.unexpected) == 5


def test_truncated_table_output_is_an_error(tmp_path):
    op = workloads.TableOp("T1", "csv", tmp_path / "t.csv")
    code = op.run()
    lines = op.path.read_text().splitlines()
    op.path.write_text("\n".join(lines[:-1]) + "\n")
    tally = workloads.Tally()
    op.check(code, tally)
    assert any("9 cells" in u for u in tally.unexpected)


def test_every_solve_run_covers_node_counts_0_to_3_and_the_threshold():
    block = workloads.WORKLOADS["solve"].stride
    ops = [op for _, op in zip(range(block), workloads.solve_ops(3, HERE))]
    coulomb = {(op.state.principal, op.state.ell) for op in ops if op.expect == "coulomb"}
    assert coulomb == {(1, 0)} | {(4, ell) for ell in range(4)}
    assert {op.state.n for op in ops} == {0, 1, 2, 3}
    kinds = Counter(op.expect for op in ops)
    assert kinds == {"coulomb": 5, "closed": 2, "published": 3, "unbound": 2, "weak": 1}
    # the median (7th of 13) lies among the seven bound 1s levels, above the
    # two cheap unbound answers
    bound_1s = [op for op in ops if op.state.label == "1s" and op.expect != "unbound"]
    assert kinds["unbound"] < (block + 1) // 2 <= kinds["unbound"] + len(bound_1s)


def test_every_closed_forms_run_covers_every_table_and_state():
    block = workloads.WORKLOADS["closed-forms"].stride
    ops = [op for _, op in zip(range(block), workloads.closed_ops(3, HERE))]
    tables = {(op.table_id, op.fmt) for op in ops if isinstance(op, workloads.TableOp)}
    assert tables == set(workloads.TABLE_BLOCK)
    points = Counter((op.state, op.scan) for op in ops if isinstance(op, workloads.CrossOp))
    assert len(points) == 24 and set(points.values()) == {1, 2}


def test_seed_fixes_the_inputs():
    for w in workloads.WORKLOADS.values():
        take = lambda seed: [repr(op) for _, op in zip(range(20), w.ops(seed, HERE))]
        assert take(5) == take(5)
        assert take(5) != take(6)


# --- the measuring loop -----------------------------------------------------


class _Op:
    def __init__(self, fail=False, raises=False):
        self.fail, self.raises = fail, raises

    def run(self):
        if self.raises:
            raise RuntimeError("broken")
        return 1

    def check(self, outcome, tally):
        tally.check(not self.fail, "fake")


class _Workload:
    stride = 1

    def __init__(self, ops):
        self._ops = ops

    def ops(self, seed, out_dir):
        return iter(self._ops)


def test_measure_counts_failed_operations():
    ops = [_Op(), _Op(fail=True), _Op(raises=True), _Op()]
    tally = workloads.Tally()
    untraced, traced, failed = run._measure(_Workload(ops), 0, 60.0, HERE, tally)
    assert (len(untraced), traced, failed) == (4, [], 2)
    assert (tally.made, tally.failed, len(tally.unexpected)) == (3, 1, 2)


def test_measure_covers_whole_blocks():
    tally = workloads.Tally()
    blocks = _Workload([_Op() for _ in range(10)])
    blocks.stride = 3
    # past the deadline from the start: the first block still runs whole
    untraced, _, _ = run._measure(blocks, 0, 0.0, HERE, tally)
    assert len(untraced) == 3
    untraced, _, _ = run._measure(blocks, 0, 60.0, HERE, tally)
    assert len(untraced) == 10


def test_traced_measure_runs_each_operation_on_both_sides():
    tally = workloads.Tally()
    tracer = Tracer()
    untraced, traced, failed = run._measure(_Workload([_Op(), _Op(fail=True)]), 0, 60.0, HERE,
                                            tally, tracer)
    assert (len(untraced), len(traced), failed) == (2, 2, 2)
    assert [s.op_id for s in tracer.spans] == [0, 1]
    assert not tracer.active


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tally = workloads.Tally()
    tally.made = 1
    tracer = Tracer()
    tracer.spans.append(Span("op", 0.0, 1.0, -1, 0))
    per_layer = run._per_layer(tally, tracer, [1.0], [1.0])
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)
    end_to_end, _ = run._latency_metrics([0.1, 0.2])
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end) | {"setup_s",
                                                                        "peak_rss_mb"}
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
