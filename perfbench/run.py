"""Benchmark runner for ``ecsc``: one client, closed loop, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The runner imports ``ecsc`` from ``src/``
in-process and issues one operation at a time, the next only after the
previous one returned and was checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice, untraced and with spans around
each layer's functions, and reports per-layer metrics and the tracing
overhead.  Full records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import envinfo
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _run_checked(op, tally, tracer=None) -> float:
    """Run one operation (inside an op span when traced), then check it untimed."""
    start = perf_counter()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            tracer.active = True
            try:
                with tracer.span(tracing.OP_SPAN):
                    outcome = op.run()
            finally:
                tracer.active = False
    except Exception:
        tally.error(f"{op!r} raised:\n{traceback.format_exc()}")
        return perf_counter() - start
    duration = perf_counter() - start
    try:
        op.check(outcome, tally)
    except Exception:
        tally.error(f"checking {op!r} raised:\n{traceback.format_exc()}")
    return duration


def _measure(workload, seed: int, seconds: float, out_dir: Path, tally, tracer=None):
    """Closed loop over whole blocks of operations for about ``seconds``.

    Another block starts while the time left exceeds half a block, so a run
    covers whole blocks and ends within half a block of the deadline.
    Returns the untraced and the traced durations and the number of failed
    runs.  With a tracer every operation runs twice, untraced and traced, in
    an order that alternates so that neither side always finds warm caches.
    """
    untraced, traced, failed = [], [], 0
    start = perf_counter()
    for index, op in enumerate(workload.ops(seed, out_dir)):
        if index and index % workload.stride == 0:
            elapsed = perf_counter() - start
            if seconds - elapsed < elapsed / (index // workload.stride) / 2:
                break
        sides = (None,) if tracer is None else ((None, tracer), (tracer, None))[index % 2]
        for side in sides:
            before = len(tally.unexpected)
            if side is None:
                untraced.append(_run_checked(op, tally))
            else:
                side.op_id = index
                traced.append(_run_checked(op, tally, side))
            failed += len(tally.unexpected) > before
    return untraced, traced, failed


def _setup_seconds(workload_name: str, out_dir: Path) -> list[float]:
    """Fresh interpreters through ``import ecsc`` and the first operation."""
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        f"workloads.WORKLOADS[{workload_name!r}].warmup(Path({str(out_dir)!r})).run()"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=150,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def _latency_metrics(durations) -> tuple[dict, dict]:
    ms = [d * 1e3 for d in durations]
    metrics = {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
    }
    # a percentile is reported only with at least ten samples beyond it
    extra = {"samples": len(ms)}
    for q in (90, 99):
        if len(ms) * (100 - q) / 100 >= 10:
            extra[f"op_ms.p{q}"] = statistics.quantiles(ms, n=100)[q - 1]
    return metrics, extra


def _per_layer(tally, tracer, untraced, traced) -> dict:
    spans = tracer.spans
    agg = tracing.aggregate(spans, tracer.leaves)
    entry = lambda name: agg.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
    solves = entry("radial.solve_bound_state")
    solve_durations = solves["durations"]
    solved = tally.counts["radial.solves"] - tally.counts["radial.no_bound_state.expected"] \
        - tally.counts["radial.no_bound_state.unexpected"]
    total_energy = entry("perturbation.total_energy")
    m = {
        "checks.made": (tally.made, "count"),
        "checks.failed": (tally.failed, "count"),
        "checks.failed_ratio": (tally.failed / tally.made if tally.made else 0.0, "ratio"),
        "radial.solve_s.p50": (statistics.median(solve_durations) if solve_durations else 0.0,
                               "s"),
        "radial.solve_s.total": (sum(solve_durations), "s"),
        "radial.solve_bound_state.calls": (solves["calls"], "count"),
        "radial.grid_points": (statistics.median(tally.values["radial.grid_points"])
                               if tally.values["radial.grid_points"] else 0, "count"),
        "radial.converged_ratio": (tally.counts["radial.converged"] / solved if solved else 0.0,
                                   "ratio"),
        "radial.node_mismatch": (tally.counts["radial.node_mismatch"], "count"),
        "radial.no_bound_state.expected": (tally.counts["radial.no_bound_state.expected"],
                                           "count"),
        "radial.no_bound_state.unexpected": (tally.counts["radial.no_bound_state.unexpected"],
                                             "count"),
        "radial.rel_err_max": (max(tally.values["radial.rel_err"], default=0.0), "ratio"),
        "radial.unbound_s.total": (sum(s.duration for s in spans
                                       if s.name == "radial.solve_bound_state" and s.raised),
                                   "s"),
        "potential.effective_potential.calls_per_solve": (
            entry("potential.effective_potential")["calls"] / solves["calls"]
            if solves["calls"] else 0.0, "count"),
        "potential.effective_potential.self_s": (entry("potential.effective_potential")["self_s"],
                                                 "s"),
        "quadrature.first_order_energy_numeric.self_s": (
            entry("quadrature.first_order_energy_numeric")["self_s"], "s"),
        "quadrature.second_order_energy_numeric.self_s": (
            entry("quadrature.second_order_energy_numeric")["self_s"], "s"),
        "quadrature.integrate_density.calls": (entry("quadrature.integrate_density")["calls"],
                                               "count"),
        "quadrature.integrate_density.self_s": (entry("quadrature.integrate_density")["self_s"],
                                                "s"),
        "quadrature.tolerance_not_met": (tally.counts["quadrature.tolerance_not_met"], "count"),
        "perturbation.total_energy.calls": (total_energy["calls"], "count"),
        "perturbation.total_energy.self_us": (
            1e6 * total_energy["self_s"] / total_energy["calls"] if total_energy["calls"] else 0.0,
            "us"),
        "perturbation.superpotential_first.self_s": (
            entry("perturbation.superpotential_first")["self_s"], "s"),
        "coulomb.radial_moment.calls": (entry("coulomb.radial_moment")["calls"], "count"),
        "coulomb.radial_moment.self_s": (entry("coulomb.radial_moment")["self_s"], "s"),
        "coulomb.laguerre.calls": (entry("coulomb.laguerre")["calls"], "count"),
        "coulomb.laguerre.self_s": (entry("coulomb.laguerre")["self_s"], "s"),
        "tables.reproduce_table.self_s": (entry("tables.reproduce_table")["self_s"], "s"),
        "tables.cells": (tally.counts["tables.cells"], "count"),
        "tables.cells_failed": (tally.counts["tables.cells_failed"], "count"),
        "tables.scan_delta.self_s": (entry("tables.scan_delta")["self_s"], "s"),
        "cli.main.self_s": (entry("cli.main")["self_s"], "s"),
        "radial.solve_bound_state.self_s": (solves["self_s"], "s"),
        "trace.ops": (len(traced), "count"),
        "trace.op_s.total": (sum(traced), "s"),
        "trace.unattributed_s": (entry(tracing.OP_SPAN)["self_s"], "s"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_ratio": (sum(traced) / sum(untraced), "ratio"),
    }
    for layer, seconds in tracing.layer_self_s(agg).items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ecsc" / "__init__.py").is_file():
        print(f"error: no ecsc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ecsc
    import workloads

    if Path(ecsc.__file__).resolve().parent != (SRC / "ecsc").resolve():
        print(f"error: imported ecsc from {ecsc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    # untimed: the first operation, then whole blocks drawn from another seed
    warm_tally = workloads.Tally()
    warm_ops = [workload.warmup(out_dir), *itertools.islice(
        workload.ops(-1 - args.seed, out_dir), workload.warm_blocks * workload.stride)]
    warm_failed = 0
    for op in warm_ops:
        before = len(warm_tally.unexpected)
        _run_checked(op, warm_tally)
        warm_failed += len(warm_tally.unexpected) > before
    tally = workloads.Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operation": workload.operation,
              "environment": envinfo.environment(ROOT)}
    if args.trace == 0:
        setup = _setup_seconds(args.workload, out_dir)
        durations, _, failed = _measure(workload, args.seed, args.seconds, out_dir, tally)
        metrics, extra = _latency_metrics(durations)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB")
        extra["setup_s.samples"] = setup
        extra["checks.failed_ratio"] = tally.failed / tally.made if tally.made else 0.0
    else:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            untraced, traced, failed = _measure(workload, args.seed, args.seconds, out_dir,
                                                tally, tracer)
        tracer.write_csv(out_dir / f"trace-{args.workload}.csv")
        durations = untraced + traced
        metrics = _per_layer(tally, tracer, untraced, traced)
        extra = {"samples": len(durations)}

    failed += warm_failed
    unexpected = warm_tally.unexpected + tally.unexpected
    attempted = len(durations) + len(warm_ops)
    record.update(
        attempted=attempted, failed=failed,
        checks={"made": tally.made, "failed": tally.failed, "unexpected": unexpected[:50]},
        metrics={k: {"value": v if u == "count" else float(v), "unit": u}
                 for k, (v, u) in metrics.items()},
        extra=extra,
    )
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(record["environment"]))
    for line in unexpected[:20]:
        print("UNEXPECTED " + line.splitlines()[0])
    print(f"{args.workload}: {attempted} operations ({workload.operation}), {failed} failed; "
          f"{tally.made} checks, {tally.failed} failed")
    for key, value in sorted(extra.items()):
        print(f"  {key} = {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
