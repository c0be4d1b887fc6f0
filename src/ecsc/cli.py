"""Command-line interface: energies, reference tables, sweeps, wavefunctions."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from math import isfinite

import numpy as np

from .core import (
    MAX_SAMPLES,
    ScreeningSpec,
    ValidationError,
    make_unit_system,
    state_from_label,
)
from .coulomb import coulomb_beta
from .perturbation import ground_wavefunction, total_energy
from .potential import effective_potential
from .radial import MAX_BOX_SCALE, NoBoundStateError, default_solver_config, solve_bound_state
from .tables import TABLES, render_text, reproduce_table, scan_delta


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", required=True, help="spectroscopic label, e.g. 1s, 2p, 3d")
    parser.add_argument("--A", type=float, default=1.0, help="potential strength (default 1)")
    parser.add_argument("--units", default="atomic",
                        help="atomic | hbar2m | custom:HBAR,MASS (default atomic)")


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=("truncated", "full"), default="truncated",
                        help="second-order closed form for the first excited level")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "md"), default="md")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out_path) -> None:
    """Write ``text`` to ``out_path``, or to stdout when it is None: the only file writer."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc.strerror or exc}") from None


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsc",
        description="Bound states of the exponential-cosine-screened Coulomb potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="closed-form level energy with its breakdown")
    _add_common(p_energy)
    _add_variant(p_energy)
    p_energy.add_argument("--delta", type=float, required=True, help="screening parameter")

    p_table = sub.add_parser("table", help="recompute a bundled reference table and diff it")
    p_table.add_argument("id", choices=sorted(TABLES) + [t.lower() for t in sorted(TABLES)],
                         help="table identifier T1..T6")
    _add_variant(p_table)
    _add_output(p_table)

    p_scan = sub.add_parser("scan", help="sweep the screening parameter")
    _add_common(p_scan)
    _add_variant(p_scan)
    p_scan.add_argument("--delta-start", type=float, required=True)
    p_scan.add_argument("--delta-end", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--with-oracle", action="store_true",
                        help="also solve each point with the radial eigensolver")
    _add_output(p_scan)

    p_wf = sub.add_parser("wavefunction",
                          help="sample the moderated analytic ground-level wavefunction (n = 0)")
    _add_common(p_wf)
    p_wf.add_argument("--delta", type=float, required=True)
    p_wf.add_argument("--rmax", type=float, default=None, help="sampling cutoff")
    p_wf.add_argument("--points", type=int, default=1000)
    p_wf.add_argument("--renormalize", action="store_true")
    p_wf.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_or = sub.add_parser("oracle", help="solve the radial equation numerically")
    _add_common(p_or)
    _add_variant(p_or)
    p_or.add_argument("--delta", type=float, required=True)
    p_or.add_argument("--g", type=float, default=1.0, help="cosine factor (0 gives pure Yukawa)")
    p_or.add_argument("--rmax", type=float, default=None, help="override the box cutoff")
    p_or.add_argument("--out", default=None,
                      help="dump the wavefunction at the mesh points as two-column text")

    return parser


def _cmd_energy(args) -> int:
    units = make_unit_system(args.units)
    state = state_from_label(args.state)
    spec = ScreeningSpec(delta=args.delta, strength=args.A)
    breakdown = total_energy(state, spec, units, args.variant)
    print(f"state {args.state} (n={state.n}, l={state.ell})  "
          f"units hbar={units.hbar:g} mass={units.mass:g}  A={args.A:g} delta={args.delta:g}")
    print(f"  E0           {breakdown.e0:+.10g}")
    print(f"  A*delta      {breakdown.linear_shift:+.10g}")
    print(f"  E1           {breakdown.e1:+.10g}")
    print(f"  E2           {breakdown.e2:+.10g}"
          + ("   (none: no closed form for n > 2)" if breakdown.first_order_only else ""))
    print(f"  total        {breakdown.total:+.10g}")
    return 0


def _cmd_table(args) -> int:
    result = reproduce_table(args.id.upper(), args.variant)
    _emit(result.to_csv_text() if args.format == "csv" else result.to_markdown_text(), args.out)
    if args.out is not None:
        print(result.summary())
    return 0 if result.passed else 1


def _cmd_scan(args) -> int:
    units = make_unit_system(args.units)
    state = state_from_label(args.state)
    result = scan_delta(
        state, args.A, units, args.delta_start, args.delta_end, args.steps,
        with_oracle=args.with_oracle, variant=args.variant,
    )
    _emit(result.to_csv_text() if args.format == "csv" else result.to_markdown_text(), args.out)
    return 0


def _check_rmax(rmax) -> None:
    """Refuse an ``--rmax`` that is given but not a positive finite radius."""
    if rmax is not None and not (isfinite(rmax) and rmax > 0.0):
        raise ValidationError(f"--rmax must be positive and finite, got {rmax}")


def _cmd_wavefunction(args) -> int:
    _check_rmax(args.rmax)
    units = make_unit_system(args.units)
    state = state_from_label(args.state)
    if state.n != 0:
        raise ValidationError(
            "the analytic moderated wavefunction is available for n = 0 levels only")
    if not 1 <= args.points <= MAX_SAMPLES:
        raise ValidationError(f"--points must be between 1 and {MAX_SAMPLES}, got {args.points}")
    spec = ScreeningSpec(delta=args.delta, strength=args.A)
    psi, poly, r_c = ground_wavefunction(state.ell, spec, units, renormalize=args.renormalize)
    r_max = args.rmax
    if r_max is None:
        # stay inside the decaying window of the asymptotic closed form
        r_max = min(25.0 / coulomb_beta(state, spec, units), r_c)
    grid = np.linspace(r_max / args.points, r_max, args.points)
    _emit(render_text("csv", ("r", "psi"), zip(grid, psi(grid))), args.out)
    if args.out is not None:
        print("exponent coefficients:", ", ".join(f"p{i}={p:.6g}"
                                                  for i, p in enumerate(poly.coef[1:], 1)))
    return 0


def _cmd_oracle(args) -> int:
    _check_rmax(args.rmax)
    units = make_unit_system(args.units)
    state = state_from_label(args.state)
    spec = ScreeningSpec(delta=args.delta, strength=args.A, g=args.g)
    config = default_solver_config(state, spec, units)
    if args.rmax is not None:
        widest = MAX_BOX_SCALE * config.r_max
        if not args.rmax <= widest:
            raise ValidationError(f"--rmax must be at most {widest:g}, {MAX_BOX_SCALE:g} times "
                                  "the default box: the mesh does not resolve a wider one")
        config = replace(config, r_max=args.rmax)
    potential = lambda r: effective_potential(r, spec, state.ell, units)
    try:
        rf = solve_bound_state(potential, state, units, config)
    except NoBoundStateError as exc:
        print(f"no bound state: {exc}", file=sys.stderr)
        return 1
    analytic = total_energy(state, spec, units, args.variant).total if spec.g == 1.0 else None
    if args.out is not None:  # written first: a refused total or a failed write prints nothing
        _emit("".join(f"{r:.10e} {chi:.10e}\n" for r, chi in zip(rf.grid, rf.values)), args.out)
    print(f"numeric energy  {rf.energy:+.10g}   nodes={rf.node_count} mesh={rf.grid.size - 1} "
          f"converged={rf.converged} error_estimate={rf.error_estimate:.1e}")
    if analytic is not None:
        print(f"analytic total  {analytic:+.10g}   difference {rf.energy - analytic:+.3e}")
    return 0


def _inputs(args) -> str:
    """The A, hbar, m and delta of a verb's arguments, as a message names them."""
    units = make_unit_system(args.units)
    delta = (f"delta = {args.delta:g}" if "delta" in args
             else f"delta from {args.delta_start:g} to {args.delta_end:g}")
    return f"A = {args.A:g}, hbar = {units.hbar:g}, m = {units.mass:g} and {delta}"


_COMMANDS = {
    "energy": _cmd_energy,
    "table": _cmd_table,
    "scan": _cmd_scan,
    "wavefunction": _cmd_wavefunction,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a result refused where it is assembled, or a power of hbar, m, A or
        # delta on the way to it; args[-1] drops an errno
        print(f"error: out of floating-point range at {_inputs(args)}: {exc.args[-1]}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
