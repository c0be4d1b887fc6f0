"""Digests of the radial solver's outputs over two fixed sweeps, to check
that a refactor of ``ecsc.radial`` leaves every result bit-identical, and
per-case records to check that a change which moves results keeps them
within the solver's own error estimates.

Run it once per tree and compare the printed lines:

    PYTHONPATH=src python tools/solver_digest.py

or write one JSON line per case with ``--records`` and compare two such
files, one per tree:

    PYTHONPATH=src python tools/solver_digest.py --records new.jsonl
    PYTHONPATH=src python tools/solver_digest.py --compare old.jsonl new.jsonl

It solves every case of each sweep with ``solve_bound_state`` and prints,
per sweep, the case count and two SHA-256 digests.  ``core`` covers, in
order, ``float.hex`` of the energy and the node count, the bytes of the
grid and of the values, and the text of each ``NoBoundStateError``;
``full`` covers the same and also ``float.hex`` of ``error_estimate`` and
``converged``.

- ``default``: 1s-4f in atomic and hbar2m units, A = 1 and 4, g = 1 and 0,
  delta = 0.02 k for k = 0-40, in ``default_solver_config``'s box.
- ``boxes``: 1s-4f in atomic units with A = 1 in 0.5, 2 and 4 times the
  default box, g = 1 and 0, delta = 0.05 k for k = 0-15; -Z/r with
  n = 0, 1 and 3 nodes, l = 0, at r_max = 40 and 240 for 16 values of Z
  up to 800, which end at every order up to 718 and take the ``eigvalsh``
  fallback; and the crowded Coulomb levels 16s and 20s in a box of
  40 * 20^2 Coulomb lengths.

A record holds the case, its verdict (bound or unbound), ``float.hex`` of
the energy, the error estimate, ``converged``, the node count, the final
mesh order and the text of a ``NoBoundStateError``.  ``--compare`` lists
every case whose final order moved and every unbound text that changed,
and exits 1 when a case's verdict, node count or ``converged`` differs or
its energies differ by more than the sum of their two estimates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext

from ecsc import (
    ATOMIC,
    HBAR2M,
    NoBoundStateError,
    QuantumState,
    ScreeningSpec,
    SolverConfig,
    default_solver_config,
    effective_potential,
    solve_bound_state,
    state_from_label,
)

LABELS = ("1s", "2s", "2p", "3s", "3p", "3d", "4s", "4p", "4d", "4f")
CHARGES = (1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 750, 800)


def _default_cases():
    for label in LABELS:
        state = state_from_label(label)
        for units in (ATOMIC, HBAR2M):
            for strength in (1.0, 4.0):
                for g in (1.0, 0.0):
                    for k in range(41):
                        spec = ScreeningSpec(delta=0.02 * k, strength=strength, g=g)
                        yield (f"default {label} {units.label} A={strength:g} g={g:g} "
                               f"delta={spec.delta:.2f}",
                               lambda r, spec=spec, ell=state.ell, units=units:
                               effective_potential(r, spec, ell, units),
                               state, units, default_solver_config(state, spec, units))


def _box_cases():
    for label in LABELS:
        state = state_from_label(label)
        for scale in (0.5, 2.0, 4.0):
            for g in (1.0, 0.0):
                for k in range(16):
                    spec = ScreeningSpec(delta=0.05 * k, g=g)
                    r_max = scale * default_solver_config(state, spec, ATOMIC).r_max
                    yield (f"boxes {label} {scale:g}x g={g:g} delta={spec.delta:.2f}",
                           lambda r, spec=spec, ell=state.ell:
                           effective_potential(r, spec, ell, ATOMIC),
                           state, ATOMIC, SolverConfig(r_max=r_max))
    for charge in CHARGES:
        for r_max in (40.0, 240.0):
            for n in (0, 1, 3):
                yield (f"boxes -{charge}/r n={n} r_max={r_max:g}",
                       lambda r, charge=charge: -charge / r,
                       QuantumState(n, 0), ATOMIC, SolverConfig(r_max=r_max))
    for n in (15, 19):
        yield (f"boxes -1/r n={n} r_max=16000", lambda r: -1.0 / r,
               QuantumState(n, 0), ATOMIC, SolverConfig(r_max=40.0 * 20**2))


def _digest(cases, records=None) -> tuple[int, str, str]:
    core, full = hashlib.sha256(), hashlib.sha256()
    count = 0
    for case, potential, state, units, config in cases:
        count += 1
        try:
            level = solve_bound_state(potential, state, units, config)
        except NoBoundStateError as exc:
            text = f"unbound {exc}\n".encode()
            core.update(text)
            full.update(text)
            if records is not None:
                records.write(json.dumps({"case": case, "verdict": "unbound", "text": str(exc)})
                              + "\n")
            continue
        record = (f"{level.energy.hex()} {level.node_count} ".encode()
                  + level.grid.tobytes() + level.values.tobytes())
        core.update(record)
        full.update(record + f" {level.error_estimate.hex()} {level.converged}\n".encode())
        if records is not None:
            records.write(json.dumps({
                "case": case, "verdict": "bound", "energy": level.energy.hex(),
                "estimate": level.error_estimate, "converged": level.converged,
                "nodes": level.node_count, "order": level.grid.size - 1}) + "\n")
    return count, core.hexdigest(), full.hexdigest()


def compare(old_path: str, new_path: str) -> int:
    """Print how the records of ``new_path`` differ from those of ``old_path``;
    1 when a verdict, node count or converged flag differs or an energy moved
    by more than the sum of the two estimates, else 0."""
    with open(old_path, encoding="utf-8") as fh:
        old = [json.loads(line) for line in fh]
    with open(new_path, encoding="utf-8") as fh:
        new = [json.loads(line) for line in fh]
    if [a["case"] for a in old] != [b["case"] for b in new]:
        print("the two files do not hold the same cases")
        return 1
    keys = ("verdict", "nodes", "converged")
    failures, texts, relative, of_old = 0, 0, 0.0, 0.0
    for a, b in zip(old, new):
        case = a["case"]
        if any(a.get(key) != b.get(key) for key in keys):
            failures += 1
            print(f"DIFFERS {case}: " + ", ".join(f"{key} {a.get(key)} -> {b.get(key)}"
                                                   for key in keys if a.get(key) != b.get(key)))
            continue
        if a["verdict"] == "unbound":
            if a["text"] != b["text"]:
                texts += 1
                print(f"text {case}: {a['text']!r} -> {b['text']!r}")
            continue
        energy = float.fromhex(a["energy"])
        shift = abs(float.fromhex(b["energy"]) - energy)
        bound = a["estimate"] + b["estimate"]
        relative, of_old = max(relative, shift / abs(energy)), max(of_old, shift / a["estimate"])
        if not shift <= bound:
            failures += 1
            print(f"DIFFERS {case}: |dE| = {shift:.3g} exceeds the estimates' sum {bound:.3g}")
        if a["order"] != b["order"]:
            print(f"order {case}: {a['order']} -> {b['order']}")
    print(f"cases={len(old)} failures={failures} unbound_texts_changed={texts} "
          f"max_relative_dE={relative:.3g} max_dE_over_old_estimate={of_old:.3g}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", metavar="PATH", help="also write one JSON line per case")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files instead of solving")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    with open(args.records, "w", encoding="utf-8") if args.records else nullcontext() as records:
        for name, cases in (("default", _default_cases()), ("boxes", _box_cases())):
            count, core, full = _digest(cases, records)
            print(f"{name} cases={count} core={core} full={full}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
