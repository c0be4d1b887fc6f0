"""Digests of the radial solver's outputs over two fixed sweeps, to check
that a refactor of ``ecsc.radial`` leaves every result bit-identical.

Run it once per tree and compare the printed lines:

    PYTHONPATH=src python tools/solver_digest.py

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
"""

from __future__ import annotations

import hashlib

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
                        yield (lambda r, spec=spec, ell=state.ell, units=units:
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
                    yield (lambda r, spec=spec, ell=state.ell:
                           effective_potential(r, spec, ell, ATOMIC),
                           state, ATOMIC, SolverConfig(r_max=r_max))
    for charge in CHARGES:
        for r_max in (40.0, 240.0):
            for n in (0, 1, 3):
                yield (lambda r, charge=charge: -charge / r,
                       QuantumState(n, 0), ATOMIC, SolverConfig(r_max=r_max))
    for n in (15, 19):
        yield lambda r: -1.0 / r, QuantumState(n, 0), ATOMIC, SolverConfig(r_max=40.0 * 20**2)


def _digest(cases) -> tuple[int, str, str]:
    core, full = hashlib.sha256(), hashlib.sha256()
    count = 0
    for potential, state, units, config in cases:
        count += 1
        try:
            level = solve_bound_state(potential, state, units, config)
        except NoBoundStateError as exc:
            text = f"unbound {exc}\n".encode()
            core.update(text)
            full.update(text)
            continue
        record = (f"{level.energy.hex()} {level.node_count} ".encode()
                  + level.grid.tobytes() + level.values.tobytes())
        core.update(record)
        full.update(record + f" {level.error_estimate.hex()} {level.converged}\n".encode())
    return count, core.hexdigest(), full.hexdigest()


def main() -> None:
    for name, cases in (("default", _default_cases()), ("boxes", _box_cases())):
        count, core, full = _digest(cases)
        print(f"{name} cases={count} core={core} full={full}")


if __name__ == "__main__":
    main()
