"""Digest of the quadrature's E1 and E2 over a fixed sweep, to check that a
refactor of ``ecsc.quadrature`` leaves every value bit-identical.

Run it once per tree and compare the printed lines:

    PYTHONPATH=src python tools/quadrature_digest.py

The sweep is every level with n <= 3 and l <= 4, delta = 0.01 k for
k = 1-20, atomic units and hbar2m units each with A = 1 and 8, and both
second-order variants (``superpotential_first`` with
``SecondOrderVariant.FULL``, then ``TRUNCATED``): 3200 cases.  The two
superpotentials differ only for n = 1, so the FULL and TRUNCATED cases
of every other level are equal.  Each case adds
``float.hex`` of ``first_order_energy_numeric`` and of
``second_order_energy_numeric`` with that superpotential to one SHA-256
digest.  The line also gives the case count and the largest relative gap
of E1 from the closed form ``first_order_shift``.
"""

from __future__ import annotations

import hashlib

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    first_order_energy_numeric,
    first_order_shift,
    second_order_energy_numeric,
    superpotential_first,
)


def main() -> None:
    digest = hashlib.sha256()
    count, gap = 0, 0.0
    for n in range(4):
        for ell in range(5):
            state = QuantumState(n, ell)
            for units in (ATOMIC, HBAR2M):
                for strength in (1.0, 8.0):
                    for k in range(1, 21):
                        spec = ScreeningSpec(delta=0.01 * k, strength=strength)
                        e1 = first_order_energy_numeric(state, spec, units)
                        closed = first_order_shift(state, spec, units)
                        gap = max(gap, abs(e1 - closed) / abs(closed))
                        for variant in (SecondOrderVariant.FULL, SecondOrderVariant.TRUNCATED):
                            w1 = superpotential_first(state, spec, units, variant)
                            e2 = second_order_energy_numeric(state, spec, units, w1)
                            digest.update(f"{e1.hex()} {e2.hex()}\n".encode())
                            count += 1
    print(f"cases={count} sha256={digest.hexdigest()} e1_max_rel_gap={gap:.3g}")


if __name__ == "__main__":
    main()
