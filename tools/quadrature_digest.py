"""Digest of the quadrature's E1 and E2 and of ``scan_delta``'s quadrature
column over a fixed sweep, to check that a refactor of ``ecsc.quadrature``
or of the scan leaves every value bit-identical, and per-case records to
check that a change which moves values keeps them within rounding.

Run it once per tree and compare the printed lines:

    PYTHONPATH=src python tools/quadrature_digest.py

or write one JSON line per case with ``--records`` and compare two such
files, one per tree:

    PYTHONPATH=src python tools/quadrature_digest.py --records new.jsonl
    PYTHONPATH=src python tools/quadrature_digest.py --compare old.jsonl new.jsonl

The sweep is every level with n <= 3 and l <= 4, delta = 0.01 k for
k = 1-20, atomic units and hbar2m units each with A = 1 and 8, and both
second-order variants (``superpotential_first`` with
``SecondOrderVariant.FULL``, then ``TRUNCATED``): 3200 cases.  The two
superpotentials differ only for n = 1, so the FULL and TRUNCATED cases
of every other level are equal.  Each case adds
``float.hex`` of ``first_order_energy_numeric`` and of
``second_order_energy_numeric`` with that superpotential to one SHA-256
digest, and ``float.hex`` of the quadrature column of
``scan_delta(state, A, units, delta, delta, 1, variant=variant)``, which is
E0 + A delta + E1 + E2, to a second one.  The line also gives the case
count and the largest relative gap of E1 from the closed form
``first_order_shift``.

A record holds the case, E1, E2 and the scan value as ``float.hex``.  For
E1 and E2 it also holds the integral of chi^2 |f| over the integrand f, the
scale of its rounding, by a 100-point Gauss-Laguerre rule in x = 2 beta r
(|f| has kinks, so this is a scale good to about 1e-2, not a value); for
the scan value, |E0| + A delta plus those two integrals.  ``--compare``
prints the largest gaps of each value in units of eps times its scale and
exits 1 when a value moved by more than 64 of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext

import numpy as np

from ecsc import (
    ATOMIC,
    HBAR2M,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    coulomb_beta,
    coulomb_energy,
    coulomb_wavefunction,
    first_order_energy_numeric,
    first_order_shift,
    scan_delta,
    second_order_energy_numeric,
    superpotential_first,
)

EPS = float(np.finfo(float).eps)
#: --compare's bound, in units of eps times integral chi^2 |f|: measured, not
#: derived; moving from sums over the nodes to sums of cached moments moved E2
#: by at most 44.1 (4s, hbar2m, A = 8, delta = 0.19), and 64 leaves room above it
MULTIPLE = 64.0
_X, _W = np.polynomial.laguerre.laggauss(100)


def _absolute_integral(state, spec, units, f) -> float:
    # integral chi^2(r) |f(r)| dr = integral exp(-x) [exp(x) chi^2 |f|] dx / (2 beta)
    two_beta = 2.0 * coulomb_beta(state, spec, units)
    r = _X / two_beta
    chi = coulomb_wavefunction(state, spec, units, r)
    return float(np.sum(_W * np.exp(_X) * chi**2 * np.abs(f(r)))) / two_beta


def _digest(records=None) -> tuple[int, str, str, float]:
    digest, scan_digest = hashlib.sha256(), hashlib.sha256()
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
                            scan = scan_delta(state, strength, units, spec.delta, spec.delta, 1,
                                              variant=variant).rows[0].quadrature
                            scan_digest.update(f"{scan.hex()}\n".encode())
                            count += 1
                            if records is None:
                                continue
                            a_d3 = strength * spec.delta**3 / 3.0
                            sixth = strength * spec.delta**4 / 6.0
                            abs_e1 = _absolute_integral(state, spec, units, lambda r: a_d3 * r**2)
                            abs_e2 = _absolute_integral(
                                state, spec, units, lambda r: sixth * r**3 - w1(r) ** 2)
                            records.write(json.dumps({
                                "case": f"{state.label} {units.label} A={strength:g} "
                                        f"delta={spec.delta:.2f} {variant.name}",
                                "e1": e1.hex(), "e2": e2.hex(), "scan": scan.hex(),
                                "abs_e1": abs_e1, "abs_e2": abs_e2,
                                "abs_scan": (abs(coulomb_energy(state, spec, units))
                                             + strength * spec.delta + abs_e1 + abs_e2),
                            }) + "\n")
    return count, digest.hexdigest(), scan_digest.hexdigest(), gap


def compare(old_path: str, new_path: str) -> int:
    """Print the largest gaps of E1, E2 and the scan value between two record
    files, in units of eps times each one's scale; 1 when one exceeds MULTIPLE."""
    with open(old_path, encoding="utf-8") as fh:
        old = [json.loads(line) for line in fh]
    with open(new_path, encoding="utf-8") as fh:
        new = [json.loads(line) for line in fh]
    if [a["case"] for a in old] != [b["case"] for b in new]:
        print("the two files do not hold the same cases")
        return 1
    failures = 0
    for key in ("e1", "e2", "scan"):
        gaps, same = [], 0
        for a, b in zip(old, new):
            before, after = float.fromhex(a[key]), float.fromhex(b[key])
            same += before == after
            gaps.append((abs(after - before) / (EPS * a["abs_" + key]),
                         abs(after - before) / abs(before) if before else 0.0, a["case"]))
        gaps.sort(reverse=True)
        over = sum(g > MULTIPLE for g, _, _ in gaps)
        failures += over
        print(f"{key}: identical={same} over_{MULTIPLE:g}_eps={over} "
              f"max_relative={max(rel for _, rel, _ in gaps):.3g}")
        for g, rel, case in gaps[:5]:
            print(f"  {g:8.3g} eps  {rel:.3g} relative  {case}")
    print(f"cases={len(old)} failures={failures}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", metavar="PATH", help="also write one JSON line per case")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files instead of integrating")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    with open(args.records, "w", encoding="utf-8") if args.records else nullcontext() as records:
        count, digest, scan_digest, gap = _digest(records)
    print(f"cases={count} sha256={digest} scan_sha256={scan_digest} e1_max_rel_gap={gap:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
