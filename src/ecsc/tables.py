"""Reference energy tables and the machinery to recompute and diff them.

Six tables of previously published bound-state energies for the
exponential-cosine-screened Coulomb potential are bundled verbatim as
regression fixtures:

  T1  1s level, atomic units, A = 1, delta = 0.01 .. 0.10
  T2  2s level, same setup
  T3  2s and 2p levels at selected delta
  T4  3s, 3p and 3d levels at selected delta
  T5  1s .. 3d levels with hbar = m = 1, A = sqrt(2), delta = sqrt(2) G
  T6  levels for A in {4, 8, 16, 24} with hbar = 1, m = 1/2, delta = 0.2

Each table is one ``TableDefinition`` with its own row schema: a row holds
the ``key_columns``, then the ``reference_columns`` published alongside
(large-order 1/N expansions, dynamical-group values, Pade tables,
variational bounds; read-only context, never recomputed), then the
published energy ``E``.  ``parameters`` maps a row to the level and
screening it was computed for.  Every ``E`` is recomputed through the
closed-form perturbation route and diffed at full precision; the per-table
gate decides pass or fail, not the printed digit count.

Known upstream data issues (kept verbatim, they fail their gates honestly):
T3's 2p cell at delta = 0.04 disagrees with the closed forms by 3.2e-6
(digit slip), and T5's 3d column beyond G = 0.002 was evidently produced
with half the first-order shift; see the package README for the analysis.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import (
    ATOMIC,
    HBAR2M,
    MAX_SAMPLES,
    QuantumState,
    ScreeningSpec,
    SecondOrderVariant,
    UnitSystem,
    ValidationError,
    _variant,
    check_screening,
    state_from_label,
)
from .perturbation import _level, total_energy
from .potential import effective_potential
from .quadrature import _density, _density_sum, _first_order_coef, _second_order_coef
from .radial import NoBoundStateError, default_solver_config, solve_bound_state

# perfbench/tracing.py wraps each of these four bindings of ecsc.tables
from .coulomb import coulomb_energy  # noqa: F401  ecsc.tables.coulomb_energy
from .perturbation import superpotential_first  # noqa: F401  ecsc.tables.superpotential_first
from .quadrature import first_order_energy_numeric  # noqa: F401  ecsc.tables.first_order_energy_numeric
from .quadrature import second_order_energy_numeric  # noqa: F401  ecsc.tables.second_order_energy_numeric

# --- frozen reference data -------------------------------------------------
# each row follows its table's ``columns``; None marks a value not published
_T1_ROWS = (
    (0.01, -0.490001, -0.4900010, None, -0.4900009),
    (0.02, -0.480008, -0.4800078, -0.48000783, -0.4800078),
    (0.03, -0.470026, -0.4700260, None, -0.4700259),
    (0.04, -0.460061, -0.4600609, -0.46006101, -0.4600608),
    (0.05, -0.450117, -0.4501174, None, -0.4501172),
    (0.06, -0.440200, -0.4402004, -0.44020057, -0.4402000),
    (0.07, -0.430313, None, None, -0.4303134),
    (0.08, -0.420461, -0.4204636, -0.42046386, -0.4204617),
    (0.09, -0.410647, None, None, -0.4106488),
    (0.10, -0.400875, -0.4008839, -0.40088421, -0.4008785),
)

_T2_ROWS = (
    (0.01, -0.115013, -0.1150135, None, -0.1150134),
    (0.02, -0.105103, -0.1051036, -0.10510361, -0.1051033),
    (0.03, -0.095334, -0.0953366, None, -0.0953346),
    (0.04, -0.085755, -0.0857690, -0.08576959, -0.0857621),
    (0.05, -0.076406, -0.0764497, None, -0.0764326),
    (0.06, -0.067311, -0.0674217, -0.06742608, -0.0673900),
    (0.07, -0.058482, None, None, -0.0586800),
    (0.08, -0.049915, -0.0503922, -0.05040825, -0.0503576),
    (0.09, -0.041598, None, None, -0.0424945),
    (0.10, -0.033500, -0.0349677, -0.03500467, -0.0351880),
)

_T3_ROWS = (
    ("2s", 0.10, -0.034941, -0.034941, -0.034425, -0.034935, -0.03500467, -0.0351880),
    ("2p", 0.10, -0.032469, -0.032469, -0.032042, None, -0.03247015, -0.0326733),
    ("2s", 0.08, -0.050387, -0.050387, -0.050222, -0.050384, -0.05040825, -0.0503576),
    ("2p", 0.08, -0.048997, -0.048997, None, None, -0.04899693, -0.0489939),
    ("2s", 0.06, -0.067421, -0.067421, -0.067385, -0.067421, -0.06742608, -0.0673900),
    ("2p", 0.06, -0.066778, -0.066778, None, None, -0.06677729, -0.0667611),
    ("2s", 0.04, -0.085769, -0.085769, -0.085767, -0.085769, -0.08576959, -0.0857621),
    ("2p", 0.04, -0.085591, -0.085591, None, None, -0.08555913, -0.0855520),
    ("2s", 0.02, -0.105104, -0.105104, -0.105104, -0.105104, -0.10510361, -0.1051033),
    ("2p", 0.02, -0.105075, -0.105075, -0.105075, None, -0.10507464, -0.1050744),
)

_T4_ROWS = (
    ("3s", 0.06, -0.005461, -0.005462, -0.004538, -0.005454, -0.00566638, -0.0070778),
    ("3p", 0.06, -0.004471, -0.004472, None, None, -0.00449233, -0.0054058),
    ("3d", 0.06, -0.002308, -0.002309, None, None, -0.00231356, -0.0029240),
    ("3s", 0.05, -0.011576, -0.011576, None, None, -0.01168544, -0.0119523),
    ("3p", 0.05, -0.010929, -0.010929, -0.010538, None, -0.01093985, -0.0111117),
    ("3d", 0.05, -0.009555, -0.009555, -0.009292, None, -0.00955542, -0.0096940),
    ("3s", 0.04, -0.018823, -0.018823, -0.018707, -0.018822, -0.01886716, -0.0188586),
    ("3p", 0.04, -0.018453, -0.018453, None, None, -0.01845705, -0.0184505),
    ("3d", 0.04, -0.017682, -0.017682, None, None, -0.01768208, -0.0176910),
    ("3s", 0.02, -0.036025, -0.036025, -0.036022, -0.036025, -0.03602738, -0.0360213),
    ("3p", 0.02, -0.035968, -0.035968, -0.035965, None, -0.03596771, -0.0359640),
    ("3d", 0.02, -0.035851, -0.035851, -0.035849, None, -0.03585066, -0.0358490),
)

# T5 and T6 are published as binding energies -E and stored signed
_T5_ROWS = (
    (0.002, "1s", -0.9960000), (0.002, "2s", -0.2460002), (0.002, "2p", -0.2460001),
    (0.002, "3p", -0.1071120), (0.002, "3d", -0.1071114),
    (0.005, "1s", -0.9900002), (0.005, "2s", -0.2400034), (0.005, "2p", -0.2400024),
    (0.005, "3p", -0.1011255), (0.005, "3d", -0.1011160),
    (0.010, "1s", -0.9800019), (0.010, "2s", -0.2300269), (0.010, "2p", -0.2300193),
    (0.010, "3p", -0.0912217), (0.010, "3d", -0.0911475),
    (0.020, "1s", -0.9600156), (0.020, "2s", -0.2102066), (0.020, "2p", -0.2101489),
    (0.020, "3p", -0.0719281), (0.020, "3d", -0.0713617),
    (0.025, "1s", -0.9500302), (0.025, "2s", -0.2003953), (0.025, "2p", -0.2002857),
    (0.025, "3p", -0.0626485), (0.025, "3d", -0.0615665),
    (0.050, "1s", -0.9002344), (0.050, "2s", -0.1528652), (0.050, "2p", -0.1520991),
    (0.050, "3p", -0.0222235), (0.050, "3d", -0.0141374),
)

_T6_ROWS = (
    (4, 0, 0, -3.207029),
    (8, 0, 0, -14.403752),
    (8, 1, 0, -2.433587),
    (16, 0, 0, -60.801938),
    (16, 1, 0, -12.818287),
    (24, 0, 0, -139.20131),
    (24, 1, 0, -31.212563),
    (24, 2, 0, -11.249961),
    (16, 0, 1, -12.825303),
    (16, 0, 2, -4.023139),
    (16, 1, 1, -4.009505),
    (24, 0, 1, -31.217455),
    (24, 0, 2, -11.279786),
    (24, 1, 1, -11.269899),
    (24, 1, 2, -4.412177),
    (24, 2, 1, -4.380887),
    (24, 2, 2, -1.411568),
)

_T5_UNITS = UnitSystem(1.0, 1.0, label="hbar=m=1")
_T5_STRENGTH = math.sqrt(2.0)


@dataclass(frozen=True)
class TableDefinition:
    """Identity, row schema, parameter policy and acceptance gate of one table."""

    table_id: str
    title: str
    units: UnitSystem
    tolerance: float
    key_columns: tuple[str, ...]
    reference_columns: tuple[str, ...]
    sign: int  # +1 tables print E, -1 tables print the binding energy -E
    rows: tuple[tuple, ...]
    parameters: Callable[[dict], tuple[QuantumState, ScreeningSpec]]  # row -> level, screening

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the row fields: keys, published-alongside columns, then ``E``."""
        return self.key_columns + self.reference_columns + ("E",)

    def named_rows(self) -> Iterator[dict]:
        """Each row keyed by column name; a row of the wrong length raises ValueError."""
        for row in self.rows:
            yield dict(zip(self.columns, row, strict=True))


def _atomic(label: str, delta: float) -> tuple[QuantumState, ScreeningSpec]:
    # T1 .. T4: atomic units, A = 1
    return state_from_label(label), ScreeningSpec(delta=delta, strength=1.0)


TABLES: dict[str, TableDefinition] = {
    "T1": TableDefinition(
        "T1", "1s level vs screening, atomic units, A = 1", ATOMIC, 1e-6,
        ("delta",), ("1/N", "dynamical", "shifted 1/N"), +1,
        rows=_T1_ROWS, parameters=lambda row: _atomic("1s", row["delta"]),
    ),
    "T2": TableDefinition(
        "T2", "2s level vs screening, atomic units, A = 1", ATOMIC, 1e-6,
        ("delta",), ("1/N", "dynamical", "shifted 1/N"), +1,
        rows=_T2_ROWS, parameters=lambda row: _atomic("2s", row["delta"]),
    ),
    "T3": TableDefinition(
        "T3", "2s and 2p levels vs screening, atomic units, A = 1", ATOMIC, 1e-6,
        ("state", "delta"),
        ("E[10,10]", "E[10,11]", "perturbation", "variational", "shifted 1/N"), +1,
        rows=_T3_ROWS, parameters=lambda row: _atomic(row["state"], row["delta"]),
    ),
    "T4": TableDefinition(
        "T4", "3s, 3p and 3d levels vs screening, atomic units, A = 1", ATOMIC, 1e-6,
        ("state", "delta"),
        ("E[10,10]", "E[10,11]", "perturbation", "variational", "shifted 1/N"), +1,
        rows=_T4_ROWS, parameters=lambda row: _atomic(row["state"], row["delta"]),
    ),
    "T5": TableDefinition(
        "T5", "binding energies, hbar = m = 1, A = sqrt(2), delta = sqrt(2) G",
        _T5_UNITS, 1e-6, ("G", "state"), (), -1,
        rows=_T5_ROWS,
        parameters=lambda row: (
            state_from_label(row["state"]),
            ScreeningSpec(delta=_T5_STRENGTH * row["G"], strength=_T5_STRENGTH),
        ),
    ),
    "T6": TableDefinition(
        "T6", "binding energies, hbar = 1, m = 1/2, delta = 0.2, A in {4, 8, 16, 24}",
        HBAR2M, 1e-5, ("A", "ell", "n"), (), -1,
        rows=_T6_ROWS,
        parameters=lambda row: (
            QuantumState(n=row["n"], ell=row["ell"]),
            ScreeningSpec(delta=0.2, strength=float(row["A"])),
        ),
    ),
}


@dataclass(frozen=True)
class TableCell:
    """One recomputed table entry and its diff against the frozen reference."""

    key: tuple[tuple[str, float | int | str], ...]
    reference: float
    computed: float
    literature: tuple[tuple[str, float | None], ...] = ()

    @property
    def diff(self) -> float:
        return self.computed - self.reference


@dataclass(frozen=True)
class TableResult:
    definition: TableDefinition
    cells: tuple[TableCell, ...]

    @property
    def failures(self) -> tuple[TableCell, ...]:
        tol = self.definition.tolerance
        return tuple(c for c in self.cells if abs(c.diff) > tol)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def worst_abs_diff(self) -> float:
        return max(abs(c.diff) for c in self.cells)

    def summary(self) -> str:
        good = len(self.cells) - len(self.failures)
        return (
            f"{self.definition.table_id}: {good}/{len(self.cells)} cells within "
            f"{self.definition.tolerance:g} (worst |diff| = {self.worst_abs_diff:.2e})"
        )

    def to_csv_text(self) -> str:
        header = self.definition.key_columns + ("E_ref", "E_computed", "diff")
        rows = [tuple(v for _, v in c.key) + (c.reference, c.computed, c.diff) for c in self.cells]
        return render_text("csv", header, rows)

    def to_markdown_text(self) -> str:
        d = self.definition
        value_name = "E" if d.sign > 0 else "-E"
        header = d.key_columns + d.reference_columns + (
            f"{value_name} computed", f"{value_name} reference", "diff", "note",
        )
        rows = [
            tuple(v for _, v in c.key)
            + tuple(None if lit is None else d.sign * lit for _, lit in c.literature)
            + (d.sign * c.computed, d.sign * c.reference, d.sign * c.diff,
               "" if abs(c.diff) <= d.tolerance else "exceeds gate")
            for c in self.cells
        ]
        body = render_text("md", header, rows)
        return f"## {d.table_id}: {d.title}\n\n{body}\n{self.summary()}\n"


def reproduce_table(
    table_id: str, variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED
) -> TableResult:
    """Recompute one reference table cell by cell and diff at full precision."""
    tid = table_id.upper()
    if tid not in TABLES:
        raise ValidationError(f"unknown table {table_id!r}; expected one of {sorted(TABLES)}")
    definition, variant = TABLES[tid], _variant(variant)
    cells = []
    for row in definition.named_rows():
        state, spec = definition.parameters(row)
        cells.append(
            TableCell(
                key=tuple((name, row[name]) for name in definition.key_columns),
                reference=row["E"],
                computed=total_energy(state, spec, definition.units, variant).total,
                literature=tuple((name, row[name]) for name in definition.reference_columns),
            )
        )
    return TableResult(definition, tuple(cells))


# --- delta sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """Analytic, quadrature and (optionally) radial-solver energies at one delta."""

    state_label: str
    delta: float
    analytic: float
    quadrature: float
    oracle: float | None = None
    oracle_status: str = ""
    reference: float | None = None

    @property
    def quad_minus_analytic(self) -> float:
        return self.quadrature - self.analytic

    @property
    def oracle_minus_analytic(self) -> float | None:
        return None if self.oracle is None else self.oracle - self.analytic


class ScanResult(NamedTuple):
    """A delta scan as columns, one entry per grid point: the screening values,
    the analytic and quadrature energies, the solver's energy (None where it
    did not run or found no bound level), its status ("" where it did not run),
    and the bundled table value (None where there is none).  It compares equal
    by value, and renders CSV and Markdown from the columns; ``rows`` builds
    one ``ComparisonRow`` per point on demand."""

    state_label: str
    deltas: tuple[float, ...]
    analytic: tuple[float, ...]
    quadrature: tuple[float, ...]
    oracle: tuple[float | None, ...]
    oracle_status: tuple[str, ...]
    reference: tuple[float | None, ...]

    def _points(self):
        return zip(self.deltas, self.analytic, self.quadrature, self.oracle,
                   self.oracle_status, self.reference)

    @property
    def rows(self) -> tuple[ComparisonRow, ...]:
        return tuple(ComparisonRow(self.state_label, *point) for point in self._points())

    def to_csv_text(self) -> str:
        header = ("state,delta,E_analytic,E_quadrature,E_oracle,oracle_status,E_ref,"
                  "quad_minus_analytic,oracle_minus_analytic").split(",")
        rows = [
            (self.state_label, delta, analytic, quadrature, oracle, status, reference,
             quadrature - analytic, None if oracle is None else oracle - analytic)
            for delta, analytic, quadrature, oracle, status, reference in self._points()
        ]
        return render_text("csv", header, rows)

    def to_markdown_text(self) -> str:
        header = ("state", "delta", "analytic", "quadrature", "oracle", "reference")
        rows = [
            (self.state_label, delta, analytic, quadrature,
             status if oracle is None else oracle, reference)
            for delta, analytic, quadrature, oracle, status, reference in self._points()
        ]
        return render_text("md", header, rows, rule=("---",) + ("---:",) * 5)


#: the (delta, E) pairs of the bundled 1s and 2s atomic tables, per (n, ell):
#: they double as scan references where they apply
_SCAN_REFERENCES = {
    (n, 0): tuple((row["delta"], row["E"]) for row in TABLES[table_id].named_rows())
    for n, table_id in ((0, "T1"), (1, "T2"))
}


def _reference_at(references, delta: float):
    for row_delta, energy in references:
        if abs(row_delta - delta) < 1e-12:
            return energy
    return None


@lru_cache(maxsize=256, typed=True)
def _records(n: int, ell: int, variant: SecondOrderVariant, hbar: float, mass: float,
             strength: float):
    # what a scan reads of its level, in one lookup: the closed-form record,
    # the density pairs, the label and the (delta, E) pairs of the bundled
    # atomic tables, which hold only for hbar = m = A = 1; bounded and typed
    # as the two caches it reads
    atomic = hbar == 1.0 and mass == 1.0 and strength == 1.0
    return (_level(n, ell, variant, hbar, mass, strength),
            _density(n, ell, hbar, mass, strength), QuantumState(n, ell).label,
            _SCAN_REFERENCES.get((n, ell), ()) if atomic else ())


def scan_delta(
    state: QuantumState,
    strength: float,
    units: UnitSystem,
    delta_start: float,
    delta_end: float,
    steps: int,
    with_oracle: bool = False,
    variant: SecondOrderVariant = SecondOrderVariant.TRUNCATED,
) -> ScanResult:
    """The energies of ``state`` on a uniform grid of ``steps`` screening values
    from ``delta_start`` to ``delta_end``, as the columns of a ScanResult; one
    step needs equal ends.

    The grid is checked once before it is formed: the step count, the order of
    the ends, then both ends and A by ``check_screening``, then the variant.
    The analytic column equals ``total_energy``.  The quadrature column takes
    E0 and A delta from the same closed-form floats, and E1 and E2 as density
    sums, E2 of W1's three coefficients.  Both read the level's cached records
    through one lookup, so a point forms only its floats and the two density
    sums; only ``with_oracle`` builds a ScreeningSpec per point, for the solver.
    """
    if not 1 <= steps <= MAX_SAMPLES:
        raise ValidationError(f"steps must be between 1 and {MAX_SAMPLES}, got {steps}")
    if delta_start < 0.0 or delta_end < delta_start:
        raise ValidationError("need 0 <= delta_start <= delta_end")
    # past the order check, > is != for ends that are numbers; a nan end is
    # left to check_screening, which names it
    if steps == 1 and delta_end > delta_start:
        raise ValidationError(
            f"one step samples one delta: need delta_end == delta_start, got {delta_start!r} "
            f"and {delta_end!r}")
    check_screening(strength, 1.0, delta_start, delta_end)
    if not isinstance(variant, SecondOrderVariant):  # a member skips the call
        variant = _variant(variant)
    level, density, label, references = _records(state.n, state.ell, variant, units.hbar,
                                                  units.mass, strength)
    if steps == 1:
        deltas = [delta_start]
    else:
        span = delta_end - delta_start
        deltas = [delta_start + span * i / (steps - 1) for i in range(steps)]
    analytic, quadrature, oracle, status = [], [], [], []
    for delta in deltas:
        e0, linear, _, _, total = level.energies(delta)
        analytic.append(total)
        numeric = e0
        if delta != 0.0:
            e1 = _density_sum(_first_order_coef(strength, delta), density)
            w1 = level.w1_coefficients(delta, variant)
            e2 = _density_sum(_second_order_coef(strength, delta, *w1), density)
            numeric = e0 + linear + e1 + e2
        quadrature.append(numeric)
        if with_oracle:
            spec = ScreeningSpec(delta, strength)
            pot = lambda r: effective_potential(r, spec, state.ell, units)
            try:
                rf = solve_bound_state(pot, state, units, default_solver_config(state, spec, units))
                oracle.append(rf.energy)
                status.append("ok" if rf.converged else "not-converged")
            except NoBoundStateError:
                oracle.append(None)
                status.append("no-bound-state")
    if not with_oracle:
        oracle, status = (None,) * len(deltas), ("",) * len(deltas)
    reference = (tuple(_reference_at(references, delta) for delta in deltas) if references
                 else (None,) * len(deltas))
    return ScanResult(label, tuple(deltas), tuple(analytic), tuple(quadrature),
                      tuple(oracle), tuple(status), reference)


# --- rendering ---------------------------------------------------------------

#: the characters that make csv.writer quote a cell
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _num(x) -> str:
    """One cell: a number to 9 significant digits, None empty, a string as is."""
    # fixed 9-significant-digit rendering keeps emitted files byte-deterministic
    if x is None:
        return ""
    return x if isinstance(x, str) else f"{x:.9g}"


def _csv_text(x: str) -> str:
    """A string CSV cell, quoted as RFC 4180 and ``csv.writer`` do when it
    holds a comma, a quote or a line break, such as the label "(n=9,l=0)"."""
    return '"' + x.replace('"', '""') + '"' if _CSV_SPECIAL.search(x) else x


def render_text(fmt: str, header, rows, rule=None) -> str:
    """A CSV (``fmt`` "csv") or Markdown body: the header, then one line per row.

    Each cell goes through ``_num``, but a CSV string cell through
    ``_csv_text``.  ``rule`` is the Markdown alignment of each column ("---"
    or "---:"); by default "---".
    """
    if fmt == "csv":
        # a number formatted by _num holds no comma, so only strings are checked
        text = [",".join([_csv_text(x) if isinstance(x, str) else _num(x) for x in row])
                for row in (header, *rows)]
    else:
        text = ["| " + " | ".join([_num(x) for x in row]) + " |" for row in (header, *rows)]
        text.insert(1, "|" + "".join(a + "|" for a in rule or ("---",) * len(header)))
    return "\n".join(text) + "\n"
