"""In-memory spans around the public functions of each ``ecsc`` layer.

The traced run replaces a layer function at the places where its callers
look it up (a module attribute), records one span per call and restores the
original bindings afterwards.  Nothing under ``src/`` changes.

A span carries its name, start, end, the index of its parent span (-1 for a
root), the operation id it belongs to and whether the call raised.  A span's
self time is its duration minus the durations of its direct children; calls
inside one thread nest strictly, so the children never overlap.

A leaf function called so often that a span per call would cost more than
the call (LEAF_BINDINGS) is timed without spans: the tracer adds up its calls
and time, and each span records the leaf time spent directly inside it, which
its self time excludes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# layer function -> the (module, attribute) bindings its callers use.  The
# benchmark calls each function through its module attribute, so patching
# that attribute also wraps the benchmark's own calls.
LAYER_BINDINGS = {
    "cli.main": (("ecsc.cli", "main"),),
    "tables.reproduce_table": (("ecsc.cli", "reproduce_table"),),
    "tables.scan_delta": (("ecsc.tables", "scan_delta"),),
    "perturbation.total_energy": (("ecsc.tables", "total_energy"),),
    "perturbation.superpotential_first": (
        ("ecsc.tables", "superpotential_first"),
        ("ecsc.perturbation", "superpotential_first"),
    ),
    "coulomb.coulomb_energy": (
        ("ecsc.tables", "coulomb_energy"),
        ("ecsc.perturbation", "coulomb_energy"),
    ),
    "coulomb.coulomb_beta": (
        ("ecsc.quadrature", "coulomb_beta"),
        ("ecsc.perturbation", "coulomb_beta"),
    ),
    "coulomb.coulomb_norm": (
        ("ecsc.quadrature", "coulomb_norm"),
        ("ecsc.perturbation", "coulomb_norm"),
    ),
    "coulomb.radial_moment": (("ecsc.perturbation", "radial_moment"),),
    "quadrature.first_order_energy_numeric": (
        ("ecsc.tables", "first_order_energy_numeric"),
        ("ecsc.quadrature", "first_order_energy_numeric"),
    ),
    "quadrature.second_order_energy_numeric": (
        ("ecsc.tables", "second_order_energy_numeric"),
        ("ecsc.quadrature", "second_order_energy_numeric"),
    ),
    "quadrature.integrate_density": (("ecsc.quadrature", "integrate_density"),),
    "radial.solve_bound_state": (
        ("ecsc.radial", "solve_bound_state"),
        ("ecsc.tables", "solve_bound_state"),
    ),
    "potential.effective_potential": (("ecsc.potential", "effective_potential"),),
}

# quadrature calls ``laguerre`` at every integrand point, some 350 times per
# cross-check point and up to a million times in a run
LEAF_BINDINGS = {
    "coulomb.laguerre": (("ecsc.quadrature", "laguerre"),),
}

LAYERS = ("cli", "tables", "perturbation", "quadrature", "radial", "potential", "coulomb")

OP_SPAN = "op"


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op_id: int
    leaf_s: float = 0.0  # time in leaf functions called directly inside this span
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active``; a no-op pass-through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.active = False
        self.op_id = -1
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]
        self._stack: list[int] = []
        self._leaf_in: dict[int, float] = {}  # open span index -> leaf seconds

    def _open(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def _close(self, name: str, index: int, start: float, raised: bool = False) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self.op_id,
                                 self._leaf_in.pop(index, 0.0), raised)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index, start = self._open()
        try:
            yield
        finally:
            self._close(name, index, start)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index, start = self._open()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._close(name, index, start, raised)

        return traced

    def wrap_leaf(self, name: str, fn):
        totals = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                totals[0] += 1
                totals[1] += seconds
                if self._stack:
                    parent = self._stack[-1]
                    self._leaf_in[parent] = self._leaf_in.get(parent, 0.0) + seconds

        return timed

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op_id,leaf_s,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op_id},"
                         f"{s.leaf_s!r},{int(s.raised)}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in LAYER_BINDINGS and LEAF_BINDINGS for the block."""
    saved = []
    try:
        for bindings, wrap in ((LAYER_BINDINGS, tracer.wrap), (LEAF_BINDINGS, tracer.wrap_leaf)):
            for name, sites in bindings.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's and
    the leaf time spent directly inside it."""
    child = [s.leaf_s for s in spans]
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def aggregate(spans, leaves=None) -> dict[str, dict]:
    """Per span or leaf name: call count, total self time and, for spans, each
    call's duration.  ``leaves`` maps a leaf name to its [calls, seconds]."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(s.duration)
    for name, (calls, seconds) in (leaves or {}).items():
        out[name] = {"calls": calls, "self_s": seconds, "durations": []}
    return out


def layer_self_s(agg: dict[str, dict]) -> dict[str, float]:
    """Self time summed over the functions of each layer with more than one.

    A layer with a single wrapped function is left out: its total would be
    that function's own self time.
    """
    functions = Counter(name.split(".", 1)[0] for name in (*LAYER_BINDINGS, *LEAF_BINDINGS))
    totals = {layer: 0.0 for layer in LAYERS if functions[layer] > 1}
    for name, entry in agg.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += entry["self_s"]
    return totals
