"""The benchmark harness wraps package functions where their callers bind them.

``perfbench/tracing.py`` patches each ``(module, attribute)`` pair it lists;
a pair that no longer resolves breaks the traced benchmark runs, so the
package must keep every one of them callable.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    sites = [site for table in (tracing.LAYER_BINDINGS, tracing.LEAF_BINDINGS)
             for bound in table.values() for site in bound]
    missing = [site for site in sites
               if not callable(getattr(importlib.import_module(site[0]), site[1], None))]
    assert sites and missing == []
