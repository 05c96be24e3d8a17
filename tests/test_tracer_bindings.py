"""The benchmark tracer's bindings resolve on the package as it stands.

bench/tracing.py replaces each traced function at the module names its
callers bind, looking each up by name on the first module it lists. A
function renamed or deleted there breaks only traced benchmark runs, so
this reads the table and checks every name without starting a trace.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve_on_their_first_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, modules, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(modules[0]),
                                       name.rsplit(".", 1)[1], None))]
    assert missing == []
