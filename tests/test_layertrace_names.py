"""Every function and method the per-layer bench wraps still resolves.

``perfbench/layertrace.py`` skips a target it cannot find and reports it as
missing, so a renamed function would silently drop out of the bench.  The
tables are read from that file without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _tables():
    spec = importlib.util.spec_from_file_location("layertrace_tables", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_traced_names_resolve():
    lt = _tables()
    targets = [(module, path) for _, module, path, _ in lt.SPANS]
    targets += [(module, path) for _, module, path, _ in lt.COUNTS]
    targets += [(module, path) for _, module, path in lt.ROOTS]
    assert targets
    missing = [f"{m}.{p}" for m, p in targets if not callable(_resolve(m, p))]
    _, module, cls = lt.WORD
    # the tracer wraps the class's own __init__, not an inherited one
    if "__init__" not in vars(_resolve(module, cls)):
        missing.append(f"{module}.{cls}.__init__")
    assert missing == []
