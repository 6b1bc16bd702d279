"""The benchmark's tracer (perfbench/spans.py) wraps sylowpi functions by
name; each name it lists must still resolve, or tracing fails at install."""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for layer in spans.LAYERS.values() for t in layer]
    missing = []
    for module, *path in targets:
        obj = importlib.import_module(module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append((module, *path))
    assert len(targets) >= 18 and missing == [], missing
