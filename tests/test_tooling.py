"""The benchmark's tracer wraps library functions by name; every name must resolve."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_layers_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        owner = importlib.import_module(f"reflector.{layer.module}")
        for part in layer.path.split("."):
            assert hasattr(owner, part), f"{layer.name}: reflector.{layer.module}.{layer.path}"
            owner = getattr(owner, part)
        assert callable(owner), layer.name
