"""Every name the benchmark tracer wraps resolves in ``etalab``.

``perfbench/tracing.py`` wraps module functions and class methods by name,
so a rename or a deletion in ``src/etalab`` would silently drop a span from
the per-layer metrics. The tracer module imports only the standard library
at load time; it is loaded from its file without writing bytecode.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [f"{mod}.{name}" for mod, name, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), name,
                                       None))]
    for mod, cls, meth, *_ in tracing.METHODS:
        owner = getattr(importlib.import_module(mod), cls, None)
        if not callable(getattr(owner, meth, None)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []
