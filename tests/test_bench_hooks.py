"""The benchmark's layer hooks name functions that exist.

perfbench/tracing.py wraps program functions by module and attribute
name, and reports a missing target as absent instead of failing, so a
refactor that moves a hooked function would quietly zero its layer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_every_hook_target_resolves(monkeypatch):
    hooks = _hooks(monkeypatch)
    assert hooks
    missing = []
    for hook in hooks:
        target = importlib.import_module(hook.module)
        for name in hook.attr.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{hook.module}.{hook.attr}")
    assert missing == []
