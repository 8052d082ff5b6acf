"""The benchmark's traced run wraps functions by name; a rename in rmlab
would break ``perfbench/run.py --trace`` without failing any other test."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for span, module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{attr} is not callable"
