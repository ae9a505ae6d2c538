"""Every library function the benchmark's tracer wraps still exists under
the name and module it is wrapped at."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    targets = importlib.import_module("tracing").TARGETS
    assert targets
    for name, module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{attr} is not callable"
