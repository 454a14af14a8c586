"""The benchmark's tracer wraps program functions by name, and fails with a
KeyError once one of them is gone; this keeps the names in the Tier-1 run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    hooks = {**tracer.TIMED, **tracer.COUNTED}
    missing = [name for name, (owner, attr) in hooks.items() if attr not in vars(owner)]
    assert missing == []
