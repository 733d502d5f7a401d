"""The benchmark's tracer wraps codec functions by module attribute name.

A rename or a move in ``src/jiffy`` would leave a wrapper pointing at
nothing, and only the benchmark's own self-test would notice. This checks
every name it wraps is still a callable bound in its owner.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_a_callable_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    entries = tracing.SPANS + tracing.GENERATORS + tracing.COUNTED
    assert entries
    for owner, attr, _ in entries:
        assert callable(owner.__dict__.get(attr)), (owner.__name__, attr)
