"""The benchmark's tracer wraps codec functions by module attribute name.

A rename or a move in ``src/jiffy`` would leave a wrapper pointing at
nothing, and only the benchmark's own self-test would notice. This checks
every name it wraps is still a callable bound in its owner, and that a
module which imports a traced name still calls it through that binding:
a module that kept the import but called the function some other way
would zero the span without failing anything else.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _entries(tracing):
    return tracing.SPANS + tracing.GENERATORS + tracing.COUNTED


def test_every_traced_name_is_a_callable_attribute(monkeypatch):
    entries = _entries(_tracing(monkeypatch))
    assert entries
    for owner, attr, _ in entries:
        assert callable(owner.__dict__.get(attr)), (owner.__name__, attr)


def _called_names(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_every_imported_traced_name_is_called(monkeypatch):
    imported = [(owner, attr) for owner, attr, _ in
                _entries(_tracing(monkeypatch))
                if inspect.ismodule(owner)
                and owner.__dict__[attr].__module__ != owner.__name__]
    assert imported
    for owner, attr in imported:
        assert attr in _called_names(owner), (owner.__name__, attr)
