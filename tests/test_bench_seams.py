"""The bindings the benchmark's tracer patches exist and are callable.

``perfbench/tracing.py`` replaces module globals and class methods by name
(its ``FUNCTIONS`` and ``METHODS`` tables), looking each one up in the
owner's own namespace.  A refactor that renames, inlines or re-homes one of
them would leave that layer untraced without failing any other test, so
this test reads the two tables and checks every entry the way the tracer
looks it up.  The tracer module is loaded from its file; it imports only
the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tables_are_not_empty():
    assert tracing.FUNCTIONS and tracing.METHODS


@pytest.mark.parametrize("module, attr, span", tracing.FUNCTIONS,
                         ids=[row[-1] for row in tracing.FUNCTIONS])
def test_traced_function_binding_exists(module, attr, span):
    owner = importlib.import_module(module)
    assert callable(vars(owner).get(attr)), f"{module}.{attr} ({span})"


@pytest.mark.parametrize("module, cls, attr, span", tracing.METHODS,
                         ids=[row[-1] for row in tracing.METHODS])
def test_traced_method_binding_exists(module, cls, attr, span):
    owner = getattr(importlib.import_module(module), cls, None)
    assert owner is not None, f"{module}.{cls} ({span})"
    assert callable(vars(owner).get(attr)), f"{module}.{cls}.{attr} ({span})"
