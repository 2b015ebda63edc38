"""The bindings the benchmark's tracer patches exist and are callable.

``perfbench/tracing.py`` replaces module globals and class methods by name
(its ``FUNCTIONS`` and ``METHODS`` tables), looking each one up in the
owner's own namespace.  A refactor that renames, inlines or re-homes one of
them would leave that layer untraced without failing any other test, so
this test reads the two tables and checks every entry the way the tracer
looks it up.  A counting wrapper on the cascade's and the reference's
bindings also checks that a closed-loop run calls each of them at its loop
rate, the exact counts the benchmark's traced mode reports.  The tracer
module is loaded from its file; it imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tailsim.config import Config, apply_overrides
from tailsim.scenarios import run_scenario

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


# calls per simulated second of each span, at the default 100/250/500 Hz loops
LOOP_RATES = {
    "control.position_control": 100,
    "control.attitude_control": 250,
    "control.rate_control": 500,
    "control.CascadeController.update": 500,
    "scenarios.reference": 500,
}


def test_traced_bindings_are_called_at_their_loop_rates(monkeypatch):
    counts = dict.fromkeys(LOOP_RATES, 0)

    def counting(fn, span):
        def wrapper(*args, **kwargs):
            counts[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    owners = [(importlib.import_module(module), attr, span)
              for module, attr, span in tracing.FUNCTIONS]
    owners += [(getattr(importlib.import_module(module), cls), attr, span)
               for module, cls, attr, span in tracing.METHODS]
    for owner, attr, span in owners:
        if span in counts:
            monkeypatch.setattr(owner, attr, counting(vars(owner)[attr], span))
    seconds = 5.5
    run_scenario(apply_overrides(Config(), {"scenario": "circle", "duration_s": str(seconds)}))
    want = {span: rate * seconds for span, rate in LOOP_RATES.items()}
    want["scenarios.reference"] += 1      # the initial state's sample at t = 0
    assert counts == want
