"""Outside-in span tracing of tailsim's layers, from the benchmark's side only.

Each traced name is replaced where its caller looks it up: ``scenarios``
and ``control`` bind imported functions as module globals, so the
binding in the calling module is the one patched (``tailsim.scenarios.step``,
not ``tailsim.sim.step``).  Methods are patched on their classes.  Every
``rotations`` function bound in ``sim``, ``control`` or ``scenarios`` is
wrapped there, so ``rotations`` is measured at its boundary with those
layers; calls between rotations functions stay inside the outer span.

A span is ``[name, parent index, start ns, end ns]``.  Spans live in
memory until :meth:`Tracer.write` saves them; a span's self time is its
duration minus the durations of its direct children.  Nothing is
installed until :meth:`Tracer.install`, and :meth:`Tracer.uninstall`
puts every original object back.
"""

from __future__ import annotations

import importlib
import time
import types

# (module whose binding is replaced, attribute, span name)
FUNCTIONS = (
    ("tailsim.cli", "main", "cli.main"),
    ("tailsim.config", "load_config", "config.load_config"),
    ("tailsim.config", "apply_overrides", "config.apply_overrides"),
    ("tailsim.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("tailsim.scenarios", "reference", "scenarios.reference"),
    ("tailsim.scenarios", "metrics", "scenarios.metrics"),
    ("tailsim.scenarios", "step", "sim.step"),
    ("tailsim.scenarios", "sense", "sim.sense"),
    ("tailsim.scenarios", "total_wrench", "model.total_wrench"),
    ("tailsim.control", "position_control", "control.position_control"),
    ("tailsim.control", "attitude_setpoint", "control.attitude_setpoint"),
    ("tailsim.control", "attitude_control", "control.attitude_control"),
    ("tailsim.control", "rate_control", "control.rate_control"),
    ("tailsim.control", "model_inverse", "control.model_inverse"),
    ("tailsim.control", "clamp_command", "control.clamp_command"),
    ("tailsim.sysid", "generate_synthetic", "sysid.generate_synthetic"),
    ("tailsim.sysid", "write_records_csv", "sysid.write_records_csv"),
    ("tailsim.sysid", "read_records_csv", "sysid.read_records_csv"),
    ("tailsim.sysid", "fit_params", "sysid.fit_params"),
)

# (module, class, method, span name)
METHODS = (
    ("tailsim.sim", "ComplementaryEstimator", "update", "sim.ComplementaryEstimator.update"),
    ("tailsim.control", "CascadeController", "update", "control.CascadeController.update"),
    ("tailsim.scenarios", "ScenarioLog", "append", "scenarios.ScenarioLog.append"),
    ("tailsim.scenarios", "ScenarioLog", "to_csv", "scenarios.ScenarioLog.to_csv"),
)

ROTATION_CALLERS = ("tailsim.sim", "tailsim.control", "tailsim.scenarios")


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), 0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner).get(attr)
        if not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self) -> None:
        """Replace every traced binding with a span-recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module, attr, name in FUNCTIONS:
            self._patch(importlib.import_module(module), attr, name)
        for module, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(module), cls, None)
            if owner is None:
                self.missing.append(f"{module}.{cls}")
                continue
            self._patch(owner, attr, name)
        rotations = importlib.import_module("tailsim.rotations")
        for module in ROTATION_CALLERS:
            caller = importlib.import_module(module)
            for attr, value in list(vars(caller).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == rotations.__name__):
                    self._patch(caller, attr, f"rotations.{attr}")

    def uninstall(self) -> None:
        """Put every replaced binding back, in reverse order."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def clear(self) -> None:
        del self.spans[:]

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total self ns, inclusive durations (ns)."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "durations_ns": []})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[index]
            entry["durations_ns"].append(end - start)
        return out

    def write(self, path) -> None:
        """Save the spans as CSV: index, name, parent index, start ns, end ns."""
        with open(path, "w", newline="") as fh:
            fh.write("index,name,parent,start_ns,end_ns\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index},{name},{parent},{start},{end}\n")
