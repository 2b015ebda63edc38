"""The benchmark's own tests: every workload at its smoke size, both modes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tailsim_bindings() -> dict:
    """Every attribute of every loaded tailsim module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "tailsim" and not name.startswith("tailsim."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, obj in vars(value).items():
                    out[(name, attr, member)] = obj
    return out


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return {"result": json.loads(lines[-1]), "lines": lines}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_and_touches_nothing(capsys, workload):
    run.import_tailsim()
    import tailsim.cli  # noqa: F401 - load every module before the snapshot

    before = _tailsim_bindings()
    out = _run(capsys, workload, trace=0)
    after = _tailsim_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in result["metrics"].values())
    assert any(line.startswith("# log_sha256 = ") for line in out["lines"])
    assert any(line.startswith("# failed_ops_frac = 0 ") for line in out["lines"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric_with_exact_counts(capsys, workload):
    result = _run(capsys, workload, trace=1)["result"]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    spec = workloads.WORKLOADS[workload]
    if spec.closed_loop:
        seconds = spec.smoke_duration_s
        assert values["sim.step.calls"] == 2000 * seconds
        assert values["control.rate_control.calls"] == 500 * seconds
        assert values["control.attitude_control.calls"] == 250 * seconds
        assert values["control.position_control.calls"] == 100 * seconds
        assert values["scenarios.run_scenario.self_s"] > 0
        assert values["sysid.fit_params.ms"] == 0
    else:
        assert values["sysid.fit_params.ms"] > 0
        assert values["sim.step.calls"] == 0
    sensing = workload == "hover-noisy"
    assert (values["sim.sense.calls"] > 0) == sensing
    assert (values["model.total_wrench.calls"] > 0) == sensing
    assert values["config.load_config.ms"] > 0


def test_tracer_uninstall_restores_every_binding():
    from tracing import Tracer

    run.import_tailsim()
    import tailsim.cli  # noqa: F401

    before = _tailsim_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        changed = {key for key in before if _tailsim_bindings()[key] is not before[key]}
        assert ("tailsim.scenarios", "step") in changed
        assert ("tailsim.control", "CascadeController", "update") in changed
        assert ("tailsim.sim", "step") not in changed
    finally:
        tracer.uninstall()
    after = _tailsim_bindings()
    assert all(after[key] is before[key] for key in before)


def test_tracer_self_time_subtracts_children():
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans.extend([
        ["outer", -1, 0, 100],
        ["inner", 0, 10, 40],
        ["inner", 0, 50, 60],
        ["leaf", 2, 52, 55],
    ])
    summary = tracer.summary()
    assert summary["outer"]["self_ns"] == 100 - 30 - 10
    assert summary["inner"] == {"calls": 2, "self_ns": 30 + 7, "durations_ns": [30, 10]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hover-noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
