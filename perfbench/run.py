"""tailsim benchmark: one workload, one measured run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hover-noisy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload hover-noisy --seed 1 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics with no wrapper installed:
``items_per_s`` (physics steps per second inside ``run_scenario``, or
bench records per second of the sysid job), ``job_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced job reps
and reports the per-layer metrics of ``tracing.py``.  Human-readable
lines go first; the last line of standard output is the JSON result.

Every timed rep sits between two runs of a fixed calibration loop, and
the end-to-end times are wall seconds scaled to the reference host speed
``CAL_REF_S``: on a shared 2-vCPU host the speed drifts by up to a third
over tens of seconds, which the loop tracks.  Raw wall medians are printed too.  See
README.md for the workloads, the layer map and the noise figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

MIN_REPS = 3            # untraced reps of each kind, whatever --seconds says
MIN_TRACED_REPS = 2     # traced reps, so per-rep call counts are compared
MIN_SETUP_PROBES = 5    # fresh processes timed for setup_s (after one warm-up)
SETUP_EVERY_S = 2.0     # probes are spread over the run, not taken in one burst,
                        # because a shared host's speed drifts over seconds
PROBE_TIMEOUT_S = 60

# Median seconds of calibration_s() on the host the bounds were set on
# (2 vCPUs, Python 3.11.7).  A constant, so runs at different times compare.
CAL_REF_S = 0.0144

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run.  "<span>.calls" and "<span>.self_us"
# are per job rep; ".ms" is the inclusive mean per call.
CALL_SPANS = (
    "sim.step",
    "model.total_wrench",
    "sim.sense",
    "sim.ComplementaryEstimator.update",
    "control.CascadeController.update",
    "control.model_inverse",
    "control.clamp_command",
    "control.position_control",
    "control.attitude_setpoint",
    "control.attitude_control",
    "control.rate_control",
    "rotations",
    "scenarios.reference",
    "scenarios.ScenarioLog.append",
)
MS_SPANS = (
    "scenarios.ScenarioLog.to_csv",
    "scenarios.metrics",
    "sysid.generate_synthetic",
    "sysid.write_records_csv",
    "sysid.read_records_csv",
    "sysid.fit_params",
    "config.apply_overrides",
    "config.load_config",
)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in CALL_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_us"] = "us"
    units["control.CascadeController.update.p50_us"] = "us"
    units["control.CascadeController.update.p99_us"] = "us"
    units["control.saturated_frac"] = "fraction"
    units["control.roll_clamped_frac"] = "fraction"
    units["scenarios.run_scenario.self_s"] = "s"
    for span in MS_SPANS:
        units[f"{span}.ms"] = "ms"
    units["scenarios.ScenarioLog.to_csv.bytes"] = "bytes"
    units["cli.main.self_ms"] = "ms"
    units["trace.overhead_frac"] = "fraction"
    return units


def import_tailsim():
    """Import tailsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tailsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tailsim

    if Path(tailsim.__file__).resolve().parent != SRC / "tailsim":
        raise SystemExit(f"error: imported tailsim from {tailsim.__file__}, not {SRC}")
    return tailsim


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibration_s() -> float:
    """Seconds of a fixed pure-Python float loop: the host's speed right now.

    tailsim's hot paths are interpreted float arithmetic, so contention
    from other tenants slows them and this loop alike.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        x = i * 1e-6
        acc += math.sin(x) * 0.5 + x * x - acc * 1e-9
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn`` between two calibrations: (result, (wall s, host factor))."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    after = calibration_s()
    return result, (seconds, 2.0 * CAL_REF_S / (before + after))


class Samples:
    """Wall seconds of one kind of rep, and the same scaled to CAL_REF_S."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall: list[float] = []
        self.adjusted: list[float] = []

    def add(self, sample: tuple[float, float]) -> None:
        seconds, factor = sample
        self.wall.append(seconds)
        self.adjusted.append(seconds * factor)

    def __len__(self) -> int:
        return len(self.wall)

    def median(self) -> float:
        return statistics.median(self.adjusted)

    def describe(self) -> str:
        q = quartiles(self.adjusted)
        return (f"# {self.name}: adjusted s q1/med/q3 {q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f}, "
                f"wall median {statistics.median(self.wall):.4f} s, n={len(self)}")


def setup_probe(workload, config_path) -> float:
    """Set-up seconds of one fresh process (see setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path),
           "scenario" if workload.closed_loop else "none"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


class Reps:
    """Counts attempted and failed operations and keeps the first digest seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def run(self, kind: str, fn) -> None:
        """Run one operation; a raise or a check failure counts it failed."""
        self.attempted += 1
        try:
            fn()
        except Exception:                      # noqa: BLE001 - count and go on
            self.failed += 1
            print(f"# FAILED {kind}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def same_digest(self, kind: str, digest: str) -> None:
        first = self.digests.setdefault(kind, digest)
        if digest != first:
            raise wl.CheckFailed(f"{kind} digest {digest} differs from {first}")


def run_job(cli, workload, config_path, outdir: Path, seed: int, smoke: bool) -> None:
    """The user's job, run in-process through ``cli.main`` (output discarded)."""
    argvs = workload.job(config_path, outdir, seed, smoke)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    if any(codes):
        raise wl.CheckFailed(f"tailsim exited {codes} for {argvs}")


def measure(args, workload, cfg, config_path, workdir: Path, reps: Reps) -> dict:
    """Untraced reps until --seconds have passed; end-to-end metrics."""
    from tailsim import cli, scenarios

    jobs = Samples("job_s")
    loops = Samples("run_scenario")
    setups = Samples("setup_s")

    def job_rep() -> None:
        _, sample = timed(lambda: run_job(cli, workload, config_path, workdir,
                                          args.seed, args.smoke))
        reps.same_digest("log", workload.check_job(workdir, cfg))
        jobs.add(sample)

    def loop_rep() -> None:
        (log, metrics), sample = timed(lambda: scenarios.run_scenario(cfg))
        reps.same_digest("rows", workload.check_loop(log, metrics, cfg))
        if not loops:
            if hashlib.sha256(log.to_csv().encode()).hexdigest() != reps.digests["log"]:
                raise wl.CheckFailed("run_scenario log differs from the job's log file")
        loops.add(sample)

    def setup_rep() -> None:
        seconds, (_, factor) = timed(lambda: setup_probe(workload, config_path))
        setups.add((seconds, factor))

    setup_probe(workload, config_path)         # warm-up: bytecode caches
    deadline = time.perf_counter() + args.seconds
    next_probe = 0.0
    while True:
        reps.run("job", job_rep)
        if workload.closed_loop and "log" in reps.digests:
            reps.run("run_scenario", loop_rep)
        now = time.perf_counter()
        if now >= next_probe:
            setup_rep()
            next_probe = now + SETUP_EVERY_S
        enough = len(jobs) >= MIN_REPS and (
            not workload.closed_loop or len(loops) >= MIN_REPS)
        if now >= deadline and (enough or reps.attempted >= 4 * MIN_REPS):
            break
    while len(setups) < MIN_SETUP_PROBES:
        setup_rep()
    if not jobs or (workload.closed_loop and not loops):
        return {}

    items = workload.items(cfg, args.smoke)
    if workload.closed_loop:
        items_per_s = items / loops.median()
        print(f"# steps_per_s = {items_per_s:.6g} steps/s  ({items} steps per run)")
        print(loops.describe())
    else:
        items_per_s = items / jobs.median()
        print(f"# sysid_records_per_s = {items_per_s:.6g} records/s  ({items} records)")
    print(jobs.describe())
    print(setups.describe())
    return {"items_per_s": items_per_s, "job_s": jobs.median(), "setup_s": setups.median()}


def log_flag_fractions(path: Path) -> tuple[float, float]:
    """Mean of the saturated and roll_clamped columns of a run log CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        i_sat, i_roll = header.index("saturated"), header.index("roll_clamped")
        rows = sat = roll = 0
        for line in fh:
            cells = line.split(",")
            rows += 1
            sat += cells[i_sat].strip() == "1"
            roll += cells[i_roll].strip() == "1"
    return sat / rows, roll / rows


def measure_traced(args, workload, cfg, config_path, workdir: Path, reps: Reps) -> dict:
    """Alternate untraced and traced job reps; per-layer metrics."""
    from tailsim import cli
    from tracing import Tracer

    tracer = Tracer()
    untraced = Samples("job_s untraced")
    traced = Samples("job_s traced")
    totals: dict[str, dict] = {}
    calls_per_rep: dict[str, int] | None = None

    def untraced_rep() -> None:
        _, sample = timed(lambda: run_job(cli, workload, config_path, workdir,
                                          args.seed, args.smoke))
        reps.same_digest("log", workload.check_job(workdir, cfg))
        untraced.add(sample)

    def traced_rep() -> None:
        nonlocal calls_per_rep
        tracer.clear()
        tracer.install()
        try:
            wl.load_workload_config(config_path, workload)
            _, sample = timed(lambda: run_job(cli, workload, config_path, workdir,
                                              args.seed, args.smoke))
        finally:
            tracer.uninstall()
        reps.same_digest("log", workload.check_job(workdir, cfg))
        summary = tracer.summary()
        calls = {name: entry["calls"] for name, entry in summary.items()}
        if calls_per_rep is None:
            calls_per_rep = calls
        elif calls != calls_per_rep:
            raise wl.CheckFailed("call counts differ between traced reps")
        for name, entry in summary.items():
            total = totals.setdefault(name, {"calls": 0, "self_ns": 0, "durations_ns": []})
            total["calls"] += entry["calls"]
            total["self_ns"] += entry["self_ns"]
            total["durations_ns"] += entry["durations_ns"]
        traced.add(sample)

    deadline = time.perf_counter() + args.seconds
    while True:
        reps.run("job", untraced_rep)
        reps.run("traced job", traced_rep)
        if time.perf_counter() >= deadline and (
                len(traced) >= MIN_TRACED_REPS or reps.attempted >= 4 * MIN_TRACED_REPS):
            break
    if tracer.missing:
        print(f"# trace: not found, so not traced: {', '.join(tracer.missing)}")
    if not traced or not untraced:
        return {}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
    tracer.write(spans_path)
    print(f"# spans of the last traced rep: {spans_path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans); traced reps: {len(traced)}")

    n = len(traced)
    rotations = {"calls": 0, "self_ns": 0}
    for name, entry in totals.items():
        if name.startswith("rotations."):
            rotations["calls"] += entry["calls"]
            rotations["self_ns"] += entry["self_ns"]
    totals["rotations"] = rotations

    def entry(name: str) -> dict:
        return totals.get(name, {"calls": 0, "self_ns": 0, "durations_ns": []})

    def per_call(name: str, key: str, scale: float) -> float:
        e = entry(name)
        return e[key] / e["calls"] / scale if e["calls"] else 0.0

    out: dict[str, float] = {}
    for span in CALL_SPANS:
        out[f"{span}.calls"] = entry(span)["calls"] // n
        out[f"{span}.self_us"] = per_call(span, "self_ns", 1e3)
    durations = entry("control.CascadeController.update")["durations_ns"]
    if len(durations) >= 2:
        cuts = statistics.quantiles(durations, n=100)
        out["control.CascadeController.update.p50_us"] = cuts[49] / 1e3
        out["control.CascadeController.update.p99_us"] = cuts[98] / 1e3
    else:
        out["control.CascadeController.update.p50_us"] = 0.0
        out["control.CascadeController.update.p99_us"] = 0.0
    if workload.closed_loop:
        sat, roll = log_flag_fractions(workdir / "log.csv")
        log_bytes = (workdir / "log.csv").stat().st_size
    else:
        sat = roll = 0.0
        log_bytes = 0
    out["control.saturated_frac"] = sat
    out["control.roll_clamped_frac"] = roll
    out["scenarios.run_scenario.self_s"] = per_call("scenarios.run_scenario", "self_ns", 1e9)
    for span in MS_SPANS:
        e = entry(span)
        out[f"{span}.ms"] = sum(e["durations_ns"]) / e["calls"] / 1e6 if e["calls"] else 0.0
    out["scenarios.ScenarioLog.to_csv.bytes"] = log_bytes
    out["cli.main.self_ms"] = per_call("cli.main", "self_ns", 1e6)
    out["trace.overhead_frac"] = traced.median() / untraced.median() - 1.0
    print(untraced.describe())
    print(traced.describe())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # One process and no extra threads: numpy's OpenBLAS would start a worker
    # thread whose spin-wait after each LAPACK call (the sysid fit) competes
    # with the next timed code for the second vCPU.  Set before numpy loads;
    # the set-up probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_tailsim()
    import numpy as np

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")

    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} commit={git_commit()}")

    OUT.mkdir(exist_ok=True)
    reps = Reps()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        config_path = workdir / "workload.cfg"
        config_path.write_text(workload.config_text(args.seed, args.smoke))
        cfg = wl.load_workload_config(config_path, workload)
        if args.trace:
            metrics = measure_traced(args, workload, cfg, config_path, workdir, reps)
            units = per_layer_units()
        else:
            metrics = measure(args, workload, cfg, config_path, workdir, reps)
            if metrics:
                metrics["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS

    for kind, digest in reps.digests.items():
        print(f"# {kind}_sha256 = {digest}")
    frac = reps.failed / reps.attempted if reps.attempted else 1.0
    print(f"# failed_ops_frac = {frac:.6g} fraction  ({reps.failed} of {reps.attempted})")
    if not metrics:
        print("error: no successful rep", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")

    result = {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        print("error: non-finite metric", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
