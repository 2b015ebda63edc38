"""The benchmark's workloads: what each job runs and how its output is checked.

Every workload runs the user's job in-process through ``tailsim.cli.main``.
The workload seed reaches the program only as the config ``seed`` key
(closed-loop workloads) or ``sysid synth --seed`` (``sysid-bench``).  The
perfect-estimator workloads draw no noise, so their seed changes nothing:
their logs are the same for every seed.

Closed-loop durations stay above the 5 s ``transient_window_s``; a
shorter run raises ``MetricsWindowError`` by design.  tailsim is imported
inside the functions, after ``run.import_tailsim`` has chosen its source.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Criterion 7's limit for a 5 %-noise bench fit on a sweep at least as dense
# as its 60 x 121 grid: every coefficient within 5 % of the value the records
# were generated from.
SYSID_REL_TOL = 0.05
SYSID_NOISE = 0.05
SYSID_CONSTANTS = ("k_t", "k_m", "k_l", "k_d", "k_p")


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


@dataclass(frozen=True)
class ClosedLoop:
    """``tailsim run`` of one scenario, with the log CSV and metrics JSON written."""

    name: str
    why: str
    settings: tuple[tuple[str, str], ...]
    duration_s: float
    smoke_duration_s: float

    closed_loop = True

    def duration(self, smoke: bool) -> float:
        return self.smoke_duration_s if smoke else self.duration_s

    def config_text(self, seed: int, smoke: bool) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings]
        lines += [f"duration_s = {self.duration(smoke)!r}", f"seed = {seed}"]
        return "\n".join(lines) + "\n"

    def items(self, cfg, smoke: bool) -> int:
        """Physics steps in one run."""
        return int(round(cfg.harness.duration_s * cfg.harness.physics_rate_hz))

    def job(self, config_path, outdir: Path, seed: int, smoke: bool) -> list[list[str]]:
        return [[
            "run", "--config", str(config_path),
            "--out-log", str(outdir / "log.csv"),
            "--out-metrics", str(outdir / "metrics.json"),
        ]]

    def check_job(self, outdir: Path, cfg) -> str:
        """Check the written log and metrics; return the log's SHA-256."""
        log_path = outdir / "log.csv"
        with open(log_path, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        want = int(round(cfg.harness.duration_s * cfg.harness.logging_rate_hz))
        if rows != want:
            raise CheckFailed(f"log has {rows} rows, expected {want}")
        with open(outdir / "metrics.json") as fh:
            check_metrics(json.load(fh))
        return hashlib.sha256(log_path.read_bytes()).hexdigest()

    def check_loop(self, log, metrics, cfg) -> str:
        """Check a direct ``run_scenario`` result; return a digest of its rows."""
        want = int(round(cfg.harness.duration_s * cfg.harness.logging_rate_hz))
        if len(log) != want:
            raise CheckFailed(f"log has {len(log)} rows, expected {want}")
        check_metrics(metrics.to_dict())
        return hashlib.sha256(log.data[: len(log)].tobytes()).hexdigest()


def check_metrics(values: dict) -> None:
    bad = [key for key, value in values.items() if not math.isfinite(value)]
    if bad:
        raise CheckFailed(f"non-finite metrics: {bad}")
    if not values["peak_pitch_rad"] < math.pi / 2:
        raise CheckFailed(f"peak_pitch_rad {values['peak_pitch_rad']} >= pi/2")


@dataclass(frozen=True)
class SysidBench:
    """``sysid synth --noise 0.05`` on a grid, then ``sysid fit --intercept``."""

    name: str
    why: str
    grid: tuple[int, int]          # (omega count, delta count)
    smoke_grid: tuple[int, int]

    closed_loop = False

    def config_text(self, seed: int, smoke: bool) -> str:
        return "# sysid-bench synthesises with the default vehicle parameters\n"

    def _grid(self, smoke: bool) -> tuple[int, int]:
        return self.smoke_grid if smoke else self.grid

    def items(self, cfg, smoke: bool) -> int:
        """Bench records in one job."""
        n_omega, n_delta = self._grid(smoke)
        return n_omega * n_delta

    def job(self, config_path, outdir: Path, seed: int, smoke: bool) -> list[list[str]]:
        n_omega, n_delta = self._grid(smoke)
        records = str(outdir / "bench.csv")
        return [
            ["sysid", "synth", "--out", records,
             "--omega-count", str(n_omega), "--delta-count", str(n_delta),
             "--noise", repr(SYSID_NOISE), "--seed", str(seed)],
            ["sysid", "fit", "--in", records, "--out", str(outdir / "fit.txt"),
             "--intercept"],
        ]

    def check_job(self, outdir: Path, cfg) -> str:
        """Check the fit against the generating parameters; return a digest
        of the bench records and the fit file together."""
        from tailsim import config as config_mod

        truth = config_mod.Config().params
        fitted = config_mod.load_config(outdir / "fit.txt").params
        for name in SYSID_CONSTANTS:
            want, got = getattr(truth, name), getattr(fitted, name)
            if not abs(got / want - 1.0) <= SYSID_REL_TOL:
                raise CheckFailed(f"fitted {name} = {got!r}, truth {want!r}")
        digest = hashlib.sha256()
        for part in ("bench.csv", "fit.txt"):
            digest.update((outdir / part).read_bytes())
        return digest.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        ClosedLoop(
            "hover-noisy",
            "complementary estimator with default disturbances and noise: the only "
            "workload that senses and fuses at 1 kHz",
            (("scenario", "hover"), ("estimator", "complementary")),
            duration_s=6.0, smoke_duration_s=5.5,
        ),
        ClosedLoop(
            "circle-perfect",
            "perfect estimator, so no sensing or fusion: sim.step and the cascade "
            "dominate; two excited axes feed the latency fit",
            (("scenario", "circle"), ("estimator", "perfect")),
            duration_s=6.0, smoke_duration_s=5.5,
        ),
        ClosedLoop(
            "star-fulllog",
            "1 kHz log written as CSV plus metrics JSON: the scenarios output layer "
            "and the leg-based reference",
            (("scenario", "star"), ("estimator", "perfect"), ("logging_rate_hz", "1000")),
            duration_s=10.0, smoke_duration_s=5.5,
        ),
        SysidBench(
            "sysid-bench",
            "synthetic bench records written, read back and fitted: the only "
            "workload for the sysid layer",
            grid=(100, 201), smoke_grid=(60, 121),
        ),
    )
}


def load_workload_config(path, workload):
    """The workload's Config, built and validated as ``tailsim run`` would."""
    from tailsim import config as config_mod, scenarios

    cfg = config_mod.load_config(path)
    if workload.closed_loop:
        scenarios.make_scenario(cfg)
    return cfg
