"""Run the benchmark once per seed and report each end-to-end metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads hover-noisy,star-fulllog --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  A spread at or above a third
of the bound is marked; setup_s is exempt from the spread rule.  ``--out``
also writes the figures with the machine facts, as baseline.json is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", help="write the figures as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    seeds = seeds_of(args.seeds)
    report: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        results = [one_run(workload, seed, args.seconds) for seed in seeds]
        figures = {"runs": len(results),
                   "failed": sum(r["failed"] for r in results),
                   "correct": all(r["correct"] for r in results)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            figures[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": spread, "unit": results[0]["metrics"][name]["unit"]}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- >= bound/3"
            print(f"{workload:15s} {name:12s} median {statistics.median(values):12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"(bound {bound}){flag}", flush=True)
        report[workload] = figures
    if args.out:
        facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "commit": run.git_commit(),
                 "seeds": args.seeds, "run_seconds": args.seconds}
        Path(args.out).write_text(json.dumps({"machine": facts, "workloads": report},
                                             indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
