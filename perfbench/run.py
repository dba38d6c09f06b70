"""Benchmark entry point: run one workload against this checkout and print its metrics.

    python3 perfbench/run.py --workload {scenarios,sweep,requery,cli} --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). The line before it records the environment. Each workload
runs in its own fresh worker process (worker.py) with PYTHONPATH=src and
BLAS pinned to one thread. `setup_s` is the median over several fresh
processes of the time from spawn to the end of warm-up. Every time is
scaled by the host speed that calibration samples measured alongside it
(see worker.py); the environment line keeps the times as measured and the
speeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenarios", "sweep", "requery", "cli")
CHILD_TIMEOUT_S = 150
SETUP_RUNS = 5  # fresh processes timed for setup_s


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _worker(args, env: dict, setup_only: bool) -> tuple[dict, float]:
    """Run one worker process; return its result and its measured set-up time in seconds."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker failed with exit code {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result, (result["setup_end_ns"] - spawned_ns) * 1e-9


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qcontexts/__init__.py", "scenarios/three_box.json") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a qcontexts checkout: missing {', '.join(missing)}\n")
        return 2

    env = _child_env()
    setup_runs = []  # (measured set-up seconds, host speed after set-up) per fresh process
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        extra, seconds = _worker(args, env, setup_only=True)
        setup_runs.append((seconds, extra["setup_host_speed"]))
    result, seconds = _worker(args, env, setup_only=False)

    metrics = result["metrics"]
    if not args.trace:
        setup_runs.append((seconds, result["setup_host_speed"]))
        metrics["setup_s"] = {"value": statistics.median(s * speed for s, speed in setup_runs), "unit": "s"}
    for failure in result["failures"]:
        sys.stderr.write(f"failed {failure}\n")
    environment = dict(result["env"], nproc=os.cpu_count(), git_commit=_git_commit(), seed=args.seed)
    environment.update(workload=args.workload, measured_ops=result["measured_ops"], setup_runs=setup_runs)
    if not args.trace:
        environment.update(host_speed=result["host_speed"], measured_metrics=result["measured_metrics"])
    print(json.dumps({"environment": environment}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
