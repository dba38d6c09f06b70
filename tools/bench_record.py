"""Record the benchmark's end-to-end metrics over several seeds into one BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_2.json
    python3 tools/bench_record.py --out BENCH_1.json --checkout ../parent

For every workload the checkout's BENCHMARK.json declares and every seed in
SEEDS, one after another, this runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in the checkout (default: the one this file sits in), with T the declared
`run_seconds`, and keeps the last two lines it prints: the environment and
the result. The output file holds, per workload, the median and quartiles of
every end-to-end metric over the seeds with each run's value, the op counts,
and each run's environment line; `uncommitted_changes` says whether the
checkout differed from the commit those lines name (null when `git status`
fails there, as in a copy made by `git archive`), and `pycache` whether
`src/qcontexts/__pycache__` was there as each run started. Python reads
those `.pyc` files even under PYTHONDONTWRITEBYTECODE, so such a run starts
faster than one on a fresh checkout; the first one seen is warned of on stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900  # a 25 s run plus four set-up processes takes about a minute
SEEDS = (1, 2, 3, 4, 5)
PYCACHE = Path("src", "qcontexts", "__pycache__")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment, result) from one untraced perfbench run."""
    command = [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}"]
    command += [f"--seconds={seconds:g}", "--trace=0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    environment, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return environment["environment"], result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def uncommitted_changes(checkout: Path) -> bool | None:
    """Whether tracked files differ from the commit that each run's environment line names;
    None when `git status` fails, as in a checkout that is not a git repository."""
    command = ["git", "status", "--porcelain", "--untracked-files=no"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=60)
    return None if done.returncode else bool(done.stdout.strip())


def record(checkout: Path, seconds: float, workloads: list[str]) -> dict:
    out = {"seeds": list(SEEDS), "seconds": seconds, "uncommitted_changes": uncommitted_changes(checkout), "workloads": {}}
    warned = False
    for workload in workloads:
        runs, pycache = [], []
        for seed in SEEDS:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            pycache.append((checkout / PYCACHE).is_dir())
            if pycache[-1] and not warned:
                print(f"warning: {checkout / PYCACHE} exists: the runs read its .pyc files", file=sys.stderr, flush=True)
                warned = True
            runs.append(run_once(checkout, workload, seed, seconds))
        names = runs[0][1]["metrics"]
        out["workloads"][workload] = {
            "metrics": {
                name: {"unit": names[name]["unit"], **summarize([r["metrics"][name]["value"] for _, r in runs])}
                for name in names
            },
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "pycache": pycache,
            "environments": [env for env, _ in runs],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="file to write, e.g. BENCH_2.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="qcontexts checkout to measure")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    result = record(checkout, benchmark["run_seconds"], workloads)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
