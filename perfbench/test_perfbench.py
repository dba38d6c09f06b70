"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_worker_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    command += ["--seconds", "0.2", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "scenarios", "--seed", "1", "--seconds", "1"]
    done = subprocess.run([*command, "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


@pytest.fixture
def corrupted_expected(tmp_path, monkeypatch):
    shutil.copytree(inputs.EXPECTED_DIR, tmp_path / "expected")
    target = tmp_path / "expected" / "three_box.json"
    target.write_bytes(target.read_bytes().replace(b"1.00000000000", b"1.00000000001", 1))
    monkeypatch.setattr(inputs, "EXPECTED_DIR", tmp_path / "expected")


def _three_box_op(workload, stems):
    runner = worker.Runner(workload, worker.NullTracer())
    for i in range(workload.cycle):
        if stems[i] == "three_box":
            runner.one(i, runner.untraced, {})
    return runner


def test_corrupted_expected_output_is_a_failed_op(corrupted_expected):
    workload = worker.ScenariosWorkload(seed=1)
    workload.setup()
    runner = _three_box_op(workload, worker.SCENARIO_ORDER)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "three_box" in runner.failures[0]


def test_corrupted_expected_output_is_a_failed_cli_op(corrupted_expected):
    workload = worker.CliWorkload(seed=1, env=run._child_env(), traced=False)
    workload.setup()
    runner = _three_box_op(workload, worker.CLI_ORDER)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_unexpected_exception_is_a_failed_op():
    class Broken:
        cycle = warm_up_ops = 1

        def run(self, i, tr):
            raise ZeroDivisionError("boom")

    runner = worker.Runner(Broken(), worker.NullTracer())
    runner.warm_up()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_times_are_scaled_by_the_host_speed():
    assert worker.host_speed(0.2, [0.3, 0.4, 9.0]) == pytest.approx(0.5)
    latencies = {0: [0.002, 0.004], 1: [0.006]}
    measured = worker._end_to_end_metrics(latencies, 40.0, 1.0)
    scaled = worker._end_to_end_metrics(latencies, 40.0, 0.5)
    assert scaled["ops_per_s"]["value"] == pytest.approx(2 * measured["ops_per_s"]["value"])
    assert scaled["op_ms_p50"]["value"] == pytest.approx(0.5 * measured["op_ms_p50"]["value"])
    assert scaled["op_ms_p90"]["value"] == pytest.approx(0.5 * measured["op_ms_p90"]["value"])
    assert scaled["peak_rss_mb"] == measured["peak_rss_mb"]


def test_chain_law_accepts_an_o_outcomes_sampler_and_rejects_a_wrong_law():
    rng = np.random.default_rng(5)
    abl, born = inputs.reference_distributions(inputs.random_context(rng, 16, post_rank=8))
    success = abl / born
    success *= 0.6 / success.max()  # a per-branch success law whose post-selected law is the ABL one
    for _ in range(20):  # multinomial thinning: another stream, the same law
        picked = rng.multinomial(inputs.SWEEP_CHAIN_SAMPLES, born)
        kept = rng.binomial(picked, success)
        inputs.check_chain_law("thinned", abl, kept, int(kept.sum()))
    kept = rng.multinomial(inputs.SWEEP_CHAIN_SAMPLES, born)  # post-selection ignored: the Born law
    with pytest.raises(inputs.CheckFailed):
        inputs.check_chain_law("unconditioned", abl, kept, int(kept.sum()))


def test_hamiltonian_abl_report_bytes_are_pinned_at_seed_1(tmp_path):
    paths = inputs.write_hamiltonian_scenarios(ROOT / "scenarios", tmp_path, 1)
    env = run._child_env()
    for fmt in ("csv", "json"):
        command = [sys.executable, "-m", "qcontexts.cli", "run", str(paths["hamiltonian_abl"]), "--format", fmt]
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (inputs.EXPECTED_DIR / f"hamiltonian_abl_seed1.{fmt}").read_bytes()


def test_make_expected_reproduces_the_stored_bytes(tmp_path, monkeypatch):
    import make_expected

    monkeypatch.setattr(make_expected, "HERE", tmp_path)
    make_expected.main()
    produced = sorted((tmp_path / "expected").iterdir())
    assert [path.name for path in produced] == sorted(path.name for path in inputs.EXPECTED_DIR.iterdir())
    for path in produced:
        assert path.read_bytes() == (inputs.EXPECTED_DIR / path.name).read_bytes(), path.name
