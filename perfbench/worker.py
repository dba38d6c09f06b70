"""Run one benchmark workload in this (fresh) process and print its result as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count pinned to 1. Each workload is a single-client closed loop:
the next op starts when the previous one has returned and been checked.
Only the program's calls are inside the timed region; the correctness check
after each op is not.

With --trace 0, in-process workloads interleave fixed calibration blocks
with their ops and report times scaled to a reference host speed; the times
as measured are kept beside them. With --trace 1, cycles alternate between
untraced and traced, so the tracing overhead is measured against the same
process, and spans are recorded around every call the benchmark makes into
a qcontexts module.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import inputs
from inputs import require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = HERE / "_out"

SWEEP_DIMS = (8, 32, 64)
SWEEP_POOL_PER_DIM = 8
REQUERY_DIMS = (2, 3)
REQUERY_POOL_PER_DIM = 32
DETECTOR_PROBE_RUNS = 100
CALIBRATION_DUTY = 0.15  # calibration time per second of measured op time

END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


# Layer metrics named per dimension: "<stem>.d<d>".
CONTEXT_METRICS = {  # sweep and requery
    "linalg.hermitian_operator_us": "us",
    "kinematics.decomposition_ms": "ms",
    "contexts.context_us": "us",
    "contexts.abl_us": "us",
    "contexts.born_us": "us",
    "linalg.eigensystem_us": "us",
    "linalg.unitary_exponential_us": "us",
}
SWEEP_METRICS = {
    "contexts.chain_ms": "ms",
    "contexts.chain_retained_ratio": "ratio",
    "contexts.picture_us": "us",
    "pointer.select_ms": "ms",
    "linalg.schmidt_us": "us",
}


def dim_names(d: int) -> dict[str, str]:
    return {stem: f"{stem}.d{d}" for stem in (*CONTEXT_METRICS, *SWEEP_METRICS)}


def _per_layer_names() -> dict[str, str]:
    names = {}
    for kind in ("abl", "chain", "gap", "pointer", "spreading", "detector"):
        names[f"scenarios.load_ms.{kind}"] = "ms"
        names[f"scenarios.run_ms.{kind}"] = "ms"
    names["scenarios.emit_us"] = "us"
    names["presets.load_us"] = "us"
    names["pointer.detector_run_us"] = "us"
    for d in REQUERY_DIMS + SWEEP_DIMS:
        names.update({f"{stem}.d{d}": unit for stem, unit in CONTEXT_METRICS.items()})
    for d in SWEEP_DIMS:
        names.update({f"{stem}.d{d}": unit for stem, unit in SWEEP_METRICS.items()})
    names.update({"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms"})
    names["trace.overhead_ratio"] = "ratio"
    return names


PER_LAYER = _per_layer_names()
_SCALE = {"ms": 1e-6, "us": 1e-3}  # nanoseconds -> unit


def now_ns() -> int:
    """CLOCK_MONOTONIC, which is system-wide, so stamps compare across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written once at the end


class NullTracer:
    enabled = False
    _span = nullcontext()

    def span(self, metric: str, per: int = 1):
        return self._span

    def count(self, metric: str, useful: int, attempted: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record[3] = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(len(tracer.records))
        tracer.records.append(self.record)
        self.record[4] = now_ns()
        return self

    def __exit__(self, *exc):
        self.record[5] = now_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records [op, metric, per, parent, start_ns, end_ns] spans; the metric name is the layer call's."""

    enabled = True

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.op = 0

    def span(self, metric: str, per: int = 1) -> _Span:
        """Time a call; `per` divides the self time when one span wraps several calls."""
        return _Span(self, [self.op, metric, per, -1, 0, 0])

    def add(self, metric: str, start_ns: int, end_ns: int) -> None:
        """A span timed elsewhere (inside a child process)."""
        parent = self.stack[-1] if self.stack else -1
        self.records.append([self.op, metric, 1, parent, start_ns, end_ns])

    def count(self, metric: str, useful: int, attempted: int) -> None:
        pair = self.counters[metric]
        pair[0] += useful
        pair[1] += attempted

    def layer_metrics(self) -> dict[str, float]:
        """Median over ops of each metric's per-op self time, plus counter ratios."""
        covered = [0] * len(self.records)
        for op, metric, per, parent, start, end in self.records:
            if parent >= 0:
                covered[parent] += end - start
        per_op: dict[tuple[str, int], float] = defaultdict(float)
        for index, (op, metric, per, parent, start, end) in enumerate(self.records):
            if metric in PER_LAYER:
                per_op[(metric, op)] += (end - start - covered[index]) / per
        samples = defaultdict(list)
        for (metric, _), self_ns in per_op.items():
            samples[metric].append(self_ns)
        out = {}
        for metric, values in samples.items():
            out[metric] = statistics.median(values) * _SCALE[PER_LAYER[metric]]
        for metric, (useful, attempted) in self.counters.items():
            out[metric] = useful / attempted
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["op", "metric", "per", "parent", "start_ns", "end_ns"]}) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Host-speed calibration

_CAL_RNG = np.random.default_rng(0x0CA1)
_CAL_SMALL = _CAL_RNG.standard_normal((3, 3))
_CAL_SMALL = _CAL_SMALL + _CAL_SMALL.T
_CAL_LARGE = _CAL_RNG.standard_normal((48, 48))
_CAL_LARGE = _CAL_LARGE + _CAL_LARGE.T
_CAL_DOC = {"rows": [{"label": f"k{k}", "p": k / 7.0, "tags": ["a", "b"]} for k in range(60)]}


def calibration_block() -> float:
    """A fixed mix of the kinds of work the engine does, none of it in qcontexts; returns its seconds.

    The host's speed drifts by tens of percent over seconds and minutes; this
    block slows with it, so blocks interleaved with the ops tell how fast the
    host ran while they did.
    """
    start = time.perf_counter()
    table = {}
    for k in range(1000):  # interpreter
        table[k % 61] = table.get(k % 61, 0) + k
    json.loads(json.dumps(_CAL_DOC))  # allocation, strings, floats
    for _ in range(4):
        np.allclose(_CAL_SMALL, _CAL_SMALL.T)  # numpy's Python-level wrappers
        np.linalg.eigh(_CAL_SMALL)  # small-array call overhead
    np.linalg.eigh(_CAL_LARGE)  # LAPACK
    return time.perf_counter() - start


def host_speed(reference_s: float, samples) -> float:
    """Reference over median calibration time: below 1 on a host slower than the reference."""
    return reference_s / statistics.median(samples)


class BlockCalibration:
    """Calibration for workloads whose ops run in this process: `calibration_block`."""

    reference_s = 1.0e-3  # its time on the reference host: a 2.0 GHz Xeon vCPU, Python 3.11.7, numpy 2.4.6
    setup_samples = 50  # timed after set-up

    @staticmethod
    def calibration_sample() -> float:
        return calibration_block()


# ---------------------------------------------------------------------------
# Workloads. Each has `cycle` (ops in one round of its input mix), `setup()`,
# `run(i, tracer)` (the timed program calls), `check(i, output)`, and a
# `calibration_sample()` with its `reference_s` and `setup_samples`.


def bytes_check(stem):
    expected = inputs.load_expected(stem)

    def check(csv, js):
        require(js == expected["json"], f"{stem}: JSON report bytes differ from expected/{stem}.json")
        require(csv is None or csv == expected["csv"], f"{stem}: CSV report bytes differ from expected/{stem}.csv")

    return check


def chain_check(params):
    arrays = inputs.arrays_from_parameters(params)
    return lambda csv, js: inputs.check_chain_report("chain", js, arrays)


def detector_check(params):
    return lambda csv, js: inputs.check_detector_report("detector", js, params)


def stable_abl_check(params):
    """Seeded file, so no stored bytes: check the numbers, and that every op repeats the first op's bytes."""
    arrays = inputs.arrays_from_parameters(params)
    first = {}

    def check(csv, js):
        inputs.check_abl_report("hamiltonian abl", js, arrays)
        seen_csv, seen_js = first.setdefault("bytes", (csv, js))
        require(js == seen_js, "hamiltonian abl: JSON bytes changed between identical runs")
        require(csv is None or seen_csv is None or csv == seen_csv, "hamiltonian abl: CSV bytes changed")

    return check


def scenario_files(seed: int, stems) -> dict[str, tuple[Path, str, object]]:
    """Shipped files and the two seeded Hamiltonian files: stem -> (path, kind, check(csv, json))."""
    generated = inputs.write_hamiltonian_scenarios(SCENARIO_DIR, OUT_DIR / f"seed{seed}", seed)
    files = {}
    for stem in stems:
        path = generated.get(stem, SCENARIO_DIR / f"{stem}.json")
        payload = json.loads(path.read_text())
        kind, params = payload["kind"], payload["parameters"]
        if kind == "chain":
            check = chain_check(params)
        elif kind == "detector":
            check = detector_check(params)
        elif stem in generated:
            check = stable_abl_check(params)
        else:
            check = bytes_check(stem)
        files[stem] = (path, kind, check)
    return files


# Heavy and light inputs interleaved; presets run beside the files they mirror.
SCENARIO_ORDER = (
    "three_box", "geiger_counter", "two_slit_gap", "three_box_chain", "preset:three-box",
    "skewed_record_pointer", "hamiltonian_abl", "preset:geiger", "packet_spreading",
    "preset:two-slit", "hamiltonian_chain",
)
CLI_ORDER = (
    "three_box", "geiger_counter", "two_slit_gap", "hamiltonian_abl",
    "three_box_chain", "skewed_record_pointer", "packet_spreading", "hamiltonian_chain",
)


class ScenariosWorkload(BlockCalibration):
    """load_scenario / load_preset -> run_scenario -> emit_report (CSV and JSON), over every shipped input."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import qcontexts as qc

        self.qc = qc
        files = scenario_files(self.seed, [name for name in SCENARIO_ORDER if not name.startswith("preset:")])
        geiger_check = files["geiger_counter"][2]
        presets = {
            "three-box": ("preset", "three-box", None, bytes_check("preset_three-box")),
            "two-slit": ("preset", "two-slit", None, bytes_check("preset_two-slit")),
            "geiger": ("preset", "geiger", None, geiger_check),  # same parameters as geiger_counter.json
        }
        self.items = [
            presets[name[len("preset:"):]] if name.startswith("preset:") else ("file", *files[name])
            for name in SCENARIO_ORDER
        ]
        self.cycle = self.warm_up_ops = len(self.items)

    def run(self, i, tr):
        qc = self.qc
        source, target, kind, _ = self.items[i % self.cycle]
        if source == "file":
            with tr.span(f"scenarios.load_ms.{kind}"):
                scenario = qc.load_scenario(target)
        else:
            with tr.span("presets.load_us"):
                scenario = qc.load_preset(target)
        with tr.span(f"scenarios.run_ms.{scenario.kind}"):
            report = qc.run_scenario(scenario)
        with tr.span("scenarios.emit_us"):
            csv = qc.emit_report(report, "csv")
            js = qc.emit_report(report, "json")
        return scenario, csv, js

    def probe(self, i, tr, output) -> None:
        scenario = output[0]
        if scenario.kind == "detector":
            p = scenario.parameters
            with tr.span("pointer.detector_run_us", per=DETECTOR_PROBE_RUNS):
                for k in range(DETECTOR_PROBE_RUNS):
                    self.qc.detector_click_simulation(p["rate"], p["tick"], p["horizon"], p["seed"] + k)

    def check(self, i, output) -> None:
        self.items[i % self.cycle][3](output[1], output[2])


class SweepWorkload(BlockCalibration):
    """Build a random context at d 8/32/64 and call every context and pointer kernel on it."""

    cycle = SWEEP_POOL_PER_DIM * len(SWEEP_DIMS)
    warm_up_ops = len(SWEEP_DIMS)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import qcontexts as qc

        self.qc = qc
        rng = np.random.default_rng([self.seed, 0x5EE9])
        self.pool = []  # interleaved by dimension; one cycle runs each entry once
        for _ in range(SWEEP_POOL_PER_DIM):
            for d in SWEEP_DIMS:
                arrays = inputs.random_context(rng, d, post_rank=max(1, d // 2))
                joint = inputs.random_joint(rng, d)
                abl, born = inputs.reference_distributions(arrays)
                self.pool.append(
                    {
                        "d": d,
                        "arrays": arrays,
                        "joint": joint,
                        "chain_seed": int(rng.integers(2**31)),
                        "abl": abl,
                        "born": born,
                        "singular": np.linalg.svd(joint, compute_uv=False),
                        "names": dim_names(d),
                    }
                )

    def run(self, i, tr):
        qc = self.qc
        entry = self.pool[i % self.cycle]
        n = entry["names"]
        ctx = build_context(qc, tr, entry["arrays"], n)
        with tr.span(n["contexts.abl_us"]):
            abl = qc.abl_distribution(ctx)
        with tr.span(n["contexts.born_us"]):
            born = qc.born_context_distribution(ctx)
        with tr.span(n["contexts.chain_ms"]):
            chain = qc.sample_chain(ctx, inputs.SWEEP_CHAIN_SAMPLES, entry["chain_seed"])
        with tr.span(n["contexts.picture_us"]):
            picture = qc.picture_consistency_check(ctx)
        with tr.span(n["pointer.select_ms"]):
            schmidt = qc.pointer_basis_select(qc.JointState.from_amplitudes(entry["joint"]))
        tr.count(n["contexts.chain_retained_ratio"], chain.retained, chain.requested)
        return ctx, abl, born, chain, picture, schmidt

    def probe(self, i, tr, output) -> None:
        entry = self.pool[i % self.cycle]
        _spectral_probes(self.qc, tr, output[0], entry["names"])
        with tr.span(entry["names"]["linalg.schmidt_us"]):
            self.qc.schmidt_decompose(entry["joint"])

    def check(self, i, output) -> None:
        entry = self.pool[i % self.cycle]
        _, abl, born, chain, picture, schmidt = output
        labels = entry["arrays"].labels
        d = entry["d"]
        inputs.check_close(f"abl d{d}", [abl.probability(label) for label in labels], entry["abl"], inputs.ABL_TOL)
        inputs.check_close(f"born d{d}", [born.probability(label) for label in labels], entry["born"], inputs.ABL_TOL)
        require(picture <= inputs.PICTURE_TOL, f"picture consistency d{d}: {picture:.3e}")
        require(chain.requested == inputs.SWEEP_CHAIN_SAMPLES, f"chain d{d}: requested {chain.requested}")
        counts = np.array([round(chain.frequencies.probability(label) * chain.retained) for label in labels])
        inputs.check_chain_law(f"chain d{d}", entry["abl"], counts, chain.retained)
        inputs.check_close(f"schmidt d{d}", schmidt.coefficients, entry["singular"], inputs.ABL_TOL)


def build_context(qc, tr, a: inputs.ContextArrays, names: dict):
    """Validated engine objects from raw arrays, each constructor layer in its own span."""
    with tr.span(names["linalg.hermitian_operator_us"]):
        hamiltonian = qc.HermitianOperator(a.hamiltonian)
    with tr.span(names["kinematics.decomposition_ms"]):  # the d-outcome intermediate and the post-selection
        intermediate = qc.ProjectiveDecomposition(
            tuple(qc.Outcome(label, float(k), p) for k, (label, p) in enumerate(zip(a.labels, a.projectors)))
        )
        post = qc.ProjectiveDecomposition(
            (qc.Outcome("b", 1.0, a.post_projector), qc.Outcome("other", 0.0, np.eye(a.dim) - a.post_projector))
        )
    with tr.span(names["contexts.context_us"]):
        return qc.Context(
            qc.Preparation(qc.StateVector(a.psi), a.times[0]),
            qc.PostSelection(post, "b", a.times[2]),
            qc.Intermediate(intermediate, a.times[1]),
            hamiltonian,
        )


def _spectral_probes(qc, tr, ctx, names) -> None:
    """Probe calls on the op's Hamiltonian: what a spectral cache would save per query."""
    with tr.span(names["linalg.eigensystem_us"]):
        qc.hermitian_eigensystem(ctx.hamiltonian)
    with tr.span(names["linalg.unitary_exponential_us"]):
        qc.unitary_exponential(ctx.hamiltonian, ctx.intermediate.time - ctx.preparation.time)


class RequeryWorkload(BlockCalibration):
    """abl_distribution + born_context_distribution on contexts built once, in setup."""

    cycle = REQUERY_POOL_PER_DIM * len(REQUERY_DIMS)
    warm_up_ops = 2 * cycle  # every pooled context twice

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.setup_tracer = tracer

    def setup(self) -> None:
        import qcontexts as qc

        self.qc = qc
        tr = self.setup_tracer
        rng = np.random.default_rng([self.seed, 0x7E9])
        self.pool = []
        for _ in range(REQUERY_POOL_PER_DIM):
            for d in REQUERY_DIMS:
                a = inputs.random_context(rng, d, post_rank=1)
                names = dim_names(d)
                tr.op = -1 - len(self.pool)  # setup "ops" are the pool builds
                ctx = build_context(qc, tr, a, names)
                abl, born = inputs.reference_distributions(a)
                self.pool.append({"ctx": ctx, "labels": a.labels, "abl": abl, "born": born, "names": names})

    def run(self, i, tr):
        entry = self.pool[i % self.cycle]
        ctx, names = entry["ctx"], entry["names"]
        with tr.span(names["contexts.abl_us"]):
            abl = self.qc.abl_distribution(ctx)
        with tr.span(names["contexts.born_us"]):
            born = self.qc.born_context_distribution(ctx)
        return abl, born

    def probe(self, i, tr, output) -> None:
        entry = self.pool[i % self.cycle]
        _spectral_probes(self.qc, tr, entry["ctx"], entry["names"])

    def check(self, i, output) -> None:
        entry = self.pool[i % self.cycle]
        abl, born = output
        inputs.check_close("abl", [abl.probability(label) for label in entry["labels"]], entry["abl"], inputs.ABL_TOL)
        inputs.check_close("born", [born.probability(label) for label in entry["labels"]], entry["born"], inputs.ABL_TOL)


class CliWorkload:
    """One `qcontexts run <file> --format json` subprocess per op, over the shipped and generated files."""

    warm_up_ops = 1  # each op is a fresh process; one warms the page cache and writes the .pyc files
    # Calibration blocks in this process do not follow the speed of child processes,
    # so the reference work is a child too: interpreter start and `import numpy`,
    # most of what a `qcontexts run` does. Its time on the reference host:
    reference_s = 0.2
    setup_samples = 3

    def __init__(self, seed: int, env: dict, traced: bool):
        self.seed = seed
        self.env = env
        # A traced run starts every op, traced cycle or not, through the stamping probe,
        # so trace.overhead_ratio compares the same command.
        self.entry = [str(HERE / "cli_probe.py")] if traced else ["-m", "qcontexts.cli"]

    def setup(self) -> None:
        files = scenario_files(self.seed, CLI_ORDER)
        self.items = [(files[stem][0], files[stem][2]) for stem in CLI_ORDER]
        self.cycle = len(self.items)

    def run(self, i, tr):
        path = self.items[i % self.cycle][0]
        command = [sys.executable, *self.entry, "run", str(path), "--format", "json"]
        spawned = now_ns()
        done = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        require(done.returncode == 0, f"{path.name}: exit {done.returncode}: {done.stderr[-400:]!r}")
        if tr.enabled:
            stamps = json.loads(done.stderr.splitlines()[-1])
            tr.add("cli.interp_ms", spawned, stamps["start_ns"])
            tr.add("cli.import_ms", stamps["start_ns"], stamps["imported_ns"])
            tr.add("cli.main_ms", stamps["imported_ns"], stamps["main_done_ns"])
        return done.stdout

    def probe(self, i, tr, output) -> None:
        pass

    def calibration_sample(self) -> float:
        start = time.perf_counter()
        command = [sys.executable, "-c", "import numpy"]
        subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, timeout=60, check=True)
        return time.perf_counter() - start

    def check(self, i, output) -> None:
        self.items[i % self.cycle][1](None, output)


# ---------------------------------------------------------------------------
# The measuring loop


def _percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    """Runs ops of one workload and tallies them; any exception or failed check is a failed op."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.untraced = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations = array("d")
        self._calibration_due = 0.0

    def one(self, i: int, tr, keep: dict) -> float:
        """Run op i; on success append its latency in seconds to `keep[input]`. Returns it, or 0 on failure."""
        workload = self.workload
        self.attempted += 1
        self.tracer.op = i
        try:
            start = time.perf_counter()
            with tr.span("op"):  # parent of the op's layer spans; its self time is the benchmark's glue
                output = workload.run(i, tr)
            elapsed = time.perf_counter() - start
            if tr.enabled:
                workload.probe(i, tr, output)
            workload.check(i, output)
        except Exception as exc:  # every kind of op failure is counted, none stops the run
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return 0.0
        keep.setdefault(i % workload.cycle, array("d")).append(elapsed)  # compact: RSS is measured
        return elapsed

    def calibrate(self, op_seconds: float) -> None:
        """Calibration samples for CALIBRATION_DUTY of the op time just measured."""
        self._calibration_due += op_seconds * CALIBRATION_DUTY
        while self._calibration_due > 0:
            spent = self.workload.calibration_sample()
            self.calibrations.append(spent)
            self._calibration_due -= spent

    def warm_up(self) -> None:
        """Untimed ops first: first-use paths, lazy imports and caches settle before timing."""
        for i in range(self.workload.warm_up_ops):
            self.one(i, self.untraced, {})

    def measure(self, seconds: float, traced: bool) -> tuple[dict, dict]:
        """Whole cycles until `seconds` have passed; with tracing, odd cycles are traced.

        Without tracing, calibration samples run between the ops. Returns the
        latencies of untraced and of traced ops, by input (op index modulo the cycle).
        """
        n = self.workload.cycle
        plain, with_trace = {}, {}
        deadline = time.perf_counter() + seconds
        cycle = 0
        while cycle < (2 if traced else 1) or time.perf_counter() < deadline:
            use_trace = traced and cycle % 2 == 1
            tr, keep = (self.tracer, with_trace) if use_trace else (self.untraced, plain)
            for i in range((cycle + 1) * n, (cycle + 2) * n):
                elapsed = self.one(i, tr, keep)
                if not traced:
                    self.calibrate(elapsed)
            cycle += 1
        return plain, with_trace


def make_workload(name: str, seed: int, tracer, env: dict):
    if name == "scenarios":
        return ScenariosWorkload(seed)
    if name == "sweep":
        return SweepWorkload(seed)
    if name == "requery":
        return RequeryWorkload(seed, tracer)
    if name == "cli":
        return CliWorkload(seed, env, tracer.enabled)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    workload = make_workload(args.workload, args.seed, tracer, dict(os.environ))
    workload.setup()
    runner = Runner(workload, tracer)
    runner.warm_up()
    out = {"setup_end_ns": now_ns()}
    if not traced:
        samples = [workload.calibration_sample() for _ in range(workload.setup_samples)]
        out["setup_host_speed"] = host_speed(workload.reference_s, samples)
    if not args.setup_only:
        plain, with_trace = runner.measure(args.seconds, traced)
        out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
        out.update(measured_ops=sum(map(len, plain.values())), env=_env())
        if traced:
            out["metrics"] = _layer_metrics(tracer, plain, with_trace)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            which = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(which).ru_maxrss / 1024.0
            speed = host_speed(workload.reference_s, runner.calibrations)
            out["host_speed"] = speed
            out["metrics"] = _end_to_end_metrics(plain, peak_rss_mb, speed)
            out["measured_metrics"] = _end_to_end_metrics(plain, peak_rss_mb, 1.0)
    print(json.dumps(out))
    return 0


def _all_ops(latencies: dict) -> list[float]:
    """Every measured op's latency, ascending."""
    return sorted(value for values in latencies.values() for value in values)


def _ops_per_s(latencies: dict) -> float:
    """Measured ops over their summed latency: the closed-loop throughput of the program's calls."""
    ops = _all_ops(latencies)
    return len(ops) / sum(ops)


def _end_to_end_metrics(latencies: dict, peak_rss_mb: float, speed: float) -> dict:
    """Op metrics as the reference host would time them: measured times scaled by `speed`."""
    ops = _all_ops(latencies)
    values = {
        "ops_per_s": _ops_per_s(latencies) / speed,
        "op_ms_p50": _percentile(ops, 0.5) * 1e3 * speed,
        "op_ms_p90": _percentile(ops, 0.9) * 1e3 * speed,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def _layer_metrics(tracer: Tracer, plain: dict, traced: dict) -> dict:
    values = {name: 0.0 for name in PER_LAYER}  # stays 0 where this workload makes no such call
    values.update(tracer.layer_metrics())
    # Same process, alternating cycles: untraced over traced ops_per_s.
    values["trace.overhead_ratio"] = _ops_per_s(plain) / _ops_per_s(traced)
    return {name: {"value": value, "unit": PER_LAYER[name]} for name, value in values.items()}


def _env() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
