"""Scenario files, dispatch, and deterministic report emission.

Scenario files are JSON. Complex numbers are always [re, im] pairs, states are
lists of pairs, and observables are either the named dim-2 presets "X" / "Y" /
"Z" (each built once per process, on first use, and shared as an immutable
decomposition) or explicit labeled projector lists. Every embedded state and
operator is validated against its type invariants when the Scenario is constructed, with
the failing field named: construction builds the kind's spec once (contexts,
joint states and their rebasings, the spreading widths, the detector law, the
capped counts) and every run reuses it, checking only a seed or count
override. Reports round and format every value (format_number, precision 12) at
construction and emit byte-deterministic CSV or JSON (JSON carries numbers as
decimal strings so serialization never depends on float repr quirks); nothing
here reads a report back. Presets are the scenario files `<name>.json` in the
package's `presets/`. Scenario and Report are value records: equal fields
(never the derived spec or texts) make equal objects.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import stat

import numpy as np

from ._version import __version__
from .contexts import (
    DENOMINATOR_FLOOR,
    MAX_CHAIN_SAMPLES,
    Context,
    Intermediate,
    PostSelection,
    Preparation,
    abl_distribution,
    born_context_distribution,
    sample_chain,
    total_probability_gap,
)
from .errors import ImpossibleOutcomeError, InvariantViolation, ScenarioError, clipped_repr
from .kinematics import (
    Outcome,
    ProjectiveDecomposition,
    StateVector,
    pauli_x,
    pauli_y,
    pauli_z,
)
from .linalg import ALGEBRA_TOL, COEFFICIENT_DEGENERACY_TOL, CONSTRUCTION_TOL, HermitianOperator
from .pointer import (
    SpreadingModel,
    detector_law,
    first_clicks,
    pointer_basis_scored,
    premeasurement_joint,
    rebase_joint,
    spreading_sigma,
)
from .records import ValueRecord

NAMED_OBSERVABLES = {"X": pauli_x, "Y": pauli_y, "Z": pauli_z}

DEFAULT_CHAIN_SAMPLES = 100_000
MAX_DETECTOR_RUNS = 10**6  # a 10^6-run `qcontexts run` takes about 0.4 s, start-up included (2-vCPU VM)
MAX_FILE_BYTES = 64 << 20  # 64 MB, about 5x the largest desk-scale file measured (13 MB at d = 64)

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def format_number(value: float) -> str:
    """numpy's positional Dragon4 at precision 12, not unique: at most 12 significant digits, without the trailing
    zeros an exact value or a round-up carry leaves ungenerated, then zero-padded to 12 digits counting the integer
    part (0.5 -> 0.50000000000, 11 significant; 0.1 -> 0.100000000000). Not idempotent: see README, Reports."""
    return np.format_float_positional(value + 0.0, precision=12, unique=False, fractional=False)


class Scenario(ValueRecord):
    """A named analysis request of one of the supported kinds, validated once.

    Construction builds the kind's spec from the raw `parameters` (which are
    kept as given, for serialization); running reuses the spec, so build a
    new Scenario to change any parameter. The spec is derived, not a field:
    scenarios with equal fields are equal.
    """

    def __init__(self, name: str, kind: str, parameters: dict, description: str = ""):
        if not isinstance(name, str) or not name:
            raise ScenarioError("scenario name must be a nonempty string", field="name")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ScenarioError(f"unknown kind {clipped_repr(kind)}; expected one of {list(KINDS)}", field="kind")
        if not isinstance(parameters, dict):
            raise ScenarioError("parameters must be an object", field="parameters")
        spec = KINDS[kind][0](parameters)
        self.__dict__.update(name=name, kind=kind, parameters=parameters, description=description, spec=spec)


class Report(ValueRecord):
    """Result table plus metadata. Construction rounds each value to 12 digits (`rows`) and formats each
    rounded value once into `texts`, the strings emit_report writes (numpy's format is not idempotent);
    texts is derived, not a field."""

    def __init__(
        self, scenario: str, kind: str, columns: tuple[str, ...], rows: tuple, metadata: tuple[tuple[str, str], ...]
    ):
        rows = tuple((label, tuple(float(format_number(v)) for v in values)) for label, values in rows)
        texts = tuple(tuple(map(format_number, values)) for _, values in rows)
        self.__dict__.update(scenario=scenario, kind=kind, columns=columns, rows=rows, metadata=metadata, texts=texts)


def _tolerance(value: float) -> str:
    """A tolerance as report metadata writes it: 1e-9, where Python's :g writes 1e-09."""
    return f"{value:g}".replace("e-0", "e-")


def make_report(scenario: Scenario, columns, rows, metadata: dict) -> Report:
    """A Report with the tool version and the common tolerances added to `metadata`."""
    tolerances = {"tolerance_construction": _tolerance(CONSTRUCTION_TOL), "tolerance_algebra": _tolerance(ALGEBRA_TOL)}
    base = {"tool_version": __version__, **tolerances, **metadata}
    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        columns=tuple(columns),
        rows=tuple((str(label), values) for label, values in rows),
        metadata=tuple(sorted((str(k), str(v)) for k, v in base.items())),
    )


# ---------------------------------------------------------------------------
# JSON -> domain objects


def _require(params: dict, key: str, field: str):
    if not isinstance(params, dict):
        raise ScenarioError("expected an object", field=field)
    if key not in params:
        raise ScenarioError(f"missing required field {key!r}", field=field)
    return params[key]


def _is_finite_number(value) -> bool:
    """A JSON number that is a finite double; json.loads also yields NaN, Infinity and unbounded ints."""
    if type(value) is float:  # every JSON number with a fraction or an exponent
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real_from_json(value, field: str) -> float:
    if not _is_finite_number(value):
        raise ScenarioError(f"expected a finite real number, got {clipped_repr(value)}", field=field)
    return float(value)


def _integer(value, field: str, minimum: int) -> int:
    """A JSON integer, or a seed/count override, of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"expected an integer, got {clipped_repr(value)}", field=field)
    if value < minimum:
        raise ScenarioError(f"must be at least {minimum}, got {clipped_repr(int(value))}", field=field)
    return int(value)


def _count(value, field: str, name: str, cap: int) -> int:
    """A count of chain samples or detector runs, from the file or an override: in [1, cap]."""
    count = _integer(value, field, 1)
    if count > cap:
        raise InvariantViolation(f"{name} must lie in [1, {cap}], got {clipped_repr(count)}", field=field)
    return count


def _checked_pairs(value, field: str) -> list:
    """`value` if it is a nonempty list of [re, im] pairs (lists or tuples) of finite numbers; else a
    ScenarioError under `field` naming it or its first bad pair."""
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a nonempty list of [re, im] pairs", field=field)
    for pair in value:
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            if _is_finite_number(pair[0]) and _is_finite_number(pair[1]):
                continue
        raise ScenarioError(f"complex numbers are finite [re, im] pairs, got {clipped_repr(pair)}", field=field)
    return value


def _vector_from_json(value, field: str) -> np.ndarray:
    return np.array([complex(re, im) for re, im in _checked_pairs(value, field)], dtype=complex)


def _matrix_from_json(value, field: str) -> np.ndarray:
    """One array; a row's width is checked right after its pairs, so the first failure is the first in file order."""
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a nonempty list of rows", field=field)
    for i, row in enumerate(value):
        if len(_checked_pairs(row, f"{field}[{i}]")) != len(value[0]):
            raise ScenarioError("matrix rows have unequal lengths", field=field)
    return np.array([complex(re, im) for row in value for re, im in row], dtype=complex).reshape(len(value), -1)


class _field:
    """Name the input field `path` in an InvariantViolation raised inside the block;
    a field the violation already names is taken as relative to `path`."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, InvariantViolation):
            field = self.path if exc.field is None else f"{self.path}.{exc.field}"
            raise InvariantViolation(exc.message, field=field) from exc


@functools.cache
def _named_observable(name: str) -> ProjectiveDecomposition:
    """X, Y or Z, built on first use and then shared by every scenario: a decomposition is immutable."""
    return NAMED_OBSERVABLES[name]()


def _observable_from_json(value, field: str) -> ProjectiveDecomposition:
    if isinstance(value, str):
        if value not in NAMED_OBSERVABLES:
            raise ScenarioError(
                f"unknown named observable {clipped_repr(value)}; presets are {sorted(NAMED_OBSERVABLES)}",
                field=field,
            )
        return _named_observable(value)
    outcomes_json = _require(value, "outcomes", field)
    if not isinstance(outcomes_json, list) or not outcomes_json:
        raise ScenarioError("outcomes must be a nonempty list", field=f"{field}.outcomes")
    outcomes = []
    for i, entry in enumerate(outcomes_json):
        prefix = f"{field}.outcomes[{i}]"
        label = _require(entry, "label", prefix)
        if not isinstance(label, str):
            raise ScenarioError("label must be a string", field=f"{prefix}.label")
        out_value = _real_from_json(_require(entry, "value", prefix), f"{prefix}.value")
        projector = _matrix_from_json(_require(entry, "projector", prefix), f"{prefix}.projector")
        with _field(prefix):
            outcomes.append(Outcome(label, out_value, projector))
    with _field(field):
        return ProjectiveDecomposition(tuple(outcomes))


def _hamiltonian_from_json(value, field: str) -> HermitianOperator | None:
    if value is None:
        return None
    matrix = _matrix_from_json(value, field)
    with _field(field):
        return HermitianOperator(matrix)


def _context_from_params(params: dict, timed: bool = True, field: str = "parameters") -> Context:
    """The preparation / intermediate / post-selection arrangement of abl, chain and gap.

    gap is untimed: it reads no times, `performed` or `hamiltonian`. Its
    context evolves freely, so the placeholder times 0 < 1 < 2 change no
    probability: total_probability_gap reads the equal-time arrangement from it.
    """
    prep_json = _require(params, "preparation", field)
    inter_json = _require(params, "intermediate", field)
    post_json = _require(params, "postselection", field)
    vector = _vector_from_json(_require(prep_json, "state", f"{field}.preparation"), f"{field}.preparation.state")
    with _field(f"{field}.preparation.state"):
        state = StateVector(vector)
    observable = _observable_from_json(
        _require(inter_json, "observable", f"{field}.intermediate"), f"{field}.intermediate.observable"
    )
    post_obs = _observable_from_json(
        _require(post_json, "observable", f"{field}.postselection"), f"{field}.postselection.observable"
    )
    label = _require(post_json, "label", f"{field}.postselection")
    if not isinstance(label, str):
        raise ScenarioError("label must be a string", field=f"{field}.postselection.label")
    t1, t, t2 = 0.0, 1.0, 2.0
    performed, hamiltonian = True, None
    if timed:
        t1, t, t2 = (
            _real_from_json(_require(section, "time", f"{field}.{name}"), f"{field}.{name}.time")
            for section, name in ((prep_json, "preparation"), (inter_json, "intermediate"), (post_json, "postselection"))
        )
        performed = inter_json.get("performed", True)
        if not isinstance(performed, bool):
            raise ScenarioError("performed must be a boolean", field=f"{field}.intermediate.performed")
        hamiltonian = _hamiltonian_from_json(params.get("hamiltonian"), f"{field}.hamiltonian")
    with _field(f"{field}.postselection.label"):
        post = PostSelection(post_obs, label, t2)
    with _field(field):
        return Context(Preparation(state, t1), post, Intermediate(observable, t, performed), hamiltonian)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (or a {"preset": name} reference). At most MAX_FILE_BYTES + 1
    bytes are read: a longer input (a pipe or a device too) is a ScenarioError, as is JSON nested too deeply."""
    try:  # os.read, not open(): its file objects cost more than reading a few-KB file
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            info = os.fstat(fd)  # st_size: a regular file's length; 0 for a pipe or a device
            if stat.S_ISDIR(info.st_mode):  # open()'s check: os.read's EISDIR would not name the path
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            limit = min(info.st_size or MAX_FILE_BYTES, MAX_FILE_BYTES) + 1
            pieces, count = [], 0  # one piece for a regular file; os.read frees what it leaves unfilled
            while count < limit and (piece := os.read(fd, limit - count)):
                pieces.append(piece)
                count += len(piece)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    if count > MAX_FILE_BYTES:
        raise ScenarioError(f"scenario file holds more than {MAX_FILE_BYTES} bytes")
    try:
        payload = json.loads(b"".join(pieces))  # a regular file's one piece itself, not a copy
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer past the interpreter's digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("invalid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    if "preset" in payload:
        extra = sorted(set(payload) - {"preset"})
        if extra:
            raise ScenarioError(f"a preset reference allows no other fields, got {clipped_repr(extra)}", field="preset")
        return load_preset(payload["preset"])
    name = _require(payload, "name", "scenario")
    kind = _require(payload, "kind", "scenario")
    parameters = _require(payload, "parameters", "scenario")
    description = payload.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError("description must be a string", field="description")
    return Scenario(name=name, kind=kind, parameters=parameters, description=description)


@functools.cache
def preset_names() -> tuple[str, ...]:
    """The shipped presets: one JSON scenario file each in PRESET_DIR, named by its stem (listed once)."""
    return tuple(sorted(name.removesuffix(".json") for name in os.listdir(PRESET_DIR) if name.endswith(".json")))


def load_preset(name: str) -> Scenario:
    """Load a shipped preset; a name not listed by preset_names() opens no file."""
    if not isinstance(name, str) or name not in preset_names():
        raise ScenarioError(f"unknown preset {clipped_repr(name)}; available: {list(preset_names())}", field="preset")
    return load_scenario(os.path.join(PRESET_DIR, f"{name}.json"))


def scenario_to_json(scenario: Scenario) -> bytes:
    payload = {
        "name": scenario.name,
        "kind": scenario.kind,
        "description": scenario.description,
        "parameters": scenario.parameters,
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Per-kind builders (validation, once per Scenario) and runners (on the built spec)


def _build_chain(params: dict) -> tuple[Context, int, int]:
    ctx = _context_from_params(params)
    samples = _count(params.get("samples", DEFAULT_CHAIN_SAMPLES), "parameters.samples", "samples", MAX_CHAIN_SAMPLES)
    return ctx, samples, _integer(params.get("seed", 0), "parameters.seed", 0)


def _build_pointer(params: dict):
    field = "parameters"
    coefficients = _vector_from_json(_require(params, "coefficients", field), f"{field}.coefficients")
    system_basis = params.get("system_basis")
    apparatus_basis = params.get("apparatus_basis")
    sys_matrix = None if system_basis is None else _matrix_from_json(system_basis, f"{field}.system_basis").T
    app_matrix = None if apparatus_basis is None else _matrix_from_json(apparatus_basis, f"{field}.apparatus_basis").T
    with _field(field):
        joint = premeasurement_joint(coefficients, sys_matrix, app_matrix)
    rebases = []
    rebases_json = params.get("rebases", [])
    if not isinstance(rebases_json, list):
        raise ScenarioError("rebases must be a list", field=f"{field}.rebases")
    for i, entry in enumerate(rebases_json):
        prefix = f"{field}.rebases[{i}]"
        name = _require(entry, "name", prefix)
        if not isinstance(name, str) or not name:
            raise ScenarioError("rebase name must be a nonempty string", field=f"{prefix}.name")
        basis = _matrix_from_json(_require(entry, "basis", prefix), f"{prefix}.basis").T
        with _field(f"{prefix}.basis"):
            rebases.append((name, rebase_joint(joint, basis)))
    return joint, rebases


def _build_spreading(params: dict):
    field = "parameters"
    sigma0 = _real_from_json(_require(params, "sigma0", field), f"{field}.sigma0")
    mass = _real_from_json(_require(params, "mass", field), f"{field}.mass")
    times_json = _require(params, "times", field)
    if not isinstance(times_json, list) or not times_json:
        raise ScenarioError("times must be a nonempty list", field=f"{field}.times")
    times = [_real_from_json(t, f"{field}.times[{i}]") for i, t in enumerate(times_json)]
    with _field(field):
        model = SpreadingModel(sigma0, mass)
    rows = []
    for i, t in enumerate(times):
        with _field(f"{field}.times[{i}]"):
            rows.append((format_number(t), (spreading_sigma(model, t),)))
    return rows


def _build_detector(params: dict):
    field = "parameters"
    rate = _real_from_json(_require(params, "rate", field), f"{field}.rate")
    tick = _real_from_json(_require(params, "tick", field), f"{field}.tick")
    horizon = _real_from_json(_require(params, "horizon", field), f"{field}.horizon")
    seed = _integer(params.get("seed", 0), f"{field}.seed", 0)
    runs = _count(params.get("runs", 1), f"{field}.runs", "runs", MAX_DETECTOR_RUNS)
    with _field(field):
        count, p = detector_law(rate, tick, horizon)
    return count, p, tick, seed, runs


def _run_abl(scenario: Scenario, ctx: Context, seed, samples) -> Report:
    abl = abl_distribution(ctx)
    born = born_context_distribution(ctx)
    rows = [(f"abl:{label}", (p,)) for label, p in abl.entries]
    rows += [(f"born:{label}", (p,)) for label, p in born.entries]
    metadata = {"tolerance_denominator": _tolerance(DENOMINATOR_FLOOR), "reading": ctx.reading}
    return make_report(scenario, ("value",), rows, metadata)


def _run_chain(scenario: Scenario, spec, seed, samples) -> Report:
    ctx, file_samples, file_seed = spec
    samples = file_samples if samples is None else _count(samples, "samples", "samples", MAX_CHAIN_SAMPLES)
    seed = file_seed if seed is None else _integer(seed, "seed", 0)
    report = sample_chain(ctx, samples, seed)
    if report.no_data:
        raise ImpossibleOutcomeError(
            f"no run survived post-selection in {samples} samples (no-data outcome)"
        )
    abl = abl_distribution(ctx)
    rows = []
    for label, p in abl.entries:
        frequency = report.frequencies.probability(label)
        spread = (p * (1.0 - p) / report.retained) ** 0.5
        zscore = 0.0 if spread == 0.0 else (frequency - p) / spread
        rows.append((label, (p, frequency, zscore)))
    metadata = {
        "tolerance_denominator": _tolerance(DENOMINATOR_FLOOR),
        "reading": ctx.reading,
        "seed": seed,
        "samples": samples,
        "retained": report.retained,
        "sampler": "multinomial-binomial",
    }
    return make_report(scenario, ("analytic", "frequency", "zscore"), rows, metadata)


def _run_gap(scenario: Scenario, ctx: Context, seed, samples) -> Report:
    result = total_probability_gap(ctx)
    rows = [(name, (getattr(result, name),)) for name in ("quantum", "classical_chain", "gap")]
    return make_report(scenario, ("value",), rows, {})


def _run_pointer(scenario: Scenario, spec, seed, samples) -> Report:
    joint, rebases = spec
    schmidt, pointer_score = pointer_basis_scored(joint)
    rows = [(f"coefficient:{k + 1}", (c,)) for k, c in enumerate(schmidt.coefficients)]
    rows.append(("non_unique", (1.0 if schmidt.non_unique else 0.0,)))
    rows.append(("orthogonality:pointer", (pointer_score,)))
    for name, rebased in rebases:
        rows.append((f"orthogonality:{name}", (rebased.orthogonality_score,)))
    metadata = {"tolerance_coefficient_degeneracy": _tolerance(COEFFICIENT_DEGENERACY_TOL)}
    return make_report(scenario, ("value",), rows, metadata)


def _run_spreading(scenario: Scenario, rows, seed, samples) -> Report:
    return make_report(scenario, ("value",), rows, {"labels": "time"})


def _run_detector(scenario: Scenario, spec, seed, samples) -> Report:
    count, p, tick, file_seed, file_runs = spec
    seed = file_seed if seed is None else _integer(seed, "seed", 0)
    runs = file_runs if samples is None else _count(samples, "samples", "runs", MAX_DETECTOR_RUNS)
    clicked = hit_sum = 0
    for hits in first_clicks(count, p, seed, runs):  # a block of runs at a time: flat memory
        clicked += np.count_nonzero(hits)
        hit_sum += sum(hits.tolist())  # Python ints: a block's sum can pass 2^63
    rows = [
        ("runs", (float(runs),)),
        ("clicked", (float(clicked),)),
        ("censored", (float(runs - clicked),)),
        # a clicked run records the ticks before its click, a run without one every tick
        ("nonclick_facts", (float(hit_sum - clicked + (runs - clicked) * count),)),
    ]
    if clicked:  # the mean index from exact sums, at most count, times tick: finite for any law detector_law passes
        rows.append(("mean_click_time", (tick * (hit_sum / clicked),)))
    return make_report(scenario, ("value",), rows, {"seed": seed, "runs": runs, "sampler": "geometric-stream"})


# The one registry of scenario kinds: kind -> (build, run). build(parameters)
# validates the raw JSON object into a spec; run(scenario, spec, seed, samples)
# computes the report from it.
KINDS = {
    "abl": (_context_from_params, _run_abl),
    "gap": (lambda params: _context_from_params(params, timed=False), _run_gap),
    "chain": (_build_chain, _run_chain),
    "pointer": (_build_pointer, _run_pointer),
    "spreading": (_build_spreading, _run_spreading),
    "detector": (_build_detector, _run_detector),
}


def run_scenario(scenario: Scenario, *, seed: int | None = None, samples: int | None = None) -> Report:
    """Run a scenario's built spec; seed/samples override the file where used."""
    return KINDS[scenario.kind][1](scenario, scenario.spec, seed, samples)


# ---------------------------------------------------------------------------
# Emission


def emit_report(report: Report, fmt: str = "csv") -> bytes:
    """Serialize a report; identical reports yield identical bytes."""
    if fmt == "csv":
        lines = ["label," + ",".join(report.columns)]
        for (label, _), texts in zip(report.rows, report.texts):
            if "," in label or "\n" in label:
                raise ScenarioError(f"label {clipped_repr(label)} cannot be rendered in CSV")
            lines.append(label + "," + ",".join(texts))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = {
            "scenario": report.scenario,
            "kind": report.kind,
            "columns": list(report.columns),
            "rows": [[label, *texts] for (label, _), texts in zip(report.rows, report.texts)],
            "metadata": dict(report.metadata),
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    raise ScenarioError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")

