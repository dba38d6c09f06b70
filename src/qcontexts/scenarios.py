"""Scenario files, dispatch, and deterministic report emission.

Scenario files are JSON. Complex numbers are always [re, im] pairs, states
are lists of pairs, and observables are either the named dim-2 presets "X" /
"Y" / "Z" or explicit labeled projector lists. Every embedded state and
operator is validated against its type invariants when the Scenario is
constructed, with the failing field named: construction builds the kind's
spec once (contexts, joint states and their rebasings, models) and every
run reuses it. A spreading time whose packet width overflows a double fails
the run as an invariant violation. Reports round every value to 12 significant digits at
construction and emit byte-deterministic CSV or JSON (JSON carries numbers
as decimal strings so serialization never depends on float repr quirks).
Presets are the scenario files `<name>.json` in the package's `presets/`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .contexts import (
    Context,
    Intermediate,
    PostSelection,
    Preparation,
    abl_distribution,
    born_context_distribution,
    sample_chain,
    total_probability_gap,
)
from .errors import ImpossibleOutcomeError, InvariantViolation, ScenarioError
from .kinematics import (
    Outcome,
    ProjectiveDecomposition,
    StateVector,
    pauli_x,
    pauli_y,
    pauli_z,
)
from .linalg import HermitianOperator
from .pointer import (
    SpreadingModel,
    detector_first_click,
    pointer_basis_scored,
    premeasurement_joint,
    rebase_joint,
    spreading_sigma,
)

NAMED_OBSERVABLES = {"X": pauli_x, "Y": pauli_y, "Z": pauli_z}

DEFAULT_CHAIN_SAMPLES = 100_000
MAX_DETECTOR_RUNS = 10**6  # about 16 s of detector runs

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def format_number(value: float) -> str:
    """Render at 12 significant digits, positional, trailing zeros kept."""
    return np.format_float_positional(value + 0.0, precision=12, unique=False, fractional=False)


def _round12(value: float) -> float:
    return float(format_number(float(value)))


@dataclass(frozen=True)
class Scenario:
    """A named analysis request of one of the supported kinds, validated once.

    Construction builds the kind's spec from the raw `parameters` (which are
    kept as given, for serialization); running reuses the spec, so build a
    new Scenario to change any parameter.
    """

    name: str
    kind: str
    parameters: dict
    description: str = ""
    spec: object = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("scenario name must be a nonempty string", field="name")
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ScenarioError(f"unknown kind {self.kind!r}; expected one of {list(KINDS)}", field="kind")
        if not isinstance(self.parameters, dict):
            raise ScenarioError("parameters must be an object", field="parameters")
        object.__setattr__(self, "spec", KINDS[self.kind][0](self.parameters))


@dataclass(frozen=True)
class Report:
    """Result table plus metadata; every value already rounded to 12 digits."""

    scenario: str
    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]
    metadata: tuple[tuple[str, str], ...]

    def metadata_dict(self) -> dict[str, str]:
        return dict(self.metadata)

    def value(self, label: str, column: str = "value") -> float:
        index = self.columns.index(column)
        for row_label, values in self.rows:
            if row_label == label:
                return values[index]
        raise KeyError(label)


_COMMON_TOLERANCES = {
    "tolerance_construction": "1e-12",
    "tolerance_algebra": "1e-10",
}


def make_report(scenario: Scenario, columns, rows, metadata: dict) -> Report:
    """A Report with the tool version and the common tolerances added to `metadata`."""
    base = {"tool_version": __version__, **_COMMON_TOLERANCES}
    base.update(metadata)
    return Report(
        scenario=scenario.name,
        kind=scenario.kind,
        columns=tuple(columns),
        rows=tuple((str(label), tuple(_round12(v) for v in values)) for label, values in rows),
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real_from_json(value, field: str) -> float:
    if not _is_finite_number(value):
        raise ScenarioError(f"expected a finite real number, got {value!r}", field=field)
    return float(value)


def _integer(value, field: str, minimum: int) -> int:
    """A JSON integer, or a seed/count override, of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"expected an integer, got {value!r}", field=field)
    if value < minimum:
        raise ScenarioError(f"must be at least {minimum}, got {value}", field=field)
    return int(value)


def _complex_from_pair(value, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(part) for part in value)
    ):
        raise ScenarioError(f"complex numbers are finite [re, im] pairs, got {value!r}", field=field)
    return complex(value[0], value[1])


def _vector_from_json(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a nonempty list of [re, im] pairs", field=field)
    return np.array([_complex_from_pair(entry, field) for entry in value], dtype=complex)


def _matrix_from_json(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioError("expected a nonempty list of rows", field=field)
    rows = []
    width = None
    for i, row in enumerate(value):
        vec = _vector_from_json(row, f"{field}[{i}]")
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ScenarioError("matrix rows have unequal lengths", field=field)
        rows.append(vec)
    return np.array(rows, dtype=complex)


class _field:
    """Name the input field `path` in an InvariantViolation raised inside the block."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, InvariantViolation):
            raise InvariantViolation(str(exc), field=self.path) from exc


def _observable_from_json(value, field: str) -> ProjectiveDecomposition:
    if isinstance(value, str):
        if value not in NAMED_OBSERVABLES:
            raise ScenarioError(
                f"unknown named observable {value!r}; presets are {sorted(NAMED_OBSERVABLES)}",
                field=field,
            )
        return NAMED_OBSERVABLES[value]()
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


def _hamiltonian_from_json(value, field: str, dim: int) -> HermitianOperator | None:
    if value is None:
        return None
    matrix = _matrix_from_json(value, field)
    with _field(field):
        operator = HermitianOperator(matrix)
    if operator.dim != dim:
        raise InvariantViolation(f"dimension {operator.dim} does not match the state ({dim})", field=field)
    return operator


def _context_from_params(params: dict, timed: bool = True, field: str = "parameters") -> Context:
    """The preparation / intermediate / post-selection arrangement of abl, chain and gap.

    gap is untimed: it reads no times, `performed` or `hamiltonian`. Its
    context evolves freely, so the placeholder times 0 < 1 < 2 change no
    probability and it is the equal-time arrangement the gap is defined on.
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
        hamiltonian = _hamiltonian_from_json(params.get("hamiltonian"), f"{field}.hamiltonian", state.dim)
    with _field(f"{field}.postselection.label"):
        post = PostSelection(post_obs, label, t2)
    with _field(field):
        return Context(Preparation(state, t1), post, Intermediate(observable, t, performed), hamiltonian)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (or a {"preset": name} reference)."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer past the interpreter's digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return scenario_from_payload(payload)


def scenario_from_payload(payload) -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    if "preset" in payload:
        extra = sorted(set(payload) - {"preset"})
        if extra:
            raise ScenarioError(f"a preset reference allows no other fields, got {extra}", field="preset")
        return load_preset(payload["preset"])
    name = _require(payload, "name", "scenario")
    kind = _require(payload, "kind", "scenario")
    parameters = _require(payload, "parameters", "scenario")
    description = payload.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError("description must be a string", field="description")
    return Scenario(name=name, kind=kind, parameters=parameters, description=description)


def preset_names() -> tuple[str, ...]:
    """The shipped presets: one JSON scenario file each in PRESET_DIR, named by its stem."""
    return tuple(sorted(name.removesuffix(".json") for name in os.listdir(PRESET_DIR) if name.endswith(".json")))


def load_preset(name: str) -> Scenario:
    """Load a shipped preset; a name not listed by preset_names() opens no file."""
    if not isinstance(name, str) or name not in preset_names():
        raise ScenarioError(f"unknown preset {name!r}; available: {list(preset_names())}", field="preset")
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
    samples = _integer(params.get("samples", DEFAULT_CHAIN_SAMPLES), "parameters.samples", 1)
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
    if any(t < 0 for t in times):
        raise InvariantViolation("times must be nonnegative", field=f"{field}.times")
    return model, times


def _build_detector(params: dict):
    field = "parameters"
    rate = _real_from_json(_require(params, "rate", field), f"{field}.rate")
    tick = _real_from_json(_require(params, "tick", field), f"{field}.tick")
    horizon = _real_from_json(_require(params, "horizon", field), f"{field}.horizon")
    seed = _integer(params.get("seed", 0), f"{field}.seed", 0)
    runs = _integer(params.get("runs", 1), f"{field}.runs", 1)
    if rate < 0:
        raise InvariantViolation("must be nonnegative", field=f"{field}.rate")
    if tick <= 0 or horizon < tick:
        raise InvariantViolation("need tick > 0 and horizon >= tick", field=field)
    return rate, tick, horizon, seed, runs


def _run_abl(scenario: Scenario, ctx: Context, seed, samples) -> Report:
    abl = abl_distribution(ctx)
    born = born_context_distribution(ctx)
    rows = [(f"abl:{label}", (p,)) for label, p in abl.entries]
    rows += [(f"born:{label}", (p,)) for label, p in born.entries]
    metadata = {"tolerance_denominator": "1e-15", "reading": ctx.reading}
    return make_report(scenario, ("value",), rows, metadata)


def _run_chain(scenario: Scenario, spec, seed, samples) -> Report:
    ctx, file_samples, file_seed = spec
    samples_field = "parameters.samples" if samples is None else "samples"
    samples = file_samples if samples is None else _integer(samples, "samples", 1)
    seed = file_seed if seed is None else _integer(seed, "seed", 0)
    with _field(samples_field):
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
        "tolerance_denominator": "1e-15",
        "reading": ctx.reading,
        "seed": seed,
        "samples": samples,
        "retained": report.retained,
    }
    return make_report(scenario, ("analytic", "frequency", "zscore"), rows, metadata)


def _run_gap(scenario: Scenario, ctx: Context, seed, samples) -> Report:
    post = ctx.postselection
    result = total_probability_gap(ctx.preparation.state, post.observable, post.label, ctx.intermediate.observable)
    rows = [
        ("quantum", (result.quantum,)),
        ("classical_chain", (result.classical_chain,)),
        ("gap", (result.gap,)),
    ]
    return make_report(scenario, ("value",), rows, {})


def _run_pointer(scenario: Scenario, spec, seed, samples) -> Report:
    joint, rebases = spec
    schmidt, pointer_score = pointer_basis_scored(joint)
    rows = [(f"coefficient:{k + 1}", (c,)) for k, c in enumerate(schmidt.coefficients)]
    rows.append(("non_unique", (1.0 if schmidt.non_unique else 0.0,)))
    rows.append(("orthogonality:pointer", (pointer_score,)))
    for name, rebased in rebases:
        rows.append((f"orthogonality:{name}", (rebased.orthogonality_score,)))
    return make_report(scenario, ("value",), rows, {"tolerance_coefficient_degeneracy": "1e-9"})


def _run_spreading(scenario: Scenario, spec, seed, samples) -> Report:
    model, times = spec
    rows = []
    for i, t in enumerate(times):
        with _field(f"parameters.times[{i}]"):
            rows.append((format_number(t), (spreading_sigma(model, t),)))
    return make_report(scenario, ("value",), rows, {"labels": "time"})


def _run_detector(scenario: Scenario, spec, seed, samples) -> Report:
    rate, tick, horizon, file_seed, file_runs = spec
    seed = file_seed if seed is None else _integer(seed, "seed", 0)
    runs_field = "parameters.runs" if samples is None else "samples"
    runs = file_runs if samples is None else _integer(samples, "samples", 1)
    if runs > MAX_DETECTOR_RUNS:
        raise InvariantViolation(f"runs must lie in [1, {MAX_DETECTOR_RUNS}], got {runs}", field=runs_field)
    nonclick_facts = clicked = 0
    # Running totals: flat memory in runs, and left to right (sum() compensates on 3.12+).
    click_time_total = 0.0
    for i in range(runs):  # run i draws from its own stream, seed + i
        count, click_index = detector_first_click(rate, tick, horizon, seed + i)
        if click_index is None:
            nonclick_facts += count
        else:
            nonclick_facts += click_index - 1
            clicked += 1
            click_time_total += click_index * tick
    rows = [
        ("runs", (float(runs),)),
        ("clicked", (float(clicked),)),
        ("censored", (float(runs - clicked),)),
        ("nonclick_facts", (float(nonclick_facts),)),
    ]
    if clicked:
        rows.append(("mean_click_time", (click_time_total / clicked,)))
    return make_report(scenario, ("value",), rows, {"seed": seed, "runs": runs})


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
        for label, values in report.rows:
            if "," in label or "\n" in label:
                raise ScenarioError(f"label {label!r} cannot be rendered in CSV")
            lines.append(label + "," + ",".join(format_number(v) for v in values))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = {
            "scenario": report.scenario,
            "kind": report.kind,
            "columns": list(report.columns),
            "rows": [[label, *[format_number(v) for v in values]] for label, values in report.rows],
            "metadata": dict(report.metadata),
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    raise ScenarioError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


def parse_report(data: bytes) -> Report:
    """Inverse of emit_report for the JSON format."""
    try:
        payload = json.loads(data)
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ScenarioError(f"invalid report JSON: {exc}") from exc
    try:
        rows = tuple((row[0], tuple(float(v) for v in row[1:])) for row in payload["rows"])
        return Report(
            scenario=payload["scenario"],
            kind=payload["kind"],
            columns=tuple(payload["columns"]),
            rows=rows,
            metadata=tuple(sorted(payload["metadata"].items())),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed report payload: {exc}") from exc
