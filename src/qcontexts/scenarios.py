"""Scenario files, dispatch, and deterministic report emission.

Scenario files are JSON. Complex numbers are always [re, im] pairs, states
are lists of pairs, and observables are either the named dim-2 presets "X" /
"Y" / "Z" or explicit labeled projector lists. Every embedded state and
operator is validated against its type invariants on load, with the failing
field named. Reports round every value to 12 significant digits at
construction and emit byte-deterministic CSV or JSON (JSON carries numbers
as decimal strings so serialization never depends on float repr quirks).
"""

from __future__ import annotations

import json
import math
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
    complete_basis,
    detector_click_simulation,
    pointer_basis_select,
    premeasurement_joint,
    rebase_joint,
    spreading_sigma,
)

KINDS = ("abl", "gap", "chain", "pointer", "spreading", "detector")

NAMED_OBSERVABLES = {"X": pauli_x, "Y": pauli_y, "Z": pauli_z}

DEFAULT_CHAIN_SAMPLES = 100_000


def format_number(value: float) -> str:
    """Render at 12 significant digits, positional, trailing zeros kept."""
    return np.format_float_positional(value + 0.0, precision=12, unique=False, fractional=False)


def _round12(value: float) -> float:
    return float(format_number(float(value)))


@dataclass(frozen=True)
class Scenario:
    """A named, validated analysis request of one of the supported kinds."""

    name: str
    kind: str
    parameters: dict
    description: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("scenario name must be a nonempty string", field="name")
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown kind {self.kind!r}; expected one of {list(KINDS)}", field="kind")
        if not isinstance(self.parameters, dict):
            raise ScenarioError("parameters must be an object", field="parameters")


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


def make_report(scenario: Scenario, columns, rows, metadata: dict) -> Report:
    base = {"tool_version": __version__}
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


def _int_from_json(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}", field=field)
    return value


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


def _named_field(exc: InvariantViolation, field: str) -> InvariantViolation:
    return InvariantViolation(f"{field}: {exc}")


def _state_from_json(value, field: str) -> StateVector:
    vector = _vector_from_json(value, field)
    try:
        return StateVector(vector)
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc


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
        try:
            outcomes.append(Outcome(label, out_value, projector))
        except InvariantViolation as exc:
            raise _named_field(exc, prefix) from exc
    try:
        return ProjectiveDecomposition(tuple(outcomes))
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc


def _hamiltonian_from_json(value, field: str, dim: int) -> HermitianOperator | None:
    if value is None:
        return None
    matrix = _matrix_from_json(value, field)
    try:
        operator = HermitianOperator(matrix)
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc
    if operator.dim != dim:
        raise InvariantViolation(f"{field}: dimension {operator.dim} does not match the state ({dim})")
    return operator


def _context_from_params(params: dict, field: str = "parameters") -> Context:
    prep_json = _require(params, "preparation", field)
    inter_json = _require(params, "intermediate", field)
    post_json = _require(params, "postselection", field)
    state = _state_from_json(_require(prep_json, "state", f"{field}.preparation"), f"{field}.preparation.state")
    t1 = _real_from_json(_require(prep_json, "time", f"{field}.preparation"), f"{field}.preparation.time")
    observable = _observable_from_json(
        _require(inter_json, "observable", f"{field}.intermediate"), f"{field}.intermediate.observable"
    )
    t = _real_from_json(_require(inter_json, "time", f"{field}.intermediate"), f"{field}.intermediate.time")
    performed = inter_json.get("performed", True)
    if not isinstance(performed, bool):
        raise ScenarioError("performed must be a boolean", field=f"{field}.intermediate.performed")
    post_obs = _observable_from_json(
        _require(post_json, "observable", f"{field}.postselection"), f"{field}.postselection.observable"
    )
    label = _require(post_json, "label", f"{field}.postselection")
    if not isinstance(label, str):
        raise ScenarioError("label must be a string", field=f"{field}.postselection.label")
    t2 = _real_from_json(_require(post_json, "time", f"{field}.postselection"), f"{field}.postselection.time")
    hamiltonian = _hamiltonian_from_json(params.get("hamiltonian"), f"{field}.hamiltonian", state.dim)
    try:
        return Context(
            Preparation(state, t1),
            PostSelection(post_obs, label, t2),
            Intermediate(observable, t, performed),
            hamiltonian,
        )
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc


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
        from .presets import load_preset  # local import: presets build Scenario objects

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
    scenario = Scenario(name=name, kind=kind, parameters=parameters, description=description)
    _BUILDERS[scenario.kind](scenario.parameters)  # validate eagerly, errors name the field
    return scenario


def scenario_to_json(scenario: Scenario) -> bytes:
    payload = {
        "name": scenario.name,
        "kind": scenario.kind,
        "description": scenario.description,
        "parameters": scenario.parameters,
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Per-kind builders (validation) and runners


def _build_abl(params: dict) -> Context:
    return _context_from_params(params)


def _build_chain(params: dict) -> tuple[Context, int, int]:
    ctx = _context_from_params(params)
    samples = params.get("samples", DEFAULT_CHAIN_SAMPLES)
    seed = params.get("seed", 0)
    samples = _int_from_json(samples, "parameters.samples")
    seed = _int_from_json(seed, "parameters.seed")
    if samples < 1:
        raise ScenarioError("samples must be at least 1", field="parameters.samples")
    return ctx, samples, seed


def _build_gap(params: dict):
    field = "parameters"
    prep_json = _require(params, "preparation", field)
    state = _state_from_json(_require(prep_json, "state", f"{field}.preparation"), f"{field}.preparation.state")
    inter_json = _require(params, "intermediate", field)
    observable = _observable_from_json(
        _require(inter_json, "observable", f"{field}.intermediate"), f"{field}.intermediate.observable"
    )
    post_json = _require(params, "postselection", field)
    post_obs = _observable_from_json(
        _require(post_json, "observable", f"{field}.postselection"), f"{field}.postselection.observable"
    )
    label = _require(post_json, "label", f"{field}.postselection")
    if not isinstance(label, str):
        raise ScenarioError("label must be a string", field=f"{field}.postselection.label")
    try:
        post_obs.outcome(label)
    except InvariantViolation as exc:
        raise _named_field(exc, f"{field}.postselection.label") from exc
    if post_obs.dim != state.dim or observable.dim != state.dim:
        raise InvariantViolation(f"{field}: dimensions disagree across state and observables")
    return state, post_obs, label, observable


def _build_pointer(params: dict):
    field = "parameters"
    coefficients = _vector_from_json(_require(params, "coefficients", field), f"{field}.coefficients")
    system_basis = params.get("system_basis")
    apparatus_basis = params.get("apparatus_basis")
    sys_matrix = None if system_basis is None else _matrix_from_json(system_basis, f"{field}.system_basis").T
    app_matrix = None if apparatus_basis is None else _matrix_from_json(apparatus_basis, f"{field}.apparatus_basis").T
    try:
        joint = premeasurement_joint(coefficients, sys_matrix, app_matrix)
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc
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
        rebases.append((name, basis))
    return joint, rebases


def _build_spreading(params: dict):
    field = "parameters"
    sigma0 = _real_from_json(_require(params, "sigma0", field), f"{field}.sigma0")
    mass = _real_from_json(_require(params, "mass", field), f"{field}.mass")
    times_json = _require(params, "times", field)
    if not isinstance(times_json, list) or not times_json:
        raise ScenarioError("times must be a nonempty list", field=f"{field}.times")
    times = [_real_from_json(t, f"{field}.times[{i}]") for i, t in enumerate(times_json)]
    try:
        model = SpreadingModel(sigma0, mass)
    except InvariantViolation as exc:
        raise _named_field(exc, field) from exc
    if any(t < 0 for t in times):
        raise InvariantViolation(f"{field}.times: times must be nonnegative")
    return model, times


def _build_detector(params: dict):
    field = "parameters"
    rate = _real_from_json(_require(params, "rate", field), f"{field}.rate")
    tick = _real_from_json(_require(params, "tick", field), f"{field}.tick")
    horizon = _real_from_json(_require(params, "horizon", field), f"{field}.horizon")
    seed = _int_from_json(params.get("seed", 0), f"{field}.seed")
    runs = _int_from_json(params.get("runs", 1), f"{field}.runs")
    if runs < 1:
        raise ScenarioError("runs must be at least 1", field=f"{field}.runs")
    if rate < 0:
        raise InvariantViolation(f"{field}.rate: must be nonnegative")
    if tick <= 0 or horizon < tick:
        raise InvariantViolation(f"{field}: need tick > 0 and horizon >= tick")
    return rate, tick, horizon, seed, runs


_BUILDERS = {
    "abl": _build_abl,
    "gap": _build_gap,
    "chain": _build_chain,
    "pointer": _build_pointer,
    "spreading": _build_spreading,
    "detector": _build_detector,
}

_COMMON_TOLERANCES = {
    "tolerance_construction": "1e-12",
    "tolerance_algebra": "1e-10",
}


def _run_abl(scenario: Scenario, seed, samples) -> Report:
    ctx = _build_abl(scenario.parameters)
    abl = abl_distribution(ctx)
    born = born_context_distribution(ctx)
    rows = [(f"abl:{label}", (p,)) for label, p in abl.entries]
    rows += [(f"born:{label}", (p,)) for label, p in born.entries]
    metadata = dict(_COMMON_TOLERANCES)
    metadata["tolerance_denominator"] = "1e-15"
    metadata["reading"] = ctx.reading
    return make_report(scenario, ("value",), rows, metadata)


def _run_chain(scenario: Scenario, seed, samples) -> Report:
    ctx, file_samples, file_seed = _build_chain(scenario.parameters)
    samples = file_samples if samples is None else samples
    seed = file_seed if seed is None else seed
    if samples < 1:
        raise ScenarioError("samples must be at least 1", field="samples")
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
    metadata = dict(_COMMON_TOLERANCES)
    metadata.update(
        {
            "tolerance_denominator": "1e-15",
            "reading": ctx.reading,
            "seed": seed,
            "samples": samples,
            "retained": report.retained,
        }
    )
    return make_report(scenario, ("analytic", "frequency", "zscore"), rows, metadata)


def _run_gap(scenario: Scenario, seed, samples) -> Report:
    state, post_obs, label, observable = _build_gap(scenario.parameters)
    result = total_probability_gap(state, post_obs, label, observable)
    rows = [
        ("quantum", (result.quantum,)),
        ("classical_chain", (result.classical_chain,)),
        ("gap", (result.gap,)),
    ]
    return make_report(scenario, ("value",), rows, dict(_COMMON_TOLERANCES))


def _run_pointer(scenario: Scenario, seed, samples) -> Report:
    joint, rebases = _build_pointer(scenario.parameters)
    schmidt = pointer_basis_select(joint)
    rows = [(f"coefficient:{k + 1}", (c,)) for k, c in enumerate(schmidt.coefficients)]
    rows.append(("non_unique", (1.0 if schmidt.non_unique else 0.0,)))
    pointer_score = rebase_joint(
        joint, complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
    ).orthogonality_score
    rows.append(("orthogonality:pointer", (pointer_score,)))
    for name, basis in rebases:
        rows.append((f"orthogonality:{name}", (rebase_joint(joint, basis).orthogonality_score,)))
    metadata = dict(_COMMON_TOLERANCES)
    metadata["tolerance_coefficient_degeneracy"] = "1e-9"
    return make_report(scenario, ("value",), rows, metadata)


def _run_spreading(scenario: Scenario, seed, samples) -> Report:
    model, times = _build_spreading(scenario.parameters)
    rows = [(format_number(t), (spreading_sigma(model, t),)) for t in times]
    metadata = dict(_COMMON_TOLERANCES)
    metadata["labels"] = "time"
    return make_report(scenario, ("value",), rows, metadata)


def _run_detector(scenario: Scenario, seed, samples) -> Report:
    rate, tick, horizon, file_seed, file_runs = _build_detector(scenario.parameters)
    seed = file_seed if seed is None else seed
    runs = file_runs if samples is None else samples
    if runs < 1:
        raise ScenarioError("runs must be at least 1", field="samples")
    clicked = 0
    nonclick_facts = 0
    click_times = []
    for i in range(runs):  # run i draws from its own stream, seed + i
        sequence = detector_click_simulation(rate, tick, horizon, seed + i)
        nonclick_facts += len(sequence.ticks) - (1 if sequence.clicked else 0)
        if sequence.clicked:
            clicked += 1
            click_times.append(sequence.click_time)
    rows = [
        ("runs", (float(runs),)),
        ("clicked", (float(clicked),)),
        ("censored", (float(runs - clicked),)),
        ("nonclick_facts", (float(nonclick_facts),)),
    ]
    if clicked:
        rows.append(("mean_click_time", (sum(click_times) / clicked,)))
    metadata = dict(_COMMON_TOLERANCES)
    metadata.update({"seed": seed, "runs": runs})
    return make_report(scenario, ("value",), rows, metadata)


_RUNNERS = {
    "abl": _run_abl,
    "gap": _run_gap,
    "chain": _run_chain,
    "pointer": _run_pointer,
    "spreading": _run_spreading,
    "detector": _run_detector,
}


def run_scenario(scenario: Scenario, *, seed: int | None = None, samples: int | None = None) -> Report:
    """Dispatch a scenario to its analysis; seed/samples override the file where used."""
    return _RUNNERS[scenario.kind](scenario, seed, samples)


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
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid report JSON: {exc.msg}") from exc
    try:
        rows = tuple((row[0], tuple(float(v) for v in row[1:])) for row in payload["rows"])
        return Report(
            scenario=payload["scenario"],
            kind=payload["kind"],
            columns=tuple(payload["columns"]),
            rows=rows,
            metadata=tuple(sorted(payload["metadata"].items())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed report payload: {exc}") from exc
