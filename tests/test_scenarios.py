"""Tests for scenario loading, dispatch, deterministic emission, and the CLI."""

import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qcontexts
from qcontexts import (
    FactSequence,
    InvariantViolation,
    ProjectiveDecomposition,
    Scenario,
    ScenarioError,
    detector_click_simulation,
    emit_report,
    format_number,
    load_preset,
    load_scenario,
    pauli_x,
    pauli_z,
    preset_names,
    run_scenario,
    scenario_to_json,
    scenarios,
)
from qcontexts import cli
from qcontexts.cli import main
from qcontexts.contexts import DENOMINATOR_FLOOR, MAX_CHAIN_SAMPLES, MAX_PHASE
from qcontexts.errors import clipped_repr
from qcontexts.linalg import ALGEBRA_TOL, COEFFICIENT_DEGENERACY_TOL, CONSTRUCTION_TOL
from qcontexts.pointer import _RUN_BLOCK, detector_law, spreading_sigma
from qcontexts.scenarios import MAX_DETECTOR_RUNS, MAX_FILE_BYTES, NAMED_OBSERVABLES
from helpers import count_branch_builds, mixed_schmidt, one_stream_first_clicks, report_value

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

EXAMPLE_FILES = {
    "abl": "three_box.json",
    "chain": "three_box_chain.json",
    "gap": "two_slit_gap.json",
    "pointer": "skewed_record_pointer.json",
    "spreading": "packet_spreading.json",
    "detector": "geiger_counter.json",
}


def write_scenario(tmp_path, payload) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


# --- formatting -----------------------------------------------------------------


def test_format_number_twelve_significant_digits():
    assert format_number(1.0) == "1.00000000000"
    assert format_number(0.5) == "0.50000000000"
    assert format_number(1 / 3) == "0.333333333333"
    assert format_number(288675.1345948129) == "288675.134595"


# --- loading -------------------------------------------------------------------


def test_every_example_file_loads_and_runs():
    for kind, filename in EXAMPLE_FILES.items():
        scenario = load_scenario(SCENARIO_DIR / filename)
        assert scenario.kind == kind
        report = run_scenario(scenario)
        assert report.kind == kind
        assert report.rows


def test_preset_reference_expands(tmp_path):
    path = write_scenario(tmp_path, {"preset": "three-box"})
    scenario = load_scenario(path)
    assert scenario.name == "three-box"
    # Expansion matches the hand-built arrangement: amplitudes 1/sqrt(3).
    state = scenario.parameters["preparation"]["state"]
    expected = 1 / np.sqrt(3)
    assert state[0] == [expected, 0.0]
    assert state[2] == [expected, 0.0]
    post = scenario.parameters["postselection"]
    assert post["label"] == "b"
    corner = post["observable"]["outcomes"][0]["projector"][2][2]
    assert abs(corner[0] - 1 / 3) < 1e-15 and corner[1] == 0.0


def test_missing_postselection_is_field_level_error(tmp_path):
    preset = load_preset("three-box")
    params = dict(preset.parameters)
    del params["postselection"]
    path = write_scenario(tmp_path, {"name": "broken", "kind": "abl", "parameters": params})
    with pytest.raises(ScenarioError, match="postselection"):
        load_scenario(path)


def test_unnormalized_state_names_the_field(tmp_path):
    preset = load_preset("three-box")
    params = json.loads(json.dumps(preset.parameters))
    params["preparation"]["state"] = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    path = write_scenario(tmp_path, {"name": "broken", "kind": "abl", "parameters": params})
    with pytest.raises(InvariantViolation, match="preparation.state"):
        load_scenario(path)


@pytest.mark.parametrize(
    "basis, message",
    [
        ([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]], "not orthonormal"),
        ([[[1.0, 0.0], [0.0, 0.0]]], "complete"),
    ],
    ids=["not-orthonormal", "incomplete"],
)
def test_pointer_rebase_basis_is_checked_at_load(tmp_path, basis, message):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["pointer"]).read_text())
    payload["parameters"]["rebases"].append({"name": "bad", "basis": basis})
    with pytest.raises(InvariantViolation, match=message) as excinfo:
        load_scenario(write_scenario(tmp_path, payload))
    assert excinfo.value.field == "parameters.rebases[1].basis"
    assert str(excinfo.value).startswith("parameters.rebases[1].basis: ")


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", ')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "raw",
    [b'{"name": "\xff"}', b"\xff\xfe{", b'{"name": ' + b"1" * 5000 + b"}"],
    ids=["invalid-utf8", "truncated-utf16", "integer-past-digit-limit"],
)
def test_cli_undecodable_file_is_a_parse_error(tmp_path, capsysbinary, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["run", str(path)]) == 2
    lines = capsysbinary.readouterr().err.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "parse-error"


def test_complex_entries_must_be_pairs(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "name": "bad",
            "kind": "gap",
            "parameters": {
                "preparation": {"state": [1.0, 0.0]},
                "intermediate": {"observable": "X"},
                "postselection": {"observable": "Z", "label": "+1"},
            },
        },
    )
    with pytest.raises(ScenarioError, match=r"\[re, im\]"):
        load_scenario(path)


PROJECTOR = "parameters.intermediate.observable.outcomes[0].projector"
PAIRS = "complex numbers are finite [re, im] pairs, got "
NOT_PAIRS = "expected a nonempty list of [re, im] pairs"
AT = ("intermediate", "observable", "outcomes", 0, "projector")
BOUNDARY_CASES = {  # three_box.json with one raw JSON token at `path`: the field and message of the first error
    "true": (AT + (1, 2), "[true, 0.0]", f"{PROJECTOR}[1]", PAIRS + "[True, 0.0]"),
    "nan": (AT + (1, 2), "[NaN, 0.0]", f"{PROJECTOR}[1]", PAIRS + "[nan, 0.0]"),
    "infinity": (AT + (0, 0), "[0.0, Infinity]", f"{PROJECTOR}[0]", PAIRS + "[0.0, inf]"),
    "1e400": (AT + (2, 1), "[1e400, 0.0]", f"{PROJECTOR}[2]", PAIRS + "[inf, 0.0]"),
    "400-digit-integer": (
        AT + (1, 0),
        "[1" + "0" * 400 + ", 0]",
        f"{PROJECTOR}[1]",
        PAIRS + "[1" + "0" * 198 + "... (list, repr of 406 characters)",
    ),
    "string-entry": (AT + (1, 1), '"1.0"', f"{PROJECTOR}[1]", PAIRS + "'1.0'"),
    "string-in-pair": (AT + (1, 1), '["1.0", 0.0]', f"{PROJECTOR}[1]", PAIRS + "['1.0', 0.0]"),
    "null-entry": (AT + (2, 2), "null", f"{PROJECTOR}[2]", PAIRS + "None"),
    "pair-of-one": (AT + (0, 1), "[0.0]", f"{PROJECTOR}[0]", PAIRS + "[0.0]"),
    "pair-of-three": (AT + (0, 1), "[0.0, 0.0, 0.0]", f"{PROJECTOR}[0]", PAIRS + "[0.0, 0.0, 0.0]"),
    "empty-row": (AT + (1,), "[]", f"{PROJECTOR}[1]", NOT_PAIRS),
    "row-not-a-list": (AT + (1,), '{"re": 0.0}', f"{PROJECTOR}[1]", NOT_PAIRS),
    "empty-matrix": (AT, "[]", PROJECTOR, "expected a nonempty list of rows"),
    "short-row-before-bad-pair": (
        AT,
        '[[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]], [["x", 0], [0, 0], [0, 0]]]',
        PROJECTOR,
        "matrix rows have unequal lengths",
    ),
    "empty-state": (("preparation", "state"), "[]", "parameters.preparation.state", NOT_PAIRS),
}


@pytest.mark.parametrize("path, token, field, message", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
def test_boundary_parser_reports_the_first_bad_value(tmp_path, path, token, field, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(_shipped_with("abl", path, token))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(scenario)
    assert (excinfo.value.field, excinfo.value.message) == (field, message)
    assert str(excinfo.value) == f"{field}: {message}"


def _with_pairs(value, pair):
    """`value` with every [re, im] pair (a list of two floats) rebuilt by `pair`."""
    if isinstance(value, dict):
        return {key: _with_pairs(item, pair) for key, item in value.items()}
    if isinstance(value, list):
        if len(value) == 2 and all(isinstance(x, float) for x in value):
            return pair(*value)
        return [_with_pairs(item, pair) for item in value]
    return value


def _abl_arrays(scenario) -> list[bytes]:
    ctx = scenario.spec
    observables = (ctx.intermediate.observable, ctx.postselection.observable)
    projectors = [o.projector.tobytes() for obs in observables for o in obs.outcomes]
    return [ctx.preparation.state.amplitudes.tobytes(), *projectors]


@pytest.mark.parametrize(
    "pair",
    [lambda re, im: (re, im), lambda re, im: [np.float64(re), np.float64(im)], lambda re, im: (np.float64(re), im)],
    ids=["tuple", "float64", "float64-tuple"],
)
def test_scenario_accepts_tuple_and_float64_pairs_bit_for_bit(pair):
    payload = json.loads((SCENARIO_DIR / "three_box.json").read_text())
    expected = _abl_arrays(Scenario(name="a", kind="abl", parameters=payload["parameters"]))
    assert _abl_arrays(Scenario(name="a", kind="abl", parameters=_with_pairs(payload["parameters"], pair))) == expected


@pytest.mark.parametrize("entry", [np.int64(1), np.True_], ids=["int64", "numpy-bool"])
def test_scenario_rejects_numpy_int_and_bool_entries(entry):
    parameters = json.loads((SCENARIO_DIR / "three_box.json").read_text())["parameters"]
    parameters["intermediate"]["observable"]["outcomes"][0]["projector"][0][0] = [entry, 0.0]
    with pytest.raises(ScenarioError) as excinfo:
        Scenario(name="a", kind="abl", parameters=parameters)
    assert excinfo.value.field == f"{PROJECTOR}[0]"
    assert excinfo.value.message == PAIRS + repr([entry, 0.0])


def test_named_observables_are_built_once_and_shared(monkeypatch, tmp_path):
    x_reference, z_reference = pauli_x(), pauli_z()
    builds, init = [], ProjectiveDecomposition.__init__

    def counted(self, outcomes):
        init(self, outcomes)
        builds.append(self)

    monkeypatch.setattr(ProjectiveDecomposition, "__init__", counted)
    scenarios._named_observable.cache_clear()
    preset = write_scenario(tmp_path, {"preset": "two-slit"})
    loaded = [load_scenario(path) for path in (SCENARIO_DIR / "two_slit_gap.json", preset) * 2]

    def same(a, b) -> bool:
        pairs = zip(a.outcomes, b.outcomes)
        return a.labels == b.labels and all(np.array_equal(p.projector, q.projector) for p, q in pairs)

    assert [same(b, x_reference) for b in builds].count(True) == 1
    assert [same(b, z_reference) for b in builds].count(True) == 1
    x, z = (next(b for b in builds if same(b, reference)) for reference in (x_reference, z_reference))
    for scenario in loaded:
        assert scenario.spec.intermediate.observable is z
        assert scenario.spec.postselection.observable is x
    assert not any(o.projector.flags.writeable for obs in (x, z) for o in obs.outcomes)
    assert pauli_x() is not pauli_x()


PAULI = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def _spelled_out(name: str) -> dict:
    """A named observable written out: outcome "+1" (value 1) and "-1" (value -1) on (I +- sigma) / 2."""
    sigma = np.array(PAULI[name], dtype=complex)
    outcomes = []
    for label, sign in (("+1", 1.0), ("-1", -1.0)):
        projector = (np.eye(2) + sign * sigma) / 2
        pairs = [[[z.real, z.imag] for z in row] for row in projector]
        outcomes.append({"label": label, "value": sign, "projector": pairs})
    return {"outcomes": outcomes}


@pytest.mark.parametrize("kind", ["abl", "chain", "gap"])
@pytest.mark.parametrize("name", sorted(NAMED_OBSERVABLES))
def test_named_observable_reports_as_its_spelled_out_pauli_projectors(tmp_path, name, kind):
    post_name = {"X": "Y", "Y": "Z", "Z": "X"}[name]  # every name is read as intermediate and as post-selection

    def report(intermediate, postselection):
        preparation = {"state": [[0.6, 0.0], [0.0, 0.8]]}  # 0.6|0> + 0.8i|1> meets every eigenstate
        parameters = {
            "preparation": preparation,
            "intermediate": {"observable": intermediate},
            "postselection": {"observable": postselection, "label": "+1"},
        }
        if kind != "gap":
            preparation["time"], parameters["intermediate"]["time"], parameters["postselection"]["time"] = 0.0, 1.0, 2.0
        if kind == "chain":
            parameters.update(samples=4000, seed=3)
        payload = {"name": "pauli", "kind": kind, "parameters": parameters}
        return run_scenario(load_scenario(write_scenario(tmp_path, payload)))

    named, spelled = report(name, post_name), report(_spelled_out(name), _spelled_out(post_name))
    assert named.columns == spelled.columns and named.metadata == spelled.metadata
    assert [label for label, _ in named.rows] == [label for label, _ in spelled.rows]
    np.testing.assert_allclose(
        [values for _, values in named.rows], [values for _, values in spelled.rows], rtol=0, atol=1e-12
    )


def test_unknown_kind_rejected(tmp_path):
    path = write_scenario(tmp_path, {"name": "x", "kind": "banana", "parameters": {}})
    with pytest.raises(ScenarioError, match="unknown kind"):
        load_scenario(path)


# --- presets ---------------------------------------------------------------------


PRESET_FILES = {"three-box": "three_box.json", "two-slit": "two_slit_gap.json", "geiger": "geiger_counter.json"}
PACKAGE_PRESET_DIR = Path(scenarios.__file__).resolve().parent / "presets"


def test_preset_names_stable():
    assert preset_names() == ("geiger", "three-box", "two-slit")


def test_preset_names_lists_the_package_directory_once(monkeypatch):
    calls, listdir = [], os.listdir

    def listing(path):
        calls.append(path)
        return listdir(path)

    preset_names.cache_clear()
    monkeypatch.setattr(scenarios.os, "listdir", listing)
    try:
        names = [preset_names() for _ in range(3)]
        load_preset("geiger")
    finally:
        preset_names.cache_clear()
    assert names == [("geiger", "three-box", "two-slit")] * 3
    assert calls == [scenarios.PRESET_DIR]


def test_preset_names_are_the_package_files():
    stems = sorted(name[: -len(".json")] for name in os.listdir(PACKAGE_PRESET_DIR) if name.endswith(".json"))
    assert list(preset_names()) == stems


@pytest.mark.parametrize("name", sorted(PRESET_FILES))
def test_shipped_scenario_file_is_the_preset_file(name):
    # The scenario file and the package copy are one payload; `preset show` prints it back unchanged.
    shipped = (SCENARIO_DIR / PRESET_FILES[name]).read_bytes()
    assert (PACKAGE_PRESET_DIR / f"{name}.json").read_bytes() == shipped
    assert scenario_to_json(load_preset(name)) == shipped


def test_presets_self_validate(tmp_path):
    # Serializing a preset, loading it back, and serializing again is a fixed point.
    for name in preset_names():
        first = scenario_to_json(load_preset(name))
        path = tmp_path / f"{name}.json"
        path.write_bytes(first)
        second = scenario_to_json(load_scenario(str(path)))
        assert first == second


@pytest.mark.parametrize(
    "name",
    ["four-box", [], {}, 1, "../presets/three-box", "three-box.json", ""],
    ids=["unknown-name", "list", "object", "number", "relative-path", "file-name", "empty"],
)
def test_unknown_preset(monkeypatch, name):
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]} for an unknown preset")

    monkeypatch.setattr(scenarios, "open", no_open, raising=False)
    with pytest.raises(ScenarioError, match="unknown preset") as excinfo:
        load_preset(name)
    assert excinfo.value.field == "preset"


def test_cli_unhashable_preset_reference_is_a_parse_error(tmp_path, capsysbinary):
    assert main(["run", write_scenario(tmp_path, {"preset": []})]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["error"] == "parse-error"
    assert diagnostic["field"] == "preset"


# --- running -------------------------------------------------------------------


def test_three_box_report_values():
    report = run_scenario(load_preset("three-box"))
    assert report_value(report, "abl:box1") == 1.0
    assert report_value(report, "abl:elsewhere") == 0.0
    assert abs(report_value(report, "born:box1") - 1 / 3) < 1e-12
    assert dict(report.metadata)["reading"] == "subjective"


def test_two_slit_gap_report_values():
    report = run_scenario(load_preset("two-slit"))
    assert report_value(report, "quantum") == 1.0
    assert report_value(report, "classical_chain") == 0.5
    assert report_value(report, "gap") == 0.5


def test_gap_scenario_run_twice_builds_one_branch_table(monkeypatch):
    built = count_branch_builds(monkeypatch)
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["gap"])
    first, second = run_scenario(scenario), run_scenario(scenario)
    assert built == [scenario.spec]
    assert emit_report(first) == emit_report(second)


def test_chain_report_columns_and_overrides():
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    report = run_scenario(scenario, seed=5, samples=2000)
    assert report.columns == ("analytic", "frequency", "zscore")
    metadata = dict(report.metadata)
    assert metadata["seed"] == "5"
    assert metadata["samples"] == "2000"
    assert int(metadata["retained"]) > 0
    assert report_value(report, "box1", "analytic") == 1.0
    assert report_value(report, "box1", "frequency") == 1.0


def test_detector_report_counts():
    report = run_scenario(load_preset("geiger"), samples=50)
    assert report_value(report, "runs") == 50.0
    assert report_value(report, "clicked") + report_value(report, "censored") == 50.0


def test_reports_carry_version_and_tolerances():
    report = run_scenario(load_preset("two-slit"))
    metadata = dict(report.metadata)
    assert "tool_version" in metadata
    assert metadata["tolerance_construction"] == "1e-12"
    assert metadata["tolerance_algebra"] == "1e-10"


# --- emission ---------------------------------------------------------------------


def test_csv_shape_plain_kind():
    data = emit_report(run_scenario(load_preset("three-box")), "csv").decode()
    lines = data.split("\n")
    assert lines[0] == "label,value"
    assert lines[1] == "abl:box1,1.00000000000"
    assert data.endswith("\n") and "\r" not in data


def test_csv_shape_chain_kind():
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    data = emit_report(run_scenario(scenario, samples=1000), "csv").decode()
    assert data.split("\n")[0] == "label,analytic,frequency,zscore"


def test_emission_is_deterministic():
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    first = emit_report(run_scenario(scenario), "json")
    second = emit_report(run_scenario(scenario), "json")
    assert first == second
    assert emit_report(run_scenario(scenario), "csv") == emit_report(run_scenario(scenario), "csv")


def test_json_round_trip():
    for name in preset_names():
        report = run_scenario(load_preset(name))
        payload = json.loads(emit_report(report, "json"))
        assert (payload["scenario"], payload["kind"], payload["columns"]) == (report.scenario, report.kind, list(report.columns))
        assert payload["metadata"] == dict(report.metadata)
        assert payload["rows"] == [[label, *texts] for (label, _), texts in zip(report.rows, report.texts)]
        assert [[float(text) for text in row[1:]] for row in payload["rows"]] == [list(values) for _, values in report.rows]


def test_a_report_formats_its_values_at_construction_and_emits_without_formatting(monkeypatch):
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    report = run_scenario(scenario)
    expected = {fmt: emit_report(report, fmt) for fmt in ("csv", "json")}
    assert report.texts == tuple(tuple(format_number(v) for v in values) for _, values in report.rows)
    assert all(v == float(format_number(v)) for _, values in report.rows for v in values)

    def refuse(value):
        raise AssertionError("emit_report formatted a value")

    monkeypatch.setattr(scenarios, "format_number", refuse)
    assert {fmt: emit_report(report, fmt) for fmt in ("csv", "json")} == expected


def test_metadata_tolerances_are_written_from_their_constants(monkeypatch):
    metadata = {kind: dict(run_scenario(load_scenario(SCENARIO_DIR / EXAMPLE_FILES[kind])).metadata)
                for kind in ("abl", "chain", "pointer")}
    for values in metadata.values():
        texts = (values["tolerance_construction"], values["tolerance_algebra"])
        assert texts == ("1e-12", "1e-10") and tuple(map(float, texts)) == (CONSTRUCTION_TOL, ALGEBRA_TOL)
    for kind in ("abl", "chain"):
        assert metadata[kind]["tolerance_denominator"] == "1e-15"
        assert float(metadata[kind]["tolerance_denominator"]) == DENOMINATOR_FLOOR
    assert metadata["pointer"]["tolerance_coefficient_degeneracy"] == "1e-9"  # not Python's 1e-09
    assert float(metadata["pointer"]["tolerance_coefficient_degeneracy"]) == COEFFICIENT_DEGENERACY_TOL
    monkeypatch.setattr(scenarios, "DENOMINATOR_FLOOR", 2e-15)
    monkeypatch.setattr(scenarios, "COEFFICIENT_DEGENERACY_TOL", 5e-9)
    patched = (("abl", "tolerance_denominator", "2e-15"), ("pointer", "tolerance_coefficient_degeneracy", "5e-9"))
    for kind, key, text in patched:
        assert dict(run_scenario(load_scenario(SCENARIO_DIR / EXAMPLE_FILES[kind])).metadata)[key] == text


def test_unknown_format_rejected():
    with pytest.raises(ScenarioError, match="format"):
        emit_report(run_scenario(load_preset("two-slit")), "xml")


# --- CLI -----------------------------------------------------------------------


def test_cli_run_writes_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    source = str(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    assert main(["run", source, "--seed", "12", "--out", str(out1)]) == 0
    assert main(["run", source, "--seed", "12", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_stdout(capsysbinary):
    assert main(["run", str(SCENARIO_DIR / EXAMPLE_FILES["gap"]), "--format", "json"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["kind"] == "gap"
    assert payload["rows"][0] == ["quantum", "1.00000000000"]


@pytest.mark.parametrize("target", ["missing/dir/x.csv", "."])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsysbinary, target):
    out = tmp_path / target  # a directory that does not exist, or one that is a directory
    assert main(["run", str(SCENARIO_DIR / EXAMPLE_FILES["abl"]), "--out", str(out)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    lines = captured.err.decode().splitlines()
    assert len(lines) == 1
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "output-error"
    assert diagnostic["exit_code"] == 2
    assert diagnostic["field"] == "out"
    assert diagnostic["message"].startswith("out: [Errno ")
    assert str(out) in diagnostic["message"]


def test_cli_parse_error_exit_code(tmp_path, capsysbinary):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    diagnostic = json.loads(capsysbinary.readouterr().err)
    assert diagnostic["error"] == "parse-error"
    assert diagnostic["exit_code"] == 2
    assert "field" not in diagnostic


def test_cli_invariant_violation_exit_code(tmp_path, capsysbinary):
    preset = load_preset("three-box")
    params = json.loads(json.dumps(preset.parameters))
    params["preparation"]["state"][0] = [2.0, 0.0]
    path = write_scenario(tmp_path, {"name": "bad", "kind": "abl", "parameters": params})
    assert main(["run", path]) == 3
    diagnostic = json.loads(capsysbinary.readouterr().err)
    assert diagnostic["error"] == "invariant-violation"


def _unreachable_postselection(tmp_path) -> str:
    params = {
        "preparation": {"state": [[1.0, 0.0], [0.0, 0.0]], "time": 0.0},
        "intermediate": {"observable": "Z", "time": 1.0},
        "postselection": {"observable": "Z", "label": "-1", "time": 2.0},
    }
    return write_scenario(tmp_path, {"name": "dead-end", "kind": "abl", "parameters": params})


def test_cli_impossible_postselection_exit_code(tmp_path, capsysbinary):
    assert main(["run", _unreachable_postselection(tmp_path)]) == 4
    diagnostic = json.loads(capsysbinary.readouterr().err)
    assert diagnostic["error"] == "impossible-postselection"
    assert diagnostic["exit_code"] == 4


def test_cli_preset_list_and_show(capsysbinary):
    assert main(["preset", "list"]) == 0
    names = capsysbinary.readouterr().out.decode().split()
    assert names == list(preset_names())
    assert main(["preset", "show", "three-box"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["kind"] == "abl"
    assert main(["preset", "show", "missing"]) == 2


def test_cli_chain_no_data_exit_code(tmp_path, capsysbinary):
    params = {
        "preparation": {"state": [[1.0, 0.0], [0.0, 0.0]], "time": 0.0},
        "intermediate": {"observable": "Z", "time": 1.0},
        "postselection": {"observable": "Z", "label": "-1", "time": 2.0},
        "samples": 500,
        "seed": 2,
    }
    path = write_scenario(tmp_path, {"name": "dead-end", "kind": "chain", "parameters": params})
    assert main(["run", path]) == 4


def _shipped_with(name: str, path: tuple, value: str) -> str:
    """A shipped scenario's JSON text with one entry replaced by a raw JSON token."""
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES[name]).read_text())
    target = payload["parameters"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "__TOKEN__"
    return json.dumps(payload).replace('"__TOKEN__"', value)


@pytest.mark.parametrize(
    "name, path, token, field",
    [
        ("spreading", ("times", 0), "NaN", "parameters.times[0]"),
        ("spreading", ("sigma0",), "Infinity", "parameters.sigma0"),
        ("detector", ("rate",), "NaN", "parameters.rate"),
        ("detector", ("horizon",), "-Infinity", "parameters.horizon"),
        ("abl", ("preparation", "state", 0), "[NaN, 0.0]", "parameters.preparation.state"),
        ("abl", ("preparation", "time"), "1e999", "parameters.preparation.time"),
        ("abl", ("intermediate", "time"), "1" + "0" * 400, "parameters.intermediate.time"),
    ],
    ids=["times-nan", "sigma0-inf", "rate-nan", "horizon-neg-inf", "state-nan", "time-1e999", "time-huge-int"],
)
def test_cli_non_finite_number_is_a_parse_error(tmp_path, capsysbinary, name, path, token, field):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(_shipped_with(name, path, token))
    assert main(["run", str(scenario)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    lines = captured.err.decode().splitlines()
    assert len(lines) == 1
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "parse-error"
    assert diagnostic["exit_code"] == 2
    assert diagnostic["message"].startswith(f"{field}: ")
    assert diagnostic["field"] == field
    assert "finite" in diagnostic["message"]


def _single_error_line(captured, code: int) -> dict:
    """The one JSON diagnostic a failed run prints, with nothing on stdout."""
    assert captured.out == b""
    lines = captured.err.decode().splitlines()
    assert len(lines) == 1
    diagnostic = json.loads(lines[0])
    assert diagnostic["exit_code"] == code
    return diagnostic


@pytest.mark.parametrize(
    "changes, message, field",
    [
        ({"mass": 1e-320}, "2 * mass * sigma0^2", "parameters"),
        ({"mass": 1e-10, "times": [1e300]}, "overflows", "parameters.times[0]"),
        (
            {"mass": 1e-10, "times": [1.0, 1e300]},
            "parameters.times[1]: packet width at time 1e+300 overflows",
            "parameters.times[1]",
        ),
    ],
    ids=["timescale-underflow", "width-overflow", "width-overflow-names-the-time"],
)
def test_cli_spreading_non_finite_width_is_an_invariant_violation(tmp_path, capsysbinary, changes, message, field):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["spreading"]).read_text())
    payload["parameters"].update(changes)
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert diagnostic["error"] == "invariant-violation"
    assert message in diagnostic["message"]
    assert diagnostic["field"] == field


@pytest.mark.parametrize("name", ["chain", "detector"])
def test_cli_negative_seed_is_a_parse_error(tmp_path, capsysbinary, name):
    source = str(SCENARIO_DIR / EXAMPLE_FILES[name])
    assert main(["run", source, "--seed", "-1"]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["message"].startswith("seed: ")
    assert diagnostic["field"] == "seed"
    payload = json.loads(Path(source).read_text())
    payload["parameters"]["seed"] = -1
    assert main(["run", write_scenario(tmp_path, payload)]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["message"].startswith("parameters.seed: ")
    assert diagnostic["field"] == "parameters.seed"


def test_cli_chain_samples_past_the_cap_are_an_invariant_violation(tmp_path, capsysbinary):
    # Rejected before any draw is allocated; only cap + 1 is tried, which fits in memory regardless.
    source = SCENARIO_DIR / EXAMPLE_FILES["chain"]
    assert main(["run", str(source), "--samples", str(MAX_CHAIN_SAMPLES + 1)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert "samples must lie in" in diagnostic["message"]
    assert diagnostic["field"] == "samples"
    payload = json.loads(source.read_text())
    payload["parameters"]["samples"] = MAX_CHAIN_SAMPLES + 1
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert "samples must lie in" in diagnostic["message"]
    assert diagnostic["field"] == "parameters.samples"


@pytest.mark.parametrize("source", ["file", "flag"])
def test_cli_detector_runs_past_the_cap_are_an_invariant_violation(tmp_path, capsysbinary, source):
    # Rejected before the first run; at about 16 us a run, the cap alone would take 16 s.
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["detector"]).read_text())
    args = ["run", write_scenario(tmp_path, payload), "--samples", str(MAX_DETECTOR_RUNS + 1)]
    if source == "file":
        payload["parameters"]["runs"] = MAX_DETECTOR_RUNS + 1
        args = ["run", write_scenario(tmp_path, payload)]
    assert main(args) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert "runs must lie in" in diagnostic["message"]
    assert diagnostic["field"] == ("parameters.runs" if source == "file" else "samples")


@pytest.mark.parametrize(
    "name, path, field",
    [
        ("abl", ("preparation", "state", 0), "parameters.preparation.state"),
        ("abl", ("intermediate", "observable", "outcomes", 0, "projector", 0, 1), "parameters.intermediate.observable"),
        ("pointer", ("rebases", 0, "basis", 0, 1), "parameters.rebases[0].basis"),
        ("pointer", ("coefficients", 0), "parameters"),
    ],
    ids=["state", "projector", "rebase-basis", "coefficients"],
)
def test_cli_huge_entry_is_one_invariant_violation_line(tmp_path, capsysbinary, name, path, field):
    # Under the suite's filterwarnings an overflow warning raises instead of returning 3.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(_shipped_with(name, path, "[1e300, 0.0]"))
    assert main(["run", str(scenario)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert diagnostic["error"] == "invariant-violation"
    assert diagnostic["field"] == field
    assert "entry of magnitude 1.000e+300" in diagnostic["message"]


def _diagonal_projector_json(diagonal) -> list:
    return np.stack([np.diag(diagonal), np.zeros((len(diagonal),) * 2)], axis=-1).tolist()


def test_cli_huge_diagonal_past_the_certify_gate_is_one_invariant_violation_line(tmp_path, capsysbinary):
    # 12 outcomes make 66 pairs, past CERTIFY_PAIRS; two 1e308 diagonal entries overflow the trace.
    def observable(huge=None):
        return {"outcomes": [
            {
                "label": f"c{n}",
                "value": float(n),
                "projector": _diagonal_projector_json([1e308, 1e308] + [0.0] * 10 if n == huge else np.eye(12)[n]),
            }
            for n in range(12)
        ]}

    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["abl"]).read_text())
    parameters = payload["parameters"]
    parameters["preparation"]["state"] = np.stack([np.eye(12)[0], np.zeros(12)], axis=-1).tolist()
    parameters["intermediate"]["observable"] = observable(huge=3)
    parameters["postselection"].update(observable=observable(), label="c0")
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert diagnostic["field"] == "parameters.intermediate.observable"
    assert "projector for 'c3' has an entry of magnitude 1.000e+308" in diagnostic["message"]


@pytest.mark.parametrize("entry", [1e300, 1e200, 1.01 * MAX_PHASE / 6, 0.99 * MAX_PHASE / 6])
def test_cli_hamiltonian_past_the_phase_range_is_one_invariant_violation_line(tmp_path, capsysbinary, entry):
    # dim 3 x time span 2 = 6: the (0, 0) entry sets dim x max|H_ij| x (t2 - t1).
    payload = json.loads((SCENARIO_DIR.parent / "tests" / "golden" / "inputs" / "hamiltonian_abl.json").read_text())
    payload["parameters"]["hamiltonian"][0][0] = [entry, 0.0]
    code = main(["run", write_scenario(tmp_path, payload)])
    captured = capsysbinary.readouterr()
    if entry * 6 <= MAX_PHASE:
        assert code == 0 and captured.err == b""
        return
    assert code == 3
    diagnostic = _single_error_line(captured, 3)
    assert diagnostic["error"] == "invariant-violation"
    assert diagnostic["field"] == "parameters.hamiltonian"
    assert f"past {MAX_PHASE:g}" in diagnostic["message"]


def test_cli_hamiltonian_whose_hermiticity_defect_overflows_is_one_invariant_violation_line(tmp_path, capsysbinary):
    payload = json.loads((SCENARIO_DIR.parent / "tests" / "golden" / "inputs" / "hamiltonian_chain.json").read_text())
    payload["parameters"]["hamiltonian"][2][2] = [0.1, -1e308]  # H - H^dag has 2e308 there: past the double range
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert diagnostic["error"] == "invariant-violation"
    assert diagnostic["field"] == "parameters.hamiltonian"
    assert "max asymmetry inf" in diagnostic["message"]


def test_cli_detector_tick_count_past_double_precision_is_an_invariant_violation(tmp_path, capsysbinary):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["detector"]).read_text())
    payload["parameters"]["tick"] = 1e-320  # horizon / tick overflows to inf
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    assert "2^53" in _single_error_line(capsysbinary.readouterr(), 3)["message"]


def _one_outcome(label: str, diagonal) -> dict:
    """An explicit observable of one outcome, whose projector is diag(diagonal)."""
    return {"outcomes": [{"label": label, "value": 1.0, "projector": _diagonal_projector_json(diagonal)}]}


# Each check on a detector law, a spreading time, a Hamiltonian's dimension, a count's cap, an outcome, a
# post-selection or a context: (kind, parameter changes, the field it names, a piece of its message). All fire
# while the file is loaded.
SPEC_CHECKS = {
    "chain-samples-past-the-cap": (
        "chain", {"samples": MAX_CHAIN_SAMPLES + 1}, "parameters.samples",
        f"samples must lie in [1, {MAX_CHAIN_SAMPLES}], got {MAX_CHAIN_SAMPLES + 1}",
    ),
    "detector-runs-past-the-cap": (
        "detector", {"runs": MAX_DETECTOR_RUNS + 1}, "parameters.runs",
        f"runs must lie in [1, {MAX_DETECTOR_RUNS}], got {MAX_DETECTOR_RUNS + 1}",
    ),
    "detector-rate": ("detector", {"rate": -1}, "parameters.rate", "must be nonnegative, got -1.0"),
    "detector-tick": ("detector", {"tick": 0}, "parameters.tick", "must be positive"),
    "detector-horizon-before-tick": ("detector", {"horizon": 0.001}, "parameters.horizon", "must reach the first tick"),
    "detector-horizon-past-2^53": ("detector", {"horizon": 0.01 * 2.0**53}, "parameters.horizon", "passes 2^53"),
    "spreading-negative-time": ("spreading", {"times": [1, -1]}, "parameters.times[1]", "must be nonnegative"),
    "spreading-width-overflow": (
        "spreading", {"mass": 1e-10, "times": [1, 1e300]}, "parameters.times[1]", "overflows a double"
    ),
    "abl-hamiltonian-dimension": (
        "abl", {"hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, "parameters.hamiltonian",
        "dimension 2 does not match the state (3)",
    ),
    "gap-outcome-empty-label": (
        "gap", {"intermediate": {"observable": _one_outcome("", [1.0])}},
        "parameters.intermediate.observable.outcomes[0]", "outcome label must be a nonempty string",
    ),
    "gap-postselection-observable": (
        "gap", {"postselection": {"label": "a", "observable": _one_outcome("a", [1.0, 0.0])}},
        "parameters.postselection.observable", "projectors do not sum to the identity",
    ),
    "gap-postselection-label": (
        "gap", {"postselection": {"label": "b", "observable": "X"}}, "parameters.postselection.label",
        "unknown outcome label 'b'",
    ),
    "gap-context-dimension": (
        "gap", {"intermediate": {"observable": _one_outcome("a", [1.0])}}, "parameters",
        "intermediate observable dimension differs from the preparation",
    ),
}


@pytest.mark.parametrize("kind, changes, field, message", SPEC_CHECKS.values(), ids=SPEC_CHECKS)
def test_spec_check_fires_at_load_under_its_field(tmp_path, capsysbinary, kind, changes, field, message):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES[kind]).read_text())
    payload["parameters"].update(changes)
    path = write_scenario(tmp_path, payload)
    with pytest.raises(InvariantViolation, match=re.escape(message)) as excinfo:
        load_scenario(path)
    assert excinfo.value.field == field
    assert main(["run", path]) == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert (diagnostic["field"], diagnostic["message"]) == (field, str(excinfo.value))


# --- one build per scenario -------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(EXAMPLE_FILES))
def test_loading_and_running_builds_the_spec_once(monkeypatch, kind):
    build, run = scenarios.KINDS[kind]
    calls = []

    def counting_build(params):
        calls.append(params)
        return build(params)

    monkeypatch.setitem(scenarios.KINDS, kind, (counting_build, run))
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES[kind])
    first = emit_report(run_scenario(scenario), "json")
    assert emit_report(run_scenario(scenario), "json") == first
    assert len(calls) == 1


def _reference_detector_rows(rate, tick, horizon, seed, runs) -> dict:
    """The detector report counted from checked fact sequences, run i's click at draw i of one stream;
    run 0's sequence is detector_click_simulation's for the seed."""
    count, p = detector_law(rate, tick, horizon)
    nonclick_facts = 0
    click_times = []
    for i, first in enumerate(one_stream_first_clicks(count, p, seed, runs)):
        if first:
            ticks = tuple((k * tick, "nonclick") for k in range(1, first)) + ((first * tick, "click"),)
            sequence = FactSequence(ticks, first * tick)
        else:
            sequence = FactSequence(tuple((k * tick, "nonclick") for k in range(1, count + 1)), None)
        if i == 0:
            assert sequence == detector_click_simulation(rate, tick, horizon, seed)
        nonclick_facts += len(sequence.ticks) - (sequence.click_time is not None)
        if sequence.click_time is not None:
            click_times.append(sequence.click_time)
    rows = {
        "runs": runs,
        "clicked": len(click_times),
        "censored": runs - len(click_times),
        "nonclick_facts": nonclick_facts,
    }
    if click_times:
        rows["mean_click_time"] = math.fsum(click_times) / len(click_times)
    return rows


@pytest.mark.parametrize(
    "rate, tick, horizon",
    [(0.0, 0.1, 2.0), (1.0, 0.1, 0.1), (2.5, 0.05, 3.0), (50.0, 0.01, 1.0), (0.3, 0.2, 1.0)],
    ids=["never-clicks", "horizon-is-tick", "typical", "clicks-early", "mostly-censored"],
)
@pytest.mark.parametrize("seed", [0, 7, 12345, 2**32 - 20, 2**64 - 20, 2**130 + 1])
def test_detector_counts_match_fact_sequences(rate, tick, horizon, seed):
    parameters = {"rate": rate, "tick": tick, "horizon": horizon, "seed": seed, "runs": 40}
    report = run_scenario(Scenario(name="counter", kind="detector", parameters=parameters))
    expected = _reference_detector_rows(rate, tick, horizon, seed, 40)
    assert [label for label, _ in report.rows] == list(expected)
    for label, value in expected.items():
        if label == "mean_click_time":  # summed in another order: equal to within a few ulps before rounding
            assert report_value(report, label) == pytest.approx(value, rel=1e-11)
        else:
            assert report_value(report, label) == float(format_number(value))
    assert dict(report.metadata)["sampler"] == "geometric-stream"


def _one_stream_tallies(rate, tick, horizon, seed, runs) -> dict:
    """The detector's raw tallies, counted from one default_rng(seed).geometric(p, runs) call."""
    count, p = detector_law(rate, tick, horizon)
    hits = [first for first in one_stream_first_clicks(count, p, seed, runs) if first]
    clicked = len(hits)
    nonclick_facts = sum(first - 1 for first in hits) + (runs - clicked) * count
    tallies = {"runs": runs, "clicked": clicked, "censored": runs - clicked, "nonclick_facts": nonclick_facts}
    if clicked:
        tallies["mean_click_time"] = tick * (sum(hits) / clicked)
    return tallies


@pytest.mark.parametrize(
    "rate, seed, runs",
    [(1.0, 7, _RUN_BLOCK + 1), (2.5, 2**32 - 50, 300), (0.3, 2**64 - 20, 100), (0.0, 11, 40)],
    ids=["two-blocks", "seed-near-2^32", "seed-near-2^64", "rate-0"],
)
def test_detector_tallies_equal_one_stream_drawn_at_once(monkeypatch, rate, seed, runs):
    made, make_report = [], scenarios.make_report

    def keeping(scenario, columns, rows, metadata):
        made.append(rows)
        return make_report(scenario, columns, rows, metadata)

    monkeypatch.setattr(scenarios, "make_report", keeping)
    parameters = {"rate": rate, "tick": 0.01, "horizon": 2.0, "seed": seed, "runs": runs}
    run_scenario(Scenario(name="counter", kind="detector", parameters=parameters))
    tallies = {label: value for label, (value,) in made[0]}  # before rounding
    expected = _one_stream_tallies(rate, 0.01, 2.0, seed, runs)
    assert {label: float(value).hex() for label, value in tallies.items()} == {
        label: float(value).hex() for label, value in expected.items()
    }


@pytest.mark.parametrize("rate", [0.3, 2.5, 50.0])
@pytest.mark.parametrize("tick", [0.01, 0.2])
@pytest.mark.parametrize("horizon", [0.5, 3.0])
def test_detector_report_follows_its_law(rate, tick, horizon):
    """clicked within 5 sigma of its binomial, and the mean click time within 5 standard errors of
    the geometric law truncated at the horizon's tick count."""
    runs = 20_000
    parameters = {"rate": rate, "tick": tick, "horizon": horizon, "seed": 2024, "runs": runs}
    report = run_scenario(Scenario(name="counter", kind="detector", parameters=parameters))
    count, p = detector_law(rate, tick, horizon)
    k = np.arange(1, count + 1)
    mass = p * (1.0 - p) ** (k - 1)  # P(first click at tick k)
    q = float(mass.sum())
    clicked = report_value(report, "clicked")
    assert abs(clicked - runs * q) <= 5.0 * math.sqrt(runs * q * (1.0 - q)) + 0.5
    mean = float((k * mass).sum()) / q
    spread = math.sqrt(float((k * k * mass).sum()) / q - mean * mean)
    assert abs(report_value(report, "mean_click_time") / tick - mean) <= 5.0 * spread / math.sqrt(clicked) + 1e-9
    assert report_value(report, "nonclick_facts") == pytest.approx(
        clicked * (report_value(report, "mean_click_time") / tick - 1.0) + (runs - clicked) * count, rel=1e-10
    )


def test_detector_report_of_huge_finite_times_is_finite(capsysbinary, tmp_path):
    payload = {
        "kind": "detector",
        "name": "big",
        "parameters": {"horizon": 1.7e308, "rate": 1e-305, "runs": 10000, "seed": 7, "tick": 1e305},
    }
    assert main(["run", write_scenario(tmp_path, payload), "--format", "json"]) == 0
    rows = dict(json.loads(capsysbinary.readouterr().out)["rows"])
    assert all(math.isfinite(float(value)) for value in rows.values())
    assert float(rows["clicked"]) > 0 and float(rows["mean_click_time"]) <= 1.7e308


def test_detector_checks_its_law_once_per_scenario(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return detector_law(*args)

    monkeypatch.setattr(scenarios, "detector_law", counting)
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["detector"])
    assert report_value(run_scenario(scenario), "runs") == 1000.0
    assert report_value(run_scenario(scenario, seed=3, samples=20), "runs") == 20.0
    assert calls == [(1.0, 0.01, 10.0)]


def test_spreading_computes_each_width_once_per_scenario(monkeypatch):
    calls = []

    def counting(model, t):
        calls.append(t)
        return spreading_sigma(model, t)

    monkeypatch.setattr(scenarios, "spreading_sigma", counting)
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["spreading"])
    first = emit_report(run_scenario(scenario), "json")
    assert emit_report(run_scenario(scenario, seed=3, samples=20), "json") == first
    assert calls == scenario.parameters["times"]


def test_detector_runs_in_flat_memory():
    parameters = {"rate": 1.0, "tick": 0.01, "horizon": 10.0, "seed": 3, "runs": 10**5}
    scenario = Scenario(name="many", kind="detector", parameters=parameters)
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_value(report, "runs") == 1e5
    assert peak < 1_000_000  # the 10^5 draws alone, held at once, take several MB


def test_detector_counts_a_long_record_without_building_it():
    parameters = {"rate": 0.0, "tick": 1e-12, "horizon": 1.0}
    start = time.perf_counter()
    report = run_scenario(Scenario(name="long", kind="detector", parameters=parameters))
    assert time.perf_counter() - start < 1.0
    count, p = detector_law(0.0, 1e-12, 1.0)
    assert p == 0.0 and abs(count - 10**12) <= 1
    assert report_value(report, "clicked") == 0.0
    assert report_value(report, "nonclick_facts") == float(count)


def test_cli_import_leaves_numpy_random_unimported():
    # numpy.random costs about 20 ms of import; the detector reaches it on its first draw.
    source = str(Path(qcontexts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qcontexts.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


@pytest.mark.parametrize(
    "args", [["run", str(SCENARIO_DIR / "three_box.json")], ["preset", "list"], ["preset", "show", "geiger"]],
    ids=["run", "preset-list", "preset-show"],
)
def test_cli_into_a_closed_pipe_is_one_output_error_line(args):
    source = str(Path(qcontexts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        command = [sys.executable, "-m", "qcontexts.cli", *args]
        result = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {"error": "output-error", "exit_code": 2, "message": "[Errno 32] Broken pipe"}


THREE_BOX = str(SCENARIO_DIR / "three_box.json")
MALFORMED_COMMAND_LINES = {
    "seed-not-an-integer": (["run", THREE_BOX, "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    "samples-not-an-integer": (["run", THREE_BOX, "--samples", "1.5"], "argument --samples: invalid int value: '1.5'"),
    "unknown-format": (["run", THREE_BOX, "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    "no-file": (["run"], "the following arguments are required: file"),
    "unknown-command": (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    "no-preset-action": (["preset"], "the following arguments are required: action"),
    "no-preset-name": (["preset", "show"], "the following arguments are required: name"),
    "unknown-option": (["preset", "list", "--verbose"], "unrecognized arguments: --verbose"),
}


@pytest.mark.parametrize("args, message", MALFORMED_COMMAND_LINES.values(), ids=MALFORMED_COMMAND_LINES)
def test_malformed_command_line_is_one_parse_error_line(capsysbinary, args, message):
    assert main(args) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["error"] == "parse-error" and "field" not in diagnostic
    assert diagnostic["message"].startswith(message)


def test_malformed_command_line_from_the_console_is_one_json_line():
    source = str(Path(qcontexts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    command = [sys.executable, "-m", "qcontexts.cli", "run", THREE_BOX, "--seed", "abc"]
    result = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert (result.returncode, result.stdout) == (2, b"")
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "parse-error", "exit_code": 2, "message": "argument --seed: invalid int value: 'abc'"
    }


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["preset", "show", "--help"]])
def test_help_still_prints_usage_and_exits_zero(capsys, args):
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qcontexts") and captured.err == ""


# --- the process entry -------------------------------------------------------------------


def _broken_projector(tmp_path) -> str:
    payload = json.loads((SCENARIO_DIR / "three_box.json").read_text())
    payload["parameters"]["intermediate"]["observable"]["outcomes"][0]["projector"][0][0] = [0.9, 0.0]
    return write_scenario(tmp_path, payload)


ENTRY_RUNS = {
    "ok": (lambda tmp_path: ["run", THREE_BOX], 0),
    "seed-abc": (lambda tmp_path: ["run", THREE_BOX, "--seed", "abc"], 2),
    "broken-projector": (lambda tmp_path: ["run", _broken_projector(tmp_path)], 3),
    "unreachable-postselection": (lambda tmp_path: ["run", _unreachable_postselection(tmp_path)], 4),
}


@pytest.mark.parametrize("argv, code", ENTRY_RUNS.values(), ids=ENTRY_RUNS)
def test_main_in_process_never_freezes_the_collector(monkeypatch, capsysbinary, tmp_path, argv, code):
    freezes = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: freezes.append("freeze"))
    assert main(argv(tmp_path)) == code
    assert freezes == []


@pytest.mark.parametrize("argv, code", ENTRY_RUNS.values(), ids=ENTRY_RUNS)
def test_console_freezes_once_after_main_and_exits_with_its_code(monkeypatch, capsysbinary, tmp_path, argv, code):
    events = []

    def recorded_main():
        events.append("main")
        result = main()
        events.append("main returned")
        return result

    monkeypatch.setattr(sys, "argv", ["qcontexts", *argv(tmp_path)])
    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.console()
    assert exited.value.code == code
    assert events == ["main", "main returned", "freeze"]
    captured = capsysbinary.readouterr()
    if code:
        assert _single_error_line(captured, code)["exit_code"] == code
    else:
        assert captured.out == (SCENARIO_DIR.parent / "tests" / "golden" / "three_box.csv").read_bytes()


def test_module_entry_prints_the_golden_bytes():
    source = str(Path(qcontexts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    command = [sys.executable, "-m", "qcontexts.cli", "run", THREE_BOX]
    result = subprocess.run(command, env=env, capture_output=True, timeout=120)
    golden = SCENARIO_DIR.parent / "tests" / "golden" / "three_box.csv"
    assert (result.returncode, result.stdout, result.stderr) == (0, golden.read_bytes(), b"")


def test_console_script_names_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SCENARIO_DIR.parent / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["qcontexts"]
    assert script == "qcontexts.cli:console"
    module, _, name = script.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.console


# --- scenario-boundary refusals ------------------------------------------------------


def _edited_example(kind: str, edit):
    """argv for the kind's example file with edit applied to its parameters, written to tmp_path."""

    def argv(tmp_path):
        payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES[kind]).read_text())
        edit(payload["parameters"])
        return ["run", write_scenario(tmp_path, payload)]

    return argv


def _text_file(text: str):
    def argv(tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        return ["run", str(path)]

    return argv


def _first_outcome(parameters) -> dict:
    return parameters["intermediate"]["observable"]["outcomes"][0]


OBSERVABLE = "parameters.intermediate.observable"
COMMA_LABEL = _edited_example("abl", lambda p: _first_outcome(p).update(label="a,b"))
CARRIAGE_RETURN_LABEL = _edited_example("abl", lambda p: _first_outcome(p).update(label="a\rb"))
BOUNDARY_REFUSALS = {
    "projector-rows-unequal": (
        _edited_example("abl", lambda p: _first_outcome(p)["projector"][1].pop()), f"{OBSERVABLE}.outcomes[0].projector"
    ),
    "projector-empty": (
        _edited_example("abl", lambda p: _first_outcome(p).update(projector=[])), f"{OBSERVABLE}.outcomes[0].projector"
    ),
    "named-observable-unknown": (
        _edited_example("abl", lambda p: p["intermediate"].update(observable="W")), OBSERVABLE
    ),
    "outcomes-empty": (
        _edited_example("abl", lambda p: p["intermediate"]["observable"].update(outcomes=[])), f"{OBSERVABLE}.outcomes"
    ),
    "performed-not-a-boolean": (
        _edited_example("abl", lambda p: p["intermediate"].update(performed="yes")), "parameters.intermediate.performed"
    ),
    "rebases-not-a-list": (_edited_example("pointer", lambda p: p.update(rebases={})), "parameters.rebases"),
    "rebase-name-empty": (
        _edited_example("pointer", lambda p: p["rebases"][0].update(name="")), "parameters.rebases[0].name"
    ),
    "top-level-list": (_text_file("[]"), None),
    "preset-reference-with-another-field": (_text_file('{"preset": "geiger", "x": 1}'), "preset"),
    "missing-file": (lambda tmp_path: ["run", str(tmp_path / "absent.json")], None),
    "directory": (lambda tmp_path: ["run", str(tmp_path)], None),
    "comma-label-in-csv": (COMMA_LABEL, None),
    "carriage-return-label-in-csv": (CARRIAGE_RETURN_LABEL, None),
}


@pytest.mark.parametrize("argv, field", BOUNDARY_REFUSALS.values(), ids=BOUNDARY_REFUSALS)
def test_scenario_boundary_refusal_is_one_parse_error_line(tmp_path, capsysbinary, argv, field):
    assert main(argv(tmp_path)) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["error"] == "parse-error"
    assert diagnostic.get("field") == field and ("field" in diagnostic) == (field is not None)


def test_comma_label_refused_in_csv_renders_in_json(tmp_path, capsysbinary):
    for argv, label in ((COMMA_LABEL, "abl:a,b"), (CARRIAGE_RETURN_LABEL, "abl:a\rb")):
        assert main([*argv(tmp_path), "--format", "json"]) == 0
        assert json.loads(capsysbinary.readouterr().out)["rows"][0][0] == label


# --- fuzzing the parse boundary ----------------------------------------------------

SHIPPED_PAYLOADS = [json.loads((SCENARIO_DIR / name).read_text()) for name in sorted(EXAMPLE_FILES.values())]
WRONG_TYPE_TOKENS = ('"x"', "[]", "null", "true", "false")
NUMBER_TOKENS = ("NaN", "Infinity", "-Infinity", "1e300")


def _entries(node, path=()):
    """(path, value) for every entry below node, in document order."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each count field, set one past its cap (horizon / tick is a tick count).
PAST_CAP = {
    "samples": lambda parameters: MAX_CHAIN_SAMPLES + 1,
    "runs": lambda parameters: MAX_DETECTOR_RUNS + 1,
    "horizon": lambda parameters: parameters["tick"] * 2.0**53,
}
COUNTED_PAYLOADS = [payload for payload in SHIPPED_PAYLOADS if PAST_CAP.keys() & payload["parameters"].keys()]


def _is_vector(value) -> bool:
    """A nonempty list of [re, im] pairs: a state, a coefficient list or a matrix row."""
    return isinstance(value, list) and bool(value) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair)) for pair in value
    )


def _is_matrix(value) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_vector, value))


# Below and past the recursion limit: 1000 by default, which hypothesis raises by about 2000 while
# a test runs. A fixed range, since a limit read at draw time varies with the stack depth.
NEST_DEPTHS = st.integers(1, 900) | st.integers(10_000, 100_000)
SIZED_PAYLOADS = [payload for payload in SHIPPED_PAYLOADS if any(_is_vector(value) for _, value in _entries(payload))]


@st.composite
def mutated_scenario_text(draw) -> str:
    """A shipped payload with one field dropped, one value of the wrong type, one number made
    non-finite or huge (1e300 is not an integer, so no count), or one count set past its cap; or
    one structural mutation: a value nested in lists (NEST_DEPTHS), an object swapped for a list
    of its values or a list for an object keyed "0", "1", ..., a vector of twice its length, or a
    matrix with its last row repeated."""
    mode = draw(st.sampled_from(("drop", "wrong-type", "number", "count", "nest", "swap", "oversize")))
    if mode == "count":
        payload = copy.deepcopy(draw(st.sampled_from(COUNTED_PAYLOADS)))
        parameters = payload["parameters"]
        name = draw(st.sampled_from(sorted(PAST_CAP.keys() & parameters.keys())))
        parameters[name] = PAST_CAP[name](parameters)
        return json.dumps(payload)
    payload = copy.deepcopy(draw(st.sampled_from(SIZED_PAYLOADS if mode == "oversize" else SHIPPED_PAYLOADS)))
    entries = list(_entries(payload))
    if mode == "drop":
        paths = [path for path, _ in entries if isinstance(path[-1], str)]
    elif mode == "number":
        paths = [path for path, value in entries if _is_number(value)]
    elif mode == "swap":
        paths = [path for path, value in entries if isinstance(value, (list, dict))]
    elif mode == "oversize":
        vectors = [path for path, value in entries if _is_vector(value)]
        matrices = [path for path, value in entries if _is_matrix(value)]
        paths = draw(st.sampled_from([paths for paths in (vectors, matrices) if paths]))
    else:
        paths = [path for path, _ in entries]
    # Depth first, so the few structural fields are drawn as often as the many matrix entries.
    depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
    path = draw(st.sampled_from([path for path in paths if len(path) == depth]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if mode == "drop":
        del parent[path[-1]]
        return json.dumps(payload)
    if mode == "wrong-type":
        token = draw(st.sampled_from(WRONG_TYPE_TOKENS))
    elif mode == "number":
        token = draw(st.sampled_from(NUMBER_TOKENS))
    elif mode == "nest":
        nesting = draw(NEST_DEPTHS)
        token = "[" * nesting + json.dumps(value) + "]" * nesting
    elif mode == "swap":
        swapped = list(value.values()) if isinstance(value, dict) else {str(i): v for i, v in enumerate(value)}
        token = json.dumps(swapped)
    else:
        token = json.dumps(value + (value if _is_vector(value) else value[-1:]))
    parent[path[-1]] = "__TOKEN__"
    return json.dumps(payload).replace('"__TOKEN__"', token)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_scenario_text())
def test_fuzzed_scenario_ends_in_a_finite_report_or_a_documented_exit(tmp_path, capsysbinary, text):
    path = tmp_path / "fuzzed.json"
    path.write_text(text)
    code = main(["run", str(path)])
    captured = capsysbinary.readouterr()
    if code != 0:
        assert code in (2, 3, 4, 5)
        _single_error_line(captured, code)
        return
    assert captured.err == b""
    lines = captured.out.decode().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        assert all(math.isfinite(float(value)) for value in line.split(",")[1:]), line


@pytest.mark.parametrize(
    "name, message", [("samples", "samples must lie in"), ("runs", "runs must lie in"), ("horizon", "passes 2^53")]
)
def test_cli_count_past_its_cap_is_one_invariant_violation_line(tmp_path, capsysbinary, name, message):
    # Refused before anything is allocated in proportion to the count.
    payload = copy.deepcopy(next(payload for payload in COUNTED_PAYLOADS if name in payload["parameters"]))
    payload["parameters"][name] = PAST_CAP[name](payload["parameters"])
    path = write_scenario(tmp_path, payload)
    tracemalloc.start()
    try:
        code = main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    diagnostic = _single_error_line(capsysbinary.readouterr(), 3)
    assert message in diagnostic["message"]
    assert diagnostic["field"] == f"parameters.{name}"
    assert peak < 1_000_000


DEEP = 200_000  # far past the interpreter's recursion limit


@pytest.mark.parametrize("where", ["top-level", "in-parameters"])
def test_cli_json_nested_too_deeply_is_one_parse_error_line(tmp_path, capsysbinary, where):
    deep = "[" * DEEP + "]" * DEEP
    path = tmp_path / "deep.json"
    path.write_text(deep if where == "top-level" else f'{{"name": "x", "kind": "abl", "parameters": {{"a": {deep}}}}}')
    assert main(["run", str(path)]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["error"] == "parse-error" and "nested too deeply" in diagnostic["message"]
    assert "field" not in diagnostic


def _main_on_a_fresh_stack(argv) -> int:
    """main(argv) in a new thread, whose stack starts about as shallow as the console script's, so
    JSON nested as deep as that script parses parses here too."""
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(codes) == 1
    return codes[0]


@pytest.mark.parametrize(
    "token", [json.dumps([[0.0, 0.0]] * 200_000), "[" * 986 + "]" * 986], ids=["200000-pairs", "986-deep"]
)
def test_cli_parse_error_clips_the_value_it_echoes(tmp_path, capsysbinary, token):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["abl"]).read_text())
    payload["parameters"]["preparation"]["time"] = "__TOKEN__"
    path = tmp_path / "huge_time.json"
    path.write_text(json.dumps(payload).replace('"__TOKEN__"', token))
    assert _main_on_a_fresh_stack(["run", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert len(captured.err) <= 1024
    diagnostic = _single_error_line(captured, 2)
    assert diagnostic["field"] == "parameters.preparation.time"
    assert diagnostic["message"].startswith("parameters.preparation.time: expected a finite real number, got [[")
    assert diagnostic["message"].endswith(f"... (list, repr of {len(token)} characters)")  # the token is its repr


def test_clipped_repr_keeps_a_short_repr_and_clips_a_long_one():
    for value in ("box1", [[1.0, 0.0]], {"a": 1}, -(10**150), "x" * 198):
        assert clipped_repr(value) == repr(value)
    assert clipped_repr("x" * 199) == "'" + "x" * 199 + "... (str, repr of 201 characters)"
    assert clipped_repr(-(10**300)) == "-1" + "0" * 198 + "... (int, repr of 302 characters)"


def _pairs(matrix) -> list:
    """A complex array as nested [re, im] pairs, the scenario files' encoding."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def test_cli_born_weight_of_an_accepted_observable_is_clamped(tmp_path, capsysbinary):
    # diag(-5e-11, 1) and diag(1 + 5e-11, 0) pass every decomposition check at ALGEBRA_TOL, and
    # |0> gets the weights -5e-11 and 1 + 5e-11: inside what an accepted pair can give, so clamped.
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["abl"]).read_text())
    parameters = payload["parameters"]
    parameters["preparation"]["state"] = _pairs([1.0, 0.0])
    parameters["intermediate"]["observable"] = {"outcomes": [
        {"label": "a", "value": 1.0, "projector": _pairs(np.diag([-5e-11, 1.0]))},
        {"label": "b", "value": 0.0, "projector": _pairs(np.diag([1.0 + 5e-11, 0.0]))},
    ]}
    parameters["postselection"]["observable"] = {"outcomes": [
        {"label": "b", "value": 1.0, "projector": _pairs(np.diag([1.0, 0.0]))},
        {"label": "other", "value": 0.0, "projector": _pairs(np.diag([0.0, 1.0]))},
    ]}
    parameters["postselection"]["label"] = "b"
    assert main(["run", write_scenario(tmp_path, payload), "--format", "json"]) == 0
    rows = dict(json.loads(capsysbinary.readouterr().out)["rows"])
    assert rows["born:a"] == "0.00000000000" and rows["born:b"] == "1.00000000000"


def test_cli_invariant_violation_clips_the_label_it_echoes(tmp_path, capsysbinary):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["abl"]).read_text())
    outcome = payload["parameters"]["intermediate"]["observable"]["outcomes"][0]
    outcome["label"] = "x" * 1_000_000
    outcome["projector"][0][0] = [0.9, 0.0]
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    captured = capsysbinary.readouterr()
    assert len(captured.err) <= 1024
    diagnostic = _single_error_line(captured, 3)
    assert diagnostic["error"] == "invariant-violation"
    assert diagnostic["message"].startswith("parameters.intermediate.observable: projector for 'xxx")
    assert "... (str, repr of 1000002 characters) is not a projector" in diagnostic["message"]


def _small_branch_pointer(s: float) -> dict:
    """A pointer file with coefficients (sqrt(0.75 - s^2), 0.5, s) over random unitary bases (d = 3)."""
    rng = np.random.default_rng(1231)
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["pointer"]).read_text())
    parameters = payload["parameters"]
    parameters["coefficients"] = _pairs([math.sqrt(0.75 - s * s), 0.5, s])
    for key in ("system_basis", "apparatus_basis"):
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        parameters[key] = _pairs(q.T)  # states as rows
    parameters["rebases"] = []
    return payload


@pytest.mark.parametrize("s", [1e-8, 1e-10, 1.1e-12])
def test_cli_pointer_with_a_small_schmidt_coefficient_runs(tmp_path, capsysbinary, s):
    assert main(["run", write_scenario(tmp_path, _small_branch_pointer(s)), "--format", "json"]) == 0
    rows = dict(json.loads(capsysbinary.readouterr().out)["rows"])
    assert float(rows["coefficient:3"]) == pytest.approx(s, rel=1e-3)
    assert rows["orthogonality:pointer"] == "1.00000000000"  # 1 minus the weighted overlap the audit bounds


def test_cli_pointer_basis_mixing_two_significant_branches_is_a_tolerance_breach(monkeypatch, tmp_path, capsysbinary):
    from qcontexts import pointer

    source = str(SCENARIO_DIR / EXAMPLE_FILES["pointer"])
    assert main(["run", source]) == 0
    golden = SCENARIO_DIR.parent / "tests" / "golden" / "skewed_record_pointer.csv"
    assert capsysbinary.readouterr().out == golden.read_bytes()

    decompose = pointer.schmidt_svd
    monkeypatch.setattr(pointer, "schmidt_svd", lambda amplitudes: mixed_schmidt(decompose(amplitudes), 1e-6))
    assert main(["run", source]) == 5
    diagnostic = _single_error_line(capsysbinary.readouterr(), 5)
    assert diagnostic["error"] == "tolerance-breach"
    assert "weighted relative-state overlap" in diagnostic["message"]


def test_cli_reads_a_fifo_only_to_the_file_cap(tmp_path, capsysbinary):
    fifo = tmp_path / "endless"
    os.mkfifo(fifo)
    chunk = b" " * (1 << 20)

    def feed():  # past the cap, unless the reader closes first
        try:
            with open(fifo, "wb") as handle:
                for _ in range(MAX_FILE_BYTES // len(chunk) + 8):
                    handle.write(chunk)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    tracemalloc.start()
    try:
        code = main(["run", str(fifo)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.join(timeout=60)
    assert code == 2 and not writer.is_alive()
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["message"] == f"scenario file holds more than {MAX_FILE_BYTES} bytes"
    assert MAX_FILE_BYTES < peak < MAX_FILE_BYTES + (4 << 20)  # one buffer of the cap, not the 72 MB fed


def test_cli_reads_a_fifo_scenario_in_pieces_to_the_same_bytes(tmp_path, capsysbinary):
    fifo = tmp_path / "scenario"
    os.mkfifo(fifo)
    source = SCENARIO_DIR / EXAMPLE_FILES["abl"]
    payload = b" " * (1 << 20) + source.read_bytes()  # past a pipe's buffer: the reader gets several pieces

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code = main(["run", str(fifo)])
    writer.join(timeout=60)
    assert code == 0 and not writer.is_alive()
    assert capsysbinary.readouterr().out == (SCENARIO_DIR.parent / "tests" / "golden" / "three_box.csv").read_bytes()


def test_scenario_file_cap_holds_at_its_byte(tmp_path, capsysbinary, monkeypatch):
    source = SCENARIO_DIR / EXAMPLE_FILES["abl"]
    size = source.stat().st_size
    monkeypatch.setattr(scenarios, "MAX_FILE_BYTES", size)
    assert load_scenario(source).kind == "abl"
    monkeypatch.setattr(scenarios, "MAX_FILE_BYTES", size - 1)
    with pytest.raises(ScenarioError, match=f"holds more than {size - 1} bytes"):
        load_scenario(source)
    # A regular file past the cap is refused from its first MAX_FILE_BYTES + 1 bytes; this one is sparse.
    monkeypatch.undo()
    huge = tmp_path / "huge.json"
    with open(huge, "wb") as handle:
        handle.truncate(MAX_FILE_BYTES + 1)
    assert main(["run", str(huge)]) == 2
    assert "holds more than" in _single_error_line(capsysbinary.readouterr(), 2)["message"]


def _empty_file(tmp_path, monkeypatch) -> str:
    (tmp_path / "empty.json").write_bytes(b"")
    return str(tmp_path / "empty.json")


def _one_byte_over_the_cap(tmp_path, monkeypatch) -> str:
    source = SCENARIO_DIR / EXAMPLE_FILES["abl"]
    monkeypatch.setattr(scenarios, "MAX_FILE_BYTES", source.stat().st_size - 1)
    return str(source)


# case -> (make the input, given tmp_path and monkeypatch; its message, given the input's path and the cap)
FILE_BOUNDARY = {
    "missing": (
        lambda tmp_path, monkeypatch: str(tmp_path / "missing.json"),
        "cannot read scenario file: [Errno 2] No such file or directory: {path!r}",
    ),
    "directory": (
        lambda tmp_path, monkeypatch: str(tmp_path),
        "cannot read scenario file: [Errno 21] Is a directory: {path!r}",
    ),
    "empty": (_empty_file, "invalid JSON at line 1 column 1: Expecting value"),
    "dev-null": (lambda tmp_path, monkeypatch: os.devnull, "invalid JSON at line 1 column 1: Expecting value"),
    "over-cap": (_one_byte_over_the_cap, "scenario file holds more than {cap} bytes"),
}


@pytest.mark.parametrize("case", FILE_BOUNDARY)
def test_cli_file_boundary_prints_its_exact_message(case, tmp_path, monkeypatch, capsysbinary):
    make, message = FILE_BOUNDARY[case]
    path = make(tmp_path, monkeypatch)
    assert main(["run", path]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert diagnostic["error"] == "parse-error"
    assert diagnostic["message"] == message.format(path=path, cap=scenarios.MAX_FILE_BYTES)


@pytest.mark.parametrize(
    "as_given, named",
    [(str, "'{}'"), (os.fsencode, "b'{}'"), (Path, "'{}'")],
    ids=["str", "bytes", "Path"],
)
def test_load_scenario_names_a_missing_file_as_it_was_given(tmp_path, as_given, named):
    path = str(tmp_path / "missing.json")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(as_given(path))
    expected = "cannot read scenario file: [Errno 2] No such file or directory: " + named.format(path)
    assert (excinfo.value.message, excinfo.value.field) == (expected, None)


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value, finite",
    [
        (0.0, True),
        (-0.0, True),
        (5e-324, True),
        (1.7976931348623157e308, True),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
        (1, True),
        (10**400, False),
        (True, False),
        (np.float64(1.0), True),
        (np.float64("inf"), False),
        (_Float("inf"), False),
        ("1", False),
        (None, False),
    ],
)
def test_is_finite_number_decides_each_kind_of_value(value, finite):
    assert scenarios._is_finite_number(value) is finite


@pytest.mark.parametrize(
    "text, line, column",
    [('{"name": "x",}', 1, 14), ('{\n  "name": "x"\n  "kind": "abl"\n}\n', 3, 3)],
    ids=["one-line", "multi-line"],
)
def test_cli_json_syntax_error_says_where_in_numbers(tmp_path, capsysbinary, text, line, column):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    diagnostic = _single_error_line(capsysbinary.readouterr(), 2)
    assert (diagnostic["line"], diagnostic["column"]) == (line, column)
    assert diagnostic["message"].startswith(f"invalid JSON at line {line} column {column}: ")
    path.write_text("[]")  # a refusal of well-formed JSON names no position
    assert main(["run", str(path)]) == 2
    assert {"line", "column"}.isdisjoint(_single_error_line(capsysbinary.readouterr(), 2))
