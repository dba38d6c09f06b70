"""Tests for scenario loading, dispatch, deterministic emission, and the CLI."""

import copy
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcontexts import (
    InvariantViolation,
    Scenario,
    ScenarioError,
    detector_click_simulation,
    emit_report,
    format_number,
    load_preset,
    load_scenario,
    parse_report,
    preset_names,
    run_scenario,
    scenario_to_json,
    scenarios,
)
from qcontexts.cli import main
from qcontexts.contexts import MAX_CHAIN_SAMPLES
from qcontexts.pointer import detector_first_click
from qcontexts.scenarios import MAX_DETECTOR_RUNS

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


def test_unknown_kind_rejected(tmp_path):
    path = write_scenario(tmp_path, {"name": "x", "kind": "banana", "parameters": {}})
    with pytest.raises(ScenarioError, match="unknown kind"):
        load_scenario(path)


# --- presets ---------------------------------------------------------------------


PRESET_FILES = {"three-box": "three_box.json", "two-slit": "two_slit_gap.json", "geiger": "geiger_counter.json"}
PACKAGE_PRESET_DIR = Path(scenarios.__file__).resolve().parent / "presets"


def test_preset_names_stable():
    assert preset_names() == ("geiger", "three-box", "two-slit")


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
    assert report.value("abl:box1") == 1.0
    assert report.value("abl:elsewhere") == 0.0
    assert abs(report.value("born:box1") - 1 / 3) < 1e-12
    assert report.metadata_dict()["reading"] == "subjective"


def test_two_slit_gap_report_values():
    report = run_scenario(load_preset("two-slit"))
    assert report.value("quantum") == 1.0
    assert report.value("classical_chain") == 0.5
    assert report.value("gap") == 0.5


def test_chain_report_columns_and_overrides():
    scenario = load_scenario(SCENARIO_DIR / EXAMPLE_FILES["chain"])
    report = run_scenario(scenario, seed=5, samples=2000)
    assert report.columns == ("analytic", "frequency", "zscore")
    metadata = report.metadata_dict()
    assert metadata["seed"] == "5"
    assert metadata["samples"] == "2000"
    assert int(metadata["retained"]) > 0
    assert report.value("box1", "analytic") == 1.0
    assert report.value("box1", "frequency") == 1.0


def test_detector_report_counts():
    report = run_scenario(load_preset("geiger"), samples=50)
    assert report.value("runs") == 50.0
    assert report.value("clicked") + report.value("censored") == 50.0


def test_reports_carry_version_and_tolerances():
    report = run_scenario(load_preset("two-slit"))
    metadata = report.metadata_dict()
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
        assert parse_report(emit_report(report, "json")) == report


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


def test_cli_impossible_postselection_exit_code(tmp_path, capsysbinary):
    params = {
        "preparation": {"state": [[1.0, 0.0], [0.0, 0.0]], "time": 0.0},
        "intermediate": {"observable": "Z", "time": 1.0},
        "postselection": {"observable": "Z", "label": "-1", "time": 2.0},
    }
    path = write_scenario(tmp_path, {"name": "dead-end", "kind": "abl", "parameters": params})
    assert main(["run", path]) == 4
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


@pytest.mark.parametrize(
    "data",
    [b"\xff", b"[1]", b'{"scenario": "s", "kind": "abl", "columns": [], "rows": [], "metadata": []}'],
    ids=["undecodable", "not-an-object", "metadata-not-an-object"],
)
def test_parse_report_rejects_malformed_bytes(data):
    with pytest.raises(ScenarioError, match="report"):
        parse_report(data)


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


def test_cli_detector_tick_count_past_double_precision_is_an_invariant_violation(tmp_path, capsysbinary):
    payload = json.loads((SCENARIO_DIR / EXAMPLE_FILES["detector"]).read_text())
    payload["parameters"]["tick"] = 1e-320  # horizon / tick overflows to inf
    assert main(["run", write_scenario(tmp_path, payload)]) == 3
    assert "2^53" in _single_error_line(capsysbinary.readouterr(), 3)["message"]


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
    """The detector report counted from materialized fact sequences, run i on seed + i."""
    nonclick_facts = 0
    click_times = []
    for i in range(runs):
        sequence = detector_click_simulation(rate, tick, horizon, seed + i)
        nonclick_facts += len(sequence.ticks) - (1 if sequence.clicked else 0)
        if sequence.clicked:
            click_times.append(sequence.click_time)
    rows = {
        "runs": runs,
        "clicked": len(click_times),
        "censored": runs - len(click_times),
        "nonclick_facts": nonclick_facts,
    }
    if click_times:
        rows["mean_click_time"] = sum(click_times) / len(click_times)
    return rows


@pytest.mark.parametrize(
    "rate, tick, horizon",
    [(0.0, 0.1, 2.0), (1.0, 0.1, 0.1), (2.5, 0.05, 3.0), (50.0, 0.01, 1.0), (0.3, 0.2, 1.0)],
    ids=["never-clicks", "horizon-is-tick", "typical", "clicks-early", "mostly-censored"],
)
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_detector_counts_match_fact_sequences(rate, tick, horizon, seed):
    parameters = {"rate": rate, "tick": tick, "horizon": horizon, "seed": seed, "runs": 40}
    report = run_scenario(Scenario(name="counter", kind="detector", parameters=parameters))
    expected = _reference_detector_rows(rate, tick, horizon, seed, 40)
    assert [label for label, _ in report.rows] == list(expected)
    for label, value in expected.items():
        assert report.value(label) == float(format_number(value))


def test_detector_counts_a_long_record_without_building_it():
    parameters = {"rate": 0.0, "tick": 1e-12, "horizon": 1.0}
    start = time.perf_counter()
    report = run_scenario(Scenario(name="long", kind="detector", parameters=parameters))
    assert time.perf_counter() - start < 1.0
    count, click_index = detector_first_click(0.0, 1e-12, 1.0, 0)
    assert click_index is None and abs(count - 10**12) <= 1
    assert report.value("nonclick_facts") == float(count)


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


@st.composite
def mutated_scenario_text(draw) -> str:
    """A shipped payload with one field dropped, one value of the wrong type, or one
    number made non-finite or huge; no count is ever made larger (1e300 is not an integer)."""
    payload = copy.deepcopy(draw(st.sampled_from(SHIPPED_PAYLOADS)))
    mode = draw(st.sampled_from(("drop", "wrong-type", "number")))
    if mode == "drop":
        paths = [path for path, _ in _entries(payload) if isinstance(path[-1], str)]
    elif mode == "wrong-type":
        paths = [path for path, _ in _entries(payload)]
        token = draw(st.sampled_from(WRONG_TYPE_TOKENS))
    else:
        paths = [path for path, value in _entries(payload) if _is_number(value)]
        token = draw(st.sampled_from(NUMBER_TOKENS))
    # Depth first, so the few structural fields are drawn as often as the many matrix entries.
    depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
    path = draw(st.sampled_from([path for path in paths if len(path) == depth]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if mode == "drop":
        del parent[path[-1]]
        return json.dumps(payload)
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
