"""Refusals no other test reaches in process: each input is rejected with its exception type and message."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcontexts import (
    Context,
    FactSequence,
    HermitianOperator,
    Intermediate,
    InvariantViolation,
    JointState,
    Outcome,
    OutcomeDistribution,
    PostSelection,
    Preparation,
    ProjectiveDecomposition,
    SpreadingModel,
    StateVector,
    complete_basis,
    hermitian_eigensystem,
    pauli_x,
    pauli_z,
    premeasurement_joint,
    sample_chain,
    unitary_exponential,
)
from qcontexts.cli import main
from qcontexts.contexts import MAX_CHAIN_SAMPLES
from helpers import basis_state, from_states, zero_operator

NAN, INF = float("nan"), float("inf")
UP = StateVector([1.0, 0.0])
THREE = from_states([basis_state(3, k) for k in range(3)])


def _context(intermediate=pauli_x()) -> Context:
    return Context(Preparation(UP, 0.0), PostSelection(pauli_z(), "+1", 2.0), Intermediate(intermediate, 1.0))


def _outcome(label="a", value=0.0, projector=np.eye(2)) -> Outcome:
    return Outcome(label, value, projector)


REFUSALS = {
    "Preparation-time": (lambda: Preparation(UP, NAN), InvariantViolation, "preparation time must be finite"),
    "Intermediate-time": (lambda: Intermediate(pauli_x(), INF), InvariantViolation, "intermediate time must be finite"),
    "PostSelection-time": (
        lambda: PostSelection(pauli_z(), "+1", -INF), InvariantViolation, "post-selection time must be finite"
    ),
    "Context-intermediate-dimension": (
        lambda: _context(THREE), InvariantViolation, "intermediate observable dimension differs from the preparation"
    ),
    "sample_chain-cap": (
        lambda: sample_chain(_context(), MAX_CHAIN_SAMPLES + 1, 0), InvariantViolation, "samples must lie in [1, "
    ),
    "StateVector-empty": (lambda: StateVector([]), InvariantViolation, "at least one amplitude"),
    "Outcome-empty-label": (lambda: _outcome(label=""), InvariantViolation, "label must be a nonempty string"),
    "Outcome-value": (lambda: _outcome(value=NAN), InvariantViolation, "outcome value for 'a' must be finite"),
    "ProjectiveDecomposition-empty": (
        lambda: ProjectiveDecomposition(()), InvariantViolation, "needs at least one outcome"
    ),
    "ProjectiveDecomposition-duplicate": (
        lambda: ProjectiveDecomposition((_outcome(), _outcome())), InvariantViolation, "labels must be unique"
    ),
    "ProjectiveDecomposition-dimension": (
        lambda: ProjectiveDecomposition((_outcome(), _outcome("b", projector=np.eye(3)))),
        InvariantViolation,
        "projector for 'b' has mismatched dimension",
    ),
    "OutcomeDistribution-duplicate": (
        lambda: OutcomeDistribution((("a", 0.5), ("a", 0.5))), InvariantViolation, "duplicate outcome label 'a'"
    ),
    "OutcomeDistribution-sum": (
        lambda: OutcomeDistribution((("a", 0.5), ("b", 0.25))), InvariantViolation, "probabilities sum to 0.75"
    ),
    "OutcomeDistribution-unknown": (
        lambda: OutcomeDistribution((("a", 1.0),)).probability("b"), InvariantViolation, "unknown outcome label 'b'"
    ),
    "JointState-shape": (
        lambda: JointState(np.eye(2) / np.sqrt(2), np.eye(3), np.eye(2)),
        InvariantViolation,
        "coefficient matrix shape (2, 2) does not match basis counts (3, 2)",
    ),
    "premeasurement_joint-empty": (
        lambda: premeasurement_joint([]), InvariantViolation, "need at least one coefficient"
    ),
    "premeasurement_joint-basis": (
        lambda: premeasurement_joint([0.6, 0.8], np.eye(2)[:, :1]), InvariantViolation, "must cover 2 coefficients"
    ),
    "complete_basis-columns": (
        lambda: complete_basis(np.eye(3), 2), InvariantViolation, "3 columns cannot fit dimension 2"
    ),
    "SpreadingModel-sigma0": (lambda: SpreadingModel(0.0, 1.0), InvariantViolation, "sigma0 must be positive"),
    "SpreadingModel-mass": (lambda: SpreadingModel(1.0, NAN), InvariantViolation, "mass must be positive"),
    "FactSequence-kind": (lambda: FactSequence(((1.0, "bang"),), None), InvariantViolation, "unknown fact kind"),
    # The first of two clicks is not the final fact: that check is what bounds a record to one click.
    "FactSequence-two-clicks": (
        lambda: FactSequence(((1.0, "click"), (2.0, "click")), 2.0),
        InvariantViolation,
        "a click must be the final fact",
    ),
    "propagator-duration": (
        lambda: hermitian_eigensystem(HermitianOperator(np.eye(2))).propagator(NAN),
        InvariantViolation,
        "phase lambda t is not finite",
    ),
    "propagator-zero-times-infinite": (
        lambda: hermitian_eigensystem(zero_operator(2)).propagator(INF),
        InvariantViolation,
        "phase lambda t is not finite",
    ),
    "propagator-overflow": (
        lambda: unitary_exponential(HermitianOperator([[1e300, 0.0], [0.0, 0.0]]), 1e10),
        InvariantViolation,
        "phase lambda t is not finite: max|lambda| 1.000e+300, duration 10000000000.0",
    ),
}


@pytest.mark.parametrize("build, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_raises_its_type_and_message_without_a_warning(build, error, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(fragment)):
            build()


THREE_BOX = Path(__file__).resolve().parent.parent / "scenarios" / "three_box.json"


@pytest.mark.parametrize(
    "section, field",
    [
        ("intermediate", "parameters.intermediate.observable.outcomes[0].label"),
        ("postselection", "parameters.postselection.label"),
    ],
)
def test_cli_label_that_is_not_a_string_is_one_parse_error_line(tmp_path, capsysbinary, section, field):
    payload = json.loads(THREE_BOX.read_text())
    parameters = payload["parameters"]
    holder = parameters[section] if section == "postselection" else parameters[section]["observable"]["outcomes"][0]
    holder["label"] = 7
    path = tmp_path / "label.json"
    path.write_text(json.dumps(payload))
    assert main(["run", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert json.loads(captured.err) == {
        "error": "parse-error",
        "exit_code": 2,
        "field": field,
        "message": f"{field}: label must be a string",
    }

