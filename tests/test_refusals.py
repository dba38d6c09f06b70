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
    Outcome,
    OutcomeDistribution,
    PostSelection,
    Preparation,
    ProjectiveDecomposition,
    SpreadingModel,
    StateVector,
    ToleranceError,
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
from qcontexts.pointer import detector_law
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
    # NaN and infinities are out of range, as past-tolerance probabilities are; NaN also passed the sum.
    "OutcomeDistribution-nan": (
        lambda: OutcomeDistribution((("a", NAN),)), ToleranceError, "probability for 'a' is nan; clamping beyond 1e-09"
    ),
    "OutcomeDistribution-nan-beside-one": (
        lambda: OutcomeDistribution((("a", NAN), ("b", 1.0))), ToleranceError, "probability for 'a' is nan; clamping"
    ),
    "OutcomeDistribution-inf": (
        lambda: OutcomeDistribution((("a", 1.0), ("b", INF))), ToleranceError, "probability for 'b' is inf; clamping"
    ),
    "OutcomeDistribution-minus-inf": (
        lambda: OutcomeDistribution((("a", -INF), ("b", INF))), ToleranceError, "probability for 'a' is -inf; clamping"
    ),
    "OutcomeDistribution-unknown": (
        lambda: OutcomeDistribution((("a", 1.0),)).probability("b"), InvariantViolation, "unknown outcome label 'b'"
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


SCALARS = {
    "nan": NAN,
    "inf": INF,
    "-inf": -INF,
    "float64-nan": np.float64("nan"),
    "float32-inf": np.float32("inf"),
    "1e308": 1e308,
    "0": 0,
    "int64-3": np.int64(3),
    "True": True,
}
NONFINITE = ("nan", "inf", "-inf", "float64-nan", "float32-inf")


def _nonfinite(message: str, field: str | None = None) -> dict:
    return {name: (message, field) for name in NONFINITE}


# target -> (build from one scalar, {refused input: (message, field)}); every other input of SCALARS is
# accepted. A message's {!r} is the input's repr.
SCALAR_CHECKS = {
    "Outcome-value": (lambda v: Outcome("a", v, np.eye(2)), _nonfinite("outcome value for 'a' must be finite")),
    "Preparation-time": (lambda v: Preparation(UP, v), _nonfinite("preparation time must be finite")),
    "Intermediate-time": (lambda v: Intermediate(pauli_x(), v), _nonfinite("intermediate time must be finite")),
    "PostSelection-time": (
        lambda v: PostSelection(pauli_z(), "+1", v), _nonfinite("post-selection time must be finite")
    ),
    "SpreadingModel-sigma0": (
        lambda v: SpreadingModel(v, 1.0),
        {
            **_nonfinite("sigma0 must be positive, got {!r}"),
            "1e308": ("2 * mass * sigma0^2 must be a positive finite double, got inf", None),
            "0": ("sigma0 must be positive, got 0", None),
        },
    ),
    "SpreadingModel-mass": (
        lambda v: SpreadingModel(1.0, v),
        {
            **_nonfinite("mass must be positive, got {!r}"),
            "1e308": ("2 * mass * sigma0^2 must be a positive finite double, got inf", None),
            "0": ("mass must be positive, got 0", None),
        },
    ),
    "detector_law-rate": (lambda v: detector_law(v, 0.5, 10.0), _nonfinite("must be nonnegative, got {!r}", "rate")),
    "detector_law-tick": (
        lambda v: detector_law(1.0, v, 10.0),
        {
            **_nonfinite("must be positive, got {!r}", "tick"),
            "1e308": ("must reach the first tick, got 10.0", "horizon"),
            "0": ("must be positive, got 0", "tick"),
        },
    ),
    "detector_law-horizon": (
        lambda v: detector_law(1.0, 0.5, v),
        {
            **_nonfinite("must reach the first tick, got {!r}", "horizon"),
            "1e308": ("horizon / tick = inf passes 2^53, where tick times stop being distinct", "horizon"),
            "0": ("must reach the first tick, got 0", "horizon"),
        },
    ),
}


@pytest.mark.parametrize("name", SCALARS)
@pytest.mark.parametrize("target", SCALAR_CHECKS)
def test_scalar_check_accepts_or_refuses_each_kind_of_number(target, name):
    build, refusals = SCALAR_CHECKS[target]
    value = SCALARS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name not in refusals:
            build(value)
            return
        with pytest.raises(InvariantViolation) as excinfo:
            build(value)
    message, field = refusals[name]
    assert (type(excinfo.value), excinfo.value.message, excinfo.value.field) == (
        InvariantViolation, message.format(value), field
    )
