"""The record contract shared by every qcontexts type: immutable plain classes, none a dataclass.

Each type keeps its constructor signature and attribute names. Assigning or deleting any attribute
raises dataclasses.FrozenInstanceError. Seven types compare and hash by their fields; the other
twelve compare by identity. repr shows the fields, never a derived attribute.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import qcontexts
from qcontexts import (
    ChainSampleReport,
    Context,
    Eigensystem,
    FactSequence,
    HermitianOperator,
    Intermediate,
    JointState,
    Outcome,
    OutcomeDistribution,
    PostSelection,
    Preparation,
    ProjectiveDecomposition,
    RebasedDecomposition,
    Report,
    Scenario,
    SchmidtDecomposition,
    SpreadingModel,
    StateVector,
    TotalProbabilityGap,
    pauli_x,
    pauli_z,
)

UP = StateVector([1.0, 0.0])
Z, X = pauli_z(), pauli_x()
HALVES = OutcomeDistribution((("+1", 0.5), ("-1", 0.5)))

# type -> (constructor parameters with their defaults, arguments for one valid instance)
RECORDS = {
    HermitianOperator: ("matrix", (np.diag([1.0, -1.0]),)),
    Eigensystem: ("eigenvalues, eigenvectors", (np.array([-1.0, 1.0]), np.eye(2, dtype=complex))),
    SchmidtDecomposition: (
        "coefficients, system_states, apparatus_states, non_unique",
        (np.array([1.0]), np.eye(2)[:, :1], np.eye(2)[:, :1], True),
    ),
    StateVector: ("amplitudes", ([0.6, 0.8],)),
    Outcome: ("label, value, projector", ("up", 1.0, np.diag([1.0, 0.0]))),
    ProjectiveDecomposition: ("outcomes", (Z.outcomes,)),
    OutcomeDistribution: ("entries", ((("a", 0.25), ("b", 0.75)),)),
    Preparation: ("state, time", (UP, 0.0)),
    Intermediate: ("observable, time, performed=True", (X, 1.0, False)),
    PostSelection: ("observable, label, time", (Z, "+1", 2.0)),
    Context: (
        "preparation, postselection, intermediate, hamiltonian=None",
        (Preparation(UP, 0.0), PostSelection(Z, "+1", 2.0), Intermediate(X, 1.0), HermitianOperator(np.eye(2))),
    ),
    ChainSampleReport: ("requested, retained, frequencies, seed", (10, 4, HALVES, 7)),
    TotalProbabilityGap: ("quantum, classical_chain, gap", (0.5, 0.25, 0.25)),
    JointState: ("amplitudes", (np.diag([0.6, 0.8]),)),
    RebasedDecomposition: (
        "new_apparatus_basis, coefficients, relative_states, orthogonality_score",
        (np.eye(2), np.array([0.6, 0.8]), np.eye(2), 1.0),
    ),
    SpreadingModel: ("sigma0, mass", (1.0, 2.0)),
    FactSequence: ("ticks, click_time", (((0.5, "nonclick"), (1.0, "click")), 1.0)),
    Scenario: (
        "name, kind, parameters, description=''",
        ("s", "spreading", {"sigma0": 1.0, "mass": 2.0, "times": [0.0, 1.0]}, "a packet"),
    ),
    Report: ("scenario, kind, columns, rows, metadata", ("s", "abl", ("value",), (("a", (0.5,)),), (("k", "v"),))),
}
VALUE_TYPES = {OutcomeDistribution, ChainSampleReport, TotalProbabilityGap, SpreadingModel, FactSequence, Scenario, Report}
DERIVED = {ProjectiveDecomposition: "labels", Scenario: "spec", Report: "texts"}


def test_every_public_type_is_a_record_and_none_is_a_dataclass():
    public = {value for value in vars(qcontexts).values() if isinstance(value, type) and not issubclass(value, Exception)}
    assert public == set(RECORDS) and len(RECORDS) == 19 and len(VALUE_TYPES) == 7
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    signature, args = RECORDS[cls]
    parameters = inspect.signature(cls).parameters
    described = ", ".join(name if p.default is p.empty else f"{name}={p.default!r}" for name, p in parameters.items())
    assert described == signature and all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    names = list(parameters)
    positional, keyword, again = cls(*args), cls(**dict(zip(names, args))), cls(*args)
    for record in (positional, keyword):
        assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={getattr(record, n)!r}' for n in names)})"
    assert repr(keyword) == repr(positional) == repr(again)
    if cls in DERIVED:
        assert hasattr(positional, DERIVED[cls]) and f"{DERIVED[cls]}=" not in repr(positional)
    for name in [*names, *vars(positional), "unheard_of"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(positional, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(positional, name)
    assert repr(positional) == repr(again)  # nothing was assigned or deleted
    assert positional == positional and not positional != positional
    if cls in VALUE_TYPES:
        assert positional == keyword == again
        key = tuple(getattr(positional, name) for name in names)
        try:
            expected = hash(key)
        except TypeError:  # a Scenario's parameters are a dict: unhashable, as the fields are
            with pytest.raises(TypeError):
                hash(positional)
        else:
            assert hash(positional) == hash(keyword) == expected
        assert positional != key  # another class never compares equal
    else:
        assert positional != keyword and positional != again
        assert hash(positional) == object.__hash__(positional)


def test_value_records_compare_field_by_field():
    assert OutcomeDistribution((("a", 0.25), ("b", 0.75))) != OutcomeDistribution((("a", 0.75), ("b", 0.25)))
    assert SpreadingModel(1.0, 2.0) != SpreadingModel(1.0, 3.0) and SpreadingModel(1, 2) == SpreadingModel(1.0, 2.0)
    assert FactSequence((), None) != FactSequence(((1.0, "click"),), 1.0)
    first, second = (Scenario("s", "spreading", {"sigma0": 1.0, "mass": 2.0, "times": [0.0]}) for _ in range(2))
    assert first == second and first.spec is not second.spec  # the derived spec is no field
    assert Scenario("s", "spreading", first.parameters, "other") != first
