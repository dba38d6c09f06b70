"""Desk-scale engine for pre- and post-selected quantum measurement contexts.

Computes and cross-validates conditional (pre- and post-selected) outcome
probabilities, Born statistics, simulated measurement chains, and
pointer-basis analyses on small finite-dimensional systems, with a scenario
file format and CLI for deterministic machine-readable reports.
"""

from ._version import __version__
from .errors import (
    ImpossibleOutcomeError,
    InvariantViolation,
    ScenarioError,
    TimeReversalConventionWarning,
    ToleranceError,
)
from .linalg import (
    Eigensystem,
    HermitianOperator,
    SchmidtDecomposition,
    UnitaryMap,
    apply_projector,
    hermitian_eigensystem,
    schmidt_decompose,
    tensor_product,
    unitary_exponential,
)
from .kinematics import (
    Outcome,
    OutcomeDistribution,
    ProjectiveDecomposition,
    StateVector,
    born_distribution,
    evolve,
    lueders_collapse,
    pauli_x,
    pauli_y,
    pauli_z,
    prepare_eigenstate,
)
from .contexts import (
    ChainSampleReport,
    Context,
    ElementOfReality,
    Intermediate,
    PostSelection,
    Preparation,
    TotalProbabilityGap,
    abl_certified_element,
    abl_distribution,
    born_context_distribution,
    element_of_reality,
    interchange_context,
    picture_consistency_check,
    sample_chain,
    sequential_success_probability,
    time_reverse_context,
    total_probability_gap,
)
from .pointer import (
    FactSequence,
    JointState,
    RebasedDecomposition,
    SpreadingModel,
    complete_basis,
    detector_click_simulation,
    fuzziness_resolvable,
    pointer_basis_select,
    premeasurement_joint,
    rebase_joint,
    spreading_sigma,
)
from .scenarios import (
    Report,
    Scenario,
    emit_report,
    format_number,
    load_preset,
    load_scenario,
    parse_report,
    preset_names,
    run_scenario,
    scenario_to_json,
)
