"""Tests for the dense linear-algebra layer."""

import math
import re
import warnings

import numpy as np
import pytest

from qcontexts import (
    HermitianOperator,
    InvariantViolation,
    JointState,
    Outcome,
    ProjectiveDecomposition,
    StateVector,
    hermitian_eigensystem,
    linalg,
    premeasurement_joint,
    rebase_joint,
    schmidt_decompose,
    unitary_exponential,
)
from helpers import (
    as_complex_array_reference,
    certified_reference,
    check_entry_bound_reference,
    eigensystem_reference,
    fix_global_phase_reference,
    random_unitary,
    rebase_reference,
    schmidt_reference,
    zero_operator,
)


def random_hermitian_matrix(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (raw + raw.conj().T) / 2


# --- hermitian_eigensystem -------------------------------------------------


def test_eigensystem_diagonal():
    eig = hermitian_eigensystem(HermitianOperator(np.diag([1.0, -1.0])))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])
    np.testing.assert_allclose(eig.eigenvectors[:, 0], [0, 1])
    np.testing.assert_allclose(eig.eigenvectors[:, 1], [1, 0])


def test_eigensystem_sigma_x():
    eig = hermitian_eigensystem(HermitianOperator(np.array([[0, 1], [1, 0]])))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    # Canonical phase: first entry real-positive.
    np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, -s], atol=1e-12)
    np.testing.assert_allclose(eig.eigenvectors[:, 1], [s, s], atol=1e-12)


def test_eigensystem_reconstruction_random(rng):
    for _ in range(25):
        h = random_hermitian_matrix(rng, 4)
        eig = hermitian_eigensystem(HermitianOperator(h))
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(InvariantViolation, match="asymmetry"):
        hermitian_eigensystem(HermitianOperator(np.array([[0, 1], [0, 0]])))


@pytest.mark.parametrize("entries", [{(2, 2): 0.1 - 1e308j}, {(0, 1): 1e308, (1, 0): -1e308}], ids=["diagonal", "pair"])
def test_hermitian_operator_refuses_an_overflowing_asymmetry_without_a_warning(entries):
    matrix = np.diag([0.3, -0.4, 0.1]).astype(complex)
    for index, value in entries.items():
        matrix[index] = value  # finite, but H - H^dag has 2e308 here: past the double range
    with pytest.raises(InvariantViolation, match="max asymmetry inf exceeds"):
        HermitianOperator(matrix)


def test_eigensystem_unitary_columns_and_trace(rng):
    for dim in (2, 3, 4, 5):
        h = random_hermitian_matrix(rng, dim)
        eig = hermitian_eigensystem(HermitianOperator(h))
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        assert abs(eig.eigenvalues.sum() - np.trace(h).real) < 1e-10


def test_degenerate_cluster_is_standard_basis():
    # Fully and partially degenerate spectra resolve onto the standard basis.
    eig = hermitian_eigensystem(HermitianOperator(np.eye(3)))
    np.testing.assert_allclose(eig.eigenvectors, np.eye(3), atol=1e-12)
    eig = hermitian_eigensystem(HermitianOperator(np.diag([2.0, 2.0, 5.0])))
    np.testing.assert_allclose(eig.eigenvectors, np.eye(3), atol=1e-12)


def test_degenerate_output_deterministic():
    # A degenerate subspace not aligned with the standard basis: the returned
    # vectors must still satisfy the eigen equation and repeat identically.
    u = random_unitary(np.random.default_rng(5), 3)
    h = u @ np.diag([1.0, 1.0, 3.0]) @ u.conj().T
    op = HermitianOperator((h + h.conj().T) / 2)
    first = hermitian_eigensystem(op)
    second = hermitian_eigensystem(op)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
    residual = op.matrix @ first.eigenvectors - first.eigenvectors * first.eigenvalues
    assert np.max(np.abs(residual)) < 1e-10


# --- unitary_exponential -----------------------------------------------------


def test_exponential_of_zero_is_identity():
    u = unitary_exponential(zero_operator(3), 1.7)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-12)


def test_exponential_half_period():
    # exp(-i * diag(1,-1) * pi) = diag(e^{-i pi}, e^{i pi}) = -identity.
    u = unitary_exponential(HermitianOperator(np.diag([1.0, -1.0])), np.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)


def test_exponential_is_unitary(rng):
    for _ in range(10):
        h = HermitianOperator(random_hermitian_matrix(rng, 4))
        u = unitary_exponential(h, 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_exponential_composes(rng):
    for _ in range(10):
        h = HermitianOperator(random_hermitian_matrix(rng, 3))
        t1, t2 = rng.uniform(-2, 2, size=2)
        whole = unitary_exponential(h, t1 + t2)
        split = unitary_exponential(h, t1) @ unitary_exponential(h, t2)
        assert np.max(np.abs(whole - split)) < 1e-9


# --- schmidt_decompose -------------------------------------------------------


def test_schmidt_product_state():
    matrix = np.zeros((2, 2), dtype=complex)
    matrix[0, 0] = 1.0
    schmidt = schmidt_decompose(matrix)
    np.testing.assert_allclose(schmidt.coefficients, [1.0])
    # Rank deficiency leaves the unused directions arbitrary.
    assert schmidt.non_unique


def test_schmidt_bell_state():
    matrix = np.eye(2, dtype=complex) / np.sqrt(2)
    schmidt = schmidt_decompose(matrix)
    np.testing.assert_allclose(schmidt.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert schmidt.non_unique


def test_schmidt_distinct_coefficients_unique():
    matrix = np.diag([np.sqrt(0.9), np.sqrt(0.1)]).astype(complex)
    assert not schmidt_decompose(matrix).non_unique


def test_schmidt_reconstruction_random(rng):
    for _ in range(25):
        raw = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        matrix = raw / np.linalg.norm(raw)
        schmidt = schmidt_decompose(matrix)
        rebuilt = (schmidt.system_states * schmidt.coefficients) @ schmidt.apparatus_states.T
        assert np.max(np.abs(rebuilt - matrix)) < 1e-10
        assert np.all(np.diff(schmidt.coefficients) <= 0)
        assert abs(np.sum(schmidt.coefficients**2) - 1.0) < 1e-12
        for states in (schmidt.system_states, schmidt.apparatus_states):
            gram = states.conj().T @ states
            assert np.max(np.abs(gram - np.eye(states.shape[1]))) < 1e-10


def test_schmidt_coefficients_local_unitary_invariant(rng):
    for _ in range(10):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        matrix = raw / np.linalg.norm(raw)
        base = schmidt_decompose(matrix).coefficients
        left = random_unitary(rng, 3)
        right = random_unitary(rng, 3)
        # Local unitaries act as matrix @ transpose on the amplitude matrix.
        rotated = schmidt_decompose(left @ matrix @ right.T).coefficients
        np.testing.assert_allclose(np.sort(rotated), np.sort(base), atol=1e-10)


# --- results frozen by their producer ------------------------------------------------


def assert_read_only(*arrays):
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0


def test_eigensystem_arrays_are_read_only(rng):
    # Generic, with a degenerate cluster re-based, and all one cluster; the propagators too.
    for matrix in (random_hermitian_matrix(rng, 4), np.diag([1.0, 1.0, 2.0]), np.zeros((3, 3))):
        system = hermitian_eigensystem(HermitianOperator(matrix))
        assert_read_only(system.eigenvalues, system.eigenvectors, system.propagator(0.3))
        assert_read_only(unitary_exponential(HermitianOperator(matrix), 0.3))


def test_schmidt_arrays_are_read_only(rng):
    # Full rank, rank-deficient (views of part of svd's outputs) and wide.
    full = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    low_rank = np.outer(rng.standard_normal(3), rng.standard_normal(4)).astype(complex)
    wide = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    for matrix in (full, low_rank, wide):
        schmidt = schmidt_decompose(matrix / np.linalg.norm(matrix))
        assert_read_only(schmidt.coefficients, schmidt.system_states, schmidt.apparatus_states)


# --- rejection paths of the shared input checks -------------------------------------

NAN = float("nan")
UNIT = np.array([1.0, 0.0])
SKEWED = np.array([[1.0, 1.0], [0.0, 0.0]])  # idempotent, not Hermitian


def _decomposition(projector) -> ProjectiveDecomposition:
    return ProjectiveDecomposition((Outcome("a", 0.0, projector), Outcome("b", 1.0, np.eye(2) - projector)))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: StateVector([NAN, 0.0]), "state"),
        (lambda: StateVector([[1.0, 0.0]]), "state"),
        (lambda: StateVector([1.0, 1.0]), "state"),
        (lambda: HermitianOperator([[NAN, 0.0], [0.0, 1.0]]), "Hermitian operator"),
        (lambda: HermitianOperator([1.0, 0.0]), "Hermitian operator"),
        (lambda: HermitianOperator(np.zeros((2, 3))), "Hermitian operator"),
        (lambda: Outcome("a", 0.0, [[NAN, 0.0], [0.0, 0.0]]), "projector for 'a'"),
        (lambda: Outcome("a", 0.0, [1.0, 0.0]), "projector for 'a'"),
        (lambda: Outcome("a", 0.0, np.zeros((2, 3))), "projector for 'a'"),
        (lambda: _decomposition(np.diag([0.5, 0.0])), "projector for 'a'"),
        (lambda: _decomposition(SKEWED), "projector for 'a'"),
        (lambda: schmidt_decompose([[NAN, 0.0], [0.0, 0.0]]), "bipartite amplitudes"),
        (lambda: schmidt_decompose(UNIT), "bipartite amplitudes"),
        (lambda: schmidt_decompose(np.ones((2, 2))), "bipartite amplitudes"),
        (lambda: JointState([[NAN, 0.0], [0.0, 0.0]]), "joint amplitudes"),
        (lambda: JointState(UNIT), "joint amplitudes"),
        (lambda: JointState(np.ones((2, 2))), "joint state"),
    ],
    ids=[
        f"{target}-{defect}"
        for target, defects in [
            ("StateVector", ["non-finite", "ndim", "norm"]),
            ("HermitianOperator", ["non-finite", "ndim", "square"]),
            ("Outcome", ["non-finite", "ndim", "square"]),
            ("ProjectiveDecomposition", ["not-idempotent", "not-hermitian"]),
            ("schmidt_decompose", ["non-finite", "ndim", "norm"]),
            ("JointState", ["non-finite", "ndim", "norm"]),
        ]
        for defect in defects
    ],
)
def test_invalid_input_is_rejected_naming_the_object(build, name):
    with pytest.raises(InvariantViolation, match=re.escape(name)):
        build()


@pytest.mark.parametrize(
    "build",
    [_decomposition],
    ids=["ProjectiveDecomposition"],
)
def test_projector_check_reports_both_defects(build):
    with pytest.raises(InvariantViolation, match="not a projector") as excinfo:
        build(np.array([[0.5, 1.0], [0.0, 0.0]]))
    message = str(excinfo.value)
    assert "hermiticity defect 1.000e+00" in message
    assert "idempotency defect 5.000e-01" in message


# One build per guarded check; each puts `x` into a single entry of its input.
ENTRY_GUARDED = [
    lambda x: StateVector([x, 0.0]),
    lambda x: _decomposition(np.array([[0.5, x], [x, 0.5]])),
    lambda x: premeasurement_joint([x, 0.0]),
    lambda x: rebase_joint(premeasurement_joint([1.0, 0.0]), np.array([[x, 0.0], [0.0, 1.0]])),
]
ENTRY_GUARDED_IDS = ["unit-norm", "projector", "unit-power", "orthonormal-basis"]


@pytest.mark.parametrize("build", ENTRY_GUARDED, ids=ENTRY_GUARDED_IDS)
def test_huge_entry_is_rejected_before_its_check_overflows(build):
    # RuntimeWarnings are errors under the suite's filterwarnings, so an overflowing product fails here.
    with pytest.raises(InvariantViolation, match="entry of magnitude 1.000e\\+300"):
        build(1e300)


@pytest.mark.parametrize("build", ENTRY_GUARDED, ids=ENTRY_GUARDED_IDS)
def test_entry_bound_rejects_only_what_its_check_already_rejects(monkeypatch, build):
    # Just past the bound nothing overflows, so the check behind the guard can judge the input alone.
    past_bound = np.nextafter(linalg.ENTRY_BOUND, math.inf)
    with pytest.raises(InvariantViolation, match="entry of magnitude"):
        build(past_bound)
    monkeypatch.setattr(linalg, "ENTRY_BOUND", math.inf)
    with pytest.raises(InvariantViolation) as excinfo:
        build(past_bound)
    assert "entry of magnitude" not in str(excinfo.value)


# --- screens in front of the per-entry scans -------------------------------------------

PAST_BOUND = float(np.nextafter(linalg.ENTRY_BOUND, math.inf))
BELOW_BOUND = float(np.nextafter(linalg.ENTRY_BOUND, 0.0))
SCREENED_ENTRIES = [
    0.5, BELOW_BOUND, linalg.ENTRY_BOUND, PAST_BOUND, -1j * PAST_BOUND, 1e200, -1e300j,
    math.inf, -math.inf, complex(0.5, math.inf), complex(0.5, -math.inf), NAN, complex(0.5, NAN),
]


def _screened_layouts(x) -> list[np.ndarray]:
    """Arrays holding `x` once (or everywhere): 1-D and 2-D, contiguous, transposed, strided, empty."""
    base = np.full((5, 6), 0.1 + 0.05j)
    base[2, 3] = x
    return [base, base[2], base.T, base[::2, ::3], base[2, ::3], base[:0], base[2, :0], np.full((3, 4), x)]


def _rejection(call) -> str | None:
    """The InvariantViolation message of call(), or None; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except InvariantViolation as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("x", SCREENED_ENTRIES, ids=repr)
def test_screens_reject_exactly_what_the_per_entry_scans_reject(x):
    for arr in _screened_layouts(x):
        for reference, screened in [
            (as_complex_array_reference, linalg.as_complex_array),
            (check_entry_bound_reference, linalg.check_entry_bound),
        ]:
            args = (arr, arr.ndim, "array") if screened is linalg.as_complex_array else (arr, "array", "projector")
            assert _rejection(lambda: screened(*args)) == _rejection(lambda: reference(*args))


# --- vectorized phase and rebase kernels against the per-column loops -------------------

KERNEL_DIMS = [2, 8, 32, 64]


def _near_negligible(rng, size) -> np.ndarray:
    """Entries within an ulp or two of |z| = NEGLIGIBLE, where np.abs and the scalar abs can disagree."""
    ulps = rng.integers(-2, 3, size) * 2.0**-52
    return linalg.NEGLIGIBLE * np.exp(2j * np.pi * rng.uniform(size=size)) * (1 + ulps)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_phase_kernel_matches_the_scalar_loop(dim):
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m[0] *= 1e-13  # every leading entry is at or below NEGLIGIBLE
    m[: dim // 2, dim // 2] = linalg.NEGLIGIBLE  # exactly at it
    m[: dim - 1, 0] = _near_negligible(rng, dim - 1)
    m[:, -1] = _near_negligible(rng, dim) * 0.5  # an all-negligible column
    straddling = _near_negligible(rng, 4096).reshape(64, 64)
    for matrix in (m, straddling):
        expected = np.column_stack([fix_global_phase_reference(column) for column in matrix.T])
        np.testing.assert_array_equal(matrix * linalg.canonical_phases(matrix), expected)
        for k in range(matrix.shape[1]):
            column = matrix[:, k]
            np.testing.assert_array_equal(column * linalg.canonical_phases(column[:, None])[0], expected[:, k])


def _hamiltonians(rng, dim) -> list[np.ndarray]:
    """Generic, degenerate-cluster and block-diagonal (leading entries ~0) Hermitian matrices."""
    u = random_unitary(rng, dim)
    spectrum = np.repeat(np.arange(dim // 2 + 1.0), 2)[:dim]  # clusters of two
    block = np.zeros((dim, dim), dtype=complex)
    block[0, 0] = 5.0
    block[1:, 1:] = random_hermitian_matrix(rng, dim - 1)
    return [random_hermitian_matrix(rng, dim), u @ np.diag(spectrum) @ u.conj().T, np.diag(spectrum), block]


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_eigensystem_phases_match_the_per_column_loop(dim):
    for h in _hamiltonians(np.random.default_rng(dim), dim):
        operator = HermitianOperator((h + h.conj().T) / 2)
        eig = hermitian_eigensystem(operator)
        values, vectors = eigensystem_reference(operator)
        np.testing.assert_array_equal(eig.eigenvalues, values)
        np.testing.assert_array_equal(eig.eigenvectors, vectors)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_certified_decides_as_the_former_norm_expression(dim):
    """The in-place Gram defect and math.sqrt of its vdot decide as np.linalg.norm(V^H V - np.eye) did,
    on the random and clustered spectra above with eigenvectors scaled by 1 + s across the bound."""
    decisions = set()
    for h in _hamiltonians(np.random.default_rng(dim), dim):
        system = hermitian_eigensystem(HermitianOperator((h + h.conj().T) / 2))
        for scale in (0.0, 1e-12, 5e-12, 1e-11, 2e-11, 1e-10, 1e-6):
            vectors = system.eigenvectors * (1.0 + scale)
            expected = certified_reference(vectors)
            assert linalg.Eigensystem(system.eigenvalues, vectors).certified == expected
            decisions.add(expected)
    assert decisions == {True, False}


def _joints(rng, dim) -> list[np.ndarray]:
    """Unit-norm amplitude matrices: generic, rank-deficient, with a zero first row, and wide (d/2 x d)."""
    generic = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    low_rank = generic[:, :1] @ generic[:1, :] + generic[:, 1:2] @ generic[1:2, :]
    zero_lead = generic.copy()
    zero_lead[0] = 0.0
    wide = generic[: max(dim // 2, 1)]
    return [m / np.linalg.norm(m) for m in (generic, low_rank, zero_lead, wide)]


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_schmidt_phases_match_the_per_column_loop(dim):
    for matrix in _joints(np.random.default_rng(dim), dim):
        schmidt = schmidt_decompose(matrix)
        coefficients, system, apparatus, non_unique = schmidt_reference(matrix)
        np.testing.assert_array_equal(schmidt.coefficients, coefficients)
        np.testing.assert_array_equal(schmidt.system_states, system)
        np.testing.assert_array_equal(schmidt.apparatus_states, apparatus)
        assert schmidt.non_unique == non_unique


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_rebase_matches_the_per_column_loop(dim):
    rng = np.random.default_rng(dim)
    coefficients = np.zeros(dim, dtype=complex)
    coefficients[: dim // 2] = 1e-14  # weights at or below NEGLIGIBLE: zero relative states
    coefficients[: max(dim // 4, 1)] = 1.0  # the rest are zero-weight columns
    sparse = premeasurement_joint(coefficients / np.linalg.norm(coefficients))
    for joint in [sparse, JointState.from_amplitudes(_joints(rng, dim)[1])]:
        for basis in (np.eye(dim), random_unitary(rng, dim)):
            rebased = rebase_joint(joint, basis)
            weights, relative, score = rebase_reference(joint, basis)
            np.testing.assert_array_equal(rebased.coefficients, weights)
            np.testing.assert_array_equal(rebased.relative_states, relative)
            assert rebased.orthogonality_score == min(max(score, 0.0), 1.0)


# --- projector_weights -----------------------------------------------------------


def _weight_slack(dim: int) -> float:
    """The derived reach of an accepted pair past [0, 1] (projector_weights' docstring)."""
    t = linalg.ALGEBRA_TOL
    return dim * t * (2 + dim * t) + 3 * linalg.CONSTRUCTION_TOL


@pytest.mark.parametrize("dim", [2, 3, 64])
def test_projector_weights_clamp_what_an_accepted_pair_can_give(dim):
    # diag(-5e-11, 1, ...) and diag(1 + 5e-11, 0, ...) pass every decomposition check at ALGEBRA_TOL.
    low = np.diag([-5e-11, 1.0] + [0.0] * (dim - 2)).astype(complex)
    high = np.diag([1.0 + 5e-11] + [0.0] * (dim - 1)).astype(complex)
    rest = np.eye(dim) - np.diag([0.0, 1.0] + [0.0] * (dim - 2)) - np.diag([1.0] + [0.0] * (dim - 1))
    outcomes = [Outcome("low", 0.0, low), Outcome("high", 1.0, high)]
    if dim > 2:
        outcomes.append(Outcome("rest", 2.0, rest))
    observable = ProjectiveDecomposition(tuple(outcomes))
    state = np.eye(dim, dtype=complex)[0]
    weights = linalg.projector_weights(state, observable.images(state))
    assert weights.tolist()[:2] == [0.0, 1.0]
    for sign, offset in ((-1, 0.0), (1, 1.0)):
        within = np.array([[offset + sign * 0.99 * _weight_slack(dim)] + [0.0] * (dim - 1)], dtype=complex)
        assert linalg.projector_weights(state, within).tolist() == [offset]
        past = np.array([[offset + sign * 1.01 * _weight_slack(dim)] + [0.0] * (dim - 1)], dtype=complex)
        with pytest.raises(InvariantViolation, match="falls outside"):
            linalg.projector_weights(state, past)


def test_projector_weights_refuse_an_impossible_weight():
    state = np.array([1.0, 0.0], dtype=complex)
    for weight in (-1e-6, 1.0 + 1e-6, -0.5, 2.0):
        with pytest.raises(InvariantViolation, match=re.escape(f"projector weight {weight!r} falls outside [0, 1]")):
            linalg.projector_weights(state, np.array([[weight, 0.0]], dtype=complex))
