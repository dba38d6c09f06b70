"""Tests for the dense linear-algebra layer."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts import (
    HermitianOperator,
    InvariantViolation,
    JointState,
    Outcome,
    ProjectiveDecomposition,
    StateVector,
    UnitaryMap,
    apply_projector,
    hermitian_eigensystem,
    schmidt_decompose,
    tensor_product,
    unitary_exponential,
)
from helpers import random_state, random_unitary

RNG = np.random.default_rng(20260811)


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


def test_eigensystem_reconstruction_random():
    for _ in range(25):
        h = random_hermitian_matrix(RNG, 4)
        eig = hermitian_eigensystem(HermitianOperator(h))
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(InvariantViolation, match="asymmetry"):
        hermitian_eigensystem(HermitianOperator(np.array([[0, 1], [0, 0]])))


def test_eigensystem_unitary_columns_and_trace():
    for dim in (2, 3, 4, 5):
        h = random_hermitian_matrix(RNG, dim)
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
    u = unitary_exponential(HermitianOperator.zero(3), 1.7)
    np.testing.assert_allclose(u.matrix, np.eye(3), atol=1e-12)


def test_exponential_half_period():
    # exp(-i * diag(1,-1) * pi) = diag(e^{-i pi}, e^{i pi}) = -identity.
    u = unitary_exponential(HermitianOperator(np.diag([1.0, -1.0])), np.pi)
    np.testing.assert_allclose(u.matrix, -np.eye(2), atol=1e-12)


def test_exponential_is_unitary():
    for _ in range(10):
        h = HermitianOperator(random_hermitian_matrix(RNG, 4))
        u = unitary_exponential(h, 0.7).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_exponential_composes():
    for _ in range(10):
        h = HermitianOperator(random_hermitian_matrix(RNG, 3))
        t1, t2 = RNG.uniform(-2, 2, size=2)
        whole = unitary_exponential(h, t1 + t2).matrix
        split = unitary_exponential(h, t1).matrix @ unitary_exponential(h, t2).matrix
        assert np.max(np.abs(whole - split)) < 1e-9


# --- tensor_product ----------------------------------------------------------


def test_tensor_basis_vectors():
    e0 = np.array([1.0, 0.0])
    out = tensor_product(e0, e0)
    np.testing.assert_allclose(out, [1, 0, 0, 0])


def test_tensor_superposition():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    e0 = np.array([1.0, 0.0])
    np.testing.assert_allclose(tensor_product(plus, e0), [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_tensor_norm_multiplicative(dim_u, dim_v, seed):
    rng = np.random.default_rng(seed)
    u = random_state(rng, dim_u).amplitudes
    v = random_state(rng, dim_v).amplitudes
    assert abs(np.linalg.norm(tensor_product(u, v)) - 1.0) < 1e-12


def test_tensor_rejects_unnormalized():
    with pytest.raises(InvariantViolation, match="unit norm"):
        tensor_product(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


# --- apply_projector ---------------------------------------------------------


def test_projector_on_superposition():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    s = np.array([1, 1]) / np.sqrt(2)
    image, weight = apply_projector(p, s)
    np.testing.assert_allclose(image, [1 / np.sqrt(2), 0])
    assert abs(weight - 0.5) < 1e-12


def test_projector_identity_and_orthogonal():
    s = np.array([0, 0, 1.0])
    image, weight = apply_projector(np.eye(3), s)
    np.testing.assert_allclose(image, s)
    assert weight == 1.0
    rank2 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    image, weight = apply_projector(rank2, s)
    np.testing.assert_allclose(image, [0, 0, 0])
    assert weight == 0.0


def test_projector_rejects_non_idempotent():
    with pytest.raises(InvariantViolation, match="not a projector"):
        apply_projector(np.diag([0.5, 0.0]), np.array([1.0, 0.0]))


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


def test_schmidt_reconstruction_random():
    for _ in range(25):
        raw = RNG.standard_normal((3, 4)) + 1j * RNG.standard_normal((3, 4))
        matrix = raw / np.linalg.norm(raw)
        schmidt = schmidt_decompose(matrix)
        assert np.max(np.abs(schmidt.reconstruct() - matrix)) < 1e-10
        assert np.all(np.diff(schmidt.coefficients) <= 0)
        assert abs(np.sum(schmidt.coefficients**2) - 1.0) < 1e-12
        for states in (schmidt.system_states, schmidt.apparatus_states):
            gram = states.conj().T @ states
            assert np.max(np.abs(gram - np.eye(states.shape[1]))) < 1e-10


def test_schmidt_coefficients_local_unitary_invariant():
    for _ in range(10):
        raw = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        matrix = raw / np.linalg.norm(raw)
        base = schmidt_decompose(matrix).coefficients
        left = random_unitary(RNG, 3)
        right = random_unitary(RNG, 3)
        # Local unitaries act as matrix @ transpose on the amplitude matrix.
        rotated = schmidt_decompose(left @ matrix @ right.T).coefficients
        np.testing.assert_allclose(np.sort(rotated), np.sort(base), atol=1e-10)


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
        (lambda: UnitaryMap([[NAN, 0.0], [0.0, 1.0]]), "unitary map"),
        (lambda: UnitaryMap([1.0, 0.0]), "unitary map"),
        (lambda: UnitaryMap(np.zeros((2, 3))), "unitary map"),
        (lambda: Outcome("a", 0.0, [[NAN, 0.0], [0.0, 0.0]]), "projector for 'a'"),
        (lambda: Outcome("a", 0.0, [1.0, 0.0]), "projector for 'a'"),
        (lambda: Outcome("a", 0.0, np.zeros((2, 3))), "projector for 'a'"),
        (lambda: _decomposition(np.diag([0.5, 0.0])), "projector for 'a'"),
        (lambda: _decomposition(SKEWED), "projector for 'a'"),
        (lambda: tensor_product([NAN, 0.0], UNIT), "left factor"),
        (lambda: tensor_product(UNIT, [[1.0, 0.0]]), "right factor"),
        (lambda: tensor_product([1.0, 1.0], UNIT), "left factor"),
        (lambda: apply_projector([[NAN, 0.0], [0.0, 0.0]], UNIT), "projector"),
        (lambda: apply_projector(np.eye(2), [[1.0, 0.0]]), "state"),
        (lambda: apply_projector(np.zeros((2, 3)), UNIT), "projector"),
        (lambda: apply_projector(np.eye(2), [1.0, 1.0]), "state"),
        (lambda: apply_projector(SKEWED, UNIT), "projector"),
        (lambda: schmidt_decompose([[NAN, 0.0], [0.0, 0.0]]), "bipartite amplitudes"),
        (lambda: schmidt_decompose(UNIT), "bipartite amplitudes"),
        (lambda: schmidt_decompose(np.ones((2, 2))), "bipartite amplitudes"),
        (lambda: JointState([[NAN, 0.0], [0.0, 0.0]], np.eye(2), np.eye(2)), "coefficient matrix"),
        (lambda: JointState(UNIT, np.eye(2), np.eye(2)), "coefficient matrix"),
        (lambda: JointState(np.ones((2, 2)), np.eye(2), np.eye(2)), "joint state"),
    ],
    ids=[
        f"{target}-{defect}"
        for target, defects in [
            ("StateVector", ["non-finite", "ndim", "norm"]),
            ("HermitianOperator", ["non-finite", "ndim", "square"]),
            ("UnitaryMap", ["non-finite", "ndim", "square"]),
            ("Outcome", ["non-finite", "ndim", "square"]),
            ("ProjectiveDecomposition", ["not-idempotent", "not-hermitian"]),
            ("tensor_product", ["non-finite", "ndim", "norm"]),
            ("apply_projector", ["non-finite", "ndim", "square", "norm", "not-hermitian"]),
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
    [lambda p: apply_projector(p, UNIT), _decomposition],
    ids=["apply_projector", "ProjectiveDecomposition"],
)
def test_projector_check_reports_both_defects(build):
    with pytest.raises(InvariantViolation, match="not a projector") as excinfo:
        build(np.array([[0.5, 1.0], [0.0, 0.0]]))
    message = str(excinfo.value)
    assert "hermiticity defect 1.000e+00" in message
    assert "idempotency defect 5.000e-01" in message
