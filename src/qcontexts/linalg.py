"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigensystems, unitary exponentials, tensor products, projector
application, and singular-value (biorthogonal) decomposition, all on plain
numpy arrays. Scope is desk scale — dimensions up to a few dozen — so every
routine favors exactness and reproducibility over asymptotic speed:
exponentials go through the eigendecomposition rather than a series, and
degenerate eigenspaces are re-based deterministically so that equal inputs
always produce identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

# Construction-time tolerance for type invariants, and the looser tolerance
# for algebraic identities; double precision leaves ample headroom for both
# at the dimensions in scope.
CONSTRUCTION_TOL = 1e-12
ALGEBRA_TOL = 1e-10

# Two decomposition coefficients closer than this make the biorthogonal
# decomposition non-unique.
COEFFICIENT_DEGENERACY_TOL = 1e-9

# Relative eigenvalue gap below which a cluster counts as degenerate and is
# re-based deterministically. Kept far under ALGEBRA_TOL: mixing eigenvectors
# across a wider cluster would break the eigenresidual contract.
_CLUSTER_TOL = 1e-12

# Amplitudes at or below this are treated as zero when fixing global phases
# and truncating ranks.
NEGLIGIBLE = 1e-12


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2:
        raise InvariantViolation(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvariantViolation(f"{name} contains non-finite entries")
    return arr


def as_complex_vector(entries, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D complex array, rejecting non-finite entries."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 1:
        raise InvariantViolation(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvariantViolation(f"{name} contains non-finite entries")
    return arr


def max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-entry distance from the conjugate transpose."""
    return max_abs(matrix - matrix.conj().T)


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Defensive copy with the write flag cleared."""
    out = arr.copy()
    out.setflags(write=False)
    return out


def fix_global_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first non-negligible entry is real-positive."""
    for entry in vector:
        if abs(entry) > NEGLIGIBLE:
            return vector * (entry.conjugate() / abs(entry))
    return vector


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite Hermitian matrix; carrier for observables and Hamiltonians."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "Hermitian operator")
        if m.shape[0] != m.shape[1]:
            raise InvariantViolation(f"Hermitian operator must be square, got shape {m.shape}")
        defect = hermiticity_defect(m)
        if defect > CONSTRUCTION_TOL:
            raise InvariantViolation(
                f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {CONSTRUCTION_TOL:.0e}"
            )
        object.__setattr__(self, "matrix", frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_zero(self) -> bool:
        return max_abs(self.matrix) == 0.0

    @classmethod
    def zero(cls, dim: int) -> "HermitianOperator":
        return cls(np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class UnitaryMap:
    """A matrix verified unitary at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "unitary map")
        if m.shape[0] != m.shape[1]:
            raise InvariantViolation(f"unitary map must be square, got shape {m.shape}")
        defect = max_abs(m @ m.conj().T - np.eye(m.shape[0]))
        if defect > ALGEBRA_TOL:
            raise InvariantViolation(
                f"matrix is not unitary: max defect of U U^dag from identity is {defect:.3e}"
            )
        object.__setattr__(self, "matrix", frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Ascending real eigenvalues paired with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=float)
        vectors = as_complex_matrix(self.eigenvectors, "eigenvectors")
        if values.ndim != 1 or vectors.shape != (values.size, values.size):
            raise InvariantViolation("eigensystem shapes disagree")
        if np.any(np.diff(values) < 0):
            raise InvariantViolation("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", frozen_copy(values))
        object.__setattr__(self, "eigenvectors", frozen_copy(vectors))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def exponential(self, duration: float) -> UnitaryMap:
        """exp(-i H t) for the operator H this eigensystem decomposes (hbar = 1)."""
        if not np.isfinite(duration):
            raise InvariantViolation("duration must be finite")
        phases = np.exp(-1j * self.eigenvalues * duration)
        return UnitaryMap((self.eigenvectors * phases) @ self.eigenvectors.conj().T)


def orthonormal_extend(basis: list[np.ndarray], candidates: np.ndarray, size: int) -> list[np.ndarray]:
    """Grow orthonormal vectors `basis` (in place) toward `size` from candidate columns.

    Candidates are taken in column order, Gram-Schmidt orthogonalized
    against what is held (two passes, for stability) and kept when more
    than 1e-7 survives; stops once `size` vectors are held. The caller
    checks for a shortfall.
    """
    for j in range(candidates.shape[1]):
        if len(basis) >= size:
            break
        v = candidates[:, j].copy()
        for _ in range(2):
            for u in basis:
                v -= np.vdot(u, v) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-7:
            basis.append(v / norm)
    return basis


def hermitian_eigensystem(operator: HermitianOperator) -> Eigensystem:
    """Eigendecomposition with deterministic degenerate-cluster handling.

    Within a degenerate cluster the eigenvectors coming back from LAPACK are
    an arbitrary orthonormal set; they are replaced by standard-basis
    projections orthonormalized in index order, and every eigenvector's
    global phase is fixed, so repeated runs emit identical output.
    """
    values, vectors = np.linalg.eigh(operator.matrix)
    scale = max(1.0, max_abs(values))
    out = vectors.copy()
    n = values.size
    i = 0
    while i < n:
        j = i + 1
        while j < n and values[j] - values[j - 1] <= _CLUSTER_TOL * scale:
            j += 1
        if j - i > 1:
            # Pathologically conditioned projections fall short; keep the solver's choice.
            cluster = out[:, i:j]
            span = orthonormal_extend([], cluster @ cluster.conj().T, j - i)
            if len(span) == j - i:
                out[:, i:j] = np.column_stack(span)
        for k in range(i, j):
            out[:, k] = fix_global_phase(out[:, k])
        i = j
    return Eigensystem(values, out)


def unitary_exponential(operator: HermitianOperator, duration: float) -> UnitaryMap:
    """exp(-i H t) with hbar = 1, computed through the eigendecomposition."""
    return hermitian_eigensystem(operator).exponential(duration)


def tensor_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kronecker product of two unit vectors; amplitude (j, k) lands at index j*dim(right)+k."""
    u = as_complex_vector(left, "left factor")
    v = as_complex_vector(right, "right factor")
    for name, vec in (("left factor", u), ("right factor", v)):
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > CONSTRUCTION_TOL:
            raise InvariantViolation(f"{name} must be unit norm, got norm {norm!r}")
    return np.kron(u, v)


def apply_projector(projector: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply an orthogonal projector to a unit vector.

    Returns the unnormalized image P|s> and the weight <s|P|s>, clamped to
    [0, 1]. Rejects matrices that are not projectors (Hermitian idempotents)
    within the algebraic tolerance.
    """
    p = as_complex_matrix(projector, "projector")
    s = as_complex_vector(state, "state")
    if p.shape != (s.size, s.size):
        raise InvariantViolation(f"projector shape {p.shape} does not match state dimension {s.size}")
    defect_h = hermiticity_defect(p)
    defect_i = max_abs(p @ p - p)
    if defect_h > ALGEBRA_TOL or defect_i > ALGEBRA_TOL:
        raise InvariantViolation(
            f"not a projector: hermiticity defect {defect_h:.3e}, idempotency defect {defect_i:.3e}"
        )
    norm = float(np.linalg.norm(s))
    if abs(norm - 1.0) > CONSTRUCTION_TOL:
        raise InvariantViolation(f"state must be unit norm, got norm {norm!r}")
    return projector_image(p, s)


def projector_image(projector: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, float]:
    """apply_projector for a pair already validated (a decomposition's projector, a
    StateVector's amplitudes): only the weight's range is checked before the clamp."""
    image = projector @ state
    weight = float(np.real(np.vdot(state, image)))
    if weight < -CONSTRUCTION_TOL or weight > 1.0 + CONSTRUCTION_TOL:
        raise InvariantViolation(f"projector weight {weight!r} falls outside [0, 1]")
    return image, min(max(weight, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal expansion of a bipartite amplitude matrix.

    Coefficients are descending and nonnegative; column k of system_states
    pairs with column k of apparatus_states. non_unique is set when this is
    not the only expansion of its kind: two coefficients agree within 1e-9,
    or the matrix is rank-deficient so some paired directions are arbitrary.
    """

    coefficients: np.ndarray
    system_states: np.ndarray
    apparatus_states: np.ndarray
    non_unique: bool

    def __post_init__(self):
        object.__setattr__(self, "coefficients", frozen_copy(np.asarray(self.coefficients, dtype=float)))
        object.__setattr__(self, "system_states", frozen_copy(np.asarray(self.system_states, dtype=complex)))
        object.__setattr__(self, "apparatus_states", frozen_copy(np.asarray(self.apparatus_states, dtype=complex)))

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> np.ndarray:
        """Rebuild the amplitude matrix sum_k c_k a_k alpha_k^T."""
        return (self.system_states * self.coefficients) @ self.apparatus_states.T


def schmidt_decompose(amplitudes: np.ndarray) -> SchmidtDecomposition:
    """Singular-value decomposition of a unit-norm bipartite amplitude matrix.

    Entry (i, j) of the input is the amplitude on system index i, apparatus
    index j. Zero coefficients are truncated; phases are fixed on the system
    side (first non-negligible entry real-positive) with the compensating
    phase pushed into the apparatus vector, so output is deterministic and
    the reconstruction identity is exact to round-off.
    """
    matrix = as_complex_matrix(amplitudes, "bipartite amplitudes")
    frobenius = float(np.linalg.norm(matrix))
    if abs(frobenius - 1.0) > CONSTRUCTION_TOL:
        raise InvariantViolation(
            f"bipartite amplitudes must have unit Frobenius norm, got {frobenius!r}"
        )
    left, values, right_h = np.linalg.svd(matrix, full_matrices=False)
    full = min(matrix.shape)
    rank = max(int(np.sum(values > NEGLIGIBLE)), 1)
    adjacent_close = bool(np.any(values[:-1] - values[1:] <= COEFFICIENT_DEGENERACY_TOL)) if full > 1 else False
    non_unique = adjacent_close or rank < full
    coefficients = values[:rank].copy()
    system_states = left[:, :rank].copy()
    apparatus_states = right_h[:rank, :].T.copy()
    for k in range(rank):
        for entry in system_states[:, k]:
            if abs(entry) > NEGLIGIBLE:
                phase = entry.conjugate() / abs(entry)
                system_states[:, k] = system_states[:, k] * phase
                apparatus_states[:, k] = apparatus_states[:, k] * phase.conjugate()
                break
    return SchmidtDecomposition(coefficients, system_states, apparatus_states, non_unique)
