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

# No unit vector, unit-power coefficient list, orthonormal column or projector
# (a Hermitian p with one has p^2 - p > 2 on its diagonal) has an entry past
# this, so checking it first keeps a sure failure's products from overflowing.
ENTRY_BOUND = 2.0


def as_complex_array(entries, ndim: int, name: str, square: bool = False) -> np.ndarray:
    """Coerce to an ndim-D complex array of finite entries, square if asked."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != ndim:
        raise InvariantViolation(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{name} contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"{name} must be square, got shape {arr.shape}")
    return arr


def max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-entry distance from the conjugate transpose."""
    return max_abs(matrix - matrix.conj().T)


def check_entry_bound(arr: np.ndarray, name: str, kind: str) -> None:
    """Reject an array with an entry past ENTRY_BOUND, which no `kind` has."""
    largest = max_abs(arr)
    if largest > ENTRY_BOUND:
        raise InvariantViolation(f"{name} has an entry of magnitude {largest:.3e} > {ENTRY_BOUND:g}; no {kind} has one")


def check_unit_norm(arr: np.ndarray, name: str) -> None:
    """Reject a vector (matrix) whose 2-norm (Frobenius norm) is not 1 within CONSTRUCTION_TOL."""
    check_entry_bound(arr, name, "unit vector")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > CONSTRUCTION_TOL:
        raise InvariantViolation(f"{name} must be unit norm within {CONSTRUCTION_TOL:.0e}, got norm {norm!r}")


def check_projector(p: np.ndarray, name: str) -> None:
    """Reject a matrix that is not a Hermitian idempotent within ALGEBRA_TOL."""
    check_entry_bound(p, name, "projector")
    defect_h = hermiticity_defect(p)
    defect_i = max_abs(p @ p - p)
    if defect_h > ALGEBRA_TOL or defect_i > ALGEBRA_TOL:
        raise InvariantViolation(
            f"{name} is not a projector: hermiticity defect {defect_h:.3e}, idempotency defect {defect_i:.3e}"
        )


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
        m = as_complex_array(self.matrix, 2, "Hermitian operator", square=True)
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
        m = as_complex_array(self.matrix, 2, "unitary map", square=True)
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
        vectors = as_complex_array(self.eigenvectors, 2, "eigenvectors")
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
    u = as_complex_array(left, 1, "left factor")
    v = as_complex_array(right, 1, "right factor")
    check_unit_norm(u, "left factor")
    check_unit_norm(v, "right factor")
    return np.kron(u, v)


def apply_projector(projector: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply an orthogonal projector to a unit vector.

    Returns the unnormalized image P|s> and the weight <s|P|s>, clamped to
    [0, 1]. Rejects matrices that are not projectors (Hermitian idempotents)
    within the algebraic tolerance.
    """
    p = as_complex_array(projector, 2, "projector argument")
    s = as_complex_array(state, 1, "state")
    if p.shape != (s.size, s.size):
        raise InvariantViolation(f"projector shape {p.shape} does not match state dimension {s.size}")
    check_projector(p, "projector argument")
    check_unit_norm(s, "state")
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
    matrix = as_complex_array(amplitudes, 2, "bipartite amplitudes")
    check_unit_norm(matrix, "bipartite amplitudes")
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
