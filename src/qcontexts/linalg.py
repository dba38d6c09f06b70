"""Dense complex linear algebra for small Hilbert spaces.

Input checks, Hermitian eigensystems and their propagators, projector
images and singular-value (biorthogonal) decomposition, all on plain numpy
arrays. Scope is desk scale — dimensions up to a few dozen — so every
routine favors exactness and reproducibility over asymptotic speed:
exponentials go through the eigendecomposition rather than a series, and
degenerate eigenspaces are re-based deterministically so that equal inputs
always produce identical matrices. Its types are identity-compared records.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvariantViolation
from .records import Record

# Construction-time tolerance for type invariants, and the looser tolerance
# for algebraic identities; double precision leaves ample headroom for both
# at the dimensions in scope.
CONSTRUCTION_TOL = 1e-12
ALGEBRA_TOL = 1e-10

# Slack under ALGEBRA_TOL for a certified bound (a propagator's, a projector's, a pair's or a sum's):
# far above the ~1e-14 round-off of the bound or of the product it stands in for.
CERTIFY_MARGIN = 1e-12

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

# A sum of squared magnitudes at most this leaves no entry past ENTRY_BOUND, with
# a 25% margin over the sum's round-off: the Frobenius norm bounds every entry.
ENTRY_SCREEN = ENTRY_BOUND**2 - 1


def as_complex_array(entries, ndim: int, name: str, square: bool = False) -> np.ndarray:
    """Coerce to an ndim-D complex array of finite entries, square if asked. IEEE + and x carry
    an inf or nan into the BLAS sum of squares vdot(arr, arr), whose real part adds no negative
    term, so the per-entry scan runs only when it is not finite (or finite squares overflow)."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != ndim:
        raise InvariantViolation(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not math.isfinite(np.vdot(arr, arr).real) and not np.isfinite(arr).all():
        raise InvariantViolation(f"{name} contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"{name} must be square, got shape {arr.shape}")
    return arr


def max_abs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-entry distance from the conjugate transpose."""
    return max_abs(matrix - matrix.conj().T)


def check_entry_bound(arr: np.ndarray, name: str, kind: str) -> None:
    """Reject an array with an entry past ENTRY_BOUND, which no `kind` has; a sum of
    squares at most ENTRY_SCREEN clears it without the per-entry scan."""
    if np.vdot(arr, arr).real <= ENTRY_SCREEN:
        return
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
    square = p @ p
    square -= p
    defect_i = max_abs(square)
    if defect_h > ALGEBRA_TOL or defect_i > ALGEBRA_TOL:
        raise InvariantViolation(
            f"{name} is not a projector: hermiticity defect {defect_h:.3e}, idempotency defect {defect_i:.3e}"
        )


def check_unitary(u: np.ndarray) -> None:
    """Reject a square matrix whose max|U U^H - I| is past ALGEBRA_TOL (or not a number)."""
    defect = max_abs(u @ u.conj().T - np.eye(u.shape[0]))
    if not defect <= ALGEBRA_TOL:
        raise InvariantViolation(f"matrix is not unitary: max defect of U U^dag from identity is {defect:.3e}")


def read_only(arr: np.ndarray) -> np.ndarray:
    """Clear the write flag, in place, of an array no one else holds; returns it."""
    arr.setflags(write=False)
    return arr


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Defensive copy with the write flag cleared, for an array that may alias a caller's."""
    return read_only(arr.copy())


def canonical_phases(columns: np.ndarray) -> np.ndarray:
    """Per column, conj(a) / |a| for its first entry a with |a| > NEGLIGIBLE (1 if none), the
    phase that makes a real-positive. np.hypot is the scalar abs bit for bit and decides; np.abs,
    a few ulp off it, only screens, and an entry hypot rejects leaves the screen for a new search."""
    if not columns.shape[0]:
        return np.ones(columns.shape[1], dtype=complex)
    leading = columns[0]
    size = np.hypot(leading.real, leading.imag)
    if size.min(initial=math.inf) > NEGLIGIBLE:  # the usual case: every first entry decides, no scan
        return leading.conj() / size
    screen, cols = np.abs(columns) > NEGLIGIBLE * (1 - 1e-15), np.arange(columns.shape[1])
    while True:
        rows = screen.argmax(axis=0)
        leading = columns[rows, cols]
        size = np.hypot(leading.real, leading.imag)
        clear = size > NEGLIGIBLE
        if not (screen[rows, cols] > clear).any():  # no screened entry that hypot rejects
            return np.divide(leading.conj(), size, out=np.ones(cols.size, dtype=complex), where=clear)
        screen[rows, cols] = clear


class HermitianOperator(Record):
    """A finite Hermitian matrix; carrier for observables and Hamiltonians."""

    def __init__(self, matrix: np.ndarray):
        m = as_complex_array(matrix, 2, "Hermitian operator", square=True)
        with np.errstate(over="ignore"):  # finite entries near the double range: an inf defect, refused below
            defect = hermiticity_defect(m)
        if defect > CONSTRUCTION_TOL:
            raise InvariantViolation(
                f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {CONSTRUCTION_TOL:.0e}"
            )
        self.__dict__.update(matrix=frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_zero(self) -> bool:
        return max_abs(self.matrix) == 0.0


class Eigensystem(Record):
    """Ascending real eigenvalues paired with orthonormal eigenvector columns, read-only; made by
    hermitian_eigensystem. propagator forms exp(-i H t), unchecked when certified (decided once)."""

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.__dict__.update(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def certified(self) -> bool:
        """Whether every propagator passes check_unitary by CERTIFY_MARGIN: max|U U^H - I| <= e (2 + e)
        for e = ||V^H V - I||_F, as U U^H - I = (V V^H - I) + V D (V^H V - I) D^H V^H, V V^H has the
        spectrum of V^H V and ||V||_2^2 <= 1 + e."""
        gram = self.eigenvectors.conj().T @ self.eigenvectors
        gram.ravel()[:: self.dim + 1] -= 1  # V^H V - I, in place
        e = math.sqrt(np.vdot(gram, gram).real)
        return e * (2.0 + e) <= ALGEBRA_TOL - CERTIFY_MARGIN

    def propagator(self, duration: float) -> np.ndarray:
        """exp(-i H t) (hbar = 1), read-only, checked by check_unitary unless certified. The largest phase
        lambda t is tested, one scalar before np.exp, so one that is not finite is refused, not warned about."""
        largest = max_abs(self.eigenvalues)
        if not math.isfinite(largest * float(duration)):
            raise InvariantViolation(f"phase lambda t is not finite: max|lambda| {largest:.3e}, duration {duration!r}")
        phases = np.exp(-1j * self.eigenvalues * duration)
        u = (self.eigenvectors * phases) @ self.eigenvectors.conj().T
        if not self.certified:
            check_unitary(u)
        return read_only(u)


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
    global phase is fixed (canonical_phases), so repeated runs emit
    identical output.
    """
    values, out = np.linalg.eigh(operator.matrix)
    ends = [*np.flatnonzero(np.diff(values) > _CLUSTER_TOL * max(1.0, max_abs(values))) + 1, values.size]
    for i, j in zip([0, *ends], ends):
        if j - i > 1:
            # Pathologically conditioned projections fall short; keep the solver's choice.
            cluster = out[:, i:j]
            span = orthonormal_extend([], cluster @ cluster.conj().T, j - i)
            if len(span) == j - i:
                out[:, i:j] = np.column_stack(span)
    out *= canonical_phases(out)
    return Eigensystem(read_only(values), read_only(out))


def unitary_exponential(operator: HermitianOperator, duration: float) -> np.ndarray:
    """exp(-i H t) with hbar = 1, read-only, through the eigendecomposition (Eigensystem.propagator)."""
    return hermitian_eigensystem(operator).propagator(duration)


def projector_weights(state: np.ndarray, images: np.ndarray) -> np.ndarray:
    """<s|P_k|s> for rows images[k] = P_k|s> of validated pairs, by stacked dots (np.vdot bit for
    bit), clamped to [0, 1]; refused only past what such a pair gives. With t = ALGEBRA_TOL in
    dimension d, an accepted P's Hermitian part has eigenvalues with lambda^2 - lambda <=
    ||P^2 - P||_2 + ||(P - P^H) / 2||_2^2 <= d t + (d t / 2)^2, so in [-eta, 1 + eta], eta =
    d t (1 + d t / 4); s = U a, U unitary within t and a unit within CONSTRUCTION_TOL, has
    ||s||^2 <= 1 + d t + 2 CONSTRUCTION_TOL. So a weight lies within d t (2 + d t) +
    3 CONSTRUCTION_TOL of [0, 1], the last CONSTRUCTION_TOL for second-order terms and round-off."""
    weights = np.matmul(state.conj(), images[:, :, None])[:, 0].real
    slack = state.size * ALGEBRA_TOL * (2.0 + state.size * ALGEBRA_TOL) + 3 * CONSTRUCTION_TOL
    outside = (weights < -slack) | (weights > 1.0 + slack)
    if outside.any():
        raise InvariantViolation(f"projector weight {float(weights[outside][0])!r} falls outside [0, 1]")
    return np.clip(weights, 0.0, 1.0)


class SchmidtDecomposition(Record):
    """Biorthogonal expansion of a bipartite amplitude matrix, made by schmidt_svd.

    Coefficients are descending and nonnegative; column k of system_states pairs with column k
    of apparatus_states; the arrays are read-only. non_unique is set when this is not the only
    expansion of its kind: two coefficients agree within 1e-9, or the matrix is rank-deficient
    so some paired directions are arbitrary.
    """

    def __init__(
        self, coefficients: np.ndarray, system_states: np.ndarray, apparatus_states: np.ndarray, non_unique: bool
    ):
        self.__dict__.update(coefficients=coefficients, system_states=system_states)
        self.__dict__.update(apparatus_states=apparatus_states, non_unique=non_unique)


def schmidt_decompose(amplitudes: np.ndarray) -> SchmidtDecomposition:
    """schmidt_svd of a bipartite amplitude matrix, checked first: finite, 2-D, unit norm within 1e-12."""
    matrix = as_complex_array(amplitudes, 2, "bipartite amplitudes")
    check_unit_norm(matrix, "bipartite amplitudes")
    return schmidt_svd(matrix)


def schmidt_svd(matrix: np.ndarray) -> SchmidtDecomposition:
    """schmidt_decompose without its checks, for an amplitude matrix validated elsewhere.

    Entry (i, j) of the input is the amplitude on system index i, apparatus
    index j. Zero coefficients are truncated; phases are fixed on the system
    side (canonical_phases: first non-negligible entry real-positive) with the
    compensating phase pushed into the apparatus vector, so output is
    deterministic and the reconstruction identity is exact to round-off.
    """
    left, values, right_h = np.linalg.svd(matrix, full_matrices=False)
    full = min(matrix.shape)
    rank = max(int(np.sum(values > NEGLIGIBLE)), 1)
    adjacent_close = bool(np.any(values[:-1] - values[1:] <= COEFFICIENT_DEGENERACY_TOL)) if full > 1 else False
    non_unique = adjacent_close or rank < full
    system_states, apparatus_states = left[:, :rank], right_h[:rank, :].T  # views of svd's own fresh arrays
    phases = canonical_phases(system_states)
    system_states *= phases
    apparatus_states *= phases.conj()
    return SchmidtDecomposition(*map(read_only, (values[:rank], system_states, apparatus_states)), non_unique)
