"""States, projective observables, Born statistics, collapse, and evolution.

Observables are projective decompositions — labeled orthogonal projectors
resolving the identity — which strictly generalizes the nondegenerate case:
rank-1 outcomes recover textbook spectra, while rank > 1 outcomes collapse
by the Lüders convention P|s> / ||P|s>||. Every state returned by an
operation carries a canonical global phase (first non-negligible amplitude
real-positive) so equality testing is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossibleOutcomeError, InvariantViolation, ToleranceError, clipped_repr
from .linalg import (
    ALGEBRA_TOL,
    CERTIFY_MARGIN,
    NEGLIGIBLE,
    HermitianOperator,
    as_complex_array,
    check_entry_bound,
    check_projector,
    check_unit_norm,
    fix_global_phase,
    frozen_copy,
    max_abs,
    projector_weights,
    unitary_exponential,
)

# Probabilities may drift past [0, 1] by round-off; clamping beyond this is a bug.
CLAMP_TOL = 1e-9

# Outcomes at least this close to probability one count as certain.
CERTAINTY_TOL = 1e-9

# A decomposition multiplies out all its k(k-1)/2 projector pairs unless they
# number more than this; past it, the orthogonality certificate runs. Measured:
# k rank-1 outcomes at d = k build equally fast either way at k = 9 or 10
# (36 / 45 pairs), and 6x / 15x faster certified at k = 32 / 64.
CERTIFY_PAIRS = 36


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over a finite basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = as_complex_array(self.amplitudes, 1, "state amplitudes")
        if amps.size == 0:
            raise InvariantViolation("state must have at least one amplitude")
        check_unit_norm(amps, "state")
        object.__setattr__(self, "amplitudes", frozen_copy(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Rescale to unit norm; rejects vectors indistinguishable from zero."""
        amps = as_complex_array(amplitudes, 1, "state amplitudes")
        norm = float(np.linalg.norm(amps))
        if norm <= 1e-9:
            raise InvariantViolation(f"cannot normalize a near-zero vector (norm {norm!r})")
        return cls(amps / norm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


@dataclass(frozen=True, eq=False)
class Outcome:
    """One labeled value of an observable, with its orthogonal projector."""

    label: str
    value: float
    projector: np.ndarray

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise InvariantViolation("outcome label must be a nonempty string")
        if not np.isfinite(self.value):
            raise InvariantViolation(f"outcome value for {self.label!r} must be finite")
        proj = as_complex_array(self.projector, 2, f"projector for {self.label!r}", square=True)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "projector", frozen_copy(proj))

    @property
    def rank(self) -> int:
        return int(round(float(self.projector.diagonal().real.sum())))  # the trace


def _range_basis(p: np.ndarray, rank: int) -> tuple[np.ndarray, float]:
    """Orthonormal columns V for the range of projector p, and ||p - V V^H||_F.

    V is the QR factor of p's `rank` columns with the largest diagonal
    entries. Any orthonormal V keeps the certificate sound; a poor one only
    leaves more to check exactly.
    """
    diagonal = p.diagonal().real
    if rank == 1:  # one column normalized is its QR factor, and V V^H broadcasts: no LAPACK or BLAS call
        v = p[:, diagonal.argmax(), None]
        v = v / math.sqrt(np.vdot(v, v).real)
        outer = v * v.conj().T
    else:
        v = np.linalg.qr(p[:, np.argsort(diagonal)[p.shape[0] - rank :]])[0]
        outer = v @ v.conj().T
    residual = np.subtract(p, outer, out=outer)
    return v, math.sqrt(np.vdot(residual, residual).real)  # vdot flattens: the Frobenius norm


def _checked_basis(outcome: Outcome) -> tuple[np.ndarray, float] | None:
    """The projector's _range_basis (V, e), or None if its trace rounds outside [1, dim];
    check_projector runs unless 3e + e^2 <= ALGEBRA_TOL - CERTIFY_MARGIN."""
    p, name = outcome.projector, f"projector for {outcome.label!r}"
    check_entry_bound(p, name, "projector")  # before the trace or any product, which could overflow
    rank = outcome.rank
    basis = _range_basis(p, rank) if 1 <= rank <= p.shape[0] else None
    if basis is None or 3 * basis[1] + basis[1] ** 2 > ALGEBRA_TOL - CERTIFY_MARGIN:
        check_projector(p, name)
    return basis


def _uncertified(bases: list[tuple[np.ndarray, float] | None]):
    """The pairs (i, j), i < j in order, whose product P_i P_j must be formed, and whether the
    sum of all P_i must be: every pair and the sum when an outcome has no range basis (none
    has at or below CERTIFY_PAIRS); else those ProjectiveDecomposition's bounds do not clear."""
    if None in bases:
        return itertools.combinations(range(len(bases)), 2), True
    vs, errors = zip(*bases)
    w = np.hstack(vs)
    starts = np.cumsum([0, *(v.shape[1] for v in vs[:-1])])
    gram = w.conj().T @ w
    squares = np.abs(gram) ** 2
    block_norms = np.sqrt(np.add.reduceat(np.add.reduceat(squares, starts, axis=0), starts, axis=1))
    e = np.array(errors)
    bound = block_norms + e[:, None] + e[None, :] + np.outer(e, e)
    rows, cols = np.nonzero(np.triu(bound > ALGEBRA_TOL - CERTIFY_MARGIN, 1))
    square = w.shape[0] == w.shape[1]  # the ranks sum to dim
    sum_needed = not square or np.linalg.norm(gram - np.eye(len(gram))) + e.sum() > ALGEBRA_TOL - CERTIFY_MARGIN
    return zip(rows.tolist(), cols.tolist()), sum_needed


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Labeled orthogonal projectors resolving the identity.

    Each P_i is a Hermitian idempotent and outcomes i < j are orthogonal,
    max|P_i P_j| <= ALGEBRA_TOL. Past CERTIFY_PAIRS, one pass takes an
    orthonormal range basis V_i of each P_i and e_i = ||R_i||_F with
    R_i = P_i - V_i V_i^H (_checked_basis). Then max|P_i - P_i^H| <= 2 e_i,
    max|P_i^2 - P_i| <= 3 e_i + e_i^2 and max|P_i P_j| <= ||V_i^H V_j||_F +
    e_i + e_j + e_i e_j, every V_i^H V_j from one W^H W, W = [V_1 ... V_k].
    When the ranks sum to dim, W is square and sum_i P_i - I = (W W^H - I) +
    sum_i R_i, so max|sum_i P_i - I| <= ||W^H W - I||_F + sum_i e_i (W W^H - I
    has the spectrum of W^H W - I). A projector, pair or sum whose bound is at
    most ALGEBRA_TOL - CERTIFY_MARGIN would pass the exact test; every other is
    checked exactly, pairs in i < j order, then the sum: the accepted inputs,
    first failing check and message are those of the exact checks.
    """

    outcomes: tuple[Outcome, ...]
    labels: tuple[str, ...] = field(init=False, repr=False)  # set once, from the outcomes

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise InvariantViolation("decomposition needs at least one outcome")
        labels = tuple(o.label for o in outcomes)
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"outcome labels must be unique, got {clipped_repr(list(labels))}")
        dim = outcomes[0].projector.shape[0]
        certify = len(outcomes) * (len(outcomes) - 1) // 2 > CERTIFY_PAIRS
        bases = [None] * len(outcomes)
        for n, outcome in enumerate(outcomes):
            p = outcome.projector
            if p.shape != (dim, dim):
                raise InvariantViolation(f"projector for {outcome.label!r} has mismatched dimension")
            if certify:
                bases[n] = _checked_basis(outcome)
            else:
                check_projector(p, f"projector for {outcome.label!r}")
        pairs, sum_needed = _uncertified(bases)
        for i, j in pairs:
            a, b = outcomes[i], outcomes[j]
            if max_abs(a.projector @ b.projector) > ALGEBRA_TOL:
                raise InvariantViolation(f"projectors for {a.label!r} and {b.label!r} are not orthogonal")
        if sum_needed and max_abs(sum(o.projector for o in outcomes) - np.eye(dim)) > ALGEBRA_TOL:
            raise InvariantViolation("projectors do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.outcomes[0].projector.shape[0]

    def outcome(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        known = clipped_repr(list(self.labels))
        raise InvariantViolation(f"unknown outcome label {clipped_repr(label)}; known labels: {known}")

    def projector(self, label: str) -> np.ndarray:
        return self.outcome(label).projector

    def images(self, state: np.ndarray) -> np.ndarray:
        """Rows P_k|s>, one matvec per outcome."""
        return np.stack([o.projector @ state for o in self.outcomes])

    def conjugated(self) -> "ProjectiveDecomposition":
        """Entrywise complex conjugate of every projector (time-reversal companion)."""
        return ProjectiveDecomposition(
            tuple(Outcome(o.label, o.value, o.projector.conj()) for o in self.outcomes)
        )

    @classmethod
    def from_states(
        cls,
        states: list[StateVector] | tuple[StateVector, ...],
        labels: list[str] | tuple[str, ...] | None = None,
        values: list[float] | tuple[float, ...] | None = None,
    ) -> "ProjectiveDecomposition":
        """Rank-1 decomposition from orthonormal states spanning the space."""
        if not states:
            raise InvariantViolation("need at least one state")
        dim = states[0].dim
        if len(states) != dim:
            raise InvariantViolation(f"{len(states)} states cannot span dimension {dim}")
        if labels is None:
            labels = tuple(str(k) for k in range(dim))
        if values is None:
            values = tuple(float(k) for k in range(dim))
        outcomes = tuple(
            Outcome(label, value, np.outer(s.amplitudes, s.amplitudes.conj()))
            for s, label, value in zip(states, labels, values)
        )
        return cls(outcomes)


def pauli_z() -> ProjectiveDecomposition:
    """The {+1, -1} decomposition of sigma_z."""
    return ProjectiveDecomposition((
        Outcome("+1", 1.0, np.array([[1, 0], [0, 0]], dtype=complex)),
        Outcome("-1", -1.0, np.array([[0, 0], [0, 1]], dtype=complex)),
    ))


def pauli_x() -> ProjectiveDecomposition:
    """The {+1, -1} decomposition of sigma_x."""
    return ProjectiveDecomposition((
        Outcome("+1", 1.0, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)),
        Outcome("-1", -1.0, np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)),
    ))


def pauli_y() -> ProjectiveDecomposition:
    """The {+1, -1} decomposition of sigma_y."""
    return ProjectiveDecomposition((
        Outcome("+1", 1.0, np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)),
        Outcome("-1", -1.0, np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)),
    ))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labeled nonnegative probabilities summing to one."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        cleaned = []
        seen = set()
        for label, prob in self.entries:
            if label in seen:
                raise InvariantViolation(f"duplicate outcome label {label!r}")
            seen.add(label)
            prob = float(prob)
            if prob < -CLAMP_TOL or prob > 1.0 + CLAMP_TOL:
                raise ToleranceError(
                    f"probability for {label!r} is {prob!r}; clamping beyond {CLAMP_TOL:.0e} means a bug"
                )
            cleaned.append((str(label), min(max(prob, 0.0), 1.0)))
        total = sum(p for _, p in cleaned)
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "entries", tuple(cleaned))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def probability(self, label: str) -> float:
        for lab, prob in self.entries:
            if lab == label:
                return prob
        raise InvariantViolation(f"unknown outcome label {label!r}; known labels: {list(self.labels)}")

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)

    def most_likely(self) -> tuple[str, float]:
        return max(self.entries, key=lambda entry: entry[1])


def prepare_eigenstate(observable: ProjectiveDecomposition, label: str) -> StateVector:
    """State spanning a rank-1 outcome projector, with canonical phase, from _range_basis's column.

    That column's diagonal entry is the largest, at least 1/(2 dim). Rank > 1 outcomes are rejected:
    projecting says which subspace, not which state, so the caller must supply the state explicitly.
    """
    outcome = observable.outcome(label)
    if outcome.rank != 1:
        raise InvariantViolation(
            f"outcome {label!r} has rank {outcome.rank}: ambiguous preparation, supply a state explicitly"
        )
    return StateVector.normalized(fix_global_phase(_range_basis(outcome.projector, 1)[0][:, 0]))


def born_distribution(state: StateVector, observable: ProjectiveDecomposition) -> OutcomeDistribution:
    """Outcome probabilities <s|P_k|s> from the preparation alone."""
    if state.dim != observable.dim:
        raise InvariantViolation(f"dimension mismatch: state {state.dim} vs observable {observable.dim}")
    weights = projector_weights(state.amplitudes, observable.images(state.amplitudes))
    return OutcomeDistribution(tuple(zip(observable.labels, weights)))


def lueders_collapse(state: StateVector, observable: ProjectiveDecomposition, label: str) -> StateVector:
    """Post-measurement state P_k|s> / ||P_k|s>|| for the labeled outcome."""
    outcome = observable.outcome(label)
    if state.dim != observable.dim:
        raise InvariantViolation(f"dimension mismatch: state {state.dim} vs observable {observable.dim}")
    image = outcome.projector @ state.amplitudes
    weight = projector_weights(state.amplitudes, image[None])[0]
    if weight <= NEGLIGIBLE:
        raise ImpossibleOutcomeError(
            f"zero-probability outcome {label!r} (weight {weight:.3e}) marks an impossible branch"
        )
    return StateVector.normalized(fix_global_phase(image))


def evolve(state: StateVector, hamiltonian: HermitianOperator, duration: float) -> StateVector:
    """Apply exp(-i H t) to the state (hbar = 1)."""
    if state.dim != hamiltonian.dim:
        raise InvariantViolation(f"dimension mismatch: state {state.dim} vs Hamiltonian {hamiltonian.dim}")
    return StateVector.normalized(fix_global_phase(unitary_exponential(hamiltonian, duration) @ state.amplitudes))
