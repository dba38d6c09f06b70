"""States, projective observables and outcome distributions.

Observables are projective decompositions — labeled orthogonal projectors
resolving the identity — which strictly generalizes the nondegenerate case:
rank-1 outcomes recover textbook spectra, while rank > 1 outcomes act through
their projector, the Lüders convention contexts.Context applies. The types are
records (records.Record); only OutcomeDistribution compares by value.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvariantViolation, ToleranceError, clipped_repr
from .linalg import (
    ALGEBRA_TOL,
    CERTIFY_MARGIN,
    ENTRY_BOUND,
    as_complex_array,
    check_projector,
    check_unit_norm,
    frozen_copy,
    max_abs,
    read_only,
)
from .records import Record, ValueRecord

# Probabilities may drift past [0, 1] by round-off; clamping beyond this is a bug.
CLAMP_TOL = 1e-9

# A decomposition multiplies out all its k(k-1)/2 projector pairs unless they
# number more than this; past it, the orthogonality certificate runs. Measured
# on k rank-1 outcomes at d = k (medians of 9 alternating sets, 2-vCPU VM), exact
# against certified: 81 / 93 us at k = 4 (6 pairs), 110 / 96 us at k = 5 (10),
# 225 / 124 us at k = 8 (28), and 6x / 15x faster certified at k = 32 / 64.
CERTIFY_PAIRS = 6


class StateVector(Record):
    """Unit-norm complex amplitudes over a finite basis."""

    def __init__(self, amplitudes: np.ndarray):
        amps = as_complex_array(amplitudes, 1, "state amplitudes")
        if amps.size == 0:
            raise InvariantViolation("state must have at least one amplitude")
        check_unit_norm(amps, "state")
        self.__dict__.update(amplitudes=frozen_copy(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class Outcome(Record):
    """One labeled value of an observable, with its orthogonal projector: a read-only view of the
    checked square array, which may be the caller's own. ProjectiveDecomposition takes the copy."""

    def __init__(self, label: str, value: float, projector: np.ndarray):
        if not isinstance(label, str) or not label:
            raise InvariantViolation("outcome label must be a nonempty string")
        if not math.isfinite(value):
            raise InvariantViolation(f"outcome value for {clipped_repr(label)} must be finite")
        proj = as_complex_array(projector, 2, _projector_name(label), square=True)
        self.__dict__.update(label=label, value=float(value), projector=read_only(proj.view()))


def _projector_name(label: str) -> str:
    return f"projector for {clipped_repr(label)}"


def _range_bases(projectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(W, ranks, e): orthonormal range bases V_i of the rows P_i of the block as the columns of
    W = [V_1 ... V_k], and e_i = ||P_i - V_i V_i^H||_F; None, certifying nothing, if a diagonal entry
    is past ENTRY_BOUND (the trace could overflow) or a trace rounds outside [1, dim]. One pass reads
    the diagonals: traces give ranks, argmaxes pivots. Rank-1 V_i are the pivot columns, normalized
    together as rows; a rank r > 1 takes the QR factor of its r largest-diagonal columns (any
    orthonormal V_i is sound; a poor one leaves more to check exactly). einsum and vdot sum huge
    finite squares to inf without a warning, so such an outcome gets e_i = inf: its exact check."""
    diagonals = projectors.diagonal(0, 1, 2).real
    if np.abs(diagonals).max() > ENTRY_BOUND:
        return None
    dim = diagonals.shape[1]
    ranks = np.rint(diagonals.sum(axis=1)).astype(int)
    if ranks.min() < 1 or ranks.max() > dim:
        return None
    squares = np.empty(len(projectors))
    ones = np.flatnonzero(ranks == 1).tolist()
    pivots = diagonals[ones].argmax(axis=1).tolist()
    columns = projectors[ones, :, pivots]
    rows = columns / np.sqrt(np.einsum("ij,ij->i", columns.conj(), columns).real)[:, None]
    residual = np.empty((dim, dim), dtype=complex)  # one buffer for every rank-1 outcome
    for n, v, w in zip(ones, rows[:, :, None], rows.conj()):
        np.subtract(projectors[n], np.multiply(v, w, out=residual), out=residual)  # v v^H by broadcasting
        squares[n] = np.vdot(residual, residual).real  # vdot flattens: the squared Frobenius norm
    if len(ones) == len(projectors):
        return rows.T, ranks, np.sqrt(squares)
    bases = dict(zip(ones, rows[:, :, None]))
    for n in np.flatnonzero(ranks > 1).tolist():
        p = projectors[n]
        bases[n] = v = np.linalg.qr(p[:, np.argsort(diagonals[n])[dim - ranks[n] :]])[0]
        residual = p - v @ v.conj().T
        squares[n] = np.vdot(residual, residual).real
    return np.hstack([bases[n] for n in range(len(projectors))]), ranks, np.sqrt(squares)


def _uncertified(count: int, certificate: tuple[np.ndarray, np.ndarray, np.ndarray] | None):
    """The pairs (i, j), i < j in order, of the `count` outcomes whose product P_i P_j must be
    formed, and whether the sum of all P_i must be: every pair and the sum without a certificate
    (_range_bases; none is sought at or below CERTIFY_PAIRS), else those whose bound misses."""
    if certificate is None:
        return itertools.combinations(range(count), 2), True
    w, ranks, e = certificate
    gram = w.conj().T @ w
    if len(gram) == count:  # every block is one column: its Frobenius norm is one |entry|
        block_norms = np.abs(gram)
    else:
        starts = np.cumsum([0, *ranks[:-1]])
        block_norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(gram) ** 2, starts, axis=0), starts, axis=1))
    bound = block_norms + e[:, None] + e[None, :] + np.multiply.outer(e, e)
    rows, cols = np.nonzero(bound > ALGEBRA_TOL - CERTIFY_MARGIN)
    upper = rows < cols  # row-major order, as the upper triangle's nonzeros
    square = w.shape[0] == w.shape[1]  # the ranks sum to dim
    gram.ravel()[:: len(gram) + 1] -= 1  # W^H W - I, in place: block_norms no longer reads it
    sum_needed = not square or math.sqrt(np.vdot(gram, gram).real) + e.sum() > ALGEBRA_TOL - CERTIFY_MARGIN
    return zip(rows[upper].tolist(), cols[upper].tolist()), sum_needed


class ProjectiveDecomposition(Record):
    """Labeled orthogonal projectors resolving the identity.

    The projectors are copied once into the read-only (k, d, d) block `projectors`, so it shares no memory
    with a caller's array; `labels` and `values` keep the rest, and the `outcomes` records, rows of the block,
    are built on first read (a run reads `labels` and `projectors` only). NaN passes every comparison below,
    so an array made non-finite after its Outcome is screened out first, in Outcome's words.
    Each P_i is a Hermitian idempotent and outcomes i < j are orthogonal,
    max|P_i P_j| <= ALGEBRA_TOL. Past CERTIFY_PAIRS, one batched pass
    (_range_bases) takes an orthonormal range basis V_i of each P_i and
    e_i = ||R_i||_F with R_i = P_i - V_i V_i^H. Then max|P_i - P_i^H| <= 2 e_i,
    max|P_i^2 - P_i| <= 3 e_i + e_i^2 (no entry is past 1 + e_i: a certified
    P_i needs no entry-bound scan) and max|P_i P_j| <= ||V_i^H V_j||_F + e_i +
    e_j + e_i e_j, every V_i^H V_j from one W^H W, W = [V_1 ... V_k].
    When the ranks sum to dim, W is square and sum_i P_i - I = (W W^H - I) +
    sum_i R_i, so max|sum_i P_i - I| <= ||W^H W - I||_F + sum_i e_i (W W^H - I
    has the spectrum of W^H W - I). A projector, pair or sum whose bound is at
    most ALGEBRA_TOL - CERTIFY_MARGIN would pass the exact test; every other is
    checked exactly, projectors and pairs in order, then the sum: the accepted
    inputs, first failing check and message are those of the exact checks.
    """

    def __init__(self, outcomes: tuple[Outcome, ...]):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise InvariantViolation("decomposition needs at least one outcome")
        labels = tuple([o.label for o in outcomes])
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"outcome labels must be unique, got {clipped_repr(list(labels))}")
        k, dim = len(outcomes), outcomes[0].projector.shape[0]
        matched = next((n for n, o in enumerate(outcomes) if o.projector.shape != (dim, dim)), k)
        block = read_only(np.array([o.projector for o in outcomes[:matched]]))
        if not math.isfinite(np.vdot(block, block).real) and not np.isfinite(block).all():
            n = int(np.isfinite(block).all(axis=(1, 2)).argmin())
            raise InvariantViolation(f"{_projector_name(labels[n])} contains non-finite entries")
        certify = matched == k and k * (k - 1) // 2 > CERTIFY_PAIRS
        certificate = _range_bases(block) if certify else None
        exact = range(matched)
        if certificate is not None:  # a NaN bound is no certificate
            e = certificate[2]
            exact = np.flatnonzero(~(3 * e + e * e <= ALGEBRA_TOL - CERTIFY_MARGIN)).tolist()
        for n in exact:  # in order, so the first failure is the exact checks' first
            check_projector(block[n], _projector_name(labels[n]))
        if matched < k:
            raise InvariantViolation(f"{_projector_name(labels[matched])} has mismatched dimension")
        pairs, sum_needed = _uncertified(k, certificate)
        for i, j in pairs:
            if max_abs(block[i] @ block[j]) > ALGEBRA_TOL:
                names = f"{clipped_repr(labels[i])} and {clipped_repr(labels[j])}"
                raise InvariantViolation(f"projectors for {names} are not orthogonal")
        if sum_needed:
            total = np.add.reduce(block)
            total.ravel()[:: dim + 1] -= 1  # minus the identity, in place
            if max_abs(total) > ALGEBRA_TOL:
                raise InvariantViolation("projectors do not sum to the identity")
        self.__dict__.update(labels=labels, values=tuple([o.value for o in outcomes]), projectors=block)

    def __getattr__(self, name: str):
        """Builds the `outcomes` field on its first read, unchecked: the block's rows passed the checks."""
        if name != "outcomes":
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        held = [object.__new__(Outcome) for _ in self.labels]
        for record, label, value, row in zip(held, self.labels, self.values, self.projectors):
            record.__dict__.update(label=label, value=value, projector=row)
        self.__dict__["outcomes"] = outcomes = tuple(held)
        return outcomes

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    def index(self, label: str) -> int:
        """The position of `label` among the outcomes; raises on an unknown label."""
        if label in self.labels:
            return self.labels.index(label)
        known = clipped_repr(list(self.labels))
        raise InvariantViolation(f"unknown outcome label {clipped_repr(label)}; known labels: {known}")

    def projector(self, label: str) -> np.ndarray:
        return self.projectors[self.index(label)]

    def images(self, state: np.ndarray) -> np.ndarray:
        """Rows P_k|s>: one stacked product, each row the matvec P_k @ s bit for bit."""
        return np.matmul(self.projectors, state)


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


class OutcomeDistribution(ValueRecord):
    """Labeled nonnegative probabilities summing to one; equal to another with equal entries."""

    def __init__(self, entries: tuple[tuple[str, float], ...]):
        cleaned = []
        seen = set()
        for label, prob in entries:
            if (label := str(label)) in seen:  # checked as stored
                raise InvariantViolation(f"duplicate outcome label {clipped_repr(label)}")
            seen.add(label)
            prob = float(prob)
            if not -CLAMP_TOL <= prob <= 1.0 + CLAMP_TOL:  # refuses NaN and infinities too
                raise ToleranceError(
                    f"probability for {clipped_repr(label)} is {prob!r}; clamping beyond {CLAMP_TOL:.0e} means a bug"
                )
            cleaned.append((label, 0.0 if prob < 0.0 else 1.0 if prob > 1.0 else prob))
        total = sum([p for _, p in cleaned])
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"probabilities sum to {total!r}, not 1")
        self.__dict__.update(entries=tuple(cleaned))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def probability(self, label: str) -> float:
        for lab, prob in self.entries:
            if lab == label:
                return prob
        known = clipped_repr(list(self.labels))
        raise InvariantViolation(f"unknown outcome label {clipped_repr(label)}; known labels: {known}")
