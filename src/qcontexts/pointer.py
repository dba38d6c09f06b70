"""Premeasurement joint states, relative-state rebasing, pointer-basis
selection, packet-spreading scaling, and detector fact sequences.

The pointer question is which apparatus basis makes outcome records
unambiguous. Rebasing a joint state onto an arbitrary apparatus basis pairs
each basis vector with a relative system state; the relative states are
generally not orthogonal, and the orthogonality score of the pair set
reaches 1 exactly when the basis diagonalizes the joint state. The
singular-value decomposition recovers that basis directly, so selection
reduces to a decomposition plus a score audit.

Spreading and fact sequences cover the macroscopic side: a free Gaussian
packet widens like 1/mass at late times, and a detector's life is a strictly
ordered, append-only record of nonclick facts closed by at most one click.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ToleranceError
from .linalg import (
    ALGEBRA_TOL,
    CONSTRUCTION_TOL,
    NEGLIGIBLE,
    SchmidtDecomposition,
    as_complex_array,
    check_entry_bound,
    check_unit_norm,
    frozen_copy,
    max_abs,
    orthonormal_extend,
    schmidt_decompose,
)

NONCLICK = "nonclick"
CLICK = "click"


def _as_basis(value, name: str) -> np.ndarray:
    """Coerce to orthonormal basis columns.

    An ndarray is taken as a matrix whose COLUMNS are the basis states; a
    Python list or tuple is taken as a sequence of state vectors.
    """
    if isinstance(value, (list, tuple)):
        columns = [as_complex_array(getattr(v, "amplitudes", v), 1, name) for v in value]
        basis = np.column_stack(columns)
    else:
        arr = np.asarray(value, dtype=complex)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        basis = as_complex_array(arr, 2, name)
    check_entry_bound(basis, name, "orthonormal basis")
    defect = max_abs(basis.conj().T @ basis - np.eye(basis.shape[1]))
    if defect > ALGEBRA_TOL:
        raise InvariantViolation(f"{name} is not orthonormal (defect {defect:.3e})")
    return basis


@dataclass(frozen=True, eq=False)
class JointState:
    """System (x) apparatus pure state expressed in declared orthonormal bases.

    coefficient_matrix[k, l] is the amplitude on system basis state k paired
    with apparatus basis state l; bases hold the states as columns in
    ambient coordinates and may span only part of either factor space.
    """

    coefficient_matrix: np.ndarray
    system_basis: np.ndarray
    apparatus_basis: np.ndarray

    def __post_init__(self):
        coeffs = as_complex_array(self.coefficient_matrix, 2, "coefficient matrix")
        system = _as_basis(self.system_basis, "system basis")
        apparatus = _as_basis(self.apparatus_basis, "apparatus basis")
        if coeffs.shape != (system.shape[1], apparatus.shape[1]):
            raise InvariantViolation(
                f"coefficient matrix shape {coeffs.shape} does not match basis counts "
                f"({system.shape[1]}, {apparatus.shape[1]})"
            )
        check_unit_norm(coeffs, "joint state")
        object.__setattr__(self, "coefficient_matrix", frozen_copy(coeffs))
        object.__setattr__(self, "system_basis", frozen_copy(system))
        object.__setattr__(self, "apparatus_basis", frozen_copy(apparatus))

    @property
    def system_dim(self) -> int:
        return self.system_basis.shape[0]

    @property
    def apparatus_dim(self) -> int:
        return self.apparatus_basis.shape[0]

    def ambient_amplitudes(self) -> np.ndarray:
        """Amplitude matrix over the ambient product basis, entry (i, j)."""
        return self.system_basis @ self.coefficient_matrix @ self.apparatus_basis.T

    @classmethod
    def from_amplitudes(cls, matrix) -> "JointState":
        """Joint state straight from an ambient amplitude matrix (standard bases)."""
        m = as_complex_array(matrix, 2, "joint amplitudes")
        return cls(m, np.eye(m.shape[0]), np.eye(m.shape[1]))


def premeasurement_joint(coefficients, system_basis=None, apparatus_basis=None) -> JointState:
    """Entangled record state sum_k c_k |a_k> (x) |alpha_k>.

    The coefficient matrix is diagonal in the declared bases; bases default
    to the standard basis of the coefficient count and may be larger.
    """
    coeffs = as_complex_array(coefficients, 1, "coefficients")
    if coeffs.size == 0:
        raise InvariantViolation("need at least one coefficient")
    check_entry_bound(coeffs, "coefficients", "unit-power coefficient list")
    power = float(np.sum(np.abs(coeffs) ** 2))
    if abs(power - 1.0) > CONSTRUCTION_TOL:
        raise InvariantViolation(f"coefficients must have unit power, got {power!r}")
    n = coeffs.size
    system = np.eye(n) if system_basis is None else _as_basis(system_basis, "system basis")
    apparatus = np.eye(n) if apparatus_basis is None else _as_basis(apparatus_basis, "apparatus basis")
    if system.shape[1] < n or apparatus.shape[1] < n:
        raise InvariantViolation(
            f"basis sizes ({system.shape[1]}, {apparatus.shape[1]}) must cover {n} coefficients"
        )
    matrix = np.zeros((system.shape[1], apparatus.shape[1]), dtype=complex)
    matrix[:n, :n] = np.diag(coeffs)
    return JointState(matrix, system, apparatus)


@dataclass(frozen=True, eq=False)
class RebasedDecomposition:
    """Expansion of a joint state over a chosen apparatus basis.

    Column l of relative_states is the unit system state paired with
    apparatus basis vector l (zero column when the weight is negligible).
    orthogonality_score is 1 minus the largest pairwise overlap among the
    significantly weighted relative states: one bad pair already disquali-
    fies the basis as a pointer basis, so the score keys on the maximum.
    """

    new_apparatus_basis: np.ndarray
    coefficients: np.ndarray
    relative_states: np.ndarray
    orthogonality_score: float

    def __post_init__(self):
        basis = as_complex_array(self.new_apparatus_basis, 2, "apparatus basis")
        coeffs = np.asarray(self.coefficients, dtype=float)
        relative = as_complex_array(self.relative_states, 2, "relative states")
        power = float(np.sum(coeffs**2))
        if abs(power - 1.0) > 1e-9:
            raise InvariantViolation(f"rebased weights must have unit power, got {power!r}")
        if not 0.0 <= self.orthogonality_score <= 1.0:
            raise InvariantViolation(f"orthogonality score {self.orthogonality_score!r} outside [0, 1]")
        object.__setattr__(self, "new_apparatus_basis", frozen_copy(basis))
        object.__setattr__(self, "coefficients", frozen_copy(coeffs))
        object.__setattr__(self, "relative_states", frozen_copy(relative))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the ambient amplitude matrix sum_l c'_l b_l beta_l^T."""
        return (self.relative_states * self.coefficients) @ self.new_apparatus_basis.T


def rebase_joint(joint: JointState, new_basis) -> RebasedDecomposition:
    """Re-expand a joint state over a complete orthonormal apparatus basis.

    The unnormalized system vector paired with basis vector beta_l is the
    amplitude matrix contracted with conj(beta_l); its norm is the weight
    c'_l and its direction the relative state.
    """
    basis = _as_basis(new_basis, "new apparatus basis")
    if basis.shape != (joint.apparatus_dim, joint.apparatus_dim):
        raise InvariantViolation(
            f"new apparatus basis must be complete ({joint.apparatus_dim} columns of "
            f"dimension {joint.apparatus_dim}), got shape {basis.shape}"
        )
    ambient = joint.ambient_amplitudes()
    images = ambient @ basis.conj()
    weights = np.linalg.norm(images, axis=0)
    relative = np.zeros_like(images)
    significant = []
    for l in range(basis.shape[1]):
        if weights[l] > NEGLIGIBLE:
            relative[:, l] = images[:, l] / weights[l]
            significant.append(l)
    score = 1.0
    if len(significant) > 1:
        block = relative[:, significant]
        gram = np.abs(block.conj().T @ block)
        np.fill_diagonal(gram, 0.0)
        score = 1.0 - float(np.max(gram))
    return RebasedDecomposition(basis, weights, relative, min(max(score, 0.0), 1.0))


def complete_basis(columns: np.ndarray, dim: int) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full basis of the space."""
    if columns.shape[1] > dim:
        raise InvariantViolation(f"{columns.shape[1]} columns cannot fit dimension {dim}")
    have = [columns[:, k].copy() for k in range(columns.shape[1])]
    orthonormal_extend(have, np.eye(dim, dtype=complex), dim)
    if len(have) != dim:
        raise ToleranceError("failed to complete the apparatus basis")
    return np.column_stack(have)


def pointer_basis_scored(joint: JointState) -> tuple[SchmidtDecomposition, float]:
    """pointer_basis_select plus the orthogonality score it verified."""
    schmidt = schmidt_decompose(joint.ambient_amplitudes())
    completed = complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
    score = rebase_joint(joint, completed).orthogonality_score
    if score < 1.0 - ALGEBRA_TOL:
        raise ToleranceError(
            f"recovered apparatus basis scored {score!r}, expected 1 within {ALGEBRA_TOL:.0e}"
        )
    return schmidt, score


def pointer_basis_select(joint: JointState) -> SchmidtDecomposition:
    """Apparatus basis whose relative states are orthogonal, via singular values.

    Returns the biorthogonal decomposition of the joint state after
    verifying that rebasing onto the recovered basis scores orthogonality 1.
    The non-uniqueness flag is inherited: degenerate or rank-deficient
    coefficient spectra admit other bases that do just as well.
    """
    return pointer_basis_scored(joint)[0]


@dataclass(frozen=True)
class SpreadingModel:
    """Free Gaussian packet: initial width sigma0 and mass, with hbar = 1."""

    sigma0: float
    mass: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise InvariantViolation(f"sigma0 must be positive, got {self.sigma0!r}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise InvariantViolation(f"mass must be positive, got {self.mass!r}")
        try:
            timescale = self.timescale
        except OverflowError:
            timescale = math.inf
        if not 0.0 < timescale < math.inf:
            raise InvariantViolation(
                f"2 * mass * sigma0^2 must be a positive finite double, got {timescale!r}"
            )

    @property
    def timescale(self) -> float:
        """2 m sigma0^2, the time over which the packet starts to widen."""
        return 2.0 * self.mass * self.sigma0**2


def spreading_sigma(model: SpreadingModel, t: float) -> float:
    """Packet width sigma0 * sqrt(1 + (t / (2 m sigma0^2))^2).

    Heavier means slower: at late times the width grows like t / (2 m
    sigma0), inversely proportional to the mass.
    """
    if t < 0:
        raise InvariantViolation(f"time must be nonnegative, got {t!r}")
    x = t / model.timescale
    width = model.sigma0 * math.sqrt(1.0 + x * x)
    if not math.isfinite(width):
        raise InvariantViolation(f"packet width at time {t!r} overflows a double")
    return width


def fuzziness_resolvable(sigma: float, detector_resolution: float) -> bool:
    """True iff the packet width strictly exceeds what the detector resolves."""
    if sigma <= 0 or detector_resolution <= 0:
        raise InvariantViolation("width and resolution must both be positive")
    return sigma > detector_resolution


@dataclass(frozen=True)
class FactSequence:
    """Detector facts at clock ticks: strictly ordered and append-only.

    Immutable by construction — a recorded fact cannot be removed or
    reordered — with at most one click which, if present, closes the record.
    """

    ticks: tuple[tuple[float, str], ...]
    click_time: float | None

    def __post_init__(self):
        previous = -math.inf
        click_at = None
        for index, (time, kind) in enumerate(self.ticks):
            if kind not in (NONCLICK, CLICK):
                raise InvariantViolation(f"unknown fact kind {kind!r}")
            if time <= previous:
                raise InvariantViolation("fact times must be strictly increasing")
            previous = time
            if kind == CLICK:
                if click_at is not None:
                    raise InvariantViolation("at most one click per sequence")
                if index != len(self.ticks) - 1:
                    raise InvariantViolation("a click must be the final fact")
                click_at = time
        if click_at != self.click_time:
            raise InvariantViolation("click_time must mirror the recorded click")

    @property
    def clicked(self) -> bool:
        return self.click_time is not None


def detector_first_click(rate: float, tick: float, horizon: float, seed: int) -> tuple[int, int | None]:
    """(ticks before the horizon, 1-based index of the first click or None).

    Each tick boundary clicks with probability 1 - exp(-rate * tick), so the
    first-click index is one geometric draw from default_rng(seed); a draw
    past the horizon means no click. This is the detector's whole random
    law: detector_click_simulation records it as facts, and a caller that
    only counts can stop here.
    """
    if not (np.isfinite(rate) and rate >= 0):
        raise InvariantViolation(f"rate must be nonnegative, got {rate!r}")
    if not (np.isfinite(tick) and tick > 0):
        raise InvariantViolation(f"tick must be positive, got {tick!r}")
    if not (np.isfinite(horizon) and horizon >= tick):
        raise InvariantViolation(f"horizon must reach the first tick, got {horizon!r}")
    ticks = horizon / tick + 1e-9
    if not ticks < 2.0**53:
        raise InvariantViolation(f"horizon / tick = {ticks!r} passes 2^53, where tick times stop being distinct")
    count = int(math.floor(ticks))
    p = -math.expm1(-rate * tick)
    if p > 0.0:
        draw = int(np.random.default_rng(seed).geometric(p))
        if draw <= count:
            return count, draw
    return count, None


def detector_click_simulation(rate: float, tick: float, horizon: float, seed: int) -> FactSequence:
    """Memoryless click process on a tick clock.

    Earlier tick boundaries are recorded as nonclick facts and the sequence
    stops at the click or at the horizon. The first-click index comes from
    detector_first_click in one geometric shot, which leaves the per-tick law
    untouched and keeps long horizons cheap. Deterministic given seed.
    """
    count, click_index = detector_first_click(rate, tick, horizon, seed)
    if click_index is None:
        ticks = tuple((k * tick, NONCLICK) for k in range(1, count + 1))
        return FactSequence(ticks, None)
    ticks = tuple((k * tick, NONCLICK) for k in range(1, click_index)) + ((click_index * tick, CLICK),)
    return FactSequence(ticks, click_index * tick)
