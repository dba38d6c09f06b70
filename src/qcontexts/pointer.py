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
SpreadingModel and FactSequence are value records; the others compare by identity.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

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
    read_only,
    schmidt_svd,
)
from .records import Record, ValueRecord

NONCLICK = "nonclick"
CLICK = "click"

# detector_click_simulation records one fact per tick up to the click or the
# horizon; past this many (about 100 MB of tuples) it refuses, as a scenario
# refuses more detector runs than scenarios.MAX_DETECTOR_RUNS, the same 10^6.
MAX_RECORDED_TICKS = 10**6


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


class JointState(Record):
    """System (x) apparatus pure state as its read-only amplitude matrix: amplitudes[i, j] is the
    amplitude on ambient system basis state i paired with ambient apparatus basis state j."""

    def __init__(self, amplitudes):
        m = as_complex_array(amplitudes, 2, "joint amplitudes")
        check_unit_norm(m, "joint state")
        self.__dict__["amplitudes"] = frozen_copy(m)

    @property
    def apparatus_dim(self) -> int:
        return self.amplitudes.shape[1]

    @classmethod
    def from_amplitudes(cls, matrix) -> "JointState":
        """JointState(matrix), under the name perfbench/ calls."""
        return cls(matrix)


def premeasurement_joint(coefficients, system_basis=None, apparatus_basis=None) -> JointState:
    """Entangled record state sum_k c_k |a_k> (x) |alpha_k>.

    The coefficient matrix is diagonal in the declared bases; bases default
    to the standard basis of the coefficient count and may be larger. The
    coefficients and each given basis are checked here, once, and the
    amplitude matrix is not checked again: bases orthonormal within
    ALGEBRA_TOL can leave its norm further off 1 than JointState accepts.
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
    joint = object.__new__(JointState)
    joint.__dict__["amplitudes"] = read_only(system @ matrix @ apparatus.T)
    return joint


class RebasedDecomposition(Record):
    """Expansion of a joint state over a chosen apparatus basis, made by rebase_joint.

    Column l of relative_states is the unit system state paired with
    apparatus basis vector l (zero column when the weight is negligible);
    the weights have unit power, and the arrays are read-only.
    orthogonality_score is 1 minus the largest pairwise overlap among the
    significantly weighted relative states: one bad pair already disquali-
    fies the basis as a pointer basis, so the score keys on the maximum.
    """

    def __init__(
        self, new_apparatus_basis: np.ndarray, coefficients: np.ndarray, relative_states: np.ndarray,
        orthogonality_score: float,
    ):
        self.__dict__.update(new_apparatus_basis=new_apparatus_basis, coefficients=coefficients)
        self.__dict__.update(relative_states=relative_states, orthogonality_score=orthogonality_score)


def _rebase(amplitudes: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """rebase_joint's (weights c'_l, relative states, score) over complete orthonormal columns
    `basis`, trusted as given, and the largest weighted overlap c'_i c'_j |<r_i|r_j>| of two
    significant relative states: an |entry| of the unnormalized images' Gram matrix."""
    images = amplitudes @ basis.conj()
    weights = np.linalg.norm(images, axis=0)
    power = float(np.sum(weights**2))
    if abs(power - 1.0) > 1e-9:
        raise InvariantViolation(f"rebased weights must have unit power, got {power!r}")
    significant = np.flatnonzero(weights > NEGLIGIBLE)
    relative = np.zeros_like(images)
    relative[:, significant] = images[:, significant] / weights[significant]
    block = relative[:, significant]
    overlaps = np.abs(block.conj().T @ block)
    np.fill_diagonal(overlaps, 0.0)
    score = 1.0 - float(np.max(overlaps))  # 1 exactly for one significant state
    weighted = float(np.max(overlaps * weights[significant] * weights[significant, None]))
    return weights, relative, min(max(score, 0.0), 1.0), weighted


def rebase_joint(joint: JointState, new_basis) -> RebasedDecomposition:
    """Re-expand a joint state over a complete orthonormal apparatus basis.

    The unnormalized system vector paired with basis vector beta_l is the
    amplitude matrix contracted with conj(beta_l); its norm is the weight
    c'_l and its direction the relative state. Weights off unit power by
    more than 1e-9, which a basis orthonormal within ALGEBRA_TOL can leave, are refused.
    """
    basis = _as_basis(new_basis, "new apparatus basis")
    if basis.shape != (joint.apparatus_dim, joint.apparatus_dim):
        raise InvariantViolation(
            f"new apparatus basis must be complete ({joint.apparatus_dim} columns of "
            f"dimension {joint.apparatus_dim}), got shape {basis.shape}"
        )
    weights, relative, score, _ = _rebase(joint.amplitudes, basis)
    # _as_basis may hand back the caller's own array; the rest was made here.
    return RebasedDecomposition(frozen_copy(basis), read_only(weights), read_only(relative), score)


def complete_basis(columns: np.ndarray, dim: int) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full basis of the space."""
    if columns.shape[1] > dim:
        raise InvariantViolation(f"{columns.shape[1]} columns cannot fit dimension {dim}")
    have = list(columns.T)  # views of the given columns, only read
    orthonormal_extend(have, np.eye(dim, dtype=complex), dim)
    if len(have) != dim:
        raise ToleranceError("failed to complete the apparatus basis")
    return np.column_stack(have)


def pointer_basis_scored(joint: JointState) -> tuple[SchmidtDecomposition, float]:
    """pointer_basis_select plus the score its audit bounds: 1 minus the largest weighted overlap
    c_i c_j |<r_i|r_j>| of two relative states. The audit (_rebase) runs on the SVD's own orthonormal
    apparatus columns, completed only when rank-deficient, and refuses a weighted overlap past
    ALGEBRA_TOL: the direction of a branch of weight c carries round-off of about 2^-53 / c, while
    its weighted overlaps carry about 2^-53, so the unweighted score can miss 1 by far more than
    ALGEBRA_TOL on a valid state with a small coefficient. The joint state is trusted as validated,
    its norm up to about 1e-10 off 1 (premeasurement_joint): _rebase bounds the power within 1e-9."""
    schmidt = schmidt_svd(joint.amplitudes)
    apparatus = schmidt.apparatus_states
    if apparatus.shape[1] < joint.apparatus_dim:
        apparatus = complete_basis(apparatus, joint.apparatus_dim)
    _, _, score, weighted = _rebase(joint.amplitudes, apparatus)
    if weighted > ALGEBRA_TOL:
        overlap = f"weighted relative-state overlap {weighted:.3e} exceeds {ALGEBRA_TOL:.0e}"
        raise ToleranceError(f"recovered apparatus basis scored {score!r}: {overlap}")
    return schmidt, 1.0 - weighted


def pointer_basis_select(joint: JointState) -> SchmidtDecomposition:
    """Apparatus basis whose relative states are orthogonal, via singular values.

    Returns the biorthogonal decomposition of the joint state after verifying
    that the relative states on the recovered basis are orthogonal (pointer_basis_scored).
    The non-uniqueness flag is inherited: degenerate or rank-deficient
    coefficient spectra admit other bases that do just as well.
    """
    return pointer_basis_scored(joint)[0]


class SpreadingModel(ValueRecord):
    """Free Gaussian packet: initial width sigma0 and mass, with hbar = 1."""

    def __init__(self, sigma0: float, mass: float):
        if not (math.isfinite(sigma0) and sigma0 > 0):
            raise InvariantViolation(f"sigma0 must be positive, got {sigma0!r}")
        if not (math.isfinite(mass) and mass > 0):
            raise InvariantViolation(f"mass must be positive, got {mass!r}")
        self.__dict__.update(sigma0=sigma0, mass=mass)
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


class FactSequence(ValueRecord):
    """Detector facts at clock ticks: strictly ordered and append-only.

    Immutable by construction — a recorded fact cannot be removed or
    reordered — with at most one click which, if present, closes the record.
    The constructor checks all of this; detector_click_simulation builds
    its records in order and skips the checks. Equal ticks and click_time
    make equal sequences.
    """

    def __init__(self, ticks: tuple[tuple[float, str], ...], click_time: float | None):
        previous = -math.inf
        click_at = None
        for index, (time, kind) in enumerate(ticks):
            if kind not in (NONCLICK, CLICK):
                raise InvariantViolation(f"unknown fact kind {kind!r}")
            if time <= previous:
                raise InvariantViolation("fact times must be strictly increasing")
            previous = time
            if kind == CLICK:  # final, so at most one: of two clicks the first is not final
                if index != len(ticks) - 1:
                    raise InvariantViolation("a click must be the final fact")
                click_at = time
        if click_at != click_time:
            raise InvariantViolation("click_time must mirror the recorded click")
        self.__dict__.update(ticks=ticks, click_time=click_time)


def detector_law(rate: float, tick: float, horizon: float) -> tuple[int, float]:
    """(ticks before the horizon, click probability per tick boundary).

    Each tick boundary clicks with probability 1 - exp(-rate * tick). The
    parameters are checked here, once, however many runs then draw from it;
    a violation names its parameter as the field ("rate", "tick" or "horizon").
    """
    if not (math.isfinite(rate) and rate >= 0):
        raise InvariantViolation(f"must be nonnegative, got {rate!r}", field="rate")
    if not (math.isfinite(tick) and tick > 0):
        raise InvariantViolation(f"must be positive, got {tick!r}", field="tick")
    if not (math.isfinite(horizon) and horizon >= tick):
        raise InvariantViolation(f"must reach the first tick, got {horizon!r}", field="horizon")
    ticks = horizon / tick + 1e-9
    if not ticks < 2.0**53:
        raise InvariantViolation(
            f"horizon / tick = {ticks!r} passes 2^53, where tick times stop being distinct", field="horizon"
        )
    return int(math.floor(ticks)), -math.expm1(-rate * tick)


_RUN_BLOCK = 4096  # runs drawn at once: memory stays flat however many runs


def first_clicks(count: int, p: float, seed: int, runs: int) -> Iterator[np.ndarray]:
    """Blocks of int64 first-click indices: entry i of the blocks laid end to end is the 1-based index
    of the first of count ticks to click in run i, or 0, for i < runs. The runs draw in order from
    one stream, default_rng(seed), one geometric(p, size) per block; numpy's geometric draws do not
    depend on how they are split, so the first n runs do not depend on runs, and run 0 is
    detector_click_simulation's draw. Nothing is drawn when p = 0.
    """
    rng = np.random.default_rng(seed) if p else None
    for start in range(0, runs, _RUN_BLOCK):
        size = min(runs - start, _RUN_BLOCK)
        if rng is None:
            hits = np.zeros(size, np.int64)
        else:
            hits = rng.geometric(p, size)
            hits[hits > count] = 0
        yield hits


def detector_click_simulation(rate: float, tick: float, horizon: float, seed: int) -> FactSequence:
    """Memoryless click process on a tick clock.

    Earlier tick boundaries are recorded as nonclick facts and the sequence
    stops at the click or at the horizon. After the detector_law checks, the
    first-click index is first_clicks(count, p, seed, 1): one geometric draw
    from default_rng(seed), which leaves the per-tick law untouched, keeps
    long horizons cheap, and is run 0 of a detector scenario with this seed.
    More than MAX_RECORDED_TICKS facts is an InvariantViolation, raised
    before any is built. The FactSequence is made without its constructor's
    checks, as premeasurement_joint makes its JointState: k * tick rises
    strictly in k up to MAX_RECORDED_TICKS, and a click is last.
    """
    count, p = detector_law(rate, tick, horizon)
    click_index = int(next(first_clicks(count, p, seed, 1))[0]) or None
    recorded = count if click_index is None else click_index
    if recorded > MAX_RECORDED_TICKS:
        raise InvariantViolation(f"{recorded} tick facts to record, past {MAX_RECORDED_TICKS}")
    if click_index is None:
        ticks, click_time = tuple((k * tick, NONCLICK) for k in range(1, count + 1)), None
    else:
        click_time = click_index * tick
        ticks = tuple((k * tick, NONCLICK) for k in range(1, click_index)) + ((click_time, CLICK),)
    facts = object.__new__(FactSequence)
    facts.__dict__.update(ticks=ticks, click_time=click_time)
    return facts
