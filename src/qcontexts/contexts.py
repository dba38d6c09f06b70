"""Measurement contexts with both pre- and post-selection.

A context fixes a preparation at t1, the intermediate observable asked about
at t, and a post-selected outcome at t2, with a Hamiltonian driving the
evolution in between. The central quantity is the Aharonov-Bergmann-Lebowitz
(ABL) conditional distribution: the probability of each intermediate outcome
given *both* boundary conditions. The weight of outcome i is the squared
norm of the branch that starts in the prepared state, is projected onto
outcome i at t, and lands in the post-selected projector at t2; weights are
normalized over i. For rank-1 projectors and a vanishing Hamiltonian this is
the familiar two-kernel form |<b|c_i><c_i|a>|^2 (normalized), and for
rank > 1 it is the Lüders-consistent generalization, so the analytic rule
agrees exactly with Bayesian conditioning of the simulated
measure-collapse-measure chain.

Whether the numbers are read as subjective (the intermediate measurement
happened, its record is merely unknown) or as counterfactual/objective (no
intermediate measurement was performed) changes nothing quantitative; the
reading is carried as context metadata only.

A Context is an immutable record, so it computes once, on first use, and keeps: the
eigensystem of its Hamiltonian and the propagators over t - t1, t2 - t and t2 - t1
(Eigensystem.propagator, certified by the eigensystem; a free context decomposes
nothing and shares one identity); the images of the ket at t under the intermediate
projectors, shared by both pictures; the branch table (per intermediate outcome, the
Born weight and the post-selected branch weight), the source of every probability
and chain tally; and its ABL and Born answers, one shared, immutable
OutcomeDistribution each (an unreachable post-selection is not kept).
ChainSampleReport and TotalProbabilityGap compare by value, the others by identity.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ImpossibleOutcomeError, InvariantViolation, clipped_repr
from .kinematics import OutcomeDistribution, ProjectiveDecomposition, StateVector
from .linalg import (
    NEGLIGIBLE,
    Eigensystem,
    HermitianOperator,
    hermitian_eigensystem,
    max_abs,
    projector_weights,
    read_only,
)
from .records import Record, ValueRecord

# Below this total branch weight, post-selection is unreachable rather than
# merely unlikely; the conditional distribution is undefined.
DENOMINATOR_FLOOR = 1e-15

# Most runs one chain report tallies; the per-outcome sampler's cost does not grow with it.
MAX_CHAIN_SAMPLES = 10**7

# Largest phase lambda t (rad) a Context propagates, bounding lambda by
# dim x max|H_ij| and t by t2 - t1: exp(-i lambda t) carries the round-off
# 2^-52 lambda t of its argument, which stays under 1e-10 up to 4.5e5.
MAX_PHASE = 4.5e5


class Preparation(Record):
    """Pre-selection: the state the system is prepared in, and when."""

    def __init__(self, state: StateVector, time: float):
        if not math.isfinite(time):
            raise InvariantViolation("preparation time must be finite")
        self.__dict__.update(state=state, time=time)


class Intermediate(Record):
    """The observable probed between the boundary conditions.

    performed=False marks the counterfactual arrangement: the number asked
    about an observable nobody measured. It never changes any probability.
    """

    def __init__(self, observable: ProjectiveDecomposition, time: float, performed: bool = True):
        if not math.isfinite(time):
            raise InvariantViolation("intermediate time must be finite")
        self.__dict__.update(observable=observable, time=time, performed=performed)


class PostSelection(Record):
    """Post-selection: the final observable, the retained outcome, and when."""

    def __init__(self, observable: ProjectiveDecomposition, label: str, time: float):
        if not math.isfinite(time):
            raise InvariantViolation("post-selection time must be finite")
        observable.index(label)  # raises on unknown label
        self.__dict__.update(observable=observable, label=label, time=time)


class Context(Record):
    """A full preparation / intermediate / post-selection arrangement.

    A probability belongs to the whole context, so the intermediate question is
    always part of it. A Hamiltonian must keep dim x max|H_ij| x (t2 - t1)
    within MAX_PHASE; None means free (H = 0).
    """

    def __init__(
        self, preparation: Preparation, postselection: PostSelection, intermediate: Intermediate,
        hamiltonian: HermitianOperator | None = None,
    ):
        dim = preparation.state.dim
        if postselection.observable.dim != dim:
            raise InvariantViolation("post-selection observable dimension differs from the preparation")
        if intermediate.observable.dim != dim:
            raise InvariantViolation("intermediate observable dimension differs from the preparation")
        if hamiltonian is not None and hamiltonian.dim != dim:
            h = hamiltonian.dim
            raise InvariantViolation(f"dimension {h} does not match the state ({dim})", field="hamiltonian")
        t1, t, t2 = preparation.time, intermediate.time, postselection.time
        if not t1 < t < t2:
            raise InvariantViolation(f"times must satisfy t1 < t < t2, got {t1}, {t}, {t2}")
        if hamiltonian is not None:
            phase = max_abs(hamiltonian.matrix) * dim * (t2 - t1)
            if phase > MAX_PHASE:
                raise InvariantViolation(
                    f"largest entry x dimension x time span is {phase:.3e} rad, past {MAX_PHASE:g}, "
                    "where exp(-iHt) would lose 1e-10 phase accuracy",
                    field="hamiltonian",
                )
        self.__dict__.update(preparation=preparation, postselection=postselection, intermediate=intermediate)
        self.__dict__.update(hamiltonian=hamiltonian)

    @property
    def dim(self) -> int:
        return self.preparation.state.dim

    @property
    def reading(self) -> str:
        """"counterfactual" when the intermediate is not performed, else "subjective"."""
        return "subjective" if self.intermediate.performed else "counterfactual"

    def is_free(self) -> bool:
        return self.hamiltonian is None or self.hamiltonian.is_zero()

    @cached_property
    def _eigensystem(self) -> Eigensystem:
        return hermitian_eigensystem(self.hamiltonian)

    @cached_property
    def _identity(self) -> np.ndarray:
        return read_only(np.eye(self.dim, dtype=complex))

    def _propagator(self, duration: float) -> np.ndarray:
        if self.is_free():
            return self._identity
        return self._eigensystem.propagator(duration)

    # Read-only propagators over the fixed intervals t1 -> t, t -> t2 and t1 -> t2.
    @cached_property
    def _forward(self) -> np.ndarray:
        return self._propagator(self.intermediate.time - self.preparation.time)

    @cached_property
    def _onward(self) -> np.ndarray:
        return self._propagator(self.postselection.time - self.intermediate.time)

    @cached_property
    def _through(self) -> np.ndarray:
        return self._propagator(self.postselection.time - self.preparation.time)

    # The ket at t, U_forward a, and its images P_k U_forward a as rows: the projectors' one read.
    @cached_property
    def _ket(self) -> np.ndarray:
        return read_only(self._forward @ self.preparation.state.amplitudes)

    @cached_property
    def _images(self) -> np.ndarray:
        return read_only(self.intermediate.observable.images(self._ket))

    # Read-only born[k] = <s|P_k|s> and joint[k] = ||P_b U_onward P_k s||^2 for the ket s at t:
    # joint[k] / born[k] is the success of post-selection after a Lüders collapse onto outcome k.
    # Stacked gemvs and dots per row are the per-outcome matvecs and vdot bit for bit; a d x k gemm is not.
    @cached_property
    def _branches(self) -> tuple[np.ndarray, np.ndarray]:
        post_proj = self.postselection.observable.projector(self.postselection.label)
        branches = np.matmul(post_proj, np.matmul(self._onward, self._images[:, :, None]))
        joint = np.matmul(branches.transpose(0, 2, 1).conj(), branches).real.ravel()
        return read_only(projector_weights(self._ket, self._images)), read_only(joint)

    @cached_property
    def _abl(self) -> OutcomeDistribution:
        total = sequential_success_probability(self)
        if total <= DENOMINATOR_FLOOR:  # raised, so not cached: every call raises again
            raise ImpossibleOutcomeError(
                f"post-selection {clipped_repr(self.postselection.label)} is unreachable from every "
                f"intermediate branch (total weight {total:.3e})"
            )
        weights = (self._branches[1] / total).tolist()  # bit for bit each numpy-scalar w / total
        return OutcomeDistribution(tuple(zip(self.intermediate.observable.labels, weights)))

    @cached_property
    def _born(self) -> OutcomeDistribution:
        return OutcomeDistribution(tuple(zip(self.intermediate.observable.labels, self._branches[0].tolist())))


def abl_distribution(ctx: Context) -> OutcomeDistribution:
    """Conditional distribution of the intermediate outcome given both selections.

    Evaluated in the Schrödinger picture: the prepared ket is propagated to
    the intermediate time and the post-selection projector acts behind the
    remaining propagator. Raises ImpossibleOutcomeError when every branch
    misses the post-selection (denominator below 1e-15). Kept by the context.
    """
    return ctx._abl


def sequential_success_probability(ctx: Context) -> float:
    """Probability that post-selection succeeds when the intermediate IS measured.

    Equals the normalizing denominator of the conditional rule, and the
    expected retention rate of the chain sampler.
    """
    return float(ctx._branches[1].sum())


def born_context_distribution(ctx: Context) -> OutcomeDistribution:
    """Born distribution of the intermediate observable, post-selection ignored; kept like ABL's."""
    return ctx._born


class ChainSampleReport(ValueRecord):
    """Post-selected Monte Carlo tallies over the measure-collapse-measure chain, made by sample_chain:
    retained <= requested, and frequencies is None exactly when no run survived post-selection, a
    no-data outcome distinct from a distribution of zeros."""

    def __init__(self, requested: int, retained: int, frequencies: OutcomeDistribution | None, seed: int):
        self.__dict__.update(requested=requested, retained=retained, frequencies=frequencies, seed=seed)

    @property
    def no_data(self) -> bool:
        return self.retained == 0


def sample_chain(ctx: Context, samples: int, seed: int) -> ChainSampleReport:
    """Tally the measure-collapse-measure chain over samples runs and post-select.

    Each run evolves the preparation to the intermediate time, draws the
    intermediate outcome from its Born distribution, collapses, evolves to
    the post-selection time, and draws the final outcome; runs whose final
    outcome differs from the post-selected label are discarded. The tallies
    come from the context's branch table in O(outcomes): multinomial runs per
    outcome in the Born weights, then binomial retained runs in each branch's
    post-selection success, exactly the joint law of run-by-run tallies. Output is
    bit-identical for identical (context, samples, seed); samples ≤ 10^7.
    """
    if not 1 <= samples <= MAX_CHAIN_SAMPLES:
        raise InvariantViolation(f"samples must lie in [1, {MAX_CHAIN_SAMPLES}], got {samples}")
    born, joint = ctx._branches
    probs = born / born.sum()
    success = np.zeros(len(probs))
    live = probs > NEGLIGIBLE
    success[live] = np.clip(joint[live] / born[live], 0.0, 1.0)
    rng = np.random.default_rng(seed)
    counts = rng.binomial(rng.multinomial(samples, probs), success)
    retained = int(counts.sum())
    if retained == 0:
        return ChainSampleReport(samples, 0, None, seed)
    # Counts up to 10^7 are exact doubles, so the int quotient is numpy's counts[k] / retained bit for bit.
    labels = ctx.intermediate.observable.labels
    frequencies = OutcomeDistribution(tuple(zip(labels, [count / retained for count in counts.tolist()])))
    return ChainSampleReport(samples, retained, frequencies, seed)


class TotalProbabilityGap(ValueRecord):
    """Direct transition probability vs the two-step classical chain, and their difference."""

    def __init__(self, quantum: float, classical_chain: float, gap: float):
        self.__dict__.update(quantum=quantum, classical_chain=classical_chain, gap=gap)


def total_probability_gap(ctx: Context) -> TotalProbabilityGap:
    """Violation of the classical total-probability chain, read from the context.

    quantum is ||P_b U(t2 - t1) a||^2, nothing measured in between;
    classical_chain is sum_i P(b|c_i) P(c_i|a) over the branch table, the Lüders
    chain with its evolution (negligible Born weights skipped): in a free context,
    Born values at equal times. An intermediate observable holding a
    measurement-independent true value would force the two to coincide;
    projective statistics generally keep them apart.
    """
    ket = ctx._through @ ctx.preparation.state.amplitudes
    post_proj = ctx.postselection.observable.projector(ctx.postselection.label)
    quantum = float(projector_weights(ket, (post_proj @ ket)[None])[0])
    born, joint = ctx._branches
    classical = float(joint[born > NEGLIGIBLE].sum())
    return TotalProbabilityGap(quantum, classical, quantum - classical)


def picture_consistency_check(ctx: Context) -> float:
    """Max per-label gap between Schrödinger- and Heisenberg-picture evaluations.

    Schrödinger: the context's branch table propagates the kets and keeps the
    projectors fixed. Heisenberg: every projector is conjugated to its event
    time and applied to the preparation ket, right to left and never
    multiplied out: the shared images P_k U_mid a (_images, bit for bit the
    matvecs both routes made), then U_mid^H and U_through^H P_b U_through
    (formed once) over all k columns in two d x k products. Past the images it
    reads only _forward and _through, never _onward or _branches, so it stays an
    independent route. Returns the numerical daylight between the two
    conditional distributions as a float (contract: at most 1e-10).
    """
    schrodinger = abl_distribution(ctx)
    u_mid, u_post = ctx._forward, ctx._through
    post_proj = ctx.postselection.observable.projector(ctx.postselection.label)
    post_heis = u_post.conj().T @ post_proj @ u_post
    branches = post_heis @ (u_mid.conj().T @ ctx._images.T)
    weights = np.real(np.einsum("ij,ij->j", branches.conj(), branches))
    total = float(weights.sum())
    if total <= DENOMINATOR_FLOOR:
        raise ImpossibleOutcomeError("post-selection unreachable in the Heisenberg evaluation")
    return float(max(abs(p - w / total) for (_, p), w in zip(schrodinger.entries, weights)))
