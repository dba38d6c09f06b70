"""Tests for pre/post-selected contexts: the conditional rule, the chain
sampler that cross-checks it, symmetries, certainty, and picture duality."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts import contexts, linalg
from qcontexts import (
    Context,
    Eigensystem,
    HermitianOperator,
    ImpossibleOutcomeError,
    Intermediate,
    InvariantViolation,
    Outcome,
    PostSelection,
    Preparation,
    ProjectiveDecomposition,
    StateVector,
    abl_distribution,
    born_context_distribution,
    pauli_x,
    pauli_z,
    picture_consistency_check,
    sample_chain,
    sequential_success_probability,
    total_probability_gap,
)
from qcontexts.errors import clipped_repr
from qcontexts.linalg import NEGLIGIBLE
import helpers
from helpers import (
    abl_reference,
    basis_state,
    born_distribution,
    born_reference,
    branch_table_reference,
    conditional_from_joint,
    count_branch_builds,
    enumerate_chain,
    evolve,
    from_states,
    heisenberg_discrepancy_reference,
    interchange_context,
    lueders_collapse,
    normalized,
    prepare_eigenstate,
    random_context,
    random_hermitian,
    random_observable,
    random_state,
    random_unitary,
    time_reverse_context,
    zero_operator,
)


def three_box_context(performed=True) -> Context:
    a = StateVector(np.ones(3) / np.sqrt(3))
    b = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    box1 = np.zeros((3, 3), dtype=complex)
    box1[0, 0] = 1.0
    boxes = ProjectiveDecomposition((
        Outcome("box1", 1.0, box1),
        Outcome("elsewhere", 0.0, np.eye(3) - box1),
    ))
    target = np.outer(b, b.conj())
    final = ProjectiveDecomposition((
        Outcome("b", 1.0, target),
        Outcome("other", 0.0, np.eye(3) - target),
    ))
    return Context(
        Preparation(a, 0.0),
        PostSelection(final, "b", 2.0),
        Intermediate(boxes, 1.0, performed),
    )


def simple_context(a, b_obs, b_label, c_obs, hamiltonian=None) -> Context:
    return Context(
        Preparation(a, 0.0),
        PostSelection(b_obs, b_label, 2.0),
        Intermediate(c_obs, 1.0),
        hamiltonian,
    )


# --- Context validation -------------------------------------------------------


def test_context_requires_time_ordering():
    with pytest.raises(InvariantViolation, match="t1 < t < t2"):
        Context(
            Preparation(basis_state(2, 0), 1.0),
            PostSelection(pauli_z(), "+1", 2.0),
            Intermediate(pauli_x(), 0.5),
        )


def test_context_bounds_the_hamiltonian_phase():
    # dim 2 x max|H_ij| 1e5 = 2e5 rad per unit time: a span of 2.25 reaches MAX_PHASE exactly, 2.26 passes it.
    def build(t2):
        return Context(
            Preparation(basis_state(2, 0), 0.0),
            PostSelection(pauli_z(), "+1", t2),
            Intermediate(pauli_x(), 0.5),
            HermitianOperator(np.diag([1e5, -1e5])),
        )

    assert build(1.0).dim == 2
    assert build(2.25).dim == 2
    with pytest.raises(InvariantViolation, match="past 450000") as excinfo:
        build(2.26)
    assert excinfo.value.field == "hamiltonian"


def test_context_requires_matching_dims():
    with pytest.raises(InvariantViolation, match="dimension"):
        Context(
            Preparation(basis_state(3, 0), 0.0),
            PostSelection(pauli_z(), "+1", 1.0),
            Intermediate(pauli_x(), 0.5),
        )


def test_reading_metadata_never_changes_numbers():
    performed = three_box_context(performed=True)
    counterfactual = three_box_context(performed=False)
    assert performed.reading == "subjective"
    assert counterfactual.reading == "counterfactual"
    assert abl_distribution(performed).entries == abl_distribution(counterfactual).entries


# --- abl_distribution ----------------------------------------------------------


def test_abl_delta_when_intermediate_repeats_preparation(rng):
    obs = random_observable(rng, 3)
    a = prepare_eigenstate(obs, "o1")
    post = random_observable(rng, 3, prefix="b")
    ctx = simple_context(a, post, "b2", obs)
    dist = abl_distribution(ctx)
    assert abs(dist.probability("o1") - 1.0) < 1e-12
    assert abs(dist.probability("o0")) < 1e-12
    assert abs(dist.probability("o2")) < 1e-12


def test_abl_three_box_certainty():
    ctx = three_box_context()
    dist = abl_distribution(ctx)
    assert abs(dist.probability("box1") - 1.0) < 1e-12
    assert abs(dist.probability("elsewhere")) < 1e-12
    # The two kernels by direct arithmetic: |<b|P1|a>|^2 = 1/9, complement 0.
    a = ctx.preparation.state.amplitudes
    b = prepare_eigenstate(ctx.postselection.observable, "b").amplitudes
    p1 = ctx.intermediate.observable.projector("box1")
    rest = ctx.intermediate.observable.projector("elsewhere")
    assert abs(abs(np.vdot(b, p1 @ a)) ** 2 - 1.0 / 9.0) < 1e-12
    assert abs(np.vdot(b, rest @ a)) < 1e-12


def test_abl_equal_kernels():
    # a = |0>, b = |0>, intermediate X: both kernels are 1/4, so 1/2 each.
    ctx = simple_context(basis_state(2, 0), pauli_z(), "+1", pauli_x())
    dist = abl_distribution(ctx)
    assert abs(dist.probability("+1") - 0.5) < 1e-12
    assert abs(dist.probability("-1") - 0.5) < 1e-12


def test_abl_is_bayesian_conditioning_of_the_chain(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        ctx = random_context(rng, dim)
        joint = enumerate_chain(ctx)
        expected = conditional_from_joint(
            joint, ctx.postselection.label, ctx.intermediate.observable.labels
        )
        dist = abl_distribution(ctx)
        for label, value in expected.items():
            assert abs(dist.probability(label) - value) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_enumerated_chain_forms_one_propagator_per_interval_bit_for_bit(monkeypatch, dim):
    """enumerate_chain forms each interval's propagator once; evolving every branch on its own
    gives the same bits, because each eigendecomposition sees the same Hamiltonian and duration."""
    rng = np.random.default_rng(7000 + dim)
    ctx = random_context(rng, dim)
    inter, post = ctx.intermediate, ctx.postselection
    evolved = evolve(ctx.preparation.state, ctx.hamiltonian, inter.time - ctx.preparation.time)
    branchwise = {}
    for c_label, c_prob in born_distribution(evolved, inter.observable).entries:
        collapsed = lueders_collapse(evolved, inter.observable, c_label)
        arrived = evolve(collapsed, ctx.hamiltonian, post.time - inter.time)
        for b_label, b_prob in born_distribution(arrived, post.observable).entries:
            branchwise[(c_label, b_label)] = c_prob * b_prob
    calls, exponential = [], helpers.unitary_exponential

    def counted(hamiltonian, duration):
        calls.append(duration)
        return exponential(hamiltonian, duration)

    monkeypatch.setattr(helpers, "unitary_exponential", counted)
    assert enumerate_chain(ctx) == branchwise
    assert calls == [inter.time - ctx.preparation.time, post.time - inter.time]


def test_abl_impossible_postselection():
    # Post-select |2> while preparation and intermediate live in span{|0>,|1>}.
    sub = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c_obs = ProjectiveDecomposition((
        Outcome("in", 1.0, sub),
        Outcome("out", 0.0, np.eye(3) - sub),
    ))
    top = np.zeros((3, 3), dtype=complex)
    top[2, 2] = 1.0
    b_obs = ProjectiveDecomposition((
        Outcome("top", 1.0, top),
        Outcome("rest", 0.0, np.eye(3) - top),
    ))
    ctx = simple_context(basis_state(3, 0), b_obs, "top", c_obs)
    with pytest.raises(ImpossibleOutcomeError, match="unreachable"):
        abl_distribution(ctx)


def test_abl_sums_to_one_random(rng):
    for _ in range(20):
        ctx = random_context(rng, int(rng.integers(2, 5)))
        assert abs(sum(dict(abl_distribution(ctx).entries).values()) - 1.0) < 1e-9


def _context_of_total_weight(weight: float) -> Context:
    """Free d = 2: |0> prepared, Z in between, post-selection onto (sqrt(w), sqrt(1 - w)); total weight w."""
    b = np.array([np.sqrt(weight), np.sqrt(1.0 - weight)], dtype=complex)
    onto_b = np.outer(b, b.conj())
    post = ProjectiveDecomposition((Outcome("b", 1.0, onto_b), Outcome("other", 0.0, np.eye(2) - onto_b)))
    return simple_context(basis_state(2, 0), post, "b", pauli_z())


def test_abl_answers_above_the_denominator_floor_and_refuses_below_it():
    # The floor is contexts.DENOMINATOR_FLOOR = 1e-15: a total of 1e-13 is 100x above it, 1e-16 below.
    ctx = _context_of_total_weight(1e-13)
    assert sequential_success_probability(ctx) == pytest.approx(1e-13, rel=1e-9)
    assert abl_distribution(ctx).entries == (("+1", 1.0), ("-1", 0.0))
    below = _context_of_total_weight(1e-16)
    assert sequential_success_probability(below) == pytest.approx(1e-16, rel=1e-9)
    with pytest.raises(ImpossibleOutcomeError, match="unreachable"):
        abl_distribution(below)


# --- born_context_distribution ----------------------------------------------------


def test_born_context_examples():
    ctx = simple_context(basis_state(2, 0), pauli_x(), "+1", pauli_z())
    assert dict(born_context_distribution(ctx).entries) == {"+1": 1.0, "-1": 0.0}
    ctx = simple_context(basis_state(2, 0), pauli_z(), "+1", pauli_x())
    dist = born_context_distribution(ctx)
    assert abs(dist.probability("+1") - 0.5) < 1e-12


def test_born_context_three_box_contrast():
    ctx = three_box_context()
    born = born_context_distribution(ctx)
    assert abs(born.probability("box1") - 1.0 / 3.0) < 1e-12
    # Same context, same numbers: conditioning lifts 1/3 to certainty.
    assert abs(abl_distribution(ctx).probability("box1") - 1.0) < 1e-12


# --- sample_chain -------------------------------------------------------------------


def test_chain_matches_analytic_within_three_sigma():
    # Self-contained stream: statistical bounds must not depend on test order.
    rng = np.random.default_rng(555)
    for trial in range(6):
        ctx = random_context(rng, int(rng.integers(2, 5)))
        analytic = abl_distribution(ctx)
        report = sample_chain(ctx, 100_000, seed=3000 + trial)
        assert report.retained > 0
        for label, p in analytic.entries:
            spread = np.sqrt(p * (1 - p) / report.retained)
            assert abs(report.frequencies.probability(label) - p) <= 3 * spread


def test_chain_retention_tracks_sequential_probability():
    ctx = three_box_context()
    assert abs(sequential_success_probability(ctx) - 1.0 / 9.0) < 1e-12
    report = sample_chain(ctx, 100_000, seed=9)
    assert abs(report.retained / report.requested - 1.0 / 9.0) < 0.01


def test_chain_delta_when_intermediate_repeats_preparation(rng):
    obs = random_observable(rng, 3)
    a = prepare_eigenstate(obs, "o2")
    ctx = simple_context(a, random_observable(rng, 3, prefix="b"), "b0", obs)
    report = sample_chain(ctx, 20_000, seed=3)
    assert report.frequencies.probability("o2") == 1.0


def test_chain_no_data():
    # Post-selection orthogonal to every propagated branch: flagged, not zeros.
    top = np.zeros((3, 3), dtype=complex)
    top[2, 2] = 1.0
    b_obs = ProjectiveDecomposition((
        Outcome("top", 1.0, top),
        Outcome("rest", 0.0, np.eye(3) - top),
    ))
    sub = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c_obs = ProjectiveDecomposition((
        Outcome("in", 1.0, sub),
        Outcome("out", 0.0, np.eye(3) - sub),
    ))
    ctx = simple_context(basis_state(3, 0), b_obs, "top", c_obs)
    report = sample_chain(ctx, 5000, seed=11)
    assert report.no_data
    assert report.frequencies is None
    assert report.retained == 0


def test_chain_deterministic(rng):
    ctx = random_context(rng, 3)
    first = sample_chain(ctx, 50_000, seed=77)
    second = sample_chain(ctx, 50_000, seed=77)
    assert first == second


# A zero amplitude gives a branch of Born weight exactly 0, whose success 0 / 0
# the sampler must not compute (the suite turns RuntimeWarning into an error).
# A weight in (0, NEGLIGIBLE] is not exercised: the multinomial never draws it.
@st.composite
def sparse_amplitudes(draw, dim: int) -> np.ndarray:
    values = draw(st.lists(st.sampled_from((0.0, 0.3, 0.5, 1.0)), min_size=dim, max_size=dim))
    return np.array(values) if max(values) >= 0.3 else np.eye(dim)[0]


def basis_chain_context(a: np.ndarray, b: np.ndarray) -> Context:
    """Free context with a computational-basis intermediate: outcome k has Born
    weight |a_k|^2 and post-selection success |b_k|^2 (states normalized)."""
    dim = len(a)
    target = normalized(b).amplitudes
    target = np.outer(target, target.conj())
    b_obs = ProjectiveDecomposition((Outcome("b", 1.0, target), Outcome("other", 0.0, np.eye(dim) - target)))
    c_obs = ProjectiveDecomposition(
        tuple(Outcome(f"c{k}", float(k), np.diag(np.eye(dim)[k]).astype(complex)) for k in range(dim))
    )
    return simple_context(normalized(a), b_obs, "b", c_obs)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(2, 4),
    samples=st.integers(1, contexts.MAX_CHAIN_SAMPLES),
    seed=st.integers(0, 2**32),
)
def test_chain_counts_are_whole_runs_on_the_reachable_branches(data, dim, samples, seed):
    a, b = data.draw(sparse_amplitudes(dim)), data.draw(sparse_amplitudes(dim))
    report = sample_chain(basis_chain_context(a, b), samples, seed)
    assert 0 <= report.retained <= samples
    if report.no_data:
        assert report.frequencies is None
        return
    counts = np.array([report.frequencies.probability(f"c{k}") * report.retained for k in range(dim)])
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-6)
    assert int(np.round(counts).sum()) == report.retained
    unreachable = (a == 0.0) | (b == 0.0)
    assert not np.round(counts)[unreachable].any()


def test_chain_at_the_sample_cap_allocates_per_outcome_not_per_run():
    ctx = three_box_context()
    tracemalloc.start()
    try:
        report = sample_chain(ctx, contexts.MAX_CHAIN_SAMPLES, seed=17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.requested == contexts.MAX_CHAIN_SAMPLES
    assert peak < 1 << 20


def test_chain_clips_a_branch_success_that_rounds_past_one():
    # Post-selecting the identity keeps every run: joint / born is 1 in exact arithmetic, and rounds
    # past 1 in some branches. rng.binomial refuses a probability past 1, so the sampler clips it.
    everything = ProjectiveDecomposition((Outcome("all", 1.0, np.eye(4, dtype=complex)),))
    rng = np.random.default_rng(2024)
    past_one = 0
    for _ in range(20):
        u = random_unitary(rng, 4)
        halves = (u[:, :2] @ u[:, :2].conj().T, u[:, 2:] @ u[:, 2:].conj().T)
        intermediate = ProjectiveDecomposition(tuple(Outcome(f"c{k}", float(k), p) for k, p in enumerate(halves)))
        ctx = simple_context(random_state(rng, 4), everything, "all", intermediate)
        born, joint = ctx._branches
        past_one += bool(np.any(joint / born > 1.0))
        report = sample_chain(ctx, 1000, seed=11)
        assert report.retained == report.requested == 1000
    assert past_one > 0  # else the clip went untested


# --- total_probability_gap -----------------------------------------------------------


def test_gap_maximal_for_conjugate_chain():
    result = total_probability_gap(simple_context(basis_state(2, 0), pauli_z(), "+1", pauli_x()))
    assert abs(result.quantum - 1.0) < 1e-12
    assert abs(result.classical_chain - 0.5) < 1e-12
    assert abs(result.gap - 0.5) < 1e-12


def test_gap_vanishes_for_commuting_triple():
    result = total_probability_gap(simple_context(basis_state(2, 0), pauli_z(), "+1", pauli_z()))
    assert abs(result.gap) < 1e-12


def test_gap_angle_sweep():
    # Routing through X flattens everything to 1/2; the direct value keeps cos^2.
    for theta in np.linspace(0.1, 3.0, 8):
        b = StateVector(np.array([np.cos(theta), np.sin(theta)], dtype=complex))
        post = ProjectiveDecomposition((
            Outcome("hit", 1.0, np.outer(b.amplitudes, b.amplitudes.conj())),
            Outcome("miss", 0.0, np.eye(2) - np.outer(b.amplitudes, b.amplitudes.conj())),
        ))
        result = total_probability_gap(simple_context(basis_state(2, 0), post, "hit", pauli_x()))
        assert abs(result.classical_chain - 0.5) < 1e-12
        assert abs(result.quantum - np.cos(theta) ** 2) < 1e-12


def _random_observable_with_rank_two(rng, dim: int, prefix: str) -> ProjectiveDecomposition:
    """Random observable whose outcomes each span one or two columns of a random unitary."""
    basis = random_unitary(rng, dim)
    outcomes, start = [], 0
    while start < dim:
        columns = basis[:, start : start + int(rng.integers(1, 3))]
        outcomes.append(Outcome(f"{prefix}{len(outcomes)}", float(start), columns @ columns.conj().T))
        start += columns.shape[1]
    return ProjectiveDecomposition(tuple(outcomes))


def test_gap_classical_chain_is_the_lueders_chain():
    # Reference: the measure-collapse-measure loop, one Born value after each Lüders collapse.
    rng = np.random.default_rng(4242)
    ranks = set()
    for trial in range(40):
        dim = 2 + trial % 4
        a = random_state(rng, dim)
        inter = _random_observable_with_rank_two(rng, dim, "c")
        post = _random_observable_with_rank_two(rng, dim, "b")
        reference = 0.0
        for label, prob in born_distribution(a, inter).entries:
            if prob > 1e-12:
                reference += prob * born_distribution(lueders_collapse(a, inter, label), post).probability("b0")
        assert abs(total_probability_gap(simple_context(a, post, "b0", inter)).classical_chain - reference) < 1e-12
        ranks.update(round(o.projector.trace().real) for o in inter.outcomes + post.outcomes)
    assert ranks == {1, 2}


def test_gap_with_a_hamiltonian_is_the_evolved_post_selection_and_the_evolved_chain():
    # quantum is the Born weight of b0 after U(t2 - t1); classical_chain evolves to t, collapses, evolves on.
    rng = np.random.default_rng(4343)
    for trial in range(30):
        dim = 2 + trial % 4
        a = random_state(rng, dim)
        inter = _random_observable_with_rank_two(rng, dim, "c")
        post = _random_observable_with_rank_two(rng, dim, "b")
        h = random_hermitian(rng, dim)
        ctx = Context(Preparation(a, -0.4), PostSelection(post, "b0", 1.3), Intermediate(inter, 0.1), h)
        at_t = evolve(a, h, 0.5)
        chain = 0.0
        for label, prob in born_distribution(at_t, inter).entries:
            if prob > 1e-12:
                onward = evolve(lueders_collapse(at_t, inter, label), h, 1.2)
                chain += prob * born_distribution(onward, post).probability("b0")
        result = total_probability_gap(ctx)
        assert abs(result.quantum - born_distribution(evolve(a, h, 1.7), post).probability("b0")) < 1e-12
        assert abs(result.classical_chain - chain) < 1e-12
        assert result.gap == result.quantum - result.classical_chain


@pytest.mark.parametrize("theta", [2e-7, 2e-6])
def test_gap_chain_skips_a_branch_of_negligible_born_weight(theta):
    # The intermediate outcome c1 has Born weight sin^2(theta) from |0>, and post-selecting c1 after
    # a collapse onto c0 fails: the chain reaches b only through c1, so only when c1 is not negligible.
    c0, c1 = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    basis = ProjectiveDecomposition((Outcome("c0", 0.0, np.outer(c0, c0)), Outcome("c1", 1.0, np.outer(c1, c1))))
    result = total_probability_gap(simple_context(basis_state(2, 0), basis, "c1", basis))
    assert result.quantum == pytest.approx(np.sin(theta) ** 2, rel=1e-9)
    if np.sin(theta) ** 2 <= NEGLIGIBLE:
        assert result.classical_chain < 1e-28
    else:
        assert result.classical_chain == pytest.approx(result.quantum, rel=1e-9)


def test_gap_zero_when_preparation_is_eigenstate(rng):
    for _ in range(10):
        obs = random_observable(rng, 3)
        a = prepare_eigenstate(obs, "o1")
        post = random_observable(rng, 3, prefix="b")
        result = total_probability_gap(simple_context(a, post, "b0", obs))
        assert abs(result.gap) < 1e-12


# --- time reversal and interchange ------------------------------------------------


def test_reverse_three_box_keeps_certainty():
    reversed_ctx = time_reverse_context(three_box_context())
    assert abs(abl_distribution(reversed_ctx).probability("box1") - 1.0) < 1e-12


def test_reverse_matches_original_free_case(rng):
    for _ in range(25):
        ctx = random_context(rng, int(rng.integers(2, 5)), free=True)
        original = abl_distribution(ctx)
        mirrored = abl_distribution(time_reverse_context(ctx))
        for label, p in original.entries:
            assert abs(mirrored.probability(label) - p) < 1e-10


def test_interchange_matches_original_free_case(rng):
    for _ in range(25):
        ctx = random_context(rng, int(rng.integers(2, 5)), free=True)
        original = abl_distribution(ctx)
        swapped = abl_distribution(interchange_context(ctx))
        for label, p in original.entries:
            assert abs(swapped.probability(label) - p) < 1e-10


def test_reverse_equals_interchange_for_real_amplitudes():
    # Real amplitudes make conjugation a no-op, so only the role swap remains.
    a = StateVector(np.array([0.6, 0.8], dtype=complex))
    b = StateVector(np.array([0.8, -0.6], dtype=complex))
    post = ProjectiveDecomposition((
        Outcome("hit", 1.0, np.outer(b.amplitudes, b.amplitudes.conj())),
        Outcome("miss", 0.0, np.eye(2) - np.outer(b.amplitudes, b.amplitudes.conj())),
    ))
    ctx = simple_context(a, post, "hit", pauli_x())
    reversed_dist = abl_distribution(time_reverse_context(ctx))
    interchanged_dist = abl_distribution(interchange_context(ctx))
    for label in ("+1", "-1"):
        assert abs(reversed_dist.probability(label) - interchanged_dist.probability(label)) < 1e-12


def test_reverse_with_hamiltonian_still_matches():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, 3)
        original = abl_distribution(ctx)
        mirrored = abl_distribution(time_reverse_context(ctx))
        for label, p in original.entries:
            assert abs(mirrored.probability(label) - p) < 1e-10


# --- picture consistency --------------------------------------------------------------


def test_pictures_agree_trivially_when_free(rng):
    ctx = random_context(rng, 3, free=True)
    assert picture_consistency_check(ctx) < 1e-14


def test_pictures_agree_random_hamiltonians(rng):
    for _ in range(20):
        ctx = random_context(rng, int(rng.integers(2, 5)))
        assert picture_consistency_check(ctx) <= 1e-10


def test_pictures_agree_commuting_evolution():
    # Hamiltonian diagonal in the intermediate eigenbasis, boundary states from
    # the same basis: both pictures give the same delta distribution.
    h = HermitianOperator(np.diag([0.3, 1.1, -0.7]))
    basis = from_states(
        [basis_state(3, k) for k in range(3)],
        labels=("c0", "c1", "c2"),
    )
    ctx = Context(
        Preparation(basis_state(3, 1), 0.0),
        PostSelection(basis, "c1", 2.0),
        Intermediate(basis, 1.0),
        h,
    )
    assert picture_consistency_check(ctx) < 1e-14
    dist = abl_distribution(ctx)
    assert abs(dist.probability("c1") - 1.0) < 1e-12


def _observable_with_leading_rank(rng, dim: int, rank: int, prefix: str) -> ProjectiveDecomposition:
    """Random observable whose first outcome spans `rank` columns of a random unitary, the rest one each."""
    basis = random_unitary(rng, dim)
    spans = [basis[:, :rank]] + [basis[:, k : k + 1] for k in range(rank, dim)]
    return ProjectiveDecomposition(
        tuple(Outcome(f"{prefix}{n}", float(n), v @ v.conj().T) for n, v in enumerate(spans))
    )


@settings(max_examples=6, deadline=None)
@given(dim=st.sampled_from([8, 32, 64]), rank=st.integers(2, 4), seed=st.integers(0, 2**32))
def test_picture_check_matches_the_explicit_conjugation(dim, rank, seed):
    rng = np.random.default_rng(seed)
    ctx = Context(
        Preparation(random_state(rng, dim), 0.0),
        PostSelection(_observable_with_leading_rank(rng, dim, 2, "b"), "b0", 1.5),
        Intermediate(_observable_with_leading_rank(rng, dim, rank, "c"), 0.7),
        random_hermitian(rng, dim),
    )
    assert round(ctx.intermediate.observable.outcomes[0].projector.trace().real) == rank
    assert abs(picture_consistency_check(ctx) - heisenberg_discrepancy_reference(ctx)) <= 1e-12


def test_picture_check_reads_neither_the_onward_propagator_nor_the_branch_table():
    # Swap the cached onward propagator for another unitary and rebuild the branch table,
    # and the answers the context keeps, from it: the Schrödinger route goes wrong, the
    # Heisenberg route must not follow.
    rng = np.random.default_rng(31)
    ctx = random_context(rng, 4)
    assert picture_consistency_check(ctx) <= 1e-10
    before = abl_distribution(ctx)
    ctx.__dict__["_onward"] = random_unitary(rng, 4)
    for name in ("_branches", "_abl", "_born"):
        ctx.__dict__.pop(name, None)
    wrong = abl_distribution(ctx)
    assert max(abs(wrong.probability(label) - p) for label, p in before.entries) > 1e-3
    assert picture_consistency_check(ctx) > 1e-10


def test_picture_check_over_a_single_outcome():
    rng = np.random.default_rng(32)
    trivial = ProjectiveDecomposition((Outcome("all", 1.0, np.eye(3, dtype=complex)),))
    ctx = simple_context(random_state(rng, 3), random_observable(rng, 3, "b"), "b1", trivial, random_hermitian(rng, 3))
    gap = picture_consistency_check(ctx)
    assert type(gap) is float
    assert gap < 1e-14


def test_picture_check_raises_when_the_heisenberg_route_is_unreachable():
    rng = np.random.default_rng(33)
    post = random_observable(rng, 3, "b")
    prep = prepare_eigenstate(post, "b1")
    ctx = simple_context(prep, post, "b0", post)  # measuring b in between keeps b1 in b1
    with pytest.raises(ImpossibleOutcomeError):
        picture_consistency_check(ctx)
    # A branch table that wrongly reaches the post-selection leaves the Heisenberg
    # evaluation to find the post-selection unreachable on its own.
    ctx.__dict__["_branches"] = (np.full(3, 1 / 3), np.full(3, 0.1))
    with pytest.raises(ImpossibleOutcomeError, match="Heisenberg"):
        picture_consistency_check(ctx)


# --- marginalization identity -----------------------------------------------------------


def test_conditioning_marginalizes_back_to_born(rng):
    # sum_b P_seq(b) P(c_i | b) recovers the unconditioned Born weights.
    for _ in range(15):
        dim = int(rng.integers(2, 5))
        ctx = random_context(rng, dim)
        born = born_context_distribution(ctx)
        recovered = dict.fromkeys(ctx.intermediate.observable.labels, 0.0)
        for b_label in ctx.postselection.observable.labels:
            variant = Context(
                ctx.preparation,
                PostSelection(ctx.postselection.observable, b_label, ctx.postselection.time),
                ctx.intermediate,
                ctx.hamiltonian,
            )
            weight = sequential_success_probability(variant)
            if weight <= 1e-15:
                continue
            conditional = abl_distribution(variant)
            for label in recovered:
                recovered[label] += weight * conditional.probability(label)
        for label, value in recovered.items():
            assert abs(value - born.probability(label)) < 1e-10


# --- spectral cache -------------------------------------------------------------


def _count_calls(monkeypatch, name: str) -> list:
    """Record the first argument of every call to contexts.<name>."""
    calls = []
    real = getattr(contexts, name)

    def counting(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(contexts, name, counting)
    return calls


def _query_everything_twice(ctx: Context) -> None:
    for _ in range(2):
        abl_distribution(ctx)
        born_context_distribution(ctx)
        sequential_success_probability(ctx)
        sample_chain(ctx, 200, seed=5)
        picture_consistency_check(ctx)
        total_probability_gap(ctx)


def test_context_decomposes_its_hamiltonian_once(monkeypatch):
    calls = _count_calls(monkeypatch, "hermitian_eigensystem")
    ctx = random_context(np.random.default_rng(11), 3)
    _query_everything_twice(ctx)
    assert calls == [ctx.hamiltonian]


@pytest.mark.parametrize("free", [False, True])
def test_context_builds_its_branch_table_once(monkeypatch, free):
    built = count_branch_builds(monkeypatch)
    ctx = random_context(np.random.default_rng(15), 3, free=free)
    _query_everything_twice(ctx)
    assert built == [ctx]


def test_free_context_never_decomposes(monkeypatch):
    calls = _count_calls(monkeypatch, "hermitian_eigensystem")
    zero_h = three_box_context()
    for ctx in (
        random_context(np.random.default_rng(12), 3, free=True),
        Context(zero_h.preparation, zero_h.postselection, zero_h.intermediate, zero_operator(3)),
    ):
        _query_everything_twice(ctx)
        assert ctx._forward is ctx._onward is ctx._through
        assert np.array_equal(ctx._forward, np.eye(3)) and not ctx._forward.flags.writeable
    assert calls == []


def test_time_reversed_context_has_its_own_cache(monkeypatch):
    calls = _count_calls(monkeypatch, "hermitian_eigensystem")
    ctx = random_context(np.random.default_rng(13), 3)
    abl_distribution(ctx)
    reversed_ctx = time_reverse_context(ctx)
    _query_everything_twice(reversed_ctx)
    abl_distribution(ctx)
    assert calls == [ctx.hamiltonian, reversed_ctx.hamiltonian]
    assert not np.allclose(reversed_ctx._forward, ctx._forward)


@pytest.mark.parametrize("free", [False, True])
def test_cached_propagators_are_read_only(free):
    ctx = random_context(np.random.default_rng(14), 3, free=free)
    picture_consistency_check(ctx)
    for cached in (ctx._forward, ctx._onward, ctx._through, *ctx._branches):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0


# --- shared images and the stacked branch table ----------------------------------------


def _pinned_context(dim: int, free: bool, rank: int) -> Context:
    """A context whose intermediate's first outcome has the given rank (the rest rank 1)."""
    rng = np.random.default_rng(1000 * dim + 10 * rank + free)
    return Context(
        Preparation(random_state(rng, dim), 0.0),
        PostSelection(_observable_with_leading_rank(rng, dim, max(1, dim // 2), "b"), "b0", 1.5),
        Intermediate(_observable_with_leading_rank(rng, dim, min(rank, dim), "c"), 0.7),
        None if free else random_hermitian(rng, dim),
    )


@pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("rank", [1, 3])
def test_branch_table_is_the_per_outcome_loop_bit_for_bit(dim, free, rank):
    ctx = _pinned_context(dim, free, rank)
    prepared = ctx._forward @ ctx.preparation.state.amplitudes
    # The stacked images against P_k @ s with each P_k allocated on its own, not a row of the block.
    copies = [np.array(o.projector) for o in ctx.intermediate.observable.outcomes]
    assert not any(np.shares_memory(p, ctx.intermediate.observable.projectors) for p in copies)
    images = np.array([p @ prepared for p in copies])
    assert np.array_equal(ctx.intermediate.observable.images(prepared), images)
    assert np.array_equal(ctx._images, images)
    post_proj = ctx.postselection.observable.projector("b0")
    born, joint = branch_table_reference(prepared, ctx.intermediate.observable, ctx._onward, post_proj)
    assert np.array_equal(ctx._ket, prepared)
    assert np.array_equal(ctx._branches[0], born)
    assert np.array_equal(ctx._branches[1], joint)


def test_a_run_builds_no_outcome_record_and_a_later_read_gives_the_records():
    """A d32 run reads labels and projectors only. Read afterwards, outcomes are the records the
    constructor used to build: the labels, the float values and read-only rows of the block, one
    tuple on every read. The chain frequencies are numpy's counts[k] / retained bit for bit."""
    rng = np.random.default_rng(3232)
    u, w = random_unitary(rng, 32), random_unitary(rng, 32)
    given = tuple(Outcome(f"c{n}", n, np.outer(u[:, n], u[:, n].conj())) for n in range(32))
    upper = w[:, :16] @ w[:, :16].conj().T
    post = ProjectiveDecomposition((Outcome("b", 1, upper), Outcome("other", 0, np.eye(32) - upper)))
    ctx = Context(
        Preparation(random_state(rng, 32), 0.0), PostSelection(post, "b", 1.5),
        Intermediate(ProjectiveDecomposition(given), 0.7), random_hermitian(rng, 32),
    )
    abl_distribution(ctx)
    born_context_distribution(ctx)
    chain = sample_chain(ctx, 10_000, 5)
    picture_consistency_check(ctx)
    total_probability_gap(ctx)
    observables = (ctx.intermediate.observable, ctx.postselection.observable)
    assert not any("outcomes" in vars(observable) for observable in observables)
    for label, frequency in chain.frequencies.entries:
        assert frequency == np.int64(round(frequency * chain.retained)) / chain.retained
    for observable, outcomes in zip(observables, (given, post.outcomes)):
        records = observable.outcomes
        assert observable.outcomes is records and len(records) == len(observable.labels)
        assert [(r.label, r.value) for r in records] == [(o.label, float(o.value)) for o in outcomes]
        for n, record in enumerate(records):
            assert type(record) is Outcome and type(record.value) is float
            block = observable.projectors
            assert record.projector.base is block and record.projector.ctypes.data == block[n].ctypes.data
            assert not record.projector.flags.writeable


def test_unknown_labels_are_refused_in_the_same_words_without_building_records():
    """index, projector and PostSelection find a label among the labels and name an unknown one,
    with the known labels clipped past 200 characters (k = 32), building no outcome record."""
    for observable in (pauli_z(), random_observable(np.random.default_rng(3), 32, prefix="c")):
        known = clipped_repr(list(observable.labels))
        for unknown in ("x", ["+1"]):
            message = f"unknown outcome label {clipped_repr(unknown)}; known labels: {known}"
            for refused in (observable.index, observable.projector, lambda label: PostSelection(observable, label, 1.0)):
                with pytest.raises(InvariantViolation) as caught:
                    refused(unknown)
                assert str(caught.value) == message
        assert "outcomes" not in vars(observable)
    with pytest.raises(InvariantViolation, match=r"^unknown outcome label 'x'; known labels: \['\+1', '-1'\]$"):
        pauli_z().projector("x")
    assert pauli_z().index("-1") == 1 and pauli_z().projector("-1")[1, 1] == 1.0


@pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
def test_gap_branch_table_is_the_per_outcome_loop_bit_for_bit(dim):
    rng = np.random.default_rng(77 + dim)
    a = random_state(rng, dim).amplitudes
    inter = _observable_with_leading_rank(rng, dim, min(2, dim), "c")
    post = _observable_with_leading_rank(rng, dim, max(1, dim // 2), "b")
    post_proj = post.projector("b0")
    born, joint = branch_table_reference(a, inter, np.eye(dim, dtype=complex), post_proj)
    quantum = min(max(float(np.real(np.vdot(a, post_proj @ a))), 0.0), 1.0)
    classical = float(joint[born > NEGLIGIBLE].sum())
    result = total_probability_gap(simple_context(StateVector(a), post, "b0", inter))
    assert (result.quantum, result.classical_chain, result.gap) == (quantum, classical, quantum - classical)


@pytest.mark.parametrize("free", [False, True])
def test_shared_images_are_read_only(free):
    ctx = _pinned_context(3, free, 2)
    picture_consistency_check(ctx)
    assert ctx._images.shape == (len(ctx.intermediate.observable.outcomes), 3)
    for cached in (ctx._ket, ctx._images):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0


@pytest.mark.parametrize("free", [False, True])
def test_context_reads_its_intermediate_projectors_once(monkeypatch, free):
    calls = []
    real = ProjectiveDecomposition.images

    def counting(observable, state):
        calls.append(observable)
        return real(observable, state)

    monkeypatch.setattr(ProjectiveDecomposition, "images", counting)
    ctx = random_context(np.random.default_rng(16), 4, free=free)
    _query_everything_twice(ctx)
    assert calls == [ctx.intermediate.observable]


# --- the answers a context keeps --------------------------------------------------------


def _bits(distribution) -> list[tuple[str, str]]:
    return [(label, p.hex()) for label, p in distribution.entries]


@pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("rank", [1, 3])
def test_kept_answers_are_the_per_call_build_bit_for_bit(dim, free, rank):
    ctx = _pinned_context(dim, free, rank)
    abl, born = abl_reference(ctx), born_reference(ctx)
    assert _bits(abl_distribution(ctx)) == _bits(abl)
    assert _bits(born_context_distribution(ctx)) == _bits(born)
    assert sequential_success_probability(ctx) == float(ctx._branches[1].sum())


@pytest.mark.parametrize("free", [False, True])
def test_a_context_answers_each_question_once(monkeypatch, free):
    ctx = random_context(np.random.default_rng(20), 4, free=free)
    abl, born = abl_distribution(ctx), born_context_distribution(ctx)
    builds, checked_init = [], contexts.OutcomeDistribution.__init__

    def counted_init(self, entries):
        builds.append(self)
        checked_init(self, entries)

    monkeypatch.setattr(contexts.OutcomeDistribution, "__init__", counted_init)
    _query_everything_twice(ctx)
    assert abl_distribution(ctx) is abl and born_context_distribution(ctx) is born
    assert len(builds) == 2  # the two chain reports' frequencies, nothing kept rebuilt


def test_kept_answers_are_immutable():
    ctx = random_context(np.random.default_rng(21), 3)
    for answer in (abl_distribution(ctx), born_context_distribution(ctx)):
        before = answer.entries
        with pytest.raises(dataclasses.FrozenInstanceError):
            answer.entries = ()
        mine = dict(answer.entries)
        mine[before[0][0]] = 2.0
        assert answer.entries == before


def test_an_unreachable_postselection_raises_on_every_call_and_keeps_nothing():
    ctx = simple_context(basis_state(2, 0), pauli_z(), "-1", pauli_z())
    messages = []
    for _ in range(3):
        with pytest.raises(ImpossibleOutcomeError, match="unreachable") as raised:
            abl_distribution(ctx)
        messages.append(str(raised.value))
        assert "_abl" not in ctx.__dict__
    assert messages == [messages[0]] * 3
    assert messages[0] == "post-selection '-1' is unreachable from every intermediate branch (total weight 0.000e+00)"
    assert dict(born_context_distribution(ctx).entries) == {"+1": 1.0, "-1": 0.0}


def test_labels_are_built_once_per_decomposition():
    observable = random_observable(np.random.default_rng(22), 5, "c")
    assert observable.labels == tuple(o.label for o in observable.outcomes)
    assert observable.labels is observable.labels
    conjugated = tuple(Outcome(o.label, o.value, o.projector.conj()) for o in observable.outcomes)
    assert ProjectiveDecomposition(conjugated).labels == observable.labels


# --- propagators certified from the eigenvectors --------------------------------------


def _skewed_eigensystems(monkeypatch, scale: float) -> list:
    """Make contexts decompose into eigenvectors scaled by 1 + scale; record each exact unitarity check."""
    calls = []
    real_eigensystem, real_check = contexts.hermitian_eigensystem, linalg.check_unitary

    def counting(u):
        calls.append(u.shape)
        real_check(u)

    def skewed(operator):
        system = real_eigensystem(operator)
        return Eigensystem(system.eigenvalues, system.eigenvectors * (1.0 + scale))

    monkeypatch.setattr(linalg, "check_unitary", counting)
    monkeypatch.setattr(contexts, "hermitian_eigensystem", skewed)
    return calls


def test_orthonormal_eigenvectors_certify_every_propagator(monkeypatch):
    calls = _skewed_eigensystems(monkeypatch, 0.0)
    ctx = random_context(np.random.default_rng(17), 5)
    picture_consistency_check(ctx)
    assert ctx._eigensystem.certified
    assert calls == []
    for cached in (ctx._forward, ctx._onward, ctx._through):
        assert not cached.flags.writeable
        assert np.abs(cached @ cached.conj().T - np.eye(5)).max() <= 1e-13


def test_propagators_past_the_bound_take_the_unitary_check_and_may_pass(monkeypatch):
    # e = ||V^H V - I||_F is about 2 sqrt(3) 2e-11, so e (2 + e) misses the bound, while
    # max|U U^H - I| is about 8e-11, inside ALGEBRA_TOL: each propagator is checked once and passes.
    calls = _skewed_eigensystems(monkeypatch, 2e-11)
    ctx = random_context(np.random.default_rng(18), 3)
    picture_consistency_check(ctx)
    assert not ctx._eigensystem.certified
    assert calls == [(3, 3)] * 3
    monkeypatch.undo()
    plain = random_context(np.random.default_rng(18), 3)
    for label, p in abl_distribution(plain).entries:
        assert abs(abl_distribution(ctx).probability(label) - p) < 1e-9


def test_propagators_past_the_bound_raise_the_unitary_message(monkeypatch):
    _skewed_eigensystems(monkeypatch, 1e-6)
    ctx = random_context(np.random.default_rng(19), 4)
    inter = ctx.intermediate.time - ctx.preparation.time
    with pytest.raises(InvariantViolation) as expected:
        contexts.hermitian_eigensystem(ctx.hamiltonian).propagator(inter)
    assert str(expected.value).startswith("matrix is not unitary: max defect of U U^dag from identity is")
    with pytest.raises(InvariantViolation) as raised:
        abl_distribution(ctx)
    assert str(raised.value) == str(expected.value)
