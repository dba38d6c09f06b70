"""Tests for states, observables and distributions, and for the Born, collapse and evolution helpers the
other tests build on."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcontexts import (
    HermitianOperator,
    ImpossibleOutcomeError,
    InvariantViolation,
    Outcome,
    OutcomeDistribution,
    ProjectiveDecomposition,
    StateVector,
    ToleranceError,
    pauli_x,
    pauli_y,
    pauli_z,
)
from qcontexts import kinematics
from qcontexts.kinematics import CERTIFY_MARGIN, CERTIFY_PAIRS
from qcontexts.linalg import ALGEBRA_TOL, canonical_phases, hermiticity_defect
from helpers import (
    basis_state,
    born_distribution,
    decomposition_error,
    evolve,
    lueders_collapse,
    prepare_eigenstate,
    random_hermitian,
    random_observable,
    random_state,
    random_unitary,
    reference_decomposition_error,
    uncertified_reference,
    zero_operator,
)

PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))


# --- types -------------------------------------------------------------------


def test_state_rejects_unnormalized():
    with pytest.raises(InvariantViolation, match="unit norm"):
        StateVector(np.array([1.0, 1.0]))


def test_state_is_immutable():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_decomposition_rejects_overlapping_projectors():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        ProjectiveDecomposition((Outcome("a", 1.0, p), Outcome("b", 0.0, p)))


def test_decomposition_rejects_incomplete_sum():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="identity"):
        ProjectiveDecomposition((Outcome("a", 1.0, p),))


def _block_outcomes(u: np.ndarray, ranks, tilts: dict) -> tuple[Outcome, ...]:
    """Outcome n projects onto the n-th block of `ranks` columns of unitary u.

    For each (a, b): t in tilts, the first column of b's block is tilted by t
    toward the first column of a's, so only P_a P_b stops vanishing.
    """
    starts = np.cumsum([0, *ranks])
    columns = u.copy()
    for (a, b), t in tilts.items():
        w = columns[:, starts[b]] + t * u[:, starts[a]]
        columns[:, starts[b]] = w / np.linalg.norm(w)
    blocks = [columns[:, starts[n] : starts[n + 1]] for n in range(len(ranks))]
    return tuple(Outcome(f"c{n}", float(n), v @ v.conj().T) for n, v in enumerate(blocks))


def _overlap(outcomes, a: int, b: int) -> float:
    return float(np.abs(outcomes[a].projector @ outcomes[b].projector).max())


def _with_overlap(u: np.ndarray, ranks, a: int, b: int, target: float) -> tuple[Outcome, ...]:
    """_block_outcomes with one tilt, tuned so that max|P_a P_b| = target."""
    tilt = 1e-10
    for _ in range(2):  # the overlap is linear in the tilt up to O(tilt^2)
        tilt *= target / _overlap(_block_outcomes(u, ranks, {(a, b): tilt}), a, b)
    outcomes = _block_outcomes(u, ranks, {(a, b): tilt})
    assert _overlap(outcomes, a, b) == pytest.approx(target, rel=1e-5)
    return outcomes


def _uncertified_checks(outcomes) -> tuple[list[tuple[int, int]], bool]:
    """The pairs (i, j) whose product ProjectiveDecomposition(outcomes) forms, in order, and
    whether it sums the projectors to check the resolution of the identity."""
    seen, summed = [], []
    uncertified = kinematics._uncertified

    def spy(count, certificate):
        pairs, sum_needed = uncertified(count, certificate)
        pairs = list(pairs)
        seen.extend(pairs)
        summed.append(bool(sum_needed))
        return pairs, sum_needed

    with mock.patch.object(kinematics, "_uncertified", spy):
        decomposition_error(outcomes)
    return seen, summed == [True]


def _multiplied_pairs(outcomes) -> list[tuple[int, int]]:
    """The pairs (i, j) whose product ProjectiveDecomposition(outcomes) forms, in order."""
    return _uncertified_checks(outcomes)[0]


def _exactly_checked(outcomes) -> list[str]:
    """Labels of the outcomes ProjectiveDecomposition(outcomes) runs check_projector on."""
    with mock.patch.object(kinematics, "check_projector", wraps=kinematics.check_projector) as check:
        decomposition_error(outcomes)
    return [name.split("'")[1] for (_, name), _ in check.call_args_list]


def _near_identity_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Columns close to the standard basis, where the certificate's bound is tight."""
    return np.linalg.qr(np.eye(dim) + 1e-3 * random_unitary(rng, dim))[0]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 24),
    high_ranks=st.sampled_from(((), (2,), (3,), (2, 2), (2, 3))),
    concentrated=st.booleans(),
    delta=st.sampled_from((0.0, 1e-6, 1e-4, 1e-2, 0.05, 0.2, 0.5)),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_orthogonality_verdict_matches_pairwise_reference(seed, dim, high_ranks, concentrated, delta, sign):
    """One pair's overlap is set to max|P_a P_b| = 1e-10 (1 +- delta); the verdict and message
    must be the reference loop's on both sides of CERTIFY_PAIRS, rank-1 or mixed."""
    assume(sum(high_ranks) <= dim and dim - sum(high_ranks) + len(high_ranks) >= 2)
    rng = np.random.default_rng(seed)
    ranks = list(rng.permutation([*high_ranks] + [1] * (dim - sum(high_ranks))))
    u = _near_identity_unitary(rng, dim) if concentrated else random_unitary(rng, dim)
    a, b = sorted(int(n) for n in rng.choice(len(ranks), 2, replace=False))
    outcomes = _with_overlap(u, ranks, a, b, 1e-10 * (1.0 + sign * delta))
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)


@pytest.mark.parametrize("delta", [-0.5, -0.05, -0.01, 0.0, 0.01, 0.5])
def test_near_tolerance_pair_is_certified_only_below_the_margin(delta):
    """With a tight bound, a pair is certified once its overlap is clear of ALGEBRA_TOL by
    CERTIFY_MARGIN (1%); nearer pairs and failing ones go to the product, as in the reference."""
    rng = np.random.default_rng(2024)
    outcomes = _with_overlap(_near_identity_unitary(rng, 16), [1] * 16, 3, 11, 1e-10 * (1.0 + delta))
    assert _multiplied_pairs(outcomes) == ([] if delta <= -0.05 else [(3, 11)])
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)
    if delta > 0:
        assert decomposition_error(outcomes) == "projectors for 'c3' and 'c11' are not orthogonal"


def test_certificate_multiplies_only_the_pairs_it_cannot_clear():
    rng = np.random.default_rng(1186)
    below = _block_outcomes(random_unitary(rng, 4), [1] * 4, {})
    assert 4 * 3 // 2 <= CERTIFY_PAIRS < 5 * 4 // 2
    assert len(_multiplied_pairs(below)) == 6
    assert _exactly_checked(below) == [f"c{n}" for n in range(4)]
    above = _block_outcomes(random_unitary(rng, 5), [1] * 5, {})
    assert _multiplied_pairs(above) == [] and _exactly_checked(above) == []
    # Two non-orthogonal pairs among 496: both are left to the product and the first is named.
    outcomes = _block_outcomes(random_unitary(rng, 32), [1] * 32, {(5, 17): 1e-6, (20, 30): 1e-6})
    assert _multiplied_pairs(outcomes) == [(5, 17), (20, 30)]
    message = "projectors for 'c5' and 'c17' are not orthogonal"
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes) == message
    mixed = _block_outcomes(random_unitary(rng, 32), [2, 3] + [1] * 27, {})
    assert _multiplied_pairs(mixed) == []
    assert decomposition_error(mixed) is None


def test_certificate_leaves_pairs_without_a_usable_basis_to_the_product():
    dim = 12
    # Rank 2 on u and w: its two largest-diagonal columns are both u / sqrt(2), so their QR
    # factor misses w and every pair of this outcome must be multiplied out.
    u = np.zeros(dim, dtype=complex)
    u[:2] = 1 / np.sqrt(2)
    w = np.zeros(dim, dtype=complex)
    w[2:] = 1 / np.sqrt(dim - 2)
    rest = np.linalg.qr(np.column_stack([u, w, random_unitary(np.random.default_rng(7), dim)[:, 2:]]))[0][:, 2:]
    dependent = (Outcome("uw", 0.0, np.outer(u, u.conj()) + np.outer(w, w.conj())),)
    dependent += tuple(Outcome(f"c{n}", float(n + 1), np.outer(v, v.conj())) for n, v in enumerate(rest.T))
    assert _multiplied_pairs(dependent) == [(0, j) for j in range(1, len(dependent))]
    assert decomposition_error(dependent) is None
    # A zero projector has no range basis: every pair is multiplied out.
    with_zero = dependent + (Outcome("zero", -1.0, np.zeros((dim, dim))),)
    assert len(_multiplied_pairs(with_zero)) == 12 * 11 // 2
    assert decomposition_error(with_zero) == reference_decomposition_error(with_zero) is None


def _with_defect(outcome: Outcome, kind: str, target: float) -> Outcome:
    """The outcome's projector P rescaled to z P, whose hermiticity defect 2 |Im z| max|P|
    or idempotency defect |z^2 - z| max|P| is `target`."""
    m = float(np.abs(outcome.projector).max())
    if kind == "hermiticity":
        z = 1.0 + 0.5j * target / m
    else:
        z = (1.0 + np.sqrt(1.0 + 4.0 * target / m)) / 2.0
    return Outcome(outcome.label, outcome.value, z * outcome.projector)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 24),
    high_ranks=st.sampled_from(((), (2,), (3,), (2, 2), (2, 3))),
    concentrated=st.booleans(),
    kind=st.sampled_from(("hermiticity", "idempotency")),
    delta=st.sampled_from((0.0, 1e-6, 1e-4, 1e-2, 0.05, 0.2, 0.5, 0.9)),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_projector_verdict_matches_per_projector_reference(seed, dim, high_ranks, concentrated, kind, delta, sign):
    """One outcome gets a hermiticity or idempotency defect of 1e-10 (1 +- delta); the verdict
    and message must be the reference's on both sides of CERTIFY_PAIRS, rank-1 or mixed."""
    assume(sum(high_ranks) <= dim and dim - sum(high_ranks) + len(high_ranks) >= 2)
    rng = np.random.default_rng(seed)
    ranks = list(rng.permutation([*high_ranks] + [1] * (dim - sum(high_ranks))))
    u = _near_identity_unitary(rng, dim) if concentrated else random_unitary(rng, dim)
    outcomes = list(_block_outcomes(u, ranks, {}))
    n = int(rng.integers(len(outcomes)))
    target = 1e-10 * (1.0 + sign * delta)
    outcomes[n] = _with_defect(outcomes[n], kind, target)
    p = outcomes[n].projector
    defect = hermiticity_defect(p) if kind == "hermiticity" else float(np.abs(p @ p - p).max())
    assert defect == pytest.approx(target, rel=1e-4)
    outcomes = tuple(outcomes)
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)


def _leaking(outcome: Outcome, t: float) -> Outcome:
    """P + t (I - P): still a Hermitian idempotent within t, off every other outcome's range by
    at most t and off the identity sum by t, but ||R||_F = t sqrt(dim - rank) past its basis."""
    p = outcome.projector
    return Outcome(outcome.label, outcome.value, p + t * (np.eye(p.shape[0]) - p))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(14, 24),
    high_ranks=st.sampled_from(((), (2,), (3,), (2, 2))),
    concentrated=st.booleans(),
    dropped=st.booleans(),
    leak=st.sampled_from((0.0, 1e-11, 3e-11, 1e-10, 3e-10)),
)
def test_identity_resolution_verdict_matches_the_summed_reference(seed, dim, high_ranks, concentrated, dropped, leak):
    """Past CERTIFY_PAIRS, an outcome dropped (ranks summing short of dim) or one leaking
    t (I - P) gives the reference's verdict and first message; a leak of a few 1e-11 at
    dim >= 14 misses the Gram bound, and the exact sum then passes where the bound did not."""
    rng = np.random.default_rng(seed)
    ranks = list(rng.permutation([*high_ranks] + [1] * (dim - sum(high_ranks))))
    u = _near_identity_unitary(rng, dim) if concentrated else random_unitary(rng, dim)
    outcomes = list(_block_outcomes(u, ranks, {}))
    n = int(rng.integers(len(outcomes)))
    outcomes[n] = _leaking(outcomes[n], leak)
    if dropped:
        del outcomes[int(rng.integers(len(outcomes)))]
    outcomes = tuple(outcomes)
    assert len(outcomes) * (len(outcomes) - 1) // 2 > CERTIFY_PAIRS
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)


def test_certificate_sums_the_projectors_only_when_the_gram_bound_misses():
    rng = np.random.default_rng(1187)
    whole = _block_outcomes(random_unitary(rng, 24), [2, 3] + [1] * 19, {})
    assert _uncertified_checks(whole) == ([], False)
    assert decomposition_error(whole) is None
    # An outcome dropped: W is no longer square, so the sum is formed, and it fails.
    assert _uncertified_checks(whole[1:])[1]
    assert decomposition_error(whole[1:]) == reference_decomposition_error(whole[1:]) == "projectors do not sum to the identity"
    # A leak of 3e-11 off a rank-1 outcome: ||R||_F = 3e-11 sqrt(23) misses the bound, the sum passes.
    leaky = whole[:5] + (_leaking(whole[5], 3e-11),) + whole[6:]
    assert _uncertified_checks(leaky)[1]
    assert decomposition_error(leaky) is None


@pytest.mark.parametrize("dim", [12, 32, 64])
@pytest.mark.parametrize("kind, target", [(None, 0.0), ("idempotency", 1.01e-10), ("hermiticity", 1.01e-10)])
def test_tied_diagonal_rank1_projector_matches_the_reference(dim, kind, target):
    """The uniform vector's projector has every diagonal entry tied at 1/dim: any of its columns
    is a range basis, so it is certified when clean and fails as the reference does when not."""
    uniform = np.ones((dim, 1)) / np.sqrt(dim)
    u = np.linalg.qr(np.hstack([uniform, random_unitary(np.random.default_rng(dim), dim)[:, 1:]]))[0]
    outcomes = list(_block_outcomes(u, [1] * dim, {}))
    np.testing.assert_allclose(outcomes[0].projector, uniform @ uniform.T, atol=1e-15)
    if kind is not None:
        outcomes[0] = _with_defect(outcomes[0], kind, target)
    outcomes = tuple(outcomes)
    assert _exactly_checked(outcomes) == ([] if kind is None else ["c0"])
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)
    assert (decomposition_error(outcomes) is None) == (kind is None)


@pytest.mark.parametrize(
    "kind, target, certified",
    [
        ("hermiticity", 0.0, True),
        ("hermiticity", 6.5e-11, True),
        ("hermiticity", 6.7e-11, False),
        ("hermiticity", 1.01e-10, False),
        ("idempotency", 1e-11, True),
        ("idempotency", 3.2e-11, True),
        ("idempotency", 3.4e-11, False),
        ("idempotency", 1e-10, False),
        ("idempotency", 1.01e-10, False),
    ],
)
def test_projector_is_certified_only_when_its_bound_clears_the_margin(kind, target, certified):
    """With near-standard-basis columns e = |z - 1| is tight (z P has hermiticity defect about
    2e, idempotency defect about e): a projector whose 3e + e^2 is at most
    ALGEBRA_TOL - CERTIFY_MARGIN skips check_projector, every other one runs it."""
    rng = np.random.default_rng(2024)
    clean = _block_outcomes(_near_identity_unitary(rng, 16), [2, 3] + [1] * 11, {})
    assert _exactly_checked(clean) == []
    outcomes = clean[:4] + (_with_defect(clean[4], kind, target),) + clean[5:]
    e = kinematics._range_bases(np.array([o.projector for o in outcomes]))[2][4]
    assert (3 * e + e * e <= ALGEBRA_TOL - CERTIFY_MARGIN) == certified
    assert _exactly_checked(outcomes) == ([] if certified else ["c4"])
    assert decomposition_error(outcomes) == reference_decomposition_error(outcomes)
    if target > ALGEBRA_TOL:
        assert decomposition_error(outcomes).startswith("projector for 'c4' is not a projector")


@pytest.mark.parametrize(
    "entries, first_failure",
    [
        (np.zeros((12, 12)), None),
        (np.diag([0.3, -0.3] + [0.0] * 10), "projector for 'bad' is not a projector"),
        (np.diag([1.9] * 12), "projector for 'bad' is not a projector"),
        (np.diag([-1.0] * 12), "projector for 'bad' is not a projector"),
    ],
    ids=["zero-projector", "trace-rounds-to-0", "trace-past-dim", "negative-trace"],
)
def test_outcome_without_a_rank_in_range_falls_back_to_the_exact_checks(entries, first_failure):
    """An outcome whose trace does not round into [1, dim] has no range basis: check_projector
    runs on it and every pair is multiplied, as in the reference."""
    outcomes = _block_outcomes(random_unitary(np.random.default_rng(5), 12), [1] * 12, {})
    outcomes = outcomes[:6] + (Outcome("bad", -1.0, entries),) + outcomes[6:]
    error = decomposition_error(outcomes)
    assert error == reference_decomposition_error(outcomes)
    assert "bad" in _exactly_checked(outcomes)
    if first_failure is None:
        assert error is None
        assert len(_multiplied_pairs(outcomes)) == 13 * 12 // 2
    else:
        assert error.startswith(first_failure)


def _huge_off_diagonal(p: np.ndarray) -> np.ndarray:
    huge = p.copy()
    huge[0, 1] = 1e300  # the trace, and with it the rank, stays 1
    return huge


@pytest.mark.parametrize(
    "huge, magnitude",
    [
        (_huge_off_diagonal, "1.000e+300"),
        (lambda p: np.diag([1e308, 1e308] + [0.0] * 10).astype(complex), "1.000e+308"),  # the trace overflows
    ],
    ids=["off-diagonal", "diagonal"],
)
def test_huge_entry_past_the_gate_fails_the_entry_bound_before_any_product(huge, magnitude):
    outcomes = list(_block_outcomes(random_unitary(np.random.default_rng(9), 12), [1] * 12, {}))
    outcomes[3] = Outcome("c3", 3.0, huge(outcomes[3].projector))
    outcomes = tuple(outcomes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        error = decomposition_error(outcomes)
    assert error == f"projector for 'c3' has an entry of magnitude {magnitude} > 2; no projector has one"
    assert error == reference_decomposition_error(outcomes)


@pytest.mark.parametrize("count", [4, 12])
@pytest.mark.parametrize("broken_first", [True, False])
def test_mixed_faults_keep_the_first_failure_in_order(count, broken_first):
    """A broken projector and a dimension mismatch: whichever comes first is named, on both
    sides of CERTIFY_PAIRS, as in the reference."""
    outcomes = list(_block_outcomes(random_unitary(np.random.default_rng(count), count), [1] * count, {}))
    broken, mismatched = (1, 3) if broken_first else (3, 1)
    outcomes[broken] = _with_defect(outcomes[broken], "idempotency", 1e-6)
    outcomes[mismatched] = Outcome(f"c{mismatched}", 0.0, np.eye(count + 1))
    outcomes = tuple(outcomes)
    error = decomposition_error(outcomes)
    assert error == reference_decomposition_error(outcomes)
    if broken_first:
        assert error.startswith("projector for 'c1' is not a projector")
    else:
        assert error == "projector for 'c1' has mismatched dimension"


def _put(p: np.ndarray, row: int, col: int, value: float) -> np.ndarray:
    p = p.copy()
    p[row, col] = value
    return p


@pytest.mark.parametrize(
    "ranks, huge",
    [
        ([1] * 12, lambda p: _put(p, 0, int(np.argmax(p.diagonal().real)), 1e200)),  # in the pivot column
        ([1] * 12, lambda p: _put(p, int(np.argmax(p.diagonal().real)), 0, 1e200)),  # off the pivot column
        ([1] * 12, lambda p: _put(p, 4, 4, 1e200)),  # on the diagonal
        ([1] * 12, lambda p: np.diag([1.5e308, 1.5e308, -1.5e308] + [0.0] * (len(p) - 3)).astype(complex)),  # the trace overflows
        ([1, 1, 1, 2] + [1] * 8, lambda p: _put(p, 0, 1, 1e200)),  # a rank-2 outcome: its QR path
    ],
    ids=["pivot-column", "pivot-row", "diagonal", "trace", "rank-2"],
)
def test_batched_certificate_names_a_huge_entry_without_a_warning(ranks, huge):
    """No step of the batch warns on a huge finite entry: the outcome goes to its exact check,
    whose entry bound names it, after the earlier outcomes pass theirs."""
    outcomes = list(_block_outcomes(random_unitary(np.random.default_rng(11), sum(ranks)), ranks, {}))
    outcomes[3] = Outcome("c3", 3.0, huge(outcomes[3].projector))
    outcomes = tuple(outcomes)
    assert len(outcomes) >= 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = decomposition_error(outcomes)
    assert error.startswith("projector for 'c3' has an entry of magnitude ")
    assert error == reference_decomposition_error(outcomes)


def _perturbed(outcome: Outcome, rng: np.random.Generator, eps: float, hermitian: bool) -> Outcome:
    """P + eps G, G a random matrix (Hermitian or not) with max|G| = 1."""
    g = rng.standard_normal(outcome.projector.shape) + 1j * rng.standard_normal(outcome.projector.shape)
    if hermitian:
        g = g + g.conj().T
    return Outcome(outcome.label, outcome.value, outcome.projector + eps * g / np.abs(g).max())


@pytest.mark.parametrize("eps", [1e-13, 1e-11, 3e-11, 1e-10, 2e-10])
@pytest.mark.parametrize("dim", [12, 32])
@pytest.mark.parametrize("hermitian", [True, False])
def test_perturbed_rank1_projectors_are_accepted_exactly_when_the_exact_path_is(eps, dim, hermitian):
    rng = np.random.default_rng(int(eps * 1e13) + dim)
    outcomes = _block_outcomes(random_unitary(rng, dim), [1] * dim, {})
    outcomes = tuple(_perturbed(o, rng, eps, hermitian) if n % 3 == 0 else o for n, o in enumerate(outcomes))
    certified = decomposition_error(outcomes)
    with mock.patch.object(kinematics, "CERTIFY_PAIRS", 10**9):
        checked = _exactly_checked(outcomes)  # every projector in order, up to the first failure
        exact = decomposition_error(outcomes)
    assert checked == [f"c{n}" for n in range(len(checked))]
    assert len(checked) == dim or exact is not None
    assert certified == exact


def test_mixed_ranks_take_the_batched_rows_and_the_qr_bases():
    """Rank-1 outcomes are pivot columns normalized as rows; the rank-2 and rank-3 ones keep a QR
    factor, stacked in outcome order; a defect on either kind goes to its exact check alone."""
    rng = np.random.default_rng(1188)
    ranks = [1, 2, 1, 3] + [1] * 14
    outcomes = _block_outcomes(random_unitary(rng, 21), ranks, {})
    w, got_ranks, e = kinematics._range_bases(np.array([o.projector for o in outcomes]))
    assert w.shape == (21, 21) and list(got_ranks) == ranks
    assert np.all(e < 1e-14)
    starts = np.cumsum([0, *ranks])
    for o, i, j in zip(outcomes, starts[:-1], starts[1:]):
        np.testing.assert_allclose(w[:, i:j] @ w[:, i:j].conj().T, o.projector, atol=1e-14)
    p = outcomes[0].projector
    pivot = p[:, p.diagonal().real.argmax()]
    np.testing.assert_allclose(w[:, 0], pivot / np.sqrt(np.vdot(pivot, pivot).real), rtol=1e-14)
    assert _uncertified_checks(outcomes) == ([], False)
    assert _exactly_checked(outcomes) == []
    no_rank_1 = _block_outcomes(random_unitary(rng, 20), [2] * 10, {})
    assert _uncertified_checks(no_rank_1) == ([], False) and _exactly_checked(no_rank_1) == []
    for target, error in ((7e-11, None), (1.01e-10, "projector for 'c1' is not a projector")):
        defective = (outcomes[0], _with_defect(outcomes[1], "hermiticity", target), outcomes[2], outcomes[3])
        defective += (_with_defect(outcomes[4], "hermiticity", target),) + outcomes[5:]
        assert _exactly_checked(defective) == (["c1", "c4"] if error is None else ["c1"])
        assert decomposition_error(defective) == reference_decomposition_error(defective)
        assert (decomposition_error(defective) or "").startswith(error or "")


def _lean_bound_cases() -> list[tuple[Outcome, ...]]:
    """The perturbed rank-1 and the mixed-rank cases above: whole, one outcome dropped, leaking,
    with tilted pairs near the tolerance, and with rank-2 outcomes only."""
    rng = np.random.default_rng(1190)
    cases = []
    for dim in (12, 32):
        base = _block_outcomes(random_unitary(rng, dim), [1] * dim, {})
        for eps in (1e-13, 1e-11, 3e-11, 1e-10, 2e-10):
            for hermitian in (True, False):
                cases.append(tuple(_perturbed(o, rng, eps, hermitian) if n % 3 == 0 else o for n, o in enumerate(base)))
    whole = _block_outcomes(random_unitary(rng, 24), [2, 3] + [1] * 19, {})
    cases += [whole, whole[1:], whole[:5] + (_leaking(whole[5], 3e-11),) + whole[6:]]
    cases.append(_block_outcomes(random_unitary(rng, 21), [1, 2, 1, 3] + [1] * 14, {}))
    cases.append(_block_outcomes(random_unitary(rng, 20), [2] * 10, {}))
    for delta in (-0.05, 0.0, 0.5):
        cases.append(_with_overlap(_near_identity_unitary(rng, 16), [2] + [1] * 14, 3, 11, 1e-10 * (1.0 + delta)))
    return cases


def test_lean_certificate_bounds_decide_as_the_former_expressions():
    """_uncertified's np.multiply.outer, rows < cols filter and in-place Gram defect give the pairs,
    in order, and the sum decision of np.outer, np.triu and np.linalg.norm (uncertified_reference)."""
    decisions = []
    for outcomes in _lean_bound_cases():
        certificate = kinematics._range_bases(np.array([o.projector for o in outcomes]))
        pairs, sum_needed = kinematics._uncertified(len(outcomes), certificate)
        expected = uncertified_reference(len(outcomes), certificate)
        assert (list(pairs), bool(sum_needed)) == expected
        decisions.append(expected)
    assert any(pairs for pairs, _ in decisions) and any(not pairs for pairs, _ in decisions)
    assert {summed for _, summed in decisions} == {True, False}


LONG = "L" * 1_000


def _clipped(message: str) -> bool:
    return len(message) < 600 and "... (str, repr of 1002 characters)" in message


def test_messages_echoing_an_outcome_label_clip_it():
    good = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation) as caught:
        Outcome(LONG, 0.0, np.full((2, 2), np.nan))
    assert _clipped(str(caught.value))
    with pytest.raises(InvariantViolation) as caught:
        Outcome(LONG, math.nan, good)
    assert _clipped(str(caught.value))
    pair = (Outcome(LONG, 0.0, good), Outcome(LONG + "2", 1.0, good))
    assert _clipped(decomposition_error(pair))
    assert _clipped(decomposition_error((Outcome(LONG, 0.0, 2 * good), Outcome("b", 1.0, np.eye(2) - good))))
    assert _clipped(decomposition_error((Outcome("a", 0.0, good), Outcome(LONG, 1.0, np.eye(3)))))
    with pytest.raises(InvariantViolation) as caught:
        OutcomeDistribution(((LONG, 0.5), (LONG, 0.5)))
    assert _clipped(str(caught.value))
    with pytest.raises(ToleranceError) as caught:
        OutcomeDistribution(((LONG, 1.5), ("b", -0.5)))
    assert _clipped(str(caught.value))
    with pytest.raises(InvariantViolation) as caught:
        OutcomeDistribution((("a", 1.0),)).probability(LONG)
    assert _clipped(str(caught.value))


def test_messages_echoing_a_short_label_are_unchanged():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert decomposition_error((Outcome("a", 0.0, p), Outcome("b", 1.0, p))) == "projectors for 'a' and 'b' are not orthogonal"
    with pytest.raises(InvariantViolation, match=r"^duplicate outcome label 'a'$"):
        OutcomeDistribution((("a", 0.5), ("a", 0.5)))
    with pytest.raises(InvariantViolation, match=r"^unknown outcome label 'c'; known labels: \['a'\]$"):
        OutcomeDistribution((("a", 1.0),)).probability("c")


def test_pauli_decompositions_are_valid():
    for obs in (pauli_x(), pauli_y(), pauli_z()):
        assert obs.dim == 2
        assert obs.labels == ("+1", "-1")


def test_distribution_clamps_roundoff_but_flags_bugs():
    dist = OutcomeDistribution((("a", 1.0 + 1e-13), ("b", -1e-13)))
    assert dist.probability("a") == 1.0
    assert dist.probability("b") == 0.0
    with pytest.raises(ToleranceError, match="clamping"):
        OutcomeDistribution((("a", 1.1), ("b", -0.1)))


# --- one read-only block per decomposition ---------------------------------------


def _caller_projectors(k: int) -> list[np.ndarray]:
    """k rank-1 projectors of a random basis of dimension k, each a writeable array of the caller's."""
    u = random_unitary(np.random.default_rng(310 + k), k)
    return [np.outer(u[:, n], u[:, n].conj()) for n in range(k)]


@pytest.mark.parametrize("k", [2, 8], ids=["exact", "certified"])
def test_a_decomposition_holds_its_projectors_in_one_read_only_block_of_its_own(k):
    """An Outcome keeps a read-only view of the caller's array; the decomposition copies them all
    into one block, whose rows are every projector it hands out, and shares no memory with them."""
    given = _caller_projectors(k)
    outcomes = tuple(Outcome(f"c{n}", float(n), p) for n, p in enumerate(given))
    for o, p in zip(outcomes, given):
        assert np.shares_memory(o.projector, p) and not o.projector.flags.writeable and p.flags.writeable
    decomposition = ProjectiveDecomposition(outcomes)
    block = decomposition.projectors
    assert block.shape == (k, k, k) and not block.flags.writeable
    assert not any(np.shares_memory(block, p) for p in given)
    for n, (mine, o) in enumerate(zip(decomposition.outcomes, outcomes)):
        assert mine is not o and (mine.label, mine.value) == (o.label, o.value)
        for row in (mine.projector, decomposition.projector(o.label)):
            assert row.base is block and row.ctypes.data == block[n].ctypes.data and not row.flags.writeable
    held = block.copy()
    for p in given:
        p[:] = np.nan
    assert np.array_equal(decomposition.projectors, held)
    assert all(np.array_equal(o.projector, held[n]) for n, o in enumerate(decomposition.outcomes))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("k", [2, 8], ids=["exact", "certified"])
def test_a_caller_array_made_non_finite_after_its_outcome_is_refused_by_the_decomposition(k, entry):
    """NaN passes every > ALGEBRA_TOL comparison, so the block is screened before any check: one
    InvariantViolation naming the outcome, as Outcome words it, and no RuntimeWarning."""
    given = _caller_projectors(k)
    outcomes = tuple(Outcome(f"c{n}", float(n), p) for n, p in enumerate(given))
    given[1][entry] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation) as refused:
            ProjectiveDecomposition(outcomes)
    assert str(refused.value) == "projector for 'c1' contains non-finite entries"
    with pytest.raises(InvariantViolation, match=str(refused.value)):
        Outcome("c1", 1.0, given[1])


# --- prepare_eigenstate --------------------------------------------------------


def test_prepare_z_plus():
    np.testing.assert_allclose(prepare_eigenstate(pauli_z(), "+1").amplitudes, [1, 0])


def test_prepare_x_minus():
    s = prepare_eigenstate(pauli_x(), "-1")
    np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


def test_prepare_unknown_label():
    with pytest.raises(InvariantViolation, match="unknown outcome label"):
        prepare_eigenstate(pauli_z(), "up")


# --- born_distribution ----------------------------------------------------------


def test_born_basis_state():
    assert dict(born_distribution(basis_state(2, 0), pauli_z()).entries) == {"+1": 1.0, "-1": 0.0}


def test_born_superposition():
    dist = born_distribution(basis_state(2, 0), pauli_x())
    assert abs(dist.probability("+1") - 0.5) < 1e-12
    assert abs(dist.probability("-1") - 0.5) < 1e-12


def test_born_angle_sweep():
    for theta in np.linspace(0, np.pi, 7):
        state = StateVector(np.array([np.cos(theta), np.sin(theta)], dtype=complex))
        dist = born_distribution(state, pauli_z())
        assert abs(dist.probability("+1") - np.cos(theta) ** 2) < 1e-12
        assert abs(dist.probability("-1") - np.sin(theta) ** 2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-np.pi, np.pi), st.integers(0, 2**31 - 1))
def test_born_global_phase_invariant(phase, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 3)
    obs = random_observable(rng, 3)
    rotated = StateVector(state.amplitudes * np.exp(1j * phase))
    for label in obs.labels:
        assert born_distribution(state, obs).probability(label) == pytest.approx(
            born_distribution(rotated, obs).probability(label), abs=1e-12
        )


def test_born_sums_to_one_random(rng):
    for dim in (2, 3, 4):
        for _ in range(5):
            dist = born_distribution(random_state(rng, dim), random_observable(rng, dim))
            assert abs(sum(dict(dist.entries).values()) - 1.0) < 1e-9


# --- lueders_collapse -------------------------------------------------------------


def test_collapse_plus_onto_z():
    np.testing.assert_allclose(lueders_collapse(PLUS, pauli_z(), "+1").amplitudes, [1, 0])


def test_collapse_rank1_in_three_level():
    state = StateVector(np.ones(3) / np.sqrt(3))
    box1 = np.zeros((3, 3), dtype=complex)
    box1[0, 0] = 1.0
    boxes = ProjectiveDecomposition((
        Outcome("box1", 1.0, box1),
        Outcome("elsewhere", 0.0, np.eye(3) - box1),
    ))
    np.testing.assert_allclose(lueders_collapse(state, boxes, "box1").amplitudes, [1, 0, 0])


def test_collapse_impossible_branch():
    with pytest.raises(ImpossibleOutcomeError, match="zero-probability"):
        lueders_collapse(basis_state(2, 0), pauli_z(), "-1")


def test_collapse_then_born_is_certain(rng):
    for _ in range(10):
        state = random_state(rng, 3)
        obs = random_observable(rng, 3)
        label, prob = max(born_distribution(state, obs).entries, key=lambda entry: entry[1])
        assert prob > 1e-6
        collapsed = lueders_collapse(state, obs, label)
        assert born_distribution(collapsed, obs).probability(label) > 1.0 - 1e-10


# --- evolve ---------------------------------------------------------------------


def test_evolve_free_is_identity(rng):
    state = random_state(rng, 3)
    evolved = evolve(state, zero_operator(3), 2.5)
    phase = canonical_phases(state.amplitudes[:, None])[0]
    np.testing.assert_allclose(evolved.amplitudes, state.amplitudes * phase, atol=1e-12)


def test_evolve_sigma_z_quarter_turn():
    # exp(-i diag(1,-1) pi/2) sends |+x> to (a phase times) |-x>.
    h = HermitianOperator(np.diag([1.0, -1.0]))
    evolved = evolve(PLUS, h, np.pi / 2)
    dist = born_distribution(evolved, pauli_x())
    assert abs(dist.probability("+1") - 0.0) < 1e-12
    assert abs(dist.probability("-1") - 1.0) < 1e-12


def test_evolve_preserves_norm(rng):
    for _ in range(10):
        state = random_state(rng, 4)
        h = random_hermitian(rng, 4)
        evolved = evolve(state, h, float(rng.uniform(-3, 3)))
        assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-10


def test_evolve_reversible(rng):
    for _ in range(10):
        amplitudes = random_state(rng, 3).amplitudes
        state = StateVector(amplitudes * canonical_phases(amplitudes[:, None])[0])
        h = random_hermitian(rng, 3)
        t = float(rng.uniform(0.1, 2.0))
        back = evolve(evolve(state, h, t), h, -t)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-9)
