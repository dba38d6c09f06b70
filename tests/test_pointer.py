"""Tests for joint states, rebasing, pointer selection, spreading, and facts."""

import dataclasses
import inspect
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcontexts import (
    FactSequence,
    InvariantViolation,
    JointState,
    ToleranceError,
    SpreadingModel,
    StateVector,
    complete_basis,
    detector_click_simulation,
    load_scenario,
    pointer_basis_select,
    premeasurement_joint,
    rebase_joint,
    spreading_sigma,
)
from qcontexts import kinematics, linalg, pointer
from qcontexts.cli import main
from qcontexts.linalg import ALGEBRA_TOL
from qcontexts.pointer import _RUN_BLOCK, MAX_RECORDED_TICKS, first_clicks, pointer_basis_scored
from helpers import mixed_schmidt, one_stream_first_clicks, random_unitary

ROOT = Path(__file__).resolve().parent.parent

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_joint(rng, system_dim, apparatus_dim) -> JointState:
    raw = rng.standard_normal((system_dim, apparatus_dim)) + 1j * rng.standard_normal(
        (system_dim, apparatus_dim)
    )
    return JointState.from_amplitudes(raw / np.linalg.norm(raw))


def random_record_joint(rng, dim) -> tuple[JointState, np.ndarray, np.ndarray]:
    """Premeasurement state with distinct coefficient magnitudes in random bases."""
    weights = np.sort(rng.uniform(0.5, 1.5, size=dim))[::-1]
    coeffs = np.sqrt(weights / weights.sum()) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
    system = random_unitary(rng, dim)
    apparatus = random_unitary(rng, dim)
    return premeasurement_joint(coeffs, system, apparatus), system, apparatus


# --- premeasurement_joint -------------------------------------------------------


def test_premeasurement_basis_case():
    np.testing.assert_allclose(premeasurement_joint([1.0, 0.0]).amplitudes, [[1, 0], [0, 0]])


def test_premeasurement_bell_case():
    joint = premeasurement_joint(np.array([1.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(joint.amplitudes, np.eye(2) / np.sqrt(2))


def _record_amplitudes(coefficients, system, apparatus) -> np.ndarray:
    """sum_k c_k |a_k> (x) |alpha_k>, with the basis states as columns, one outer product at a time."""
    return sum(c * np.outer(system[:, k], apparatus[:, k]) for k, c in enumerate(coefficients))


def test_premeasurement_unit_norm(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        joint, _, _ = random_record_joint(rng, dim)
        assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12
        assert joint.amplitudes.shape == (dim, dim) and joint.apparatus_dim == dim


def test_premeasurement_rejects_unnormalized():
    with pytest.raises(InvariantViolation, match="unit power"):
        premeasurement_joint([1.0, 1.0])


def test_amplitudes_are_the_record_sum_and_read_only(rng):
    coefficients = [0.6, 0.8, 0.0]
    system, apparatus = random_unitary(rng, 3), random_unitary(rng, 3)
    record = premeasurement_joint(coefficients, system, apparatus)
    np.testing.assert_allclose(record.amplitudes, _record_amplitudes(coefficients, system, apparatus), atol=1e-15)
    for joint in (record, random_joint(rng, 3, 4)):
        assert not joint.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            joint.amplitudes[0, 0] = 0.0


def test_from_amplitudes_checks_only_the_amplitudes(monkeypatch, rng):
    def no_basis_check(value, name):
        raise AssertionError(f"{name} checked")

    monkeypatch.setattr(pointer, "_as_basis", no_basis_check)
    raw = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    raw /= np.linalg.norm(raw)
    joint, direct = JointState.from_amplitudes(raw), JointState(raw)
    expected = raw.copy()
    raw[0, 0] = 5.0  # the joint state keeps its own copy
    for held in (joint.amplitudes, direct.amplitudes):
        assert np.array_equal(held, expected) and held.dtype == complex and not held.flags.writeable
    assert joint.apparatus_dim == 4
    with pytest.raises(InvariantViolation, match="joint amplitudes contains non-finite entries"):
        JointState.from_amplitudes(np.full((2, 2), np.nan))
    with pytest.raises(InvariantViolation, match="joint state must be unit norm"):
        JointState.from_amplitudes(np.ones((2, 2)))


def test_premeasurement_allows_larger_bases():
    joint = premeasurement_joint([0.6, 0.8], np.eye(3), np.eye(4))
    assert joint.apparatus_dim == 4
    assert np.array_equal(joint.amplitudes, [[0.6, 0, 0, 0], [0, 0.8, 0, 0], [0, 0, 0, 0]])
    assert np.array_equal(joint.amplitudes, _record_amplitudes([0.6, 0.8], np.eye(3), np.eye(4)))


BASIS_SEQUENCES = {
    "StateVectors": lambda basis: [StateVector(column) for column in basis.T],
    "arrays": lambda basis: tuple(basis.T),
    "lists": lambda basis: [list(column) for column in basis.T],
}


@pytest.mark.parametrize("as_sequence", BASIS_SEQUENCES.values(), ids=BASIS_SEQUENCES.keys())
def test_premeasurement_takes_a_basis_as_a_sequence_of_states(as_sequence):
    system, apparatus = HADAMARD, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    expected = premeasurement_joint([0.6, 0.8], system, apparatus)
    np.testing.assert_allclose(expected.amplitudes, _record_amplitudes([0.6, 0.8], system, apparatus), atol=1e-15)
    joint = premeasurement_joint([0.6, 0.8], as_sequence(system), as_sequence(apparatus))
    assert np.array_equal(joint.amplitudes, expected.amplitudes)


def test_premeasurement_takes_a_one_dimensional_array_as_one_basis_state():
    joint = premeasurement_joint([1.0], HADAMARD[:, 1], np.array([0.0, 1.0]))
    assert joint.amplitudes.shape == (2, 2) and joint.apparatus_dim == 2
    assert np.array_equal(joint.amplitudes, np.outer(HADAMARD[:, 1], [0.0, 1.0]))


def _pairs(matrix) -> list:
    """A complex array as nested [re, im] pairs, the scenario files' encoding."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def test_premeasurement_accepts_bases_that_leave_the_amplitudes_past_the_unit_norm_tolerance(tmp_path):
    """Bases orthonormal within ALGEBRA_TOL pass premeasurement_joint's check, yet leave the
    amplitude matrix 8e-11 off unit norm, past the 1e-12 JointState checks: the amplitudes
    premeasurement_joint forms are not checked again. The norm is read as that of the weights
    over the standard basis, which rebase_joint accepts within 1e-9. The file that declares
    those bases loads and runs: the pointer selection trusts the joint state it was given."""
    basis = random_unitary(np.random.default_rng(5), 3) * (1 + 4e-11)
    assert 7e-11 < np.abs(basis.conj().T @ basis - np.eye(3)).max() <= ALGEBRA_TOL
    joint = premeasurement_joint([0.6, 0.8, 0.0], basis, basis)
    assert abs(np.linalg.norm(rebase_joint(joint, np.eye(3)).coefficients) - (1 + 8e-11)) <= 1e-12
    with pytest.raises(InvariantViolation, match="joint state must be unit norm within 1e-12"):
        JointState.from_amplitudes(_record_amplitudes([0.6, 0.8, 0.0], basis, basis))
    parameters = {"coefficients": _pairs([0.6, 0.8, 0.0])}
    parameters["rebases"] = [{"name": "standard", "basis": _pairs(np.eye(3))}]
    parameters["system_basis"] = parameters["apparatus_basis"] = _pairs(basis.T)  # states as rows
    path = tmp_path / "near_orthonormal.json"
    path.write_text(json.dumps({"kind": "pointer", "name": "near-orthonormal", "parameters": parameters}))
    _, [(_, rebased)] = load_scenario(path).spec
    assert abs(np.linalg.norm(rebased.coefficients) - (1 + 8e-11)) <= 1e-12
    assert main(["run", str(path), "--out", str(tmp_path / "report.csv")]) == 0


def _load_checks(monkeypatch, path) -> tuple[list[str], int]:
    """Names _as_basis is called with, and the number of check_unit_norm calls, loading path."""
    bases, norms = [], []
    as_basis, unit_norm = pointer._as_basis, linalg.check_unit_norm
    monkeypatch.setattr(pointer, "_as_basis", lambda value, name: bases.append(name) or as_basis(value, name))
    for module in (kinematics, linalg, pointer):
        monkeypatch.setattr(module, "check_unit_norm", lambda arr, name: norms.append(name) or unit_norm(arr, name))
    load_scenario(path)
    monkeypatch.undo()
    return bases, len(norms)


def test_a_pointer_load_checks_each_basis_once(monkeypatch, tmp_path):
    shipped = ROOT / "scenarios" / "skewed_record_pointer.json"
    assert _load_checks(monkeypatch, shipped) == (["new apparatus basis"], 0)
    payload = json.loads(shipped.read_text())
    payload["parameters"]["system_basis"] = payload["parameters"]["apparatus_basis"] = _pairs(np.eye(2))
    path = tmp_path / "declared_bases.json"
    path.write_text(json.dumps(payload))
    assert _load_checks(monkeypatch, path) == (["system basis", "apparatus basis", "new apparatus basis"], 0)
    del payload["parameters"]["system_basis"]
    path.write_text(json.dumps(payload))
    assert _load_checks(monkeypatch, path) == (["apparatus basis", "new apparatus basis"], 0)


# --- rebase_joint ----------------------------------------------------------------


def test_rebase_identity_basis_recovers_record():
    coeffs = np.array([np.sqrt(0.7), np.sqrt(0.3)])
    joint = premeasurement_joint(coeffs)
    rebased = rebase_joint(joint, np.eye(2))
    np.testing.assert_allclose(rebased.coefficients, coeffs, atol=1e-12)
    np.testing.assert_allclose(np.abs(rebased.relative_states), np.eye(2), atol=1e-12)
    assert rebased.orthogonality_score == 1.0


def test_rebase_bell_to_hadamard_stays_orthogonal():
    # Degenerate coefficients: the alternate basis works just as well.
    joint = premeasurement_joint(np.array([1.0, 1.0]) / np.sqrt(2))
    rebased = rebase_joint(joint, HADAMARD)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(rebased.coefficients, [s, s], atol=1e-12)
    np.testing.assert_allclose(np.abs(rebased.relative_states.T), [[s, s], [s, s]], atol=1e-12)
    assert rebased.orthogonality_score > 1.0 - 1e-12


def test_rebase_skewed_state_loses_orthogonality():
    # Weights 0.9 / 0.1 rebased to the Hadamard pair: overlap (0.9 - 0.1) = 0.8.
    joint = premeasurement_joint([np.sqrt(0.9), np.sqrt(0.1)])
    rebased = rebase_joint(joint, HADAMARD)
    overlap = abs(np.vdot(rebased.relative_states[:, 0], rebased.relative_states[:, 1]))
    assert abs(overlap - 0.8) < 1e-12
    assert abs(rebased.orthogonality_score - 0.2) < 1e-12


def test_rebase_reconstruction_random(rng):
    for _ in range(30):
        system_dim = int(rng.integers(2, 5))
        apparatus_dim = int(rng.integers(2, 5))
        joint = random_joint(rng, system_dim, apparatus_dim)
        basis = random_unitary(rng, apparatus_dim)
        rebased = rebase_joint(joint, basis)
        rebuilt = (rebased.relative_states * rebased.coefficients) @ rebased.new_apparatus_basis.T
        assert np.max(np.abs(rebuilt - joint.amplitudes)) < 1e-10
        # The apparatus-outcome marginal keeps total probability 1 in any basis.
        assert abs(np.sum(rebased.coefficients**2) - 1.0) < 1e-10


def test_rebase_requires_complete_basis(rng):
    joint = random_joint(rng, 2, 3)
    with pytest.raises(InvariantViolation, match="complete"):
        rebase_joint(joint, np.eye(3)[:, :2])


def test_rebase_rejects_nonorthonormal_basis(rng):
    joint = random_joint(rng, 2, 2)
    with pytest.raises(InvariantViolation, match="orthonormal"):
        rebase_joint(joint, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rebase_refuses_weights_off_unit_power_from_a_basis_the_orthonormality_check_passes():
    # B = sqrt(G) for G = I + 9e-11 (J - I): B^H B = G misses I by 9e-11, inside ALGEBRA_TOL, but along
    # G's top eigenvector (eigenvalue 1 + 15 x 9e-11) the rebased weights have power 1 + 1.35e-9.
    dim = 16
    gram = np.eye(dim) + 9e-11 * (np.ones((dim, dim)) - np.eye(dim))
    values, vectors = np.linalg.eigh(gram)
    basis = (vectors * np.sqrt(values)) @ vectors.T
    assert np.abs(basis.T @ basis - np.eye(dim)).max() <= ALGEBRA_TOL
    joint = JointState.from_amplitudes(vectors[:, -1][None, :])
    with pytest.raises(InvariantViolation, match=r"rebased weights must have unit power, got 1\.00000000135"):
        rebase_joint(joint, basis)


def test_rebase_arrays_are_read_only(rng):
    joint, _, _ = random_record_joint(rng, 3)
    for basis in (np.eye(3), random_unitary(rng, 3)):
        rebased = rebase_joint(joint, basis)
        for arr in (rebased.new_apparatus_basis, rebased.coefficients, rebased.relative_states):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0


def test_callers_arrays_stay_writeable_and_unshared(rng):
    coefficients = np.array([0.6, 0.8j])
    system, apparatus, basis = (random_unitary(rng, 2) for _ in range(3))
    amplitudes = _record_amplitudes(coefficients, system, apparatus)
    joint, direct = premeasurement_joint(coefficients, system, apparatus), JointState(amplitudes)
    rebased = rebase_joint(joint, basis)
    held = (joint.amplitudes, direct.amplitudes, rebased.new_apparatus_basis)
    for given in (coefficients, system, apparatus, amplitudes, basis):
        assert given.dtype == complex and given.flags.writeable
        assert not any(np.shares_memory(given, stored) for stored in held)
    np.testing.assert_array_equal(rebased.new_apparatus_basis, basis)


# --- pointer_basis_select ----------------------------------------------------------


def test_pointer_recovers_declared_apparatus_basis(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        joint, _, apparatus = random_record_joint(rng, dim)
        schmidt = pointer_basis_select(joint)
        assert not schmidt.non_unique
        # Match recovered vectors to declared ones by overlap, up to phase/order.
        overlaps = np.abs(apparatus.conj().T @ schmidt.apparatus_states)
        for k in range(schmidt.coefficients.size):
            assert np.max(overlaps[:, k]) > 1.0 - 1e-9


def test_pointer_product_state_flags_non_unique():
    joint = premeasurement_joint([1.0, 0.0])
    schmidt = pointer_basis_select(joint)
    assert schmidt.coefficients.size == 1
    assert schmidt.non_unique


def test_pointer_bell_flags_non_unique():
    schmidt = pointer_basis_select(premeasurement_joint(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert schmidt.non_unique


def _weighted_score(joint: JointState, basis: np.ndarray) -> float:
    """1 minus the largest weighted overlap c_i c_j |<r_i|r_j>| of the rebase onto basis."""
    return 1.0 - pointer._rebase(joint.amplitudes, basis)[3]


def test_pointer_score_is_the_weighted_score_of_the_rebase_onto_the_completed_basis(rng):
    for system_dim, apparatus_dim in ((2, 2), (2, 4), (3, 5)):
        joint = random_joint(rng, system_dim, apparatus_dim)
        schmidt, score = pointer_basis_scored(joint)
        completed = complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
        assert score == _weighted_score(joint, completed)
        assert 1.0 - ALGEBRA_TOL <= score <= 1.0
        assert score >= rebase_joint(joint, completed).orthogonality_score  # weights are at most 1
        assert np.array_equal(schmidt.apparatus_states, pointer_basis_select(joint).apparatus_states)


def test_pointer_audit_runs_on_the_svd_arrays_and_completes_only_a_short_basis(monkeypatch, rng):
    full, wide = random_joint(rng, 4, 4), random_joint(rng, 2, 4)
    calls = []

    def refuse_basis_check(value, name):
        raise AssertionError(f"{name} checked")

    def spy_complete(columns, dim):
        calls.append(columns.shape)
        return complete_basis(columns, dim)

    monkeypatch.setattr(pointer, "_as_basis", refuse_basis_check)
    monkeypatch.setattr(pointer, "complete_basis", spy_complete)
    pointer_basis_select(full)
    assert calls == []
    pointer_basis_select(wide)  # rank 2 of 4 apparatus dimensions
    assert calls == [(4, 2)]


def _small_branch_joint(s: float, seed: int) -> JointState:
    rng = np.random.default_rng(seed)
    coefficients = [math.sqrt(0.75 - s * s), 0.5, s]
    return premeasurement_joint(coefficients, random_unitary(rng, 3), random_unitary(rng, 3))


@pytest.mark.parametrize("s", [1e-6, 1e-8, 1e-10, 1.1e-12])
def test_pointer_accepts_a_small_schmidt_coefficient(s):
    """The relative state of weight s carries round-off of about 2^-53 / s, so the unweighted
    score falls short of 1 by more than ALGEBRA_TOL; the weighted audit accepts the state, and
    the score it returns is the weighted one it bounds."""
    for seed in range(5):
        joint = _small_branch_joint(s, seed)
        schmidt, score = pointer_basis_scored(joint)
        np.testing.assert_allclose(schmidt.coefficients, [math.sqrt(0.75 - s * s), 0.5, s], rtol=0, atol=1e-15)
        completed = complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
        assert score == _weighted_score(joint, completed)
        assert 1.0 - 1e-14 <= score <= 1.0


@pytest.mark.parametrize("s", [0.3, 1e-8])
def test_pointer_refuses_a_basis_mixing_two_significant_branches(monkeypatch, s):
    decompose = pointer.schmidt_svd
    monkeypatch.setattr(pointer, "schmidt_svd", lambda amplitudes: mixed_schmidt(decompose(amplitudes), 1e-6))
    joint = _small_branch_joint(s, 7) if s < 0.1 else premeasurement_joint([0.9, math.sqrt(0.19)])
    with pytest.raises(ToleranceError, match="weighted relative-state overlap"):
        pointer_basis_select(joint)


def test_random_bases_never_beat_the_pointer_score(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        joint, _, _ = random_record_joint(rng, dim)
        schmidt = pointer_basis_select(joint)
        pointer_score = rebase_joint(
            joint, complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
        ).orthogonality_score
        for _ in range(50):
            challenger = rebase_joint(joint, random_unitary(rng, dim)).orthogonality_score
            assert challenger <= pointer_score + 1e-9


# --- spreading ------------------------------------------------------------------------


def test_spreading_starts_at_sigma0():
    assert spreading_sigma(SpreadingModel(0.3, 2.0), 0.0) == 0.3


def test_spreading_asymptote_scales_inversely_with_mass():
    sigma0, mass = 0.5, 2.0
    t = 1e6 * mass * sigma0**2
    ratio = spreading_sigma(SpreadingModel(sigma0, 2 * mass), t) / spreading_sigma(
        SpreadingModel(sigma0, mass), t
    )
    assert abs(ratio - 0.5) < 1e-3


def test_spreading_heavy_limit_freezes():
    assert abs(spreading_sigma(SpreadingModel(0.4, 1e12), 5.0) - 0.4) < 1e-12


def test_spreading_monotonicity():
    model = SpreadingModel(0.2, 1.5)
    times = np.linspace(0, 10, 25)
    widths = [spreading_sigma(model, t) for t in times]
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    heavier = [spreading_sigma(SpreadingModel(0.2, 3.0), t) for t in times]
    assert all(h <= w for h, w in zip(heavier[1:], widths[1:]))


def test_spreading_rejects_negative_time():
    with pytest.raises(InvariantViolation, match="nonnegative"):
        spreading_sigma(SpreadingModel(1.0, 1.0), -0.1)


def test_spreading_rejects_a_timescale_outside_double_range():
    with pytest.raises(InvariantViolation, match="sigma0"):
        SpreadingModel(1e-3, 1e-320)
    with pytest.raises(InvariantViolation, match="sigma0"):
        SpreadingModel(1e200, 1.0)


def test_spreading_rejects_an_overflowing_width():
    with pytest.raises(InvariantViolation, match="overflows"):
        spreading_sigma(SpreadingModel(1.0, 1e-10), 1e300)


# --- detector facts ---------------------------------------------------------------------


def test_detector_zero_rate_never_clicks():
    sequence = detector_click_simulation(0.0, 0.5, 5.0, seed=1)
    assert sequence.click_time is None
    assert sequence.click_time is None
    assert len(sequence.ticks) == 10
    assert all(kind == "nonclick" for _, kind in sequence.ticks)


def test_detector_sequences_are_well_formed():
    for seed in range(200):
        sequence = detector_click_simulation(2.0, 0.1, 5.0, seed=seed)
        kinds = [kind for _, kind in sequence.ticks]
        assert kinds.count("click") <= 1
        if "click" in kinds:
            assert kinds[-1] == "click"
            assert sequence.click_time == sequence.ticks[-1][0]
        times = [t for t, _ in sequence.ticks]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_detector_deterministic():
    a = detector_click_simulation(1.5, 0.05, 8.0, seed=42)
    b = detector_click_simulation(1.5, 0.05, 8.0, seed=42)
    assert a == b


def test_detector_click_times_follow_exponential_law():
    # Empirical CDF against 1 - exp(-rate t) over a modest seeded batch.
    rate, tick = 2.0, 0.004
    times = []
    for seed in range(2000):
        sequence = detector_click_simulation(rate, tick, 10.0, seed=seed)
        if sequence.click_time is not None:
            times.append(sequence.click_time)
    times.sort()
    n = len(times)
    assert n > 1990
    worst = 0.0
    for i, t in enumerate(times):
        cdf = 1.0 - math.exp(-rate * t)
        worst = max(worst, abs((i + 1) / n - cdf), abs(i / n - cdf))
    assert worst <= 0.03


def test_detector_facts_past_the_cap_are_refused_before_any_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation, match=f"{MAX_RECORDED_TICKS + 1} tick facts"):
            detector_click_simulation(0.0, 0.5, 0.5 * (MAX_RECORDED_TICKS + 1), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # one fact tuple alone is about 100 bytes
    # The cap is on facts recorded, not on the horizon: an early click records few.
    sequence = detector_click_simulation(1e3, 0.5, 0.5 * (MAX_RECORDED_TICKS + 1), seed=1)
    assert sequence.click_time is not None and len(sequence.ticks) == 1


# Seeds of one, two, three, four and five 32-bit words.
SEEDS = [0, 7, 2**32 - 50, 5 * 2**32 - 3, 2**64 - 20, 2**128 - 50, 2**130 + 1]


def _concatenated(blocks) -> list[int]:
    """first_clicks' blocks laid end to end; each must be an int64 array."""
    blocks = list(blocks)
    assert all(isinstance(block, np.ndarray) and block.dtype == np.int64 for block in blocks)
    return np.concatenate(blocks).tolist()


@pytest.mark.parametrize("p", [0.00995, 0.5, 1.0, 0.0], ids=["inversion", "search", "certain", "never"])
@pytest.mark.parametrize("seed", SEEDS)
def test_first_clicks_draw_in_order_from_default_rng_of_seed(seed, p):
    assert _concatenated(first_clicks(40, p, seed, 100)) == one_stream_first_clicks(40, p, seed, 100)


def test_first_clicks_past_one_block_keep_the_one_stream():
    runs = _RUN_BLOCK + 100
    assert _concatenated(first_clicks(40, 0.00995, 11, runs)) == one_stream_first_clicks(40, 0.00995, 11, runs)


@pytest.mark.parametrize("p", [0.00995, 0.2, 0.34, 0.9, 1e-6])
def test_first_clicks_are_prefix_stable_across_runs_and_block_splits(monkeypatch, p):
    runs = 3 * _RUN_BLOCK + 5
    whole = _concatenated(first_clicks(10**7, p, 2**64 - 20, runs))
    for prefix in (1, 17, _RUN_BLOCK, _RUN_BLOCK + 1, runs - 1):
        assert _concatenated(first_clicks(10**7, p, 2**64 - 20, prefix)) == whole[:prefix]
    for block in (1, 3, 17, 4095):
        monkeypatch.setattr(pointer, "_RUN_BLOCK", block)
        assert _concatenated(first_clicks(10**7, p, 2**64 - 20, 5000)) == whole[:5000]


@pytest.mark.parametrize("seed", SEEDS)
def test_first_clicks_run_0_is_the_detector_simulation_of_the_seed(seed):
    for rate, tick, horizon in ((0.0, 0.5, 5.0), (2.0, 0.1, 5.0), (0.3, 0.2, 1.0), (1e3, 0.5, 10.0)):
        sequence = detector_click_simulation(rate, tick, horizon, seed)
        count, p = pointer.detector_law(rate, tick, horizon)
        assert _concatenated(first_clicks(count, p, seed, 7))[0] == (len(sequence.ticks) if sequence.click_time is not None else 0)


def test_first_clicks_draw_nothing_when_p_is_0(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    blocks = list(first_clicks(40, 0.0, 7, _RUN_BLOCK + 1))
    assert [block.size for block in blocks] == [_RUN_BLOCK, 1]
    assert _concatenated(blocks) == [0] * (_RUN_BLOCK + 1)
    assert detector_click_simulation(0.0, 0.5, 5.0, seed=7).click_time is None


def test_first_clicks_in_threads_draw_the_one_stream_of_each_seed():
    # Each call owns its generator; a shared one would hand a thread draws another thread made.
    seeds = [11, 5000, 2**32 - 50, 2**64 - 20, 2**130 + 1]
    expected = {seed: one_stream_first_clicks(40, 0.00995, seed, 1000) for seed in seeds}
    results = {}

    def draw(seed):
        results[seed] = _concatenated(first_clicks(40, 0.00995, seed, 1000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def test_fact_sequence_is_append_only():
    sequence = detector_click_simulation(1.0, 0.2, 3.0, seed=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sequence.click_time = None
    assert isinstance(sequence.ticks, tuple)


def test_detector_records_equal_their_checked_construction(monkeypatch):
    checks = []
    checked_init = FactSequence.__init__
    monkeypatch.setattr(FactSequence, "__init__", lambda self, ticks, click_time: checks.append(self))
    records = {
        (rate, tick, horizon, seed): detector_click_simulation(rate, tick, horizon, seed)
        for rate in (0.0, 0.3, 2.0, 1e3)
        for tick in (0.01, 0.1, 0.5)
        for horizon in (0.5, 1.0, 10.0)
        for seed in range(5)
    }
    assert checks == []  # the simulation runs no constructor checks
    monkeypatch.setattr(FactSequence, "__init__", checked_init)
    seen = set()
    for (rate, tick, horizon, seed), record in records.items():
        checked = FactSequence(record.ticks, record.click_time)
        assert type(record) is FactSequence and record == checked and repr(record) == repr(checked)
        assert list(vars(record)) == list(vars(checked)) == list(inspect.signature(FactSequence).parameters)
        for name, value in vars(record).items():
            assert type(value) is type(getattr(checked, name))
        assert all(type(time) is float and type(kind) is str for time, kind in record.ticks)
        if rate == 0.0:
            seen.add("rate 0")
            assert record.click_time is None and len(record.ticks) == int(horizon / tick + 1e-9)
        elif record.click_time is None:
            seen.add("no click")
        elif len(record.ticks) == 1:
            seen.add("first tick")
    assert seen == {"rate 0", "no click", "first tick"}


def test_fact_sequence_rejects_inconsistent_records():
    with pytest.raises(InvariantViolation, match="final"):
        FactSequence(((0.1, "click"), (0.2, "nonclick")), 0.1)
    with pytest.raises(InvariantViolation, match="increasing"):
        FactSequence(((0.2, "nonclick"), (0.1, "nonclick")), None)
    with pytest.raises(InvariantViolation, match="mirror"):
        FactSequence(((0.1, "nonclick"),), 0.1)
