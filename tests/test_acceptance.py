"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `acceptance NN PASS/FAIL` line carrying the measured
worst case, so a `pytest tests/test_acceptance.py -v -s` run doubles as an
auditable checklist. Statistical criteria use frozen seeds; the bounds
themselves are never loosened to fit a seed.
"""

import math
import time

import numpy as np

from qcontexts import (
    Context,
    Intermediate,
    JointState,
    PostSelection,
    Preparation,
    Scenario,
    SpreadingModel,
    abl_distribution,
    born_context_distribution,
    complete_basis,
    detector_click_simulation,
    emit_report,
    load_preset,
    picture_consistency_check,
    pointer_basis_select,
    premeasurement_joint,
    rebase_joint,
    run_scenario,
    sample_chain,
    sequential_success_probability,
    spreading_sigma,
)
from helpers import (
    interchange_context,
    prepare_eigenstate,
    random_context,
    random_observable,
    random_state,
    random_unitary,
    report_value,
    time_reverse_context,
)


def report_line(number: int, passed: bool, detail: str) -> None:
    print(f"acceptance {number:02d} {'PASS' if passed else 'FAIL'} — {detail}")


def test_01_chain_oracle_agrees_with_analytic_rule():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_z = 0.0
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        ctx = random_context(rng, dim)
        analytic = abl_distribution(ctx)
        chain = sample_chain(ctx, 100_000, seed=10_000 + trial)
        assert not chain.no_data
        for label, p in analytic.entries:
            spread = math.sqrt(p * (1.0 - p) / chain.retained)
            gap = abs(chain.frequencies.probability(label) - p)
            if spread > 0.0:
                worst_z = max(worst_z, gap / spread)
            assert gap <= 3.0 * spread
    elapsed = time.perf_counter() - started
    passed = worst_z <= 3.0 and elapsed < 30.0
    report_line(1, passed, f"20 contexts x 1e5 samples, worst |z| {worst_z:.2f} (limit 3), {elapsed:.2f}s (limit 30s)")
    assert passed


def test_02_three_box_certainty_versus_born_weight():
    report = run_scenario(load_preset("three-box"))
    abl_gap = abs(report_value(report, "abl:box1") - 1.0)
    born_gap = abs(report_value(report, "born:box1") - 1.0 / 3.0)
    passed = abl_gap <= 1e-12 and born_gap <= 1e-12
    report_line(2, passed, f"conditional box1 off by {abl_gap:.1e}, Born off by {born_gap:.1e} (limits 1e-12)")
    assert passed


def test_03_total_probability_violation_and_commuting_null():
    report = run_scenario(load_preset("two-slit"))
    triple_gap = max(
        abs(report_value(report, "quantum") - 1.0),
        abs(report_value(report, "classical_chain") - 0.5),
        abs(report_value(report, "gap") - 0.5),
    )
    commuting = Scenario(
        name="commuting-triple",
        kind="gap",
        parameters={
            "preparation": {"state": [[1.0, 0.0], [0.0, 0.0]]},
            "intermediate": {"observable": "Z"},
            "postselection": {"observable": "Z", "label": "+1"},
        },
    )
    commuting_gap = abs(report_value(run_scenario(commuting), "gap"))
    passed = triple_gap <= 1e-12 and commuting_gap <= 1e-12
    report_line(3, passed, f"(1, 0.5, 0.5) off by {triple_gap:.1e}, commuting gap {commuting_gap:.1e} (limits 1e-12)")
    assert passed


def test_04_time_reversal_and_interchange_symmetry():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        ctx = random_context(rng, int(rng.integers(2, 5)), free=True)
        original = abl_distribution(ctx)
        reversed_dist = abl_distribution(time_reverse_context(ctx))
        interchanged_dist = abl_distribution(interchange_context(ctx))
        for label, p in original.entries:
            worst = max(
                worst,
                abs(reversed_dist.probability(label) - p),
                abs(interchanged_dist.probability(label) - p),
            )
    passed = worst <= 1e-10
    report_line(4, passed, f"100 free contexts, worst per-label drift {worst:.1e} (limit 1e-10)")
    assert passed


def test_05_picture_consistency():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        ctx = random_context(rng, int(rng.integers(2, 5)))
        worst = max(worst, picture_consistency_check(ctx))
    passed = worst <= 1e-10
    report_line(5, passed, f"50 driven contexts, worst picture gap {worst:.1e} (limit 1e-10)")
    assert passed


def test_06_delta_laws():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        # Intermediate repeats the preparation observable: delta at the prepared label.
        a_obs = random_observable(rng, dim, prefix="a")
        a_label = f"a{rng.integers(dim)}"
        prep = prepare_eigenstate(a_obs, a_label)
        b_obs = random_observable(rng, dim, prefix="b")
        b_label = f"b{rng.integers(dim)}"
        repeat_prep = Context(
            Preparation(prep, 0.0),
            PostSelection(b_obs, b_label, 2.0),
            Intermediate(a_obs, 1.0),
        )
        dist = abl_distribution(repeat_prep)
        for label, p in dist.entries:
            worst = max(worst, abs(p - (1.0 if label == a_label else 0.0)))
        # Intermediate repeats the post-selection observable: delta at the retained label.
        repeat_post = Context(
            Preparation(random_state(rng, dim), 0.0),
            PostSelection(b_obs, b_label, 2.0),
            Intermediate(b_obs, 1.0),
        )
        dist = abl_distribution(repeat_post)
        for label, p in dist.entries:
            worst = max(worst, abs(p - (1.0 if label == b_label else 0.0)))
    passed = worst <= 1e-12
    report_line(6, passed, f"50 repeat-observable contexts, worst delta breach {worst:.1e} (limit 1e-12)")
    assert passed


def test_07_conditioning_marginalizes_back_to_born():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
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
            worst = max(worst, abs(value - born.probability(label)))
    passed = worst <= 1e-10
    report_line(7, passed, f"50 contexts, worst marginalization drift {worst:.1e} (limit 1e-10)")
    assert passed


def test_08_pointer_basis_recovery_and_search():
    rng = np.random.default_rng(88)
    worst_overlap_defect = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        weights = np.linspace(1.0, 2.0, dim) + rng.uniform(0.0, 0.3, size=dim)
        weights = np.sort(weights)[::-1]
        coefficients = np.sqrt(weights / weights.sum()) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        apparatus = random_unitary(rng, dim)
        joint = premeasurement_joint(coefficients, random_unitary(rng, dim), apparatus)
        schmidt = pointer_basis_select(joint)
        assert not schmidt.non_unique
        overlaps = np.abs(apparatus.conj().T @ schmidt.apparatus_states)
        for k in range(schmidt.coefficients.size):
            worst_overlap_defect = max(worst_overlap_defect, 1.0 - float(np.max(overlaps[:, k])))
        pointer_score = rebase_joint(
            joint, complete_basis(schmidt.apparatus_states, joint.apparatus_dim)
        ).orthogonality_score
        for _ in range(500):
            challenger = rebase_joint(joint, random_unitary(rng, dim)).orthogonality_score
            assert challenger <= pointer_score
    degenerate = pointer_basis_select(premeasurement_joint(np.ones(2) / np.sqrt(2)))
    product = pointer_basis_select(premeasurement_joint([1.0, 0.0]))
    passed = worst_overlap_defect <= 1e-9 and degenerate.non_unique and product.non_unique
    report_line(
        8,
        passed,
        f"50 records recovered (worst overlap defect {worst_overlap_defect:.1e}, limit 1e-9); "
        f"500-draw searches never beat the pointer score; degenerate spectra flagged",
    )
    assert passed


def test_09_rebase_reconstruction_and_skewed_overlap():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        system_dim = int(rng.integers(2, 5))
        apparatus_dim = int(rng.integers(2, 5))
        raw = rng.standard_normal((system_dim, apparatus_dim)) + 1j * rng.standard_normal(
            (system_dim, apparatus_dim)
        )
        joint = JointState.from_amplitudes(raw / np.linalg.norm(raw))
        rebased = rebase_joint(joint, random_unitary(rng, apparatus_dim))
        rebuilt = (rebased.relative_states * rebased.coefficients) @ rebased.new_apparatus_basis.T
        worst = max(worst, float(np.max(np.abs(rebuilt - joint.amplitudes))))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    skewed = rebase_joint(premeasurement_joint([np.sqrt(0.9), np.sqrt(0.1)]), hadamard)
    overlap = abs(np.vdot(skewed.relative_states[:, 0], skewed.relative_states[:, 1]))
    overlap_gap = abs(overlap - 0.8)
    passed = worst <= 1e-10 and overlap_gap <= 1e-12
    report_line(
        9,
        passed,
        f"100 rebases reconstruct within {worst:.1e} (limit 1e-10); "
        f"skewed overlap off 0.8 by {overlap_gap:.1e} (limit 1e-12)",
    )
    assert passed


def test_10_spreading_scales_inversely_with_mass():
    sigma0, mass = 0.7, 1.3
    t = 1e6 * mass * sigma0**2
    ratio = spreading_sigma(SpreadingModel(sigma0, 2 * mass), t) / spreading_sigma(
        SpreadingModel(sigma0, mass), t
    )
    gap = abs(ratio - 0.5)
    passed = gap <= 1e-3
    report_line(10, passed, f"mass-doubling width ratio off 1/2 by {gap:.1e} (limit 1e-3)")
    assert passed


def test_11_detector_click_law():
    started = time.perf_counter()
    rate, tick, horizon = 2.0, 0.004, 10.0
    click_times = []
    for seed in range(10_000):
        sequence = detector_click_simulation(rate, tick, horizon, seed=seed)
        kinds = [kind for _, kind in sequence.ticks]
        assert kinds.count("click") <= 1
        if sequence.click_time is not None:
            assert kinds[-1] == "click"
            click_times.append(sequence.click_time)
    click_times.sort()
    n = 10_000
    ks = 0.0
    for i, t in enumerate(click_times):
        cdf = 1.0 - math.exp(-rate * t)
        ks = max(ks, abs((i + 1) / n - cdf), abs(i / n - cdf))
    elapsed = time.perf_counter() - started
    passed = ks <= 0.02 and elapsed < 10.0
    report_line(11, passed, f"1e4 runs, KS {ks:.4f} (limit 0.02), {elapsed:.2f}s (limit 10s); single final clicks")
    assert passed


def test_12_byte_identical_reruns():
    matched = True
    for name in ("three-box", "two-slit", "geiger"):
        for fmt in ("csv", "json"):
            first = emit_report(run_scenario(load_preset(name), seed=5), fmt)
            second = emit_report(run_scenario(load_preset(name), seed=5), fmt)
            matched = matched and first == second
    passed = matched
    report_line(12, passed, "every preset re-run with a fixed seed emits byte-identical csv and json")
    assert passed
