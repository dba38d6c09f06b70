"""Shared test utilities: seeded random objects, brute-force oracles, and the state constructors,
Lüders chain and context transforms that only the tests use. These trust their inputs."""

from __future__ import annotations

import functools

import numpy as np

from qcontexts import (
    Context,
    HermitianOperator,
    ImpossibleOutcomeError,
    Intermediate,
    InvariantViolation,
    Outcome,
    OutcomeDistribution,
    PostSelection,
    Preparation,
    ProjectiveDecomposition,
    SchmidtDecomposition,
    StateVector,
    abl_distribution,
    unitary_exponential,
)
from qcontexts.contexts import DENOMINATOR_FLOOR
from qcontexts.linalg import (
    _CLUSTER_TOL,
    ALGEBRA_TOL,
    CERTIFY_MARGIN,
    COEFFICIENT_DEGENERACY_TOL,
    ENTRY_BOUND,
    NEGLIGIBLE,
    canonical_phases,
    check_projector,
    max_abs,
    orthonormal_extend,
    projector_weights,
)
from qcontexts.pointer import _as_basis


def normalized(amplitudes) -> StateVector:
    """The unit state along `amplitudes`."""
    amps = np.asarray(amplitudes, dtype=complex)
    return StateVector(amps / np.linalg.norm(amps))


def canonical_state(amplitudes: np.ndarray) -> StateVector:
    """normalized, after rotating the first non-negligible entry real-positive."""
    return normalized(amplitudes * canonical_phases(amplitudes[:, None])[0])


def basis_state(dim: int, index: int) -> StateVector:
    return StateVector(np.eye(dim)[index])


def zero_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((dim, dim)))


def from_states(states, labels=None) -> ProjectiveDecomposition:
    """Rank-1 decomposition onto orthonormal states spanning the space, with values 0, 1, ...; labels "0", "1", ...
    by default."""
    labels = labels or [str(k) for k in range(len(states))]
    projectors = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in states]
    return ProjectiveDecomposition(tuple(Outcome(label, float(k), p) for k, (label, p) in enumerate(zip(labels, projectors))))


def prepare_eigenstate(observable: ProjectiveDecomposition, label: str) -> StateVector:
    """The state a rank-1 outcome projects onto: its largest-diagonal projector column, normalized, canonical phase."""
    projector = observable.projector(label)
    return canonical_state(projector[:, np.argmax(projector.diagonal().real)])


def born_distribution(state: StateVector, observable: ProjectiveDecomposition) -> OutcomeDistribution:
    """Outcome probabilities <s|P_k|s> from the state alone."""
    weights = projector_weights(state.amplitudes, observable.images(state.amplitudes))
    return OutcomeDistribution(tuple(zip(observable.labels, weights)))


def lueders_collapse(state: StateVector, observable: ProjectiveDecomposition, label: str) -> StateVector:
    """P_k|s> / ||P_k|s>|| with canonical phase; a zero-probability outcome is an impossible branch."""
    image = observable.projector(label) @ state.amplitudes
    if projector_weights(state.amplitudes, image[None])[0] <= NEGLIGIBLE:
        raise ImpossibleOutcomeError(f"zero-probability outcome {label!r}")
    return canonical_state(image)


def evolve(state: StateVector, hamiltonian: HermitianOperator, duration: float) -> StateVector:
    """exp(-i H t)|s> (hbar = 1) with canonical phase."""
    return canonical_state(unitary_exponential(hamiltonian, duration) @ state.amplitudes)


def projector_question(amplitudes: np.ndarray) -> ProjectiveDecomposition:
    """The yes / no observable "is the system in this state?"."""
    yes = np.outer(amplitudes, amplitudes.conj())
    return ProjectiveDecomposition((Outcome("yes", 1.0, yes), Outcome("no", 0.0, np.eye(amplitudes.size) - yes)))


def time_reverse_context(ctx: Context) -> Context:
    """Swap preparation and post-selection (rank-1), conjugate states, projectors and Hamiltonian, negate times."""
    inter, post = ctx.intermediate, ctx.postselection
    conjugated = tuple(Outcome(o.label, o.value, o.projector.conj()) for o in inter.observable.outcomes)
    return Context(
        Preparation(StateVector(prepare_eigenstate(post.observable, post.label).amplitudes.conj()), -post.time),
        PostSelection(projector_question(ctx.preparation.state.amplitudes.conj()), "yes", -ctx.preparation.time),
        Intermediate(ProjectiveDecomposition(conjugated), -inter.time, inter.performed),
        None if ctx.hamiltonian is None else HermitianOperator(ctx.hamiltonian.matrix.conj()),
    )


def interchange_context(ctx: Context) -> Context:
    """Exchange the preparation and (rank-1) post-selection roles of a free context, times kept."""
    post = ctx.postselection
    return Context(
        Preparation(prepare_eigenstate(post.observable, post.label), ctx.preparation.time),
        PostSelection(projector_question(ctx.preparation.state.amplitudes), "yes", post.time),
        ctx.intermediate,
    )


def report_value(report, label: str, column: str = "value") -> float:
    """The stored value in row `label`, column `column` of a Report."""
    return dict(report.rows)[label][report.columns.index(column)]


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalized(raw)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR with the phase ambiguity fixed."""
    raw = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(raw)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_observable(rng: np.random.Generator, dim: int, prefix: str = "o") -> ProjectiveDecomposition:
    """Nondegenerate observable with rank-1 projectors from a random unitary."""
    basis = random_unitary(rng, dim)
    states = [normalized(basis[:, k]) for k in range(dim)]
    return from_states(states, [f"{prefix}{k}" for k in range(dim)])


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * (raw + raw.conj().T) / 2)


def random_context(
    rng: np.random.Generator,
    dim: int,
    *,
    free: bool = False,
    performed: bool = True,
) -> Context:
    t1, t, t2 = np.sort(rng.uniform(-1.0, 2.0, size=3))
    # Keep the three events separated so the ordering invariant holds robustly.
    t = max(t, t1 + 1e-3)
    t2 = max(t2, t + 1e-3)
    hamiltonian = None if free else random_hermitian(rng, dim)
    post_obs = random_observable(rng, dim, prefix="b")
    label = f"b{rng.integers(dim)}"
    return Context(
        Preparation(random_state(rng, dim), float(t1)),
        PostSelection(post_obs, label, float(t2)),
        Intermediate(random_observable(rng, dim, prefix="c"), float(t), performed),
        hamiltonian,
    )


def enumerate_chain(ctx: Context) -> dict[tuple[str, str], float]:
    """Brute-force joint law of (intermediate label, final label).

    Walks the explicit measure-collapse-measure chain with the Lüders helpers,
    enumerating every branch instead of sampling — an independent route to the
    same statistics as the closed-form rule, never reading a Context cache. Each
    interval's propagator is formed once and applied to every branch.
    """
    hamiltonian = ctx.hamiltonian or zero_operator(ctx.dim)
    inter = ctx.intermediate
    forward = unitary_exponential(hamiltonian, inter.time - ctx.preparation.time)
    onward = unitary_exponential(hamiltonian, ctx.postselection.time - inter.time)
    evolved = canonical_state(forward @ ctx.preparation.state.amplitudes)
    first = born_distribution(evolved, inter.observable)
    joint: dict[tuple[str, str], float] = {}
    for c_label, c_prob in first.entries:
        if c_prob == 0.0:
            for b_label in ctx.postselection.observable.labels:
                joint[(c_label, b_label)] = 0.0
            continue
        collapsed = lueders_collapse(evolved, inter.observable, c_label)
        arrived = canonical_state(onward @ collapsed.amplitudes)
        second = born_distribution(arrived, ctx.postselection.observable)
        for b_label, b_prob in second.entries:
            joint[(c_label, b_label)] = c_prob * b_prob
    return joint


def conditional_from_joint(
    joint: dict[tuple[str, str], float], b_label: str, c_labels: tuple[str, ...]
) -> dict[str, float]:
    """Bayesian conditioning of the enumerated chain on the final outcome."""
    total = sum(joint[(c, b_label)] for c in c_labels)
    return {c: joint[(c, b_label)] / total for c in c_labels}


def decomposition_error(outcomes: tuple[Outcome, ...]) -> str | None:
    """The message ProjectiveDecomposition rejects `outcomes` with, or None."""
    try:
        ProjectiveDecomposition(outcomes)
    except InvariantViolation as exc:
        return str(exc)
    return None


def reference_decomposition_error(outcomes: tuple[Outcome, ...]) -> str | None:
    """decomposition_error by checking every projector, then multiplying out every pair.

    The checks as they stood before projectors and pairs could be certified from
    range bases: each outcome's shape and check_projector in order, every pair
    i < j in order, then the resolution of the identity.
    """
    dim = outcomes[0].projector.shape[0]
    for o in outcomes:
        if o.projector.shape != (dim, dim):
            return f"projector for {o.label!r} has mismatched dimension"
        try:
            check_projector(o.projector, f"projector for {o.label!r}")
        except InvariantViolation as exc:
            return str(exc)
    for i, a in enumerate(outcomes):
        for b in outcomes[i + 1 :]:
            if max_abs(a.projector @ b.projector) > ALGEBRA_TOL:
                return f"projectors for {a.label!r} and {b.label!r} are not orthogonal"
    total = sum(o.projector for o in outcomes)
    if max_abs(total - np.eye(total.shape[0])) > ALGEBRA_TOL:
        return "projectors do not sum to the identity"
    return None


def uncertified_reference(count: int, certificate) -> tuple[list[tuple[int, int]], bool]:
    """kinematics._uncertified for a certificate, with the expressions it had before they were made
    lean: np.outer, np.triu over the bound's mask, and np.linalg.norm of W^H W - np.eye."""
    w, ranks, e = certificate
    gram = w.conj().T @ w
    if len(gram) == count:
        block_norms = np.abs(gram)
    else:
        starts = np.cumsum([0, *ranks[:-1]])
        block_norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(gram) ** 2, starts, axis=0), starts, axis=1))
    bound = block_norms + e[:, None] + e[None, :] + np.outer(e, e)
    rows, cols = np.nonzero(np.triu(bound > ALGEBRA_TOL - CERTIFY_MARGIN, 1))
    square = w.shape[0] == w.shape[1]
    sum_needed = not square or np.linalg.norm(gram - np.eye(len(gram))) + e.sum() > ALGEBRA_TOL - CERTIFY_MARGIN
    return list(zip(rows.tolist(), cols.tolist())), bool(sum_needed)


def certified_reference(eigenvectors: np.ndarray) -> bool:
    """Eigensystem.certified with its former expression: np.linalg.norm of V^H V - np.eye."""
    e = float(np.linalg.norm(eigenvectors.conj().T @ eigenvectors - np.eye(eigenvectors.shape[1])))
    return e * (2.0 + e) <= ALGEBRA_TOL - CERTIFY_MARGIN


def branch_table_reference(state, observable: ProjectiveDecomposition, onward, post_proj) -> tuple[np.ndarray, np.ndarray]:
    """Context._branches as a per-outcome loop: the image P_k s, P_k a fresh copy of the projector
    (not a row of the decomposition's block), and its clamped weight vdot(s, P_k s), as the former
    scalar projector_image took them, then post_proj @ (onward @ image) and its vdot, one outcome
    at a time."""
    born = np.empty(len(observable.outcomes))
    joint = np.empty(len(observable.outcomes))
    for k, outcome in enumerate(observable.outcomes):
        image = np.array(outcome.projector) @ state
        weight = float(np.real(np.vdot(state, image)))
        born[k] = min(max(weight, 0.0), 1.0)
        branch = post_proj @ (onward @ image)
        joint[k] = float(np.real(np.vdot(branch, branch)))
    return born, joint


def count_branch_builds(monkeypatch) -> list:
    """Record every Context whose branch table (the cached Context._branches) is built."""
    built = []
    build = Context._branches.func

    def counting(ctx):
        built.append(ctx)
        return build(ctx)

    table = functools.cached_property(counting)
    table.__set_name__(Context, "_branches")
    monkeypatch.setattr(Context, "_branches", table)
    return built


def abl_reference(ctx: Context) -> OutcomeDistribution:
    """abl_distribution as built on every call before a Context kept it: each numpy-scalar
    weight of the branch table divided by the float total, one entry at a time."""
    weights = ctx._branches[1]
    total = float(weights.sum())
    return OutcomeDistribution(
        tuple((label, w / total) for label, w in zip(ctx.intermediate.observable.labels, weights))
    )


def born_reference(ctx: Context) -> OutcomeDistribution:
    """born_context_distribution as built on every call before a Context kept it, from numpy scalars."""
    return OutcomeDistribution(tuple(zip(ctx.intermediate.observable.labels, ctx._branches[0])))


def heisenberg_discrepancy_reference(ctx: Context) -> float:
    """picture_consistency_check by conjugating every projector explicitly.

    The Heisenberg loop as it stood before the operators were applied to the
    ket: U_mid^H P_k U_mid multiplied out per outcome (2k dense products),
    then the per-label gap by a linear label lookup.
    """
    inter = ctx.intermediate
    schrodinger = abl_distribution(ctx)
    u_mid, u_post = ctx._forward, ctx._through
    prepared = ctx.preparation.state.amplitudes
    post_proj = ctx.postselection.observable.projector(ctx.postselection.label)
    post_heis = u_post.conj().T @ post_proj @ u_post
    u_mid_dagger = u_mid.conj().T
    weights = np.empty(len(inter.observable.outcomes))
    for k, outcome in enumerate(inter.observable.outcomes):
        proj_heis = u_mid_dagger @ outcome.projector @ u_mid
        branch = post_heis @ (proj_heis @ prepared)
        weights[k] = float(np.real(np.vdot(branch, branch)))
    total = float(weights.sum())
    if total <= DENOMINATOR_FLOOR:
        raise ImpossibleOutcomeError("post-selection unreachable in the Heisenberg evaluation")
    discrepancy = 0.0
    for k, label in enumerate(inter.observable.labels):
        discrepancy = max(discrepancy, abs(schrodinger.probability(label) - weights[k] / total))
    return discrepancy


# --- the per-entry scans and per-column loops that the vectorized kernels replaced ---------


def as_complex_array_reference(entries, ndim: int, name: str, square: bool = False) -> np.ndarray:
    """linalg.as_complex_array with the exact per-entry finiteness scan on every call."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != ndim:
        raise InvariantViolation(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"{name} contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_entry_bound_reference(arr: np.ndarray, name: str, kind: str) -> None:
    """linalg.check_entry_bound with the per-entry max_abs scan on every call."""
    largest = max_abs(arr)
    if largest > ENTRY_BOUND:
        raise InvariantViolation(f"{name} has an entry of magnitude {largest:.3e} > {ENTRY_BOUND:g}; no {kind} has one")


def fix_global_phase_reference(vector: np.ndarray) -> np.ndarray:
    """The vector times its linalg.canonical_phases entry, as a scalar loop over the entries."""
    for entry in vector:
        if abs(entry) > NEGLIGIBLE:
            return vector * (entry.conjugate() / abs(entry))
    return vector


def eigensystem_reference(operator: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """linalg.hermitian_eigensystem's (values, vectors), fixing each column's phase in the cluster loop."""
    values, vectors = np.linalg.eigh(operator.matrix)
    scale = max(1.0, max_abs(values))
    out = vectors.copy()
    n = values.size
    i = 0
    while i < n:
        j = i + 1
        while j < n and values[j] - values[j - 1] <= _CLUSTER_TOL * scale:
            j += 1
        if j - i > 1:
            cluster = out[:, i:j]
            span = orthonormal_extend([], cluster @ cluster.conj().T, j - i)
            if len(span) == j - i:
                out[:, i:j] = np.column_stack(span)
        for k in range(i, j):
            out[:, k] = fix_global_phase_reference(out[:, k])
        i = j
    return values, out


def schmidt_reference(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """linalg.schmidt_decompose's fields from a valid amplitude matrix, phases fixed column by column."""
    left, values, right_h = np.linalg.svd(matrix, full_matrices=False)
    full = min(matrix.shape)
    rank = max(int(np.sum(values > NEGLIGIBLE)), 1)
    adjacent_close = bool(np.any(values[:-1] - values[1:] <= COEFFICIENT_DEGENERACY_TOL)) if full > 1 else False
    non_unique = adjacent_close or rank < full
    coefficients = values[:rank].copy()
    system_states = left[:, :rank].copy()
    apparatus_states = right_h[:rank, :].T.copy()
    for k in range(rank):
        for entry in system_states[:, k]:
            if abs(entry) > NEGLIGIBLE:
                phase = entry.conjugate() / abs(entry)
                system_states[:, k] = system_states[:, k] * phase
                apparatus_states[:, k] = apparatus_states[:, k] * phase.conjugate()
                break
    return coefficients, system_states, apparatus_states, non_unique


def rebase_reference(joint, new_basis) -> tuple[np.ndarray, np.ndarray, float]:
    """pointer.rebase_joint's (weights, relative states, unclamped score) for a complete basis,
    normalizing the significant columns one at a time."""
    basis = _as_basis(new_basis, "new apparatus basis")
    images = joint.amplitudes @ basis.conj()
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
    return weights, relative, score


def mixed_schmidt(schmidt, angle: float):
    """The SchmidtDecomposition with apparatus columns 0 and 1 rotated into each other by `angle`."""
    apparatus = schmidt.apparatus_states.copy()
    c, s = np.cos(angle), np.sin(angle)
    apparatus[:, 0], apparatus[:, 1] = c * apparatus[:, 0] + s * apparatus[:, 1], c * apparatus[:, 1] - s * apparatus[:, 0]
    return SchmidtDecomposition(schmidt.coefficients, schmidt.system_states, apparatus, schmidt.non_unique)


def one_stream_first_clicks(count: int, p: float, seed: int, runs: int) -> list[int]:
    """Run i's first-click index: draw i of one default_rng(seed).geometric(p, runs) call, 0 past count."""
    if p == 0.0:
        return [0] * runs
    return [d if d <= count else 0 for d in np.random.default_rng(seed).geometric(p, runs).tolist()]
