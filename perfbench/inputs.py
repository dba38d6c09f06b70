"""Seeded inputs, numpy reference answers and correctness gates for the benchmark.

Nothing here imports qcontexts: the reference answers are computed from the
raw arrays with plain numpy (eigh-based propagators and branch norms), so a
change to the engine cannot move its own yardstick.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

ABL_TOL = 1e-9  # engine vs reference, per probability
PICTURE_TOL = 1e-10  # picture_consistency_check contract
Z_LIMIT = 5.0  # sampled kinds are checked by law, not bytes
MIN_BIN_EXPECTED = 250.0  # labels expected below this many retained draws are pooled
SWEEP_CHAIN_SAMPLES = 10_000
HAMILTONIAN_CHAIN_SAMPLES = 100_000


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Context arrays and the numpy reference


@dataclass
class ContextArrays:
    """Raw arrays of a preparation / intermediate / post-selection context."""

    psi: np.ndarray
    labels: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]
    post_projector: np.ndarray
    times: tuple[float, float, float]
    hamiltonian: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.psi.size


def _propagator(hamiltonian: np.ndarray | None, duration: float, dim: int) -> np.ndarray:
    if hamiltonian is None or not np.any(hamiltonian):
        return np.eye(dim, dtype=complex)
    values, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * values * duration)) @ vectors.conj().T


def _branch_weights(arrays: ContextArrays) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (post-selected branch norm squared, Born weight) per outcome."""
    t1, t, t2 = arrays.times
    forward = _propagator(arrays.hamiltonian, t - t1, arrays.dim) @ arrays.psi
    onward = _propagator(arrays.hamiltonian, t2 - t, arrays.dim)
    born = np.array([np.vdot(forward, p @ forward).real for p in arrays.projectors])
    branches = [arrays.post_projector @ (onward @ (p @ forward)) for p in arrays.projectors]
    return np.array([np.vdot(b, b).real for b in branches]), born


def reference_distributions(arrays: ContextArrays) -> tuple[np.ndarray, np.ndarray]:
    """(ABL, Born) distributions of the intermediate outcome, in label order."""
    weights, born = _branch_weights(arrays)
    return weights / weights.sum(), born / born.sum()


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _matrix(rows) -> np.ndarray:
    return np.array([[_complex(z) for z in row] for row in rows], dtype=complex)


def arrays_from_parameters(params: dict) -> ContextArrays:
    """Context arrays of an `abl`/`chain` scenario file's parameters."""
    outcomes = params["intermediate"]["observable"]["outcomes"]
    post = params["postselection"]
    post_projector = next(
        _matrix(o["projector"]) for o in post["observable"]["outcomes"] if o["label"] == post["label"]
    )
    hamiltonian = params.get("hamiltonian")
    return ContextArrays(
        psi=np.array([_complex(z) for z in params["preparation"]["state"]]),
        labels=tuple(o["label"] for o in outcomes),
        projectors=tuple(_matrix(o["projector"]) for o in outcomes),
        post_projector=post_projector,
        times=(params["preparation"]["time"], params["intermediate"]["time"], post["time"]),
        hamiltonian=None if hamiltonian is None else _matrix(hamiltonian),
    )


# ---------------------------------------------------------------------------
# Seeded generation


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) * (scale / (2.0 * math.sqrt(d)))
    # Exact Hermitian symmetry: the engine validates it to 1e-12.
    return np.triu(h) + np.triu(h, 1).conj().T


def random_context(rng: np.random.Generator, d: int, post_rank: int) -> ContextArrays:
    """Random pure preparation, rank-1 d-outcome intermediate, rank-`post_rank` post-selection, nonzero H."""
    basis = _unitary(rng, d)
    projectors = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(d))
    target = _unitary(rng, d)[:, :post_rank]
    return ContextArrays(
        psi=_unit(rng, d),
        labels=tuple(f"c{k}" for k in range(d)),
        projectors=projectors,
        post_projector=target @ target.conj().T,
        times=(0.0, 1.0, 2.0),
        hamiltonian=_hermitian(rng, d, 1.0),
    )


def random_joint(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m)


def _pairs_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_hamiltonian_scenarios(scenario_dir: Path, out_dir: Path, seed: int) -> dict[str, Path]:
    """Write the three-box geometry with a seeded nonzero Hamiltonian, as `abl` and `chain` files.

    No shipped scenario carries a `hamiltonian`; these two files put the
    spectral path under the `scenarios` and `cli` workloads.
    """
    rng = np.random.default_rng([seed, 0x4AB1])
    base = json.loads((scenario_dir / "three_box_chain.json").read_text())
    while True:
        params = copy.deepcopy(base["parameters"])
        params["hamiltonian"] = _pairs_matrix(_hermitian(rng, 3, 1.0))
        if _branch_weights(arrays_from_parameters(params))[0].sum() > 1e-3:  # keep the conditional well posed
            break
    out_dir.mkdir(parents=True, exist_ok=True)
    abl_params = {k: v for k, v in params.items() if k not in ("samples", "seed")}
    chain_params = dict(params, samples=HAMILTONIAN_CHAIN_SAMPLES, seed=int(seed) % (2**31))
    files = {
        "hamiltonian_abl": {"name": "three-box-hamiltonian", "kind": "abl", "parameters": abl_params},
        "hamiltonian_chain": {"name": "three-box-hamiltonian-chain", "kind": "chain", "parameters": chain_params},
    }
    paths = {}
    for stem, payload in files.items():
        payload["description"] = f"Three-box geometry driven by a seeded Hamiltonian (benchmark seed {seed})."
        path = out_dir / f"{stem}.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        paths[stem] = path
    return paths


# ---------------------------------------------------------------------------
# Correctness gates


def check_close(name: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(gap <= tol, f"{name}: off the reference by {gap:.3e} (tolerance {tol:.0e})")


def check_chain_law(name: str, reference: np.ndarray, counts: np.ndarray, retained: int) -> None:
    """|z| <= 5 per bin of the retained counts against the reference ABL law.

    Labels expected to receive fewer than MIN_BIN_EXPECTED retained draws
    are pooled into one bin, so the normal approximation holds; a bin with
    zero reference weight must stay empty. The gate fixes the law, not the
    random stream, so any correct sampler passes it.
    """
    require(retained > 0, f"{name}: no retained draws")
    require(int(counts.sum()) == retained, f"{name}: counts sum to {int(counts.sum())}, retained {retained}")
    expected = reference * retained
    small = expected < MIN_BIN_EXPECTED
    bins = [(reference[k], counts[k]) for k in np.flatnonzero(~small)]
    if small.any():
        bins.append((reference[small].sum(), counts[small].sum()))
    for p, count in bins:
        spread = math.sqrt(retained * p * max(1.0 - p, 0.0))
        excess = abs(count - retained * p) - 0.5
        require(excess <= Z_LIMIT * spread, f"{name}: bin with p={p:.4g} drew {count} of {retained}")


def _report_rows(report_json: bytes) -> tuple[dict, dict]:
    payload = json.loads(report_json)
    rows = {row[0]: [float(v) for v in row[1:]] for row in payload["rows"]}
    return rows, payload["metadata"]


def check_chain_report(name: str, report_json: bytes, arrays: ContextArrays) -> None:
    abl, _ = reference_distributions(arrays)
    rows, metadata = _report_rows(report_json)
    require(list(rows) == list(arrays.labels), f"{name}: labels {list(rows)}")
    check_close(f"{name} analytic", [rows[label][0] for label in arrays.labels], abl, ABL_TOL)
    retained = int(metadata["retained"])
    counts = np.array([round(rows[label][1] * retained) for label in arrays.labels])
    check_chain_law(name, abl, counts, retained)


def check_abl_report(name: str, report_json: bytes, arrays: ContextArrays) -> None:
    abl, born = reference_distributions(arrays)
    rows, _ = _report_rows(report_json)
    check_close(f"{name} abl", [rows[f"abl:{label}"][0] for label in arrays.labels], abl, ABL_TOL)
    check_close(f"{name} born", [rows[f"born:{label}"][0] for label in arrays.labels], born, ABL_TOL)


def check_detector_report(name: str, report_json: bytes, params: dict) -> None:
    """Click count within 5 sigma (plus continuity) of its binomial law."""
    rows, _ = _report_rows(report_json)
    runs = int(params["runs"])
    ticks = math.floor(params["horizon"] / params["tick"] + 1e-9)
    p_tick = -math.expm1(-params["rate"] * params["tick"])
    q = 1.0 - (1.0 - p_tick) ** ticks
    clicked = rows["clicked"][0]
    require(rows["runs"][0] == runs, f"{name}: runs {rows['runs'][0]} != {runs}")
    require(rows["censored"][0] == runs - clicked, f"{name}: censored does not complement clicked")
    spread = math.sqrt(runs * q * (1.0 - q))
    require(
        abs(clicked - runs * q) - 0.5 <= Z_LIMIT * spread,
        f"{name}: {clicked} clicks, binomial mean {runs * q:.3f} sd {spread:.3f}",
    )


def load_expected(stem: str) -> dict[str, bytes]:
    return {fmt: (EXPECTED_DIR / f"{stem}.{fmt}").read_bytes() for fmt in ("csv", "json")}
