"""Write the expected report bytes that the benchmark's correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_expected.py

Covers the deterministic inputs: the abl, gap, pointer and spreading files
shipped in `scenarios/`, and the three-box and two-slit presets, each as CSV
and JSON. Sampled kinds (chain, detector) are checked by law instead. The
seeded Hamiltonian abl file is pinned at seed 1 for the self-tests; runs at
other seeds check it against the numpy reference. Rewrite these files only
when a change to report bytes is intended.
"""

from pathlib import Path

import qcontexts as qc

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FILES = ("three_box", "two_slit_gap", "skewed_record_pointer", "packet_spreading")
PRESETS = ("three-box", "two-slit")


def main() -> None:
    out = HERE / "expected"
    out.mkdir(exist_ok=True)
    scenarios = {stem: qc.load_scenario(ROOT / "scenarios" / f"{stem}.json") for stem in FILES}
    scenarios.update({f"preset_{name}": qc.load_preset(name) for name in PRESETS})
    generated = inputs.write_hamiltonian_scenarios(ROOT / "scenarios", HERE / "_out" / "seed1", 1)
    scenarios["hamiltonian_abl_seed1"] = qc.load_scenario(generated["hamiltonian_abl"])
    for stem, scenario in scenarios.items():
        report = qc.run_scenario(scenario)
        for fmt in ("csv", "json"):
            (out / f"{stem}.{fmt}").write_bytes(qc.emit_report(report, fmt))


if __name__ == "__main__":
    main()
