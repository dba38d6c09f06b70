"""Golden report bytes: every shipped scenario, every preset, and two Hamiltonian files.

A fresh run must reproduce the CSV and JSON bytes stored in tests/golden/.
The two files under tests/golden/inputs/ carry a fixed nonzero Hamiltonian
(no shipped scenario has one), so the spectral path is pinned as well.
Rewrite the golden files only for an intended change of report bytes:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

from qcontexts import emit_report, load_preset, load_scenario, preset_names, run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SHIPPED = (
    "three_box",
    "three_box_chain",
    "two_slit_gap",
    "skewed_record_pointer",
    "packet_spreading",
    "geiger_counter",
)
HAMILTONIAN = ("hamiltonian_abl", "hamiltonian_chain")
PRESETS = ("geiger", "three-box", "two-slit")
FORMATS = ("csv", "json")


def _cases() -> dict:
    cases = {stem: ROOT / "scenarios" / f"{stem}.json" for stem in SHIPPED}
    cases.update({stem: GOLDEN_DIR / "inputs" / f"{stem}.json" for stem in HAMILTONIAN})
    cases.update({f"preset_{name}": name for name in PRESETS})
    return cases


def _report(source):
    scenario = load_scenario(source) if isinstance(source, Path) else load_preset(source)
    return run_scenario(scenario)


def test_golden_set_covers_every_preset():
    assert set(PRESETS) == set(preset_names())


@pytest.mark.parametrize("stem", sorted(_cases()))
def test_report_bytes_match_golden(stem):
    report = _report(_cases()[stem])
    for fmt in FORMATS:
        expected = (GOLDEN_DIR / f"{stem}.{fmt}").read_bytes()
        assert emit_report(report, fmt) == expected, f"{stem}.{fmt} differs from its golden bytes"


if __name__ == "__main__":
    for stem, source in _cases().items():
        report = _report(source)
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{stem}.{fmt}").write_bytes(emit_report(report, fmt))
