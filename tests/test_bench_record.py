"""tools/bench_record.py: what a BENCH file records about the checkout it ran in."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _git(checkout, *args):
    subprocess.run(["git", *args], cwd=checkout, check=True, capture_output=True, timeout=60)


CHECKOUTS = {  # (git repository?, a file in it?, staged?): what uncommitted_changes reads there
    "not-a-repository": ((False, True, False), None),
    "clean": ((True, False, False), False),
    "untracked-file-only": ((True, True, False), False),
    "staged-file": ((True, True, True), True),
}


@pytest.mark.parametrize("layout, expected", CHECKOUTS.values(), ids=CHECKOUTS.keys())
def test_uncommitted_changes_reads_the_checkout(tmp_path, monkeypatch, layout, expected):
    """True or False in a git checkout, by whether tracked files differ; None where `git status` fails."""
    repository, a_file, staged = layout
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # git looks for no repository above the checkout
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    if repository:
        _git(checkout, "init", "-q")
    if a_file:
        (checkout / "notes.txt").write_text("untracked until it is added\n")
    if staged:
        _git(checkout, "add", "notes.txt")
    assert bench_record.uncommitted_changes(checkout) is expected
