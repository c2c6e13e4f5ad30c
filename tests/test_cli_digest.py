"""``tools/cli_digest.py`` prints the same lines for the same library, and a
changed refusal text changes its total."""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_digest.py"


def digest(src):
    """The tool's output lines for ``infovalue`` imported from ``src``."""
    run = subprocess.run(
        [sys.executable, str(TOOL), str(src)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    assert run.stderr == ""
    return run.stdout.splitlines()


@pytest.fixture(scope="module")
def lines():
    return digest(ROOT / "src")


def test_two_runs_on_src_print_identical_lines(lines):
    assert digest(ROOT / "src") == lines
    *calls, total = lines
    assert total == f"{hashlib.sha256(chr(10).join(calls).encode()).hexdigest()}  total"
    commands = [line.split()[1] for line in calls]
    assert commands.count("check") == 1 and commands.count("sweep") == 2
    assert commands.count("eval") == 2 * commands.count("adversary")


def test_a_changed_refusal_text_changes_the_total(lines, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    adversary = tmp_path / "src" / "infovalue" / "adversary.py"
    text = adversary.read_text(encoding="utf-8")
    refusal = "there is no disagreement to bet against"
    assert text.count(refusal) == 1
    adversary.write_text(text.replace(refusal, "nothing to bet against"), encoding="utf-8")
    patched = digest(tmp_path / "src")
    assert patched[-1] != lines[-1]
    first = next(new for old, new in zip(lines, patched) if old != new)
    assert first.split()[1] == "adversary"
