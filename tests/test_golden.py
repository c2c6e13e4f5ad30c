"""Golden cases: the CLI's output, pinned byte for byte.

Each directory under ``tests/golden`` is one case:

- ``case.json``: ``{"timeout": seconds, "commands": [{"argv": [...],
  "exit": code}, ...]}``.  The commands run in order, in one temporary
  directory, each as ``python -m infovalue *argv`` in a fresh process that
  must finish within ``timeout`` seconds and exit with ``code``.
- ``in/``: files copied into that directory before the first command.
- ``<n>.stdout`` and ``<n>.stderr``: what the n-th command (counting from 1)
  prints.  A stream with no file must be empty.
- ``out/``: every file the commands write, byte for byte.  Each written
  ``.json`` file must also be canonical: what ``json.dumps`` writes with
  ``sort_keys=True, indent=2``, plus a newline.

Any other file in a case directory, such as a ``<n>.stdout`` for an n
past the last command, fails the case: it would never be compared.

An expected file changes only by hand: run the command again and review
the diff.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import cli_env

GOLDEN = Path(__file__).parent / "golden"


def expected(path):
    return path.read_bytes().decode("utf-8") if path.exists() else ""


def names(folder):
    return {p.name for p in folder.iterdir()} if folder.is_dir() else set()


@pytest.mark.parametrize("case", sorted(names(GOLDEN)))
def test_golden_case(case, tmp_path):
    here = GOLDEN / case
    spec = json.loads((here / "case.json").read_text(encoding="utf-8"))
    read = {"case.json", "in", "out"} | {
        f"{n}.{stream}"
        for n in range(1, len(spec["commands"]) + 1)
        for stream in ("stdout", "stderr")
    }
    assert names(here) <= read, f"files the case never reads: {sorted(names(here) - read)}"
    inputs, outputs = here / "in", here / "out"
    if inputs.is_dir():
        shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    for n, command in enumerate(spec["commands"], 1):
        done = subprocess.run(
            [sys.executable, "-m", "infovalue", *command["argv"]],
            capture_output=True,
            cwd=tmp_path,
            env=cli_env("80"),
            timeout=spec["timeout"],
        )
        assert (
            done.returncode,
            done.stdout.decode("utf-8"),
            done.stderr.decode("utf-8"),
        ) == (
            command["exit"],
            expected(here / f"{n}.stdout"),
            expected(here / f"{n}.stderr"),
        ), command["argv"]

    assert sorted(names(tmp_path)) == sorted(names(inputs) | names(outputs))
    for name in sorted(names(outputs)):
        text = (tmp_path / name).read_bytes().decode("utf-8")
        assert text == expected(outputs / name), name
        if name.endswith(".json"):
            canonical = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
            assert text == canonical, name
