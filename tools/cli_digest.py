"""Hash what the command line prints on a fixed corpus, one line per call.

Usage::

    python tools/cli_digest.py SRC

Imports ``infovalue`` from the directory ``SRC`` (``src``, or the ``src``
of another revision unpacked with ``git archive``) and writes a corpus to
a temporary directory: every problem file under this checkout's
``tests/golden/*/in``, ``tests/golden/*/out`` and ``tests/presets``, and
the ``cli_mix`` files that ``bench/gen.py`` writes at seed 11.  On each
file it calls ``eval``, ``eval --policy conditionalization`` and
``adversary`` (stdout mode) in process; then ``scenario`` on each preset
``cli_mix`` evaluates, the two ``sweep`` calls ``cli_mix`` makes, and
``check --trials 12 --seed 0``.  Calls run in the corpus directory, on
paths relative to it.

Prints one line per call: the sha256 of its exit code, stdout and stderr,
then its argv.  The last line is one sha256 over all the lines before it.
A ``diff`` of the output for two revisions names the first call whose
output differs.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
CORPUS = ("tests/golden/*/in/*", "tests/golden/*/out/*", "tests/presets/*")


def write_corpus(gen, into: Path) -> list[str]:
    """Write the corpus under ``into``; its files' paths relative to it, in order."""
    files = {}
    for pattern in CORPUS:
        for path in sorted(ROOT.glob(pattern)):
            files[path.relative_to(ROOT).as_posix()] = path.read_bytes()
    for inst in gen.cli_instances(SEED):
        files[f"cli_mix/{inst.label}.json"] = gen.to_document(inst).encode()
    for name, data in files.items():
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        (into / name).write_bytes(data)
    return list(files)


def calls(gen, files: list[str]):
    """Every argv the digest runs, in order."""
    for name in files:
        yield ["eval", "--problem", name]
        yield ["eval", "--problem", name, "--policy", "conditionalization"]
        yield ["adversary", "--problem", name]
    yield ["scenario", "race"]
    for preset in ("gamblers", "unknown-bias"):
        for epsilon in gen.scenario_epsilons(SEED):
            yield ["scenario", preset, "--epsilon", str(epsilon)]
    grid = ",".join(map(str, gen.SWEEP_EPSILONS))
    yield ["sweep", "gamblers", "--epsilons", grid]
    yield ["sweep", "unknown-bias", "--epsilons", grid, "--format", "csv"]
    yield ["check", "--trials", str(gen.CHECK_TRIALS), "--seed", str(gen.CHECK_SEED)]


def record(main, argv: list[str]) -> str:
    """The sha256 of one in-process call's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses by exiting
            code = exc.code
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def digest(src: Path) -> list[str]:
    """One line per call, then the total, for ``infovalue`` imported from ``src``."""
    sys.dont_write_bytecode = True  # leave no cache in ``src`` or ``bench``
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import gen
    import infovalue.cli

    if Path(infovalue.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"infovalue was imported from {infovalue.cli.__file__}, not {src}")
    lines = []
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in calls(gen, write_corpus(gen, Path(tmp))):
                lines.append(f"{record(infovalue.cli.main, argv)}  {shlex.join(argv)}")
        finally:
            os.chdir(home)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"{total}  total"]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_digest.py SRC", file=sys.stderr)
        return 2
    print("\n".join(digest(Path(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
