"""The README's Python examples and CLI transcripts print what the README says."""

import doctest
import json
import re
import shlex
from pathlib import Path

from test_golden import GOLDEN, expected

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_quick_tour_prints_what_its_comments_say(capsys):
    block = python_blocks(README.split("## Quick tour (Python)")[1])[0]
    said = [
        line.split("#")[1].split()[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert said == ["1/4", "-1/4", "-7/40"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split("\n") == said + [""]


def test_threshold_examples():
    (block,) = [b for b in python_blocks(README) if ">>> " in b]
    example = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(example)
    assert (runner.tries, runner.failures) == (4, 0)


def transcripts(text):
    """``(argv, printed)`` for each ``$ infovalue ...`` line of the ``sh`` blocks.

    ``printed`` is the text up to the next ``$`` line or the block's end,
    less the blank lines that separate one command from the next.
    """
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, printed = command.partition("\n")
            argv = shlex.split(line)
            if argv[0] == "infovalue":
                yield argv[1:], printed.rstrip("\n") + "\n"


def test_unelided_transcripts_print_their_golden_stdout():
    """A README transcript with no ``...`` whose command a golden case runs
    shows exactly what that case pins."""
    pinned = {}
    for case in GOLDEN.iterdir():
        spec = json.loads((case / "case.json").read_text(encoding="utf-8"))
        for n, command in enumerate(spec["commands"], 1):
            pinned[tuple(command["argv"])] = expected(case / f"{n}.stdout")
    checked = []
    for argv, printed in transcripts(README):
        if "..." not in printed and tuple(argv) in pinned:
            assert printed == pinned[tuple(argv)], argv
            checked.append(argv)
    assert ["sweep", "gamblers", "--epsilons", "0,1/10,1/2"] in checked
    assert ["sweep", "unknown-bias", "--epsilons", "1/10,1/7,1/5"] in checked
