"""The README's Python examples run and print what the README says."""

import doctest
import re
from pathlib import Path

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
