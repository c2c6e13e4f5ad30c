"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a whole-line comment


class Thing:
    """A class docstring."""

    def method(self, x):
        """A method docstring."""
        text = """not a docstring,
        but a string over two lines"""
        return (x +
                len(text))


async def run():
    """Only a docstring."""
'''


def test_a_snippet_counts_its_code_lines_only():
    # import, class, def, the two lines of `text`, the two of `return`, async def
    assert code_lines.code_lines(SNIPPET) == 8


def test_the_command_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"      8  {tmp_path / 'a.py'}",
        f"      2  {tmp_path / 'b.py'}",
        "     10  total",
    ]
