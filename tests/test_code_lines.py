import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blanks_are_not_code():
    source = '''"""Module
docstring."""

# a comment
import os  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
        string that is code"""
        return text
'''
    # import, class, def, the two lines of the assigned string, return
    assert code_lines.code_lines(source) == 6


def test_counts_every_module_of_the_package(capsys):
    package = Path(__file__).resolve().parents[1] / "src" / "eplab"
    code_lines.main([str(package)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(list(package.glob("*.py"))) + 1
    counts = [int(line.split()[0]) for line in lines]
    assert sum(counts[:-1]) == counts[-1] > 0
