"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment and not part
of a docstring (the leading string of a module, class or function), so
blank lines, comment-only lines and docstrings are not counted.

Run from the root of a checkout::

    python3 tools/code_lines.py            # src/eplab
    python3 tools/code_lines.py DIR ...

It prints one line per module and the total of each directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    for directory in argv or ["src/eplab"]:
        total = 0
        for path in sorted(Path(directory).glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  {directory} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
