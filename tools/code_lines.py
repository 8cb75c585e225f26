"""Count the code lines of a Python package: lines without docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break touches
it and it lies outside every docstring (the leading string of a module,
class or function, found with ``ast``).  Comments and line breaks are
found with ``tokenize``, so a ``#`` inside a string is not a comment.

Usage: ``python tools/code_lines.py [package directory]``, by default
``src/topolab``.  Prints one line per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_package(directory: Path) -> dict[str, int]:
    """The code lines of each module directly in ``directory``, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/topolab")
    counts = count_package(directory)
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
