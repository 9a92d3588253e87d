#!/usr/bin/env python3
"""Print the code lines of each module of a package and their total.

    python3 scripts/code_lines.py               # src/anchor_rag
    python3 scripts/code_lines.py path/to/dir   # any directory of .py files

A code line is a line that holds a token other than a comment and is not
part of a docstring (the string that is the first statement of a module,
class or function). So blank lines, comment lines and docstrings are not
counted; every line of any other string is, and so is a line that holds
code next to a comment.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anchor_rag"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``, a Python module."""
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        spanned = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and set(spanned) <= docstrings:
            continue
        lines.update(spanned)
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE, help="directory of .py files")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
