"""Lines of code of a Python package, per module and in total.

    python3 tools/loc.py [DIR]   (default: src/sostar)

A line of code is a non-blank line that is neither a comment nor part of a
docstring.  Docstrings are found with `ast`: the string constant that opens
a module, class or function body.  Every other line, a continuation line of
an expression or a multi-line string that is not a docstring included,
counts.  Prints one "count  module" line per module, sorted by name, then
the total.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that a docstring of `tree` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The lines of code of one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def count_tree(root: Path) -> dict[str, int]:
    """{module path relative to root: lines of code} for every .py under root."""
    return {path.relative_to(root).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/sostar")
    counts = count_tree(root)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
