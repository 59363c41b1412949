"""Count the code lines of Python files: lines that hold code, leaving out
blank lines, comment-only lines and docstrings.

    python3 tools/src_lines.py              # every .py file under src/
    python3 tools/src_lines.py src tools    # files or directories

Prints one ``lines  path`` row per file and then the total.  A line counts
when a token other than a comment or a line break touches it (a string
spanning several lines counts every line it spans), unless it belongs to
the docstring of a module, class or function, which ``ast`` locates.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings occupy."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    touched = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _LAYOUT:
            touched.update(range(tok.start[0], tok.end[0] + 1))
    return len(touched - docstring_lines(source))


def python_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"])
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
