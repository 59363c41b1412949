"""Count the code lines of Python files: lines that hold code, leaving out
blank lines, comment-only lines and docstrings.

    python3 tools/src_lines.py                   # every .py file under src/
    python3 tools/src_lines.py src tools         # files or directories
    python3 tools/src_lines.py --base HEAD~1     # before and after, per file

Prints one ``lines  path`` row per file and then the total.  With
``--base REV`` each row is ``at REV  now  difference  path`` instead, for
every file found at ``REV`` (read with ``git show``) or in the working
tree, and a file missing on one side counts 0.  A line counts when a token
other than a comment or a line break touches it (a string spanning several
lines counts every line it spans), unless it belongs to the docstring of a
module, class or function, which ``ast`` locates.  Standard library and
``git`` only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def _git(folder: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(folder), *args], capture_output=True, text=True, check=True
    ).stdout


def lines_at(rev: str, path: Path) -> dict[Path, int]:
    """The code lines of each ``.py`` file under ``path``, a file or a
    directory, at the git revision ``rev``, read with ``git show``."""
    folder, spec = (path, ".") if path.is_dir() else (path.parent, path.name)
    names = _git(folder, "ls-tree", "-r", "--name-only", rev, "--", spec).splitlines()
    return {
        folder / name: code_lines(_git(folder, "show", f"{rev}:./{name}"))
        for name in names
        if name.endswith(".py")
    }


def compare(rev: str, paths: list[Path]) -> None:
    """Print each file's code lines at ``rev``, now and the difference,
    then the totals; a file missing on one side counts 0."""
    before: dict[Path, int] = {}
    for path in paths:
        before.update(lines_at(rev, path))
    now = {path: code_lines(path.read_text()) for path in python_files(paths) if path.exists()}
    for path in sorted(before.keys() | now.keys()):
        old, new = before.get(path, 0), now.get(path, 0)
        print(f"{old:6d} {new:6d} {new - old:+6d}  {os.path.relpath(path)}")
    old, new = sum(before.values()), sum(now.values())
    print(f"{old:6d} {new:6d} {new - old:+6d}  total")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"])
    parser.add_argument("--base", metavar="REV", help="also count each file at this git revision")
    args = parser.parse_args(argv)
    if args.base is not None:
        compare(args.base, args.paths)
        return 0
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
