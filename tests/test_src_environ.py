"""No module under ``src/`` reads the environment.

What a command prints depends only on its arguments and its input files:
the budget is ``--fuel`` and nothing else.  The modules are read with
``ast``; a reference to ``environ``, ``environb``, ``getenv`` or
``getenvb``, as an attribute, a name or an imported alias, fails the
test, as does a ``from os import *``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST) -> list[int]:
    """The line of each reference to one of :data:`READERS` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names} & (READERS | {"*"})
        else:
            continue
        if names & (READERS | {"*"}):
            lines.append(node.lineno)
    return lines


def test_no_module_in_src_reads_the_environment():
    found = {
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in environment_reads(ast.parse(path.read_text()))
    }
    assert not found, "reads the environment: " + ", ".join(sorted(found))


def test_the_check_sees_each_spelling():
    spellings = [
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "from os import environ\nenviron['X']",
        "from os import getenv as g\ng('X')",
        "from os import *",
    ]
    for text in spellings:
        assert environment_reads(ast.parse(text)), text
    assert not environment_reads(ast.parse("import os\nos.path.join('a')"))
