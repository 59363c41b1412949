"""No module under ``src/`` reaches into another's private names.

A ``_``-prefixed name is its module's own: a module that imports one from
another ``src/`` module (``from .machine import _write``), or reads one
off an imported module (``from . import machine`` and then
``machine._write``), fails the test unless the name is on :data:`ALLOWED`
with a reason.  The modules are read with ``ast``.

Thread states, the machine's ``(frames, focus)`` pairs, have one home:
:mod:`dynthreads.machine` names what the elaborator and the command line
use of them publicly, and a second test keeps the rest of the
representation there.  Only the machine walks the ``(frame, frames
below)`` cells of a state's frames, and nothing in ``src/`` plugs a state
back into a computation: the machine builds no ``let`` node, and the plug
lives in the tests (``graph_oracle.plug_state``).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dynthreads"

ALLOWED = {
    ("machine", "lang", "_comp"): "thread states are typed as frames and focus with the typing judgement",
    ("machine", "lang", "_tids"): "a thread state's world is read off the thread IDs its parts name",
    ("machine", "lang", "_closed"): "a fork step builds its result with its name sets stored",
}


def _source(node: ast.ImportFrom) -> str | None:
    """The ``src/`` module that ``node`` imports names from, or ``None``
    when it imports modules or imports from outside the package."""
    if node.level == 1:
        return node.module  # ``None`` for ``from . import x``
    if node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
        return node.module.split(".", 1)[1] if "." in node.module else None
    return None


def private_imports(module: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    """``(module, source, name)`` for each private name ``module`` takes
    from another ``src/`` module, imported by name or read off an imported
    module."""
    found, modules = set(), {}  # modules: local name -> src module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source(node)
            for alias in node.names:
                if source is None and (node.level == 1 or node.module == PACKAGE):
                    modules[alias.asname or alias.name] = alias.name
                elif source is not None and alias.name.startswith("_"):
                    found.add((module, source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.add((module, modules[node.value.id], node.attr))
    return {entry for entry in found if entry[1] != module}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    }


def test_no_module_in_src_imports_another_modules_private_names():
    found = set().union(*(private_imports(name, tree) for name, tree in _modules().items()))
    unlisted = sorted(found - set(ALLOWED))
    assert not unlisted, "private names imported across modules: " + ", ".join(
        f"{module} <- {source}.{name}" for module, source, name in unlisted
    )
    # an entry nothing imports any more leaves the list
    assert set(ALLOWED) <= found, sorted(set(ALLOWED) - found)


def test_the_check_sees_each_spelling():
    spellings = [
        "from .machine import _write",
        "from .machine import run, _write as write",
        "from dynthreads.machine import _write",
        "from . import machine\nmachine._write(s)",
        "from dynthreads import machine as m\nm._write(s)",
        "import dynthreads.machine as m\nm._write(s)",
    ]
    for text in spellings:
        assert private_imports("cli", ast.parse(text)) == {("cli", "machine", "_write")}, text
    for text in ("from .machine import run", "from os import _exit", "import os\nos._exit(0)",
                 "from . import machine\nmachine.__doc__", "from .cli import _read"):
        assert not private_imports("cli", ast.parse(text)), text


def _cell_walks(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that take a cons cell apart into its head and
    the rest of the list, as ``frame, frames = frames`` does."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and isinstance(node.targets[0], ast.Tuple)
        and [getattr(t, "id", None) for t in node.targets[0].elts][-1:] == [node.value.id]
    ]


def test_nothing_in_src_plugs_a_thread_state():
    # only the machine reads a state's frame cells, and only the language
    # module (its parser, desugarer and substitution) builds let nodes: a
    # state's frames are the program's own
    modules = _modules()
    walks = {name: _cell_walks(tree) for name, tree in modules.items()}
    assert [name for name, lines in walks.items() if lines] == ["machine"], walks
    builds = {
        name
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LetC"
    }
    assert builds == {"lang"}, builds
    assert _cell_walks(ast.parse("frame, frames = frames")) == [1]
    assert not _cell_walks(ast.parse("frames, comp = state\nx = frames"))
