"""No module under ``src/`` reaches into another's private names.

A ``_``-prefixed name is its module's own: a module that imports one from
another ``src/`` module (``from .machine import _plug``), or reads one off
an imported module (``from . import machine`` and then ``machine._plug``),
fails the test unless the name is on :data:`ALLOWED` with a reason.  The
list keeps the thread-state representation, the machine's ``(frames,
focus)`` pairs, from spreading to more modules.  The modules are read with
``ast``.

The one plug of a thread state back into a computation outside the
machine is the command line's trace; a second test keeps it the only one.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dynthreads"

ALLOWED = {
    ("denote", "machine", "_descend"): "the elaborator steps thread states with the machine's pure step",
    ("denote", "machine", "_effect"): "the elaborator dispatches effects as the machine does",
    ("denote", "machine", "_pure_step"): "the one evaluator of the pure fragment",
    ("denote", "machine", "_CHILD_START"): "a forked child's first state, which the elaborator denotes",
    ("denote", "machine", "_FORK_RESULT"): "the sum type a fork returns, which the elaborator denotes",
    ("cli", "machine", "_plug"): "the trace prints the acting thread's new state as text",
    ("machine", "lang", "_comp"): "thread states are typed as frames and focus with the typing judgement",
    ("machine", "lang", "_tids"): "a thread state's world is read off the thread IDs its parts name",
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
        "from .machine import _plug",
        "from .machine import run, _plug as plug",
        "from dynthreads.machine import _plug",
        "from . import machine\nmachine._plug(s)",
        "from dynthreads import machine as m\nm._plug(s)",
        "import dynthreads.machine as m\nm._plug(s)",
    ]
    for text in spellings:
        assert private_imports("cli", ast.parse(text)) == {("cli", "machine", "_plug")}, text
    for text in ("from .machine import run", "from os import _exit", "import os\nos._exit(0)",
                 "from . import machine\nmachine.__doc__", "from .cli import _read"):
        assert not private_imports("cli", ast.parse(text)), text


def test_only_the_command_line_trace_plugs_a_thread_state():
    # a state is plugged back into a computation only to be printed
    calls = [
        (name, node.lineno)
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "_plug" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert [name for name, _ in calls] == ["cli"], calls
    run = next(
        node for node in _modules()["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_run"
    )
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_plug"
               for node in ast.walk(run))
