"""Every public definition in ``src/`` has a caller outside the tests.

The package's public top-level functions and classes, and the public
methods of its classes, are collected with ``ast``.  A definition counts
as called when its name is referenced from ``src/`` outside the definition
itself, or from ``perfbench/*.py`` or ``tools/*.py``; a reference is an
``ast.Name``, an ``ast.Attribute`` or an import alias.  What only the
tests call belongs under ``tests/``, beside the oracle that uses it.

Names are matched without their owner, so a method whose name is also
some other identifier in those files slips past: ``world`` was both a
method of ``Configuration`` and the name of many local variables, and
``below`` of ``PosetWithHoles`` and of a variable of ``interp``, and
``index`` of ``ParamContext`` and the ``index`` field of ``ProjC``, ``In``
and ``PosetWithHoles``.  What such a method alone raises slips past with
it: only the tests called ``ParamContext.index`` or caught the
``UnboundName`` it raised, and both now live in ``tests/model_oracle.py``.

The allowlist is the theory's own interface, with one reason per entry.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "axiom_schemas": "the theory's axioms; the derivation checker will call it (ROADMAP item 8)",
    "alpha_eq": "equality up to renaming; the derivation checker will call it (ROADMAP item 8)",
    "subst_param": "parameter substitution; the derivation checker will call it (ROADMAP item 8)",
    "parse_term": "entry point of the term syntax, for one term without a context",
    "parse_comp": "entry point of the language syntax, for one computation",
    "print_program": "inverse of parse_program, the language syntax's printer",
    "print_term_file": "inverse of parse_term_file, the term syntax's printer",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names ``tree`` references, leaving out the subtree ``skip``."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function and
    class and each public method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def uncalled(root: Path) -> list[str]:
    """``module: name`` of each public definition under ``root/src`` with no
    reference from ``src/``, ``perfbench/*.py`` or ``tools/*.py``."""
    src = {path: ast.parse(path.read_text()) for path in sorted((root / "src").rglob("*.py"))}
    outside: set[str] = set()
    for path in sorted((root / "perfbench").glob("*.py")) + sorted((root / "tools").glob("*.py")):
        outside |= _references(ast.parse(path.read_text()))
    missing = []
    for path, tree in src.items():
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if short in ALLOWED or short in outside:
                continue
            if not any(short in _references(other, node) for other in src.values()):
                missing.append(f"{path.stem}: {name}")
    return missing


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    missing = uncalled(ROOT)
    assert not missing, "called only by the tests, if at all: " + ", ".join(missing)


def test_every_allowed_name_is_defined_in_src():
    defined = {
        name.rsplit(".", 1)[-1]
        for path in (ROOT / "src").rglob("*.py")
        for name, _ in _public_definitions(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= defined
