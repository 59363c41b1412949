"""Dual-route check for substitution.

:func:`dynthreads.lang.subst_value` goes down only where the variable is
free, reading the free-variable sets cached on the nodes.  It is checked
against the full walk it replaced, which rebuilds every node, on every
``let``/beta/``case`` redex met in reduced schedule graphs built with the
full walk.  The programs are the corpus, one program whose variables occur
under a lambda, in a tuple, an injection and a union, a generated print
chain and a generated node DAG.
"""

from __future__ import annotations

import random

from dynthreads.lang import (
    ApplyC,
    CaseV,
    InjV,
    LambdaV,
    LetC,
    Ret,
    VarV,
    _free,
    _parts,
    _rebuild,
    desugar,
    parse_comp,
    subst_value,
)
from dynthreads import machine
from dynthreads.machine import DEFAULT_BUDGET, _state_graph

from corpus import corpus_names, load_core


def reference_subst(t, name, v):
    """Substitution by rebuilding every node; a binder of the same name
    shadows the variable."""

    def go(node):
        if type(node) is VarV:
            return v if node.name == name else node
        kids = []
        for var, kid in _parts(node):
            kids.append(kid if var == name else go(kid))
        return _rebuild(node, kids)

    return go(t)


def reference_free(t) -> set:
    if type(t) is VarV:
        return {t.name}
    free = set()
    for var, kid in _parts(t):
        free |= reference_free(kid) - {var}
    return free


def _redex(state):
    """The substitution the thread's next step makes, as ``(kind, body,
    name, value)``, or ``None`` when the step substitutes nothing."""
    while type(state) is LetC and type(state.bound) is not Ret:
        state = state.bound
    match state:
        case LetC(var, Ret(v), body):
            return "let", body, var, v
        case ApplyC(LambdaV(param, _, body), v):
            return "beta", body, param, v
        case CaseV(InjV(index, payload), branches) if 1 <= index <= len(branches):
            var, body = branches[index - 1]
            return "case", body, var, payload
    return None


def _chain() -> str:
    return "".join(f"print[p{k}](); " for k in range(30)) + "stop()"


def _dag() -> str:
    rng = random.Random(7)
    lines = []
    for i in range(12):
        deps = rng.sample(range(i), rng.randint(0, min(2, i)))
        arg = " (+) ".join(f"v{d}" for d in deps) if deps else "nil"
        lines.append(f"let v{i} = node[n{i}]({arg}) in")
    return "\n".join(lines) + "\nstop()"


# the bound variables reach into a lambda body, a tuple, an injection and
# a union
_CAPTURES = r"""
let a = node[s1](nil) in
let f = ret (\x:tid. wait(a (+) x); printstop[s2]()) in
let p = ret (a, inj1 a) in
let b = node[s3](a) in
let q = proj2 p in
case q of { inj1 c => f(c (+) b) | inj2 d => stop() }
"""


def _programs():
    for name in corpus_names():
        yield name, load_core(name)
    yield "captures", desugar(parse_comp(_CAPTURES))
    yield "chain30", desugar(parse_comp(_chain()))
    yield "dag12", desugar(parse_comp(_dag()))


def test_subst_value_agrees_with_the_full_walk(monkeypatch):
    # the graphs are built with the full walk, so a wrong substitution shows
    # here as a disagreement and not as a stuck thread further on
    monkeypatch.setattr(machine, "subst_value", reference_subst)
    kinds = set()
    seen = set()
    for name, comp in _programs():
        _, steps_of, _, truncated = _state_graph(comp, DEFAULT_BUDGET)
        assert not truncated, name
        for c in steps_of:
            for _, state, _ in c.threads:
                redex = _redex(state) if state not in seen else None
                seen.add(state)
                if redex is None:
                    continue
                kind, body, var, v = redex
                got = subst_value(body, var, v)
                assert got == reference_subst(body, var, v), (name, kind, body, var, v)
                assert _free(got) == reference_free(got), (name, kind, got)
                kinds.add(kind)
    assert kinds == {"let", "beta", "case"}
