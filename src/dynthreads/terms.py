"""Terms of the algebraic theory of dynamic threads.

The signature has four operations:

* ``fork(a. t, u)``: spawn a child running ``u``; the parent continues as
  ``t`` and receives the child's ID as the bound parameter ``a``;
* ``wait(E, t)``: block on the compound thread ID ``E``, then continue as
  ``t``;
* ``stop``: end the current thread;
* ``act[s]``: perform the observable action ``s`` and end.

Terms live in a two-zone context ``vars x:m, ... ; tids a, ... ;``:
computation variables with arities, and parameter (thread-ID) names.
Compound IDs are stored pre-quotiented as frozensets of names.  All terms
are treated up to renaming of bound parameters; substitution renames apart
as needed and comparison helpers work up to alpha.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Union

from .tids import ParamContext, print_tid_names


class TermError(Exception):
    """Base error for term formation and substitution."""


class UnboundParameter(TermError):
    pass


class UnboundVariable(TermError):
    pass


class ArityMismatch(TermError):
    pass


class ShadowedBinder(TermError):
    pass


# --- abstract syntax --------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str
    args: tuple[frozenset[str], ...] = ()


@dataclass(frozen=True)
class Fork:
    binder: str
    parent: "Term"
    child: "Term"


@dataclass(frozen=True)
class Wait:
    guard: frozenset[str]
    cont: "Term"


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Act:
    label: str


Term = Union[Var, Fork, Wait, Stop, Act]

STOP = Stop()


@dataclass(frozen=True)
class CompContext:
    """Computation variables with arities, e.g. ``x:1, y:0``."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise TermError(f"duplicate computation variables: {names}")
        if any(m < 0 for _, m in self.entries):
            raise TermError("negative arity")

    def arity(self, name: str) -> int:
        for n, m in self.entries:
            if n == name:
                return m
        raise UnboundVariable(f"unbound computation variable: {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{n}:{m}" for n, m in self.entries)


EMPTY_VARS = CompContext(())
EMPTY_TIDS = ParamContext(())


def tidset(*names: str) -> frozenset[str]:
    return frozenset(names)


def subterms(term: Term) -> Iterator[Term]:
    """Every subterm of ``term``, itself first and each parent before its
    child, from an explicit stack."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        match t:
            case Fork(_, parent, child):
                stack += (child, parent)
            case Wait(_, cont):
                stack.append(cont)
            case Var() | Stop() | Act():
                pass
            case _:
                raise TypeError(f"not a term: {t!r}")


def free_params(term: Term) -> frozenset[str]:
    """The parameters free in ``term``, from an explicit stack.  A fork's
    binder is bound while its parent is walked; ``bound`` counts the
    enclosing binders of each name, and the binder's name, pushed below the
    parent, marks where its scope ends."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    stack: list = [term]
    while stack:
        t = stack.pop()
        match t:
            case str():
                if bound[t] == 1:
                    del bound[t]
                else:
                    bound[t] -= 1
            case Var(_, args):
                for arg in args:
                    free.update(arg.difference(bound))
            case Fork(binder, parent, child):
                bound[binder] = bound.get(binder, 0) + 1
                stack += (child, binder, parent)
            case Wait(guard, cont):
                free.update(guard.difference(bound))
                stack.append(cont)
            case Stop() | Act():
                pass
            case _:
                raise TypeError(f"not a term: {t!r}")
    return frozenset(free)


def comp_vars(term: Term) -> frozenset[str]:
    return frozenset(t.name for t in subterms(term) if type(t) is Var)


def binders_of(term: Term) -> frozenset[str]:
    return frozenset(t.binder for t in subterms(term) if type(t) is Fork)


class _ScopeEnd(str):
    """A fork binder's name, pushed below its parent by :func:`scope_check`
    to mark where the binder's scope ends; no term is of this kind."""

    __slots__ = ()


def scope_check(term: Term, gamma: CompContext, delta: ParamContext) -> None:
    """Check term formation in ``gamma | delta``; raise on the first failure.

    Binders must already be renamed apart: a fork binder that collides with
    an ambient parameter is rejected as :class:`ShadowedBinder`.  Subterms
    are checked parent before child, from an explicit stack.  One scope set
    serves the whole walk: a fork adds its binder for its parent, and the
    end marker pushed below the parent takes it out before the child.
    """
    scope = set(delta.names)
    stack: list = [term]
    while stack:
        t = stack.pop()
        match t:
            case Var(name, args):
                arity = gamma.arity(name)
                if arity != len(args):
                    raise ArityMismatch(
                        f"{name} declared with arity {arity}, applied to {len(args)} arguments"
                    )
                for u in args:
                    _check_names(u, scope)
            case Fork(binder, parent, child):
                if binder in scope:
                    raise ShadowedBinder(f"binder {binder!r} shadows a parameter in scope")
                scope.add(binder)
                stack += (child, _ScopeEnd(binder), parent)
            case Wait(guard, cont):
                _check_names(guard, scope)
                stack.append(cont)
            case Stop() | Act(_):
                pass
            case _ScopeEnd():
                scope.remove(t)
            case _:
                raise TypeError(f"not a term: {t!r}")


def _check_names(u: frozenset[str], scope: set[str]) -> None:
    for n in sorted(u):
        if n not in scope:
            raise UnboundParameter(f"unbound parameter: {n!r}")


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """A name not in ``avoid``: the base itself, else base2, base3, ..."""
    taken = set(avoid)
    if base not in taken:
        return base
    stem = base.rstrip("0123456789") or base
    for k in itertools.count(2):
        candidate = f"{stem}{k}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


def _rename(term: Term, sub: dict[str, frozenset[str]], taken: set[str]) -> Term:
    """Simultaneous capture-avoiding substitution of ``sub`` into ``term``.

    Each free parameter ``n`` becomes the names ``sub.get(n, {n})``.  Every
    fork binder is renamed out of ``taken`` (kept if it is not there) and
    then joins it, so the binders end up apart from ``taken`` and from each
    other; ``taken`` must hold every name the substitution can produce.
    """

    def image(u: frozenset[str], sub: dict[str, frozenset[str]]) -> frozenset[str]:
        if sub.keys().isdisjoint(u):
            return u
        return frozenset().union(*(sub.get(n, (n,)) for n in u))

    def go(t: Term, sub: dict[str, frozenset[str]]) -> Term:
        match t:
            case Var(name, args):
                return Var(name, tuple(image(u, sub) for u in args))
            case Fork(binder, parent, child):
                new = fresh_name(binder, taken)
                taken.add(new)
                return Fork(new, go(parent, {**sub, binder: frozenset({new})}), go(child, sub))
            case Wait(guard, cont):
                return Wait(image(guard, sub), go(cont, sub))
            case _:
                return t

    return go(term, sub)


def rename_binders_apart(term: Term, avoid: frozenset[str]) -> Term:
    """Rename every fork binder to avoid ``avoid``, the free parameters and
    each other."""
    return _rename(term, {}, set(avoid) | free_params(term))


def subst_param(term: Term, replacement: frozenset[str], target: str) -> Term:
    """Capture-avoiding parameter substitution ``term[replacement / target]``."""
    return _rename(term, {target: replacement}, set(replacement) | free_params(term))


def subst_comp(
    term: Term,
    binders: tuple[str, ...],
    body: Term,
    target: str,
    avoid_extra: frozenset[str] = frozenset(),
) -> Term:
    """Computation-variable substitution ``term[binders. body / target]``.

    Every occurrence ``target(u_1, ..., u_m)`` becomes ``body`` with its
    bound parameters replaced by the ``u_i`` simultaneously.  ``avoid_extra``
    keeps the renamed binders away from ambient names the term itself does
    not mention (e.g. unused context parameters).
    """
    if len(set(binders)) != len(binders):
        raise TermError(f"duplicate binders: {binders}")
    body_free = free_params(body) - set(binders)
    # no host binder may capture a name the body mentions freely
    term = _rename(term, {}, set(body_free | free_params(term) | avoid_extra))
    host_names = free_params(term) | binders_of(term) | avoid_extra

    def go(t: Term) -> Term:
        match t:
            case Var(name, args) if name == target:
                if len(args) != len(binders):
                    raise ArityMismatch(
                        f"{target} applied to {len(args)} arguments, body binds {len(binders)}"
                    )
                # the body's own binders avoid the incoming IDs and every name
                # the host scope could put around this occurrence
                taken = set(body_free | host_names).union(binders, *args)
                return _rename(body, dict(zip(binders, args)), taken)
            case Fork(binder, parent, child):
                return Fork(binder, go(parent), go(child))
            case Wait(guard, cont):
                return Wait(guard, go(cont))
            case _:
                return t

    return go(term)


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Syntactic equality up to renaming of fork binders."""

    def go(a: Term, b: Term, env1: dict[str, str], env2: dict[str, str]) -> bool:
        match a, b:
            case Var(n1, args1), Var(n2, args2):
                if n1 != n2 or len(args1) != len(args2):
                    return False
                return all(
                    _resolve(u1, env1) == _resolve(u2, env2)
                    for u1, u2 in zip(args1, args2)
                )
            case Fork(b1, p1, c1), Fork(b2, p2, c2):
                tick = f"#{len(env1)}"
                e1 = dict(env1)
                e1[b1] = tick
                e2 = dict(env2)
                e2[b2] = tick
                return go(p1, p2, e1, e2) and go(c1, c2, env1, env2)
            case Wait(g1, k1), Wait(g2, k2):
                return _resolve(g1, env1) == _resolve(g2, env2) and go(k1, k2, env1, env2)
            case Stop(), Stop():
                return True
            case Act(l1), Act(l2):
                return l1 == l2
        return False

    def _resolve(u: frozenset[str], env: dict[str, str]) -> frozenset[str]:
        return frozenset(env.get(n, n) for n in u)

    return go(t1, t2, {}, {})


# --- the eight axioms -------------------------------------------------------

@dataclass(frozen=True)
class AxiomInstance:
    name: str
    gamma: CompContext
    delta: ParamContext
    lhs: Term
    rhs: Term


def axiom_schemas() -> list[AxiomInstance]:
    """The eight defining equations, each at its minimal context."""
    g = CompContext
    d = ParamContext
    x0 = Var("x")
    x1 = lambda *names: Var("x", (frozenset(names),))  # noqa: E731
    empty = frozenset()
    return [
        AxiomInstance(
            "W-UNIT",
            g((("x", 0),)), d(()),
            Wait(empty, x0),
            x0,
        ),
        AxiomInstance(
            "W-ACC",
            g((("x", 0),)), d(("a", "b")),
            Wait(tidset("a"), Wait(tidset("b"), x0)),
            Wait(tidset("a", "b"), x0),
        ),
        AxiomInstance(
            "W-CLOSE",
            g((("x", 1),)), d(("a", "b")),
            Wait(tidset("a"), x1("b")),
            Wait(tidset("a"), x1("a", "b")),
        ),
        AxiomInstance(
            "FW-COMM",
            g((("x", 1), ("y", 0))), d(("b",)),
            Wait(tidset("b"), Fork("a", x1("a"), Var("y"))),
            Fork("a", Wait(tidset("b"), x1("a")), Wait(tidset("b"), Var("y"))),
        ),
        AxiomInstance(
            "F-COMM",
            g((("x", 2), ("y", 0), ("z", 0))), d(()),
            Fork("a", Fork("b", Var("x", (tidset("a"), tidset("b"))), Var("y")), Var("z")),
            Fork("b", Fork("a", Var("x", (tidset("a"), tidset("b"))), Var("z")), Var("y")),
        ),
        AxiomInstance(
            "F-ASSOC",
            g((("x", 1), ("y", 1), ("z", 0))), d(()),
            Fork("a", x1("a"), Fork("b", Var("y", (tidset("b"),)), Var("z"))),
            Fork("b", Fork("a", x1("a"), Var("y", (tidset("b"),))), Var("z")),
        ),
        AxiomInstance(
            "F-UNIT-L",
            g((("x", 0),)), d(()),
            Fork("a", Wait(tidset("a"), STOP), x0),
            x0,
        ),
        AxiomInstance(
            "F-UNIT-R",
            g((("x", 1),)), d(("b",)),
            Fork("a", x1("a"), Wait(tidset("b"), STOP)),
            x1("b"),
        ),
    ]


def derived_node(label: str, guard: frozenset[str], binder: str, cont: Term) -> Term:
    """The node macro: fork a child that waits on ``guard`` then acts.

    ``node[s](E, b. t)`` stands for ``fork(b. t, wait(E, act[s]))``: the new
    child performs ``s`` once everything in ``E`` is done, and the main
    thread continues as ``t`` knowing the child's ID ``b``.
    """
    return Fork(binder, cont, Wait(guard, Act(label)))


# --- textual syntax ---------------------------------------------------------
#
# term file:   [vars x:1, y:0;] [tids a, b;] TERM
# TERM      ::= fork(a. TERM, TERM) | wait(E, TERM) | stop | act[label]
#             | x(E, ..., E) | x | node[label](E, a. TERM)
# E         ::= 0 | name | E + E | ( E )        (read as the set of its names)
# name      ::= a run of letters, digits, _, ' and $ that is neither 0 nor a
#               keyword; variables, header entries, binders and guards alike

_NAME_RE = re.compile(r"[A-Za-z0-9_'$]+")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<punct>[().,;:+]|=>)|(?P<label>\[[^\]]*\])|(?P<name>{_NAME_RE.pattern}))"
)

_KEYWORDS = {"fork", "wait", "stop", "act", "node", "vars", "tids"}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise TermError(f"cannot tokenize near {rest[:20]!r}")
            self.items.append(m.group("punct") or m.group("label") or m.group("name"))
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TermError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise TermError(f"expected {tok!r}, got {got!r} (token {self.pos})")


def parse_term_file(text: str) -> tuple[CompContext, ParamContext, Term]:
    """Parse an optional ``vars``/``tids`` header followed by a term."""
    toks = _Tokens(text)
    gamma = EMPTY_VARS
    delta = EMPTY_TIDS
    while toks.peek() in ("vars", "tids"):
        kind = toks.next()
        entries: list = []
        while True:
            name = _parse_name(toks)
            if kind == "vars":
                toks.expect(":")
                arity = toks.next()
                if not arity.isdigit():
                    raise TermError(f"expected arity after {name}:, got {arity!r}")
                entries.append((name, int(arity)))
            else:
                entries.append(name)
            nxt = toks.next()
            if nxt == ";":
                break
            if nxt != ",":
                raise TermError(f"expected ',' or ';' in header, got {nxt!r}")
        if kind == "vars":
            gamma = CompContext(tuple(entries))
        elif len(set(entries)) != len(entries):
            raise TermError(f"duplicate parameter names: {entries}")
        else:
            delta = ParamContext(tuple(entries))
    term = _parse_term(toks)
    if toks.peek() is not None:
        raise TermError(f"trailing input after term: {toks.peek()!r}")
    return gamma, delta, term


def parse_term(text: str) -> Term:
    return parse_term_file(text)[2]


def _parse_term(toks: _Tokens) -> Term:
    """``TERM``, from an explicit stack of the operations still open: each
    holds how many subterms it takes, those parsed so far and its
    constructor, and a finished subterm closes every operation it
    completes."""
    stack: list = []
    while True:
        head = toks.next() if toks.peek() in _KEYWORDS else None
        if head in ("fork", "wait", "node"):
            label = _parse_label(toks) if head == "node" else None
            toks.expect("(")
            if head == "fork":
                stack.append((2, [], partial(Fork, _parse_name(toks))))
                toks.expect(".")
                continue
            guard = _parse_guard(toks)
            toks.expect(",")
            if head == "node":
                stack.append((1, [], partial(derived_node, label, guard, _parse_name(toks))))
                toks.expect(".")
            else:
                stack.append((1, [], partial(Wait, guard)))
            continue
        if head is None:
            term = _parse_var_app(toks)
        elif head == "stop":
            term = STOP
        elif head == "act":
            term = Act(_parse_label(toks))
        else:
            raise TermError(f"unexpected token {head!r}")
        while stack:
            arity, parsed, build = stack[-1]
            parsed.append(term)
            if len(parsed) < arity:
                toks.expect(",")
                break
            toks.expect(")")
            stack.pop()
            term = build(*parsed)
        else:
            return term


def _parse_var_app(toks: _Tokens) -> Var:
    """A variable application, or a bare 0-ary variable."""
    name = _parse_name(toks)
    if toks.peek() != "(":
        return Var(name, ())
    toks.next()
    args: list[frozenset[str]] = []
    if toks.peek() == ")":
        toks.next()
        return Var(name, ())
    while True:
        args.append(_parse_guard(toks))
        nxt = toks.next()
        if nxt == ")":
            break
        if nxt != ",":
            raise TermError(f"expected ',' or ')' in argument list, got {nxt!r}")
    return Var(name, tuple(args))


def _parse_guard(toks: _Tokens) -> frozenset[str]:
    """``E ::= 0 | name | E + E | ( E )``, read as the set of its names;
    ``depth`` counts the parentheses still open."""
    names: set[str] = set()
    depth = 0
    while True:
        while toks.peek() == "(":
            toks.next()
            depth += 1
        if toks.peek() == "0":
            toks.next()
        else:
            names.add(_parse_name(toks))
        while toks.peek() != "+":
            if not depth:
                return frozenset(names)
            toks.expect(")")
            depth -= 1
        toks.next()


def _parse_name(toks: _Tokens) -> str:
    tok = toks.next()
    if tok in _KEYWORDS or tok == "0" or not _NAME_RE.fullmatch(tok):
        raise TermError(f"expected a name, got {tok!r} (token {toks.pos})")
    return tok


def _parse_label(toks: _Tokens) -> str:
    tok = toks.next()
    if not (tok.startswith("[") and tok.endswith("]")):
        raise TermError(f"expected [label], got {tok!r}")
    label = tok[1:-1].strip()
    if not label:
        raise TermError("empty action label")
    return label


def print_term(term: Term) -> str:
    """The text of a term, from an explicit stack of the terms and closing
    text still to print."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        item = stack.pop()
        match item:
            case str():
                out.append(item)
            case Var(name, args):
                out.append(f"{name}({', '.join(map(print_tid_names, args))})" if args else name)
            case Fork(binder, parent, child):
                out.append(f"fork({binder}. ")
                stack += [")", child, ", ", parent]
            case Wait(guard, cont):
                out.append(f"wait({print_tid_names(guard)}, ")
                stack += [")", cont]
            case Stop():
                out.append("stop")
            case Act(label):
                out.append(f"act[{label}]")
            case _:
                raise TypeError(f"not a term: {item!r}")
    return "".join(out)


def print_term_file(gamma: CompContext, delta: ParamContext, term: Term) -> str:
    lines = []
    if len(gamma):
        lines.append(f"vars {gamma};")
    if len(delta):
        lines.append(f"tids {delta};")
    lines.append(print_term(term))
    return "\n".join(lines) + "\n"
