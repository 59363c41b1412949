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

The textual front end here, :class:`Lexer` and :func:`read_headers`, also
reads the programs of :mod:`dynthreads.lang`, each syntax with its own token
table and error class.
"""

from __future__ import annotations

import itertools
import re
from functools import partial
from typing import Iterable, Iterator, Union

from .record import record
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

@record
class Var:
    name: str
    args: tuple[frozenset[str], ...] = ()


@record
class Fork:
    binder: str
    parent: "Term"
    child: "Term"


@record
class Wait:
    guard: frozenset[str]
    cont: "Term"


@record
class Stop:
    pass


@record
class Act:
    label: str


Term = Union[Var, Fork, Wait, Stop, Act]

STOP = Stop()


@record
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

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{n}:{m}" for n, m in self.entries)



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


class _ScopeEnd(str):
    """A fork binder's name, pushed below its parent by :func:`free_params`
    and :func:`scope_check` to mark where the binder's scope ends; no term
    is of this kind."""

    __slots__ = ()


def free_params(term: Term) -> frozenset[str]:
    """The parameters free in ``term``, from an explicit stack.  A fork's
    binder is bound while its parent is walked; ``bound`` counts the
    enclosing binders of each name, and a :class:`_ScopeEnd` of the binder,
    pushed below the parent, marks where its scope ends."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    stack: list = [term]
    while stack:
        t = stack.pop()
        match t:
            case _ScopeEnd():
                if bound[t] == 1:
                    del bound[t]
                else:
                    bound[t] -= 1
            case Var(_, args):
                for arg in args:
                    free.update(arg.difference(bound))
            case Fork(binder, parent, child):
                bound[binder] = bound.get(binder, 0) + 1
                stack += (child, _ScopeEnd(binder), parent)
            case Wait(guard, cont):
                free.update(guard.difference(bound))
                stack.append(cont)
            case Stop() | Act():
                pass
            case _:
                raise TypeError(f"not a term: {t!r}")
    return frozenset(free)


def binders_of(term: Term) -> frozenset[str]:
    return frozenset(t.binder for t in subterms(term) if type(t) is Fork)


def scope_check(term: Term, gamma: CompContext, delta: ParamContext) -> int:
    """Check term formation in ``gamma | delta``; raise on the first failure,
    else return the number of actions and holes (calls of computation
    variables) in ``term``.

    Binders must already be renamed apart: a fork binder that collides with
    an ambient parameter is rejected as :class:`ShadowedBinder`.  Subterms
    are checked parent before child, from an explicit stack.  One scope set
    serves the whole walk: a fork adds its binder for its parent, and the
    end marker pushed below the parent takes it out before the child.
    """
    scope = set(delta.names)
    leaves = 0
    stack: list = [term]
    while stack:
        t = stack.pop()
        match t:
            case Var(name, args):
                leaves += 1
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
            case Act(_):
                leaves += 1
            case Stop():
                pass
            case _ScopeEnd():
                scope.remove(t)
            case _:
                raise TypeError(f"not a term: {t!r}")
    return leaves


def _check_names(u: frozenset[str], scope: set[str]) -> None:
    if not u <= scope:
        raise UnboundParameter(f"unbound parameter: {min(u - scope)!r}")


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


def _rename(
    term: Term,
    sub: dict[str, frozenset[str]],
    taken: set[str],
    target: str | None = None,
    binders: tuple[str, ...] = (),
    body: Term = STOP,
) -> Term:
    """Simultaneous capture-avoiding substitution of ``sub`` into ``term``,
    and of ``binders. body`` for the computation variable ``target``.

    Each free parameter ``n`` becomes the names ``sub.get(n, {n})``, and
    each call ``target(u_1, ..., u_m)`` becomes ``body`` with ``binders``
    replaced by the renamed ``u_i``, renamed in place by the same walk.
    Every fork binder, of ``term`` and of each copy of ``body``, is renamed
    out of ``taken`` (kept if it is not there) and then joins it, so each
    binder is apart from ``taken`` and from the binders met before it;
    ``taken`` must hold every name the substitution can produce.
    """

    def image(u: frozenset[str], sub: dict[str, frozenset[str]]) -> frozenset[str]:
        if sub.keys().isdisjoint(u):
            return u
        return frozenset().union(*(sub.get(n, (n,)) for n in u))

    def go(t: Term, sub: dict[str, frozenset[str]]) -> Term:
        match t:
            case Var(name, args):
                args = tuple(image(u, sub) for u in args)
                if name != target:
                    return Var(name, args)
                if len(args) != len(binders):
                    raise ArityMismatch(
                        f"{target} applied to {len(args)} arguments, body binds {len(binders)}"
                    )
                return _rename(body, dict(zip(binders, args)), taken)
            case Fork(binder, parent, child):
                new = fresh_name(binder, taken)
                taken.add(new)
                return Fork(new, go(parent, {**sub, binder: frozenset({new})}), go(child, sub))
            case Wait(guard, cont):
                return Wait(image(guard, sub), go(cont, sub))
            case _:
                return t

    return go(term, sub)


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
    # no binder may capture a name the body mentions freely, and each copy
    # of the body sits below host binders already renamed into ``taken``
    taken = set((free_params(body) - set(binders)) | free_params(term) | avoid_extra)
    return _rename(term, {}, taken, target, binders, body)


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

@record
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
# Both syntaxes, term files here and programs in :mod:`dynthreads.lang`, share
# one front end: the :class:`Lexer`, parameterised by each syntax's token
# table and error class, and :func:`read_headers`.  Whitespace and ``--``
# comments, which run to the end of their line, separate tokens, and every
# syntax error names the line and column where it was found.

# whitespace and ``--`` comments
_SKIP_RE = re.compile(r"(?:\s|--[^\n]*)*")


class Lexer:
    """The tokens of a text, as ``(kind, text, line, col)`` tuples, and a
    cursor over them.  ``table`` is a syntax's token pattern, whose named
    groups are the token kinds, and ``error`` its exception class.  The
    last token is ``("end", "", line, col)`` at the end of the text."""

    def __init__(self, text: str, table: re.Pattern, error: type[Exception]):
        self.error = error
        self.toks: list[tuple[str, str, int, int]] = []
        line, start = 1, 0  # the line at ``pos`` and the index it starts at
        pos = seen = 0  # the newlines before ``seen`` are counted
        while True:
            pos = _SKIP_RE.match(text, pos).end()
            line += text.count("\n", seen, pos)
            start = max(start, text.rfind("\n", seen, pos) + 1)
            seen = pos
            if pos == len(text):
                break
            m = table.match(text, pos)
            if not m:
                raise error(f"{line}:{pos - start + 1}: cannot read {text[pos:pos+12]!r}")
            self.toks.append((m.lastgroup, m.group(), line, pos - start + 1))
            pos = m.end()
        self.toks.append(("end", "", line, pos - start + 1))
        self.pos = 0

    def fail(self, tok: tuple, message: str) -> Exception:
        """The syntax's error for ``message``, found at ``tok``."""
        return self.error(f"{tok[2]}:{tok[3]}: {message}")

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        return self.toks[self.pos][1] == text

    def next(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.pos]
        if tok[0] == "end":
            raise self.fail(tok, "unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise self.fail(tok, f"expected {text!r}, got {tok[1]!r}")

    def finish(self) -> None:
        """Raise unless every token has been read."""
        tok = self.toks[self.pos]
        if tok[0] != "end":
            raise self.fail(tok, f"trailing input {tok[1]!r}")


def read_headers(lx: Lexer, readers: dict) -> dict[str, dict]:
    """The headers ``kw entry, ..., entry;`` at the cursor, for the keywords
    of ``readers``, in any order: each keyword's entries as a dict.
    ``readers[kw]`` reads one entry and returns its key and value.  A
    keyword heads one header at most, and a key comes once in it."""
    headers: dict[str, dict] = {}
    while lx.peek()[1] in readers:
        tok = lx.next()
        kw = tok[1]
        if kw in headers:
            raise lx.fail(tok, f"repeated {kw} header")
        entries = headers[kw] = {}
        while True:
            first = lx.peek()
            key, value = readers[kw](lx)
            if key in entries:
                raise lx.fail(first, f"duplicate {kw} entry {first[1]!r}")
            entries[key] = value
            sep = lx.next()
            if sep[1] == ";":
                break
            if sep[1] != ",":
                raise lx.fail(sep, "expected ',' or ';'")
    return headers


# term file:   [vars x:1, y:0;] [tids a, b;] TERM
# TERM      ::= fork(a. TERM, TERM) | wait(E, TERM) | stop | act[label]
#             | x(E, ..., E) | x | node[label](E, a. TERM)
# E         ::= 0 | name | E + E | ( E )        (read as the set of its names)
# name      ::= a run of letters, digits, _, ' and $ that is neither 0 nor a
#               keyword; variables, header entries, binders and guards alike

_TOKEN_RE = re.compile(r"(?P<punct>[().,;:+]|=>)|(?P<label>\[[^\]]*\])|(?P<name>[A-Za-z0-9_'$]+)")

_KEYWORDS = {"fork", "wait", "stop", "act", "node", "vars", "tids"}


def parse_term_file(text: str) -> tuple[CompContext, ParamContext, Term]:
    """Parse optional ``vars``/``tids`` headers followed by a term."""
    lx = Lexer(text, _TOKEN_RE, TermError)
    headers = read_headers(lx, {"vars": _read_arity, "tids": _read_param})
    gamma = CompContext(tuple(headers.get("vars", {}).items()))
    delta = ParamContext(tuple(headers.get("tids", ())))
    term = _parse_term(lx)
    lx.finish()
    return gamma, delta, term


def parse_term(text: str) -> Term:
    return parse_term_file(text)[2]


def _read_arity(lx: Lexer) -> tuple[str, int]:
    name = _parse_name(lx)
    lx.expect(":")
    arity = lx.next()
    if not arity[1].isdigit():
        raise lx.fail(arity, f"expected arity after {name}:, got {arity[1]!r}")
    return name, int(arity[1])


def _read_param(lx: Lexer) -> tuple[str, str]:
    name = _parse_name(lx)
    return name, name


def _parse_term(lx: Lexer) -> Term:
    """``TERM``, from an explicit stack of the operations still open: each
    holds how many subterms it takes, those parsed so far and its
    constructor, and a finished subterm closes every operation it
    completes."""
    stack: list = []
    while True:
        tok = lx.peek()
        head = lx.next()[1] if tok[1] in _KEYWORDS else None
        if head in ("fork", "wait", "node"):
            label = _parse_label(lx) if head == "node" else None
            lx.expect("(")
            if head == "fork":
                stack.append((2, [], partial(Fork, _parse_name(lx))))
                lx.expect(".")
                continue
            guard = _parse_guard(lx)
            lx.expect(",")
            if head == "node":
                stack.append((1, [], partial(derived_node, label, guard, _parse_name(lx))))
                lx.expect(".")
            else:
                stack.append((1, [], partial(Wait, guard)))
            continue
        if head is None:
            term = _parse_var_app(lx)
        elif head == "stop":
            term = STOP
        elif head == "act":
            term = Act(_parse_label(lx))
        else:
            raise lx.fail(tok, f"unexpected token {head!r}")
        while stack:
            arity, parsed, build = stack[-1]
            parsed.append(term)
            if len(parsed) < arity:
                lx.expect(",")
                break
            lx.expect(")")
            stack.pop()
            term = build(*parsed)
        else:
            return term


def _parse_var_app(lx: Lexer) -> Var:
    """A variable application, or a bare 0-ary variable."""
    name = _parse_name(lx)
    if not lx.at("("):
        return Var(name, ())
    lx.next()
    args: list[frozenset[str]] = []
    while True:
        args.append(_parse_guard(lx))
        nxt = lx.next()
        if nxt[1] == ")":
            break
        if nxt[1] != ",":
            raise lx.fail(nxt, f"expected ',' or ')' in argument list, got {nxt[1]!r}")
    return Var(name, tuple(args))


def _parse_guard(lx: Lexer) -> frozenset[str]:
    """``E ::= 0 | name | E + E | ( E )``, read as the set of its names;
    ``depth`` counts the parentheses still open."""
    names: set[str] = set()
    depth = 0
    while True:
        while lx.at("("):
            lx.next()
            depth += 1
        if lx.at("0"):
            lx.next()
        else:
            names.add(_parse_name(lx))
        while not lx.at("+"):
            if not depth:
                return frozenset(names)
            lx.expect(")")
            depth -= 1
        lx.next()


def _parse_name(lx: Lexer) -> str:
    tok = lx.next()
    if tok[0] != "name" or tok[1] in _KEYWORDS or tok[1] == "0":
        raise lx.fail(tok, f"expected a name, got {tok[1]!r}")
    return tok[1]


def _parse_label(lx: Lexer) -> str:
    tok = lx.next()
    if tok[0] != "label":
        raise lx.fail(tok, f"expected [label], got {tok[1]!r}")
    label = tok[1][1:-1].strip()
    if not label:
        raise lx.fail(tok, "empty action label")
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
