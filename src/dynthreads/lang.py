"""A fine-grain call-by-value language with dynamic-thread primitives.

Types are ``tid``, finite products and sums, and functions.  Terms are
stratified into values and computations; the concurrency constants are

    fork : 1 -> tid + 1      wait : tid -> 1
    stop : 1 -> 0            printstop[s] : 1 -> 0

``print[s] : 1 -> 1`` plus the ``node``/``parallel``/``series`` combinators
are surface sugar; :func:`desugar` lowers them to the four core constants.
Typing judgements carry a *world*: the finite set of runtime thread IDs a
term may mention.

Runtime thread IDs are paths of naturals: the root thread is ``()`` and the
k-th thread forked directly by a thread extends its path by ``k``.  Source
syntax spells the root ``#0`` and descendants ``#0.1.2``.

Program text is read by the front end the term files use (the lexer and the
header reader of :mod:`dynthreads.terms`) with this syntax's token table,
and parsed from one explicit stack of the constructs still open, so no
depth of nesting exhausts the Python stack.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from typing import Iterable, Iterator, Mapping, Optional, Union

from .record import record
from .terms import Lexer, read_headers


class LangError(Exception):
    """Base error for parsing and typing."""


class ParseError(LangError):
    pass


class TypeCheckError(LangError):
    pass


class UnknownTid(TypeCheckError):
    pass


# --- types -------------------------------------------------------------------

@record
class TidType:
    pass


@record
class Prod:
    parts: tuple["LangType", ...]


@record
class Sum:
    parts: tuple["LangType", ...]


@record
class Arrow:
    arg: "LangType"
    res: "LangType"


@record
class Bot:
    """Synthesized for computations that provably never return a value
    (empty cases).  Declaratively the empty type embeds into every type;
    this marker gives the algorithmic checker the same strength, which
    matters for intermediate machine configurations where a dead branch
    has already been selected.  Never written in source syntax."""


LangType = Union[TidType, Prod, Sum, Arrow, Bot]

TID = TidType()
UNIT = Prod(())
EMPTY = Sum(())
BOTTOM = Bot()


def compatible(got: LangType, want: LangType) -> bool:
    """Type agreement up to the bottom marker sitting below everything."""
    if got is want or isinstance(got, Bot) or got == want:
        return True
    match got, want:
        case (Prod(gs), Prod(ws)) | (Sum(gs), Sum(ws)):
            return len(gs) == len(ws) and all(
                compatible(g, w) for g, w in zip(gs, ws)
            )
        case (Arrow(ga, gr), Arrow(wa, wr)):
            return ga == wa and compatible(gr, wr)
    return False


def returns_no_value(ty: LangType) -> bool:
    """Whether no value has type ``ty``, the bottom marker counted as empty:
    a closed program of such a type never returns, as one of type 0."""
    match ty:
        case Bot():
            return True
        case Prod(parts):
            return any(returns_no_value(p) for p in parts)
        case Sum(parts):
            return all(returns_no_value(p) for p in parts)
    return False


def first_order(ty: LangType) -> bool:
    match ty:
        case TidType():
            return True
        case Prod(parts) | Sum(parts):
            return all(first_order(p) for p in parts)
        case Arrow(_, _):
            return False
    raise TypeError(f"not a type: {ty!r}")


# The type syntax in one table, read by :func:`_parse_type` and
# :func:`print_type`: its atoms, and its infix operators, loosest first,
# with the node each builds.  An arrow nests to the right, and a sum or a
# product lists two or more parts flat.
_TYPE_ATOMS = {"tid": TID, "1": UNIT, "0": EMPTY}
_TYPE_OPS = (("->", Arrow), ("+", Sum), ("*", Prod))


def print_type(ty: LangType, level: int = 0) -> str:
    """The text of ``ty``, bracketed when its operator's place in
    :data:`_TYPE_OPS` is before ``level``: an operand is printed at the
    place after its operator's, and an arrow's result at the arrow's."""
    if type(ty) is Bot:
        return "<never>"
    for word, atom in _TYPE_ATOMS.items():
        if ty == atom:
            return word
    own = next((i for i, (_, node) in enumerate(_TYPE_OPS) if type(ty) is node), None)
    if own is None:
        raise TypeError(f"not a type: {ty!r}")
    op = _TYPE_OPS[own][0]
    if own == 0:
        text = f"{print_type(ty.arg, 1)} -> {print_type(ty.res)}"
    elif len(ty.parts) == 1:
        # unary sums and products have no source syntax: a trailing
        # operator marks them, which the parser rejects
        return f"({print_type(ty.parts[0], own + 1)} {op})"
    else:
        text = f" {op} ".join(print_type(p, own + 1) for p in ty.parts)
    return f"({text})" if level > own else text


# --- values and computations ---------------------------------------------------

Tid = tuple[int, ...]  # runtime thread ID: a path of spawn ordinals


def tid_str(path: Tid) -> str:
    return ".".join(["0"] + [str(k) for k in path])


# Syntax nodes are records (see :mod:`dynthreads.record`), whose hash is
# cached in their ``__dict__``.  No run, exploration or gate hashes one: the
# typing memo keys a node by its ``id`` and hashes only the types in its
# keys, and only the tests' schedule-graph walk hashes configurations, and
# with them the syntax trees their thread states share.  A node keeps its
# name sets there the same way, its free variables and the thread IDs it
# names (see :func:`_names`): :func:`is_core` stores both on every node of
# a program before it runs, :func:`subst_value` on a node it rebuilds from
# one that has them with a value that has them, and the machine on the
# closed nodes it builds itself (:func:`_closed`).  A stored set stays
# exact for good, since nodes never change.

@record
class VarV:
    name: str


@record
class TupleV:
    items: tuple["Value", ...]


@record
class InjV:
    index: int  # 1-based
    value: "Value"
    # runtime steps annotate the sum they inject into so that intermediate
    # configurations stay checkable; source syntax leaves this empty
    annot: Optional["LangType"] = None


@record
class LambdaV:
    param: str
    annot: Optional[LangType]
    body: "Comp"


@record
class TidV:
    path: Tid


@record
class NilV:
    """The empty compound thread ID."""


@record
class UnionV:
    left: "Value"
    right: "Value"


@record
class ConstV:
    name: str  # fork | wait | stop | printstop | print | node | parallel | series
    action: Optional[str] = None


Value = Union[VarV, TupleV, InjV, LambdaV, TidV, NilV, UnionV, ConstV]

UNIT_V = TupleV(())
CORE_CONSTS = {"fork", "wait", "stop", "printstop"}
SUGAR_CONSTS = {"print", "node", "parallel", "series"}
_LABELLED = {"printstop", "print", "node"}


@record
class Ret:
    value: Value


@record
class ProjC:
    index: int
    value: Value


@record
class CaseV:
    value: Value
    branches: tuple[tuple[str, "Comp"], ...]


@record
class ApplyC:
    fn: Value
    arg: Value


@record
class LetC:
    var: str
    bound: "Comp"
    body: "Comp"


@record
class SeqC:
    """Surface sugar ``t1; t2``."""

    first: "Comp"
    second: "Comp"


@record
class CaseC:
    """Surface sugar: case over a computation scrutinee."""

    comp: "Comp"
    branches: tuple[tuple[str, "Comp"], ...]


Comp = Union[Ret, ProjC, CaseV, ApplyC, LetC, SeqC, CaseC]


_TWO_RUNNERS = Prod((Arrow(UNIT, EMPTY), Arrow(UNIT, EMPTY)))
_CONST_SIGNATURES = {
    "fork": Arrow(UNIT, Sum((TID, UNIT))),
    "wait": Arrow(TID, UNIT),
    "stop": Arrow(UNIT, EMPTY),
    "printstop": Arrow(UNIT, EMPTY),
    "print": Arrow(UNIT, UNIT),
    "node": Arrow(TID, TID),
    "parallel": Arrow(_TWO_RUNNERS, EMPTY),
    "series": Arrow(_TWO_RUNNERS, EMPTY),
}


def const_signature(c: ConstV) -> Arrow:
    try:
        return _CONST_SIGNATURES[c.name]
    except KeyError:
        raise TypeCheckError(f"unknown constant {c.name!r}") from None


def tids_of_value(v: Value) -> frozenset[Tid]:
    """The ID set a tid-typed value denotes (closed values only)."""
    match v:
        case TidV(path):
            return frozenset({path})
        case NilV():
            return frozenset()
        case UnionV(left, right):
            return tids_of_value(left) | tids_of_value(right)
    raise LangError(f"not a closed thread-ID value: {v!r}")


# --- type checking ---------------------------------------------------------------
#
# One bidirectional judgement per syntactic class (Pierce & Turner 2000;
# Dunfield & Krishnaswami 2021): ``_value`` and ``_comp`` take ``want``, the
# type to check against, or ``None`` to synthesize one, and return the type
# they found (``want`` itself when checking).  Checking is the more lenient
# mode: an injection is checked against the sum it is placed in, whatever its
# annotation, and an unannotated lambda against the arrow it is placed in.
# A synthesized ``case`` synthesizes each branch once and joins the branch
# types under :func:`compatible` (``Bot`` below everything, pointwise through
# products, sums and arrow results) instead of checking every branch again
# against each candidate.  The join must be one of the branch types, so it is
# found as the one that every other fits; the branches that could not
# synthesize are then checked against it.  ``case`` and ``let`` are typed
# inline, so one level of nesting costs one stack frame.
#
# A caller that types many terms sharing subterms can pass a ``memo`` (a
# dict it owns) to ``_comp``, which stores the type found for each
# computation with a computation inside (a ``let``, a ``case``, a lambda
# applied in place) under the node itself, ``want`` and the types of the
# node's free variables, and reuses it in any world that holds the thread
# IDs the node names (:func:`_tids`).  That is exact: a node's typing reads
# the environment only at its free variables and the world only by asking
# whether a thread ID it names is in it, and an entry is stored only when
# every such question was answered yes.  Failures are not stored.  Any
# other computation is typed again, which costs about what a lookup does.

World = frozenset


def typecheck_comp(env: Mapping[str, LangType], world: World, t: Comp) -> LangType:
    """Synthesize the type of a computation; raise on failure."""
    return _comp(env, world, t, None)


def _expect(got: LangType, want: Optional[LangType]) -> LangType:
    """``got`` when synthesizing, ``want`` when ``got`` fits it."""
    if want is None or got is want:
        return got
    if compatible(got, want):
        return want
    raise TypeCheckError(f"expected {print_type(want)}, found {print_type(got)}")


def _value(env, world, v, want: Optional[LangType], memo=None) -> LangType:
    kind = type(v)
    if kind is ConstV:
        return _expect(const_signature(v), want)
    if kind is TupleV:
        items = v.items
        if not isinstance(want, Prod):
            if not items:
                return _expect(UNIT, want)
            return _expect(Prod(tuple(_value(env, world, i, None, memo) for i in items)), want)
        if len(items) != len(want.parts):
            raise TypeCheckError(
                f"tuple of {len(items)} checked against product of {len(want.parts)}"
            )
        for item, part in zip(items, want.parts):
            _value(env, world, item, part, memo)
        return want
    if kind is InjV:
        index = v.index
        ty = v.annot if want is None else want
        if ty is None:
            raise TypeCheckError("cannot infer a sum type for an injection here")
        if not isinstance(ty, Sum):
            raise TypeCheckError(f"inj{index} must have a sum type, not {print_type(ty)}")
        if not 1 <= index <= len(ty.parts):
            raise TypeCheckError(f"inj{index} into a sum with {len(ty.parts)} summands")
        _value(env, world, v.value, ty.parts[index - 1], memo)
        return ty
    if kind is VarV:
        if v.name not in env:
            raise TypeCheckError(f"unbound variable {v.name!r}")
        return _expect(env[v.name], want)
    if kind is TidV:
        if v.path not in world:
            raise UnknownTid(f"thread ID {tid_str(v.path)} not in the world")
        return _expect(TID, want)
    if kind is LambdaV:
        param, annot, body = v.param, v.annot, v.body
        if isinstance(want, Arrow):
            if annot is not None and annot != want.arg:
                raise TypeCheckError(
                    f"lambda annotated {print_type(annot)}, expected {print_type(want.arg)}"
                )
            _comp({**env, param: want.arg}, world, body, want.res, memo)
            return want
        if annot is None:
            raise TypeCheckError(
                f"cannot infer the argument type of \\{param}. ...; annotate it"
            )
        res = _comp({**env, param: annot}, world, body, None, memo)
        return _expect(Arrow(annot, res), want)
    if kind is NilV:
        return _expect(TID, want)
    if kind is UnionV:
        _value(env, world, v.left, TID)
        _value(env, world, v.right, TID)
        return _expect(TID, want)
    raise TypeError(f"not a value: {v!r}")


_TYPED_INSIDE = {LetC, CaseV, SeqC, CaseC}


def _comp(env, world, t, want: Optional[LangType], memo=None) -> LangType:
    kind = type(t)
    key = None
    if memo is not None and (kind in _TYPED_INSIDE or kind is ApplyC and type(t.fn) is LambdaV):
        stored = t.__dict__
        tids = stored.get("_tids")
        if (_tids(t) if tids is None else tids) <= world:
            free = stored.get("_free")
            if free is None:
                free = _free(t)
            key = (id(t), want, tuple(map(env.get, free)) if free else ())
            hit = memo.get(key)
            if hit is not None:
                return hit[1]
    if kind is ApplyC:
        fn, arg = t.fn, t.arg
        if type(fn) is LambdaV:
            # a lambda applied in place is typed like a let
            arg_ty = _value(env, world, arg, fn.annot, memo)
            ty = _expect(_comp({**env, fn.param: arg_ty}, world, fn.body, None, memo), want)
        else:
            ty = _value(env, world, fn, None, memo)
            if not isinstance(ty, (Arrow, Bot)):
                raise TypeCheckError(f"applying a non-function of type {print_type(ty)}")
            if isinstance(ty, Arrow):
                _value(env, world, arg, ty.arg, memo)
                ty = ty.res
            ty = _expect(ty, want)
    elif kind is LetC:
        bound_ty = _comp(env, world, t.bound, None, memo)
        ty = _comp({**env, t.var: bound_ty}, world, t.body, want, memo)
    elif kind is CaseV or kind is CaseC:
        branches = t.branches
        if kind is CaseV:
            scrut = _value(env, world, t.value, None, memo)
        else:
            scrut = _comp(env, world, t.comp, None, memo)
        if not isinstance(scrut, (Sum, Bot)):
            raise TypeCheckError(f"case scrutinee has non-sum type {print_type(scrut)}")
        if isinstance(scrut, Sum) and len(branches) != len(scrut.parts):
            raise TypeCheckError(
                f"case with {len(branches)} branches on a sum of {len(scrut.parts)}"
            )
        if isinstance(scrut, Bot):
            ty = _expect(BOTTOM, want)
        elif want is not None:
            for (x, body), part in zip(branches, scrut.parts):
                _comp({**env, x: part}, world, body, want, memo)
            ty = want
        elif not branches:
            # an empty case never returns
            ty = BOTTOM
        else:
            found, unsynthesized, errors = [], [], []
            for (x, body), part in zip(branches, scrut.parts):
                inner = {**env, x: part}
                try:
                    found.append(_comp(inner, world, body, None, memo))
                except TypeCheckError as exc:
                    unsynthesized.append((inner, body))
                    errors.append(str(exc))
            if not found:
                raise TypeCheckError("no case branch synthesizes a type: " + "; ".join(errors))
            ty = next((j for j in found if all(compatible(f, j) for f in found)), None)
            try:
                for inner, body in unsynthesized if ty is not None else ():
                    _comp(inner, world, body, ty, memo)
            except TypeCheckError:
                ty = None
            if ty is None:
                raise TypeCheckError("case branches do not agree on a single type")
    elif kind is Ret:
        ty = _value(env, world, t.value, want, memo)
    elif kind is ProjC:
        index = t.index
        ty = _value(env, world, t.value, None, memo)
        if not isinstance(ty, (Prod, Bot)):
            raise TypeCheckError(f"proj{index} of non-product {print_type(ty)}")
        if isinstance(ty, Prod) and not 1 <= index <= len(ty.parts):
            raise TypeCheckError(f"proj{index} of a product with {len(ty.parts)} components")
        ty = _expect(ty if isinstance(ty, Bot) else ty.parts[index - 1], want)
    elif kind is SeqC:
        _comp(env, world, t.first, None, memo)
        ty = _comp(env, world, t.second, want, memo)
    else:
        raise TypeError(f"not a computation: {t!r}")
    if key is not None:
        memo[key] = (t, ty)
    return ty


# --- the shape of a node ------------------------------------------------------------
#
# Which fields of a node are children, and which variable binds over each, is
# written down here once.  Desugaring, substitution, the free-variable sets,
# the core test and the fresh-name scan walk this table; the type checker, the
# printer, the machine and the elaborator give each construct its meaning and
# keep their own cases.  :func:`is_core`, which a run calls first, and
# :func:`_bottom_up` walk it with an explicit stack, so the core test and the
# name sets take no stack frame per level: the core test stores each node's
# name sets as it goes, and :func:`_bottom_up` finds the sets that are not
# stored yet.  The other walks recurse
# through plain loops, not comprehensions or generators, so that one level of
# nesting costs one stack frame; substitution goes down only where the
# variable is free.

def _parts(node) -> list:
    """The children of a value or computation in source order, each paired
    with the variable bound over it (``None`` where nothing is bound)."""
    kind = type(node)
    if kind is VarV or kind is ConstV or kind is TidV or kind is NilV:
        return []
    if kind is LetC:
        return [(None, node.bound), (node.var, node.body)]
    if kind is ApplyC:
        return [(None, node.fn), (None, node.arg)]
    if kind is CaseV:
        return [(None, node.value), *node.branches]
    if kind is Ret or kind is ProjC or kind is InjV:
        return [(None, node.value)]
    if kind is TupleV:
        return [(None, item) for item in node.items]
    if kind is LambdaV:
        return [(node.param, node.body)]
    if kind is UnionV:
        return [(None, node.left), (None, node.right)]
    if kind is SeqC:
        return [(None, node.first), (None, node.second)]
    if kind is CaseC:
        return [(None, node.comp), *node.branches]
    raise TypeError(f"not a value or computation: {node!r}")


def _rebuild(node, kids: list):
    """``node`` with its children, in the order :func:`_parts` lists them,
    replaced by ``kids``; a node without children is returned as it is."""
    if not kids:
        return node
    kind = type(node)
    if kind is LetC:
        return LetC(node.var, kids[0], kids[1])
    if kind is ApplyC:
        return ApplyC(kids[0], kids[1])
    if kind is CaseV:
        return CaseV(kids[0], _rebranch(node.branches, kids))
    if kind is Ret:
        return Ret(kids[0])
    if kind is ProjC:
        return ProjC(node.index, kids[0])
    if kind is InjV:
        return InjV(node.index, kids[0], node.annot)
    if kind is TupleV:
        return TupleV(tuple(kids))
    if kind is LambdaV:
        return LambdaV(node.param, node.annot, kids[0])
    if kind is UnionV:
        return UnionV(kids[0], kids[1])
    if kind is SeqC:
        return SeqC(kids[0], kids[1])
    if kind is CaseC:
        return CaseC(kids[0], _rebranch(node.branches, kids))
    raise TypeError(f"not a value or computation: {node!r}")


def _rebranch(branches, kids: list) -> tuple:
    """The branches of a case with the bodies after its scrutinee in ``kids``."""
    return tuple((x, body) for (x, _), body in zip(branches, kids[1:]))


_NO_NAMES: frozenset = frozenset()


def is_core(t: Comp) -> bool:
    """True when no surface sugar remains.  This is the one walk of a
    program before it runs, by an explicit stack: it checks every node, and
    then stores both name sets (see :func:`_names`) on each node that lacks
    one, children first, so that the run's substitutions and a typing memo
    find them stored.  A program that names no thread ID gives every node
    the empty set of them.  A node's stored sets say nothing about sugar,
    since a typing memo and :func:`subst_value` store sets on sugared nodes
    too, so nodes that have them are checked all the same."""
    stack, unnamed, named_tids = [t], [], False
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is SeqC or kind is CaseC or (kind is ConstV and node.name not in CORE_CONSTS):
            return False
        named_tids = named_tids or kind is TidV
        parts = _parts(node)
        stored = node.__dict__
        if "_free" not in stored or "_tids" not in stored:
            unnamed.append((node, parts))
        for _, kid in parts:
            stack.append(kid)
    # each node comes after its children in the reverse of the visiting order
    for node, parts in reversed(unnamed):
        stored = node.__dict__
        own = frozenset((node.name,)) if type(node) is VarV else _NO_NAMES
        stored["_free"] = _join(own, parts, "_free")
        if named_tids:
            own = frozenset((node.path,)) if type(node) is TidV else _NO_NAMES
            stored["_tids"] = _join(own, parts, "_tids")
        else:
            stored["_tids"] = _NO_NAMES
    return True


def _bottom_up(term, key: str) -> Iterator:
    """The nodes of ``term`` whose ``__dict__`` has no ``key``, each after
    its children, by an explicit stack.  The walk does not enter a node
    that has ``key``; the caller sets ``key`` on each node it is given, so
    a subterm shared at several places comes once."""
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if key in node.__dict__:
            continue
        if ready:
            yield node
        else:
            stack.append((node, True))
            stack.extend((kid, False) for _, kid in _parts(node))


def _free(node) -> frozenset:
    """The free variables of a value or computation (see :func:`_names`)."""
    return _names(node, "_free")


def _tids(node) -> frozenset:
    """The thread IDs a value or computation names (see :func:`_names`)."""
    return _names(node, "_tids")


def _names(node, key: str) -> frozenset:
    """The names of ``node`` that :func:`_free` (``key`` ``_free``) or
    :func:`_tids` (``_tids``) asks for, cached on each node under ``key``;
    a node is visited once, the first time it or a node above it is asked.
    One pass serves both: a variable is a ``VarV`` leaf, removed where a
    child binds it; a thread ID is a ``TidV`` leaf, a tuple, which no
    binder (a string) removes.  Both are usually stored already: by
    :func:`is_core` on every node of a program before it runs, and during
    a run by :func:`subst_value` and on the closed nodes a step builds
    (:func:`_closed`), so a preservation run walks no node for them.  What
    a walk stores is exact for good, since nodes never change."""
    names = node.__dict__.get(key)
    if names is not None:
        return names
    leaf, field = (VarV, "name") if key == "_free" else (TidV, "path")
    for sub in _bottom_up(node, key):
        own = frozenset((getattr(sub, field),)) if type(sub) is leaf else _NO_NAMES
        names = sub.__dict__[key] = _join(own, _parts(sub), key)
    return names


def _closed(node, tids: frozenset):
    """``node``, a value or computation built closed at run time that names
    the thread IDs ``tids``, with both of its name sets stored, so that
    neither a substitution nor a typing memo walks it for them."""
    node.__dict__["_free"] = _NO_NAMES
    node.__dict__["_tids"] = tids
    return node


def _join(names: frozenset, parts: list, key: str) -> frozenset:
    """``names`` with the sets the children in ``parts`` store under
    ``key``, each less the variable bound over it."""
    for var, kid in parts:
        kid_names = kid.__dict__[key]
        if var in kid_names:
            kid_names = kid_names - {var}
        if not kid_names <= names:
            # a node whose other children add nothing shares a child's set
            names = names | kid_names if names else kid_names
    return names


def subst_value(t: Comp, name: str, v: Value) -> Comp:
    """Substitute a closed value for a variable in a computation; a binder
    of the same name shadows it.

    Only the nodes above a free occurrence are rebuilt: where ``name`` is
    not free the subterm is kept as it is (so ``t`` itself comes back when
    ``name`` is not free in ``t``), and a rebuilt node's free variables are
    its old ones less ``name``, because ``v`` is closed.  A rebuilt node
    stores its thread IDs when its old node and ``v`` store theirs: the old
    set joined with those of ``v``, which it names at least once."""
    stored = t.__dict__
    free = stored.get("_free")
    if free is None:
        free = _free(t)
    if name not in free:
        return t
    if type(t) is VarV:
        return v
    kids = []
    for var, kid in _parts(t):
        kids.append(kid if var == name else subst_value(kid, name, v))
    new = _rebuild(t, kids)
    new.__dict__["_free"] = free - {name}
    tids, named = stored.get("_tids"), v.__dict__.get("_tids")
    if tids is not None and named is not None:
        new.__dict__["_tids"] = tids if named <= tids else tids | named
    return new


# --- desugaring -------------------------------------------------------------------

def desugar(t: Comp) -> Comp:
    """Lower sequencing, case-of-computation, and the sugar constants to the
    fork/wait/stop/printstop core.  Each expansion of a sugar constant is
    built in core form, so nothing the walk returns is walked again; fresh
    names are drawn in the order in which lowering the expansion's surface
    form would draw them (the tests keep that two-pass desugarer as the
    oracle)."""
    fresh = _fresh_namer(t)

    def ds(node):
        kind = type(node)
        if kind is SeqC:
            return LetC(fresh("u"), ds(node.first), ds(node.second))
        if kind is CaseC:
            z = fresh("z")
            return LetC(z, ds(node.comp), ds(CaseV(VarV(z), node.branches)))
        if kind is ApplyC and type(node.fn) is ConstV and node.fn.name in SUGAR_CONSTS:
            return expand(node.fn.name, node.fn.action, ds(node.arg))
        if kind is ConstV and node.name in SUGAR_CONSTS:
            z = fresh("f")
            signature = const_signature(node)
            return LambdaV(z, signature.arg, expand(node.name, node.action, VarV(z)))
        kids = []
        for _, kid in _parts(node):
            kids.append(ds(kid))
        return _rebuild(node, kids)

    def call(name: str, arg: Value, action: Optional[str] = None) -> Comp:
        return ApplyC(ConstV(name, action), arg)

    def forked(z: str, a: str, parent: Comp, u: str, child: Comp) -> Comp:
        """``let z = fork() in case z of { inj1 a => parent | inj2 u => child }``"""
        return LetC(z, call("fork", UNIT_V), CaseV(VarV(z), ((a, parent), (u, child))))

    def absurd(comp: Comp) -> Comp:
        """``case comp of {}``, which coerces ``comp`` out of the empty type"""
        z = fresh("z")
        return LetC(z, comp, CaseV(VarV(z), ()))

    def expand(name: str, action: Optional[str], arg: Value) -> Comp:
        if name == "print":
            # an action that can be followed: fork a thread that merely
            # performs it, then wait for that thread
            z, a, u = fresh("z"), fresh("a"), fresh("u")
            return forked(z, a, call("wait", VarV(a)), u, absurd(call("printstop", UNIT_V, action)))
        if name == "node":
            # fork a child that waits on the given IDs then acts; hand the
            # child's ID back to the caller
            z, b, u, waited, acted = fresh("z"), fresh("b"), fresh("u"), fresh("u"), fresh("u")
            child = LetC(
                waited,
                call("wait", arg),
                LetC(acted, expand("print", action, UNIT_V), absurd(call("stop", UNIT_V))),
            )
            return forked(z, b, Ret(VarV(b)), u, child)
        if name in ("parallel", "series"):
            runner1, runner2, wrap = _split_pair(arg, fresh)
            if name == "series":
                z, a, u, waited = fresh("z"), fresh("a"), fresh("u"), fresh("u")
                then = LetC(waited, call("wait", VarV(a)), ApplyC(runner2, UNIT_V))
                return wrap(forked(z, a, then, u, ApplyC(runner1, UNIT_V)))
            z1, z2, a, b = fresh("z"), fresh("z"), fresh("a"), fresh("b")
            u1, u2, waited_a, waited_b = fresh("u"), fresh("u"), fresh("u"), fresh("u")
            join = LetC(
                waited_a,
                call("wait", VarV(a)),
                LetC(waited_b, call("wait", VarV(b)), call("stop", UNIT_V)),
            )
            inner = forked(z2, b, join, u1, ApplyC(runner2, UNIT_V))
            return wrap(forked(z1, a, inner, u2, ApplyC(runner1, UNIT_V)))
        raise TypeError(f"not a sugar constant: {name!r}")

    return ds(t)


def _split_pair(arg: Value, fresh) -> tuple[Value, Value, "object"]:
    """Access the two components of a pair argument: literal pairs are used
    directly, anything else goes through projections."""
    if isinstance(arg, TupleV) and len(arg.items) == 2:
        return arg.items[0], arg.items[1], lambda body: body

    f, g = fresh("f"), fresh("g")

    def wrap(body: Comp) -> Comp:
        return LetC(f, ProjC(1, arg), LetC(g, ProjC(2, arg), body))

    return VarV(f), VarV(g), wrap


def _fresh_namer(t: Comp):
    used: set[str] = set()

    def scan(node) -> None:
        if type(node) is VarV:
            used.add(node.name)
        for var, kid in _parts(node):
            if var is not None:
                used.add(var)
            scan(kid)

    scan(t)
    counter = [0]

    def fresh(base: str) -> str:
        while True:
            counter[0] += 1
            name = f"_{base}{counter[0]}"
            if name not in used:
                used.add(name)
                return name

    return fresh


# --- textual syntax -----------------------------------------------------------------
#
# The lexer and the header reader are the term files' (see
# :mod:`dynthreads.terms`); this syntax supplies its token table.

_TOKEN_RE = re.compile(
    r"(?P<tid>#[0-9]+(?:\.[0-9]+)*)"
    r"|(?P<label>\[[A-Za-z0-9_.$]+\])"
    r"|(?P<union>\(\+\))"
    r"|(?P<arrow>->)"
    r"|(?P<darrow>=>)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*|\d+)"
    r"|(?P<punct>[(){},;=|.\\:*+])"
)

# the name tokens that are not identifiers: the words the parser reads as
# syntax, and numbers, so no variable or binder is named by one
_RESERVED = re.compile("|".join(
    ["let", "in", "case", "of", "ret", "nil", *CORE_CONSTS, *SUGAR_CONSTS, "(?:proj|inj)?[0-9]+"]
))


def parse_program(text: str) -> tuple[World, Comp]:
    """Parse an optional ``world #0.1, ...;`` header and a computation.

    The computation is read in one loop over an explicit stack of the
    constructs still open, one frame each, as :func:`terms._parse_term`
    reads a term.  ``want`` is what the loop reads next: a computation
    (``"comp"``: atoms joined by ``;``), a computation atom (``"atom"``, or
    a value that no argument follows: a case scrutinee, and an error
    anywhere else), a value (``"value"``: value atoms joined by ``(+)``) or
    a value atom.  Opening a construct pushes its frame, a kind and an
    argument; a finished piece then closes frames until one needs more
    input, which pushes a frame and sets ``want``.  A ``build`` frame takes
    one more piece, which its argument turns into a node."""
    lx = Lexer(text, _TOKEN_RE, ParseError)
    world = read_headers(lx, {"world": _read_tid}).get("world", {})
    stack: list = []
    want = "comp"
    while True:
        if want == "comp":
            stack.append(("seq", lx.peek()))
        if want == "comp" or want == "atom":
            word = lx.peek()[1]
            if word == "let":
                lx.next()
                stack.append(("let", _parse_ident(lx)))
                lx.expect("=")
                want = "comp"
                continue
            if word == "case":
                lx.next()
                stack.append(("case", None))
                want = "atom"
                continue
            if word == "ret":
                lx.next()
                stack.append(("build", Ret))
            elif word.startswith("proj") and word[4:].isdigit():
                lx.next()
                stack.append(("build", partial(ProjC, int(word[4:]))))
            else:
                # an application value(arg), or a bare value
                stack.append(("apply", None))
            want = "value"
        if want == "value":
            stack.append(("union", None))
        want = "value atom"
        tok = lx.next()
        kind, word = tok[0], tok[1]
        if kind == "tid":
            node = TidV(_parse_tid(lx, tok))
        elif word == "nil":
            node = NilV()
        elif word == "(":
            if lx.at(")"):
                lx.next()
                node = UNIT_V
            else:
                stack.append(("tuple", []))
                want = "value"
                continue
        elif word == "\\":
            param = _parse_ident(lx)
            annot = None
            if lx.at(":"):
                lx.next()
                annot = _parse_type(lx)
            lx.expect(".")
            stack.append(("build", partial(LambdaV, param, annot)))
            want = "comp"
            continue
        elif word.startswith("inj") and word[3:].isdigit():
            stack.append(("build", partial(InjV, int(word[3:]))))
            continue
        elif word in ("fork", "wait", "stop", "parallel", "series"):
            node = ConstV(word)
        elif word in _LABELLED:
            label = lx.next()
            if label[0] != "label":
                raise lx.fail(label, f"{word} needs an [action] label")
            node = ConstV(word, label[1][1:-1])
        elif kind == "name" and not word.isdigit():
            node = VarV(word)
        else:
            raise lx.fail(tok, f"expected a value, got {word!r}")
        while stack:
            kind, arg = stack.pop()
            if kind == "build":
                node = arg(node)
            elif kind == "union":
                if lx.at("(+)"):
                    lx.next()
                    stack.append(("build", partial(UnionV, node)))
                    want = "value"
                    break
            elif kind == "apply":
                # ``want`` is still a value atom, the argument
                if lx.at("("):
                    stack.append(("build", partial(ApplyC, node)))
                    break
            elif kind == "seq":
                if not isinstance(node, _COMP_TYPES):
                    raise lx.fail(arg, "a bare value is not a computation; apply it or use ret")
                if lx.at(";"):
                    lx.next()
                    stack.append(("build", partial(SeqC, node)))
                    want = "comp"
                    break
            elif kind == "let":
                lx.expect("in")
                stack.append(("build", partial(LetC, arg, node)))
                want = "comp"
                break
            elif kind == "tuple":
                arg.append(node)
                if lx.at(","):
                    lx.next()
                    stack.append(("tuple", arg))
                    want = "value"
                    break
                lx.expect(")")
                node = arg[0] if len(arg) == 1 else TupleV(tuple(arg))
            else:
                # a case: its scrutinee is read, or the body of a branch
                if arg is None:
                    lx.expect("of")
                    lx.expect("{")
                    scrutinee, branches = node, []
                else:
                    scrutinee, branches, var = arg
                    branches.append((var, node))
                    if lx.at("|"):
                        lx.next()
                if lx.at("}"):
                    lx.next()
                    case = CaseC if isinstance(scrutinee, _COMP_TYPES) else CaseV
                    node = case(scrutinee, tuple(branches))
                    continue
                inj = lx.next()
                if inj[1] != f"inj{len(branches) + 1}":
                    raise lx.fail(inj, f"expected inj{len(branches) + 1}, got {inj[1]!r}")
                stack.append(("case", (scrutinee, branches, _parse_ident(lx))))
                lx.expect("=>")
                want = "comp"
                break
        else:
            break
    lx.finish()
    return frozenset(world), node


def parse_comp(text: str) -> Comp:
    return parse_program(text)[1]


def _read_tid(lx: Lexer) -> tuple[Tid, Tid]:
    path = _parse_tid(lx, lx.next())
    return path, path


def _parse_tid(lx: Lexer, tok: tuple) -> Tid:
    if tok[0] != "tid":
        raise lx.fail(tok, "expected a tid literal")
    parts = tok[1][1:].split(".")
    if parts[0] != "0":
        raise lx.fail(tok, f"tid literals are rooted at #0, got {tok[1]!r}")
    return tuple(int(p) for p in parts[1:])


def _parse_ident(lx: Lexer) -> str:
    tok = lx.next()
    if tok[0] != "name" or _RESERVED.fullmatch(tok[1]):
        raise lx.fail(tok, f"expected an identifier, got {tok[1]!r}")
    return tok[1]


def _parse_type(lx: Lexer) -> LangType:
    """A type, read by the table of :data:`_TYPE_ATOMS` and
    :data:`_TYPE_OPS` from an explicit stack: ``levels`` holds the operands
    read so far at each operator's level, and each open parenthesis keeps
    the levels around it.  An operand closes each level, tightest first,
    until one whose operator follows it."""
    stack: list = []
    levels: list[list] = [[] for _ in _TYPE_OPS]
    while True:
        tok = lx.next()
        if tok[1] == "(":
            stack.append(levels)
            levels = [[] for _ in _TYPE_OPS]
            continue
        ty = _TYPE_ATOMS.get(tok[1])
        if ty is None:
            raise lx.fail(tok, f"expected a type, got {tok[1]!r}")
        while True:
            op = lx.peek()[1]
            for level in reversed(range(len(_TYPE_OPS))):
                word, node = _TYPE_OPS[level]
                operands = levels[level]
                operands.append(ty)
                if op == word:
                    break
                levels[level] = []
                if node is Arrow:
                    ty = reduce(lambda res, arg: Arrow(arg, res), reversed(operands))
                else:
                    ty = operands[0] if len(operands) == 1 else node(tuple(operands))
            else:
                if not stack:
                    return ty
                lx.expect(")")
                levels = stack.pop()
                continue
            break
        lx.next()


# --- printing ------------------------------------------------------------------------
#
# The printer produces text as a stream of short pieces, left to right, from an
# explicit stack: joining the stream gives the whole text, a caller that needs
# only a prefix stops reading early, and deep terms do not recurse.

_COMP_TYPES = (Ret, ProjC, CaseV, ApplyC, LetC, SeqC, CaseC)


def print_comp(t: Comp) -> str:
    if not isinstance(t, _COMP_TYPES):
        raise TypeError(f"not a computation: {t!r}")
    return "".join(print_pieces(t))


def print_pieces(term: Union[Value, Comp], frames: Iterable = ()) -> Iterator[str]:
    """The text of a value or computation as consecutive pieces; each node
    is expanded only when the text reaches it.  ``term`` is read as plugged
    into ``frames``, ``let`` nodes outermost first, without building a
    node: each frame's text is its own with its bound replaced by the
    frames inside it and ``term``."""
    stack: list = []
    for frame in frames:
        head, _, *tail = _print_parts(frame)
        yield head
        stack += reversed(tail)
    stack.append(term)
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
        else:
            stack.extend(reversed(_print_parts(item)))


def _print_parts(node) -> list:
    """One node's text: strings and the child nodes between them."""
    match node:
        case VarV(name):
            return [_print_ident(name)]
        # a one-item tuple's text is its item's in parentheses, which the
        # parser reads as the item alone, so no text reads back as it
        case TupleV((_,)) | ApplyC(_, TupleV((_,))):
            raise TypeError("no text parses as a one-item TupleV")
        case TupleV(items):
            return ["(", *_print_commas(items), ")"]
        case InjV(i, inner):
            return [f"inj{i} ", *_print_atom(inner)]
        case LambdaV(param, None, body):
            return [f"\\{_print_ident(param)}. ", body]
        case LambdaV(param, annot, body):
            annot = print_type(annot)
            # a unary sum or product has no source syntax: print_type marks
            # it with a trailing operator, which the parser rejects; nor has
            # the bottom marker, which print_type spells <never>
            if "<never>" in annot:
                raise TypeError("no text parses as the annotation <never>")
            if " +)" in annot or " *)" in annot:
                raise TypeError(f"no text parses as the annotation {annot}")
            return [f"\\{_print_ident(param)}:{annot}. ", body]
        case TidV(path):
            return ["#" + tid_str(path)]
        case NilV():
            return ["nil"]
        case UnionV(left, right):
            return [*_print_atom(left), " (+) ", *_print_atom(right)]
        case ConstV(name, None):
            return [name]
        case ConstV(name, action):
            return [f"{name}[{action}]"]
        case Ret(v):
            return ["ret ", v]
        case ProjC(i, v):
            return [f"proj{i} ", *_print_atom(v)]
        case CaseV(v, branches):
            return ["case ", v, " of ", *_print_branches(branches)]
        # the text of a sequence or a let runs to the end of the computation
        # around it, so the parser builds neither as a case scrutinee or
        # before a ``;``, and no text reads back as these nodes
        case CaseC(SeqC(), _):
            raise TypeError("no text parses as a CaseC of a SeqC")
        case SeqC(SeqC() | LetC(), _):
            raise TypeError(f"no text parses as a SeqC of a {type(node.first).__name__}")
        case CaseC(comp, branches):
            return ["case ", comp, " of ", *_print_branches(branches)]
        case ApplyC(fn, TupleV(items)):
            return [*_print_atom(fn), "(", *_print_commas(items), ")"]
        case ApplyC(fn, arg):
            return [*_print_atom(fn), "(", arg, ")"]
        case LetC(var, bound, body):
            return [f"let {_print_ident(var)} = ", bound, " in ", body]
        # a lambda's body runs to the end of the computation around it, so
        # a returned lambda before a ``;`` is bracketed
        case SeqC(Ret(LambdaV() as fn), second):
            return ["ret (", fn, "); ", second]
        case SeqC(first, second):
            return [first, "; ", second]
    raise TypeError(f"not a value or computation: {node!r}")


def _print_ident(name: str) -> str:
    """``name`` as a variable or a binder, which the parser reads as such
    unless it is a reserved word (:data:`_RESERVED`)."""
    if _RESERVED.fullmatch(name):
        raise TypeError(f"no text parses as the identifier {name!r}, a reserved word")
    return name


def _print_atom(v: Value) -> list:
    if isinstance(v, (LambdaV, UnionV, InjV)):
        return ["(", v, ")"]
    return [v]


def _print_commas(items) -> list:
    parts: list = []
    for item in items:
        if parts:
            parts.append(", ")
        parts.append(item)
    return parts


def _print_branches(branches) -> list:
    if not branches:
        return ["{}"]
    parts: list = ["{ "]
    for i, (x, body) in enumerate(branches, start=1):
        if i > 1:
            parts.append(" | ")
        parts += [f"inj{i} {_print_ident(x)} => ", body]
    parts.append(" }")
    return parts


def print_program(world: World, t: Comp) -> str:
    header = ""
    if world:
        tids = ", ".join("#" + tid_str(p) for p in sorted(world))
        header = f"world {tids};\n"
    return header + print_comp(t) + "\n"
