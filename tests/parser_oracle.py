"""The recursive-descent program parser, kept as the oracle of
:func:`dynthreads.lang.parse_program`.

One Python call per construct: a computation is an atom and, after ``;``,
another computation; a value is a value atom and, after ``(+)``, another
value; types descend through arrow, sum, product and atom.  So it recurses
once per ``;``, per ``let`` and per argument, and raises
``RecursionError`` where the parser in ``src/``, which keeps one explicit
stack of open constructs, does not.  It runs on the shared lexer and
header reader, so on every input that does not exhaust its stack both
parsers must build the same tree or raise the same error.
"""

from __future__ import annotations

from typing import Union

from dynthreads.lang import (
    _COMP_TYPES,
    _LABELLED,
    _TOKEN_RE,
    EMPTY,
    TID,
    UNIT,
    UNIT_V,
    ApplyC,
    Arrow,
    CaseC,
    CaseV,
    Comp,
    ConstV,
    InjV,
    LambdaV,
    LangType,
    LetC,
    NilV,
    ParseError,
    Prod,
    ProjC,
    Ret,
    SeqC,
    Sum,
    TidV,
    TupleV,
    UnionV,
    Value,
    VarV,
    _parse_ident,
    _parse_tid,
    _read_tid,
)
from dynthreads.terms import Lexer, read_headers


def parse_program(text: str):
    lx = Lexer(text, _TOKEN_RE, ParseError)
    world = read_headers(lx, {"world": _read_tid}).get("world", {})
    comp = _parse_comp(lx)
    lx.finish()
    return frozenset(world), comp


def _parse_comp(lx: Lexer) -> Comp:
    tok = lx.peek()
    first = _parse_comp_atom(lx)
    if not isinstance(first, _COMP_TYPES):
        raise lx.fail(tok, "a bare value is not a computation; apply it or use ret")
    if lx.at(";"):
        lx.next()
        return SeqC(first, _parse_comp(lx))
    return first


def _parse_comp_atom(lx: Lexer) -> Union[Comp, Value]:
    """A computation atom, or a value that no argument follows, which is
    left for the caller: a case scrutinee, or an error anywhere else."""
    text = lx.peek()[1]
    if text == "ret":
        lx.next()
        return Ret(_parse_value(lx))
    if text == "let":
        lx.next()
        var = _parse_ident(lx)
        lx.expect("=")
        bound = _parse_comp(lx)
        lx.expect("in")
        body = _parse_comp(lx)
        return LetC(var, bound, body)
    if text == "case":
        lx.next()
        scrutinee = _parse_comp_atom(lx)
        lx.expect("of")
        lx.expect("{")
        branches = []
        while not lx.at("}"):
            inj = lx.next()
            want = f"inj{len(branches) + 1}"
            if inj[1] != want:
                raise lx.fail(inj, f"expected {want}, got {inj[1]!r}")
            var = _parse_ident(lx)
            lx.expect("=>")
            body = _parse_comp(lx)
            branches.append((var, body))
            if lx.at("|"):
                lx.next()
        lx.expect("}")
        if isinstance(scrutinee, _COMP_TYPES):
            return CaseC(scrutinee, tuple(branches))
        return CaseV(scrutinee, tuple(branches))
    if text.startswith("proj") and text[4:].isdigit():
        lx.next()
        return ProjC(int(text[4:]), _parse_value(lx))
    # otherwise an application value(args), or a bare value
    fn = _parse_value(lx)
    if lx.at("("):
        return ApplyC(fn, _parse_value_atom(lx))
    return fn


def _parse_value(lx: Lexer) -> Value:
    v = _parse_value_atom(lx)
    if lx.at("(+)"):
        lx.next()
        return UnionV(v, _parse_value(lx))
    return v


def _parse_value_atom(lx: Lexer) -> Value:
    tok = lx.next()
    kind, text = tok[0], tok[1]
    if kind == "tid":
        return TidV(_parse_tid(lx, tok))
    if text == "nil":
        return NilV()
    if text == "(":
        if lx.at(")"):
            lx.next()
            return UNIT_V
        items = [_parse_value(lx)]
        while lx.at(","):
            lx.next()
            items.append(_parse_value(lx))
        lx.expect(")")
        return items[0] if len(items) == 1 else TupleV(tuple(items))
    if text == "\\":
        param = _parse_ident(lx)
        annot = None
        if lx.at(":"):
            lx.next()
            annot = _parse_type(lx)
        lx.expect(".")
        body = _parse_comp(lx)
        return LambdaV(param, annot, body)
    if text.startswith("inj") and text[3:].isdigit():
        return InjV(int(text[3:]), _parse_value_atom(lx))
    if text in ("fork", "wait", "stop", "parallel", "series"):
        return ConstV(text)
    if text in _LABELLED:
        label = lx.next()
        if label[0] != "label":
            raise lx.fail(label, f"{text} needs an [action] label")
        return ConstV(text, label[1][1:-1])
    if kind == "name" and not text.isdigit():
        return VarV(text)
    raise lx.fail(tok, f"expected a value, got {text!r}")


def _parse_type(lx: Lexer) -> LangType:
    left = _parse_type_sum(lx)
    if lx.at("->"):
        lx.next()
        return Arrow(left, _parse_type(lx))
    return left


def _parse_type_sum(lx: Lexer) -> LangType:
    parts = [_parse_type_prod(lx)]
    while lx.at("+"):
        lx.next()
        parts.append(_parse_type_prod(lx))
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def _parse_type_prod(lx: Lexer) -> LangType:
    parts = [_parse_type_atom(lx)]
    while lx.at("*"):
        lx.next()
        parts.append(_parse_type_atom(lx))
    return parts[0] if len(parts) == 1 else Prod(tuple(parts))


def _parse_type_atom(lx: Lexer) -> LangType:
    tok = lx.next()
    if tok[1] == "tid":
        return TID
    if tok[1] == "1":
        return UNIT
    if tok[1] == "0":
        return EMPTY
    if tok[1] == "(":
        ty = _parse_type(lx)
        lx.expect(")")
        return ty
    raise lx.fail(tok, f"expected a type, got {tok[1]!r}")
