"""Dual-route check for the type checker.

:mod:`dynthreads.lang` types each syntactic class with one bidirectional
judgement and joins the types of a synthesized ``case``'s branches.  It is
checked against the checker it replaced, kept below as the reference: one
synthesis and one checking function per class, where a synthesized ``case``
synthesizes every branch and then checks every branch again against each
candidate type in turn.  Both must give the same type, or raise the same
error with the same message, on the corpus programs (surface and
desugared), on every unfinished thread state of their full schedule graphs,
on a generated print chain and node DAG, on programs whose ``case``
branches meet only through the bottom type, on injections annotated as
runtime steps annotate them, on nested cases, and on the ill-typed programs
of ``test_lang``.  The checker is also run with one typing memo shared by
every input of a test, as a preservation run shares one across the states
it checks, and must agree all the same.
"""

from __future__ import annotations

import random

from dynthreads.lang import _comp as memo_judge
from dynthreads.lang import (
    BOTTOM,
    EMPTY,
    UNIT,
    UNIT_V,
    ApplyC,
    Arrow,
    Bot,
    CaseC,
    CaseV,
    ConstV,
    InjV,
    LambdaV,
    LangError,
    LetC,
    NilV,
    Prod,
    ProjC,
    Ret,
    SeqC,
    Sum,
    TID,
    TidV,
    TupleV,
    TypeCheckError,
    UnionV,
    UnknownTid,
    VarV,
    check_comp,
    compatible,
    const_signature,
    desugar,
    parse_comp,
    print_type,
    tid_str,
    typecheck_comp,
)
from dynthreads.machine import DEFAULT_BUDGET, FINISHED

from corpus import corpus_names, full_graph, load_surface
from test_lang import ILL_TYPED


# --- the reference checker ------------------------------------------------------

def reference_typecheck_comp(env, world, t):
    return _synth_comp(dict(env), world, t)


def reference_check_comp(env, world, t, ty) -> None:
    _check_comp(dict(env), world, t, ty)


def _synth_value(env, world, v) -> LangType:
    match v:
        case VarV(name):
            if name not in env:
                raise TypeCheckError(f"unbound variable {name!r}")
            return env[name]
        case TidV(path):
            if path not in world:
                raise UnknownTid(f"thread ID {tid_str(path)} not in the world")
            return TID
        case NilV():
            return TID
        case UnionV(left, right):
            _check_value(env, world, left, TID)
            _check_value(env, world, right, TID)
            return TID
        case TupleV(items):
            return Prod(tuple(_synth_value(env, world, i) for i in items))
        case InjV(_, _, annot) if annot is not None:
            _check_value(env, world, v, annot)
            return annot
        case InjV(_, _, _):
            raise TypeCheckError("cannot infer a sum type for an injection here")
        case LambdaV(param, annot, body):
            if annot is None:
                raise TypeCheckError(
                    f"cannot infer the argument type of \\{param}. ...; annotate it"
                )
            inner = dict(env)
            inner[param] = annot
            return Arrow(annot, _synth_comp(inner, world, body))
        case ConstV() as c:
            return const_signature(c)
    raise TypeError(f"not a value: {v!r}")


def _check_value(env, world, v, ty: LangType) -> None:
    match v, ty:
        case InjV(index, inner), Sum(parts):
            if not 1 <= index <= len(parts):
                raise TypeCheckError(
                    f"inj{index} into a sum with {len(parts)} summands"
                )
            _check_value(env, world, inner, parts[index - 1])
            return
        case InjV(index, _), _:
            raise TypeCheckError(f"inj{index} must have a sum type, not {print_type(ty)}")
        case TupleV(items), Prod(parts):
            if len(items) != len(parts):
                raise TypeCheckError(
                    f"tuple of {len(items)} checked against product of {len(parts)}"
                )
            for item, part in zip(items, parts):
                _check_value(env, world, item, part)
            return
        case LambdaV(param, annot, body), Arrow(arg, res):
            if annot is not None and annot != arg:
                raise TypeCheckError(
                    f"lambda annotated {print_type(annot)}, expected {print_type(arg)}"
                )
            inner = dict(env)
            inner[param] = arg
            _check_comp(inner, world, body, res)
            return
    got = _synth_value(env, world, v)
    if not compatible(got, ty):
        raise TypeCheckError(f"expected {print_type(ty)}, found {print_type(got)}")


def _synth_comp(env, world, t) -> LangType:
    match t:
        case Ret(v):
            return _synth_value(env, world, v)
        case ProjC(index, v):
            ty = _synth_value(env, world, v)
            if isinstance(ty, Bot):
                return BOTTOM
            if not isinstance(ty, Prod):
                raise TypeCheckError(f"proj{index} of non-product {print_type(ty)}")
            if not 1 <= index <= len(ty.parts):
                raise TypeCheckError(
                    f"proj{index} of a product with {len(ty.parts)} components"
                )
            return ty.parts[index - 1]
        case CaseV(v, branches):
            ty = _synth_value(env, world, v)
            return _synth_case(env, world, ty, branches)
        case CaseC(comp, branches):
            ty = _synth_comp(env, world, comp)
            return _synth_case(env, world, ty, branches)
        case ApplyC(fn, arg):
            return _synth_apply(env, world, fn, arg)
        case LetC(var, bound, body):
            bound_ty = _synth_comp(env, world, bound)
            inner = dict(env)
            inner[var] = bound_ty
            return _synth_comp(inner, world, body)
        case SeqC(first, second):
            _synth_comp(env, world, first)
            return _synth_comp(env, world, second)
    raise TypeError(f"not a computation: {t!r}")


def _synth_apply(env, world, fn, arg) -> LangType:
    if isinstance(fn, LambdaV):
        if fn.annot is None:
            arg_ty = _synth_value(env, world, arg)
        else:
            _check_value(env, world, arg, fn.annot)
            arg_ty = fn.annot
        inner = dict(env)
        inner[fn.param] = arg_ty
        return _synth_comp(inner, world, fn.body)
    fn_ty = _synth_value(env, world, fn)
    if isinstance(fn_ty, Bot):
        return BOTTOM
    if not isinstance(fn_ty, Arrow):
        raise TypeCheckError(f"applying a non-function of type {print_type(fn_ty)}")
    _check_value(env, world, arg, fn_ty.arg)
    return fn_ty.res


def _synth_case(env, world, scrut_ty, branches) -> LangType:
    if isinstance(scrut_ty, Bot):
        return BOTTOM
    if not isinstance(scrut_ty, Sum):
        raise TypeCheckError(f"case scrutinee has non-sum type {print_type(scrut_ty)}")
    if len(branches) != len(scrut_ty.parts):
        raise TypeCheckError(
            f"case with {len(branches)} branches on a sum of {len(scrut_ty.parts)}"
        )
    if not branches:
        # an empty case never returns
        return BOTTOM
    candidates: list[LangType] = []
    errors = []
    for (x, body), part in zip(branches, scrut_ty.parts):
        inner = dict(env)
        inner[x] = part
        try:
            ty = _synth_comp(inner, world, body)
            if ty not in candidates:
                candidates.append(ty)
        except TypeCheckError as exc:
            errors.append(str(exc))
    candidates.sort(key=lambda t: isinstance(t, Bot))
    for candidate in candidates:
        try:
            for (x, body), part in zip(branches, scrut_ty.parts):
                inner = dict(env)
                inner[x] = part
                _check_comp(inner, world, body, candidate)
            return candidate
        except TypeCheckError:
            continue
    if not candidates:
        raise TypeCheckError("no case branch synthesizes a type: " + "; ".join(errors))
    raise TypeCheckError("case branches do not agree on a single type")


def _check_comp(env, world, t, ty: LangType) -> None:
    match t:
        case Ret(v):
            _check_value(env, world, v, ty)
            return
        case CaseV(v, branches):
            scrut_ty = _synth_value(env, world, v)
            _check_case(env, world, scrut_ty, branches, ty)
            return
        case CaseC(comp, branches):
            scrut_ty = _synth_comp(env, world, comp)
            _check_case(env, world, scrut_ty, branches, ty)
            return
        case LetC(var, bound, body):
            bound_ty = _synth_comp(env, world, bound)
            inner = dict(env)
            inner[var] = bound_ty
            _check_comp(inner, world, body, ty)
            return
        case SeqC(first, second):
            _synth_comp(env, world, first)
            _check_comp(env, world, second, ty)
            return
    got = _synth_comp(env, world, t)
    if not compatible(got, ty):
        raise TypeCheckError(f"expected {print_type(ty)}, found {print_type(got)}")


def _check_case(env, world, scrut_ty, branches, ty) -> None:
    if isinstance(scrut_ty, Bot):
        return
    if not isinstance(scrut_ty, Sum):
        raise TypeCheckError(f"case scrutinee has non-sum type {print_type(scrut_ty)}")
    if len(branches) != len(scrut_ty.parts):
        raise TypeCheckError(
            f"case with {len(branches)} branches on a sum of {len(scrut_ty.parts)}"
        )
    for (x, body), part in zip(branches, scrut_ty.parts):
        inner = dict(env)
        inner[x] = part
        _check_comp(inner, world, body, ty)


# --- the inputs -------------------------------------------------------------------


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


# branches whose types meet only through the bottom type of an empty case,
# and branches that synthesize nothing and are checked against the others
_NEVER = "let z = case stop() of {} in "
_JOINS = [
    "case y of { inj1 x => " + _NEVER + "ret (z, x) | inj2 u => ret (nil, nil) }",
    "case y of { inj1 x => " + _NEVER + "ret (z, x) | inj2 u => " + _NEVER + "ret (nil, z) }",
    "case y of { inj1 x => case stop() of {} | inj2 u => ret u }",
    "case y of { inj1 x => case stop() of {} | inj2 u => case stop() of {} }",
    "case y of { inj1 x => ret inj1 x | inj2 u => ret y }",
    "case y of { inj1 x => ret inj2 x | inj2 u => ret y }",
    "case y of { inj1 x => ret \\v. ret v | inj2 u => ret \\v:tid. ret x }",
    "case y of { inj1 x => ret \\v:1. stop() | inj2 u => ret \\v:1. case stop() of {} }",
]


# injections annotated as runtime steps annotate them, checked against
# other sums: checking does not consult the annotation
_BRANCH_ON_P = parse_comp("case p of { inj1 a => stop() | inj2 b => wait(b); stop() }")
_ANNOTATED = [
    ApplyC(LambdaV("p", Sum((TID, TID)), _BRANCH_ON_P), InjV(1, NilV(), Sum((TID, UNIT)))),
    ApplyC(LambdaV("p", Sum((TID, UNIT, UNIT)), parse_comp("stop()")), InjV(3, UNIT_V, Sum((TID, UNIT)))),
    Ret(InjV(3, UNIT_V, Sum((TID, UNIT)))),
]


def _nested_case(depth: int):
    t = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(depth):
        t = CaseV(InjV(1, UNIT_V, Sum((UNIT,))), (("u", t),))
    return t


def _programs():
    for name in corpus_names():
        surface = load_surface(name)
        yield name, surface
        yield name + "/core", desugar(surface)
    for i, src in enumerate(_JOINS):
        yield f"join{i}", parse_comp("let y = fork() in " + src)
    for i, t in enumerate(_ANNOTATED):
        yield f"annotated{i}", t
    yield "nested-case", _nested_case(3)
    for name, src, _, _ in ILL_TYPED:
        yield name, parse_comp(src)
    yield "chain30", parse_comp(_chain())
    yield "dag12", parse_comp(_dag())


def _outcome(judge, *args):
    try:
        return judge(*args)
    except LangError as exc:
        return type(exc), str(exc)


def _agree(label, env, world, t, types, memo: dict) -> int:
    """Compare both checkers on ``t``, synthesizing and checking against
    each of ``types``, without a memo and with ``memo``; return the number
    of comparisons."""
    want = _outcome(reference_typecheck_comp, env, world, t)
    assert _outcome(typecheck_comp, env, world, t) == want, label
    assert _outcome(memo_judge, env, world, t, None, memo) == want, label
    for ty in types:
        want = _outcome(reference_check_comp, env, world, t, ty)
        assert _outcome(check_comp, env, world, t, ty) == want, (label, ty)
        assert _outcome(check_comp, env, world, t, ty, memo) == want, (label, ty)
    return 1 + len(types)


def test_checker_agrees_with_the_reference_on_programs():
    checks = 0
    outcomes = set()
    memo: dict = {}
    for name, comp in _programs():
        found = _outcome(typecheck_comp, {}, frozenset(), comp)
        types = [EMPTY, UNIT, BOTTOM] + ([found] if not isinstance(found, tuple) else [])
        checks += _agree(name, {}, frozenset(), comp, types, memo)
        outcomes.add(found if isinstance(found, tuple) else "typed")
    # every error of the ill-typed table and some typed programs were seen
    assert {(error, message) for _, _, error, message in ILL_TYPED} < outcomes
    assert checks > 200


def test_checker_agrees_with_the_reference_on_thread_states():
    checks = 0
    seen = set()
    memo: dict = {}
    for name in corpus_names():
        _, steps_of, _, truncated = full_graph(name, DEFAULT_BUDGET)
        assert not truncated, name
        for c in steps_of:
            for _, state, _ in c.threads:
                # each state in the full world, where it type checks, and in
                # the empty world, where a thread ID in it is unknown
                for world in (c.world, frozenset()):
                    if state == FINISHED or (state, world) in seen:
                        continue
                    seen.add((state, world))
                    checks += _agree(name, {}, world, state, [EMPTY], memo)
    assert checks > 1000
