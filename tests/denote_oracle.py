"""The continuation-passing elaborator, kept as the oracle of
:class:`dynthreads.denote.Elaborator`.

It evaluates the pure fragment symbolically, with its own values
(``STid``, ``STuple``, ``SInj``, ``SClosure``, ``SConst``) and Python
recursion, and hands each of the four effects the continuation: ``fork()``
duplicates it under a fresh ID binder, ``wait(v)`` wraps it in a wait on the
IDs of ``v``, and ``stop()`` and ``printstop[s]()`` discard it.  The
elaborator in ``src/`` runs the machine's own pure step instead; the tests
check that both give the same context and term, under ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from dynthreads.denote import DenoteError, UnboundTid, _summands, world_param
from dynthreads.lang import (
    ApplyC,
    CaseV,
    Comp,
    ConstV,
    InjV,
    LambdaV,
    LangType,
    LetC,
    NilV,
    Prod,
    ProjC,
    Ret,
    Sum,
    TidType,
    TidV,
    TupleV,
    UnionV,
    VarV,
    print_type,
    tid_str,
)
from dynthreads.terms import Act, CompContext, Fork, STOP, Term, Var, Wait, scope_check
from dynthreads.tids import ParamContext


# --- symbolic values ---------------------------------------------------------------

@dataclass(frozen=True)
class STid:
    names: frozenset[str]


@dataclass(frozen=True)
class STuple:
    items: tuple


@dataclass(frozen=True)
class SInj:
    index: int
    value: "SemValue"


@dataclass
class SClosure:
    param: str
    body: Comp
    env: dict


@dataclass(frozen=True)
class SConst:
    name: str
    action: Optional[str]


SemValue = Union[STid, STuple, SInj, SClosure, SConst]


def _inject(v: SemValue, ty: LangType) -> tuple[int, list[frozenset[str]]]:
    """Coerce a symbolic value of ``ty`` through the canonical sum: returns
    the 1-based summand index and the tid vector."""
    match ty, v:
        case TidType(), STid(names):
            return 1, [names]
        case Sum(parts), SInj(index, inner):
            offset = 0
            for p in parts[: index - 1]:
                offset += len(_summands(p))
            idx, vec = _inject(inner, parts[index - 1])
            return offset + idx, vec
        case Prod(parts), STuple(items):
            if len(items) != len(parts):
                raise DenoteError("tuple arity mismatch during coercion")
            index = 1
            vec: list[frozenset[str]] = []
            for item, part in zip(items, parts):
                arms = len(_summands(part))
                idx, piece = _inject(item, part)
                index = (index - 1) * arms + idx
                vec.extend(piece)
            return index, vec
    raise DenoteError(f"value does not inhabit {print_type(ty)}")


class Elaborator:
    """CPS elaboration with a symbolic environment.

    ``var_prefix`` names the top-level continuation variables ``x1, x2, ...``;
    fresh fork binders are drawn from ``p1, p2, ...``.
    """

    def __init__(self, delta: ParamContext, var_prefix: str = "x"):
        self.delta = delta
        self.var_prefix = var_prefix
        self._counter = 0

    def fresh_param(self) -> str:
        self._counter += 1
        name = f"p{self._counter}"
        while name in self.delta.names:
            self._counter += 1
            name = f"p{self._counter}"
        return name

    def denote_comp(self, comp: Comp, env: dict, result_type: LangType) -> tuple[CompContext, Term]:
        gamma = CompContext(
            tuple(
                (f"{self.var_prefix}{i}", m)
                for i, m in enumerate(_summands(result_type), start=1)
            )
        )

        def top(v: SemValue) -> Term:
            idx, vec = _inject(v, result_type)
            return Var(f"{self.var_prefix}{idx}", tuple(vec))

        term = self.elaborate(comp, env, top)
        scope_check(term, gamma, self.delta)
        return gamma, term

    def elaborate(self, comp: Comp, env: dict, k) -> Term:
        match comp:
            case Ret(v):
                return k(self.eval_value(v, env))
            case LetC(x, bound, body):
                return self.elaborate(
                    bound, env, lambda val: self.elaborate(body, {**env, x: val}, k)
                )
            case ProjC(index, v):
                val = self.eval_value(v, env)
                if not isinstance(val, STuple) or not 1 <= index <= len(val.items):
                    raise DenoteError(f"proj{index} of a non-tuple")
                return k(val.items[index - 1])
            case CaseV(v, branches):
                return self._case(self.eval_value(v, env), branches, env, k)
            case ApplyC(fn, arg):
                fv = self.eval_value(fn, env)
                av = self.eval_value(arg, env)
                return self._apply(fv, av, k)
        raise TypeError(f"not a core computation: {comp!r}")

    def _case(self, scrutinee: SemValue, branches, env: dict, k) -> Term:
        if not isinstance(scrutinee, SInj):
            raise DenoteError("case scrutinee did not evaluate to an injection")
        if not 1 <= scrutinee.index <= len(branches):
            raise DenoteError(f"inj{scrutinee.index} with {len(branches)} branches")
        x, body = branches[scrutinee.index - 1]
        return self.elaborate(body, {**env, x: scrutinee.value}, k)

    def _apply(self, fn: SemValue, arg: SemValue, k) -> Term:
        if isinstance(fn, SClosure):
            return self.elaborate(fn.body, {**fn.env, fn.param: arg}, k)
        if not isinstance(fn, SConst):
            raise DenoteError("application of a non-function")
        if fn.name == "fork":
            a = self.fresh_param()
            parent = k(SInj(1, STid(frozenset({a}))))
            child = k(SInj(2, STuple(())))
            return Fork(a, parent, child)
        if fn.name == "wait":
            if not isinstance(arg, STid):
                raise DenoteError("wait applied to a non-tid value")
            return Wait(arg.names, k(STuple(())))
        if fn.name == "stop":
            return STOP
        if fn.name == "printstop":
            return Act(fn.action)
        raise DenoteError(f"constant {fn.name!r} must be desugared before denotation")

    def eval_value(self, v, env: dict) -> SemValue:
        match v:
            case VarV(name):
                if name not in env:
                    raise DenoteError(f"unbound variable {name!r} during elaboration")
                return env[name]
            case TupleV(items):
                return STuple(tuple(self.eval_value(i, env) for i in items))
            case InjV(index, inner):
                return SInj(index, self.eval_value(inner, env))
            case LambdaV(param, _, body):
                return SClosure(param, body, dict(env))
            case TidV(path):
                name = world_param(path)
                if name not in self.delta.names:
                    raise UnboundTid(f"thread ID {tid_str(path)} not in the world")
                return STid(frozenset({name}))
            case NilV():
                return STid(frozenset())
            case UnionV(left, right):
                lv = self.eval_value(left, env)
                rv = self.eval_value(right, env)
                if not isinstance(lv, STid) or not isinstance(rv, STid):
                    raise DenoteError("(+) applied to non-tid values")
                return STid(lv.names | rv.names)
            case ConstV(name, action):
                return SConst(name, action)
        raise TypeError(f"not a value: {v!r}")
