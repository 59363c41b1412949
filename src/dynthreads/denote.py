"""Denotations of first-order programs as terms of the thread theory.

Elaboration is continuation-passing: the four core constants contribute
their algebraic counterparts -

* ``fork()`` duplicates the continuation under a fresh ID binder,
* ``wait(v)`` wraps it in a wait on the IDs of ``v``,
* ``stop()`` and ``printstop[s]()`` discard it,

and everything else (projections, cases, beta redexes) is evaluated
symbolically at elaboration time.  A closed program of first-order type
``B`` in world ``w`` denotes a term over ``|w|`` parameters whose
computation variables ``x1:m1, ...`` name the summands of the canonical
form of ``B`` (every first-order type is a sum of tid-tuples).

This module also hosts the checks tying semantics together: adequacy
(observed pomset vs star-erased denotation), and the closing context and
marker-gadget constructions used to probe completeness on open terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .lang import (
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
    desugar,
    first_order,
    print_type,
    tid_str,
    typecheck_comp,
)
from .machine import DEFAULT_BUDGET, RunResult, run
from .posets import Pomset, PosetWithHoles, erase_star, interp
from .terms import (
    Act,
    CompContext,
    Fork,
    STOP,
    Term,
    Var,
    Wait,
    binders_of,
    free_params,
    fresh_name,
    scope_check,
    subst_comp,
    subterms,
)
from .tids import ParamContext


class DenoteError(Exception):
    pass


class NotFirstOrderResult(DenoteError):
    pass


class UnboundTid(DenoteError):
    pass


class AlphabetCollision(DenoteError):
    pass


# --- canonical first-order types -----------------------------------------------

@dataclass(frozen=True)
class CanonicalFOType:
    """A first-order type flattened to a sum of tid-tuples: one entry per
    summand, holding its tid arity."""

    summands: tuple[int, ...]

    @staticmethod
    def of(ty: LangType) -> "CanonicalFOType":
        if not first_order(ty):
            raise NotFirstOrderResult(f"{print_type(ty)} contains a function type")
        return CanonicalFOType(tuple(_summands(ty)))


def _summands(ty: LangType) -> list[int]:
    match ty:
        case TidType():
            return [1]
        case Sum(parts):
            out: list[int] = []
            for p in parts:
                out.extend(_summands(p))
            return out
        case Prod(parts):
            combos = [0]
            for p in parts:
                arms = _summands(p)
                combos = [m + a for m in combos for a in arms]
            return combos
    raise TypeError(f"not a first-order type: {ty!r}")


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


@dataclass(frozen=True)
class Denotation:
    gamma: CompContext
    delta: ParamContext
    term: Term
    poset: PosetWithHoles


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
        canonical = CanonicalFOType.of(result_type)
        gamma = CompContext(
            tuple(
                (f"{self.var_prefix}{i}", m)
                for i, m in enumerate(canonical.summands, start=1)
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
                name = f"w{tid_str(path)}"
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


def world_context(world) -> ParamContext:
    """One parameter per world thread ID, in path order."""
    return ParamContext(tuple(f"w{tid_str(p)}" for p in sorted(world)))


def denote(comp: Comp, world=frozenset()) -> Denotation:
    """Denotation of a closed program of first-order type in ``world``."""
    result_type = typecheck_comp({}, frozenset(world), comp)
    if not first_order(result_type):
        raise NotFirstOrderResult(
            f"program has type {print_type(result_type)}; only first-order results denote"
        )
    return _denote_core(desugar(comp), result_type, world)


def _denote_core(core: Comp, result_type: LangType, world) -> Denotation:
    """:func:`denote` after type checking: ``core`` is the desugared program
    and ``result_type`` its first-order type."""
    delta = world_context(world)
    gamma, term = Elaborator(delta).denote_comp(core, {}, result_type)
    return Denotation(gamma, delta, term, interp(term, gamma, delta))


# --- adequacy ------------------------------------------------------------------------

@dataclass(frozen=True)
class AdequacyReport:
    ok: bool
    observed: Pomset
    denoted: Pomset
    witness: Optional[dict]
    run_result: RunResult


def adequacy_check(
    comp: Comp,
    policy: str = "lowest-tid",
    seed: Optional[int] = None,
    fuel: int = DEFAULT_BUDGET,
) -> AdequacyReport:
    """Run the program and compare the observed pomset with the star-erased
    denotation, up to label-preserving order isomorphism."""
    result_type = typecheck_comp({}, frozenset(), comp)
    if result_type != Sum(()):
        raise DenoteError(
            f"adequacy needs a closed program of the empty type, got {print_type(result_type)}"
        )
    core = desugar(comp)
    rr = run(core, policy=policy, seed=seed, fuel=fuel)
    den = _denote_core(core, result_type, frozenset())
    denoted = erase_star(den.poset)
    witness = rr.pomset.iso_to(denoted)
    return AdequacyReport(witness is not None, rr.pomset, denoted, witness, rr)


# --- completeness gadgets ---------------------------------------------------------------

def act_labels(term: Term) -> frozenset[str]:
    return frozenset(t.label for t in subterms(term) if type(t) is Act)


def gadget_subst(gamma: CompContext, delta: ParamContext) -> dict[str, tuple[tuple[str, ...], Term]]:
    """For each variable ``x:m``, a closed term over ``delta + m`` slots:
    one marker child ``$x.i`` waiting on each slot ID, and a main action
    ``$x`` waiting on all the markers, so the markers' dependencies encode
    the visibility of the hole and ``$x`` stands for the hole itself."""
    mapping: dict[str, tuple[tuple[str, ...], Term]] = {}
    for x, m in gamma.entries:
        taken = set(delta.names)
        slots = []
        for i in range(1, m + 1):
            name = fresh_name(f"b{i}", taken)
            taken.add(name)
            slots.append(name)
        markers = []
        for i in range(1, m + 1):
            name = fresh_name(f"c{i}", taken)
            taken.add(name)
            markers.append(name)
        term: Term = (
            Wait(frozenset(markers), Act(f"${x}")) if m else Act(f"${x}")
        )
        for i in range(m, 0, -1):
            term = Fork(markers[i - 1], term, Wait(frozenset({slots[i - 1]}), Act(f"${x}.{i}")))
        scope_check(term, CompContext(()), delta.extend(*slots))
        mapping[x] = (tuple(slots), term)
    return mapping


def apply_gadgets(term: Term, gamma: CompContext, delta: ParamContext) -> Term:
    """Close all computation variables of ``term`` with their gadgets."""
    gadgets = gadget_subst(gamma, delta)
    for x, (slots, body) in gadgets.items():
        term = subst_comp(term, slots, body, x, avoid_extra=frozenset(delta.names))
    scope_check(term, CompContext(()), delta)
    return term


def closing_context(term: Term, delta: ParamContext) -> Term:
    """Bind each free thread ID to the ID of a fresh ``$i``-labelled thread,
    and add a final ``$n+1`` action that waits for the plugged term's main
    thread, making its end observable."""
    n = len(delta)
    avoid = set(delta.names) | binders_of(term) | free_params(term)
    last = fresh_name("ctx", avoid)
    closed: Term = Fork(last, Wait(frozenset({last}), Act(f"${n + 1}")), term)
    for i in range(n, 0, -1):
        closed = Fork(delta.names[i - 1], closed, Act(f"${i}"))
    scope_check(closed, CompContext(()), ParamContext(()))
    return closed


@dataclass(frozen=True)
class ProbeReport:
    consistent: bool
    open_equal: bool
    closed_equal: bool
    detail: Optional[str]


def completeness_probe(
    t1: Term, t2: Term, gamma: CompContext, delta: ParamContext
) -> ProbeReport:
    """Check that equality survives closing: gadget-substitute and wrap both
    terms, then compare the open and closed verdicts."""
    from .posets import decide_equal

    for t in (t1, t2):
        bad = {l for l in act_labels(t) if l.startswith("$")}
        if bad:
            raise AlphabetCollision(f"reserved labels in input: {sorted(bad)}")
    open_verdict = decide_equal(t1, t2, gamma, delta)
    closed1 = closing_context(apply_gadgets(t1, gamma, delta), delta)
    closed2 = closing_context(apply_gadgets(t2, gamma, delta), delta)
    closed_verdict = decide_equal(closed1, closed2, CompContext(()), ParamContext(()))
    consistent = open_verdict.equal == closed_verdict.equal
    detail = None
    if not consistent:
        side = "open" if open_verdict.equal else "closed"
        detail = f"terms are equal {side} but not on the other side"
    return ProbeReport(consistent, open_verdict.equal, closed_verdict.equal, detail)
