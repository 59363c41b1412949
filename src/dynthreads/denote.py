"""Denotations of first-order programs as terms of the thread theory.

The four core constants are generic effects, and their denotations are the
theory's operations.  So a program denotes its pure fragment run to an
effect, by the machine's own pure step (:func:`machine.pure_step`, on a
branch kept as its ``let`` frames and a focus, as the machine keeps a
thread), with each effect read as an operation -

* ``fork()`` is a fork under a fresh ID binder, whose parent goes on with
  the binder's ID and whose child with the machine's child start,
* ``wait(v)`` is a wait on the IDs of ``v``,
* ``stop()`` and ``printstop[s]()`` are ``stop`` and ``act[s]``.

A closed program of first-order type ``B`` in world ``w`` denotes a term
over ``|w|`` parameters whose computation variables ``x1:m1, ...`` name
the summands of the canonical form of ``B`` (every first-order type is a
sum of tid-tuples); a returned value is the variable of its summand,
applied to its thread IDs.

This module also hosts the checks tying semantics together: adequacy
(observed pomset vs star-erased denotation), and the closing context and
marker-gadget constructions used to probe completeness on open terms.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .lang import (
    Arrow,
    Comp,
    InjV,
    LangType,
    NilV,
    Prod,
    Ret,
    Sum,
    Tid,
    TidType,
    TidV,
    TupleV,
    UNIT_V,
    UnionV,
    Value,
    desugar,
    first_order,
    print_type,
    returns_no_value,
    subst_value,
    tid_str,
    tids_of_value,
    typecheck_comp,
)
from .machine import (
    CHILD_START,
    DEFAULT_BUDGET,
    FORK_RESULT,
    RunResult,
    descend,
    effect,
    pure_step,
    run,
)
from .posets import Pomset, PosetWithHoles, decide_equal, erase_star, interp
from .record import record
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

def _summands(ty: LangType) -> list[int]:
    """The first-order type ``ty`` flattened to a sum of tid-tuples: the tid
    arity of each summand.  A function type met on the way raises
    :class:`NotFirstOrderResult`."""
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
        case Arrow():
            raise NotFirstOrderResult(f"{print_type(ty)} is a function type")
    raise TypeError(f"not a first-order type: {ty!r}")


def _inject(v: Value, ty: LangType) -> tuple[int, list[Value]]:
    """Coerce a closed value of ``ty`` through the canonical sum: returns
    the 1-based summand index and the tid values of its vector."""
    match ty, v:
        case TidType(), TidV() | NilV() | UnionV():
            return 1, [v]
        case Sum(parts), InjV(index, inner):
            offset = 0
            for p in parts[: index - 1]:
                offset += len(_summands(p))
            idx, vec = _inject(inner, parts[index - 1])
            return offset + idx, vec
        case Prod(parts), TupleV(items):
            if len(items) != len(parts):
                raise DenoteError("tuple arity mismatch during coercion")
            index = 1
            vec: list[Value] = []
            for item, part in zip(items, parts):
                arms = len(_summands(part))
                idx, piece = _inject(item, part)
                index = (index - 1) * arms + idx
                vec.extend(piece)
            return index, vec
    raise DenoteError(f"value does not inhabit {print_type(ty)}")


@record
class Denotation:
    gamma: CompContext
    delta: ParamContext
    term: Term
    poset: PosetWithHoles


# forked thread IDs extend this root, which no other thread ID extends:
# spawn ordinals start at 1 and thread ID literals are unsigned
_FORK_ROOT = (-1,)


class Elaborator:
    """Elaboration of one thread by the machine's own pure step.

    Fresh fork binders are drawn from ``p1, p2, ...``, skipping the names
    of ``delta``."""

    def __init__(self, delta: ParamContext):
        self.delta = delta
        self._counter = 0

    def fresh_param(self) -> str:
        self._counter += 1
        name = f"p{self._counter}"
        while name in self.delta.names:
            self._counter += 1
            name = f"p{self._counter}"
        return name

    def denote_comp(self, comp: Comp, env: dict, result_type: LangType) -> tuple[CompContext, Term]:
        """The context and term of ``comp`` with each variable of ``env``
        replaced by its closed value.

        The walk keeps the branches still to elaborate and, on an explicit
        stack as the parsers of both syntaxes do (:func:`terms._parse_term`
        and :func:`lang.parse_program`), the operations still open, each with
        the subterms it takes, those closed so far and its constructor.  A
        branch is a thread state, ``let`` frames and a focus, and takes pure
        steps until its focus is an effect or it returns: ``fork`` opens a
        fork whose parent branch goes on with ``inj1`` of a fresh thread ID
        and whose child branch, walked after it, is the machine's child
        start under the same frames; ``wait`` opens a wait; ``stop``,
        ``printstop`` and a returned value close the branch.

        ``result_type`` is flattened by :func:`_summands`, which refuses a
        function type.  The term is not scope checked here: :func:`interp`
        checks it before anything else."""
        summands = enumerate(_summands(result_type), start=1)
        gamma = CompContext(tuple((f"x{i}", m) for i, m in summands))
        for x, v in env.items():
            comp = subst_value(comp, x, v)
        binders: dict = {}  # forked ID -> its binder

        def name(t: Tid) -> str:
            if t in binders:
                return binders[t]
            if world_param(t) not in self.delta.names:
                raise UnboundTid(f"thread ID {tid_str(t)} not in the world")
            return world_param(t)

        def names(v: Value) -> frozenset[str]:
            return frozenset(map(name, tids_of_value(v)))

        branches, opened = [descend((), comp)], []
        while branches:
            (frames, redex), term = branches.pop(), None
            while term is None:
                const = effect(redex)
                if const is None and type(redex) is Ret and not frames:
                    idx, vec = _inject(redex.value, result_type)
                    term = Var(f"x{idx}", tuple(map(names, vec)))
                elif const is None:
                    frames, redex = pure_step(frames, redex)
                elif const.name == "fork":
                    tid = _FORK_ROOT + (len(binders),)
                    binders[tid] = self.fresh_param()
                    opened.append((2, [], partial(Fork, binders[tid])))
                    branches.append((frames, CHILD_START))
                    redex = Ret(InjV(1, TidV(tid), FORK_RESULT))
                elif const.name == "wait":
                    opened.append((1, [], partial(Wait, names(redex.arg))))
                    redex = Ret(UNIT_V)
                else:
                    term = STOP if const.name == "stop" else Act(const.action)
            while opened:
                arity, closed, build = opened[-1]
                closed.append(term)
                if len(closed) < arity:
                    break
                opened.pop()
                term = build(*closed)
        return gamma, term


def world_param(t: Tid) -> str:
    """The parameter of the world thread ``t`` in a denotation, ``w0_1`` for
    ``#0.1``: a name that term files read, which ``.`` would not be."""
    return "w" + tid_str(t).replace(".", "_")


def world_context(world) -> ParamContext:
    """One parameter per world thread ID, in path order."""
    return ParamContext(tuple(map(world_param, sorted(world))))


def denote(comp: Comp, world=frozenset()) -> Denotation:
    """Denotation of a closed program of first-order type in ``world``."""
    result_type = typecheck_comp({}, frozenset(world), comp)
    if returns_no_value(result_type):
        result_type = Sum(())  # the program never returns, as one of type 0
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

@record
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
    denotation, up to label-preserving order isomorphism.  A program whose
    type has no values never returns, so it is denoted at the empty type."""
    result_type = typecheck_comp({}, frozenset(), comp)
    if not returns_no_value(result_type):
        raise DenoteError(
            f"adequacy needs a closed program of the empty type, got {print_type(result_type)}"
        )
    core = desugar(comp)
    rr = run(core, policy=policy, seed=seed, fuel=fuel)
    den = _denote_core(core, Sum(()), frozenset())
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


@record
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
