"""Small-step operational semantics: thread pools and labelled transitions.

A configuration is its thread map: each runtime thread ID of its world
maps to a computation or ``finished`` and to the set of threads it waits
for directly.  A thread may step only when everything it waits for has
finished; ``fork`` steps spawn a child whose ID extends the parent's path by
the next spawn ordinal, so fresh names do not depend on the schedule and
configurations from different interleavings are directly comparable.

A thread's waits are the ones steps wrote for it: a ``wait`` adds the
awaited threads to the acting thread's set, and a forked child starts with
its parent's set (the same object).  No other thread's set changes, sets
are not closed, and they only grow.  Direct waits decide enabledness,
because a thread that has finished had already waited for everything below
it.  The pair view ``prec`` (``(b, a)``: ``a`` waits for ``b``) is derived
from the sets.  :func:`check_confluence` checks, for every local step, that
its wait pairs end at the acting thread.

Observations: the labelled steps of a terminated run, ordered by the
transitive closure of the final waiting relation, form a pomset (see
:class:`dynthreads.posets.Pomset`).  :func:`observation` closes the waits
in one pass over the threads in the order they finished, with one bitmask
per thread, since every thread finished after everything it waits for.

A scheduled run (:func:`run`) follows one schedule and takes at most
``fuel`` steps; it computes only the local step it takes and renders
nothing.  It keeps its scheduler state across steps (the thread map, the
finished threads, spawn counts, unfinished waits and the runnable threads
in tid order), and a step updates only the entries it wrote and, when it
finishes a thread, the threads waiting on it.  It builds a configuration
for its end and for its ``on_step`` hook only.  That hook sees each step
and the configuration it reached, and the ``on_local`` hook each local step
before it is applied.  That is how :func:`run_with_preservation` checks
what each step wrote and how the command line prints trace lines.

What every schedule does comes from one run too.  :func:`check_confluence`
and :func:`explore` follow one lowest-tid run with one ``on_local`` hook,
which checks that every local step writes only its own thread and a new
child and waits only into its own thread (the determinacy gate), and
records the order of the run's steps.  Under the gate every schedule is a
linear extension of that order and ends in the run's terminal
configuration (see :func:`check_confluence`), so the run gives the
terminal, the observation and the labelled traces of every schedule, and
no schedule graph is built.  The tests keep the schedule-graph walk, with
its partial-order reduction, as the oracle.

No table outlives a call: a run memoizes nothing.

One budget, :data:`DEFAULT_BUDGET`, is the default of every bound: the
steps of a run and the configurations of the gate's run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from math import inf
from operator import itemgetter, or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .lang import (
    ApplyC,
    CaseV,
    Comp,
    ConstV,
    InjV,
    LambdaV,
    LangError,
    LangType,
    LetC,
    ProjC,
    Ret,
    Sum,
    TID,
    Tid,
    TidV,
    TupleV,
    UNIT,
    UNIT_V,
    _node,
    check_comp,
    is_core,
    print_comp,
    subst_value,
    tid_str,
    tids_of_value,
)
from .posets import Pomset


class MachineError(Exception):
    pass


class StuckThread(MachineError):
    pass


class Deadlock(MachineError):
    pass


class FuelExhausted(MachineError):
    pass


DEFAULT_BUDGET = 100_000


FINISHED = "finished"
ThreadState = Union[Comp, str]


@_node
class Configuration:
    """The thread map, hashable for the tests' schedule-graph walk, which
    dedups configurations (the hash is cached, as for syntax nodes): one
    ``(tid, state, waits)`` entry per thread, sorted by tid, where
    ``waits`` is the frozenset of threads it directly waits for.

    The world is not stored: it is the set of tids in ``threads``.  Spawn
    counters are not stored either: threads never leave the world, so the
    next spawn ordinal of ``a`` is one plus the number of direct children
    of ``a`` present.
    """

    threads: tuple  # tuple[tuple[Tid, ThreadState, frozenset[Tid]], ...] sorted by tid

    @staticmethod
    def initial(comp: Comp) -> "Configuration":
        return Configuration((((), comp, frozenset()),))

    @cached_property
    def world(self) -> frozenset:  # frozenset[Tid]
        return frozenset(tid for tid, _, _ in self.threads)

    @cached_property
    def thread_map(self) -> dict:
        return {tid: state for tid, state, _ in self.threads}

    @cached_property
    def prec(self) -> frozenset:  # frozenset[tuple[Tid, Tid]]
        """The waits as pairs: ``(b, a)`` when ``a`` waits for ``b``."""
        return frozenset((b, a) for a, _, waits in self.threads for b in waits)

    def thread(self, tid: Tid) -> ThreadState:
        return self.thread_map[tid]

    def is_terminal(self) -> bool:
        return all(state == FINISHED for _, state, _ in self.threads)


@dataclass(frozen=True)
class StepLabel:
    acting: Tid
    action: Optional[str]  # None for silent steps


_FORK_RESULT = Sum((TID, UNIT))
_CHILD_START = Ret(InjV(2, UNIT_V, _FORK_RESULT))
_NO_WAITS: frozenset = frozenset()


class _LocalOut(NamedTuple):
    action: Optional[str]
    threads: tuple  # tuple[tuple[Tid, ThreadState], ...]
    new_prec: frozenset


def _local_step(comp: Comp, tid: Tid, ordinal: int) -> _LocalOut:
    """One thread-local reduction of ``comp``, which is not a value,
    running as ``tid`` with next spawn ordinal ``ordinal``: the step is a
    function of these three alone.

    The ``let`` frames around the redex are peeled off in a loop, the
    redex is dispatched on its type (and a constant on its name), and its
    result is wrapped back into the frames, once per frame."""
    frames = []
    while type(comp) is LetC and type(comp.bound) is not Ret:
        frames.append(comp)
        comp = comp.bound
    kind, action, waits = type(comp), None, _NO_WAITS
    fn = comp.fn if kind is ApplyC else None
    if type(fn) is ConstV:
        if fn.name == "fork":
            child = tid + (ordinal,)
            threads = ((tid, Ret(InjV(1, TidV(child), _FORK_RESULT))), (child, _CHILD_START))
        elif fn.name == "wait":
            threads, waits = ((tid, Ret(UNIT_V)),), frozenset((b, tid) for b in tids_of_value(comp.arg))
        elif fn.name == "stop":
            threads = ((tid, FINISHED),)
        elif fn.name == "printstop":
            threads, action = ((tid, FINISHED),), fn.action
        else:
            raise StuckThread(f"constant {fn.name!r} has no reduction rule; desugar first")
    elif type(fn) is LambdaV:
        threads = ((tid, subst_value(fn.body, fn.param, comp.arg)),)
    elif kind is ApplyC:
        raise StuckThread(f"cannot apply non-function value {print_comp(Ret(fn))!r}")
    elif kind is LetC:  # a value is bound
        threads = ((tid, subst_value(comp.body, comp.var, comp.bound.value)),)
    elif kind is ProjC and type(comp.value) is TupleV:
        items = comp.value.items
        if not 1 <= comp.index <= len(items):
            raise StuckThread(f"proj{comp.index} of a {len(items)}-tuple")
        threads = ((tid, Ret(items[comp.index - 1])),)
    elif kind is CaseV and type(comp.value) is InjV:
        index, branches = comp.value.index, comp.branches
        if not 1 <= index <= len(branches):
            raise StuckThread(f"inj{index} with {len(branches)} branches")
        var, body = branches[index - 1]
        threads = ((tid, subst_value(body, var, comp.value.value)),)
    elif kind is ProjC or kind is CaseV:
        raise StuckThread(f"no rule for {print_comp(comp)!r}")
    else:
        raise StuckThread(f"not a core computation: {comp!r}")
    for frame in reversed(frames):
        # every spawned thread continues with its own copy of the
        # continuation; finished threads stay finished
        threads = tuple(
            (t, state if state == FINISHED else LetC(frame.var, state, frame.body))
            for t, state in threads
        )
    return _LocalOut(action, threads, waits)


def _write(threads: dict, waits: frozenset, local: _LocalOut) -> None:
    """Write a local step into the thread map ``threads`` (tid to entry) of
    the acting thread, which directly waits for ``waits``: each thread the
    local step wrote takes its new state and ``waits`` itself as its set
    (the acting thread keeps its own, a spawned child starts with its
    parent's), and each wait pair ``(b, a)`` of the step adds ``b`` to the
    set of ``a``.  Every other entry is kept as it is."""
    for t, state in local.threads:
        threads[t] = (t, state, waits)
    for b, a in local.new_prec:
        t, state, before = threads[a]
        threads[a] = (t, state, before | {b})


def _deadlock(c: Configuration) -> Deadlock:
    """The error for a non-terminal configuration with no steps, naming
    its unfinished threads."""
    stuck = ", ".join(tid_str(t) for t, state, _ in c.threads if state != FINISHED)
    return Deadlock(f"deadlocked configuration with no enabled steps: {stuck}")


# --- running ---------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    """A terminated run: its final configuration, every step it took and
    its observation, which is built when it is first read."""

    terminal: Configuration
    events: tuple  # tuple[StepLabel, ...], every step

    @cached_property
    def pomset(self) -> Pomset:
        return observation(self.events, self.terminal)


def observation(events: Sequence[StepLabel], final: Configuration) -> Pomset:
    """The pomset of a terminated run: labelled steps ordered by the
    transitive closure of the final waiting relation.

    The relation is closed before it is restricted to the acting threads:
    a silent thread can sit between two that act, as when a thread waits
    for a child that waited for a printer and stopped.  It is closed in one
    pass over the threads in the order they finished, the order of their
    last steps, because in a terminated run ``b`` finished before ``a`` for
    every pair ``(b, a)``: either ``a`` wrote the pair by a wait of its own
    and stepped again to finish, which it could do only once ``b`` had
    finished, or it inherited the pair from its parent, which was runnable
    when it forked ``a``, so ``b`` had finished before ``a`` existed.  Each
    thread's down-set, a bitmask, is thus the union over its waits ``b`` of
    ``b``, if it acts, and the down-set of ``b``, built before it
    (:func:`_labelled_order`).  The restriction to the acting threads is
    closed, and acyclic since the order is, so the pomset is built without
    a second closure."""
    last = {e.acting: i for i, e in enumerate(events)}
    finishing = sorted(final.threads, key=lambda entry: last[entry[0]])
    labels = {e.acting: e.action for e in events if e.action is not None}
    return _labelled_order(labels, [(t, waits) for t, _, waits in finishing])


def _labelled_order(labels: dict, joins: Iterable) -> Pomset:
    """The pomset of the labelled threads ``labels`` (tid to action), its
    elements named and numbered by their names, as an observation is.
    ``joins`` lists ``(key, keys below)`` pairs, each after the keys below
    it; the key of a labelled thread's element is its tid.  A key's
    down-set, a mask over the labelled threads, is the union of those
    below it and their own bits, and a labelled thread's element has its
    key's down-set."""
    names = {t: tid_str(t) for t in labels}
    acting = sorted(labels, key=names.__getitem__)
    bit = {t: 1 << i for i, t in enumerate(acting)}
    closed: dict = {}  # each key with its own bit, and the bits below it
    for key, below in joins:
        closed[key] = reduce(or_, map(closed.__getitem__, below), bit.get(key, 0))
    return Pomset(
        tuple((names[t], labels[t]) for t in acting), tuple(closed[t] ^ bit[t] for t in acting)
    )


def run(
    comp: Comp,
    policy: str = "lowest-tid",
    seed: Optional[int] = None,
    fuel: int = DEFAULT_BUDGET,
    on_step: Optional[Callable[[StepLabel, Configuration], None]] = None,
    on_local: Optional[Callable[[Tid, int, _LocalOut], None]] = None,
) -> RunResult:
    """Run to termination under one schedule: ``lowest-tid``, or
    ``random`` with a seed, which chooses among the runnable threads listed
    in tid order, as the tests' schedule-graph walk lists them.

    Only the chosen thread's local step is computed, and nothing outlives
    the run.  ``on_local(tid, ordinal, local)`` is called before each step
    with the acting thread, its next spawn ordinal and its local step, and
    ``on_step(label, c)`` after it with the configuration ``c`` it reached.
    A terminal configuration reached within ``fuel`` steps ends the run;
    :class:`FuelExhausted` is raised only when a further step is needed
    after ``fuel`` steps, and :class:`Deadlock` when no thread can step
    short of termination.

    The scheduler state lives across steps, and a step updates only the
    entries it wrote (:func:`_write`) and, for a thread it finished, the
    threads waiting on it: the thread map, the finished set, each thread's
    spawn count, its unfinished waits with an index of who waits on whom,
    and the runnable tids in tid order.  A configuration is built only for
    the end of the run and for ``on_step``.  This relies on finished being
    final, which every local step keeps by writing only its own thread and
    a new child; a step that writes a finished thread raises
    :class:`MachineError`."""
    if not is_core(comp):
        raise MachineError("run needs a desugared computation")
    if policy == "lowest-tid":
        choose = itemgetter(0)
    elif policy == "random":
        if seed is None:
            raise MachineError("the random policy requires a seed")
        choose = random.Random(seed).choice
    else:
        raise MachineError(f"unknown policy {policy!r}")
    threads = {(): ((), comp, frozenset())}
    finished: set = set()
    children: Counter = Counter()  # tid -> its spawn count
    blocked = {(): set()}  # tid -> the threads it waits for that have not finished
    waiters: dict = {}  # tid -> threads whose blocked set took it in
    runnable = [] if isinstance(comp, Ret) else [()]  # sorted by tid
    events: list[StepLabel] = []

    def settle(t: Tid) -> None:
        """List ``t`` as runnable, or not, from its state and blocked set."""
        i = bisect_left(runnable, t)
        if runnable[i : i + 1] == [t]:
            del runnable[i]
        if not blocked[t] and threads[t][1] != FINISHED and not isinstance(threads[t][1], Ret):
            runnable.insert(i, t)

    while runnable:
        if len(events) >= fuel:
            raise FuelExhausted(f"no terminal configuration within {fuel} steps")
        tid = choose(runnable)
        _, state, waits = threads[tid]
        ordinal = children[tid] + 1
        local = _local_step(state, tid, ordinal)
        if on_local is not None:
            on_local(tid, ordinal, local)
        written = [t for t, _ in local.threads] + [a for _, a in local.new_prec]
        for t in filter(finished.__contains__, written):
            raise MachineError(f"step {len(events) + 1} writes finished thread {tid_str(t)}")
        children.update(t[:-1] for t, _ in local.threads if t not in threads)
        for t, new in local.threads:
            blocked[t] = set()  # it takes the acting thread's waits, which have all finished
            if new == FINISHED:
                finished.add(t)
                for w in waiters.pop(t, ()):
                    blocked[w].discard(t)
                    settle(w)
        for b, a in local.new_prec:
            if b not in finished:
                blocked[a].add(b)
                waiters.setdefault(b, set()).add(a)
        _write(threads, waits, local)
        for t in written:
            settle(t)
        events.append(StepLabel(tid, local.action))
        if on_step is not None:
            on_step(events[-1], Configuration(tuple(sorted(threads.values()))))
    c = Configuration(tuple(sorted(threads.values())))
    if not c.is_terminal():
        raise _deadlock(c)
    return RunResult(c, tuple(events))


# --- the determinacy gate and exploration -----------------------------------------------

@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    states: int
    truncated: bool
    detail: Optional[str]


class _NotLocal(MachineError):
    """A local step that fails a check of :func:`check_confluence`."""


def _gate_run(comp: Comp, max_states: int) -> tuple:
    """The gate's lowest-tid run: ``(report, result, order)``, with
    ``result`` the run and ``order`` the order of its labelled steps,
    numbered and named as :func:`observation` numbers and names them, or
    both ``None`` if the gate fails.  Exhausting the budget raises
    :class:`FuelExhausted`.

    The run has one ``on_local`` hook.  It checks each local step (see
    :func:`check_confluence`) and records the step's down-set as a join:
    the acting thread if the step is labelled, and the joins of the
    step's prerequisites (see (C) there).  These are the thread's previous
    step, or the fork step that created it, and the last steps of the
    threads its previous step waited for.  ``below`` holds the join of
    each thread's last step.  A silent step after no wait adds nothing to
    it and makes no join.  The masks are built in one pass over the joins,
    on the labelled steps alone."""
    checked = 0
    joins: list = [(0, ())]  # (key, keys below), the root's first join keyed 0
    below = {(): 0}  # tid -> the key of the join of its last step
    awaited: dict = {}  # tid -> the threads its last step waited for
    labels: dict = {}  # tid -> the action of its labelled step

    def gate(a: Tid, ordinal: int, local: _LocalOut) -> None:
        nonlocal checked
        checked += 1
        join, waited, action = below[a], awaited.pop(a, ()), local.action
        if waited or action is not None:
            key = a if action is not None else len(joins)
            joins.append((key, [join, *map(below.__getitem__, waited)]))
            join = key
        for t, _ in local.threads:
            if t != a and t != a + (ordinal,):
                raise _NotLocal(f"step of {tid_str(a)} changes thread {tid_str(t)}")
            below[t] = join
        for x, y in local.new_prec:
            if y != a:
                raise _NotLocal(
                    f"prec pair ({tid_str(x)},{tid_str(y)}) not justified by "
                    f"acting thread {tid_str(a)}"
                )
        if local.new_prec:
            awaited[a] = [b for b, _ in local.new_prec]
        if action is not None:
            if a in labels:
                raise MachineError(f"thread {tid_str(a)} acts twice")
            labels[a] = action

    try:
        result = run(comp, fuel=max_states - 1, on_local=gate)
    except FuelExhausted:
        raise FuelExhausted(f"state budget {max_states} exhausted") from None
    except _NotLocal as violation:
        return ConfluenceReport(False, checked, False, str(violation)), None, None
    report = ConfluenceReport(True, len(result.events) + 1, False, None)
    return report, result, _labelled_order(labels, joins)


def check_confluence(comp: Comp, max_states: int = DEFAULT_BUDGET) -> ConfluenceReport:
    """Check the determinacy gate along one lowest-tid :func:`run`: for the
    local step of each thread ``a`` the run moves, with ``n`` its next spawn
    ordinal,
      - locality: the step writes only ``a`` and, if it forks, ``a.n``;
      - waits: every wait pair of the step ends at ``a``.

    This covers the full schedule graph:
      (A) Local steps close every diamond.  Suppose every step passes the
          first two checks.  By induction along any run, the children of
          ``a`` are ``a.1`` to ``a.(n-1)``, so ``a.n`` is new.  A step of
          ``a`` changes the entry of ``a``, whose wait set grows only by
          the step's own waits, and adds the entry of a new thread, whose
          wait set is ``a``'s.  Two distinct runnable threads thus write
          disjoint entries: neither changes the other's state, wait set or
          spawn count, and both orders give every entry the same state and
          wait set.  So the diamond closes in every configuration.
      (B) If the run terminates, every step of the full graph passes both
          checks.  They depend only on the thread's state, tid and spawn
          ordinal, which determine its local step, so it is enough that
          the run took a step with the same key.  By induction on the
          length of a path of the full graph: if the run took every step
          on it, those steps were local, so each thread's state and spawn
          ordinal at the end of the path are those its own steps on the
          path left, starting from the state its parent's step gave it.
          A thread's history, its sequence of keys, is thus the same on
          every schedule, and each path follows a prefix of it.  Every
          thread on the path was created by a step of its parent's
          history that the run took, and the run finished it, so the run
          took every step of its history; the next step of the path is
          one of them.
      (C) Every schedule is a linear extension of the run's step order.
          By (B) the steps and wait sets are those of the run on every
          schedule, and step ``j`` of thread ``a`` has fixed
          prerequisites: step ``j-1`` of ``a``, or for ``j = 0`` the fork
          step that created ``a``, and the last step of every thread in
          the wait set of ``a`` at step ``j``.  A schedule takes a step
          only after its prerequisites.  A step whose prerequisites are
          taken is enabled, and stays enabled until it is taken, since
          finished is final and by (A) no other thread writes ``a``.  So
          the maximal schedules are exactly the linear extensions of the
          order the prerequisites generate (Mazurkiewicz 1977; Pratt
          1986), and all of them end in the run's terminal configuration.
          The labelled traces are the linear extensions of that order
          restricted to the labelled steps: a linear order on the
          labelled steps that extends the restriction, added to the whole
          order, closes without a cycle, and Szpilrajn's theorem (1930)
          extends the result to a linear extension of the whole order.
    Per-thread determinacy and the diamonds, which follow from (A) given
    the tests' ``_apply``, are left to the tests' full-graph and
    reduced-graph oracles, with the cross-check of (B).

    ``states`` counts the configurations of the run, and ``max_states``
    bounds them: the run may take ``max_states - 1`` steps.  A violation
    reports how many configurations were checked up to it; hitting the
    budget is reported as a truncated (but violation-free) check, not a
    failure.  A stuck configuration raises :class:`Deadlock`.
    """
    try:
        return _gate_run(comp, max_states)[0]
    except FuelExhausted:
        return ConfluenceReport(True, max_states, True, None)


@dataclass(frozen=True)
class ExploreResult:
    """What every schedule does, from the gate's run (see :func:`explore`).
    ``traces``, the labelled traces of every schedule, are enumerated when
    first read."""

    states: int
    terminals: tuple  # tuple[Configuration, ...]
    observations: tuple  # tuple[Pomset, ...] one per terminal
    all_iso: bool
    traces_match_linearizations: bool
    confluence: ConfluenceReport
    step_order: Optional[Pomset]  # the order of the labelled steps
    mismatch: Optional[str]  # where step_order and the observation first differ

    @cached_property
    def traces(self) -> frozenset:  # frozenset[tuple[str, ...]] distinct labelled traces
        return frozenset() if self.step_order is None else self.step_order.linearizations()


def explore(comp: Comp, max_states: int = DEFAULT_BUDGET) -> ExploreResult:
    """Every schedule of ``comp`` from the gate's run (:func:`check_confluence`):
    if the gate holds, every schedule ends in the run's terminal
    configuration, so there is one observation and ``all_iso`` holds, and
    the labelled traces are the linear extensions of the order of the
    run's labelled steps (see (C) there).  ``traces_match_linearizations``
    holds exactly when that order is the observed pomset's; otherwise
    ``mismatch`` names the first element, in the pomset's numbering, whose
    down-set differs, and a pair one order has and the other lacks.  If the
    gate fails, neither verdict holds and there is no terminal.

    ``states`` counts the configurations of the run and ``max_states``
    bounds them; exhausting it raises :class:`FuelExhausted`."""
    report, result, order = _gate_run(comp, max_states)
    if not report.ok:
        return ExploreResult(report.states, (), (), False, False, report, None, None)
    pomset = result.pomset
    mismatch = _first_difference(order, pomset)
    return ExploreResult(
        report.states, (result.terminal,), (pomset,), True, mismatch is None, report, order, mismatch
    )


def _first_difference(order: Pomset, pomset: Pomset) -> Optional[str]:
    """The first element of ``pomset`` whose down-set in ``order`` differs,
    with the lowest element below it in one order only."""
    for k, (mine, theirs) in enumerate(zip(order.down, pomset.down)):
        if mine != theirs:
            d = ((mine ^ theirs) & -(mine ^ theirs)).bit_length() - 1
            (b, b_label), (e, e_label) = pomset.labels[d], pomset.labels[k]
            where = "step order" if mine >> d & 1 else "observation"
            return (
                f"{e} ({e_label}) is the first element whose down-set differs: "
                f"{b} ({b_label}) < {e} ({e_label}) is only in the {where}"
            )
    return None


def run_exhaustive(comp: Comp, max_states: int = DEFAULT_BUDGET) -> tuple:
    """One run result per terminal configuration over all schedules: the
    gate's run alone, since under the gate every schedule ends in its
    terminal configuration (Huet 1980).  ``max_states`` bounds the run's
    configurations, as for :func:`explore`; a step that fails the gate
    raises :class:`MachineError`."""
    report, result, _ = _gate_run(comp, max_states)
    if not report.ok:
        raise MachineError(f"determinacy gate violated: {report.detail}")
    return (result,)


# --- well-formed configurations ----------------------------------------------------

def check_config_well_formed(
    c: Configuration,
    result_type: LangType,
    order: tuple,  # tuple[Tid, ...]: the potential creation order, smallest first
    entries: Optional[Iterable] = None, memo: Optional[dict] = None,
) -> Optional[str]:
    """The four conditions for a configuration to look like a family of
    siblings created in the given linear order: the order lists the world,
    every thread waits only on known threads that come earlier, and every
    unfinished thread type checks against the threads before it.

    Wait sets need not be closed: if every wait goes forward in the order,
    so does every pair of their closure, which is therefore acyclic.

    ``entries`` (in tid order) restricts the wait and typing conditions to
    those entries of ``c.threads``; ``memo`` is handed to
    :func:`~dynthreads.lang.check_comp`."""
    if set(order) != c.world or len(order) != len(c.world):
        return "order is not a linear order on the world"
    position = {tid: i for i, tid in enumerate(order)}
    entries = c.threads if entries is None else entries
    for tid, _, waits in entries:
        for b in waits:
            if b not in position:
                return f"{tid_str(tid)} waits on unknown thread {tid_str(b)}"
            if position[b] >= position[tid]:
                return f"{tid_str(tid)} waits on later sibling {tid_str(b)}"
    for tid, state, _ in entries:
        if state == FINISHED:
            continue
        visible = frozenset(order[: position[tid]])
        try:
            check_comp({}, visible, state, result_type, memo)
        except LangError as exc:
            return f"thread {tid_str(tid)} does not typecheck at the thread type: {exc}"
    return None


def creation_order(world: Iterable[Tid]) -> tuple:  # tuple[Tid, ...]
    """The post-order of the spawn tree on ``world``: each thread after the
    subtrees of its children and of its older siblings.

    A thread can name or wait for only its own children, its older
    siblings, and what its parent could name when it was spawned, so every
    such thread comes earlier.  The order sorts by a key fixed per tid, so
    on the threads of an earlier configuration of the same run it is that
    configuration's order: each step extends it."""
    return tuple(sorted(world, key=lambda t: t + (inf,)))


def run_with_preservation(
    comp: Comp,
    result_type: LangType,
    policy: str = "lowest-tid",
    seed: Optional[int] = None,
    fuel: int = DEFAULT_BUDGET,
) -> tuple[RunResult, int]:
    """Run while asserting that every configuration is well formed in its
    :func:`creation_order` (:func:`check_config_well_formed`); returns the
    result and the number of checks.

    The first configuration is checked whole; after each step only the
    entries the step wrote, read off its local step: the threads it lists
    and the threads its wait pairs end at.  That covers every
    configuration:
      - A step (:func:`_write`) replaces the entries it writes and keeps
        every other one as it was, and threads never leave the world.
      - A kept entry has the same state and wait set, and its prefix in the
        creation order only grows: the order sorts by a key fixed per tid,
        so a new thread is inserted and none moves.  Its waits still name
        known threads that come earlier, since positions keep their
        relative order, and its state still type checks, since typing is
        stable under a larger world (weakening).
    So a violation can only be in a written entry, and the one reported is
    the one the whole check would report first, as it checks entries in
    tid order too.  The tests keep the whole check at every step as the
    oracle.

    The type checker shares one typing memo (see :mod:`dynthreads.lang`)
    across the run, which lives no longer than the call: a step keeps
    every subterm it does not rewrite as the same object, and a parent and
    its child continue on the same one, so re-typing a thread costs the
    nodes the step rebuilt."""
    memo: dict = {}

    def ill_formed(c: Configuration, entries: Iterable) -> Optional[str]:
        return check_config_well_formed(c, result_type, creation_order(c.world), entries, memo)

    c0 = Configuration.initial(comp)
    bad = ill_formed(c0, c0.threads)
    if bad:
        raise MachineError(f"initial configuration ill-formed: {bad}")
    steps = 0
    written: set = set()

    def note(_: Tid, __: int, local: _LocalOut) -> None:
        written.clear()
        written.update(t for t, _ in local.threads)
        written.update(a for _, a in local.new_prec)

    def check(_: StepLabel, c: Configuration) -> None:
        nonlocal steps
        steps += 1
        bad = ill_formed(c, [entry for entry in c.threads if entry[0] in written])
        if bad:
            raise MachineError(f"configuration after step {steps} ill-formed: {bad}")

    result = run(comp, policy, seed, fuel, on_step=check, on_local=note)
    return result, steps + 1


def run_result_to_json(result: RunResult, policy: str, seed: Optional[int]) -> dict:
    return {
        "policy": policy,
        "seed": seed,
        "steps": len(result.events),
        "events": [
            {"tid": tid_str(e.acting), "action": e.action} for e in result.events
        ],
        "pomset": result.pomset.to_json(),
    }
