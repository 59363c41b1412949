"""Small-step operational semantics: thread pools and labelled transitions.

A configuration is its thread map: each runtime thread ID of its world
maps to a computation or ``finished`` and to the set of threads it waits
for directly.  A thread may step only when everything it waits for has
finished; ``fork`` steps spawn a child whose ID extends the parent's path by
the next spawn ordinal, so fresh names do not depend on the schedule and
configurations from different interleavings are directly comparable.

A running thread keeps its ``let`` frames, an immutable stack that a
forked child shares with its parent, and a focus, its redex: the
evaluation context is kept between steps, not found again at each one
(refocusing: Danvy & Nielsen 2004; the CK machine of Felleisen & Friedman
1986).  A thread-local step applies an effect (``fork``, ``wait``,
``stop``, ``printstop``) to the focus or takes the pure step
(:func:`pure_step`), which pops a frame when the focus is a value and
otherwise reduces the focus (:func:`_reduce`: beta, ``let`` of a value,
``proj``, ``case``), and then descends only into the new focus.  The pure
step is the only evaluator of the pure fragment: :mod:`dynthreads.denote`
elaborates denotations with it too.  Nothing makes a thread state a
computation again: every reader takes it as frames and focus.  The
preservation check types it so, the command line's trace prints it so
(:func:`state_pieces`), and a deadlock is named from the thread map.

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
finishes a thread, the threads waiting on it; a pure step updates its own
entry alone.  It builds a configuration only for a terminal end.  Its one
hook, ``on_local``, sees each local step before it is applied.  That is
how :func:`run_with_preservation` checks what each step wrote, typing each
written state as its frames and focus, and how the command line prints
trace lines, which render the acting thread's new state from its frames
and focus.

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

No table outlives a call: a run memoizes nothing, and the typing memo of
:func:`run_with_preservation` lives as long as its call.

One budget, :data:`DEFAULT_BUDGET`, is the default of every bound: the
steps of a run and the configurations of the gate's run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cached_property, reduce
from math import inf
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .lang import (
    ApplyC,
    CORE_CONSTS,
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
    _closed,
    _comp,
    _tids,
    is_core,
    print_comp,
    print_pieces,
    subst_value,
    tid_str,
    tids_of_value,
)
from .posets import Pomset
from .record import record


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


@record
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

    threads: tuple  # ((tid, thread state or FINISHED, frozenset of tids), ...) sorted by tid

    def is_terminal(self) -> bool:
        return all(state == FINISHED for _, state, _ in self.threads)


@record
class StepLabel:
    acting: Tid
    action: Optional[str]  # None for silent steps


FORK_RESULT = Sum((TID, UNIT))
CHILD_START = Ret(InjV(2, UNIT_V, FORK_RESULT))
_WAITED = Ret(UNIT_V)
# the foci a new child and a wait leave are shared; they name no thread,
# which is stored on them once, here, so that no step walks them for it
_tids(CHILD_START), _tids(_WAITED)
_NO_WAITS: frozenset = frozenset()


class _LocalOut(NamedTuple):
    action: Optional[str]
    threads: tuple  # tuple[tuple[Tid, thread state or FINISHED], ...]
    new_prec: frozenset


# A running thread is a thread state, ``(frames, focus)``: ``frames`` is an
# immutable stack of ``let`` nodes, ``()`` or ``(frame, frames below)``,
# innermost on top, of which only the variable and the body are read, and
# ``focus`` is the computation they wait for.  Only this module reads the
# cells; every reader takes a state as it is, and nothing plugs it back
# into a computation.

def descend(frames: tuple, comp: Comp) -> tuple:
    """The thread state of ``comp`` under ``frames``: the ``let`` frames
    around its redex pushed onto ``frames`` in a loop, and the redex as the
    focus.  The focus is a ``let`` only when it binds a value."""
    while type(comp) is LetC and type(comp.bound) is not Ret:
        frames = (comp, frames)
        comp = comp.bound
    return frames, comp


def state_pieces(state: tuple) -> Iterator[str]:
    """The text of the computation the thread state ``state`` stands for,
    as the pieces of :func:`~dynthreads.lang.print_pieces`: the cells are
    walked into a list of the ``let`` nodes around the focus, which the
    printer reads as its frames, outermost first, so no node is built."""
    cells, frames = state[0], []
    while cells:
        frame, cells = cells
        frames.append(frame)
    return print_pieces(state[1], reversed(frames))


def effect(redex: Comp) -> Optional[ConstV]:
    """The constant a redex applies, when it is one of the four effects
    (``fork``, ``wait``, ``stop``, ``printstop``)."""
    fn = redex.fn if type(redex) is ApplyC else None
    return fn if type(fn) is ConstV and fn.name in CORE_CONSTS else None


def _reduce(redex: Comp) -> Comp:
    """The pure step of a redex that is not an effect: beta, ``let`` of a
    value, ``proj`` of a tuple and ``case`` of an injection.  The machine
    and the denotations (:mod:`dynthreads.denote`) share it."""
    kind = type(redex)
    if kind is ApplyC:
        fn = redex.fn
        if type(fn) is LambdaV:
            return subst_value(fn.body, fn.param, redex.arg)
        if type(fn) is ConstV:
            raise StuckThread(f"constant {fn.name!r} has no reduction rule; desugar first")
        raise StuckThread(f"cannot apply non-function value {print_comp(Ret(fn))!r}")
    if kind is LetC:  # a value is bound
        return subst_value(redex.body, redex.var, redex.bound.value)
    if kind is ProjC and type(redex.value) is TupleV:
        items = redex.value.items
        if not 1 <= redex.index <= len(items):
            raise StuckThread(f"proj{redex.index} of a {len(items)}-tuple")
        item = items[redex.index - 1]
        return _closed(Ret(item), _tids(item))
    if kind is CaseV and type(redex.value) is InjV:
        index, branches = redex.value.index, redex.branches
        if not 1 <= index <= len(branches):
            raise StuckThread(f"inj{index} with {len(branches)} branches")
        var, body = branches[index - 1]
        return subst_value(body, var, redex.value.value)
    if kind is ProjC or kind is CaseV:
        raise StuckThread(f"no rule for {print_comp(redex)!r}")
    raise StuckThread(f"not a core computation: {redex!r}")


def pure_step(frames: tuple, redex: Comp) -> tuple:
    """The pure step of the thread state ``(frames, redex)``, whose focus
    is not an effect, as a new thread state: a value under a frame pops it
    and is substituted into its body, the step :func:`_reduce` takes for
    a ``let`` of a value, and any other redex takes :func:`_reduce`.  Only
    the new focus is descended into.  The machine and the denotations
    (:mod:`dynthreads.denote`) step with it."""
    if type(redex) is Ret and frames:
        frame, frames = frames
        return descend(frames, subst_value(frame.body, frame.var, redex.value))
    return descend(frames, _reduce(redex))


def _local_step(state: tuple, tid: Tid, ordinal: int) -> _LocalOut:
    """One thread-local reduction of the thread state ``state``, frames and
    a focus that is not a returned value, running as ``tid`` with next
    spawn ordinal ``ordinal``: the step is a function of these three alone.

    An effect is dispatched on its constant's name and anything else takes
    the pure step (:func:`pure_step`).  Each state it leaves keeps the
    frames, which a spawned child shares with its parent, unless the thread
    finished."""
    frames, redex = state
    const = effect(redex)
    if const is None:
        return _LocalOut(None, ((tid, pure_step(frames, redex)),), _NO_WAITS)
    if const.name == "fork":
        # every spawned thread continues with the continuation of its parent
        child = tid + (ordinal,)
        named = frozenset((child,))
        result = _closed(InjV(1, _closed(TidV(child), named), FORK_RESULT), named)
        parent = (frames, _closed(Ret(result), named))
        return _LocalOut(None, ((tid, parent), (child, (frames, CHILD_START))), _NO_WAITS)
    if const.name == "wait":
        waits = frozenset((b, tid) for b in tids_of_value(redex.arg))
        return _LocalOut(None, ((tid, (frames, _WAITED)),), waits)
    # stop and printstop finish the thread, which drops its continuation
    action = const.action if const.name == "printstop" else None
    return _LocalOut(action, ((tid, FINISHED),), _NO_WAITS)


def _refuse_finished(local: _LocalOut, step: int, finished) -> None:
    """Finished is final: raise :class:`MachineError` for ``local``, the
    local step of the run's step number ``step``, if it writes a thread of
    ``finished``, as a listed thread or as the end of a wait pair, naming
    the first, listed threads first."""
    for t in [*map(itemgetter(0), local.threads), *map(itemgetter(1), local.new_prec)]:
        if t in finished:
            raise MachineError(f"step {step} writes finished thread {tid_str(t)}")


def _write(threads: dict, waits: frozenset, local: _LocalOut) -> None:
    """Write ``local``, a local step that :func:`_refuse_finished` let
    through, into the thread map ``threads`` (tid to entry) of the acting
    thread, which directly waits for ``waits``: each thread the local step
    wrote takes its new state and ``waits`` itself as its set (the acting
    thread keeps its own, a spawned child starts with its parent's), and
    each wait pair ``(b, a)`` of the step adds ``b`` to the set of ``a``.
    Every other entry is kept as it is."""
    for t, state in local.threads:
        threads[t] = (t, state, waits)
    for b, a in local.new_prec:
        t, state, before = threads[a]
        threads[a] = (t, state, before | {b})


def _deadlock(entries: Iterable) -> Deadlock:
    """The error for a non-terminal configuration with no steps, given as
    its ``(tid, state, waits)`` entries in tid order, naming its unfinished
    threads."""
    stuck = ", ".join(tid_str(t) for t, state, _ in entries if state is not FINISHED)
    return Deadlock(f"deadlocked configuration with no enabled steps: {stuck}")


# --- running ---------------------------------------------------------------------

@record
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
    on_local: Optional[Callable[[Tid, int, _LocalOut], None]] = None,
) -> RunResult:
    """Run to termination under one schedule: ``lowest-tid``, or
    ``random`` with a seed, which chooses among the runnable threads listed
    in tid order, as the tests' schedule-graph walk lists them.

    Only the chosen thread's local step is computed, and nothing outlives
    the run.  ``on_local(tid, ordinal, local)`` is called before each step
    with the acting thread, its next spawn ordinal and its local step,
    whose states are thread states, read as frames and focus.  A terminal
    configuration reached within
    ``fuel`` steps ends the run; :class:`FuelExhausted` is raised only when
    a further step is needed after ``fuel`` steps, and :class:`Deadlock`
    when no thread can step short of termination.

    The scheduler state lives across steps, and a step updates only the
    entries it wrote (:func:`_write`) and, for a thread it finished, the
    threads waiting on it: the thread map of thread states, the finished
    set, each thread's spawn count, its unfinished waits with an index of
    who waits on whom, and the runnable tids in tid order.  A pure step,
    which writes only its own thread, adds no wait and does not finish it,
    replaces that one entry and leaves the runnable list alone unless the
    thread returned.  A configuration is built only for a terminal end; a
    deadlock is named from the thread map (:func:`_deadlock`), and nothing
    is plugged.  This relies on
    finished being final, which every local step keeps by writing only its
    own thread and a new child; :func:`_refuse_finished` refuses a step
    that writes a finished thread."""
    if not is_core(comp):
        raise MachineError("run needs a desugared computation")
    return _run(comp, policy, seed, fuel, on_local)


def _run(comp: Comp, policy: str, seed: Optional[int], fuel: int, on_local) -> RunResult:
    """:func:`run` of a computation that :func:`~dynthreads.lang.is_core`
    has passed."""
    if policy == "lowest-tid":
        choose = itemgetter(0)
    elif policy == "random":
        if seed is None:
            raise MachineError("the random policy requires a seed")
        choose = random.Random(seed).choice
    else:
        raise MachineError(f"unknown policy {policy!r}")
    threads = {(): ((), descend((), comp), _NO_WAITS)}
    finished: set = set()
    children: dict = {}  # tid -> its spawn count, once it has spawned
    blocked = {(): set()}  # tid -> the threads it waits for that have not finished
    waiters: dict = {}  # tid -> threads whose blocked set took it in
    runnable = [] if isinstance(comp, Ret) else [()]  # sorted by tid
    events: list[StepLabel] = []

    def settle(t: Tid) -> None:
        """List ``t`` as runnable, or not, from its state and blocked set."""
        i = bisect_left(runnable, t)
        if runnable[i : i + 1] == [t]:
            del runnable[i]
        state = threads[t][1]
        if not blocked[t] and state is not FINISHED and (state[0] or type(state[1]) is not Ret):
            runnable.insert(i, t)

    while runnable:
        if len(events) >= fuel:
            raise FuelExhausted(f"no terminal configuration within {fuel} steps")
        tid = choose(runnable)
        _, state, waits = threads[tid]
        ordinal = children.get(tid, 0) + 1
        local = _local_step(state, tid, ordinal)
        if on_local is not None:
            on_local(tid, ordinal, local)
        action, written, new_prec = local
        events.append(StepLabel(tid, action))
        if len(written) == 1 and not new_prec:
            (t, new), = written
            if t is tid and new is not FINISHED:  # a pure step: the thread stays runnable
                threads[tid] = (tid, new, waits)
                if not new[0] and type(new[1]) is Ret:  # unless it returned
                    runnable.remove(tid)
                continue
        _refuse_finished(local, len(events), finished)
        for t, new in written:
            if t not in threads:  # a spawned child
                children[t[:-1]] = children.get(t[:-1], 0) + 1
            blocked[t] = set()  # it takes the acting thread's waits, which have all finished
            if new is FINISHED:
                finished.add(t)
                for w in waiters.pop(t, ()):
                    blocked[w].discard(t)
                    settle(w)
        for b, a in new_prec:
            if b not in finished:
                blocked[a].add(b)
                waiters.setdefault(b, set()).add(a)
        _write(threads, waits, local)
        for t, _ in written:
            settle(t)
        for _, t in new_prec:
            settle(t)
    if len(finished) < len(threads):
        raise _deadlock(sorted(threads.values()))
    return RunResult(Configuration(tuple(sorted(threads.values()))), tuple(events))


# --- the determinacy gate and exploration -----------------------------------------------

@record
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


@record
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

def _rank(tid: Tid) -> tuple:
    """The place of ``tid`` in the creation order, the post-order of the
    spawn tree: a thread comes after the subtrees of its children and of
    its older siblings, since it comes after every thread whose path
    extends its own.

    A thread can name or wait for only its own children, its older
    siblings, and what its parent could name when it was spawned, so every
    such thread comes earlier.  The key is fixed per tid, so on the threads
    of an earlier configuration of the same run the order is that
    configuration's order: each step extends it."""
    return tid + (inf,)


def _waits_back(b: Tid, tid: Tid, known) -> bool:
    """Whether a wait of ``tid`` on ``b`` breaks the creation order
    (:func:`_rank`): ``b`` is not in ``known``, or it is not earlier than
    ``tid``.  Wait sets need not be closed: if every wait goes forward in
    the order, so does every pair of their closure, which is therefore
    acyclic."""
    return b not in known or _rank(b) >= _rank(tid)


def _bad_wait(entries: Iterable, known) -> str:
    """The first wait of ``entries``, ``(tid, state, waits)``, that breaks
    the creation order (:func:`_waits_back`).  There is one: the
    preservation hook calls this only once its exact prefilter has found
    it."""
    tid, b = next((tid, b) for tid, _, waits in entries for b in waits if _waits_back(b, tid, known))
    why = "unknown thread" if b not in known else "later sibling"
    return f"{tid_str(tid)} waits on {why} {tid_str(b)}"


def _wait_set(history: tuple) -> frozenset:
    """The wait set whose waits were written in the order ``history``
    lists them, newest first, as ``(wait, older)`` cells, built by the
    unions :func:`_write` takes, so that it is the run's set and is
    iterated in the run's order."""
    newest_first = []
    while history:
        b, history = history
        newest_first.append(b)
    waits = _NO_WAITS
    for b in reversed(newest_first):
        waits = waits | {b}
    return waits


def _ill_typed(entries: Iterable, known, result_type: LangType, memo: dict) -> Optional[str]:
    """The first unfinished thread of ``entries``, each a tid and its
    thread state first, whose state does not check against ``result_type``
    in its world (:func:`_world`, :func:`_check_state`)."""
    for entry in entries:
        tid, state = entry[0], entry[1]
        if state is FINISHED:
            continue
        try:
            _check_state(_world(tid, state, known, memo), state, result_type, memo)
        except LangError as exc:
            return f"thread {tid_str(tid)} does not typecheck at the thread type: {exc}"
    return None


def _cell(frames: tuple, memo: dict) -> tuple:
    """The entry of the frame cell ``frames`` in the typing memo ``memo``,
    under the cell's ``id``: ``(cell, thread IDs its frame bodies name,
    verdicts)``, where the verdicts are the ``(type, result type)`` pairs
    at which the frames check when the type is fed to the innermost one.
    The entry holds the cell, so its ``id`` is not reused while the memo
    lives.  The cells below it that have no entry get theirs first."""
    entry = memo.get(id(frames))
    if entry is None:
        cells = []
        while frames and id(frames) not in memo:
            cells.append(frames)
            frames = frames[1]
        named = memo[id(frames)][1] if frames else frozenset()
        for cell in reversed(cells):
            body = _tids(cell[0].body)
            named = named if body <= named else named | body
            memo[id(cell)] = entry = (cell, named, set())
    return entry


def _world(tid: Tid, state: tuple, known, memo: Optional[dict] = None) -> frozenset:
    """The world the thread state ``state`` of ``tid`` is typed in: the
    threads of ``known`` before it in the creation order that its focus
    and its frame bodies name, the latter read off the entry of its frames
    (:func:`_cell`) in ``memo``.  That world gives the judgement of the
    whole prefix, because typing reads the world only by asking about the
    thread IDs a node names (see :mod:`dynthreads.lang`)."""
    frames, focus = state
    named = _tids(focus)
    if frames:
        below = _cell(frames, {} if memo is None else memo)[1]
        named = named if below <= named else named | below
    for b in named:
        if _waits_back(b, tid, known):
            return frozenset(b for b in named if not _waits_back(b, tid, known))
    return named


def _check_state(world: frozenset, state: tuple, result_type: LangType, memo: dict) -> None:
    """Check the thread state ``state`` against ``result_type`` in
    ``world`` without plugging it: synthesize the focus's type, then type
    each frame body, innermost first, with only its own variable bound, to
    the type found below it, and check the outermost one against
    ``result_type``.  That is the judgement of the computation the state
    stands for, in the same order, since a ``let`` synthesizes its bound and types
    its body at that type, and a closed thread's frame body has no other
    free variable.  Raises :class:`LangError` on failure.

    The frames from a cell up check exactly when they did before for the
    same type fed to that cell and the same result type, in any world that
    holds the thread IDs their bodies name, so the walk stops at a cell
    whose entry (:func:`_cell`) holds that verdict, and a check that
    succeeds stores it on every cell it typed whose bodies name no thread
    outside ``world``."""
    frames, comp = state
    ty = _comp({}, world, comp, None if frames else result_type, memo)
    typed = []  # (verdicts of a cell typed, the verdict it gets)
    while frames:
        _, named, verdicts = _cell(frames, memo)
        if named <= world:
            fed = ty, result_type
            if fed in verdicts:
                break
            typed.append((verdicts, fed))
        frame, frames = frames
        ty = _comp({frame.var: ty}, world, frame.body, None if frames else result_type, memo)
    for verdicts, fed in typed:
        verdicts.add(fed)


def run_with_preservation(
    comp: Comp,
    result_type: LangType,
    policy: str = "lowest-tid",
    seed: Optional[int] = None,
    fuel: int = DEFAULT_BUDGET,
) -> tuple[RunResult, int]:
    """Run while asserting that every configuration is well formed in its
    creation order (:func:`_rank`): no wait breaks the order
    (:func:`_waits_back`, :func:`_bad_wait`) and each unfinished thread
    type checks against the threads before it (:func:`_ill_typed`).
    Returns the result and the number of checks.

    The first configuration is the root's thread state, which is typed.
    Then one ``on_local`` hook checks what each step wrote, read off its
    local step, and keeps no thread map and no state: only, per known
    thread, the largest rank among its waits and its waits in the order
    they were written, and the finished threads, all of which only effect
    steps change.  A pure step writes its own running thread alone and adds
    no wait, so only its new state is typed.  Any other step is first
    refused if it writes a finished thread (:func:`_refuse_finished`, as
    :func:`run` refuses it), and gives each thread it lists the acting
    thread's waits and each wait pair's thread one more, as :func:`_write`
    does.  Of the acting thread's waits only the
    step's new ones can break the order, and each is judged as it is
    written.  A thread the step gives the acting thread's wait set, such as
    a new child, has that set judged by one comparison: every wait in it
    names a known thread, so the set goes forward exactly when its largest
    rank is below the thread's own.  Only when one of these tests fails are
    the written wait sets built from the written order (:func:`_wait_set`)
    and scanned, in tid order, to name the first bad wait, the one a check
    of the whole configuration names.  Then the states the step lists are
    typed in tid order.
    Each written state is typed as its frames and focus, so nothing is
    plugged: this is subject reduction one step at a time (Wright &
    Felleisen 1994).  That covers every configuration:
      - A step replaces the entries it writes and keeps every other one as
        it was, and threads never leave the world.
      - A kept wait, of a kept entry or of the acting thread, still names a
        known thread of smaller rank: ranks are fixed per tid and the known
        threads only grow.  A kept state still type checks, since the known
        threads of smaller rank that it names only grow; that holds for the
        state of a thread a step gives only a new wait, too.
    So a violation can only be in a written entry, and the one reported is
    the one a check of the whole configuration would report first.  The
    tests keep that whole check at every step, on plugged states, as the
    oracle.

    The type checker shares one typing memo (see :mod:`dynthreads.lang`)
    across the run, which lives no longer than the call: a step keeps
    every subterm it does not rewrite as the same object, and a parent and
    its child continue on the same frames, so a kept frame body or subterm
    is typed from the memo.  The memo also keeps an entry per frame cell
    (:func:`_cell`): the thread IDs its bodies name, for the world, and the
    types at which its frames check, so a step that keeps a thread's
    frames and the type of its focus types no frame body, and one that
    pops a frame types only the frames it pushed.  That is exact, since a
    cell and its frames never change and the verdict is used only in a
    world holding every thread ID its bodies name.  Every node carries its
    name sets before it is typed (see :mod:`dynthreads.lang`), so no node
    is walked for them, and re-typing a thread costs the nodes of its new
    focus."""
    if not is_core(comp):
        raise MachineError("run needs a desugared computation")
    memo: dict = {}
    top = {(): ()}  # each known thread's largest wait rank; () is below every rank
    history = {(): ()}  # each known thread's waits as written, newest first: (wait, older)
    finished: set = set()
    bad = _ill_typed([((), descend((), comp))], top, result_type, memo)
    if bad:
        raise MachineError(f"initial configuration ill-formed: {bad}")
    steps = 0

    def check(a: Tid, _: int, local: _LocalOut) -> None:
        nonlocal steps
        steps += 1
        written = local.threads
        if len(written) != 1 or written[0][0] != a or written[0][1] is FINISHED or local.new_prec:
            _refuse_finished(local, steps, finished)
            inherited, highest = history[a], top[a]
            for t, state in written:
                history[t], top[t] = inherited, highest
                if state is FINISHED:
                    finished.add(t)
            for b, y in local.new_prec:
                history[y] = (b, history[y])
                if b in top and _rank(b) > top[y]:
                    top[y] = _rank(b)
            back = any(highest >= _rank(t) for t, _ in written if t != a)
            for b, y in local.new_prec:
                back = back or _waits_back(b, y, top)
            if back:
                ends = sorted({t for t, _ in written} | {y for _, y in local.new_prec})
                bad = _bad_wait([(t, None, _wait_set(history[t])) for t in ends], top)
                raise MachineError(f"configuration after step {steps} ill-formed: {bad}")
            if len(written) > 1:
                written = sorted(dict(written).items())
        bad = _ill_typed(written, top, result_type, memo)
        if bad:
            raise MachineError(f"configuration after step {steps} ill-formed: {bad}")

    result = _run(comp, policy, seed, fuel, check)
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
