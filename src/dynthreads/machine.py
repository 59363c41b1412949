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
before it is applied.  That is how :func:`check_confluence` checks the
determinacy gate, how :func:`run_with_preservation` checks what each step
wrote and how the command line prints trace lines.

Exploration (:func:`explore`, :func:`run_exhaustive`) builds a
partial-order-reduced schedule graph: in a configuration where some thread
can take a silent step (fork, wait, stop, or a beta/proj/case/let
reduction), only the first such step in tid order is expanded; all
enabled steps are expanded only where every one of them is labelled.  The
reduction keeps every labelled trace and every terminal configuration
because the chosen step
  1. is invisible: it carries no action, so it adds nothing to a trace;
  2. cannot be disabled: no other thread's step changes its state or its
     waits, so it stays enabled until it fires;
  3. commutes: with every other thread's step it closes a diamond onto one
     configuration;
and the graph is acyclic, so no step is postponed forever.
:func:`check_confluence` checks that every local step writes only its own
thread and a new child and waits only into its own thread, which gives
conditions 2 and 3; one lowest-tid run meets every local step of the full
graph (see its docstring).

:func:`explore` and :func:`run_exhaustive` read one depth-first walk,
:func:`_state_graph`, which raises :class:`Deadlock` when it expands a
stuck configuration and enforces the state budget: it expands at most that
many configurations and then stops and reports the graph truncated, and
they raise :class:`FuelExhausted`.

No table outlives a call.  A local step depends only on the thread's
state, tid and next spawn ordinal, so each walk memoizes local steps under
that key in a memo of its own (:func:`_expander`); a scheduled run, and so
the confluence check, memoizes nothing.

One budget, :data:`DEFAULT_BUDGET`, is the default of every bound: the
steps of a run and the configurations of a walk or of a confluence check.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from math import inf
from operator import itemgetter, or_
from typing import Callable, Iterable, Optional, Sequence, Union

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
    _bottom_up,
    _node,
    check_comp,
    is_core,
    print_comp,
    subst_value,
    tid_str,
    tids_of_value,
)
from .posets import Pomset, label_paths


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
    """The thread map, hashable for dedup (the hash is cached, as for
    syntax nodes): one ``(tid, state, waits)`` entry per thread, sorted by
    tid, where ``waits`` is the frozenset of threads it directly waits for.

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


@dataclass(frozen=True)
class _LocalOut:
    action: Optional[str]
    threads: tuple  # tuple[tuple[Tid, ThreadState], ...]
    new_prec: frozenset


def _local_step(comp: Comp, tid: Tid, ordinal: int) -> _LocalOut:
    """One thread-local reduction of ``comp``, which is not a value,
    running as ``tid`` with next spawn ordinal ``ordinal``: the step is a
    function of these three alone."""
    match comp:
        case ApplyC(ConstV("fork", _), _):
            child = tid + (ordinal,)
            fork_result = Sum((TID, UNIT))
            return _LocalOut(
                None,
                (
                    (tid, Ret(InjV(1, TidV(child), fork_result))),
                    (child, Ret(InjV(2, UNIT_V, fork_result))),
                ),
                frozenset(),
            )
        case ApplyC(ConstV("wait", _), v):
            waits = frozenset((b, tid) for b in tids_of_value(v))
            return _LocalOut(None, ((tid, Ret(UNIT_V)),), waits)
        case ApplyC(ConstV("stop", _), _):
            return _LocalOut(None, ((tid, FINISHED),), frozenset())
        case ApplyC(ConstV("printstop", action), _):
            return _LocalOut(action, ((tid, FINISHED),), frozenset())
        case ApplyC(ConstV(name, _), _):
            raise StuckThread(f"constant {name!r} has no reduction rule; desugar first")
        case ApplyC(LambdaV(param, _, body), v):
            return _LocalOut(None, ((tid, subst_value(body, param, v)),), frozenset())
        case ApplyC(fn, _):
            raise StuckThread(f"cannot apply non-function value {print_comp(Ret(fn))!r}")
        case ProjC(index, TupleV(items)):
            if not 1 <= index <= len(items):
                raise StuckThread(f"proj{index} of a {len(items)}-tuple")
            return _LocalOut(None, ((tid, Ret(items[index - 1])),), frozenset())
        case CaseV(InjV(index, payload), branches):
            if not 1 <= index <= len(branches):
                raise StuckThread(f"inj{index} with {len(branches)} branches")
            var, body = branches[index - 1]
            return _LocalOut(None, ((tid, subst_value(body, var, payload)),), frozenset())
        case LetC(var, Ret(v), body):
            return _LocalOut(None, ((tid, subst_value(body, var, v)),), frozenset())
        case LetC(var, bound, body):
            inner = _local_step(bound, tid, ordinal)
            # every spawned thread continues with its own copy of the
            # continuation; finished threads stay finished
            wrapped = tuple(
                (t, state if state == FINISHED else LetC(var, state, body))
                for t, state in inner.threads
            )
            return _LocalOut(inner.action, wrapped, inner.new_prec)
        case ProjC(_, _) | CaseV(_, _):
            raise StuckThread(f"no rule for {print_comp(comp)!r}")
    raise StuckThread(f"not a core computation: {comp!r}")


def enabled_steps(c: Configuration) -> list[tuple[StepLabel, Configuration]]:
    """All global steps: one per runnable thread, in tid order."""
    return _expander()(c)


def _expander() -> Callable[[Configuration], list]:
    """A fresh ``expand(c)``, which returns the global steps of ``c``, one
    per runnable thread in tid order.

    Identical thread states recur across the interleavings of one walk, so
    ``expand`` memoizes local steps, keyed ``(state, tid, ordinal)``, and
    hashes the thread states of each new one with :func:`_hash_bottom_up`.
    The memo belongs to this ``expand`` and lives no longer than its
    caller."""
    memo: dict = {}

    def expand(c: Configuration) -> list:
        steps = []
        for tid, state, waits, ordinal in _runnable(c):
            key = (state, tid, ordinal)
            local = memo.get(key)
            if local is None:
                local = memo[key] = _local_step(*key)
                for _, new_state in local.threads:
                    if new_state != FINISHED:
                        _hash_bottom_up(new_state)
            steps.append(_apply(c, tid, waits, local))
        return steps

    return expand


def _hash_bottom_up(term) -> None:
    """Hash the nodes of ``term`` not hashed yet, children first, so that
    no later hash of a node above them recurses into them: a substitution
    can rebuild a spine as long as the program."""
    for node in _bottom_up(term, "_hash"):
        hash(node)


def _runnable(c: Configuration) -> list[tuple[Tid, Comp, frozenset, int]]:
    """The threads of ``c`` that can step, in tid order, each with its
    state, the set of threads it directly waits for and its next spawn
    ordinal.  A thread can step when it is unfinished, not holding a value,
    and its set holds only finished threads.  Their local steps are not
    computed here.  A scheduled run keeps this list itself as it steps
    (:func:`run`); exploration asks for it once per configuration."""
    finished = frozenset(tid for tid, state, _ in c.threads if state == FINISHED)
    children = Counter(tid[:-1] for tid, _, _ in c.threads if tid)
    return [
        (tid, state, waits, children[tid] + 1)
        for tid, state, waits in c.threads
        if state != FINISHED and not isinstance(state, Ret) and waits <= finished
    ]


def _apply(c: Configuration, tid: Tid, waits: frozenset, local: _LocalOut) -> tuple:
    """The global step, ``(label, configuration)``, of the runnable thread
    ``tid``, which directly waits for ``waits`` and whose local step is
    ``local`` (see :func:`_write`)."""
    threads = {entry[0]: entry for entry in c.threads}
    _write(threads, waits, local)
    return StepLabel(tid, local.action), Configuration(tuple(sorted(threads.values())))


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
    ``b`` and the down-set of ``b``, built before it.  The acting threads
    take the low bits in the order of their names, which is how the pomset
    numbers its elements, so its masks are their down-sets cut to those
    bits.  The restriction to the acting threads is closed, and acyclic
    since the order is, so the pomset is built without a second closure."""
    last = {e.acting: i for i, e in enumerate(events)}
    finishing = sorted(final.threads, key=lambda entry: last[entry[0]])
    labels = {e.acting: e.action for e in events if e.action is not None}
    names = {t: tid_str(t) for t in labels}
    acting = sorted(labels, key=names.__getitem__)
    silent = [t for t, _, _ in finishing if t not in labels]
    bit = {t: 1 << i for i, t in enumerate(acting + silent)}
    closed: dict = {}  # each thread and the threads below it, as a mask
    for a, _, waits in finishing:
        closed[a] = reduce(or_, map(closed.__getitem__, waits), bit[a])
    cut = (1 << len(acting)) - 1
    return Pomset(
        tuple((names[t], labels[t]) for t in acting),
        tuple((closed[t] & cut) ^ bit[t] for t in acting),
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
    in tid order, as :func:`_runnable` and :func:`enabled_steps` list them.

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


# --- exhaustive exploration ----------------------------------------------------------

@dataclass(frozen=True)
class ExploreResult:
    states: int
    terminals: tuple  # tuple[Configuration, ...]
    observations: tuple  # tuple[Pomset, ...] one per terminal
    traces: frozenset  # frozenset[tuple[str, ...]] distinct labelled traces
    all_iso: bool
    traces_match_linearizations: bool


def _state_graph(comp: Comp, max_states: int, *, reduce: bool = True):
    """The schedule graph from ``comp``, configurations deduplicated: the
    one walk behind :func:`explore` and :func:`run_exhaustive`.

    Returns ``(c0, steps_of, first_event, truncated)``.  ``steps_of`` maps
    each expanded configuration to its steps, in the depth-first order of
    expansion; ``first_event`` maps each reached configuration to the
    configuration and step that first reached it.  The walk expands at most
    ``max_states`` configurations and stops there; ``truncated`` says
    whether it left reached configurations unexpanded.  Expanding a
    non-terminal configuration with no steps raises :class:`Deadlock`.

    By default one silent step is expanded per configuration where one is
    enabled (see the module docstring); ``reduce=False`` builds the full
    graph, which tests use as the oracle for the reduced one.  The
    local-step memo of the walk's :func:`_expander` lives as long as the
    walk."""
    if not is_core(comp):
        raise MachineError("exploration needs a desugared computation")
    _hash_bottom_up(comp)
    expand = _expander()
    c0 = Configuration.initial(comp)
    steps_of: dict[Configuration, list[tuple[StepLabel, Configuration]]] = {}
    frontier = [c0]
    first_event: dict[Configuration, tuple[Configuration, StepLabel]] = {}
    while frontier:
        c = frontier.pop()
        if c in steps_of:
            continue
        if len(steps_of) >= max_states:
            return c0, steps_of, first_event, True
        steps = expand(c)
        if not steps and not c.is_terminal():
            raise _deadlock(c)
        if reduce:
            silent = next((s for s in steps if s[0].action is None), None)
            if silent is not None:
                steps = [silent]
        steps_of[c] = steps
        for label, nxt in steps:
            if nxt not in steps_of and nxt not in first_event:
                first_event[nxt] = (c, label)
            frontier.append(nxt)
    return c0, steps_of, first_event, False


def _witness_events(c0, terminal, first_event) -> list[StepLabel]:
    events: list[StepLabel] = []
    node = terminal
    while node != c0:
        prev, label = first_event[node]
        events.append(label)
        node = prev
    events.reverse()
    return events


def _terminal_runs(comp: Comp, max_states: int):
    """The reduced schedule graph and one run per terminal configuration,
    sorted by thread map, each along the path that first reached it:
    ``(c0, steps_of, runs)``.

    Raises :class:`FuelExhausted` if the graph exceeds ``max_states``."""
    c0, steps_of, first_event, truncated = _state_graph(comp, max_states)
    if truncated:
        raise FuelExhausted(f"state budget {max_states} exhausted")
    runs = []
    ends = [c for c, steps in steps_of.items() if not steps]
    # wait sets stay out of the key: frozensets are ordered by inclusion
    for terminal in sorted(ends, key=lambda c: [(t, state) for t, state, _ in c.threads]):
        runs.append(RunResult(terminal, tuple(_witness_events(c0, terminal, first_event))))
    return c0, steps_of, runs


def run_exhaustive(comp: Comp, max_states: int = DEFAULT_BUDGET) -> tuple:
    """One run result per terminal configuration over all schedules.

    The schedules are those of the partial-order-reduced graph, which
    reaches every terminal configuration of the full one; ``max_states``
    bounds the reduced graph."""
    return tuple(_terminal_runs(comp, max_states)[2])


def explore(comp: Comp, max_states: int = DEFAULT_BUDGET) -> ExploreResult:
    """Explore every schedule (states deduplicated by configuration
    equality, which the deterministic naming scheme makes meaningful).

    Reports the distinct labelled traces, one observation per terminal
    configuration, whether all observations are isomorphic, and whether the
    trace set equals the linearizations of the observed pomset.

    Only one silent step is expanded per configuration where one is
    enabled (see the module docstring); the traces and terminals are those
    of the full graph, but ``states`` counts the reduced graph and
    ``max_states`` bounds it.
    """
    c0, steps_of, runs = _terminal_runs(comp, max_states)
    observations = [r.pomset for r in runs]
    traces = _label_traces(c0, steps_of)

    all_iso = all(
        observations[0].iso_to(pom) is not None for pom in observations[1:]
    )
    linearizations = frozenset().union(*(pom.linearizations() for pom in observations))
    return ExploreResult(
        states=len(steps_of),
        terminals=tuple(r.terminal for r in runs),
        observations=tuple(observations),
        traces=traces,
        all_iso=all_iso,
        traces_match_linearizations=(traces == linearizations),
    )


def _label_traces(c0: Configuration, steps_of) -> frozenset:  # frozenset[tuple[str, ...]]
    """The labelled traces of the maximal paths from ``c0``."""
    return label_paths(c0, lambda c: [(label.action, nxt) for label, nxt in steps_of[c]])


# --- confluence -----------------------------------------------------------------------

@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    states: int
    truncated: bool
    detail: Optional[str]


class _NotLocal(MachineError):
    """A local step that fails a check of :func:`check_confluence`."""


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
          wait set.  So the diamond closes in every configuration, reduced
          or not.
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
    By (A) every maximal schedule ends in the run's terminal configuration
    (Huet 1980), so per-thread determinacy and the diamonds, which follow
    from (A) given :func:`_apply`, are left to the tests' full-graph and
    reduced-graph oracles, with the cross-check of (B).

    ``states`` counts the configurations of the run, and ``max_states``
    bounds them: the run may take ``max_states - 1`` steps.  A violation
    reports how many configurations were checked up to it; hitting the
    budget is reported as a truncated (but violation-free) check, not a
    failure.  A stuck configuration raises :class:`Deadlock`.
    """
    checked = 0

    def check(a: Tid, ordinal: int, local: _LocalOut) -> None:
        nonlocal checked
        checked += 1
        for t, _ in local.threads:
            if t not in (a, a + (ordinal,)):
                raise _NotLocal(f"step of {tid_str(a)} changes thread {tid_str(t)}")
        for x, y in local.new_prec:
            if y != a:
                raise _NotLocal(
                    f"prec pair ({tid_str(x)},{tid_str(y)}) not justified by "
                    f"acting thread {tid_str(a)}"
                )

    try:
        result = run(comp, fuel=max_states - 1, on_local=check)
    except FuelExhausted:
        return ConfluenceReport(True, max_states, True, None)
    except _NotLocal as violation:
        return ConfluenceReport(False, checked, False, str(violation))
    return ConfluenceReport(True, len(result.events) + 1, False, None)


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
      - A step (:func:`_apply`) replaces the entries it writes and keeps
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
