"""The schedule-graph walk: the oracle for the machine's one-run verdicts.

:func:`dynthreads.machine.explore` and
:func:`~dynthreads.machine.run_exhaustive` learn what every schedule does
from the gate's one run.  The code they replaced is kept here: a
depth-first walk of the schedule graph, with configurations deduplicated,
and an ``explore`` and ``run_exhaustive`` read off it.  The tests
cross-check the two.

The reference run is kept here too: :func:`reference_run` scans every
thread for the runnable ones and builds a whole configuration at every
step, which its ``on_step`` hook sees.  The tests read per-step
configurations from it, since :func:`~dynthreads.machine.run` builds only
its terminal one, and read configurations through :func:`world`,
:func:`prec` and :func:`thread`.

The whole well-formedness check is kept here too, the oracle for
:func:`~dynthreads.machine.run_with_preservation`, which checks only what
each step wrote, on thread states: :func:`check_config_well_formed` checks
a whole configuration of computations (:func:`ill_formed`, with
:func:`check_comp`) in its :func:`creation_order`, or in any potential
creation order.

The walk builds a partial-order-reduced schedule graph by default: in a
configuration where some thread can take a silent step (fork, wait, stop,
or a beta/proj/case/let reduction), only the first such step in tid order
is expanded; all enabled steps are expanded only where every one of them
is labelled.  The reduction keeps every labelled trace and every terminal
configuration because the chosen step
  1. is invisible: it carries no action, so it adds nothing to a trace;
  2. cannot be disabled: no other thread's step changes its state or its
     waits, so it stays enabled until it fires;
  3. commutes: with every other thread's step it closes a diamond onto one
     configuration;
and the graph is acyclic, so no step is postponed forever.
:func:`~dynthreads.machine.check_confluence` checks that every local step
writes only its own thread and a new child and waits only into its own
thread, which gives conditions 2 and 3.  ``reduce=False`` builds the full
graph, the oracle for the reduced one.

:func:`_state_graph` raises :class:`~dynthreads.machine.Deadlock` when it
expands a stuck configuration and enforces the state budget: it expands at
most that many configurations and then stops and reports the graph
truncated, and ``explore`` and ``run_exhaustive`` here raise
:class:`~dynthreads.machine.FuelExhausted`.

The local step the machine took before it kept each thread's ``let``
frames between steps is kept here too, as the oracle's own step:
:func:`local_step` peels the frames off the redex of a computation at
every step and plugs the result back into them.  The reference run and
the walk step with it, on configurations of computations.  The machine's
own thread states, frames and a focus, become computations only here
(:func:`plug_state`), for the oracles that compare the two: no code in
``src/`` plugs one, and the command line's trace renders one from its
frames and focus.

A local step depends only on the thread's state, tid and next spawn
ordinal, so each walk memoizes local steps under that key in a memo of its
own (:func:`_expander`).  :func:`local_step` is looked up on this module at
every call, so a test that breaks the machine's and the oracle's steps
alike (:func:`break_local_steps`) breaks the walk too.  A test that breaks
the type checker breaks the machine's typing of thread states and the whole
check alike (:func:`break_typing`).
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from dynthreads import lang, machine
from dynthreads.lang import (
    UNIT_V, Comp, InjV, LangError, LangType, LetC, Ret, Tid, TidV, _bottom_up, _tids,
    is_core, print_pieces, tid_str, tids_of_value,
)
from dynthreads.machine import (
    DEFAULT_BUDGET,
    FINISHED,
    Configuration,
    FuelExhausted,
    MachineError,
    RunResult,
    CHILD_START,
    FORK_RESULT,
    StepLabel,
    _NO_WAITS,
    _LocalOut,
    _deadlock,
    _reduce,
    effect,
)
from dynthreads.posets import label_paths


def _peel(comp: Comp) -> tuple[list, Comp]:
    """The ``let`` frames around the redex of ``comp``, outermost first,
    and the redex, peeled off in a loop.  The redex is a ``let`` only when
    it binds a value, and a value only when there are no frames."""
    frames = []
    while type(comp) is LetC and type(comp.bound) is not Ret:
        frames.append(comp)
        comp = comp.bound
    return frames, comp


def _plug(frames: list, comp: Comp) -> Comp:
    """``comp`` wrapped back into ``frames``, once per frame."""
    for frame in reversed(frames):
        comp = LetC(frame.var, comp, frame.body)
    return comp


def plug_state(state: tuple) -> Comp:
    """The computation a machine thread state stands for: its focus wrapped
    back into its frames, innermost first, in a loop.  A frame whose bound
    is still the focus is the node itself.  It is the oracle of the
    command line's trace, which prints a state without plugging it
    (:func:`~dynthreads.machine.state_pieces`)."""
    frames, comp = state
    while frames:
        frame, frames = frames
        comp = frame if frame.bound is comp else LetC(frame.var, comp, frame.body)
    return comp


def local_step(comp: Comp, tid: Tid, ordinal: int) -> _LocalOut:
    """One thread-local reduction of the computation ``comp``, which is not
    a value, running as ``tid`` with next spawn ordinal ``ordinal``, with
    computations as the states it leaves: the redex is peeled out of its
    ``let`` frames (:func:`_peel`), an effect is dispatched on its
    constant's name and anything else takes the pure step
    (:func:`~dynthreads.machine._reduce`), and each state it leaves is
    wrapped back into the frames, unless the thread finished."""
    frames, comp = _peel(comp)
    const = effect(comp)
    if const is None:
        return _LocalOut(None, ((tid, _plug(frames, _reduce(comp))),), _NO_WAITS)
    if const.name == "fork":
        # every spawned thread continues with its own copy of the continuation
        child = tid + (ordinal,)
        parent = _plug(frames, Ret(InjV(1, TidV(child), FORK_RESULT)))
        return _LocalOut(None, ((tid, parent), (child, _plug(frames, CHILD_START))), _NO_WAITS)
    if const.name == "wait":
        waits = frozenset((b, tid) for b in tids_of_value(comp.arg))
        return _LocalOut(None, ((tid, _plug(frames, Ret(UNIT_V))),), waits)
    # stop and printstop finish the thread, which drops its continuation
    action = const.action if const.name == "printstop" else None
    return _LocalOut(action, ((tid, FINISHED),), _NO_WAITS)


def plugged(local: _LocalOut) -> _LocalOut:
    """A local step of the machine with computations for its thread states."""
    return local._replace(
        threads=tuple((t, s if s is FINISHED else plug_state(s)) for t, s in local.threads)
    )


def break_local_steps(monkeypatch, broken) -> None:
    """Break the machine's local step and this oracle's alike: ``broken``
    takes a local step over computations, ``step(comp, tid, ordinal)``,
    and returns the broken one.  The oracle takes the broken
    :func:`local_step`; the machine takes the broken version of its own
    step, read over computations, with each state it leaves refocused
    (``machine.descend``).  Both are read when the patch is made."""
    machine_step = machine._local_step

    def over_comps(comp, tid, ordinal):
        return plugged(machine_step(machine.descend((), comp), tid, ordinal))

    broken_machine = broken(over_comps)

    def refocused(state, tid, ordinal):
        out = broken_machine(plug_state(state), tid, ordinal)
        return out._replace(threads=tuple(
            (t, s if s is FINISHED else machine.descend((), s)) for t, s in out.threads
        ))

    monkeypatch.setitem(globals(), "local_step", broken(local_step))
    monkeypatch.setattr(machine, "_local_step", refocused)


def break_typing(monkeypatch, broken) -> None:
    """Break the machine's typing of thread states and the whole check's
    typing alike: ``broken`` takes a check over plugged computations,
    ``check(gamma, world, comp, ty, memo)``, and returns the broken one.
    The whole check (:func:`ill_formed`) takes the broken
    :func:`check_comp`; the machine's typing of a thread state
    (``machine._check_state``) takes the broken version of its own, read
    over computations, with each state it is given plugged
    (:func:`plug_state`) and each computation refocused
    (``machine.descend``).  So both reject the same plugged states.  Both
    are read when the patch is made."""
    machine_check = machine._check_state

    def over_comps(gamma, world, comp, ty, memo=None):
        assert not gamma, gamma  # a thread state is closed
        return machine_check(world, machine.descend((), comp), ty, memo)

    broken_machine = broken(over_comps)

    def plugged_state(world, state, ty, memo):
        return broken_machine({}, world, plug_state(state), ty, memo)

    monkeypatch.setitem(globals(), "check_comp", broken(check_comp))
    monkeypatch.setattr(machine, "_check_state", plugged_state)


def check_comp(env, world, t: Comp, ty: LangType, memo=None) -> None:
    """Check a computation against ``ty``; raise on failure.  ``memo`` is
    a typing memo, if any (see :mod:`dynthreads.lang`).  The judgement is
    looked up on :mod:`dynthreads.lang` at every call, so a test can count
    its calls there."""
    lang._comp(env, world, t, ty, memo)


def ill_formed(entries: Sequence, rank: dict, result_type: LangType, memo) -> Optional[str]:
    """The whole check of a configuration, given as its ``(tid, state,
    waits)`` entries, whose states are computations or ``FINISHED``, in
    the creation order ``rank`` gives, a map from each known thread to its
    place: each wait names a known thread of smaller rank, and each
    unfinished thread type checks (:func:`check_comp`) in the world of the
    known threads of smaller rank that its state names.  The first
    violation in the order of ``entries`` is named, waits before typing,
    in the words of :func:`~dynthreads.machine.run_with_preservation`."""
    for tid, _, waits in entries:
        for b in waits:
            if b not in rank:
                return f"{tid_str(tid)} waits on unknown thread {tid_str(b)}"
            if rank[b] >= rank[tid]:
                return f"{tid_str(tid)} waits on later sibling {tid_str(b)}"
    for tid, state, _ in entries:
        if state == FINISHED:
            continue
        world = frozenset(b for b in _tids(state) if b in rank and rank[b] < rank[tid])
        try:
            check_comp({}, world, state, result_type, memo)
        except LangError as exc:
            return f"thread {tid_str(tid)} does not typecheck at the thread type: {exc}"
    return None


# the state of a thread in the configurations here: a computation or FINISHED
ThreadState = Union[Comp, str]


def trace_line(label: StepLabel, state: ThreadState) -> str:
    """The command line's trace line for a step that left the acting thread
    in ``state``: the text ``print_comp`` gives the state, cut to 60
    characters, 57 and ``...``.  That text is the join of
    ``print_pieces``, which is read only up to the cut, so a long
    continuation is not printed whole.  It is the oracle of the trace,
    which renders a thread state from its frames and focus."""
    summary = ""
    for piece in ["finished"] if state == FINISHED else print_pieces(state):
        summary += piece
        if len(summary) > 60:
            summary = summary[:57] + "..."
            break
    mark = label.action if label.action is not None else "·"
    return f"{tid_str(label.acting)} {mark} -> {summary}"


def initial(comp: Comp) -> Configuration:
    """The configuration of one thread, the root, running ``comp``."""
    return Configuration((((), comp, frozenset()),))


def world(c: Configuration) -> frozenset:  # frozenset[Tid]
    """The threads of ``c``."""
    return frozenset(tid for tid, _, _ in c.threads)


def prec(c: Configuration) -> frozenset:  # frozenset[tuple[Tid, Tid]]
    """The waits of ``c`` as pairs: ``(b, a)`` when ``a`` waits for ``b``."""
    return frozenset((b, a) for a, _, waits in c.threads for b in waits)


def thread(c: Configuration, tid: Tid) -> ThreadState:
    """The state of thread ``tid`` in ``c``, or ``None`` if ``c`` has no
    such thread."""
    return next((state for t, state, _ in c.threads if t == tid), None)


def check_config_well_formed(
    c: Configuration,
    result_type: LangType,
    order: tuple,  # tuple[Tid, ...]: the potential creation order, smallest first
) -> Optional[str]:
    """The four conditions for a configuration to look like a family of
    siblings created in the given linear order: the order lists the world,
    every thread waits only on known threads that come earlier, and every
    unfinished thread type checks against the threads before it
    (:func:`ill_formed`, without a typing memo)."""
    tids = world(c)
    if set(order) != tids or len(order) != len(tids):
        return "order is not a linear order on the world"
    rank = {tid: i for i, tid in enumerate(order)}
    return ill_formed(c.threads, rank, result_type, None)


def creation_order(threads: Iterable[Tid]) -> tuple:  # tuple[Tid, ...]
    """The post-order of the spawn tree on ``threads``, sorted by
    :func:`~dynthreads.machine._rank`."""
    return tuple(sorted(threads, key=machine._rank))


def reference_run(comp, policy="lowest-tid", seed=None, fuel=DEFAULT_BUDGET,
                  on_step=None, on_local=None) -> RunResult:
    """Run to termination, scanning every thread for the runnable ones and
    building a whole configuration at every step: ``on_local(tid, ordinal,
    local)`` is called before each step, as by
    :func:`~dynthreads.machine.run`, and ``on_step(label, c)`` after it
    with the configuration ``c`` it reached."""
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
    c = initial(comp)
    events = []
    while True:
        runnable = _runnable(c)
        if not runnable:
            if c.is_terminal():
                return RunResult(c, tuple(events))
            raise _deadlock(c.threads)
        if len(events) >= fuel:
            raise FuelExhausted(f"no terminal configuration within {fuel} steps")
        tid, state, waits, ordinal = choose(runnable)
        local = local_step(state, tid, ordinal)
        if on_local is not None:
            on_local(tid, ordinal, local)
        label, c = _apply(c, tid, waits, local)
        events.append(label)
        if on_step is not None:
            on_step(label, c)


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
                local = memo[key] = local_step(*key)
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
    (:func:`~dynthreads.machine.run`); the walk asks for it once per
    configuration."""
    finished = frozenset(tid for tid, state, _ in c.threads if state == FINISHED)
    children = Counter(tid[:-1] for tid, _, _ in c.threads if tid)
    return [
        (tid, state, waits, children[tid] + 1)
        for tid, state, waits in c.threads
        if state != FINISHED and not isinstance(state, Ret) and waits <= finished
    ]


def _apply(c: Configuration, tid: Tid, waits: frozenset, local) -> tuple:
    """The global step, ``(label, configuration)``, of the runnable thread
    ``tid``, which directly waits for ``waits`` and whose local step is
    ``local``, written as :func:`~dynthreads.machine._write` writes it but
    unchecked, so that a broken step that writes a finished thread is
    modelled as it is, not refused."""
    threads = {entry[0]: entry for entry in c.threads}
    for t, state in local.threads:
        threads[t] = (t, state, waits)
    for b, a in local.new_prec:
        t, state, before = threads[a]
        threads[a] = (t, state, before | {b})
    return StepLabel(tid, local.action), Configuration(tuple(sorted(threads.values())))


def _state_graph(comp: Comp, max_states: int, *, reduce: bool = True):
    """The schedule graph from ``comp``, configurations deduplicated.

    Returns ``(c0, steps_of, first_event, truncated)``.  ``steps_of`` maps
    each expanded configuration to its steps, in the depth-first order of
    expansion; ``first_event`` maps each reached configuration to the
    configuration and step that first reached it.  The walk expands at most
    ``max_states`` configurations and stops there; ``truncated`` says
    whether it left reached configurations unexpanded.  Expanding a
    non-terminal configuration with no steps raises
    :class:`~dynthreads.machine.Deadlock`.

    By default one silent step is expanded per configuration where one is
    enabled (see the module docstring); ``reduce=False`` builds the full
    graph.  The local-step memo of the walk's :func:`_expander` lives as
    long as the walk."""
    if not is_core(comp):
        raise MachineError("exploration needs a desugared computation")
    _hash_bottom_up(comp)
    expand = _expander()
    c0 = initial(comp)
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
            raise _deadlock(c.threads)
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

    Raises :class:`~dynthreads.machine.FuelExhausted` if the graph exceeds
    ``max_states``."""
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
    """One run result per terminal configuration over all schedules of the
    reduced graph, which reaches every terminal configuration of the full
    one; ``max_states`` bounds the reduced graph."""
    return tuple(_terminal_runs(comp, max_states)[2])


class WalkResult(NamedTuple):
    states: int  # the configurations of the reduced graph
    terminals: tuple  # tuple[Configuration, ...]
    observations: tuple  # tuple[Pomset, ...] one per terminal
    traces: frozenset  # frozenset[tuple[str, ...]] distinct labelled traces
    all_iso: bool
    traces_match_linearizations: bool


def explore(comp: Comp, max_states: int = DEFAULT_BUDGET) -> WalkResult:
    """Every schedule of the reduced graph: the distinct labelled traces,
    one observation per terminal configuration, whether all observations
    are isomorphic, and whether the trace set equals the linearizations of
    the observed pomsets.  The traces and terminals are those of the full
    graph, but ``states`` counts the reduced graph and ``max_states``
    bounds it."""
    c0, steps_of, runs = _terminal_runs(comp, max_states)
    observations = [r.pomset for r in runs]
    traces = _label_traces(c0, steps_of)
    all_iso = all(observations[0].iso_to(pom) is not None for pom in observations[1:])
    linearizations = frozenset().union(*(pom.linearizations() for pom in observations))
    return WalkResult(
        len(steps_of),
        tuple(r.terminal for r in runs),
        tuple(observations),
        traces,
        all_iso,
        traces == linearizations,
    )


def _label_traces(c0: Configuration, steps_of) -> frozenset:  # frozenset[tuple[str, ...]]
    """The labelled traces of the maximal paths from ``c0``."""
    return label_paths(c0, lambda c: [(label.action, nxt) for label, nxt in steps_of[c]])
