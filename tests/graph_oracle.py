"""The schedule-graph walk: the oracle for the machine's one-run verdicts.

:func:`dynthreads.machine.explore` and
:func:`~dynthreads.machine.run_exhaustive` learn what every schedule does
from the gate's one run.  The code they replaced is kept here: a
depth-first walk of the schedule graph, with configurations deduplicated,
and an ``explore`` and ``run_exhaustive`` read off it.  The tests
cross-check the two.

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

A local step depends only on the thread's state, tid and next spawn
ordinal, so each walk memoizes local steps under that key in a memo of its
own (:func:`_expander`).  Local steps are looked up on the machine module
at every call, so a test that breaks ``machine._local_step`` breaks the
walk too.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

from dynthreads import machine
from dynthreads.lang import Comp, Ret, Tid, _bottom_up, is_core
from dynthreads.machine import (
    DEFAULT_BUDGET,
    FINISHED,
    Configuration,
    FuelExhausted,
    MachineError,
    RunResult,
    StepLabel,
    _deadlock,
    _write,
)
from dynthreads.posets import label_paths


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
                local = memo[key] = machine._local_step(*key)
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
    ``local`` (see :func:`~dynthreads.machine._write`)."""
    threads = {entry[0]: entry for entry in c.threads}
    _write(threads, waits, local)
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
