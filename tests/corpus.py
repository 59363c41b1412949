"""Loader for the shipped program corpus, and its schedule graphs."""

from __future__ import annotations

import gc
from pathlib import Path

from dynthreads.lang import Comp, desugar, parse_program

from graph_oracle import _state_graph

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

# a program outside the corpus: the root waits for 0.1, which waits for its
# child 0.1.1, so the observed s1 < s2 holds only in the closure of the waits
NESTED_WAIT = (
    "let y = fork() in case y of { inj1 a => wait(a); printstop[s2]() "
    "| inj2 u => let z = fork() in case z of "
    "{ inj1 b => wait(b); printstop[s3]() | inj2 v => printstop[s1]() } }"
)

# programs outside the corpus that the schedule-graph oracles also check
EXTRA_PROGRAMS = {"nested_wait": NESTED_WAIT}


def corpus_names() -> list[str]:
    return sorted(p.stem for p in PROGRAMS_DIR.glob("*.prog"))


def load_surface(name: str) -> Comp:
    text = (PROGRAMS_DIR / f"{name}.prog").read_text()
    world, comp = parse_program(text)
    assert not world, f"{name}: corpus programs live in the empty world"
    return comp


def load_core(name: str) -> Comp:
    return desugar(load_surface(name))


def load_named(name: str) -> Comp:
    """A corpus program, or one of ``EXTRA_PROGRAMS``, in core syntax."""
    if name in EXTRA_PROGRAMS:
        world, comp = parse_program(EXTRA_PROGRAMS[name])
        assert not world
        return desugar(comp)
    return load_core(name)


def full_graph(name: str, budget: int, reduce: bool = False) -> tuple:
    """The schedule graph of the program ``name`` (see :func:`load_named`)
    within ``budget`` states, as :func:`graph_oracle._state_graph` returns
    it: the full one unless ``reduce``.

    Each graph asked for within ``KEPT_STATES``, the budget of the
    full-graph tests of ``test_machine.py``, is built once per test module
    (``conftest.py`` drops them after each module).  The walk is the same
    for every budget until it is cut, so a graph it finished is kept per
    program and served to every budget it fits in; a truncated one is not
    kept.  Graphs asked for with a larger budget are read once, by the
    typecheck oracle, and keeping them added about 100 MB to a session's
    peak memory.  The callers only read the graph, and none of them breaks
    the machine first.

    A walk makes hundreds of thousands of objects and no reference cycle,
    so the cyclic collector is paused while it runs, and the objects alive
    after it are frozen out of the collector's later passes
    (:func:`gc.freeze`); they are still freed when the graph is dropped.
    Without this the collector's passes over the graphs took about half
    the time of the tests that read them."""
    graph = _GRAPHS.get((name, reduce))
    if graph is None or len(graph[1]) > budget:
        gc.disable()
        try:
            graph = _state_graph(load_named(name), budget, reduce=reduce)
        finally:
            gc.enable()
        gc.freeze()
        if not graph[3] and budget <= KEPT_STATES:
            _GRAPHS[(name, reduce)] = graph
    return graph


KEPT_STATES = 25_000
_GRAPHS: dict = {}  # (name, reduce) -> the finished graph
