"""Workload ``long-programs``: long generated programs, one seeded schedule.

Half the programs are sequential ``print`` chains, half are ``node`` DAGs
with random fan-in of at most two.  Each goes through parse, typecheck,
desugar and a seeded random run (item "run"), and through
``adequacy_check`` under the same schedule (item "adequacy").  Nothing is
explored, so state-space reduction should leave this workload unchanged;
per-step machine cost and deep ``interp`` chains dominate.

The sizes are fixed (chains of 20-29 prints, DAGs of 10-19 nodes) and
only the labels, the DAG edges and the schedule come from the seed, so
passes with different seeds cost about the same.  A run takes the median
over passes, and the machine's cost grows about cubically with program
length, so larger programs would leave too few passes in a run to be
steady.  All sizes stay below the ones at which the workbench runs out of
recursion depth (``limits.py`` reports those), so that timings compare
across commits.
"""

from __future__ import annotations

import random
from pathlib import Path

from dynthreads.denote import adequacy_check
from dynthreads.lang import EMPTY, desugar, parse_program, typecheck_comp
from dynthreads.machine import run

from corpus_gate import split_adequacy
from tracing import call, closure, expect

CHAIN_SIZES = tuple(range(20, 30))
DAG_SIZES = tuple(range(10, 20))
CHECKS = ("run", "adequacy")
FUEL = 100_000


def chain_program(labels: list[str]) -> str:
    return "".join(f"print[{label}](); " for label in labels) + "stop()"


def dag_program(labels: list[str], deps: list[list[int]]) -> str:
    lines = []
    for i, (label, ds) in enumerate(zip(labels, deps)):
        arg = " (+) ".join(f"v{d}" for d in ds) if ds else "nil"
        lines.append(f"let v{i} = node[{label}]({arg}) in")
    return "\n".join(lines) + "\nstop()"


def setup(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    programs = []
    for n in CHAIN_SIZES:
        labels = [f"p{k}" for k in rng.sample(range(1000), n)]
        order = {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)}
        programs.append((f"chain{n}", chain_program(labels), frozenset(labels), frozenset(order)))
    for n in DAG_SIZES:
        labels = [f"n{k}" for k in rng.sample(range(1000), n)]
        deps = [rng.sample(range(i), rng.randint(0, min(2, i))) for i in range(n)]
        edges = {(labels[d], labels[i]) for i, ds in enumerate(deps) for d in ds}
        programs.append((f"dag{n}", dag_program(labels, deps), frozenset(labels), closure(edges)))
    rng.shuffle(programs)
    return [
        (name, check, text, labels, order, rng.randrange(2**31))
        for name, text, labels, order in programs
        for check in CHECKS
    ]


def _by_label(pomset) -> tuple[frozenset, frozenset]:
    """Labels and order of a pomset whose labels are all distinct."""
    lab = pomset.label_map
    return frozenset(lab.values()), frozenset((lab[a], lab[b]) for a, b in pomset.order)


def run_item(item, tr) -> tuple[str, dict]:
    name, check, text, labels, order, schedule = item
    _, comp = call(tr, "lang.parse", parse_program, text)
    if check == "adequacy":
        report = call(
            tr, "denote.adequacy", adequacy_check, comp, policy="random", seed=schedule, fuel=FUEL
        )
        expect(report.ok, f"{name}: observed pomset differs from the denotation")
        expect(_by_label(report.denoted) == (labels, order), f"{name}: wrong denotation")
        if tr is not None:
            ty = call(tr, "lang.typecheck", typecheck_comp, {}, frozenset(), comp)
            core = call(tr, "lang.desugar", desugar, comp)
            expect(ty == EMPTY, f"{name}: type is {ty!r}")
            split_adequacy(core, tr, report.ok, name, policy="random", seed=schedule, fuel=FUEL)
        return "pass", {
            "machine.run.steps": len(report.run_result.events),
            "posets.interp.vertices": len(report.denoted.labels),
        }
    ty = call(tr, "lang.typecheck", typecheck_comp, {}, frozenset(), comp)
    expect(ty == EMPTY, f"{name}: type is {ty!r}, not the empty type")
    core = call(tr, "lang.desugar", desugar, comp)
    result = call(tr, "machine.run", run, core, policy="random", seed=schedule, fuel=FUEL)
    expect(result.terminal.is_terminal(), f"{name}: run did not terminate")
    expect(_by_label(result.pomset) == (labels, order), f"{name}: wrong observation")
    return "pass", {"machine.run.steps": len(result.events)}
