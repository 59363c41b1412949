"""Limits probe: the input sizes at which the workbench breaks down.

    python3 perfbench/limits.py        (with ROOT/src on PYTHONPATH)

Recursion depth: sequential-print programs double in size from START; the
first size at which an entry point raises ``RecursionError`` is its limit.
Inputs for the entries after the parser are built directly as syntax trees,
without recursion, so each entry is probed on its own; ``denote_comp`` also
needs ``desugar`` to succeed at that size.  An entry that handles every
size up to CAP reads as 2 * CAP.

Isomorphism search: k unordered actions with one label, half of them seen
by one hole, against a copy numbered in reverse.  Only the hole's
visibility tells the actions apart, and ``iso_check`` compares visibility
only for complete mappings, so its time grows about k-fold per step.  The
limit is the first k at which one call takes over ISO_SLOW_S (growth is
steep enough that machine noise does not move it); up to ISO_CAP.

Prints ``READY`` after the imports and then one JSON line.
"""

from __future__ import annotations

import json
import time

from dynthreads.denote import Elaborator, world_context
from dynthreads.lang import (
    EMPTY,
    UNIT_V,
    ApplyC,
    ConstV,
    SeqC,
    desugar,
    parse_program,
    typecheck_comp,
)
from dynthreads.posets import Vert, iso_check, make_poset

START = 25
CAP = 6400
ISO_SLOW_S = 0.1
ISO_CAP = 12


def chain_text(n: int) -> str:
    return "".join(f"print[p{k}](); " for k in range(n)) + "stop()"


def chain_comp(n: int):
    comp = ApplyC(ConstV("stop"), UNIT_V)
    for k in reversed(range(n)):
        comp = SeqC(ApplyC(ConstV("print", f"p{k}"), UNIT_V), comp)
    return comp


def _denote(n: int):
    elaborator = Elaborator(world_context(frozenset()))
    return elaborator.denote_comp(desugar(chain_comp(n)), {}, EMPTY)


ENTRIES = {
    "lang.limit.parse_program": lambda n: parse_program(chain_text(n)),
    "lang.limit.desugar": lambda n: desugar(chain_comp(n)),
    "lang.limit.typecheck_comp": lambda n: typecheck_comp({}, frozenset(), chain_comp(n)),
    "denote.limit.denote_comp": _denote,
}


def first_failing_size(entry) -> int:
    n = START
    while n <= CAP:
        try:
            entry(n)
        except RecursionError:
            return n
        n *= 2
    return n


def alike_actions_pair(k: int):
    actions = {v: "s1" for v in range(1, k + 1)}
    seen = [Vert(v) for v in range(1, k // 2 + 1)]
    mirrored = [Vert(k + 1 - v.vid) for v in seen]
    return tuple(
        make_poset(0, actions, {k + 1: ("x", 1, [frozenset(slot)])}, set())
        for slot in (seen, mirrored)
    )


def first_slow_iso_size() -> int:
    for k in range(2, ISO_CAP + 1):
        p, q = alike_actions_pair(k)
        start = time.perf_counter()
        found = iso_check(p, q)
        if found is None:
            raise RuntimeError(f"iso_check missed the isomorphism at k={k}")
        if time.perf_counter() - start > ISO_SLOW_S:
            return k
    return ISO_CAP + 1


def main() -> None:
    print("READY", flush=True)
    limits = {name: first_failing_size(entry) for name, entry in ENTRIES.items()}
    limits["posets.limit.iso_check"] = first_slow_iso_size()
    print(json.dumps(limits))


if __name__ == "__main__":
    main()
