"""Workload ``theory-eq``: the term/poset layer, with no machine involved.

Each item round-trips a random term through ``interp`` -> ``reify`` ->
``nf_to_term`` -> ``interp`` and then asks one equality question, cycling
through four kinds:

* ``nf``: a term against its own normal form (equal);
* ``perm``: a random well-formed hole-free poset against a
  vertex-renumbered copy (equal; the search runs to success);
* ``relabel``: a poset against a copy with one action relabelled (unequal;
  ``iso_quick_reject`` settles it);
* ``twin``: two height-two posets whose invariants all agree (2-regular
  bipartite orders, one eight-cycle against two four-cycles or against a
  renumbered eight-cycle), so only the full search can answer.  Their
  answers come from a brute-force permutation oracle run during set-up.

Every fourth item also runs ``completeness_probe``, alternately on the
equal pair (term, normal form) and on an unequal pair (term, term with an
extra action).  Equal pairs run the search to success and unequal pairs
mostly stop at the invariants, so a change that speeds one path and slows
the other shows here.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from dynthreads.denote import apply_gadgets, closing_context, completeness_probe
from dynthreads.posets import (
    STAR,
    In,
    Vert,
    decide_equal,
    decide_equal_posets,
    interp,
    iso_check,
    iso_quick_reject,
    make_poset,
    nf_to_term,
    reify,
)
from dynthreads.terms import Act, CompContext, Fork, STOP, Var, Wait
from dynthreads.tids import ParamContext

from tracing import call, closure, expect, expect_split, span

GAMMA = CompContext((("x", 1), ("y", 0)))
DELTA = ParamContext(("a", "b"))
EMPTY_G = CompContext(())
EMPTY_D = ParamContext(())
ITEMS = 320
KINDS = ("nf", "perm", "relabel", "twin")
TERM_SIZES = (16, 20, 24, 28, 32, 36, 40, 44)
POSET_SIZES = (12, 14, 16, 18, 20, 22, 24)
# iso_check compares hole visibility only once it has a full mapping, so its
# search grows exponentially when holes tell apart actions that nothing else
# does (a 16-vertex term with three holes and six alike actions took 3.5 s).
# Terms therefore carry distinct action labels and at most MAX_HOLES holes,
# and random posets have no holes, so that passes with different seeds cost
# the same; limits.py measures the exponential case on its own.
MAX_HOLES = 3
PROBE_EVERY = 4
ACTIONS = ("s1", "s2", "s3", "s4")
EXTRA_LABEL = "extra"


# --- generators -----------------------------------------------------------------

def random_term(rng: random.Random, size: int):
    """A scope-correct term over GAMMA and DELTA with at most ``size``
    operations, at most MAX_HOLES variable occurrences and distinct action
    labels."""
    binders = itertools.count(1)
    labels = itertools.count(1)
    holes = []

    def guard(scope):
        return frozenset(n for n in scope if rng.random() < 0.45)

    def leaf(scope):
        kinds = ["stop", "act", "act"] + (["var"] if len(holes) < MAX_HOLES else [])
        kind = rng.choice(kinds)
        if kind == "stop":
            return STOP
        if kind == "act":
            return Act(f"s{next(labels)}")
        name, arity = rng.choice(GAMMA.entries)
        holes.append(name)
        return Var(name, tuple(guard(scope) for _ in range(arity)))

    def go(scope, budget):
        if budget <= 1:
            return leaf(scope)
        roll = rng.random()
        if roll < 0.5:
            binder = f"c{next(binders)}"
            split = rng.randint(1, budget - 1)
            return Fork(binder, go(scope + (binder,), split), go(scope, budget - split))
        if roll < 0.8:
            return Wait(guard(scope), go(scope, budget - 1))
        return leaf(scope)

    return go(DELTA.names, size)


def random_poset_spec(rng: random.Random, size: int) -> tuple:
    """``(n_inputs, actions, holes, order)`` of a well-formed hole-free
    poset: edges only point forward along the vertex numbering, so nothing
    is cyclic."""
    n = rng.randint(0, 2)
    actions = {v: rng.choice(ACTIONS) for v in range(1, size + 1)}
    order = set()
    for j in range(1, size + 1):
        order.update((Vert(i), Vert(j)) for i in range(1, j) if rng.random() < 0.12)
        order.update((In(i), Vert(j)) for i in range(1, n + 1) if rng.random() < 0.2)
        if rng.random() < 0.4:
            order.add((Vert(j), STAR))
    return n, actions, {}, order


def renumber(spec: tuple, perm: dict) -> tuple:
    n, actions, _, order = spec

    def ref(e):
        return Vert(perm[e.vid]) if isinstance(e, Vert) else e

    return n, {perm[v]: label for v, label in actions.items()}, {}, {(ref(d), ref(e)) for d, e in order}


def twin_spec(rng: random.Random, extras: int, cycles: tuple) -> tuple:
    """A height-two order between four ``s1`` and four ``s2`` vertices in
    which every vertex has two neighbours, split into the given cycles
    (numbers of ``s1`` vertices per cycle), above a chain of uniquely
    labelled vertices, with vertex ids shuffled."""
    ids = list(range(1, extras + 9))
    rng.shuffle(ids)
    chain, bottoms, tops = ids[:extras], ids[extras:extras + 4], ids[extras + 4:]
    actions = {v: f"u{k}" for k, v in enumerate(chain)}
    actions.update({v: "s1" for v in bottoms})
    actions.update({v: "s2" for v in tops})
    order = {(Vert(a), Vert(b)) for a, b in zip(chain, chain[1:])}
    if chain:
        order.update((Vert(chain[-1]), Vert(v)) for v in bottoms)
    start = 0
    for size in cycles:
        for k in range(size):
            b = bottoms[start + k]
            order.add((Vert(b), Vert(tops[start + k])))
            order.add((Vert(b), Vert(tops[start + (k + 1) % size])))
        start += size
    order.update((Vert(t), STAR) for t in tops)
    return 0, actions, {}, order


def oracle_isomorphic(spec1: tuple, spec2: tuple) -> bool:
    """Brute force: try every label-preserving bijection of the vertices
    of two hole-free, input-free posets and compare the transitively
    closed orders (vertex ids start at 1; 0 stands for star)."""
    _, act1, _, order1 = spec1
    _, act2, _, order2 = spec2
    if sorted(act1.values()) != sorted(act2.values()):
        return False

    def ids(order):
        return frozenset((d.vid if d != STAR else 0, e.vid if e != STAR else 0)
                         for d, e in closure(order))

    closed1, closed2 = ids(order1), ids(order2)
    if len(closed1) != len(closed2):
        return False
    classes = sorted(set(act1.values()))
    left = [[v for v in act1 if act1[v] == c] for c in classes]
    right = [[v for v in act2 if act2[v] == c] for c in classes]
    # pairs between vertices that share their label with others can fail
    # under a bijection; checking them first only makes failures quicker
    fixed = {v for vs in left if len(vs) == 1 for v in vs} | {0}
    pairs = sorted(closed1, key=lambda pair: (pair[0] in fixed) + (pair[1] in fixed))
    for images in itertools.product(*(itertools.permutations(r) for r in right)):
        perm = {v: w for vs, ws in zip(left, images) for v, w in zip(vs, ws)}
        perm[0] = 0
        if all((perm[d], perm[e]) in closed2 for d, e in pairs):
            return True
    return False


def setup(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for i in range(ITEMS):
        kind = KINDS[i % len(KINDS)]
        term = random_term(rng, TERM_SIZES[(i // len(KINDS)) % len(TERM_SIZES)])
        size = POSET_SIZES[(i // len(KINDS)) % len(POSET_SIZES)]
        if kind == "perm":
            spec = random_poset_spec(rng, size)
            ids = list(range(1, size + 1))
            rng.shuffle(ids)
            pair = (spec, renumber(spec, dict(zip(range(1, size + 1), ids))))
            answer = True
        elif kind == "relabel":
            spec = random_poset_spec(rng, size)
            n, actions, holes, order = spec
            changed = dict(actions)
            changed[rng.choice(sorted(actions))] = EXTRA_LABEL
            pair, answer = (spec, (n, changed, holes, order)), False
        elif kind == "twin":
            extras = size - 8
            other = (4,) if rng.random() < 0.3 else (2, 2)
            pair = (twin_spec(rng, extras, (4,)), twin_spec(rng, extras, other))
            answer = oracle_isomorphic(*pair)
        else:
            pair, answer = None, True
        items.append((i, kind, term, pair, answer))
    return items


# --- items --------------------------------------------------------------------------

def run_item(item, tr) -> tuple[str, dict]:
    index, kind, term, specs, answer = item
    p = call(tr, "posets.interp", interp, term, GAMMA, DELTA)
    nf = call(tr, "posets.reify", reify, p)
    g2, d2, back = call(tr, "posets.nf_to_term", nf_to_term, nf, DELTA.names)
    p2 = call(tr, "posets.interp", interp, back, g2, d2)
    expect(call(tr, "posets.iso_check", iso_check, p, p2) is not None,
           f"item {index}: round trip changed the poset")
    counts = {"posets.interp.vertices": len(p.vertex_ids) + len(p2.vertex_ids)}

    if kind == "nf":
        q = p2
    else:
        with span(tr, "posets.make_poset"):
            p, q = (make_poset(*spec) for spec in specs)
    what = f"item {index} ({kind})"
    verdict = call(tr, "posets.decide_equal", decide_equal_posets, p, q).equal
    expect(verdict == answer, f"{what}: decided {verdict}, known answer {answer}")
    if tr is not None:
        with span(tr, "posets.decide_equal.split"):
            reason = call(tr, "posets.quick_reject", iso_quick_reject, p, q)
            split = reason is None and call(tr, "posets.iso_check", iso_check, p, q) is not None
        expect_split(split, verdict, what)
        if not answer:
            # traced passes only: how many unequal pairs the invariants settle
            counts["posets.quick_reject.unequal"] = 1
            counts["posets.quick_reject.settled"] = int(reason is not None)

    if index % PROBE_EVERY == 0:
        if (index // PROBE_EVERY) % 2 == 0:
            other, expected = back, (True, True, True)
        else:
            other, expected = Fork("z0", term, Act(EXTRA_LABEL)), (True, False, False)
        report = call(tr, "denote.probe", completeness_probe, term, other, GAMMA, DELTA)
        got = (report.consistent, report.open_equal, report.closed_equal)
        expect(got == expected, f"{what}: probe gave {got}, expected {expected}")
        if tr is not None:
            with span(tr, "denote.probe.split"):
                open_eq = call(tr, "posets.decide_equal", decide_equal, term, other, GAMMA, DELTA).equal
                with span(tr, "denote.gadgets"):
                    closed = [closing_context(apply_gadgets(t, GAMMA, DELTA), DELTA)
                              for t in (term, other)]
                closed_eq = call(tr, "posets.decide_equal", decide_equal, *closed, EMPTY_G, EMPTY_D).equal
            expect_split((open_eq == closed_eq, open_eq, closed_eq), got, f"{what} probe")
    return "pass", counts
