"""The bitset poset layer against the pair-set code it replaced.

Posets hold one down-set mask per element.  Closure, well-formedness, the
Hasse diagram, ``Pomset.of`` and isomorphism are checked against the pair
implementations kept in ``pair_oracle.py``, on well-formed posets from
``genutil`` and on ill-formed ones made from them: reflexive, cyclic,
unclosed, with raised inputs or a lowered star, and with broken or cyclic
visibility.  The isomorphism search is also run on shapes where the
visibility of a hole is the only thing that tells vertices apart, and on
pomsets far longer than the recursion limit.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from dynthreads.posets import (
    STAR,
    HoleLabel,
    In,
    Pomset,
    PosetError,
    PosetWithHoles,
    Vert,
    _close,
    check_well_formed,
    covering_pairs,
    erase_star,
    interp,
    iso_check,
    iso_quick_reject,
    make_poset,
)
from dynthreads.denote import denote
from dynthreads.terms import CompContext
from dynthreads.tids import ParamContext

import pair_oracle
from corpus import corpus_names, load_surface
from genutil import random_term, random_well_formed_poset
from model_oracle import raw_poset

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import limits  # noqa: E402

EMPTY_VARS = CompContext(())
EMPTY_TIDS = ParamContext(())


def _ones(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _spec(p: PosetWithHoles) -> tuple:
    return p.n_inputs, dict(p.actions), dict(p.holes), set(p.order)


def _mutant(p: PosetWithHoles, rng: random.Random) -> PosetWithHoles:
    """``p`` with one to three random breaks of order or visibility, stored
    as given."""
    n, actions, holes, pairs = _spec(p)
    elements = p.elements
    vertices = [Vert(v) for v in sorted(p.vertex_ids)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["loop", "reverse", "drop", "extra", "raise", "lower", "slot"])
        if kind == "loop":
            e = rng.choice(elements)
            pairs.add((e, e))
        elif kind == "reverse" and pairs:
            a, b = rng.choice(sorted(pairs))
            pairs.add((b, a))
        elif kind == "drop" and pairs:
            pairs.discard(rng.choice(sorted(pairs)))
        elif kind == "extra":
            pairs.add((rng.choice(elements), rng.choice(elements)))
        elif kind == "raise" and n:
            pairs.add((rng.choice(elements), In(rng.randint(1, n))))
        elif kind == "lower" and vertices:
            pairs.add((STAR, rng.choice(vertices)))
        elif kind == "slot" and holes:
            vid = rng.choice(sorted(holes))
            label = holes[vid]
            if not label.arity:
                continue
            slots = list(label.visibility)
            i = rng.randrange(label.arity)
            e = rng.choice(elements)
            slots[i] = slots[i] ^ {e}
            holes[vid] = HoleLabel(label.var, label.arity, tuple(slots))
    return raw_poset(n, actions, holes, pairs)


def _shuffled(p: PosetWithHoles, rng: random.Random) -> PosetWithHoles:
    """``p`` with its vertex ids drawn afresh, stored as given."""
    ids = sorted(p.vertex_ids)
    moved = dict(zip(ids, rng.sample(range(1, 3 * len(ids) + 2), len(ids))))

    def move(e):
        return Vert(moved[e.vid]) if isinstance(e, Vert) else e

    holes = {
        moved[v]: HoleLabel(h.var, h.arity, tuple(frozenset(map(move, s)) for s in h.visibility))
        for v, h in p.holes
    }
    order = {(move(d), move(e)) for d, e in p.order}
    return raw_poset(p.n_inputs, {moved[v]: a for v, a in p.actions}, holes, order)


def _is_iso(p: PosetWithHoles, q: PosetWithHoles, witness: dict) -> bool:
    """The witness is a bijection of the vertices that keeps labels and
    maps the order and every visibility slot exactly onto ``q``'s."""
    def move(e):
        return Vert(witness[e.vid]) if isinstance(e, Vert) else e

    if sorted(witness) != sorted(p.vertex_ids) or sorted(witness.values()) != sorted(q.vertex_ids):
        return False
    if any(q.action_map.get(witness[v]) != a for v, a in p.actions):
        return False
    for v, h in p.holes:
        other = q.hole_map.get(witness[v])
        if other is None or (h.var, h.arity) != (other.var, other.arity):
            return False
        if [frozenset(map(move, s)) for s in h.visibility] != list(other.visibility):
            return False
    return {(move(d), move(e)) for d, e in p.order} == q.order


def _posets(seed: int, count: int):
    """Well-formed posets from ``genutil`` and ill-formed mutants of them."""
    rng = random.Random(seed)
    for _ in range(count):
        p = random_well_formed_poset(rng, max_vertices=6)
        yield p
        yield _mutant(p, rng)


def test_closure_agrees_with_the_pair_closure():
    rng = random.Random(61)
    for p in _posets(61, 150):
        n, actions, holes, pairs = _spec(p)
        # a few more pairs anywhere, so cycles and long paths come up too
        for _ in range(rng.randint(0, 3)):
            pairs.add((rng.choice(p.elements), rng.choice(p.elements)))
        holes = {v: (h.var, h.arity, h.visibility) for v, h in holes.items()}
        assert make_poset(n, actions, holes, pairs).order == pair_oracle._close_pairs(pairs)


CLAUSES = (
    "reflexive", "transitively", "not minimal", "not maximal", "misses the hole",
    "contains star", "downward-closed", "cycle through",
)


def test_well_formedness_messages_agree_with_the_pair_checks():
    seen = set()
    for p in _posets(62, 400):
        got = check_well_formed(p)
        assert got == pair_oracle.check_well_formed(p), p
        seen.update(clause for clause in CLAUSES if got and clause in got)
        seen.add(got is None)
    # well-formed posets and every clause's violation came up
    assert seen == {True, False, *CLAUSES}


def test_covering_pairs_agree_with_the_pair_search():
    for p in _posets(63, 150):
        if check_well_formed(p) is not None:
            continue
        covers = covering_pairs(p.down)
        got = {(p.elements[d], p.elements[e]) for e, m in enumerate(covers) for d in _ones(m)}
        assert got == pair_oracle.covering_pairs(p.order)


def _outcome(build):
    try:
        return build()
    except PosetError as exc:
        return str(exc)


def test_pomset_of_agrees_with_closing_the_pairs():
    rng = random.Random(64)
    names = [f"e{k}" for k in range(12)]
    errors = 0
    for _ in range(400):
        ids = rng.sample(names, rng.randint(1, 7))
        labels = {e: rng.choice("ab") for e in ids}
        pairs = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))}
        if rng.random() < 0.1:
            pairs.add((rng.choice(ids), "unknown"))
        got = _outcome(lambda: (lambda m: (m.labels, m.order))(Pomset.of(labels, pairs)))
        assert got == _outcome(lambda: pair_oracle.pomset_of(labels, pairs))
        errors += isinstance(got, str)
    assert errors >= 20


def _pairs(seed: int):
    rng = random.Random(seed)
    posets = list(_posets(seed, 60))
    for p in posets:
        yield p, _shuffled(p, rng)
        yield p, rng.choice(posets)


def test_iso_verdicts_agree_with_the_pair_search():
    seen = set()
    for p, q in _pairs(65):
        witness = iso_check(p, q)
        assert (witness is not None) == (pair_oracle.iso_check(p, q) is not None), (p, q)
        if witness is not None:
            assert _is_iso(p, q, witness)
        if check_well_formed(p) is None and check_well_formed(q) is None:
            # on well-formed posets the signatures are the old ones
            assert iso_quick_reject(p, q) == pair_oracle.iso_quick_reject(p, q)
        seen.add((check_well_formed(p) is None, witness is not None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_alike_actions_told_apart_by_visibility_alone():
    # k actions with one label and no order; one hole sees half of them,
    # against the mirrored half: only the visibility fixes the mapping
    for k in range(2, 17):
        p, q = limits.alike_actions_pair(k)
        witness = iso_check(p, q)
        assert witness is not None and _is_iso(p, q, witness), k


def test_a_pair_that_passes_the_quick_reject_can_still_differ():
    # m two-element chains of alike actions and a hole seeing two of the
    # actions: one whole chain, or the bottoms of two chains.  Every vertex
    # invariant agrees, so only the search can answer
    for m in (2, 3, 8):
        actions = {v: "s1" for v in range(1, 2 * m + 1)}
        chains = {(Vert(2 * i - 1), Vert(2 * i)) for i in range(1, m + 1)}
        p, q = (
            make_poset(0, actions, {2 * m + 1: ("x", 1, [seen])}, chains)
            for seen in ({Vert(1), Vert(2)}, {Vert(1), Vert(3)})
        )
        assert iso_quick_reject(p, q) is None
        assert iso_check(p, q) is None
        assert iso_check(p, p) is not None
        if m < 8:  # the pair search tries every matching of the chains
            assert pair_oracle.iso_check(p, q) is None


def test_pomset_iso_of_chains_and_antichains_longer_than_the_recursion_limit():
    n = 1500
    assert n > sys.getrecursionlimit()
    # ids that sort differently from the order, on one side
    mine = [f"e{k:05}" for k in range(n)]
    theirs = [f"f{(k * 7919) % n:05}" for k in range(n)]
    chains = [
        Pomset.of({e: f"s{k}" for k, e in enumerate(ids)}, zip(ids, ids[1:]))
        for ids in (mine, theirs)
    ]
    witness = chains[0].iso_to(chains[1])
    assert witness == dict(zip(mine, theirs))
    antichains = [Pomset.of({e: f"s{k}" for k, e in enumerate(ids)}, ()) for ids in (mine, theirs)]
    assert antichains[0].iso_to(antichains[1]) == dict(zip(mine, theirs))
    # a chain is not an antichain
    assert chains[0].iso_to(antichains[1]) is None


def test_erase_star_numbers_events_by_their_ids_as_strings():
    # twelve events in a chain: "10" and "11" sort before "2"
    ids = range(1, 13)
    p = make_poset(
        0, {v: f"s{v}" for v in ids}, {},
        {(Vert(v), Vert(v + 1)) for v in ids if v < 12} | {(Vert(12), STAR)},
    )
    expected = Pomset.of({str(v): f"s{v}" for v in ids}, {(str(v), str(v + 1)) for v in ids if v < 12})
    assert erase_star(p) == expected
    assert [e for e, _ in expected.labels] == sorted(map(str, ids))


def _closed_posets():
    """Closed, hole-free posets as ``interp`` builds them: the corpus
    denotations and random terms, and random ones from ``make_poset``."""
    for name in corpus_names():
        yield interp(denote(load_surface(name)).term, EMPTY_VARS, EMPTY_TIDS)
    rng = random.Random(29)
    for size in range(1, 40):
        for _ in range(8):
            yield interp(random_term(rng, EMPTY_VARS, EMPTY_TIDS, size), EMPTY_VARS, EMPTY_TIDS)
    for _ in range(200):
        yield random_well_formed_poset(rng, max_inputs=0, max_vertices=12, max_holes=0)


def test_erase_star_keeps_a_closed_acyclic_order():
    # erase_star builds its pomset without closing it again: dropping star
    # from a closed, acyclic order leaves one
    orders = 0
    for p in _closed_posets():
        down = erase_star(p).down
        assert list(down) == _close(down)
        assert not any(m >> k & 1 for k, m in enumerate(down))
        orders += any(down)
    assert orders > 150
