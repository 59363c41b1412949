"""The pair-set implementations that the bitset code of
:mod:`dynthreads.posets` replaced, kept as test oracles.

Each works on the pair view ``order`` of a poset, a frozenset of
``(below, above)`` references, the way the poset layer did before it held
one down-set mask per element: transitive closure by a search from every
element, the well-formedness conditions as pair comprehensions, the Hasse
diagram by a search for a middle element, and the isomorphism search that
checks the order among mapped vertices at each assignment and the whole
image, visibility included, only at the leaf.  Where the old code named an
arbitrary witness (``Pomset.of``'s cycle), the oracle names the least.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from dynthreads.posets import (
    STAR,
    In,
    PosetError,
    PosetWithHoles,
    Star,
    Vert,
)


def visibility_relation(p: PosetWithHoles) -> frozenset:
    """Pairs (e', e) where e is a hole and e' appears in a visibility set."""
    pairs = set()
    for vid, label in p.holes:
        hole = Vert(vid)
        for slot in label.visibility:
            pairs.update((e, hole) for e in slot)
    return frozenset(pairs)


def _close_pairs(pairs: set) -> frozenset:
    """Transitive closure of a set of strict pairs."""
    succs: dict = {}
    for a, b in pairs:
        succs.setdefault(a, set()).add(b)
    closed = set()
    for start in list(succs):
        seen: set = set()
        stack = list(succs[start])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succs.get(x, ()))
        closed.update((start, y) for y in seen)
    return frozenset(closed)


def _above(order: frozenset, e) -> frozenset:
    return frozenset(f for d, f in order if d == e)


def _below(order: frozenset, e) -> frozenset:
    return frozenset(d for d, f in order if f == e)


def check_well_formed(p: PosetWithHoles) -> Optional[str]:
    """Well-formedness on the pairs, first violated condition first."""
    order = p.order
    loops = [d for d, e in order if d == e]
    if loops:
        return f"order is reflexive at {min(loops)}"
    gaps = [(a, b, c) for a, b in order for c in _above(order, b) if (a, c) not in order]
    if gaps:
        a, b, c = min(gaps)
        return f"order not transitively closed: {a} < {b} < {c}"
    cycles = [(a, b) for a, b in order if (b, a) in order]
    if cycles:
        a, b = min(cycles)
        return f"order not antisymmetric: {a} and {b}"
    raised = [e.index for _, e in order if isinstance(e, In)]
    if raised:
        return f"input {min(raised)} is not minimal"
    if any(isinstance(d, Star) for d, _ in order):
        return "star is not maximal"
    for vid, label in p.holes:
        hole = Vert(vid)
        for i, slot in enumerate(label.visibility, start=1):
            if hole not in slot:
                return f"hole {label.var}(vertex {vid}) slot {i} misses the hole itself"
            if STAR in slot:
                return f"hole {label.var}(vertex {vid}) slot {i} contains star"
            open_below = [m for m in slot if not _below(order, m) <= slot]
            if open_below:
                missing = _below(order, min(open_below)) - slot
                return (
                    f"hole {label.var}(vertex {vid}) slot {i} not downward-closed: "
                    f"misses {sorted(missing)}"
                )
    combined = _close_pairs(set(order) | set(visibility_relation(p)))
    cycles = [(a, b) for a, b in combined if a != b and (b, a) in combined]
    if cycles:
        a, b = min(cycles)
        return f"visibility and order form a cycle through {a} and {b}"
    return None


def covering_pairs(order: frozenset) -> set:
    """The Hasse diagram of a transitively closed strict order."""
    order_set = set(order)
    members = {a for a, _ in order_set} | {b for _, b in order_set}
    return {
        (a, b)
        for (a, b) in order_set
        if not any((a, c) in order_set and (c, b) in order_set for c in members)
    }


def pomset_of(labels: dict, order) -> tuple[tuple, frozenset]:
    """``Pomset.of`` on pairs: the sorted labels and the closed order, or
    the :class:`PosetError` it raises."""
    known = set(labels)
    for a, b in order:
        if a not in known or b not in known:
            raise PosetError(f"order pair ({a},{b}) mentions unknown elements")
    closed = _close_pairs(set(order))
    loops = [a for a, b in closed if a == b]
    if loops:
        raise PosetError(f"pomset order has a cycle at {min(loops)}")
    return tuple(sorted(labels.items())), closed


def _vertex_signature(p: PosetWithHoles, vid: int) -> tuple:
    ref = Vert(vid)
    below = _below(p.order, ref)
    above = _above(p.order, ref)
    inputs_below = frozenset(e.index for e in below if isinstance(e, In))
    below_star = ref in _below(p.order, STAR)
    if vid in p.action_map:
        head: tuple = ("act", p.action_map[vid])
        slots_profile: tuple = ()
    else:
        label = p.hole_map[vid]
        head = ("hole", label.var, label.arity)
        slots_profile = tuple(
            (
                frozenset(e.index for e in slot if isinstance(e, In)),
                sum(1 for e in slot if isinstance(e, Vert)),
            )
            for slot in label.visibility
        )
    n_vert_below = sum(1 for e in below if isinstance(e, Vert))
    n_vert_above = sum(1 for e in above if isinstance(e, Vert))
    return (head, inputs_below, below_star, n_vert_below, n_vert_above, slots_profile)


def iso_quick_reject(p: PosetWithHoles, q: PosetWithHoles) -> Optional[str]:
    """Cheap invariant comparison on the pairs."""
    if p.n_inputs != q.n_inputs:
        return f"input counts differ: {p.n_inputs} vs {q.n_inputs}"
    pa = sorted(label for _, label in p.actions)
    qa = sorted(label for _, label in q.actions)
    if pa != qa:
        return f"action label multisets differ: {pa} vs {qa}"
    ph = sorted((h.var, h.arity) for _, h in p.holes)
    qh = sorted((h.var, h.arity) for _, h in q.holes)
    if ph != qh:
        return f"hole label multisets differ: {ph} vs {qh}"
    if len(p.order) != len(q.order):
        return f"order sizes differ: {len(p.order)} vs {len(q.order)}"
    p_fixed = {(d, e) for (d, e) in p.order if not isinstance(d, Vert) and not isinstance(e, Vert)}
    q_fixed = {(d, e) for (d, e) in q.order if not isinstance(d, Vert) and not isinstance(e, Vert)}
    if p_fixed != q_fixed:
        return "order between inputs and star differs"
    p_sig = Counter(_vertex_signature(p, v) for v in p.vertex_ids)
    q_sig = Counter(_vertex_signature(q, v) for v in q.vertex_ids)
    if p_sig != q_sig:
        return "vertex invariant signatures differ"
    return None


def iso_check(p: PosetWithHoles, q: PosetWithHoles) -> Optional[dict]:
    """The recursive backtracking search on pairs, after the quick reject."""
    if iso_quick_reject(p, q) is not None:
        return None
    p_sig = {v: _vertex_signature(p, v) for v in p.vertex_ids}
    q_sig = {w: _vertex_signature(q, w) for w in q.vertex_ids}
    candidates = {
        v: [w for w in sorted(q.vertex_ids) if q_sig[w] == p_sig[v]] for v in p.vertex_ids
    }
    if any(not c for c in candidates.values()):
        return None
    todo = sorted(candidates, key=lambda v: (len(candidates[v]), v))

    p_less, q_less = (
        {(d.vid, e.vid) for d, e in r.order if isinstance(d, Vert) and isinstance(e, Vert)}
        for r in (p, q)
    )

    def consistent(v: int, w: int, mapping: dict[int, int]) -> bool:
        for u, x in mapping.items():
            if ((u, v) in p_less) != ((x, w) in q_less):
                return False
            if ((v, u) in p_less) != ((w, x) in q_less):
                return False
        return True

    def translate(e, mapping: dict[int, int]):
        return Vert(mapping[e.vid]) if isinstance(e, Vert) else e

    def full_check(mapping: dict[int, int]) -> bool:
        image = {(translate(d, mapping), translate(e, mapping)) for (d, e) in p.order}
        if image != set(q.order):
            return False
        for vid, label in p.holes:
            other = q.hole_map[mapping[vid]]
            if (label.var, label.arity) != (other.var, other.arity):
                return False
            for slot, oslot in zip(label.visibility, other.visibility):
                if {translate(e, mapping) for e in slot} != set(oslot):
                    return False
        return True

    used: set[int] = set()
    mapping: dict[int, int] = {}

    def search(k: int) -> bool:
        if k == len(todo):
            return full_check(mapping)
        v = todo[k]
        for w in candidates[v]:
            if w in used or not consistent(v, w, mapping):
                continue
            mapping[v] = w
            used.add(w)
            if search(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if search(0) else None
