"""Labelled posets with holes: the semantic model of dynamic threads.

A poset here has ``n`` input elements (free thread IDs), action-labelled
vertices, hole vertices labelled by computation variables, and a single
distinguished maximal element ``star`` marking the end of the main thread.
Holes carry one *visibility set* per argument slot: the elements whose
completion the substituted continuation may wait on (drawn dotted in diagrams; not part of the causal order).

The module provides:

* well-formedness checking and isomorphism search;
* the relabelling action along a finite relation, making posets a functor
  on worlds of thread IDs;
* the four model operations (fork/wait/stop/act), the paper's algebra;
* ``interp`` from terms to posets, ``reify`` back to normal forms, and the
  decision procedure ``decide_equal`` for the equational theory;
* substitution of a poset for a hole;
* JSON and DOT serialization, plus plain pomsets for run observations.

Causal order is stored strict and transitively closed at all times, and
hole visibility sets are kept downward-closed and containing their hole.
The trusted constructor :func:`make_poset` closes the order it is given;
:func:`_poset_from_closed` takes an order that is already closed.  Both
down-close the visibility sets and check every reference.  The model
operations (``op_stop``, ``op_act``, ``op_wait``, ``op_fork``, ``relabel``)
use only the second: on well-formed arguments (inputs minimal, star
maximal, order closed) each of them yields a closed order, as its
docstring argues, so no operation closes again.

``interp`` does not compose the model operations.  It gives the term the
meaning their composition gives it, but builds each vertex's down-set once,
in one walk over the term, and calls :func:`_poset_from_closed` once on the
result; its docstring argues that the two agree.  The composition itself
is kept as the test oracle.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Union

from .tids import ParamContext, Relation
from .terms import (
    Act,
    CompContext,
    Fork,
    Stop,
    STOP,
    Term,
    Var,
    Wait,
    comp_vars,
    fresh_name,
    scope_check,
    subst_comp,
)


class PosetError(Exception):
    """Structural errors: malformed references, dimension mismatches."""


class IllFormed(PosetError):
    """A well-formedness condition is violated where one is required."""


# --- element references -----------------------------------------------------
#
# A reference is a tagged pair ``(tag, n)``, so hashing, equality and
# ordering run in C: references sort inputs by index, then vertices by id,
# then star.

class _Ref(tuple):
    """Base of the references: a subclass sets its ``_tag`` and names the
    field that ``n`` holds in ``__match_args__`` (none for star, whose
    ``n`` is 0)."""

    __slots__ = ()
    _tag: int
    __match_args__: tuple = ()

    def __new__(cls, n: int = 0) -> "_Ref":
        return tuple.__new__(cls, (cls._tag, n))

    def __getnewargs__(self) -> tuple:
        return self[1 : 1 + len(self.__match_args__)]

    def __repr__(self) -> str:
        fields = "".join(f"{name}={self[1]!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class In(_Ref):
    """The i-th input element (1-based)."""

    __slots__ = ()
    _tag = 0
    __match_args__ = ("index",)
    index = property(itemgetter(1))


class Vert(_Ref):
    """A labelled vertex (action or hole) by numeric id."""

    __slots__ = ()
    _tag = 1
    __match_args__ = ("vid",)
    vid = property(itemgetter(1))


class Star(_Ref):
    """The end-of-main-thread marker; unique and maximal."""

    __slots__ = ()
    _tag = 2


STAR = Star()

ElemRef = Union[In, Vert, Star]


@dataclass(frozen=True)
class HoleLabel:
    var: str
    arity: int
    visibility: tuple[frozenset, ...]  # one frozenset[ElemRef] per slot

    def __post_init__(self) -> None:
        if len(self.visibility) != self.arity:
            raise PosetError(
                f"hole {self.var}: {len(self.visibility)} visibility sets for arity {self.arity}"
            )


@dataclass(frozen=True)
class PosetWithHoles:
    """A labelled poset with holes; ``order`` holds strict pairs."""

    n_inputs: int
    actions: tuple[tuple[int, str], ...]  # (vertex id, action label), sorted
    holes: tuple[tuple[int, HoleLabel], ...]  # (vertex id, label), sorted
    order: frozenset  # frozenset[tuple[ElemRef, ElemRef]]

    @cached_property
    def action_map(self) -> dict[int, str]:
        return dict(self.actions)

    @cached_property
    def hole_map(self) -> dict[int, HoleLabel]:
        return dict(self.holes)

    @cached_property
    def vertex_ids(self) -> frozenset[int]:
        return frozenset(self.action_map) | frozenset(self.hole_map)

    @cached_property
    def _neighbours(self) -> tuple[dict, dict]:
        """The elements below and above each element, indexed in one pass
        over ``order``."""
        below: dict = {}
        above: dict = {}
        for d, f in self.order:
            below.setdefault(f, set()).add(d)
            above.setdefault(d, set()).add(f)
        return (
            {e: frozenset(s) for e, s in below.items()},
            {e: frozenset(s) for e, s in above.items()},
        )

    @cached_property
    def _signatures(self) -> dict[int, tuple]:
        """:func:`_vertex_signature` of every vertex."""
        return {v: _vertex_signature(self, v) for v in self.vertex_ids}

    def below(self, e: ElemRef) -> frozenset:
        return self._neighbours[0].get(e, frozenset())

    def above(self, e: ElemRef) -> frozenset:
        return self._neighbours[1].get(e, frozenset())

    def validate_refs(self) -> None:
        """Raise :class:`PosetError` on overlapping vertex ids and on
        out-of-range, unknown or malformed references."""
        if len(self.vertex_ids) != len(self.actions) + len(self.holes):
            raise PosetError("action and hole vertex ids overlap")
        refs = set(chain.from_iterable(self.order))
        for _, label in self.holes:
            refs.update(*label.visibility)
        for e in refs:
            self._check_ref(e)

    def _check_ref(self, e: ElemRef) -> None:
        match e:
            case In(i):
                if not 1 <= i <= self.n_inputs:
                    raise PosetError(f"input {i} out of range 1..{self.n_inputs}")
            case Vert(v):
                if v not in self.vertex_ids:
                    raise PosetError(f"unknown vertex id {v}")
            case Star():
                pass
            case _:
                raise PosetError(f"not an element reference: {e!r}")


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


def label_paths(start, successors: Callable) -> frozenset:
    """The label sequences of the maximal paths from ``start`` in an acyclic
    graph, where ``successors(s)`` lists the ``(label, next)`` steps out of
    ``s`` and a ``None`` label adds nothing to a sequence.

    The sets are folded in reverse topological order, depth first with an
    explicit stack (so path length is not bounded by the recursion limit),
    once per state; a state whose one step is silent shares its
    successor's set."""
    memo: dict = {}
    stack: list = [(start, None)]
    while stack:
        s, steps = stack[-1]
        if s in memo:
            stack.pop()
            continue
        if steps is None:
            # first visit: come back once every successor has its set
            steps = successors(s)
            stack[-1] = (s, steps)
            pending = [(nxt, None) for _, nxt in steps if nxt not in memo]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        if not steps:
            memo[s] = frozenset({()})
        elif len(steps) == 1 and steps[0][0] is None:
            memo[s] = memo[steps[0][1]]
        else:
            memo[s] = frozenset(
                rest if label is None else (label,) + rest
                for label, nxt in steps
                for rest in memo[nxt]
            )
    return memo[start]


def make_poset(
    n_inputs: int,
    actions: Mapping[int, str],
    holes: Mapping[int, tuple[str, int, Iterable[frozenset]]] | Mapping[int, HoleLabel],
    order: Iterable[tuple],
) -> PosetWithHoles:
    """Trusted constructor: closes the order transitively, then builds the
    poset as :func:`_poset_from_closed` does (visibility sets normalized to
    contain their hole and be downward-closed, references checked)."""
    return _poset_from_closed(n_inputs, actions, holes, _close_pairs(set(order)))


def _poset_from_closed(
    n_inputs: int,
    actions: Mapping[int, str],
    holes: Mapping[int, tuple[str, int, Iterable[frozenset]]] | Mapping[int, HoleLabel],
    closed: frozenset,
) -> PosetWithHoles:
    """:func:`make_poset` for an order the caller has already closed
    transitively: normalizes each visibility set to contain its hole and be
    downward-closed, and checks every reference, but does not close the
    order again."""
    hole_entries = []
    if holes:
        below: dict = {}
        for d, e in closed:
            below.setdefault(e, set()).add(d)
    for vid, label in holes.items():
        if not isinstance(label, HoleLabel):
            var, arity, slots = label
            label = HoleLabel(var, arity, tuple(frozenset(s) for s in slots))
        slots = []
        for slot in label.visibility:
            # ``below`` indexes the closed order, so one union is down-closed
            members = set(slot) | {Vert(vid)}
            slots.append(frozenset(members.union(*(below.get(m, ()) for m in members))))
        hole_entries.append((vid, HoleLabel(label.var, label.arity, tuple(slots))))

    poset = PosetWithHoles(
        n_inputs,
        tuple(sorted(actions.items())),
        tuple(sorted(hole_entries)),
        closed,
    )
    poset.validate_refs()
    return poset


def raw_poset(
    n_inputs: int,
    actions: Mapping[int, str],
    holes: Mapping[int, HoleLabel],
    order: Iterable[tuple],
) -> PosetWithHoles:
    """Untrusted constructor: stores the data as given (for loading and for
    deliberately ill-formed test posets)."""
    poset = PosetWithHoles(
        n_inputs,
        tuple(sorted(actions.items())),
        tuple(sorted(holes.items())),
        frozenset(order),
    )
    poset.validate_refs()
    return poset


# --- well-formedness --------------------------------------------------------

def visibility_relation(p: PosetWithHoles) -> frozenset:
    """Pairs (e', e) where e is a hole and e' appears in a visibility set."""
    pairs = set()
    for vid, label in p.holes:
        hole = Vert(vid)
        for slot in label.visibility:
            pairs.update((e, hole) for e in slot)
    return frozenset(pairs)


def check_well_formed(p: PosetWithHoles) -> Optional[str]:
    """Return ``None`` if well-formed, else a description of the first
    violated condition.

    Where a condition fails at several places, the witness named is the
    least one in reference order, so the message does not depend on how
    sets happen to iterate.
    """
    p.validate_refs()
    order = p.order
    loops = [d for d, e in order if d == e]
    if loops:
        return f"order is reflexive at {min(loops)}"
    gaps = [(a, b, c) for a, b in order for c in p.above(b) if (a, c) not in order]
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
            open_below = [m for m in slot if not p.below(m) <= slot]
            if open_below:
                missing = p.below(min(open_below)) - slot
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


def require_well_formed(p: PosetWithHoles) -> PosetWithHoles:
    violation = check_well_formed(p)
    if violation:
        raise IllFormed(violation)
    return p


# --- isomorphism ------------------------------------------------------------

def _vertex_signature(p: PosetWithHoles, vid: int) -> tuple:
    ref = Vert(vid)
    below = p.below(ref)
    above = p.above(ref)
    inputs_below = frozenset(e.index for e in below if isinstance(e, In))
    below_star = ref in p.below(STAR)
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
    """Cheap invariant comparison; a message means definitely not isomorphic."""
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
    if Counter(p._signatures.values()) != Counter(q._signatures.values()):
        return "vertex invariant signatures differ"
    return None


def iso_check(p: PosetWithHoles, q: PosetWithHoles) -> Optional[dict]:
    """Search for an isomorphism fixing inputs and star pointwise.

    Returns a vertex-id mapping ``{p_vid: q_vid}`` or ``None``.  Labels,
    hole variables, slot-wise visibility, and the order (both directions)
    must all be preserved.
    """
    if iso_quick_reject(p, q) is not None:
        return None
    return _iso_search(p, q)


def _iso_search(p: PosetWithHoles, q: PosetWithHoles) -> Optional[dict]:
    """The backtracking search of :func:`iso_check`, for a pair that
    :func:`iso_quick_reject` has passed."""
    p_sig = p._signatures
    q_sig = q._signatures
    candidates = {
        v: [w for w in q.vertex_ids if q_sig[w] == p_sig[v]] for v in p.vertex_ids
    }
    if any(not c for c in candidates.values()):
        return None
    todo = sorted(candidates, key=lambda v: (len(candidates[v]), v))

    p_order = p.order
    q_order = q.order
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

    def translate(e: ElemRef, mapping: dict[int, int]) -> ElemRef:
        return Vert(mapping[e.vid]) if isinstance(e, Vert) else e

    def full_check(mapping: dict[int, int]) -> bool:
        image = {(translate(d, mapping), translate(e, mapping)) for (d, e) in p_order}
        if image != set(q_order):
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


# --- functorial action and model operations ---------------------------------

def relabel(p: PosetWithHoles, r: Relation) -> PosetWithHoles:
    """Re-point the inputs along ``r``: a pair ``i < e`` becomes ``i' < e``
    for every ``(i, i')`` in the relation, and visibility sets follow.

    The order stays closed without closing it again.  Inputs are minimal,
    so the middle ``b`` of two new pairs ``a < b < c`` is not an input and
    ``b < c`` is an old pair.  If ``a`` is not an input, ``a < b`` is old
    too, and so is ``a < c``.  If ``a`` is input ``i'``, it comes from some
    ``i < b`` with ``(i, i')`` in ``r``; the old ``i < c`` then gives
    ``i' < c``.
    """
    if r.src != p.n_inputs:
        raise PosetError(f"relation source {r.src} != inputs {p.n_inputs}")
    images: dict = {In(i): [] for i in range(1, r.src + 1)}
    for i, j in r.pairs:
        images[In(i)].append(In(j))

    def through(refs: Iterable[ElemRef]) -> set:
        out: set = set()
        for e in refs:
            if e in images:
                out.update(images[e])
            else:
                out.add(e)
        return out

    order = set()
    for d, e in p.order:
        if d in images:
            order.update((d2, e) for d2 in images[d])
        else:
            order.add((d, e))
    holes = {
        vid: (label.var, label.arity, [through(slot) for slot in label.visibility])
        for vid, label in p.holes
    }
    return _poset_from_closed(r.dst, dict(p.actions), holes, frozenset(order))


def op_stop(n: int) -> PosetWithHoles:
    """Discrete poset: just the ``n`` inputs and star."""
    return _poset_from_closed(n, {}, {}, frozenset())


def op_act(label: str, n: int) -> PosetWithHoles:
    """One action vertex directly below star; inputs unconnected."""
    return _poset_from_closed(n, {1: label}, {}, frozenset({(Vert(1), STAR)}))


def op_wait(p: PosetWithHoles) -> PosetWithHoles:
    """Add input ``n+1`` below every labelled vertex and below star.

    The order stays closed without closing it again: the new input is
    minimal and already lies below every element that is not an input.
    """
    n = p.n_inputs
    new = In(n + 1)
    order = p.order.union([(new, Vert(v)) for v in p.vertex_ids], [(new, STAR)])
    holes = {vid: (h.var, h.arity, h.visibility) for vid, h in p.holes}
    return _poset_from_closed(n + 1, dict(p.actions), holes, order)


def op_fork(p: PosetWithHoles, q: PosetWithHoles) -> PosetWithHoles:
    """Fork: run ``q`` as a child whose ID is input ``n+1`` of parent ``p``.

    Everything below ``q``'s star ends up below everything above the
    consumed input; the input and ``q``'s star then disappear.

    The order stays closed without closing it again.  It is the union of
    ``p``'s pairs not leaving the dead input, ``q``'s pairs not ending at
    its star (vertices shifted), and the cross pairs from the set ``B``
    below ``q``'s star to the set ``A`` above the dead input.  Take two
    pairs ``a < b < c``; ``b`` is no input, as inputs are minimal.  If
    ``b`` is one of ``p``'s vertices or star, ``b < c`` is ``p``'s (no pair
    leads from ``p`` back into ``q``), and ``a < c`` is ``p``'s if
    ``a < b`` is, or a cross pair if ``a < b`` is one, because ``A`` is
    closed upwards in ``p``.  If ``b`` is one of ``q``'s vertices,
    ``a < b`` is ``q``'s, and ``a < c`` is ``q``'s if ``b < c`` is, or a
    cross pair if ``b < c`` is one, because ``B`` is closed downwards in
    ``q``.
    """
    n = q.n_inputs
    if p.n_inputs != n + 1:
        raise PosetError(f"fork arity: parent has {p.n_inputs} inputs, child {q.n_inputs}")
    offset = max(p.vertex_ids, default=0)
    shifted = {Vert(v): Vert(v + offset) for v in q.vertex_ids}
    shift = shifted.get

    dead = In(n + 1)
    below_child_star = {shift(d, d) for (d, e) in q.order if e == STAR}
    above_dead = {e for (d, e) in p.order if d == dead}

    actions = dict(p.actions)
    actions.update({vid + offset: label for vid, label in q.actions})
    holes: dict = {}
    for vid, label in p.holes:
        slots = []
        for slot in label.visibility:
            if dead in slot:
                slot = (slot - {dead}) | below_child_star
            slots.append(slot)
        holes[vid] = (label.var, label.arity, slots)
    for vid, label in q.holes:
        slots = [frozenset(shift(e, e) for e in slot) for slot in label.visibility]
        holes[vid + offset] = (label.var, label.arity, slots)

    order = {pair for pair in p.order if pair[0] != dead}
    order.update((shift(d, d), shift(e, e)) for d, e in q.order if e != STAR)
    order.update(product(below_child_star, above_dead))
    return _poset_from_closed(n, actions, holes, frozenset(order))


# --- interpretation of terms -------------------------------------------------

def interp(term: Term, gamma: CompContext, delta: ParamContext) -> PosetWithHoles:
    """Interpret a term as a labelled poset over ``len(delta)`` inputs.

    One walk over the term gives every vertex its down-set directly.  It
    carries ``below``, the down-set of the current point (the waits above
    it), and ``done``, the down-set of each thread name's completion:
    ``{In(i)}`` for input ``i``, and for a fork binder the completion that
    its child's walk returned.

    * ``wait(E, t)`` walks ``t`` with ``below`` joined with ``done[x]``
      for each ``x`` in ``E``;
    * ``fork(b. t, u)`` walks ``u`` with the same ``below``, then ``t``
      with ``b`` done at ``u``'s completion;
    * an action or hole gets ``below`` as its down-set and completes at
      ``below`` plus itself; each slot of a hole holds the hole, ``below``
      and ``done`` of the slot's names;
    * ``stop`` completes at ``below``, and star lies above the main
      thread's completion.

    Vertices are numbered as the composition numbers them: at a fork, the
    parent's vertices come before the child's.  The walk takes the child
    first, so it meets the vertices in decreasing order of their numbers
    and counts down from the number of actions and holes in the term.

    Each down-set is closed, as ``below`` and every completion are unions
    of down-sets, built up from the empty set and from minimal inputs.
    Each down-set also equals the one the model operations compose.
    ``op_wait`` then ``relabel`` put the guard's inputs below everything
    under the wait, which is joining ``done[a]`` into ``below`` for an
    input ``a``.  ``op_fork`` puts everything below the child's star under
    everything above the consumed input, which is joining ``done[b]`` for
    the binder ``b``.  The child is interpreted over the fork's own inputs,
    so every wait around the fork lies below the child's vertices too: the
    child inherits ``below``.  :func:`_poset_from_closed` runs once on the
    result, closing slots downwards and checking every reference.

    The walk, the count and :func:`scope_check` use explicit stacks, so
    term depth is not bounded by the recursion limit.
    """
    scope_check(term, gamma, delta)
    actions: dict = {}
    holes: dict = {}
    downs: list = []  # (element, its down-set) for each vertex and star
    # scope_check rejects a binder that shadows a name in scope, so nothing
    # walked inside a binder's scope rebinds it: one map serves every thread
    done = {name: frozenset({In(i)}) for i, name in enumerate(delta.names, start=1)}
    forks: list = []  # forks whose child is being walked, parent still to go
    t, below, vid = term, frozenset(), _leaf_count(term)
    while True:
        match t:
            case Wait(guard, cont):
                below = below.union(*(done[x] for x in guard))
                t = cont
                continue
            case Fork(binder, parent, child):
                forks.append((binder, parent, below))
                t = child
                continue
            case Act(label):
                actions[vid] = label
            case Var(name, args):
                slots = [below.union(*(done[x] for x in u), (Vert(vid),)) for u in args]
                holes[vid] = (name, len(args), slots)
        if not isinstance(t, Stop):
            v = Vert(vid)
            downs.append((v, below))
            below = below | {v}
            vid -= 1
        if not forks:
            break
        binder, t, parent_below = forks.pop()
        done[binder], below = below, parent_below
    downs.append((STAR, below))
    order = frozenset((d, e) for e, down in downs for d in down)
    return _poset_from_closed(len(delta), actions, holes, order)


def _leaf_count(term: Term) -> int:
    """The number of actions and holes in a term."""
    count = 0
    stack = [term]
    while stack:
        match stack.pop():
            case Fork(_, parent, child):
                stack += (parent, child)
            case Wait(_, cont):
                stack.append(cont)
            case Act() | Var():
                count += 1
    return count


# --- normal forms -------------------------------------------------------------

@dataclass(frozen=True)
class Bnd:
    """Reference to the j-th forked child of a normal form (1-based)."""

    index: int


NfRef = Union[In, Bnd]


def _nf_ref_str(e: NfRef) -> str:
    return f"a{e.index}" if isinstance(e, In) else f"b{e.index}"


@dataclass(frozen=True)
class NfAct:
    label: str


@dataclass(frozen=True)
class NfVarApp:
    var: str
    args: tuple[frozenset, ...]  # frozenset[NfRef] per slot


@dataclass(frozen=True)
class NfChild:
    guard: frozenset  # frozenset[NfRef]
    body: Union[NfAct, NfVarApp]


@dataclass(frozen=True)
class NormalForm:
    """The fork-chain shape: ``p`` children (each one action or one variable
    call guarded by a compound ID), then a final wait before stop."""

    n_inputs: int
    children: tuple[NfChild, ...]
    final_guard: frozenset  # frozenset[NfRef]

    def check_closure(self) -> Optional[str]:
        """The closure conditions: guards are transitively propagated into
        later guards and into the argument sets of variable calls."""
        guards = [c.guard for c in self.children]

        def closed_into(target: frozenset, where: str) -> Optional[str]:
            for e in target:
                if isinstance(e, Bnd) and not guards[e.index - 1] <= target:
                    return f"guard of child {e.index} not included in {where}"
            return None

        for i, child in enumerate(self.children, start=1):
            bad = closed_into(child.guard, f"guard of child {i}")
            if bad:
                return bad
            if isinstance(child.body, NfVarApp):
                for k, arg in enumerate(child.body.args, start=1):
                    bad = closed_into(arg, f"argument {k} of child {i}")
                    if bad:
                        return bad
                    if not child.guard <= arg:
                        return f"guard of child {i} not included in its argument {k}"
        return closed_into(self.final_guard, "the final guard")


def reify(p: PosetWithHoles) -> NormalForm:
    """Linearize a well-formed poset into a normal form.

    Children are emitted in a topological order of ``order`` together with
    the visibility relation, tie-broken on (label kind, label, guard) so the
    output is deterministic: the least ready vertex comes next.  A vertex's
    key is computed once, when it becomes ready, and is final then: its
    guard lies below it in the closed ``order``, so every vertex of it has
    been emitted."""
    require_well_formed(p)
    # direct predecessors suffice for a topological order; ``order`` is closed
    waiting = {Vert(v): 0 for v in p.vertex_ids}
    successors: dict = {}
    for d, e in p.order | visibility_relation(p):
        if e in waiting and isinstance(d, Vert) and d != e:
            waiting[e] += 1
            successors.setdefault(d, []).append(e)

    index: dict[ElemRef, int] = {}

    def translate(refs: Iterable[ElemRef]) -> frozenset:
        out = set()
        for e in refs:
            if isinstance(e, In):
                out.add(e)
            else:
                out.add(Bnd(index[e]))
        return frozenset(out)

    def guard_of(v: ElemRef) -> frozenset:
        return translate(d for d in p.below(v) if not isinstance(d, Star))

    def entry(v: ElemRef) -> tuple:
        vid = v.vid
        if vid in p.action_map:
            head = (0, p.action_map[vid], 0)
        else:
            label = p.hole_map[vid]
            head = (1, label.var, label.arity)
        guard = guard_of(v)
        return (head, sorted(map(_nf_ref_str, guard)), vid, guard)

    ready = [entry(v) for v, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    children: list[NfChild] = []
    while ready:
        _, _, vid, guard = heapq.heappop(ready)
        v = Vert(vid)
        index[v] = len(children) + 1
        if vid in p.action_map:
            body: Union[NfAct, NfVarApp] = NfAct(p.action_map[vid])
        else:
            label = p.hole_map[vid]
            body = NfVarApp(
                label.var,
                tuple(translate(slot - {v}) for slot in label.visibility),
            )
        children.append(NfChild(guard, body))
        for w in successors.get(v, ()):
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, entry(w))
    if len(children) < len(waiting):
        raise IllFormed("cannot linearize: visibility and order form a cycle")

    final_guard = translate(d for d in p.below(STAR))
    nf = NormalForm(p.n_inputs, tuple(children), final_guard)
    bad = nf.check_closure()
    if bad:
        raise IllFormed(f"reified normal form breaks closure: {bad}")
    return nf


def nf_to_term(
    nf: NormalForm, input_names: tuple[str, ...] | None = None
) -> tuple[CompContext, ParamContext, Term]:
    """The inclusion of a normal form back into term syntax."""
    if input_names is None:
        input_names = tuple(f"a{i}" for i in range(1, nf.n_inputs + 1))
    if len(input_names) != nf.n_inputs:
        raise PosetError(f"{len(input_names)} names for {nf.n_inputs} inputs")
    binder_names: list[str] = []
    taken = set(input_names)
    for j in range(1, len(nf.children) + 1):
        name = fresh_name(f"b{j}", taken)
        taken.add(name)
        binder_names.append(name)

    def name_of(e: NfRef) -> str:
        return input_names[e.index - 1] if isinstance(e, In) else binder_names[e.index - 1]

    def names(refs: frozenset) -> frozenset[str]:
        return frozenset(name_of(e) for e in refs)

    vars_seen: dict[str, int] = {}
    term: Term = Wait(names(nf.final_guard), STOP)
    for j in range(len(nf.children), 0, -1):
        child = nf.children[j - 1]
        if isinstance(child.body, NfAct):
            body: Term = Act(child.body.label)
        else:
            body = Var(child.body.var, tuple(names(a) for a in child.body.args))
            arity = len(child.body.args)
            if vars_seen.setdefault(child.body.var, arity) != arity:
                raise PosetError(f"variable {child.body.var} used at two arities")
        term = Fork(binder_names[j - 1], term, Wait(names(child.guard), body))

    gamma = CompContext(tuple(sorted(vars_seen.items())))
    return gamma, ParamContext(tuple(input_names)), term


def normalize(term: Term, gamma: CompContext, delta: ParamContext) -> NormalForm:
    """The canonical normal form of a term: reify its interpretation."""
    return reify(interp(term, gamma, delta))


def print_normal_form(nf: NormalForm) -> str:
    """Readable one-line-per-child rendering."""
    lines = [f"inputs {nf.n_inputs}"]
    for j, child in enumerate(nf.children, start=1):
        guard = _print_refs(child.guard)
        if isinstance(child.body, NfAct):
            body = f"act[{child.body.label}]"
        else:
            body = f"{child.body.var}({', '.join(_print_refs(a) for a in child.body.args)})"
        lines.append(f"b{j}: wait({guard}) {body}")
    lines.append(f"main: wait({_print_refs(nf.final_guard)}) stop")
    return "\n".join(lines)


def _print_refs(refs: frozenset) -> str:
    items = sorted(map(_nf_ref_str, refs))
    return " + ".join(items) if items else "0"


# --- equality decision --------------------------------------------------------

@dataclass(frozen=True)
class Equality:
    equal: bool
    witness: Optional[dict]
    evidence: Optional[str]


def decide_equal(
    t1: Term, t2: Term, gamma: CompContext, delta: ParamContext
) -> Equality:
    """Decide derivable equality by isomorphism of interpretations."""
    p1 = interp(t1, gamma, delta)
    p2 = interp(t2, gamma, delta)
    return decide_equal_posets(p1, p2)


def decide_equal_posets(p1: PosetWithHoles, p2: PosetWithHoles) -> Equality:
    reason = iso_quick_reject(p1, p2)
    if reason is not None:
        return Equality(False, None, reason)
    witness = _iso_search(p1, p2)
    if witness is None:
        return Equality(False, None, "no label/order/visibility-preserving matching exists")
    return Equality(True, witness, None)


# --- substitution of a poset for a hole ---------------------------------------

def poset_subst(
    host: PosetWithHoles, var: str, arity: int, guest: PosetWithHoles
) -> PosetWithHoles:
    """Substitute ``guest`` (over ``n + arity`` inputs) for every hole
    labelled ``var`` in ``host`` (over ``n`` inputs): reify both, substitute
    at the term level, interpret back."""
    n = host.n_inputs
    if guest.n_inputs != n + arity:
        raise PosetError(
            f"guest has {guest.n_inputs} inputs, expected {n} + {arity}"
        )
    for _, label in host.holes:
        if label.var == var and label.arity != arity:
            raise PosetError(
                f"hole {var} has arity {label.arity}, substitution expects {arity}"
            )

    input_names = tuple(f"a{i}" for i in range(1, n + 1))
    slot_names = tuple(f"s{i}" for i in range(1, arity + 1))
    gamma_h, delta_h, t_host = nf_to_term(reify(host), input_names)
    gamma_g, _, t_guest = nf_to_term(reify(guest), input_names + slot_names)

    result = subst_comp(
        t_host, slot_names, t_guest, var, avoid_extra=frozenset(delta_h.names)
    )

    arities: dict[str, int] = {}
    for name, m in gamma_h.entries:
        if name != var:
            arities[name] = m
    for name, m in gamma_g.entries:
        if arities.setdefault(name, m) != m:
            raise PosetError(f"variable {name} used at two arities")
    used = comp_vars(result)
    gamma = CompContext(tuple(sorted((v, arities[v]) for v in used)))
    return interp(result, gamma, delta_h)


# --- plain pomsets (observations) ----------------------------------------------

@dataclass(frozen=True)
class Pomset:
    """A plain labelled poset: elements with labels and a strict order."""

    labels: tuple[tuple[str, str], ...]  # (element, label), sorted
    order: frozenset  # frozenset[tuple[str, str]] strict, transitively closed

    @cached_property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    @cached_property
    def element_ids(self) -> frozenset[str]:
        return frozenset(self.label_map)

    @staticmethod
    def of(labels: Mapping[str, str], order: Iterable[tuple[str, str]]) -> "Pomset":
        closed = _close_pairs(set(order))
        for a, b in closed:
            if a == b:
                raise PosetError(f"pomset order has a cycle at {a}")
        known = set(labels)
        for a, b in closed:
            if a not in known or b not in known:
                raise PosetError(f"order pair ({a},{b}) mentions unknown elements")
        return Pomset(tuple(sorted(labels.items())), closed)

    @cached_property
    def _as_poset(self) -> PosetWithHoles:
        """This pomset as a hole-free poset with 0 inputs, its elements
        numbered 1, 2, ... in sorted id order (the order of ``labels``)."""
        vert = {e: Vert(i) for i, (e, _) in enumerate(self.labels, start=1)}
        return PosetWithHoles(
            0,
            tuple((vert[e].vid, label) for e, label in self.labels),
            (),
            frozenset((vert[a], vert[b]) for a, b in self.order),
        )

    def iso_to(self, other: "Pomset") -> Optional[dict[str, str]]:
        """A label- and order-preserving bijection onto ``other``, or
        ``None``: :func:`iso_check` on both pomsets as posets, its vertex
        witness mapped back to element ids."""
        witness = iso_check(self._as_poset, other._as_poset)
        if witness is None:
            return None
        return {
            self.labels[v - 1][0]: other.labels[w - 1][0] for v, w in witness.items()
        }

    def linearizations(self) -> frozenset:  # frozenset[tuple[str, ...]]
        """All label sequences compatible with the order: the label paths
        up the lattice of down-sets, from the empty one to the whole
        pomset, each step adding one element whose predecessors are in."""
        preds: dict[str, set[str]] = {e: set() for e in self.element_ids}
        for d, f in self.order:
            preds[f].add(d)

        def successors(taken: frozenset) -> list:
            return [
                (self.label_map[e], taken | {e})
                for e, below in preds.items()
                if e not in taken and below <= taken
            ]

        return label_paths(frozenset(), successors)

    def to_json(self) -> dict:
        return {
            "inputs": 0,
            "vertices": [
                {"id": e, "kind": "action", "label": l} for e, l in self.labels
            ],
            "order": [[{"v": a}, {"v": b}] for a, b in sorted(self.order)],
        }


def erase_star(p: PosetWithHoles) -> Pomset:
    """Forget the main-thread marker: the closed, hole-free poset without
    star and its incident pairs."""
    if p.n_inputs != 0 or p.holes:
        raise PosetError("erase_star needs a closed poset without holes")
    labels = {str(v): label for v, label in p.actions}
    order = {
        (str(d.vid), str(e.vid))
        for (d, e) in p.order
        if isinstance(d, Vert) and isinstance(e, Vert)
    }
    return Pomset.of(labels, order)


# --- serialization --------------------------------------------------------------

def _ref_to_json(e: ElemRef):
    match e:
        case In(i):
            return {"in": i}
        case Vert(v):
            return {"v": v}
        case Star():
            return "star"
    raise TypeError(f"not an element reference: {e!r}")


def _ref_from_json(obj) -> ElemRef:
    if obj == "star":
        return STAR
    if isinstance(obj, dict) and "in" in obj:
        return In(int(obj["in"]))
    if isinstance(obj, dict) and "v" in obj:
        return Vert(int(obj["v"]))
    raise PosetError(f"bad element reference: {obj!r}")


def poset_to_json(p: PosetWithHoles) -> dict:
    vertices = []
    for vid, label in p.actions:
        vertices.append({"id": vid, "kind": "action", "label": label})
    for vid, label in p.holes:
        vertices.append(
            {
                "id": vid,
                "kind": "hole",
                "label": label.var,
                "visibility": [
                    [_ref_to_json(e) for e in sorted(slot)]
                    for slot in label.visibility
                ],
            }
        )
    vertices.sort(key=lambda v: v["id"])
    order = sorted(p.order)
    return {
        "inputs": p.n_inputs,
        "vertices": vertices,
        "order": [[_ref_to_json(d), _ref_to_json(e)] for d, e in order],
    }


def poset_from_json(data: dict) -> PosetWithHoles:
    actions: dict[int, str] = {}
    holes: dict[int, HoleLabel] = {}
    for v in data.get("vertices", ()):
        vid = int(v["id"])
        if v["kind"] == "action":
            actions[vid] = v["label"]
        elif v["kind"] == "hole":
            slots = tuple(
                frozenset(_ref_from_json(e) for e in slot)
                for slot in v.get("visibility", [])
            )
            holes[vid] = HoleLabel(v["label"], len(slots), slots)
        else:
            raise PosetError(f"unknown vertex kind {v['kind']!r}")
    order = {
        (_ref_from_json(d), _ref_from_json(e)) for d, e in data.get("order", ())
    }
    return raw_poset(int(data.get("inputs", 0)), actions, holes, order)


def poset_to_json_text(p: PosetWithHoles) -> str:
    return json.dumps(poset_to_json(p), indent=2, sort_keys=True) + "\n"


def covering_pairs(order: frozenset) -> set:
    """The Hasse diagram of a transitively closed strict order."""
    order_set = set(order)
    members = {a for a, _ in order_set} | {b for _, b in order_set}
    return {
        (a, b)
        for (a, b) in order_set
        if not any((a, c) in order_set and (c, b) in order_set for c in members)
    }


def poset_to_dot(p: PosetWithHoles) -> str:
    """DOT rendering: inputs as boxes, actions as circles, holes as diamonds,
    star filled; solid covering edges, dotted visibility edges."""
    def node_id(e: ElemRef) -> str:
        match e:
            case In(i):
                return f"in{i}"
            case Vert(v):
                return f"v{v}"
            case Star():
                return "star"
        raise TypeError(e)

    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(1, p.n_inputs + 1):
        lines.append(f'  in{i} [shape=box, label="{i}"];')
    for vid, label in p.actions:
        lines.append(f'  v{vid} [shape=circle, label="{label}"];')
    for vid, label in p.holes:
        lines.append(f'  v{vid} [shape=diamond, label="{label.var}:{label.arity}"];')
    lines.append('  star [shape=point, style=filled, label=""];')
    for d, e in sorted(covering_pairs(p.order)):
        lines.append(f"  {node_id(d)} -> {node_id(e)};")
    for vid, label in p.holes:
        seen = set()
        for slot in label.visibility:
            for e in sorted(slot):
                if e != Vert(vid) and e not in seen:
                    seen.add(e)
                    lines.append(f"  {node_id(e)} -> v{vid} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
