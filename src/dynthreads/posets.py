"""Labelled posets with holes: the semantic model of dynamic threads.

A poset here has ``n`` input elements (free thread IDs), action-labelled
vertices, hole vertices labelled by computation variables, and a single
distinguished maximal element ``star`` marking the end of the main thread.
Holes carry one *visibility set* per argument slot: the elements whose
completion the substituted continuation may wait on (drawn dotted in diagrams; not part of the causal order).

The module provides:

* well-formedness checking and isomorphism search;
* ``interp`` from terms to posets, ``reify`` back to normal forms, and the
  decision procedure ``decide_equal`` for the equational theory;
* substitution of a poset for a hole;
* JSON and DOT serialization, plus plain pomsets for run observations.

Elements are numbered once per poset: inputs ``1..n`` at ``0..n-1``,
then the vertices in id order, then star, which is the order of the
references themselves.  The causal order is stored as one *down-set
mask* per element, an int whose bit ``d`` is set when element ``d`` lies
below it; the up-set masks are the transpose, derived once and cached,
and the pair set ``order`` is a view derived on demand (for JSON, DOT and
the tests).  Orders are kept strict and transitively closed, and hole
visibility sets downward-closed and containing their hole.  The trusted
constructor :func:`make_poset` closes the order it is given, as a
Boolean matrix after Warshall, down-closes the visibility sets and checks
every reference.

The paper's model operations (stop, act, wait, fork) and relabelling along
relations between worlds of thread IDs are not written out here.
``interp`` gives a term the meaning their composition gives it, but builds
each vertex's down-set mask once, in one walk over the term, and each mask
it writes is closed: it is a union of masks that are closed already, as
its docstring argues, so neither the order nor the visibility sets are
closed again.  The composition itself is kept as the test oracle.

Isomorphism works on the masks too: vertices are grouped by a signature
of popcounts and bit fields, and the search checks each assignment with
one mask comparison against the elements mapped so far.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import itemgetter, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .tids import ParamContext, print_tid_names
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
    subterms,
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
    """A labelled poset with holes.  ``down[k]`` is the mask of the
    elements below element ``k``, in the numbering of ``elements``."""

    n_inputs: int
    actions: tuple[tuple[int, str], ...]  # (vertex id, action label), sorted
    holes: tuple[tuple[int, HoleLabel], ...]  # (vertex id, label), sorted
    down: tuple[int, ...]

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
    def elements(self) -> tuple:
        """Each element at its number: inputs, vertices by id, star."""
        return _elements(self.n_inputs, self.vertex_ids)

    @cached_property
    def index(self) -> dict:
        """The number of each element."""
        return {e: k for k, e in enumerate(self.elements)}

    @cached_property
    def up(self) -> list[int]:
        """The mask of the elements above each element."""
        return _transpose(self.down)

    @cached_property
    def order(self) -> frozenset:
        """The order as ``(below, above)`` pairs of references."""
        elements = self.elements
        return frozenset((elements[d], e) for e, m in zip(elements, self.down) for d in _bits(m))

    @cached_property
    def _slots(self) -> dict[int, tuple[int, ...]]:
        """The visibility masks of each hole, by the hole's number."""
        index = self.index
        return {
            index[Vert(vid)]: tuple(sum(1 << index[e] for e in slot) for slot in label.visibility)
            for vid, label in self.holes
        }

    @cached_property
    def _signature_groups(self) -> dict[tuple, list[int]]:
        """The vertices grouped by an invariant that isomorphisms keep: the
        label, the inputs and star below and above, the self-loop bit, how
        many vertices lie below and above, and for a hole each slot's inputs
        and star, whether it holds the hole and how many vertices it holds."""
        fixed = _fixed(self.n_inputs, len(self.down))
        groups: dict = {}
        for k in range(self.n_inputs, len(self.down) - 1):
            vid, d, u = self.elements[k].vid, self.down[k], self.up[k]
            if vid in self.action_map:
                head: tuple = ("act", self.action_map[vid])
            else:
                label = self.hole_map[vid]
                head = ("hole", label.var, label.arity, tuple(
                    (s & fixed, s >> k & 1, (s & ~fixed).bit_count()) for s in self._slots[k]
                ))
            key = (head, d & fixed, u & fixed, d >> k & 1,
                   (d & ~fixed).bit_count(), (u & ~fixed).bit_count())
            groups.setdefault(key, []).append(k)
        return groups

    @cached_property
    def _relations(self) -> list[int]:
        """Every relation of each element as one mask of ``len(down)``-bit
        blocks: the elements below it, those above it, then for each slot
        index the elements in that slot (of a hole) and the holes whose
        slot holds the element."""
        size = len(self.down)
        rel = [d | u << size for d, u in zip(self.down, self.up)]
        for h, masks in self._slots.items():
            for i, slot in enumerate(masks):
                shift = (2 + 2 * i) * size
                rel[h] |= slot << shift
                for e in _bits(slot):
                    rel[e] |= 1 << (shift + size + h)
        return rel

    def _refs(self, mask: int) -> frozenset:
        return frozenset(self.elements[b] for b in _bits(mask))

    def below(self, e: ElemRef) -> frozenset:
        return self._refs(self.down[self.index[e]])


def _elements(n_inputs: int, vertex_ids: Iterable[int]) -> tuple:
    return (*map(In, range(1, n_inputs + 1)), *map(Vert, sorted(vertex_ids)), STAR)


def _fixed(n_inputs: int, size: int) -> int:
    """The mask of the inputs and star, which isomorphisms fix."""
    return (1 << n_inputs) - 1 | 1 << (size - 1)


def _bits(mask: int) -> list[int]:
    """The numbers of the set bits of a mask, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _low(mask: int) -> int:
    """The number of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _transpose(masks: Sequence[int]) -> list[int]:
    """The masks of the converse relation: bit ``e`` of result ``d`` is
    bit ``d`` of ``masks[e]``.  Each mask is written out as a string of
    bits, lowest first, and the strings are read column by column."""
    rows = [format(m, f"0{len(masks)}b")[::-1] for m in masks]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)]


def _close(down: Sequence[int]) -> list[int]:
    """The transitive closure of a relation given as down-masks, closed as
    a Boolean matrix (Warshall 1962): for each element ``k`` in turn,
    everything below ``k`` goes below each element that ``k`` is below."""
    closed = list(down)
    for k in range(len(closed)):
        bit, row = 1 << k, closed[k]
        if row:
            for i, m in enumerate(closed):
                if m & bit:
                    closed[i] = m | row
    return closed


def _bad_ref(e, n_inputs: int) -> PosetError:
    match e:
        case In(i):
            return PosetError(f"input {i} out of range 1..{n_inputs}")
        case Vert(v):
            return PosetError(f"unknown vertex id {v}")
    return PosetError(f"not an element reference: {e!r}")


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
    """Trusted constructor: closes the order transitively, normalizes each
    visibility set to contain its hole and be downward-closed, and checks
    every reference."""
    return _from_pairs(n_inputs, actions, holes, order, trusted=True)


def raw_poset(
    n_inputs: int,
    actions: Mapping[int, str],
    holes: Mapping[int, HoleLabel],
    order: Iterable[tuple],
) -> PosetWithHoles:
    """Untrusted constructor: stores the data as given (for loading and for
    deliberately ill-formed test posets), references checked."""
    return _from_pairs(n_inputs, actions, holes, order, trusted=False)


def _from_pairs(n_inputs, actions, holes, pairs, trusted: bool) -> PosetWithHoles:
    """The poset whose order holds the given pairs.  If ``trusted``, the
    order is closed and each visibility set takes its hole and everything
    below its members."""
    if set(actions) & set(holes):
        raise PosetError("action and hole vertex ids overlap")
    elements = _elements(n_inputs, chain(actions, holes))
    index = {e: k for k, e in enumerate(elements)}

    def position(e) -> int:
        k = index.get(e) if isinstance(e, _Ref) else None
        if k is None:
            raise _bad_ref(e, n_inputs)
        return k

    down = [0] * len(elements)
    for d, e in pairs:
        down[position(e)] |= 1 << position(d)
    if trusted:
        down = _close(down)
    masked = {}
    for vid, label in holes.items():
        var, arity, slots = (
            (label.var, label.arity, label.visibility) if isinstance(label, HoleLabel) else label
        )
        masks = [reduce(or_, (1 << position(e) for e in slot), 0) for slot in slots]
        if trusted:
            # the order is closed, so one union is down-closed
            masks = [m | 1 << index[Vert(vid)] for m in masks]
            masks = [reduce(or_, map(down.__getitem__, _bits(m)), m) for m in masks]
        masked[vid] = (var, arity, masks)
    return _assemble(n_inputs, actions, masked, down, elements)


def _assemble(n_inputs, actions, holes, down, elements) -> PosetWithHoles:
    """The poset with the given order masks; ``holes`` maps each hole to
    ``(var, arity, slot masks)``."""
    labels = {
        vid: HoleLabel(var, arity, tuple(frozenset(elements[b] for b in _bits(m)) for m in masks))
        for vid, (var, arity, masks) in holes.items()
    }
    poset = PosetWithHoles(
        n_inputs, tuple(sorted(actions.items())), tuple(sorted(labels.items())), tuple(down)
    )
    object.__setattr__(poset, "elements", elements)  # the cached numbering
    return poset


# --- well-formedness --------------------------------------------------------

def check_well_formed(p: PosetWithHoles) -> Optional[str]:
    """Return ``None`` if well-formed, else a description of the first
    violated condition.

    Where a condition fails at several places, the witness named is the
    least one in reference order, so the message does not depend on how
    sets happen to iterate.  Antisymmetry needs no check of its own: in an
    irreflexive closed order, ``a < b < a`` would put ``a`` below itself.
    """
    elements, down = p.elements, p.down
    star = len(down) - 1
    loops = [k for k, m in enumerate(down) if m >> k & 1]
    if loops:
        return f"order is reflexive at {elements[loops[0]]}"
    # for each b < c, the least a < b that is not below c
    gaps = [(_low(m), b, c) for c, mc in enumerate(down) for b in _bits(mc) if (m := down[b] & ~mc)]
    if gaps:
        a, b, c = (elements[k] for k in min(gaps))
        return f"order not transitively closed: {a} < {b} < {c}"
    raised = [k + 1 for k in range(p.n_inputs) if down[k]]
    if raised:
        return f"input {raised[0]} is not minimal"
    if reduce(or_, down) >> star & 1:
        return "star is not maximal"
    combined = list(down)
    for (vid, label), (h, slots) in zip(p.holes, p._slots.items()):
        for i, slot in enumerate(slots, start=1):
            where = f"hole {label.var}(vertex {vid}) slot {i}"
            if not slot >> h & 1:
                return f"{where} misses the hole itself"
            if slot >> star & 1:
                return f"{where} contains star"
            open_below = [m for m in _bits(slot) if down[m] & ~slot]
            if open_below:
                missing = p._refs(down[open_below[0]] & ~slot)
                return f"{where} not downward-closed: misses {sorted(missing)}"
            combined[h] |= slot & ~(1 << h)
    # with no pair from an element to itself, an element below itself in
    # the closure lies on a cycle through some other element
    closed = _close(combined)
    cyclic = [k for k, m in enumerate(closed) if m >> k & 1]
    if cyclic:
        a = cyclic[0]
        b = _low(closed[a] & _transpose(closed)[a] & ~(1 << a))
        return f"visibility and order form a cycle through {elements[a]} and {elements[b]}"
    return None


def require_well_formed(p: PosetWithHoles) -> PosetWithHoles:
    violation = check_well_formed(p)
    if violation:
        raise IllFormed(violation)
    return p


# --- isomorphism ------------------------------------------------------------

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
    p_size, q_size = (sum(m.bit_count() for m in r.down) for r in (p, q))
    if p_size != q_size:
        return f"order sizes differ: {p_size} vs {q_size}"
    # equal label multisets give equal sizes, so inputs and star sit at
    # the same numbers in both
    size = len(p.down)
    fixed = _fixed(p.n_inputs, size)
    p_fixed, q_fixed = ([r.down[k] & fixed for k in _bits(fixed)] for r in (p, q))
    if p_fixed != q_fixed:
        return "order between inputs and star differs"
    p_sig, q_sig = ({key: len(g) for key, g in r._signature_groups.items()} for r in (p, q))
    if p_sig != q_sig:
        return "vertex invariant signatures differ"
    return None


def iso_check(p: PosetWithHoles, q: PosetWithHoles) -> Optional[dict]:
    """Search for an isomorphism fixing inputs and star pointwise.

    Returns a vertex-id mapping ``{p_vid: q_vid}`` or ``None``.  Labels,
    hole variables, slot-wise visibility, and the order (both directions)
    must all be preserved.
    """
    return decide_equal_posets(p, q).witness


def _iso_search(p: PosetWithHoles, q: PosetWithHoles) -> Optional[dict]:
    """The backtracking search of :func:`iso_check`, for a pair that
    :func:`iso_quick_reject` has passed, with an explicit stack.

    The vertices of ``p`` are taken fewest candidates first, a vertex's
    candidates being the vertices of ``q`` with its signature; inputs and
    star are mapped to themselves from the start.  An unused candidate
    ``w`` of ``v`` is taken when ``v`` and ``w`` stand in the same
    relations (order both ways, each slot both ways, see ``_relations``)
    to every element mapped so far and its image.  That relation of ``v``
    is one mask, whose image is computed once per position, so each
    candidate costs one comparison.  Every pair of distinct elements is
    thus checked once the later of the two is mapped.  A vertex's pairs
    with itself follow, because its signature counts the vertices below
    and above it and in each slot, itself included (the self-loop bits
    only prune earlier).  So a full mapping is an isomorphism with no
    check at the end."""
    groups = q._signature_groups
    todo = sorted((len(groups.get(key, ())), v, groups.get(key, []))
                  for key, vs in p._signature_groups.items() for v in vs)
    size = len(p.down)
    blocks = 2 + 2 * max((label.arity for _, label in p.holes), default=0)
    spread = sum(1 << (b * size) for b in range(blocks))  # one bit in each block
    seen_p = seen_q = _fixed(p.n_inputs, size) * spread
    image = [1 << b for b in range(blocks * size)]  # bit of p's masks -> bit of q's
    p_rel, q_rel = p._relations, q._relations
    mapping: dict[int, int] = {}
    tried = [0] * len(todo)
    expected = [0] * len(todo)
    k, fresh = 0, True
    while k < len(todo):
        _, v, candidates = todo[k]
        if fresh:
            expected[k] = sum(image[b] for b in _bits(p_rel[v] & seen_p))
            tried[k] = 0
        i = tried[k]
        while i < len(candidates) and (
            seen_q >> candidates[i] & 1 or q_rel[candidates[i]] & seen_q != expected[k]
        ):
            i += 1
        if i == len(candidates):
            if k == 0:
                return None
            k, fresh = k - 1, False
            v = todo[k][1]
            seen_p ^= spread << v
            seen_q ^= spread << mapping.pop(v)
            continue
        w = candidates[i]
        tried[k], mapping[v] = i + 1, w
        seen_p |= spread << v
        seen_q |= spread << w
        for b in range(0, blocks * size, size):
            image[b + v] = 1 << (b + w)
        k, fresh = k + 1, True
    return {p.elements[v].vid: q.elements[w].vid for v, w in mapping.items()}


# --- interpretation of terms -------------------------------------------------

def interp(term: Term, gamma: CompContext, delta: ParamContext) -> PosetWithHoles:
    """Interpret a term as a labelled poset over ``len(delta)`` inputs.

    One walk over the term gives every vertex its down-set mask directly.
    Elements are numbered as :class:`PosetWithHoles` numbers them, vertex
    ``v`` at ``n + v - 1``.  The walk carries ``below``, the down-set of
    the current point (the waits above it), and ``done``, the down-set of
    each thread name's completion: input ``i`` alone for input ``i``, and
    for a fork binder the completion that its child's walk returned.

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

    Each mask the walk writes is closed, so nothing is closed afterwards.
    ``below`` and every completion are unions of closed sets, built up
    from the empty set and from minimal inputs, and a vertex joins
    ``below`` only with its own down-set, which is ``below`` itself.  A
    slot is such a union too: the hole, its down-set ``below``, and
    completions.  Each down-set also equals the one the model operations
    compose (the reference operations of ``tests/model_oracle.py``).  Wait
    then relabelling put the guard's inputs below everything under the
    wait, which is joining ``done[a]`` into ``below`` for an input ``a``.
    Fork puts everything below the child's star under everything above
    the consumed input, which is joining ``done[b]`` for the binder ``b``.
    The child is interpreted over the fork's own inputs, so every wait
    around the fork lies below the child's vertices too: the child
    inherits ``below``.  Every reference is made here, so none is checked.

    The walk, the count and :func:`scope_check` use explicit stacks, so
    term depth is not bounded by the recursion limit.
    """
    scope_check(term, gamma, delta)
    n = len(delta)
    actions: dict = {}
    holes: dict = {}
    vid = _leaf_count(term)
    down = [0] * (n + vid + 1)
    # scope_check rejects a binder that shadows a name in scope, so nothing
    # walked inside a binder's scope rebinds it: one map serves every thread
    done = {name: 1 << i for i, name in enumerate(delta.names)}
    forks: list = []  # forks whose child is being walked, parent still to go
    t, below = term, 0
    while True:
        match t:
            case Wait(guard, cont):
                below = reduce(or_, map(done.__getitem__, guard), below)
                t = cont
                continue
            case Fork(binder, parent, child):
                forks.append((binder, parent, below))
                t = child
                continue
            case Act(label):
                actions[vid] = label
            case Var(name, args):
                own = below | 1 << (n + vid - 1)
                holes[vid] = (name, len(args), [reduce(or_, map(done.__getitem__, u), own) for u in args])
        if not isinstance(t, Stop):
            down[n + vid - 1] = below
            below |= 1 << (n + vid - 1)
            vid -= 1
        if not forks:
            break
        binder, t, parent_below = forks.pop()
        done[binder], below = below, parent_below
    down[-1] = below
    return _assemble(n, actions, holes, down, _elements(n, range(1, len(down) - n)))


def _leaf_count(term: Term) -> int:
    """The number of actions and holes in a term."""
    return sum(type(t) in (Act, Var) for t in subterms(term))


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
    n, elements, down, slots = p.n_inputs, p.elements, p.down, p._slots
    star = len(down) - 1
    vertices = (1 << star) - (1 << n)
    # direct predecessors suffice for a topological order; ``order`` is closed
    before = [
        (m | reduce(or_, slots.get(k, ()), 0)) & vertices & ~(1 << k) for k, m in enumerate(down)
    ]
    after = _transpose(before)
    waiting = {k: before[k].bit_count() for k in range(n, star)}
    index: dict[int, int] = {}

    def translate(mask: int) -> frozenset:
        return frozenset(In(b + 1) if b < n else Bnd(index[b]) for b in _bits(mask))

    def entry(k: int) -> tuple:
        vid = elements[k].vid
        if vid in p.action_map:
            head = (0, p.action_map[vid], 0)
        else:
            label = p.hole_map[vid]
            head = (1, label.var, label.arity)
        guard = translate(down[k])
        return (head, sorted(map(_nf_ref_str, guard)), vid, k, guard)

    ready = [entry(k) for k, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    children: list[NfChild] = []
    while ready:
        _, _, vid, k, guard = heapq.heappop(ready)
        index[k] = len(children) + 1
        if vid in p.action_map:
            body: Union[NfAct, NfVarApp] = NfAct(p.action_map[vid])
        else:
            label = p.hole_map[vid]
            body = NfVarApp(label.var, tuple(translate(m & ~(1 << k)) for m in slots[k]))
        children.append(NfChild(guard, body))
        for w in _bits(after[k] & vertices):
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, entry(w))
    if len(children) < len(waiting):
        raise IllFormed("cannot linearize: visibility and order form a cycle")

    nf = NormalForm(n, tuple(children), translate(down[star]))
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
    return print_tid_names(map(_nf_ref_str, refs))


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
    """A plain labelled poset: elements with labels, numbered in the order
    of ``labels``, and a strict, transitively closed order held as the mask
    of the elements below each element."""

    labels: tuple[tuple[str, str], ...]  # (element, label), sorted
    down: tuple[int, ...]

    @cached_property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    @cached_property
    def element_ids(self) -> frozenset[str]:
        return frozenset(self.label_map)

    @cached_property
    def order(self) -> frozenset:  # frozenset[tuple[str, str]]
        ids = [e for e, _ in self.labels]
        return frozenset((ids[d], e) for e, m in zip(ids, self.down) for d in _bits(m))

    @staticmethod
    def of(labels: Mapping[str, str], order: Iterable[tuple[str, str]]) -> "Pomset":
        ids = sorted(labels)
        index = {e: k for k, e in enumerate(ids)}
        down = [0] * len(ids)
        for a, b in order:
            if a not in index or b not in index:
                raise PosetError(f"order pair ({a},{b}) mentions unknown elements")
            down[index[b]] |= 1 << index[a]
        return Pomset._closed(tuple((e, labels[e]) for e in ids), down)

    @staticmethod
    def _closed(labels: tuple, down: list[int]) -> "Pomset":
        """The pomset of the closure of ``down``; a cycle is an error."""
        closed = _close(down)
        loops = [k for k, m in enumerate(closed) if m >> k & 1]
        if loops:
            raise PosetError(f"pomset order has a cycle at {labels[loops[0]][0]}")
        return Pomset(labels, tuple(closed))

    @cached_property
    def _as_poset(self) -> PosetWithHoles:
        """This pomset as a hole-free poset with 0 inputs, its elements
        numbered 1, 2, ... in sorted id order (the order of ``labels``)."""
        actions = tuple((k, label) for k, (_, label) in enumerate(self.labels, start=1))
        return PosetWithHoles(0, actions, (), self.down + (0,))

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
        elements = [(1 << k, m, label) for k, (m, (_, label)) in enumerate(zip(self.down, self.labels))]

        def successors(taken: int) -> list:
            return [
                (label, taken | bit)
                for bit, below, label in elements
                if not taken & bit and not below & ~taken
            ]

        return label_paths(0, successors)

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
    star and its incident pairs, its elements renumbered by their ids as
    strings."""
    if p.n_inputs != 0 or p.holes:
        raise PosetError("erase_star needs a closed poset without holes")
    ids = [str(v) for v, _ in p.actions]
    ranked = sorted(range(len(ids)), key=ids.__getitem__)
    rank = {k: r for r, k in enumerate(ranked)}
    down = [sum(1 << rank[d] for d in _bits(p.down[k]) if d in rank) for k in ranked]
    return Pomset._closed(tuple((ids[k], p.actions[k][1]) for k in ranked), down)


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


def covering_pairs(down: Sequence[int]) -> list[int]:
    """The Hasse diagram of a transitively closed strict order given as
    down-masks: for each element, the mask of the elements it covers, those
    below it and below nothing else below it."""
    return [m & ~reduce(or_, map(down.__getitem__, _bits(m)), 0) for m in down]


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
    elements = p.elements
    covers = sorted((d, e) for e, m in enumerate(covering_pairs(p.down)) for d in _bits(m))
    for d, e in covers:
        lines.append(f"  {node_id(elements[d])} -> {node_id(elements[e])};")
    for vid, label in p.holes:
        seen = set()
        for slot in label.visibility:
            for e in sorted(slot):
                if e != Vert(vid) and e not in seen:
                    seen.add(e)
                    lines.append(f"  {node_id(e)} -> v{vid} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
