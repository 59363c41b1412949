"""The poset model as the semantics defines it, for the tests only.

Worlds of thread IDs are indexed by finite relations: a relation
``n -> n'`` re-points each input ``i`` at the set of targets
``{i' | (i, i') in R}``.  Indices are 1-based, matching the
``[n] = {1, ..., n}`` convention of serialized posets.  A compound thread
ID over a context of ``n`` names is a subset of ``[n]``.

The model operations (stop, act, wait, fork) and relabelling along a
relation each build their order as the operation defines it and close it
from scratch through ``make_poset``.  :func:`ref_interp` composes them term
by term; ``interp``, which builds every down-set in one walk, is checked
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from dynthreads.posets import STAR, In, PosetWithHoles, Vert, make_poset
from dynthreads.terms import Act, Fork, Stop, Var, Wait
from dynthreads.tids import ParamContext, TidError


class DimensionMismatch(TidError):
    pass


@dataclass(frozen=True)
class TidSet:
    """Canonical compound thread ID: a subset of ``{1, ..., ctx_size}``."""

    ctx_size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        bad = [i for i in self.members if not 1 <= i <= self.ctx_size]
        if bad:
            raise TidError(f"tid indices {bad} out of range 1..{self.ctx_size}")

    @staticmethod
    def of(ctx_size: int, members: Iterable[int] = ()) -> "TidSet":
        return TidSet(ctx_size, frozenset(members))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


@dataclass(frozen=True)
class Relation:
    """A finite relation ``src -> dst`` with pairs in ``[src] x [dst]``."""

    src: int
    dst: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if not (1 <= i <= self.src and 1 <= j <= self.dst):
                raise TidError(f"pair ({i},{j}) out of bounds {self.src}->{self.dst}")

    @staticmethod
    def of(src: int, dst: int, pairs: Iterable[tuple[int, int]] = ()) -> "Relation":
        return Relation(src, dst, frozenset(pairs))

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(n, n, frozenset((i, i) for i in range(1, n + 1)))

    def image(self, i: int) -> frozenset[int]:
        return frozenset(j for (k, j) in self.pairs if k == i)


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition ``r ; s`` (apply ``r`` first)."""
    if r.dst != s.src:
        raise DimensionMismatch(f"cannot compose {r.src}->{r.dst} with {s.src}->{s.dst}")
    by_src: dict[int, set[int]] = {}
    for j, k in s.pairs:
        by_src.setdefault(j, set()).add(k)
    pairs = frozenset(
        (i, k) for (i, j) in r.pairs for k in by_src.get(j, ())
    )
    return Relation(r.src, s.dst, pairs)


def graph_of(u_list: list[TidSet], p: int) -> Relation:
    """The relation ``[id_p, u_1, ..., u_k] : p + k -> p``.

    Position ``i <= p`` maps to itself; position ``p + j`` maps to every
    member of ``u_list[j]``.  Each ``u`` must live over a context of size
    ``p``.
    """
    for u in u_list:
        if u.ctx_size != p:
            raise DimensionMismatch(f"tid set over {u.ctx_size}, expected {p}")
    pairs = {(i, i) for i in range(1, p + 1)}
    for j, u in enumerate(u_list, start=1):
        pairs.update((p + j, k) for k in u.members)
    return Relation(p + len(u_list), p, frozenset(pairs))


# --- the model operations ---------------------------------------------------------

def ref_relabel(p: PosetWithHoles, r: Relation) -> PosetWithHoles:
    """Re-point the inputs along ``r``: a pair ``i < e`` becomes ``i' < e``
    for every ``(i, i')`` in the relation, and visibility sets follow."""
    def through(e):
        return [In(j) for j in r.image(e.index)] if isinstance(e, In) else [e]

    order = {(d2, e) for d, e in p.order for d2 in through(d)}
    holes = {
        vid: (h.var, h.arity, [{x for e in slot for x in through(e)} for slot in h.visibility])
        for vid, h in p.holes
    }
    return make_poset(r.dst, dict(p.actions), holes, order)


def ref_stop(n: int) -> PosetWithHoles:
    """Discrete poset: just the ``n`` inputs and star."""
    return make_poset(n, {}, {}, set())


def ref_act(label: str, n: int) -> PosetWithHoles:
    """One action vertex directly below star; inputs unconnected."""
    return make_poset(n, {1: label}, {}, {(Vert(1), STAR)})


def ref_wait(p: PosetWithHoles) -> PosetWithHoles:
    """Add input ``n+1`` below every labelled vertex and below star."""
    new = In(p.n_inputs + 1)
    order = set(p.order) | {(new, Vert(v)) for v in p.vertex_ids} | {(new, STAR)}
    return make_poset(p.n_inputs + 1, dict(p.actions), dict(p.holes), order)


def ref_fork(p: PosetWithHoles, q: PosetWithHoles) -> PosetWithHoles:
    """Fork: run ``q`` as a child whose ID is input ``n+1`` of parent ``p``.
    Everything below ``q``'s star ends up below everything above the
    consumed input; the input and ``q``'s star then disappear."""
    n = q.n_inputs
    assert p.n_inputs == n + 1, (p.n_inputs, n)
    offset = max(p.vertex_ids, default=0)

    def shift(e):
        return Vert(e.vid + offset) if isinstance(e, Vert) else e

    dead = In(n + 1)
    below_child_star = {shift(d) for d, e in q.order if e == STAR}
    above_dead = {e for d, e in p.order if d == dead}
    actions = dict(p.actions) | {v + offset: label for v, label in q.actions}
    holes = {
        vid: (h.var, h.arity, [
            (slot - {dead}) | below_child_star if dead in slot else slot
            for slot in h.visibility
        ])
        for vid, h in p.holes
    }
    holes.update({
        vid + offset: (h.var, h.arity, [{shift(e) for e in slot} for slot in h.visibility])
        for vid, h in q.holes
    })
    order = {(d, e) for d, e in p.order if d != dead}
    order |= {(shift(d), shift(e)) for d, e in q.order if e != STAR}
    order |= {(d, e) for d in below_child_star for e in above_dead}
    return make_poset(n, actions, holes, order)


def ref_interp(term, delta: ParamContext) -> PosetWithHoles:
    """``interp`` as the semantics defines it: the model operations composed
    term by term, recursively."""
    n = len(delta)
    match term:
        case Stop():
            return ref_stop(n)
        case Act(label):
            return ref_act(label, n)
        case Var(name, args):
            slots = [{In(delta.index(x)) for x in u} for u in args]
            return make_poset(n, {}, {1: (name, len(args), slots)}, {(Vert(1), STAR)})
        case Wait(guard, cont):
            rel = graph_of([TidSet(n, frozenset(delta.index(x) for x in guard))], n)
            return ref_relabel(ref_wait(ref_interp(cont, delta)), rel)
        case Fork(binder, parent, child):
            return ref_fork(ref_interp(parent, delta.extend(binder)), ref_interp(child, delta))
    raise TypeError(term)
