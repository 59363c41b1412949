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

The poset operations that only the tests use are kept here too: the
down-set of one element as references (:func:`below`), a constructor
that stores an order as given (:func:`raw_poset`), substitution of a
poset for a hole (:func:`poset_subst`) and reading a poset back from the
command line's JSON export (:func:`poset_from_json`).  So is the 1-based
position of a name in a parameter context (:func:`param_index`), which
raises :class:`UnboundName` for a name the context lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from dynthreads.cli import _json
from dynthreads.posets import (
    STAR,
    HoleLabel,
    In,
    PosetError,
    PosetWithHoles,
    Vert,
    interp,
    make_poset,
    nf_to_term,
    poset_to_json,
    reify,
)
from dynthreads.terms import Act, CompContext, Fork, Stop, Var, Wait, subst_comp, subterms
from dynthreads.tids import ParamContext, TidError


class DimensionMismatch(TidError):
    pass


class UnboundName(TidError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound tid name: {name!r}")
        self.name = name


def param_index(delta: ParamContext, name: str) -> int:
    """1-based position of ``name`` in ``delta``."""
    try:
        return delta.names.index(name) + 1
    except ValueError:
        raise UnboundName(name) from None


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
            slots = [{In(param_index(delta, x)) for x in u} for u in args]
            return make_poset(n, {}, {1: (name, len(args), slots)}, {(Vert(1), STAR)})
        case Wait(guard, cont):
            rel = graph_of([TidSet(n, frozenset(param_index(delta, x) for x in guard))], n)
            return ref_relabel(ref_wait(ref_interp(cont, delta)), rel)
        case Fork(binder, parent, child):
            return ref_fork(ref_interp(parent, delta.extend(binder)), ref_interp(child, delta))
    raise TypeError(term)


# --- poset operations only the tests use -------------------------------------------

def below(p: PosetWithHoles, e) -> frozenset:
    """The elements below ``e`` in ``p``, as references."""
    mask = p.down[p.index[e]]
    return frozenset(d for k, d in enumerate(p.elements) if mask >> k & 1)


def raw_poset(
    n_inputs: int,
    actions: Mapping[int, str],
    holes: Mapping[int, HoleLabel],
    order: Iterable[tuple],
) -> PosetWithHoles:
    """The poset holding exactly the given pairs and visibility sets, neither
    closed, for deliberately ill-formed posets.  :func:`make_poset` checks
    every reference first, so both reject the same references alike."""
    order = list(order)
    index = make_poset(n_inputs, actions, holes, order).index
    down = [0] * len(index)
    for d, e in order:
        down[index[e]] |= 1 << index[d]
    return PosetWithHoles(
        n_inputs, tuple(sorted(actions.items())), tuple(sorted(holes.items())), tuple(down)
    )


def comp_vars(term) -> frozenset[str]:
    """The computation variables a term calls."""
    return frozenset(t.name for t in subterms(term) if type(t) is Var)


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


def _ref_from_json(obj):
    if obj == "star":
        return STAR
    if isinstance(obj, dict) and "in" in obj:
        return In(int(obj["in"]))
    if isinstance(obj, dict) and "v" in obj:
        return Vert(int(obj["v"]))
    raise PosetError(f"bad element reference: {obj!r}")


def poset_from_json(data: dict) -> PosetWithHoles:
    """The poset that ``poset_to_json`` wrote, stored as written."""
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
    """The text of ``dynthreads export --format json``."""
    return _json(poset_to_json(p))
