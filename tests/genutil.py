"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random

from dynthreads.posets import STAR, In, PosetWithHoles, Vert, check_well_formed, make_poset
from dynthreads.terms import Act, CompContext, Fork, Stop, STOP, Term, Var, Wait
from dynthreads.tids import ParamContext

from model_oracle import Relation

ACTIONS = ("s1", "s2")


def random_relation(rng: random.Random, src: int, dst: int, density: float = 0.4) -> Relation:
    pairs = {
        (i, j)
        for i in range(1, src + 1)
        for j in range(1, dst + 1)
        if rng.random() < density
    }
    return Relation.of(src, dst, pairs)


def random_term(
    rng: random.Random,
    gamma: CompContext,
    delta: ParamContext,
    size: int,
) -> Term:
    """A scope-correct term of at most ``size`` operations."""
    counter = [0]

    def guard(scope: tuple[str, ...]) -> frozenset[str]:
        return frozenset(n for n in scope if rng.random() < 0.45)

    def leaf(scope: tuple[str, ...]) -> Term:
        choices: list[Term] = [STOP, Act(rng.choice(ACTIONS))]
        for name, arity in gamma.entries:
            choices.append(Var(name, tuple(guard(scope) for _ in range(arity))))
        return rng.choice(choices)

    def go(scope: tuple[str, ...], budget: int) -> Term:
        if budget <= 1:
            return leaf(scope)
        roll = rng.random()
        if roll < 0.4:
            counter[0] += 1
            binder = f"c{counter[0]}"
            split = rng.randint(1, budget - 1)
            return Fork(binder, go(scope + (binder,), split), go(scope, budget - split))
        if roll < 0.75:
            return Wait(guard(scope), go(scope, budget - 1))
        return leaf(scope)

    return go(delta.names, size)


def random_well_formed_poset(
    rng: random.Random,
    max_inputs: int = 3,
    max_vertices: int = 6,
    max_holes: int = 2,
    gamma: tuple[tuple[str, int], ...] = (("x", 1), ("y", 2), ("z", 0)),
) -> PosetWithHoles:
    """Generate a well-formed poset directly (not via terms).

    Vertices are created along a linear order; causal and visibility edges
    only point forward along it, which guarantees acyclicity of the combined
    relation.  Visibility downward closure is left to the constructor.
    """
    n = rng.randint(0, max_inputs)
    total = rng.randint(0, max_vertices)
    n_holes = rng.randint(0, min(max_holes, total))
    hole_ids = set(rng.sample(range(1, total + 1), n_holes))

    actions = {
        vid: rng.choice(ACTIONS) for vid in range(1, total + 1) if vid not in hole_ids
    }
    order: set = set()
    for j in range(1, total + 1):
        for i in range(1, j):
            if rng.random() < 0.3:
                order.add((Vert(i), Vert(j)))
        for i in range(1, n + 1):
            if rng.random() < 0.3:
                order.add((In(i), Vert(j)))
        if rng.random() < 0.5:
            order.add((Vert(j), STAR))
    for i in range(1, n + 1):
        if rng.random() < 0.25:
            order.add((In(i), STAR))

    holes = {}
    for vid in hole_ids:
        var, arity = rng.choice(gamma)
        earlier = [In(i) for i in range(1, n + 1)] + [Vert(i) for i in range(1, vid)]
        slots = []
        for _ in range(arity):
            slots.append(frozenset(e for e in earlier if rng.random() < 0.4))
        holes[vid] = (var, arity, slots)

    poset = make_poset(n, actions, holes, order)
    assert check_well_formed(poset) is None
    return poset

