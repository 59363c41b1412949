from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from dynthreads.terms import Wait, parse_term
from dynthreads.tids import ParamContext, UnboundName, print_tid_names

from model_oracle import DimensionMismatch, Relation, TidSet, compose, graph_of


def _guard(text: str) -> frozenset[str]:
    """The name set the term parser reads for the guard ``text``."""
    term = parse_term(f"wait({text}, stop)")
    assert isinstance(term, Wait)
    return term.guard


def _eval(text: str, ctx: ParamContext) -> TidSet:
    return TidSet.of(len(ctx), (ctx.index(n) for n in _guard(text)))


def test_eval_union_idempotent_commutative():
    ctx = ParamContext(("a", "b", "c"))
    assert _eval("a+(b+a)", ctx) == TidSet.of(3, {1, 2})


def test_eval_empty():
    ctx = ParamContext(("a",))
    assert _eval("0", ctx) == TidSet.of(1)


def test_eval_plain_union():
    ctx = ParamContext(("a1", "a2"))
    assert _eval("a1+a2", ctx) == TidSet.of(2, {1, 2})


def test_eval_unbound_name():
    ctx = ParamContext(("a",))
    with pytest.raises(UnboundName):
        _eval("a+b", ctx)


def test_print_parse_round_trip():
    for names in [frozenset(), frozenset({"a"}), frozenset({"b", "a", "c"})]:
        assert _guard(print_tid_names(names)) == names


# random tid expressions with the same name-set semantics must agree

def _random_expr(rng: random.Random, names: list[str], depth: int) -> tuple[str, frozenset[str]]:
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(names + ["0"])
        return name, frozenset() if name == "0" else frozenset({name})
    left, left_names = _random_expr(rng, names, depth - 1)
    right, right_names = _random_expr(rng, names, depth - 1)
    e = f"{left} + {right}"
    return f"({e})" if rng.random() < 0.5 else e, left_names | right_names


def test_eval_respects_semilattice_equations():
    rng = random.Random(7)
    ctx = ParamContext(("a", "b", "c", "d"))
    for _ in range(200):
        text, names = _random_expr(rng, list(ctx.names), 4)
        assert _guard(text) == names
        assert _eval(text, ctx).members == frozenset(ctx.index(n) for n in names)
        # re-associate/duplicate: semantics unchanged
        assert _eval(f"({text}) + ({text}) + 0", ctx) == _eval(text, ctx)


def test_compose_basic():
    r = Relation.of(1, 2, {(1, 1), (1, 2)})
    s = Relation.of(2, 3, {(2, 3)})
    assert compose(r, s) == Relation.of(1, 3, {(1, 3)})


def test_compose_identity_and_empty():
    r = Relation.of(2, 3, {(1, 2), (2, 3)})
    assert compose(Relation.identity(2), r) == r
    assert compose(r, Relation.identity(3)) == r
    assert compose(r, Relation.of(3, 2)) == Relation.of(2, 2)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(Relation.of(1, 2), Relation.of(3, 1))


@st.composite
def _relations(draw, max_n=4):
    src = draw(st.integers(0, max_n))
    dst = draw(st.integers(0, max_n))
    pairs = set()
    if src and dst:
        pairs = draw(
            st.sets(
                st.tuples(st.integers(1, src), st.integers(1, dst)),
                max_size=src * dst,
            )
        )
    return Relation.of(src, dst, pairs)


@given(_relations(), st.data())
def test_compose_associative(r, data):
    s = data.draw(_relations())
    t = data.draw(_relations())
    s = Relation.of(r.dst, s.dst, {(i, j) for (i, j) in s.pairs if i <= r.dst})
    t = Relation.of(s.dst, t.dst, {(i, j) for (i, j) in t.pairs if i <= s.dst})
    assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_graph_of_substitution_shape():
    # two ambient IDs plus one compound standing for both of them
    assert graph_of([TidSet.of(2, {1, 2})], 2) == Relation.of(
        3, 2, {(1, 1), (2, 2), (3, 1), (3, 2)}
    )


def test_graph_of_empty():
    assert graph_of([], 0) == Relation.of(0, 0)
    assert graph_of([TidSet.of(1)], 1) == Relation.of(2, 1, {(1, 1)})
