"""The elaborator against its oracle, the continuation-passing elaborator
of ``denote_oracle.py``: both give the same context and the same term,
under ``==`` (binders and all), on the corpus, on programs in a world and
on generated chains and DAGs of the shapes ``perfbench/long_programs.py``
builds."""

from __future__ import annotations

import pytest

from dynthreads.denote import Elaborator, denote, world_context
from dynthreads.lang import EMPTY, desugar, parse_comp, parse_program, typecheck_comp
from dynthreads.terms import alpha_eq, parse_term_file, print_term_file

import denote_oracle
from corpus import corpus_names, load_surface
from genutil import long_programs

IN_WORLD = [
    ("wait(#0.1); stop()", frozenset({(1,)})),
    ("wait(#0.1); fork()", frozenset({(1,)})),
    ("let x = fork() in wait(#0.1); ret x", frozenset({(1,)})),
    (
        "let x = fork() in case x of { inj1 a => wait(a (+) #0.1); stop() "
        "| inj2 u => stop() }",
        frozenset({(1,)}),
    ),
    ("let x = fork() in wait(#0.1 (+) #0.2); ret (#0.2, x)", frozenset({(1,), (2,)})),
    ("let x = fork() in ret (x, #0.1.1)", frozenset({(1,), (1, 1)})),
    ("wait(nil); fork()", frozenset()),
]


def assert_same_denotation(comp, world) -> None:
    result_type = typecheck_comp({}, world, comp)
    core = desugar(comp)
    delta = world_context(world)
    got = Elaborator(delta).denote_comp(core, {}, result_type)
    want = denote_oracle.Elaborator(delta).denote_comp(core, {}, result_type)
    assert got == want


@pytest.mark.parametrize("name", corpus_names())
def test_elaborator_matches_the_oracle_on_the_corpus(name):
    assert_same_denotation(load_surface(name), frozenset())


@pytest.mark.parametrize("text, world", IN_WORLD)
def test_elaborator_matches_the_oracle_in_a_world(text, world):
    assert_same_denotation(parse_comp(text), world)


@pytest.mark.parametrize("text, world", IN_WORLD)
def test_denotations_in_a_world_read_back_from_their_term_files(text, world):
    # world parameters are named so that term files read them (w0_1, not w0.1)
    d = denote(parse_comp(text), world)
    gamma, delta, term = parse_term_file(print_term_file(d.gamma, d.delta, d.term))
    assert (gamma, delta) == (d.gamma, d.delta)
    assert alpha_eq(term, d.term)


@pytest.mark.parametrize("seed", [3, 41])
def test_elaborator_matches_the_oracle_on_long_programs(seed):
    for text in long_programs(seed):
        world, comp = parse_program(text)
        assert_same_denotation(comp, world)


def test_elaborator_matches_the_oracle_with_an_environment():
    # the oracle reads an environment of its own values, the elaborator
    # one of closed syntax values
    comp = desugar(parse_comp("case x of { inj1 a => wait(a (+) #0.1); stop() | inj2 u => stop() }"))
    delta = world_context(frozenset({(1,), (2,)}))
    got = Elaborator(delta).denote_comp(comp, {"x": parse_comp("ret inj1 #0.2").value}, EMPTY)
    want = denote_oracle.Elaborator(delta).denote_comp(
        comp, {"x": denote_oracle.SInj(1, denote_oracle.STid(frozenset({"w0_2"})))}, EMPTY
    )
    assert got == want
