"""The desugarer against its oracle, the two-pass desugarer of
``desugar_oracle.py``, which builds each sugar expansion as surface syntax
and lowers it again: both print the same text, fresh names and all, on the
corpus, on generated chains and DAGs of the shapes
``perfbench/long_programs.py`` builds, and on ``parallel`` and ``series``
over literal and other pairs, with sugar nested in their arguments."""

from __future__ import annotations

import pytest

from dynthreads import lang
from dynthreads.lang import desugar, is_core, parse_comp, print_comp

import desugar_oracle
from corpus import corpus_names, load_surface
from genutil import long_programs

RUNNERS = [
    "series(\\u:1. printstop[s1](), \\u:1. printstop[s2]())",
    "parallel(\\u:1. printstop[s1](), \\u:1. printstop[s2]())",
    # sugar nested in the runners of a literal pair
    "series(\\u:1. print[a](); parallel(\\v:1. node[b](nil); stop(), \\v:1. print[c](); stop()),"
    " \\u:1. let x = node[d](nil) in wait(x); stop())",
    "parallel(\\u:1. series(\\v:1. print[a](); stop(), \\v:1. stop()),"
    " \\u:1. case print[b]() of { inj1 w => stop() })",
    # pairs that are not literal go through projections
    "let p = ret (\\u:1. print[a](); stop(), \\u:1. stop()) in series(p)",
    "let p = ret (\\u:1. stop(), \\u:1. node[a](nil); stop()) in parallel(p)",
    # the constants as values: each becomes a lambda over its argument
    "let f = ret series in f((\\u:1. print[a](); stop(), \\u:1. stop()))",
    "let f = ret parallel in let g = ret print[b] in f((\\u:1. g(); stop(), \\u:1. stop()))",
    "let n = ret node[a] in let x = n(nil) in wait(x); stop()",
    # a pair whose components are sugar constants, and a one-tuple
    "series((parallel, series))",
    "series(((\\u:1. stop(), \\u:1. stop())))",
    # print drops its argument, which is lowered all the same
    "print[a](\\u:1. print[b](); stop()); stop()",
    "case let y = node[a](nil) in print[b]() of { inj1 w => wait(y); print[c](); stop() }",
]


def assert_same_text(comp) -> None:
    got = desugar(comp)
    assert is_core(got)
    assert print_comp(got) == print_comp(desugar_oracle.desugar(comp))


@pytest.mark.parametrize("name", corpus_names())
def test_desugar_matches_the_oracle_on_the_corpus(name):
    assert_same_text(load_surface(name))


@pytest.mark.parametrize("seed", [3, 41])
def test_desugar_matches_the_oracle_on_long_programs(seed):
    for text in long_programs(seed):
        assert_same_text(parse_comp(text))


@pytest.mark.parametrize("text", RUNNERS)
def test_desugar_matches_the_oracle_on_parallel_and_series(text):
    assert_same_text(parse_comp(text))


def test_desugar_walks_no_node_it_built(monkeypatch):
    # each expansion is built in core form, so the walk takes apart only
    # nodes of the program it was given
    seen = []
    parts = lang._parts
    monkeypatch.setattr(lang, "_parts", lambda node: seen.append(node) or parts(node))
    comp = parse_comp(
        "let x = node[a](nil) in print[b](); "
        "series((\\u:1. wait(x); print[c](); stop(), \\u:1. parallel(p)))"
    )
    surface, stack = [], [comp]
    while stack:
        node = stack.pop()
        surface.append(node)
        stack.extend(kid for _, kid in parts(node))
    core = desugar(comp)
    assert seen and {id(node) for node in seen} <= {id(node) for node in surface}
    assert is_core(core)
