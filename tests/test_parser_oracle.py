"""The program parser against the recursive-descent oracle of
``tests/parser_oracle.py``: the same tree, or the same exception type and
message, on the corpus, on generated chain and DAG texts, on the printed
text of random syntax trees, and on random and mutated strings."""

from __future__ import annotations

import random

import pytest

from dynthreads.lang import (
    BOTTOM,
    EMPTY,
    TID,
    UNIT,
    UNIT_V,
    ApplyC,
    Arrow,
    CaseC,
    CaseV,
    ConstV,
    InjV,
    LambdaV,
    LetC,
    NilV,
    Prod,
    ProjC,
    Ret,
    SeqC,
    Sum,
    TidV,
    TupleV,
    UnionV,
    VarV,
    parse_program,
    print_comp,
    print_program,
    print_type,
)

import parser_oracle
from corpus import PROGRAMS_DIR, corpus_names
from genutil import chain_program, dag_program, long_programs


def outcome(parse, text: str):
    """The world and tree ``parse`` builds from ``text``, or its error."""
    try:
        return parse(text)
    except Exception as exc:  # the type and message are compared
        return f"{type(exc).__name__}: {exc}"


def assert_agree(text: str):
    got = outcome(parse_program, text)
    assert got == outcome(parser_oracle.parse_program, text), text
    return got


@pytest.mark.parametrize("name", corpus_names())
def test_parser_matches_the_oracle_on_the_corpus(name):
    text = (PROGRAMS_DIR / f"{name}.prog").read_text()
    assert isinstance(assert_agree(text), tuple)
    assert isinstance(assert_agree(print_program(*parse_program(text))), tuple)


@pytest.mark.parametrize("seed", [3, 41])
def test_parser_matches_the_oracle_on_chains_and_dags(seed):
    rng = random.Random(seed)
    texts = long_programs(seed)
    for n in (1, 2, 40, 150):
        labels = [f"n{k}" for k in range(n)]
        texts.append(chain_program(labels))
        texts.append(dag_program(labels, [rng.sample(range(i), min(i, 3)) for i in range(n)]))
    for text in texts:
        assert isinstance(assert_agree(text), tuple)


TYPES = (TID, UNIT, EMPTY, Sum((TID, UNIT)), Prod((TID, TID)), Arrow(UNIT, EMPTY),
         Arrow(Prod((TID, Sum((UNIT, EMPTY)))), Arrow(TID, UNIT)))


def random_value(rng: random.Random, budget: int):
    roll = rng.randrange(9 if budget > 1 else 5)
    if roll == 0:
        return VarV(rng.choice("xyz"))
    if roll == 1:
        return TidV(tuple(rng.randrange(3) for _ in range(rng.randrange(3))))
    if roll == 2:
        return NilV()
    if roll == 3:
        return ConstV(rng.choice(("fork", "wait", "stop", "parallel", "series")))
    if roll == 4:
        return ConstV(rng.choice(("print", "printstop", "node")), rng.choice(("s", "a.b")))
    if roll == 5:
        return TupleV(tuple(random_value(rng, budget // 3) for _ in range(rng.choice((0, 2, 3)))))
    if roll == 6:
        return InjV(rng.randint(1, 3), random_value(rng, budget - 1))
    if roll == 7:
        return UnionV(random_value(rng, budget // 2), random_value(rng, budget // 2))
    return LambdaV(rng.choice("xyz"), rng.choice((None,) + TYPES), random_comp(rng, budget - 1))


def random_comp(rng: random.Random, budget: int):
    """A syntax tree that :func:`print_comp` prints: no ``SeqC`` or
    ``LetC`` before a ``;`` and no ``SeqC`` as a case scrutinee."""
    roll = rng.randrange(7 if budget > 1 else 3)
    if roll == 0:
        return Ret(random_value(rng, budget - 1))
    if roll == 1:
        return ApplyC(random_value(rng, budget // 2), random_value(rng, budget // 2))
    if roll == 2:
        return ProjC(rng.randint(1, 2), random_value(rng, budget - 1))
    if roll == 3:
        return LetC(rng.choice("xyz"), random_comp(rng, budget // 2), random_comp(rng, budget // 2))
    if roll == 4:
        first = random_comp(rng, budget // 2)
        while type(first) in (SeqC, LetC):
            first = first.body if type(first) is LetC else first.second
        return SeqC(first, random_comp(rng, budget // 2))
    branches = tuple(
        (rng.choice("xyz"), random_comp(rng, budget // 3)) for _ in range(rng.randrange(3))
    )
    if roll == 5:
        return CaseV(random_value(rng, budget // 3), branches)
    scrutinee = random_comp(rng, budget // 3)
    while type(scrutinee) is SeqC:
        scrutinee = scrutinee.second
    return CaseC(scrutinee, branches)


def random_trees(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [random_comp(rng, rng.randint(1, 30)) for _ in range(count)]


def random_texts(seed: int, count: int) -> list[str]:
    return [print_comp(tree) for tree in random_trees(seed, count)]


def test_parser_matches_the_oracle_on_printed_random_trees():
    # and each tree's text reads back as the tree
    for tree in random_trees(2033, 2_000):
        text = print_comp(tree)
        assert assert_agree(text) == (frozenset(), tree), text


def random_type(rng: random.Random, depth: int):
    """A type of depth at most ``depth``: ``tid``, arrows, and sums and
    products of 0, 2 or 3 parts."""
    roll = rng.randrange(4 if depth else 2)
    if roll == 0:
        return TID
    if roll == 3:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    parts = rng.choice((0, 2, 3)) if depth else 0
    return rng.choice((Sum, Prod))(tuple(random_type(rng, depth - 1) for _ in range(parts)))


def test_printed_types_read_back_through_both_parsers():
    # as a lambda's annotation; a type that holds <never> or a one-part sum
    # or product prints as text that both parsers refuse
    rng = random.Random(2037)
    stop = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(500):
        ty = random_type(rng, 4)
        text = f"ret \\x:{print_type(ty)}. stop()"
        assert assert_agree(text) == (frozenset(), Ret(LambdaV("x", ty, stop))), text
        for bad in (BOTTOM, Sum((ty,)), Prod((ty,))):
            for holder in (bad, Arrow(bad, ty), Sum((ty, bad)), Prod((TID, bad, ty))):
                text = f"ret \\x:{print_type(holder)}. stop()"
                assert assert_agree(text).startswith("ParseError: "), text


# pieces of random strings: every token of the syntax, some of them
# joined as they are in programs
PIECES = (
    "let", "in", "ret", "case", "of", "world", "x", "y", "f", "nil", "fork", "wait", "stop",
    "print", "node", "parallel", "series", "printstop", "[s]", "#0", "#0.1", "#1", "inj1",
    "inj2", "proj1", "proj2", "tid", "1", "0", "42", "(", ")", "()", "{", "}", "=", "=>",
    "|", ";", ",", ".", "\\", ":", "->", "+", "*", "(+)", "\n",
)


def test_parser_matches_the_oracle_on_random_strings():
    rng = random.Random(2034)
    for _ in range(5_000):
        assert_agree(" ".join(rng.choices(PIECES, k=rng.randint(0, 16))))


def _mutants(text: str, rng: random.Random, count: int):
    """``count`` texts, each ``text`` with one token deleted, doubled,
    swapped with the next or replaced by a piece."""
    toks = text.split(" ")
    for _ in range(count):
        new = list(toks)
        i = rng.randrange(len(new))
        how = rng.randrange(4)
        if how == 0:
            del new[i]
        elif how == 1:
            new.insert(i, new[i])
        elif how == 2 and i + 1 < len(new):
            new[i], new[i + 1] = new[i + 1], new[i]
        else:
            new[i] = rng.choice(PIECES)
        yield " ".join(new)


def test_parser_matches_the_oracle_on_mutated_programs():
    rng = random.Random(2035)
    texts = [(PROGRAMS_DIR / f"{name}.prog").read_text() for name in corpus_names()]
    texts += long_programs(7)[::4] + random_texts(2036, 100)
    errors = total = 0
    for text in texts:
        for mutant in _mutants(text, rng, 20):
            total += 1
            errors += isinstance(assert_agree(mutant), str)
    # both outcomes are common, so both paths are compared
    assert total // 5 < errors < total
