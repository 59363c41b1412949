"""The language's lexer against the per-character oracle of
``tests/lexer_oracle.py``: the same tokens, the same ``line:col`` of each,
and the same :class:`ParseError` text, on the corpus, on the program texts
of the long-programs workload, and on seeded random strings."""

from __future__ import annotations

import random

import pytest

from dynthreads.lang import ParseError, _Lexer

import lexer_oracle
from corpus import PROGRAMS_DIR, corpus_names
from genutil import long_programs

# pieces of random texts: tokens of every kind, the prefixes of ``--`` and
# ``->``, newlines of both conventions, and whitespace that is not a space
PIECES = (
    "let", "x", "x1", "y'", "_a", "42", "0", "#0", "#0.1.2", "#", "[s1]", "[a.b$]", "[",
    "]", "(+)", "(", ")", "{", "}", ",", ";", "=", "|", ".", "\\", ":", "*", "+",
    "->", "=>", "-", "--", "-- note", "--x->y", " ", "  ", "\t", "\n", "\r\n", "\r",
    "\x1c", "\x0b", "\x0c", "\x85", "\xa0", " ", "é", "?", "!", "\x00",
)


def lex(text: str):
    """The tokens of ``text`` as ``(kind, text, line, col)``, or the error."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _Lexer(text).toks]
    except ParseError as exc:
        return f"ParseError: {exc}"


def oracle(text: str):
    try:
        return lexer_oracle.tokens(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize("name", corpus_names())
def test_lexer_matches_the_oracle_on_the_corpus(name):
    text = (PROGRAMS_DIR / f"{name}.prog").read_text()
    for variant in (text, text.replace("\n", "\r\n"), text.replace(" ", "\t")):
        assert lex(variant) == oracle(variant)
        assert isinstance(lex(variant), list)


@pytest.mark.parametrize("seed", [3, 41])
def test_lexer_matches_the_oracle_on_long_programs(seed):
    for text in long_programs(seed):
        got = lex(text)
        assert isinstance(got, list) and got == oracle(text)


def test_lexer_matches_the_oracle_on_random_strings():
    rng = random.Random(2029)
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choices(PIECES, k=rng.randint(0, 24)))
        got = lex(text)
        assert got == oracle(text), text
        errors += isinstance(got, str)
    # both outcomes are common, so both paths are compared
    assert 2_000 < errors < 18_000


@pytest.mark.parametrize("text, message", [
    ("x\n  -- c\n\t ?", "3:3: cannot read '?'"),
    ("x\r\ny -x", "2:3: cannot read '-x'"),
    ("\x1cx\n é", "2:2: cannot read 'é'"),
])
def test_lexer_error_positions(text, message):
    assert lex(text) == oracle(text) == f"ParseError: {message}"
