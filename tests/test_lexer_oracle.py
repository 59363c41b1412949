"""The shared lexer against the oracles of ``tests/lexer_oracle.py``.

In both syntaxes it must give the per-character lexer's tokens, ``line:col``
of each and error text, on the corpus, on the program texts of the
long-programs workload, on term files printed from random terms, and on
seeded random strings.  With the term table it must also read the token
texts of the term files' old tokenizer, and fail where it failed, on text
without comments."""

from __future__ import annotations

import random

import pytest

from dynthreads import lang, terms
from dynthreads.lang import ParseError
from dynthreads.terms import CompContext, Lexer, TermError, print_term_file
from dynthreads.tids import ParamContext

import lexer_oracle
from corpus import PROGRAMS_DIR, corpus_names
from genutil import long_programs, random_term

SYNTAXES = {
    "program": (lang._TOKEN_RE, ParseError),
    "term": (terms._TOKEN_RE, TermError),
}

# pieces of random texts: tokens of every kind in both syntaxes, the
# prefixes of ``--`` and ``->``, newlines of both conventions, and
# whitespace that is not a space
PIECES = (
    "let", "x", "x1", "y'", "_a", "$b", "42", "0", "#0", "#0.1.2", "#", "[s1]", "[a.b$]",
    "[", "]", "[ s t ]", "(+)", "(", ")", "{", "}", ",", ";", "=", "|", ".", "\\", ":", "*",
    "+", "->", "=>", "-", "--", "-- note", "--x->y", " ", "  ", "\t", "\n", "\r\n", "\r",
    "\x1c", "\x0b", "\x0c", "\x85", "\xa0", " ", "é", "?", "!", "\x00",
)


def lex(text: str, syntax: str = "program"):
    """The tokens of ``text`` as ``(kind, text, line, col)``, or the error."""
    table, error = SYNTAXES[syntax]
    try:
        toks = Lexer(text, table, error).toks
    except error as exc:
        return f"{error.__name__}: {exc}"
    assert toks[-1][:2] == ("end", "")
    return toks[:-1]


def oracle(text: str, syntax: str = "program"):
    table, error = SYNTAXES[syntax]
    try:
        return lexer_oracle.tokens(text, table, error)
    except error as exc:
        return f"{error.__name__}: {exc}"


def term_oracle(text: str):
    """The old term tokenizer's token texts, or the text it failed at."""
    try:
        return lexer_oracle.Tokens(text).items
    except TermError as exc:
        return str(exc)


def assert_term_tokenizers_agree(text: str):
    got = lex(text, "term")
    want = term_oracle(text)
    if isinstance(got, list):
        assert [tok[1] for tok in got] == want, text
    else:
        # "TermError: line:col: cannot read '...'", against "cannot
        # tokenize near '...'" quoting the rest of the text, stripped
        position = got.split(": ")[1]
        line, col = map(int, position.split(":"))
        at = sum(len(row) for row in text.split("\n")[: line - 1]) + line - 1 + col - 1
        assert want == f"cannot tokenize near {text[at:].strip()[:20]!r}", text


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


def test_lexer_matches_the_oracles_on_printed_term_files():
    rng = random.Random(2031)
    gamma = CompContext((("x", 1), ("y", 0), ("z", 2)))
    delta = ParamContext(("a", "b"))
    for _ in range(300):
        text = print_term_file(gamma, delta, random_term(rng, gamma, delta, rng.randint(1, 40)))
        got = lex(text, "term")
        assert isinstance(got, list) and got == oracle(text, "term")
        assert_term_tokenizers_agree(text)


def random_strings(seed: int, syntax: str):
    """Compare 20,000 seeded random strings; return how many fail to lex."""
    rng = random.Random(seed)
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choices(PIECES, k=rng.randint(0, 24)))
        got = lex(text, syntax)
        assert got == oracle(text, syntax), text
        errors += isinstance(got, str)
        if syntax == "term" and "--" not in text:
            assert_term_tokenizers_agree(text)
    return errors


def test_lexer_matches_the_oracle_on_random_strings():
    # both outcomes are common, so both paths are compared
    assert 2_000 < random_strings(2029, "program") < 18_000


def test_term_lexer_matches_the_oracles_on_random_strings():
    assert 2_000 < random_strings(2030, "term") < 18_000


def test_term_files_take_comments():
    text = "-- holes\nvars x:1; -- one argument\ntids a;\nwait(a, -- guard\n x(a))\n-- end"
    assert [tok[1] for tok in lex(text, "term")] == term_oracle(
        "vars x:1;\ntids a;\nwait(a, x(a))"
    )
    assert lex(text, "term")[-1][2:] == (5, 6)


@pytest.mark.parametrize("text, message", [
    ("x\n  -- c\n\t ?", "3:3: cannot read '?'"),
    ("x\r\ny -x", "2:3: cannot read '-x'"),
    ("\x1cx\n é", "2:2: cannot read 'é'"),
])
def test_lexer_error_positions(text, message):
    assert lex(text) == oracle(text) == f"ParseError: {message}"


def test_a_token_across_lines_moves_the_line():
    # a term label may hold a newline, and what follows it is on the next line
    assert lex("act[a\nb] ?", "term") == oracle("act[a\nb] ?", "term") == (
        "TermError: 2:4: cannot read '?'"
    )
