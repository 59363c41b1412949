"""The lexers that :class:`dynthreads.terms.Lexer` replaced, kept as its
oracles.

:func:`tokens` is the per-character lexer of the program syntax, taking a
syntax's token pattern.  It walks the text one character at a time: a
newline starts a new line, any other whitespace moves one column, and
``--`` skips to the end of its line.  Anything else must start a token of
the pattern, whose characters move the line and column the same way.  The
shared lexer skips whitespace and comments with one pattern and takes the
line and column from the newlines it has passed; the tests check that both
give the same tokens, positions and errors.

:class:`Tokens` is the term files' own tokenizer, which gave bare strings,
knew no comments and raised "cannot tokenize near ..."; the tests check
that the shared lexer with the term table reads the same token texts and
fails at the same place on comment-free text.
"""

from __future__ import annotations

import re

from dynthreads.lang import _TOKEN_RE, ParseError
from dynthreads.terms import TermError


def tokens(text: str, table: re.Pattern = _TOKEN_RE, error: type = ParseError):
    """``(kind, text, line, column)`` of each token of ``text``; ``error``
    at the first character no token of ``table`` starts with."""
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if text.startswith("--", pos):
            end = text.find("\n", pos)
            pos = len(text) if end < 0 else end
            continue
        m = table.match(text, pos)
        if not m:
            raise error(f"{line}:{col}: cannot read {text[pos:pos+12]!r}")
        toks.append((m.lastgroup, m.group(), line, col))
        for ch in m.group():
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
        pos = m.end()
    return toks


_NAME_RE = re.compile(r"[A-Za-z0-9_'$]+")
_TERM_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<punct>[().,;:+]|=>)|(?P<label>\[[^\]]*\])|(?P<name>{_NAME_RE.pattern}))"
)


class Tokens:
    def __init__(self, text: str):
        self.items: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TERM_TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise TermError(f"cannot tokenize near {rest[:20]!r}")
            self.items.append(m.group("punct") or m.group("label") or m.group("name"))
            pos = m.end()
        self.pos = 0
