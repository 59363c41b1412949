"""The per-character lexer, kept as the oracle of :class:`dynthreads.lang._Lexer`.

It walks the text one character at a time: a newline starts a new line,
any other whitespace moves one column, and ``--`` skips to the end of its
line.  Anything else must start a token of the language's master pattern.
The lexer in ``src/`` skips whitespace and comments with one pattern and
takes the line and column from the newlines in each skipped span; the
tests check that both give the same tokens, positions and errors.
"""

from __future__ import annotations

from dynthreads.lang import _MASTER_RE, ParseError


def tokens(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` of each token of ``text``; a
    :class:`ParseError` at the first character no token starts with."""
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
        m = _MASTER_RE.match(text, pos)
        if not m:
            raise ParseError(f"{line}:{col}: cannot read {text[pos:pos+12]!r}")
        toks.append((m.lastgroup, m.group(), line, col))
        col += m.end() - pos
        pos = m.end()
    return toks
