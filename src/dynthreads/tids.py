"""Thread-ID names: parameter contexts and compound IDs as text.

Compound thread IDs form a semilattice (union ``+`` with unit ``0``), so a
compound ID over a parameter context is nothing more than a finite set of
the context's names.  The term parser reads ``a + (b + a)`` straight into
the name set ``{a, b}``, :class:`ParamContext` gives each name its 1-based
position, and :func:`print_tid_names` writes a name set back as ``0`` or
``a + b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class TidError(Exception):
    """Base error for thread-ID names."""


class UnboundName(TidError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound tid name: {name!r}")
        self.name = name


@dataclass(frozen=True)
class ParamContext:
    """An ordered list of distinct parameter names; position is meaningful."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise TidError(f"duplicate parameter names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        """1-based position of ``name``."""
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise UnboundName(name) from None

    def extend(self, *names: str) -> "ParamContext":
        return ParamContext(self.names + names)

    def __str__(self) -> str:
        return ", ".join(self.names)


def print_tid_names(names: Iterable[str]) -> str:
    """Canonical textual form of a name set: ``0`` or ``a + b`` (sorted)."""
    ordered = sorted(names)
    return " + ".join(ordered) if ordered else "0"
