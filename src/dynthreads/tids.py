"""Thread-ID kernel: canonical compound IDs and finite relations.

Compound thread IDs form a semilattice (union ``+`` with unit ``0``), so a
compound ID over a parameter context is nothing more than a finite subset of
the context's names.  We store IDs pre-quotiented as index sets; the term
parser reads ``a + (b + a)`` straight into the name set ``{a, b}``, and
:func:`print_tid_names` writes a name set back as ``0`` or ``a + b``.

Worlds of thread IDs are indexed by finite relations: a relation ``n -> n'``
re-points each input ``i`` at the set of targets ``{i' | (i, i') in R}``.
Indices are 1-based throughout, matching the ``[n] = {1, ..., n}`` convention
used in serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class TidError(Exception):
    """Base error for the tid kernel."""


class UnboundName(TidError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound tid name: {name!r}")
        self.name = name


class DimensionMismatch(TidError):
    pass


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


@dataclass(frozen=True)
class TidSet:
    """Canonical compound thread ID: a subset of ``{1, ..., ctx_size}``."""

    ctx_size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        bad = [i for i in self.members if not 1 <= i <= self.ctx_size]
        if bad:
            raise TidError(f"tid indices {bad} out of range 1..{self.ctx_size}")

    @staticmethod
    def of(ctx_size: int, members: Iterable[int] = ()) -> "TidSet":
        return TidSet(ctx_size, frozenset(members))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def print_tid_names(names: Iterable[str]) -> str:
    """Canonical textual form of a name set: ``0`` or ``a + b`` (sorted)."""
    ordered = sorted(names)
    return " + ".join(ordered) if ordered else "0"


# --- finite relations -----------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """A finite relation ``src -> dst`` with pairs in ``[src] x [dst]``."""

    src: int
    dst: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if not (1 <= i <= self.src and 1 <= j <= self.dst):
                raise TidError(f"pair ({i},{j}) out of bounds {self.src}->{self.dst}")

    @staticmethod
    def of(src: int, dst: int, pairs: Iterable[tuple[int, int]] = ()) -> "Relation":
        return Relation(src, dst, frozenset(pairs))

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(n, n, frozenset((i, i) for i in range(1, n + 1)))

    def image(self, i: int) -> frozenset[int]:
        return frozenset(j for (k, j) in self.pairs if k == i)


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition ``r ; s`` (apply ``r`` first)."""
    if r.dst != s.src:
        raise DimensionMismatch(f"cannot compose {r.src}->{r.dst} with {s.src}->{s.dst}")
    by_src: dict[int, set[int]] = {}
    for j, k in s.pairs:
        by_src.setdefault(j, set()).add(k)
    pairs = frozenset(
        (i, k) for (i, j) in r.pairs for k in by_src.get(j, ())
    )
    return Relation(r.src, s.dst, pairs)


def graph_of(u_list: list[TidSet], p: int) -> Relation:
    """The relation ``[id_p, u_1, ..., u_k] : p + k -> p``.

    Position ``i <= p`` maps to itself; position ``p + j`` maps to every
    member of ``u_list[j]``.  Each ``u`` must live over a context of size
    ``p``.
    """
    for u in u_list:
        if u.ctx_size != p:
            raise DimensionMismatch(f"tid set over {u.ctx_size}, expected {p}")
    pairs = {(i, i) for i in range(1, p + 1)}
    for j, u in enumerate(u_list, start=1):
        pairs.update((p + j, k) for k in u.members)
    return Relation(p + len(u_list), p, frozenset(pairs))
