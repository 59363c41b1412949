"""Spans around calls into the workbench's layers, and helpers for
checking verdicts against known answers.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (or ``None``) and ``item`` the index of the work item it
belongs to.  The layer of a span is the first dotted component of its name
(``lang``, ``machine``, ``posets``, ``denote``; ``bench`` for the item span
that encloses each item's calls).  Spans stay in memory and are written out
once, when the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Wrong(Exception):
    """A verdict that differs from the known answer."""


class SplitMismatch(Wrong):
    """The split calls of a composite check reached another verdict."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def expect_split(split_verdict, composite_verdict, what: str) -> None:
    if split_verdict != composite_verdict:
        raise SplitMismatch(
            f"{what}: split verdict {split_verdict!r} != composite {composite_verdict!r}"
        )


def closure(pairs: set) -> frozenset:
    """Transitive closure, written here so that known answers do not come
    from the code under test."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out = set()
    for start in list(succ):
        stack, seen = list(succ[start]), set()
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(succ.get(x, ()))
        out.update((start, y) for y in seen)
    return frozenset(out)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Calls in one pass run one after another, so child spans never
        overlap and their durations can simply be subtracted.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def total_of_suffix(self, suffix: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name.endswith(suffix))


def span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise a context that records nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` inside a span named ``name``."""
    with span(tracer, name):
        return fn(*args, **kwargs)
