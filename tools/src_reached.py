"""List the executable lines of ``src/`` that no test runs.

    python3 tools/src_reached.py                  # the Tier-1 suite
    python3 tools/src_reached.py tests/test_lang.py -x

Runs pytest in this process, with the arguments given or else Tier-1's
(``-q --continue-on-collection-errors``, from the repository root), under a
line tracer (``sys.settrace`` and ``threading.settrace``) that records the
lines each ``src/`` file runs.  Then prints, for each file with lines left
over, their count and their numbers as ranges, and the total.  A line is
executable when the compiler gives it bytecode, so ``def`` and ``class``
lines count, and docstrings and comments do not.  Code run only in a child
process counts as not run.  Exits with pytest's status.  Standard library
and pytest only; nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that the compiler gives bytecode."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def reached_lines(
    files: Iterable[Path], run: Callable[[], object]
) -> tuple[dict[str, set[int]], object]:
    """The lines of each of ``files`` that ``run()`` executes, by file name,
    and what ``run()`` returned.  The trace functions in place before are
    put back afterwards."""
    reached: dict[str, set[int]] = {str(path): set() for path in files}

    def line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    tracers = {name: line_tracer(lines) for name, lines in reached.items()}

    def global_(frame, event, arg):
        # a call event: trace the frame's lines if its file is one of ours
        return tracers.get(frame.f_code.co_filename)

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return reached, result


def ranges(lines: Iterable[int]) -> str:
    """``1-3, 7`` for the lines 1, 2, 3 and 7."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unreached_lines(
    files: Iterable[Path], run: Callable[[], object]
) -> tuple[dict[str, set[int]], object]:
    """The executable lines of each of ``files`` that ``run()`` does not
    execute, by file name, and what ``run()`` returned.  The executable
    lines are read before the run, so a file edited while it runs is
    judged by the code that ran."""
    files = list(files)
    executable = {str(path): executable_lines(path) for path in files}
    reached, result = reached_lines(files, run)
    return {name: lines - reached[name] for name, lines in executable.items()}, result


def report(missing: dict[str, set[int]]) -> int:
    """Print each file's lines in ``missing`` and return their total."""
    total = 0
    for name, lines in missing.items():
        total += len(lines)
        if lines:
            print(f"{len(lines):5d}  {os.path.relpath(name)}: {ranges(lines)}")
    print(f"{total:5d}  total")
    return total


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or TIER1
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    files = sorted((ROOT / "src").rglob("*.py"))
    missing, status = unreached_lines(files, lambda: pytest.main(args))
    report(missing)
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
