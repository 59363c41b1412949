"""Dump what the command line prints for every corpus program, so that two
revisions can be compared byte for byte.

    python3 tools/cli_outputs.py DIR                    # every programs/*.prog
    python3 tools/cli_outputs.py DIR series stop_now    # named programs only
    PYTHONPATH=/path/to/other/src python3 tools/cli_outputs.py OTHER
    diff -r DIR OTHER

For each program it calls the command line's ``main`` in this process once
per run and writes one file per run, ``DIR/<program>.<run>``, holding the
exit code, the standard output and the standard error.  The runs are
``check``; ``run``, text and JSON, at lowest-tid and at random seed 3;
``explore``, text and JSON; ``denote``, text, JSON and DOT; and
``adequacy``.  Program paths are given relative to the repository root, so
the dumps of two checkouts name the same paths.

The ``dynthreads`` package is the one on ``PYTHONPATH`` when there is one,
and this checkout's ``src/`` otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))

RUNS = {
    "check": ["check"],
    "run": ["run"],
    "run-json": ["run", "--format", "json"],
    "run-random-3": ["run", "--policy", "random", "--seed", "3"],
    "run-random-3-json": ["run", "--policy", "random", "--seed", "3", "--format", "json"],
    "explore": ["explore"],
    "explore-json": ["explore", "--format", "json"],
    "denote": ["denote"],
    "denote-json": ["denote", "--format", "json"],
    "denote-dot": ["denote", "--format", "dot"],
    "adequacy": ["adequacy"],
}


def dump(program: str, run: list[str]) -> str:
    """The exit code, standard output and standard error of the command
    line on ``programs/<program>.prog`` with the arguments ``run``."""
    from dynthreads.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([run[0], f"programs/{program}.prog", *run[1:]])
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Dump the command line's outputs on the corpus.")
    parser.add_argument("dir", type=Path)
    parser.add_argument("programs", nargs="*")
    args = parser.parse_args(argv)
    programs = args.programs or sorted(p.stem for p in (ROOT / "programs").glob("*.prog"))
    out_dir = args.dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for program in programs:
            for name, run in RUNS.items():
                (out_dir / f"{program}.{name}").write_text(dump(program, run), encoding="utf-8")
    finally:
        os.chdir(cwd)
    print(f"wrote {len(programs) * len(RUNS)} files to {args.dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
