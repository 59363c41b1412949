"""Dump what the command line prints for every corpus program and for the
term files of the eight axioms, so that two revisions can be compared byte
for byte.

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

Then it writes both sides of each equation of ``axiom_schemas()`` as term
files, ``DIR/terms/<axiom>.lhs.term`` and ``.rhs.term``, printed by
``print_term_file``, and dumps the term-file commands the same way:
``normalize`` and ``export`` (JSON, DOT and text) of each side, as
``DIR/terms/<axiom>.<side>.<run>``, and ``eq`` of the two sides, as
``DIR/terms/<axiom>.eq``.  Term paths are given relative to ``DIR``.

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


TERM_RUNS = {
    "normalize": ["normalize"],
    "export": ["export"],
    "export-dot": ["export", "--format", "dot"],
    "export-text": ["export", "--format", "text"],
}


def dump(argv: list[str]) -> str:
    """The exit code, standard output and standard error of the command
    line with the arguments ``argv``."""
    from dynthreads.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def dump_terms() -> int:
    """Write the axioms' term files under ``terms/`` of the working
    directory and dump the term-file commands on them; returns the number
    of dumps."""
    from dynthreads.terms import axiom_schemas, print_term_file

    Path("terms").mkdir(exist_ok=True)
    count = 0
    for axiom in axiom_schemas():
        paths = []
        for side, term in (("lhs", axiom.lhs), ("rhs", axiom.rhs)):
            stem = f"terms/{axiom.name}.{side}"
            paths.append(f"{stem}.term")
            text = print_term_file(axiom.gamma, axiom.delta, term)
            Path(paths[-1]).write_text(text, encoding="utf-8")
            for name, run in TERM_RUNS.items():
                text = dump([run[0], paths[-1], *run[1:]])
                Path(f"{stem}.{name}").write_text(text, encoding="utf-8")
                count += 1
        Path(f"terms/{axiom.name}.eq").write_text(dump(["eq", *paths]), encoding="utf-8")
        count += 1
    return count


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
                text = dump([run[0], f"programs/{program}.prog", *run[1:]])
                (out_dir / f"{program}.{name}").write_text(text, encoding="utf-8")
        os.chdir(out_dir)
        terms = dump_terms()
    finally:
        os.chdir(cwd)
    print(f"wrote {len(programs) * len(RUNS)} program dumps and {terms} term dumps to {args.dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
