"""``tools/cli_outputs.py`` writes one file per command-line run of each
program and of each axiom's term files: its exit code, standard output and
standard error."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_SPEC = importlib.util.spec_from_file_location("cli_outputs", _PATH)
cli_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_outputs)


def test_dumps_every_run_of_the_named_programs(tmp_path, capsys):
    assert cli_outputs.main([str(tmp_path / "a"), "printstop_single", "series"]) == 0
    assert capsys.readouterr().out == (
        f"wrote 22 program dumps and 72 term dumps to {tmp_path / 'a'}\n"
    )
    files = sorted(p.name for p in (tmp_path / "a").iterdir() if p.is_file())
    assert files == sorted(f"{p}.{run}" for p in ("printstop_single", "series")
                           for run in cli_outputs.RUNS)
    run = (tmp_path / "a" / "printstop_single.run").read_text()
    assert run == (
        "exit: 0\n--- stdout\n0 s1 -> finished\npomset:\nevents: 1\n  0: s1\n--- stderr\n"
    )
    adequacy = (tmp_path / "a" / "series.adequacy").read_text()
    assert adequacy.startswith("exit: 0\n--- stdout\nadequacy: ok (programs/series.prog, ")
    # the term files of the eight axioms: each side, its runs, and eq
    terms = tmp_path / "a" / "terms"
    assert len(list(terms.iterdir())) == 8 * (2 * (1 + len(cli_outputs.TERM_RUNS)) + 1)
    assert (terms / "F-UNIT-R.rhs.term").read_text() == "vars x:1;\ntids b;\nx(b)\n"
    assert (terms / "F-UNIT-R.eq").read_text() == "exit: 0\n--- stdout\nequal\n--- stderr\n"
    # a second dump reads the same
    cli_outputs.main([str(tmp_path / "b"), "printstop_single", "series"])
    for name in files + [f"terms/{p.name}" for p in terms.iterdir()]:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
