from __future__ import annotations

import json
from pathlib import Path

import pytest

from dynthreads import machine
from dynthreads.cli import _pomset_text, _trace_line, main
from dynthreads.machine import DEFAULT_BUDGET, Configuration, run

import graph_oracle
from corpus import PROGRAMS_DIR, corpus_names, load_core


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EX44_LHS = "fork(a. wait(a, act[s1]), fork(b. stop, act[s2]))\n"
EX44_RHS = "fork(b. act[s1], act[s2])\n"


def test_eq_on_derivably_equal_terms(tmp_path, capsys):
    p1 = _write(tmp_path, "lhs.term", EX44_LHS)
    p2 = _write(tmp_path, "rhs.term", EX44_RHS)
    assert main(["eq", p1, p2]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_eq_not_equal_exit_code(tmp_path, capsys):
    p1 = _write(tmp_path, "a.term", "act[s1]\n")
    p2 = _write(tmp_path, "b.term", "act[s2]\n")
    assert main(["eq", p1, p2]) == 1
    out = capsys.readouterr().out
    assert "not-equal" in out and "evidence" in out


def test_eq_context_mismatch_is_an_error(tmp_path, capsys):
    p1 = _write(tmp_path, "a.term", "tids a;\nwait(a, stop)\n")
    p2 = _write(tmp_path, "b.term", "stop\n")
    assert main(["eq", p1, p2]) == 2


def test_eq_on_a_malformed_term_file_is_an_error(tmp_path, capsys):
    p1 = _write(tmp_path, "a.term", "wait(a +, stop)\n")
    p2 = _write(tmp_path, "b.term", "stop\n")
    assert main(["eq", p1, p2]) == 2
    assert "TermError" in capsys.readouterr().err


def test_normalize_stop_is_empty(tmp_path, capsys):
    path = _write(tmp_path, "stop.term", "stop\n")
    assert main(["normalize", path]) == 0
    out = capsys.readouterr().out
    assert "inputs 0" in out
    assert "main: wait(0) stop" in out


def test_check_reports_type(capsys):
    assert main(["check", str(PROGRAMS_DIR / "nshape.prog")]) == 0
    assert capsys.readouterr().out.strip() == "type: 0"


def test_run_exhaustive_reports_two_schedules(capsys):
    path = str(PROGRAMS_DIR / "ex21_no_wait.prog")
    assert main(["run", path, "--policy", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "schedules: 2" in out
    assert "s1 s2" in out and "s2 s1" in out
    assert "observations pairwise isomorphic: yes" in out
    # the observation itself is discrete: no order lines between events
    assert " < " not in out.split("pomset:")[1]


def test_explore_text_and_json(capsys):
    # ``states`` counts the configurations of the gate's one run, 26 here;
    # the reduced schedule graph of the walk that explore replaced has 31
    path = str(PROGRAMS_DIR / "ex21_no_wait.prog")
    assert main(["explore", path, "--fuel", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("states: 26\nschedules: 2\n  s1 s2\n  s2 s1\n")
    assert "\nconfluence: ok\n" in out
    assert main(["explore", path, "--fuel", "10000", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == 26
    assert graph_oracle.explore(load_core("ex21_no_wait")).states == 31
    assert data["schedules"] == [["s1", "s2"], ["s2", "s1"]]
    # the confluence check counts the configurations of one run
    assert data["confluence"] == {
        "ok": True, "states": 26, "truncated": False, "detail": None,
    }


def test_explore_confluence_is_complete(capsys):
    # the full graph of diamond exceeds 10,000 states; the confluence check
    # follows one run and completes
    path = str(PROGRAMS_DIR / "diamond.prog")
    assert main(["explore", path, "--fuel", "10000"]) == 0
    assert "\nconfluence: ok\n" in capsys.readouterr().out
    assert main(["explore", path, "--fuel", "10000", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["confluence"] == {
        "ok": True, "states": 70, "truncated": False, "detail": None,
    }


def test_run_trace_text(capsys):
    assert main(["run", str(PROGRAMS_DIR / "series.prog")]) == 0
    out = capsys.readouterr().out
    assert "pomset:" in out
    assert "events: 2" in out


def test_run_records_trace_lines(capsys):
    assert main(["run", str(PROGRAMS_DIR / "printstop_single.prog")]) == 0
    assert capsys.readouterr().out == "0 s1 -> finished\npomset:\nevents: 1\n  0: s1\n"


def test_run_trace_from_local_steps_matches_the_configurations(capsys):
    # the text trace is built from each local step; rendered from the
    # configuration each step reached instead, it reads the same
    for name in corpus_names():
        for policy, seed in [("lowest-tid", None)] + [("random", s) for s in (1, 2, 3)]:
            argv = ["run", str(PROGRAMS_DIR / f"{name}.prog"), "--policy", policy]
            assert main(argv + (["--seed", str(seed)] if seed else [])) == 0
            trace: list[str] = []
            result = run(
                load_core(name), policy, seed, DEFAULT_BUDGET,
                on_step=lambda label, c: trace.append(_trace_line(label, c.thread(label.acting))),
            )
            expected = "\n".join(trace + ["pomset:"] + _pomset_text(result.pomset)) + "\n"
            assert capsys.readouterr().out == expected, (name, policy, seed)


def test_run_trace_builds_only_the_terminal_configuration(monkeypatch, capsys):
    built = []

    def counted(threads):
        built.append(threads)
        return Configuration(threads)

    monkeypatch.setattr(machine, "Configuration", counted)
    assert main(["run", str(PROGRAMS_DIR / "series.prog")]) == 0
    assert "pomset:" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("command", ["run", "adequacy"])
def test_fuel_allows_exactly_that_many_steps(capsys, command):
    # stop_now terminates after one step and series after eleven
    for name, fuel in (("stop_now", "1"), ("series", "11")):
        assert main([command, str(PROGRAMS_DIR / f"{name}.prog"), "--fuel", fuel]) == 0
        assert capsys.readouterr().err == ""
    assert main([command, str(PROGRAMS_DIR / "series.prog"), "--fuel", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: FuelExhausted: no terminal configuration within 10 steps\n"


def test_run_json_deterministic(capsys):
    path = str(PROGRAMS_DIR / "parallel.prog")
    assert main(["run", path, "--policy", "random", "--seed", "5",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["run", path, "--policy", "random", "--seed", "5",
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"policy": "random"' in first


def test_run_random_requires_seed(capsys):
    assert main(["run", str(PROGRAMS_DIR / "series.prog"), "--policy", "random"]) == 2


def test_adequacy_verdict(capsys):
    assert main(["adequacy", str(PROGRAMS_DIR / "ex21_wait_first.prog")]) == 0
    assert "adequacy: ok" in capsys.readouterr().out


def test_adequacy_json_contains_both_posets(capsys):
    assert main(["adequacy", str(PROGRAMS_DIR / "series.prog"),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"observed"' in out and '"denoted"' in out and '"verdict": "ok"' in out


def test_denote_formats(capsys):
    path = str(PROGRAMS_DIR / "parallel.prog")
    assert main(["denote", path]) == 0
    text = capsys.readouterr().out
    assert text.startswith("term: fork(")
    assert main(["denote", path, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph poset {")


def test_export_json_and_round_trip(tmp_path, capsys):
    term_path = _write(
        tmp_path, "t.term", "vars x:1;\ntids a1, a2;\n" +
        "fork(b1. fork(b2. wait(a1 + b1 + b2, stop), wait(a1 + b1, x(a1 + a2 + b1))), wait(a1, act[s1]))\n"
    )
    out_path = str(tmp_path / "t.poset.json")
    assert main(["export", term_path, "--output", out_path]) == 0

    import json as _json

    from dynthreads.posets import poset_from_json, poset_to_json_text

    data = _json.loads(Path(out_path).read_text())
    poset = poset_from_json(data)
    assert poset_to_json_text(poset) == Path(out_path).read_text()


def test_export_dot(tmp_path, capsys):
    term_path = _write(tmp_path, "t.term", "fork(a. wait(a, act[s2]), act[s1])\n")
    assert main(["export", term_path, "--format", "dot"]) == 0
    assert "->" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.prog", "let = in\n")
    assert main(["check", path]) == 2
    assert "error" in capsys.readouterr().err


def test_check_of_a_lone_case_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "case.prog", "case\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: ParseError: unexpected end of input\n"


def test_fuel_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYNTHREADS_FUEL", "2")
    assert main(["run", str(PROGRAMS_DIR / "nshape.prog")]) == 2
    assert "FuelExhausted" in capsys.readouterr().err


@pytest.mark.parametrize("fuel", ["0", "-4"])
def test_fuel_below_one_is_a_usage_error(monkeypatch, capsys, fuel):
    path = str(PROGRAMS_DIR / "nshape.prog")
    for command in ("run", "explore", "adequacy"):
        assert main([command, path, "--fuel", fuel]) == 2
        assert capsys.readouterr().err == f"error: --fuel must be at least 1, got {fuel}\n"
    monkeypatch.setenv("DYNTHREADS_FUEL", fuel)
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: DYNTHREADS_FUEL must be at least 1, got {fuel}\n"
