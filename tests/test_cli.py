from __future__ import annotations

import json
from pathlib import Path

import pytest

from dynthreads import cli, denote, machine
from dynthreads.cli import _pomset_text, _trace_line, main
from dynthreads.lang import LetC, desugar, parse_comp
from dynthreads.machine import DEFAULT_BUDGET, FINISHED, Configuration, StepLabel, run

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


def test_explore_reports_two_schedules(capsys):
    path = str(PROGRAMS_DIR / "ex21_no_wait.prog")
    assert main(["explore", path]) == 0
    out = capsys.readouterr().out
    assert "schedules: 2" in out
    assert "s1 s2" in out and "s2 s1" in out
    assert "observations pairwise isomorphic: yes" in out
    # the observation itself is discrete: no order lines between events
    assert " < " not in out.split("pomset:")[1]
    # every schedule is explore's: run has no policy of that name
    with pytest.raises(SystemExit) as exit_info:
        main(["run", path, "--policy", "exhaustive"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'exhaustive'" in capsys.readouterr().err


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
    # the text trace is built from each local step; printed whole from the
    # configuration each step reached instead, and cut, it reads the same
    for name in corpus_names():
        for policy, seed in [("lowest-tid", None)] + [("random", s) for s in (1, 2, 3)]:
            argv = ["run", str(PROGRAMS_DIR / f"{name}.prog"), "--policy", policy]
            assert main(argv + (["--seed", str(seed)] if seed else [])) == 0
            trace: list[str] = []
            result = graph_oracle.reference_run(
                load_core(name), policy, seed, DEFAULT_BUDGET,
                on_step=lambda label, c: trace.append(
                    graph_oracle.trace_line(label, graph_oracle.thread(c, label.acting))
                ),
            )
            expected = "\n".join(trace + ["pomset:"] + _pomset_text(result.pomset)) + "\n"
            assert capsys.readouterr().out == expected, (name, policy, seed)


def _trace_hook(seen: list):
    """The command line's trace hook, which also keeps the acting thread's
    new state with each line it renders."""
    def on_local(tid, _ordinal, local):
        label, state = StepLabel(tid, local.action), dict(local.threads)[tid]
        seen.append((label, state, _trace_line(label, state)))
    return on_local


def test_the_trace_renders_each_state_as_its_plugged_computation_prints():
    # every state the hook sees, rendered from its frames and focus, gives
    # the line cut from print_comp of the state plugged by the tests' own
    # plug, on the corpus and on an 800-print chain
    chain = desugar(parse_comp("".join(f"print[p{k}](); " for k in range(800)) + "stop()"))
    runs = [(load_core(name), policy, seed) for name in corpus_names()
            for policy, seed in (("lowest-tid", None), ("random", 3))]
    seen: list = []
    for comp, policy, seed in runs + [(chain, "lowest-tid", None)]:
        run(comp, policy, seed, on_local=_trace_hook(seen))
    for label, state, line in seen:
        plugged = state if state is FINISHED else graph_oracle.plug_state(state)
        assert line == graph_oracle.trace_line(label, plugged), line
    # the states are nested in frames, and long lines are cut
    assert max(len(graph_oracle._peel(graph_oracle.plug_state(state))[0])
               for _, state, _ in seen if state is not FINISHED) > 2
    assert sum(line.endswith("...") for _, _, line in seen) > len(seen) // 2


def test_run_trace_builds_no_let_node(monkeypatch, capsys):
    # the trace reads each state as it is: a text run builds as many let
    # nodes as a JSON run, which has no hook, while plugging the states
    # the hook sees would build some
    built = []
    init = LetC.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LetC, "__init__", counted)
    for name in corpus_names():
        for schedule in ([], ["--policy", "random", "--seed", "3"]):
            counts = []
            for fmt in ("text", "json"):
                built.clear()
                argv = ["run", str(PROGRAMS_DIR / f"{name}.prog"), "--format", fmt]
                assert main(argv + schedule) == 0
                counts.append(len(built))
            assert counts[0] == counts[1], (name, schedule, counts)
    capsys.readouterr()
    seen: list = []
    comp = load_core("diamond")
    built.clear()
    run(comp, on_local=_trace_hook(seen))
    unplugged = len(built)
    for _, state, _ in seen:
        if state is not FINISHED:
            graph_oracle.plug_state(state)
    assert len(built) > unplugged


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


@pytest.mark.parametrize("command", ["run", "explore", "denote", "adequacy"])
def test_each_program_command_type_checks_the_program_once(monkeypatch, tmp_path, capsys, command):
    # denote and adequacy_check type check what they are given, so the
    # command line does not check it first; an ill-typed program is
    # refused by that one check
    calls = []
    for module in (cli, denote):
        def counted(*args, job=module.typecheck_comp):
            calls.append(args[2])
            return job(*args)

        monkeypatch.setattr(module, "typecheck_comp", counted)
    assert main([command, str(PROGRAMS_DIR / "nshape.prog")]) == 0
    assert len(calls) == 1, calls
    calls.clear()
    assert main([command, _write(tmp_path, "bad.prog", "wait(()); stop()")]) == 2
    assert len(calls) == 1, calls
    assert capsys.readouterr().err == "error: TypeCheckError: expected tid, found 1\n"


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

    from model_oracle import poset_from_json, poset_to_json_text

    data = _json.loads(Path(out_path).read_text())
    poset = poset_from_json(data)
    assert poset_to_json_text(poset) == Path(out_path).read_text()


def test_export_dot(tmp_path, capsys):
    term_path = _write(tmp_path, "t.term", "fork(a. wait(a, act[s2]), act[s1])\n")
    assert main(["export", term_path, "--format", "dot"]) == 0
    assert "->" in capsys.readouterr().out


def test_denote_json_holds_the_term_and_poset_of_the_text_format(capsys):
    path = str(PROGRAMS_DIR / "series.prog")
    assert main(["denote", path]) == 0
    term_line, poset_text = capsys.readouterr().out.split("\n", 1)
    assert main(["denote", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["term"] == "fork(p1. wait(p1, act[s2]), act[s1])"
    assert term_line == f"term: {data['term']}"
    assert data["poset"] == json.loads(poset_text)


def test_export_text_is_the_normal_form(tmp_path, capsys):
    term_path = _write(tmp_path, "t.term", "fork(a. wait(a, act[s2]), act[s1])\n")
    assert main(["export", term_path, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text == "inputs 0\nb1: wait(0) act[s1]\nb2: wait(b1) act[s2]\nmain: wait(b1 + b2) stop\n"
    assert main(["normalize", term_path]) == 0
    assert capsys.readouterr().out == text


def test_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.prog", "let = in\n")
    assert main(["check", path]) == 2
    assert "error" in capsys.readouterr().err


def test_an_unreadable_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.prog"
    assert main(["check", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_run_refuses_a_program_with_a_world_header(tmp_path, capsys):
    # each command that runs or denotes a program names itself
    path = _write(tmp_path, "world.prog", "world #0.1;\nwait(#0.1); stop()\n")
    assert main(["check", path]) == 0
    for command in ("run", "explore", "denote", "adequacy"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"error: {command} expects programs in the empty world\n"


@pytest.mark.parametrize("text", ["ret ()\n", "let x = ret () in ret x\n"])
def test_run_and_explore_refuse_a_program_that_returns(tmp_path, capsys, text):
    # a root that returns is not a deadlock: as adequacy does, run and
    # explore refuse a program whose type is not the empty type
    path = _write(tmp_path, "ret.prog", text)
    for command in ("run", "explore"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            f"error: {command} needs a closed program of the empty type, got 1\n"
        )
    assert main(["adequacy", path]) == 2
    assert capsys.readouterr().err == (
        "error: DenoteError: adequacy needs a closed program of the empty type, got 1\n"
    )


@pytest.mark.parametrize("text", [
    "case stop() of {}\n",
    "print[a](); case stop() of {}\n",
    "let z = case stop() of {} in ret (z, ())\n",
])
def test_run_and_explore_take_a_program_that_never_returns(tmp_path, capsys, text):
    # a type with no values, the bottom marker's included, is as good as 0:
    # the program stops and never returns, and it is denoted at type 0
    path = _write(tmp_path, "never.prog", text)
    for command in ("run", "explore", "denote", "adequacy"):
        assert main([command, path]) == 0, command
        assert capsys.readouterr().err == "", command


def test_check_of_a_lone_case_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "case.prog", "case\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: ParseError: 2:1: unexpected end of input\n"


def test_the_environment_sets_no_budget(monkeypatch, capsys):
    path = str(PROGRAMS_DIR / "nshape.prog")
    assert main(["run", path]) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv("DYNTHREADS_FUEL", "2")
    assert main(["run", path]) == 0
    assert capsys.readouterr() == expected
    assert main(["run", path, "--fuel", "2"]) == 2
    assert "FuelExhausted" in capsys.readouterr().err


@pytest.mark.parametrize("fuel", ["0", "-4"])
def test_fuel_below_one_is_a_usage_error(capsys, fuel):
    path = str(PROGRAMS_DIR / "nshape.prog")
    for command in ("run", "explore", "adequacy"):
        assert main([command, path, "--fuel", fuel]) == 2
        assert capsys.readouterr().err == f"error: --fuel must be at least 1, got {fuel}\n"
