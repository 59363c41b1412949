"""Dual-route check for exploration.

:func:`dynthreads.machine.explore` and
:func:`~dynthreads.machine.run_exhaustive` learn what every schedule does
from the determinacy gate's one lowest-tid run: its terminal
configuration, its observation, and the labelled traces as the linear
extensions of the order of its labelled steps.  They are checked against
the schedule-graph walk they replaced, kept in ``tests/graph_oracle.py``.
Both must give the same verdicts, traces and terminals, and isomorphic
observations, on every corpus program, ``nested_wait``, and the smallest
print chain and ``node`` DAG of the ``long-programs`` benchmark workload
that the walk finishes on.  Where the machine is broken so that a step
writes a thread other than its own and a new child, neither reports the
determinacy verdicts true.

The traces are compared only on these small inputs: the walk lists every
trace, and so does reading ``traces``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dynthreads import machine
from dynthreads.cli import main
from dynthreads.lang import desugar, parse_comp, parse_program
from dynthreads.machine import (
    MachineError,
    check_confluence,
    explore,
    run,
    run_exhaustive,
)

import graph_oracle
from corpus import EXTRA_PROGRAMS, PROGRAMS_DIR, corpus_names, load_core, load_named
from test_machine import _mutate_local_steps

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import long_programs  # noqa: E402

# the smallest sizes of the workload's families, the ones the walk finishes on
LONG_PROGRAMS = {
    name: text
    for name, _, text, *_ in long_programs.setup(Path(), 2020)
    if name in (f"chain{min(long_programs.CHAIN_SIZES)}", f"dag{min(long_programs.DAG_SIZES)}")
}


def _load(name: str):
    if name in LONG_PROGRAMS:
        world, comp = parse_program(LONG_PROGRAMS[name])
        assert not world
        return desugar(comp)
    return load_named(name)


@pytest.mark.parametrize("name", corpus_names() + sorted(EXTRA_PROGRAMS) + sorted(LONG_PROGRAMS))
def test_explore_agrees_with_the_walk(name):
    comp = _load(name)
    got, walked = explore(comp), graph_oracle.explore(comp)
    assert (got.all_iso, got.traces_match_linearizations) == (True, True)
    assert (walked.all_iso, walked.traces_match_linearizations) == (True, True)
    assert got.mismatch is None and got.confluence == check_confluence(comp)
    assert got.traces == walked.traces
    assert got.terminals == walked.terminals
    (observed,) = got.observations
    assert all(observed.iso_to(pom) is not None for pom in walked.observations)
    # the labelled traces are the linearizations of the observation
    assert got.traces == observed.linearizations()
    # the states are the run's configurations; the walk counts its graph
    assert got.states == len(run(comp).events) + 1 <= walked.states
    (result,) = run_exhaustive(comp)
    assert result == run(comp)
    assert [r.terminal for r in graph_oracle.run_exhaustive(comp)] == [result.terminal]
    assert all(result.pomset.iso_to(r.pomset) is not None for r in graph_oracle.run_exhaustive(comp))


def test_both_long_program_families_are_checked():
    assert len(LONG_PROGRAMS) == 2


def test_explore_of_wide_forks_is_one_run():
    # the walk's reduced graph of an n-wide fork has every interleaving of
    # the n labelled steps; the gate's run takes each step once.  Only the
    # verdicts are read, so no trace is listed
    for n in (10, 256):
        text = "".join(f"let x{k} = node[s{k}](nil) in " for k in range(n)) + "stop()"
        result = explore(desugar(parse_comp(text)))
        assert result.all_iso and result.traces_match_linearizations
        assert result.step_order.down == (0,) * n
        assert "traces" not in vars(result)


def _break_the_print_of_s1(monkeypatch):
    """In ``ex21_no_wait``, the print of s1 by thread 0.2 also sets thread
    0.1.1, the printer of s2, to ``stop()``: a write outside the acting
    thread and its next child.  In the schedules where s1 comes first, s2
    is never printed."""
    stop = desugar(parse_comp("stop()"))

    def change(out, comp, tid):
        if out.action is None or tid != (2,):
            return out
        return machine._LocalOut(out.action, out.threads + (((1, 1), stop),), out.new_prec)

    _mutate_local_steps(monkeypatch, change)


def test_a_non_local_step_fails_both_explorations(monkeypatch):
    _break_the_print_of_s1(monkeypatch)
    comp = load_core("ex21_no_wait")
    got, walked = explore(comp), graph_oracle.explore(comp)
    # the walk sees a trace without s2; the gate names the step
    assert walked.traces == {("s1",), ("s2", "s1")}
    assert not (walked.all_iso and walked.traces_match_linearizations)
    assert (got.all_iso, got.traces_match_linearizations) == (False, False)
    assert got.confluence.detail == "step of 0.2 changes thread 0.1.1"
    assert (got.terminals, got.observations, got.traces) == ((), (), frozenset())
    with pytest.raises(MachineError, match=r"^determinacy gate violated: step of 0\.2 "):
        run_exhaustive(comp)


def test_the_command_line_reports_a_violated_gate(monkeypatch, capsys):
    # exit code 1 and the ``confluence: VIOLATED`` line, and neither
    # determinacy verdict is reported true
    _break_the_print_of_s1(monkeypatch)
    path = str(PROGRAMS_DIR / "ex21_no_wait.prog")
    assert main(["explore", path]) == 1
    out = capsys.readouterr().out
    assert "\nconfluence: VIOLATED\n" in out
    assert "observations pairwise isomorphic" not in out
    assert "traces match linearizations: NO\n" in out


def _hide_waits_from_the_gate(monkeypatch):
    """The gate's hook sees every local step without its wait pairs, so it
    records no wait prerequisite; the run still applies them."""
    original = machine.run

    def hidden(comp, *args, on_local=None, **kwargs):
        def hook(tid, ordinal, local):
            on_local(tid, ordinal, local._replace(new_prec=frozenset()))

        return original(comp, *args, on_local=hook if on_local else None, **kwargs)

    monkeypatch.setattr(machine, "run", hidden)


WITNESS = (
    "0.2 (s1) is the first element whose down-set differs: "
    "0.1.1 (s2) < 0.2 (s1) is only in the observation"
)


def test_a_step_order_without_waits_is_named(monkeypatch, capsys):
    _hide_waits_from_the_gate(monkeypatch)
    result = explore(load_core("ex21_wait_first"))
    assert result.all_iso and not result.traces_match_linearizations
    assert result.mismatch == WITNESS
    # the traces are the step order's: without the wait, both orders
    assert result.traces == {("s1", "s2"), ("s2", "s1")}
    path = str(PROGRAMS_DIR / "ex21_wait_first.prog")
    assert main(["explore", path]) == 1
    assert f"traces match linearizations: NO\n  {WITNESS}\n" in capsys.readouterr().out
    assert main(["explore", path, "--format", "json"]) == 1
    assert f'"traces_mismatch": "{WITNESS}"' in capsys.readouterr().out


def test_a_thread_that_acts_twice_is_an_error(monkeypatch):
    # a print step that leaves its thread as it was, so it prints again
    def change(out, comp, tid):
        if out.action is None:
            return out
        return machine._LocalOut(out.action, ((tid, comp),), out.new_prec)

    _mutate_local_steps(monkeypatch, change)
    with pytest.raises(MachineError, match=r"^thread 0\.1 acts twice$"):
        explore(desugar(parse_comp("print[s](); stop()")))

