"""Dual-route check for the scheduled run and its observation.

:func:`dynthreads.machine.run` keeps its scheduler state across steps and
updates only what each step wrote, and
:func:`~dynthreads.machine.observation` closes the final waits in one pass
in the order the threads finished.  Both are checked against the code they
replaced, kept as the reference: ``reference_run`` of
``tests/graph_oracle.py``, which finds the runnable threads with its
``_runnable`` and builds the next configuration with its ``_apply`` at
every step, and, below, an observation that closes the waiting relation
with the pair closure ``_close_pairs`` of ``tests/pair_oracle.py``.

A run and its reference must give the same events and terminal
configuration, call ``on_local`` with the same arguments in the same order
(the run's thread states plugged into computations), or raise the same
error with the same message.  The reference steps with the oracle's own
local step, which peels and plugs the ``let`` frames at every step; the
run keeps them between steps.  Every terminated run, and every terminal
run of the schedule-graph walk's ``run_exhaustive`` on the corpus, must
give the same pomset both ways.

The inputs are the corpus programs and ``nested_wait`` under the lowest-tid
policy and random seeds 1 to 5, with the fuel they need and one step less;
the print chains and ``node`` DAGs of the ``long-programs`` benchmark
workload from three seeds; a 64-wide ``node`` fork; and programs that
deadlock.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dynthreads import denote, lang, machine
from dynthreads.lang import EMPTY, desugar, parse_comp, parse_program, tid_str
from dynthreads.machine import (
    DEFAULT_BUDGET,
    FINISHED,
    Configuration,
    Deadlock,
    FuelExhausted,
    MachineError,
    observation,
    run,
    run_with_preservation,
)
from dynthreads.posets import Pomset

from corpus import NESTED_WAIT, OUT_OF_ORDER, corpus_names, load_core
from graph_oracle import plugged, prec, reference_run, run_exhaustive
from pair_oracle import _close_pairs

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import long_programs  # noqa: E402

SCHEDULES = [("lowest-tid", None)] + [("random", seed) for seed in range(1, 6)]


def reference_observation(events, final) -> Pomset:
    """Labelled steps ordered by the closure of the final waits, computed
    from the pairs."""
    labelled = [e for e in events if e.action is not None]
    labels = {tid_str(e.acting): e.action for e in labelled}
    acting = {e.acting for e in labelled}
    order = frozenset(
        (tid_str(b), tid_str(a))
        for (b, a) in _close_pairs(prec(final))
        if b in acting and a in acting
    )
    return Pomset.of(labels, order)


def _outcome(runner, comp, policy, seed, fuel, hooked):
    """What a run shows: its events, terminal configuration and
    ``on_local`` calls, or its error and message and the calls before it.
    Each call is the acting thread, its spawn ordinal and its local step:
    action, states and wait pairs, the states plugged into computations
    where the runner keeps thread states."""
    calls = []
    read = plugged if runner is run else lambda local: local
    hooks = {"on_local": lambda t, n, local: calls.append((t, n, read(local)))} if hooked else {}
    try:
        result = runner(comp, policy, seed, fuel, **hooks)
    except MachineError as exc:
        return type(exc).__name__, str(exc), calls
    return result.events, result.terminal, calls


def _agree(comp, schedules=SCHEDULES, fuel=DEFAULT_BUDGET) -> list:
    """Run ``comp`` both ways on every schedule, with and without hooks,
    and compare the observations of the terminated runs; return the
    outcomes."""
    outcomes = []
    for policy, seed in schedules:
        for hooked in (False, True):
            got = _outcome(run, comp, policy, seed, fuel, hooked)
            want = _outcome(reference_run, comp, policy, seed, fuel, hooked)
            assert got == want, (policy, seed, fuel, hooked)
        if isinstance(got[1], Configuration):
            events, terminal, _ = got
            assert observation(events, terminal) == reference_observation(events, terminal)
        outcomes.append(got)
    return outcomes


def _agree_on_fuel(comp) -> None:
    """Agree on every schedule with the default fuel, with the fuel the
    run needs and with one step less."""
    for (policy, seed), (events, _, _) in zip(SCHEDULES, _agree(comp)):
        steps = len(events)
        (short,) = _agree(comp, [(policy, seed)], fuel=steps - 1)
        assert short[:2] == ("FuelExhausted", f"no terminal configuration within {steps - 1} steps")
        (exact,) = _agree(comp, [(policy, seed)], fuel=steps)
        assert exact[0] == events


@pytest.mark.parametrize("name", corpus_names())
def test_run_agrees_with_the_reference_on_the_corpus(name):
    _agree_on_fuel(load_core(name))


def test_run_agrees_with_the_reference_off_the_corpus():
    _agree_on_fuel(desugar(parse_comp(NESTED_WAIT)))
    wide = "".join(f"let x{k} = node[s{k}](nil) in " for k in range(64)) + "stop()"
    for events, terminal, _ in _agree(desugar(parse_comp(wide))):
        assert len(observation(events, terminal).element_ids) == 64


def test_run_agrees_with_the_reference_on_long_programs():
    # 3131 and 3137 are seeds no benchmark run uses
    for seed in (2020, 3131, 3137):
        for name, check, text, labels, order, schedule in long_programs.setup(Path(), seed):
            if check != "run":
                continue
            comp = desugar(parse_program(text)[1])
            for events, terminal, _ in _agree(comp, [("lowest-tid", None), ("random", schedule)]):
                pomset = observation(events, terminal)
                lab = pomset.label_map
                assert frozenset(lab.values()) == labels, name
                assert frozenset((lab[a], lab[b]) for a, b in pomset.order) == order, name


@pytest.mark.parametrize("text, stuck", [
    ("wait(#0.1); stop()", "0"),
    ("ret ()", "0"),
    ("fork(); wait(#0.5); stop()", "0, 0.1"),
    ("let x = fork() in case x of { inj1 a => wait(a); stop() | inj2 u => wait(#0); stop() }",
     "0, 0.1"),
    # a thread that returns a value stops being runnable
    ("let x = ret () in ret x", "0"),
    ("let x = fork() in case x of { inj1 a => stop() | inj2 u => ret () }", "0.1"),
])
def test_run_agrees_with_the_reference_on_deadlocks(text, stuck):
    message = f"deadlocked configuration with no enabled steps: {stuck}"
    for outcome in _agree(desugar(parse_comp(text))):
        assert outcome[:2] == ("Deadlock", message)


@pytest.mark.parametrize("name", corpus_names())
def test_observation_agrees_with_the_reference_on_every_terminal(name):
    # the witness path of each terminal of the reduced graph is a
    # terminated run too
    for result in run_exhaustive(load_core(name)):
        assert result.pomset == reference_observation(result.events, result.terminal)


def test_a_run_builds_one_configuration_and_never_scans_the_threads(monkeypatch):
    built = []

    def counted(threads):
        built.append(threads)
        return Configuration(threads)

    # the scan of every thread for the runnable ones is the oracle's alone
    assert not hasattr(machine, "_runnable")
    monkeypatch.setattr(machine, "Configuration", counted)
    for name in corpus_names():
        for policy, seed in SCHEDULES:
            built.clear()
            result = run(load_core(name), policy, seed)
            assert len(built) == 1 and result.terminal.threads is built[0], (name, policy, seed)
            # the preservation check reads the steps from its own hook and
            # builds no configuration of its own
            built.clear()
            result, _ = run_with_preservation(load_core(name), EMPTY, policy, seed)
            assert len(built) == 1 and result.terminal.threads is built[0], (name, policy, seed)


def test_nothing_plugs_a_thread_state(monkeypatch):
    # each thread keeps its frames and focus between steps, and the plug
    # back into a computation lives in the tests alone.  The preservation
    # check types thread states alone, the root's first and then each
    # unfinished state a step writes, and never a whole computation; a
    # deadlock builds no configuration
    typed, built = [], []
    check_state = machine._check_state

    def counted_check(world, state, ty, memo):
        typed.append(state)
        return check_state(world, state, ty, memo)

    def counted_configuration(threads):
        built.append(threads)
        return Configuration(threads)

    def writes(a, ordinal, local):
        written.extend(s for _, s in local.threads if s is not FINISHED)

    monkeypatch.setattr(machine, "_check_state", counted_check)
    monkeypatch.setattr(machine, "Configuration", counted_configuration)
    # the plug, the whole check of plugged states and its checker live in
    # the tests
    assert not hasattr(machine, "_plug") and not hasattr(denote, "_plug")
    assert not hasattr(machine, "_ill_formed") and not hasattr(machine, "check_comp")
    assert not hasattr(lang, "check_comp")
    for name in corpus_names():
        comp = load_core(name)
        for policy, seed in SCHEDULES:
            run(comp, policy, seed)
            typed.clear()
            run_with_preservation(comp, EMPTY, policy, seed)
            written = [machine.descend((), comp)]
            run(comp, policy, seed, on_local=writes)
            assert typed == written, (name, policy, seed)
    for text in ("fork(); wait(#0.5); stop()",
                 "let x = fork() in case x of { inj1 a => stop() | inj2 u => ret () }"):
        built.clear()
        with pytest.raises(Deadlock):
            run(desugar(parse_comp(text)))
        assert built == [], text
    # children numbered downwards (see the preservation oracle): the fourth
    # step spawns 0.-2, which cannot name 0.-1; the states of the first four
    # steps are typed as thread states, the root's before its child's
    local_step = machine._local_step
    monkeypatch.setattr(
        machine, "_local_step", lambda state, tid, ordinal: local_step(state, tid, -abs(ordinal))
    )
    comp = desugar(parse_comp(OUT_OF_ORDER[0]))
    typed.clear()
    with pytest.raises(MachineError, match=r"after step 4 ill-formed: thread 0\.-2 "):
        run_with_preservation(comp, EMPTY)
    written = [machine.descend((), comp)]
    with pytest.raises(FuelExhausted):
        run(comp, fuel=4, on_local=writes)
    assert typed == written, typed
    assert typed[-1] == (typed[-2][0], machine.CHILD_START)


def test_a_long_print_chain_runs_and_builds_its_pomset():
    n = 800
    text = "".join(f"print[p{k}](); " for k in range(n)) + "stop()"
    pomset = run(desugar(parse_comp(text))).pomset
    assert len(pomset.element_ids) == n
    assert len(pomset.order) == n * (n - 1) // 2
    lab = pomset.label_map
    assert all(int(lab[a][1:]) < int(lab[b][1:]) for a, b in pomset.order)
