"""Dual-route check for the preservation run.

:func:`dynthreads.machine.run_with_preservation` checks the first
configuration whole and then, after each step, only the entries the step
wrote, with one typing memo for the run.  It is checked against the run it
replaced, kept below as the reference: the whole of
:func:`~dynthreads.machine.check_config_well_formed` on every configuration,
in its :func:`~dynthreads.machine.creation_order`, without a memo.  Both
must give the same result and number of checks, or raise the same error
with the same message.

The inputs are every corpus program under the lowest-tid policy and random
seeds 1 to 5, ``nested_wait``, and 600 nested cases; and broken runs, where
the type checker rejects chosen thread states or the machine takes steps
that break the invariant the check relies on.
"""

from __future__ import annotations

import pytest

from dynthreads import machine
from dynthreads.lang import (
    EMPTY,
    TID,
    UNIT,
    UNIT_V,
    ApplyC,
    CaseV,
    ConstV,
    InjV,
    LangError,
    LetC,
    Ret,
    Sum,
    _tids,
    desugar,
    parse_comp,
)
from dynthreads.machine import (
    DEFAULT_BUDGET,
    Configuration,
    MachineError,
    check_config_well_formed,
    creation_order,
    run,
    run_with_preservation,
)

from corpus import NESTED_WAIT, corpus_names, load_core

SCHEDULES = [("lowest-tid", None)] + [("random", seed) for seed in range(1, 6)]


def reference_run_with_preservation(comp, result_type, policy="lowest-tid", seed=None,
                                    fuel=DEFAULT_BUDGET):
    """Run while checking every configuration whole in its creation order."""
    c0 = Configuration.initial(comp)
    bad = check_config_well_formed(c0, result_type, creation_order(c0.world))
    if bad:
        raise MachineError(f"initial configuration ill-formed: {bad}")
    steps = 0

    def check(_, c) -> None:
        nonlocal steps
        steps += 1
        bad = check_config_well_formed(c, result_type, creation_order(c.world))
        if bad:
            raise MachineError(f"configuration after step {steps} ill-formed: {bad}")

    result = run(comp, policy, seed, fuel, on_step=check)
    return result, steps + 1


def _outcome(judge, comp, policy, seed):
    try:
        result, checks = judge(comp, EMPTY, policy=policy, seed=seed)
    except (MachineError, LangError) as exc:
        return type(exc).__name__, str(exc)
    return result.events, result.terminal, checks


def _agree(comp, schedules=SCHEDULES) -> list:
    outcomes = []
    for policy, seed in schedules:
        got = _outcome(run_with_preservation, comp, policy, seed)
        want = _outcome(reference_run_with_preservation, comp, policy, seed)
        assert got == want, (policy, seed)
        outcomes.append(got)
    return outcomes


def _nested_cases(depth: int):
    comp = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(depth):
        comp = CaseV(InjV(1, UNIT_V, Sum((UNIT,))), (("u", comp),))
    return comp


@pytest.mark.parametrize("name", corpus_names())
def test_preservation_agrees_with_the_whole_check_on_the_corpus(name):
    for outcome in _agree(load_core(name)):
        assert len(outcome) == 3, outcome


def test_preservation_agrees_with_the_whole_check_off_the_corpus():
    _agree(desugar(parse_comp(NESTED_WAIT)))
    (outcome,) = _agree(_nested_cases(600), SCHEDULES[:1])
    assert outcome[2] == 602


def _innermost_bound(state):
    while type(state) is LetC:
        state = state.bound
    return state


FORK_RESULT = Sum((TID, UNIT))

# thread states the broken type checker rejects: the root at ``stop()``, a
# child just spawned, a thread that has just waited, any state that names a
# thread
REJECTED = {
    "stop": lambda state: state == desugar(parse_comp("stop()")),
    "new child": lambda state: _innermost_bound(state) == Ret(InjV(2, UNIT_V, FORK_RESULT)),
    "after a wait": lambda state: _innermost_bound(state) == Ret(UNIT_V),
    "names a thread": lambda state: bool(_tids(state)),
}


@pytest.mark.parametrize("rejected", sorted(REJECTED))
def test_preservation_agrees_with_the_whole_check_on_broken_typing(monkeypatch, rejected):
    check_comp = machine.check_comp

    def broken(gamma, visible, state, ty, memo=None):
        if REJECTED[rejected](state):
            raise LangError(f"rejected: {rejected}")
        return check_comp(gamma, visible, state, ty, memo)

    monkeypatch.setattr(machine, "check_comp", broken)
    failures = 0
    for name in corpus_names():
        for outcome in _agree(load_core(name), SCHEDULES[:2]):
            failures += len(outcome) == 2
    assert failures > 0


def test_preservation_agrees_with_the_whole_check_on_broken_waits(monkeypatch):
    # a wait step that also waits for the acting thread itself, or for a
    # thread that does not exist
    local_step = machine._local_step

    def waits_too(extra):
        def broken(comp, tid, ordinal):
            out = local_step(comp, tid, ordinal)
            if out.new_prec:
                return machine._LocalOut(out.action, out.threads,
                                         out.new_prec | {(extra(tid), tid)})
            return out
        return broken

    for extra in (lambda tid: tid, lambda tid: tid + (99,)):
        monkeypatch.setattr(machine, "_local_step", waits_too(extra))
        outcomes = _agree(load_core("ex21_wait_first"), SCHEDULES[:2])
        assert all(len(outcome) == 2 for outcome in outcomes), outcomes


def test_preservation_agrees_with_the_whole_check_on_children_spawned_out_of_order(monkeypatch):
    # children numbered downwards: the second child of the root sorts
    # before the first, which the continuation it shares with the root
    # names, so the root types that continuation in a world with the first
    # child and the new child must type it again in one without
    local_step = machine._local_step
    monkeypatch.setattr(
        machine, "_local_step", lambda comp, tid, ordinal: local_step(comp, tid, -abs(ordinal))
    )
    comp = desugar(parse_comp(
        "let x = fork() in case x of { inj1 a => let y = fork() in case y of "
        "{ inj1 b => wait(a); stop() | inj2 u => wait(a); stop() } | inj2 v => stop() }"
    ))
    (outcome,) = _agree(comp, SCHEDULES[:1])
    assert outcome == (
        "MachineError",
        "configuration after step 4 ill-formed: thread 0.-2 does not typecheck at the "
        "thread type: thread ID 0.-1 not in the world",
    )
