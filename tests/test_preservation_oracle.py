"""Dual-route check for the preservation run.

:func:`dynthreads.machine.run_with_preservation` types the root's
thread state and then, after each step, checks only the entries the step
wrote, on thread states, with one typing memo for the run.  It is checked against the run it
replaced, kept below as the reference: the whole of
``check_config_well_formed`` on every configuration, in its
``creation_order``, without a memo, with the configurations of
``reference_run``, all three of ``tests/graph_oracle.py``.  Both
must give the same result and number of checks, or raise the same error
with the same message.

The inputs are every corpus program under the lowest-tid policy and random
seeds 1 to 5, ``nested_wait``, and 600 nested cases; and broken runs, where
the type checker rejects chosen thread states or the machine takes steps
that break the invariant the check relies on.

The run types each state a step writes as its frames and focus, unplugged.
For every such state of the same inputs, that verdict and its message are
checked against the whole check's on the plugged state, and every name set stored on a node the
state reaches against a fresh walk: the typing memo trusts those sets.
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
    TidV,
    VarV,
    _parts,
    _tids,
    desugar,
    parse_comp,
    tid_str,
)
from dynthreads.machine import (
    DEFAULT_BUDGET,
    FINISHED,
    MachineError,
    run,
    run_with_preservation,
)

from corpus import NESTED_WAIT, OUT_OF_ORDER, corpus_names, load_core
from graph_oracle import (
    break_local_steps,
    break_typing,
    check_config_well_formed,
    creation_order,
    ill_formed,
    initial,
    plug_state,
    reference_run,
    world,
)

SCHEDULES = [("lowest-tid", None)] + [("random", seed) for seed in range(1, 6)]


def reference_run_with_preservation(comp, result_type, policy="lowest-tid", seed=None,
                                    fuel=DEFAULT_BUDGET):
    """Run while checking every configuration whole in its creation order."""
    c0 = initial(comp)
    bad = check_config_well_formed(c0, result_type, creation_order(world(c0)))
    if bad:
        raise MachineError(f"initial configuration ill-formed: {bad}")
    steps = 0

    def check(_, c) -> None:
        nonlocal steps
        steps += 1
        bad = check_config_well_formed(c, result_type, creation_order(world(c)))
        if bad:
            raise MachineError(f"configuration after step {steps} ill-formed: {bad}")

    result = reference_run(comp, policy, seed, fuel, on_step=check)
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
    def breaks(check_comp):
        def broken(gamma, visible, state, ty, memo=None):
            if REJECTED[rejected](state):
                raise LangError(f"rejected: {rejected}")
            return check_comp(gamma, visible, state, ty, memo)
        return broken

    break_typing(monkeypatch, breaks)
    failures = 0
    for name in corpus_names():
        for outcome in _agree(load_core(name), SCHEDULES[:2]):
            failures += len(outcome) == 2
    assert failures > 0


def test_preservation_agrees_with_the_whole_check_on_broken_waits(monkeypatch):
    # a wait step that also waits for the acting thread itself, or for a
    # thread that does not exist; or a fork step whose new child also waits
    # for its parent, which only the check of the child's whole set sees
    def waits_too(extra):
        def breaks(local_step):
            def broken(comp, tid, ordinal):
                out = local_step(comp, tid, ordinal)
                pair = extra(tid, out)
                if pair is not None:
                    return machine._LocalOut(out.action, out.threads, out.new_prec | {pair})
                return out
            return broken
        return breaks

    for extra in (
        lambda tid, out: (tid, tid) if out.new_prec else None,
        lambda tid, out: (tid + (99,), tid) if out.new_prec else None,
        lambda tid, out: (tid, out.threads[1][0]) if len(out.threads) == 2 else None,
    ):
        with monkeypatch.context() as patch:
            break_local_steps(patch, waits_too(extra))
            outcomes = _agree(load_core("ex21_wait_first"), SCHEDULES[:2])
        assert all(len(outcome) == 2 for outcome in outcomes), outcomes
    assert all(message.endswith("0.1 waits on later sibling 0") for _, message in outcomes)


def test_preservation_agrees_with_the_whole_check_on_children_spawned_out_of_order(monkeypatch):
    # children numbered downwards: the second child of the root sorts
    # before the first, which the continuation it shares with the root
    # names, so the root types that continuation in a world with the first
    # child and the new child must type it again in one without
    break_local_steps(
        monkeypatch,
        lambda local_step: lambda comp, tid, ordinal: local_step(comp, tid, -abs(ordinal)),
    )
    (outcome,) = _agree(desugar(parse_comp(OUT_OF_ORDER[0])), SCHEDULES[:1])
    assert outcome == (
        "MachineError",
        "configuration after step 4 ill-formed: thread 0.-2 does not typecheck at the "
        "thread type: thread ID 0.-1 not in the world",
    )
    # the root waits for its first child and then spawns a second, which
    # inherits that wait: only the check of the new child's whole set sees it
    (outcome,) = _agree(desugar(parse_comp(OUT_OF_ORDER[1])), SCHEDULES[:1])
    assert outcome == (
        "MachineError", "configuration after step 9 ill-formed: 0.-2 waits on later sibling 0.-1"
    )


def test_preservation_names_the_violation_the_whole_check_names_first(monkeypatch):
    # fork steps list the new child before its parent, and both fail to
    # type check: the whole check names the parent, which comes first in
    # tid order
    def reversed_step(local_step):
        def reversed_local_step(comp, tid, ordinal):
            out = local_step(comp, tid, ordinal)
            return out._replace(threads=out.threads[::-1])
        return reversed_local_step

    def breaks(check_comp):
        def broken(gamma, visible, state, ty, memo=None):
            if REJECTED["new child"](state) or REJECTED["names a thread"](state):
                raise LangError("rejected")
            return check_comp(gamma, visible, state, ty, memo)
        return broken

    break_local_steps(monkeypatch, reversed_step)
    break_typing(monkeypatch, breaks)
    (outcome,) = _agree(load_core("ex21_wait_first"), SCHEDULES[:1])
    assert outcome[0] == "MachineError"
    assert "ill-formed: thread 0 does not typecheck" in outcome[1], outcome


def _record_verdicts(comp, policy, seed, records: list) -> int:
    """Run ``comp`` and record, for every state a step writes, the
    machine's verdict, its frames and focus typed in the world found
    without plugging (``machine._world``, ``machine._check_state``) with one
    typing memo for the run, primed by the first configuration as the
    preservation run primes it (``machine._ill_typed``), and the whole
    check's on the plugged state (:func:`ill_formed`) without a memo, at
    the run's type and at the unit type, which a state of the empty type
    does not fit: ``(state, tid, type, error, whole)`` records, appended to
    ``records``, where ``error`` is the message of the machine's type
    error, or ``None``.  Returns how many fork steps left a child on the
    frames of its parent."""
    memo, rank = {}, {(): machine._rank(())}
    root = ((), machine.descend((), comp), ())
    assert machine._ill_typed([root], rank, EMPTY, memo) is None
    shared = 0

    def record(a, ordinal, local):
        nonlocal shared
        for t, _ in local.threads:
            rank[t] = machine._rank(t)
        frames = [s[0] for _, s in local.threads if s is not FINISHED]
        shared += len(frames) == 2 and bool(frames[0]) and frames[0] is frames[1]
        for t, s in local.threads:
            for ty in (EMPTY, UNIT) if s is not FINISHED else ():
                try:
                    machine._check_state(machine._world(t, s, rank), s, ty, memo)
                    error = None
                except LangError as exc:
                    error = str(exc)
                whole = ill_formed([(t, plug_state(s), ())], rank, ty, None)
                records.append((s, t, ty, error, whole))

    run(comp, policy, seed, on_local=record)
    return shared


@pytest.fixture(scope="module")
def written_states() -> tuple:
    """The verdicts on every state the steps of the inputs write
    (:func:`_record_verdicts`), and how many fork steps shared frames: the
    corpus under every schedule, ``nested_wait``, 600 nested cases, and the
    two programs whose children are numbered downwards.  In the first of
    those a second child shares frames that name the first with the root,
    so it types them in a smaller world than the root did, and is
    ill-typed.  The runs are made once per module."""
    records: list = []
    shared = 0
    for name in corpus_names():
        for policy, seed in SCHEDULES:
            shared += _record_verdicts(load_core(name), policy, seed, records)
    for comp in (desugar(parse_comp(NESTED_WAIT)), _nested_cases(600)):
        shared += _record_verdicts(comp, "lowest-tid", None, records)
    local_step = machine._local_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            machine, "_local_step", lambda state, tid, ordinal: local_step(state, tid, -abs(ordinal))
        )
        for text in OUT_OF_ORDER:
            shared += _record_verdicts(desugar(parse_comp(text)), "lowest-tid", None, records)
    return records, shared


def test_frames_and_focus_type_as_the_plugged_state(written_states):
    records, shared = written_states
    # the same verdict, and on a failure the same message
    for _, t, ty, error, whole in records:
        words = f"thread {tid_str(t)} does not typecheck at the thread type: {error}"
        assert whole == (None if error is None else words), (tid_str(t), ty, error, whole)
    # the out-of-order child is ill-typed at the run's type
    assert any(ty == EMPTY and error is not None for _, _, ty, error, _ in records)
    assert shared > 0 and len(records) > 2000, (shared, len(records))


def _fresh_names(roots) -> list:
    """Every node reachable from ``roots``, once, with its free variables
    and thread IDs, found by an explicit-stack walk that reads no stored
    set: ``(node, free, tids)`` triples."""
    names: dict = {}  # id -> (node, free, tids)
    stack = [(root, False) for root in roots]
    while stack:
        node, ready = stack.pop()
        if id(node) in names:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((kid, False) for _, kid in _parts(node))
            continue
        free = {node.name} if type(node) is VarV else set()
        tids = {node.path} if type(node) is TidV else set()
        for var, kid in _parts(node):
            _, kid_free, kid_tids = names[id(kid)]
            free |= kid_free - {var}
            tids |= kid_tids
        names[id(node)] = (node, free, tids)
    return list(names.values())


def test_stored_name_sets_of_written_states_are_fresh(written_states):
    # the typing memo reuses an entry in any world that holds the node's
    # stored thread IDs, so a stale set would reuse it unsoundly
    roots = []
    for frames, focus in {id(record[0]): record[0] for record in written_states[0]}.values():
        roots.append(focus)
        while frames:
            frame, frames = frames
            roots.append(frame)
    checked = {"_free": 0, "_tids": 0}
    for node, free, tids in _fresh_names(roots):
        for key, fresh in (("_free", free), ("_tids", tids)):
            if key in node.__dict__:
                assert node.__dict__[key] == fresh, (key, node)
                checked[key] += 1
    assert all(count > 1000 for count in checked.values()), checked
