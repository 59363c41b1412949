from __future__ import annotations

import random

import pytest

from dynthreads import lang, machine
from dynthreads.cli import _trace_line, main
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
    ProjC,
    Ret,
    Sum,
    TidV,
    TupleV,
    desugar,
    parse_comp,
    print_comp,
    tid_str,
    typecheck_comp,
)
from dynthreads.machine import (
    FINISHED,
    ConfluenceReport,
    Configuration,
    Deadlock,
    FuelExhausted,
    MachineError,
    StepLabel,
    StuckThread,
    check_config_well_formed,
    check_confluence,
    creation_order,
    explore,
    observation,
    run,
    run_exhaustive,
    run_result_to_json,
    run_with_preservation,
)
from dynthreads.posets import Pomset

from corpus import EXTRA_PROGRAMS, PROGRAMS_DIR, corpus_names, full_graph, load_core, load_named
from graph_oracle import (
    _label_traces,
    _runnable,
    _state_graph,
    _witness_events,
    enabled_steps,
)
from graph_oracle import explore as walk_explore
from graph_oracle import run_exhaustive as walk_run_exhaustive
from pair_oracle import _close_pairs


def test_fork_spawns_child_with_path_naming():
    c = Configuration.initial(desugar(parse_comp("fork()")))
    steps = enabled_steps(c)
    assert len(steps) == 1
    label, nxt = steps[0]
    assert label == StepLabel((), None)
    assert nxt.world == {(), (1,)}
    fork_result = Sum((TID, UNIT))
    assert nxt.thread(()) == Ret(InjV(1, TidV((1,)), fork_result))
    assert nxt.thread((1,)) == Ret(InjV(2, TupleV(()), fork_result))


def test_printstop_is_a_labelled_step():
    c = Configuration.initial(desugar(parse_comp("printstop[s]()")))
    (label, nxt), = enabled_steps(c)
    assert label.action == "s"
    assert nxt.thread(()) == FINISHED


def test_waiting_thread_is_not_enabled():
    c = Configuration.initial(desugar(parse_comp("wait(#0.1); stop()")))
    # pretend the world already contains the unfinished thread 0.1
    c = Configuration(c.threads + (((1,), desugar(parse_comp("stop()")), frozenset()),))
    (first, _), (second, _) = sorted(enabled_steps(c), key=lambda s: s[0].acting)
    assert {first.acting, second.acting} == {(), (1,)}

    # after the wait records the dependency, only 0.1 may move
    label, c2 = [s for s in enabled_steps(c) if s[0].acting == ()][0]
    assert ((1,), ()) in c2.prec
    assert [lab.acting for lab, _ in enabled_steps(c2)] == [(1,)]


def test_run_wait_first_gives_chain():
    result = run(load_core("ex21_wait_first"))
    expected = Pomset.of({"a": "s2", "b": "s1"}, {("a", "b")})
    assert result.pomset.iso_to(expected) is not None


def test_run_no_wait_still_gives_discrete_under_any_policy():
    expected = Pomset.of({"a": "s1", "b": "s2"}, set())
    for policy, seed in (("lowest-tid", None), ("random", 1), ("random", 99)):
        result = run(load_core("ex21_no_wait"), policy=policy, seed=seed)
        assert result.pomset.iso_to(expected) is not None


def test_run_stop_has_empty_pomset():
    result = run(load_core("stop_now"))
    assert result.pomset.element_ids == frozenset()
    assert result.terminal.is_terminal()


def test_random_policy_needs_seed():
    with pytest.raises(Exception):
        run(load_core("stop_now"), policy="random")


def test_fuel_exhaustion_reported():
    with pytest.raises(FuelExhausted):
        run(load_core("nshape"), fuel=3)


def test_fuel_allows_exactly_that_many_steps():
    # stop_now terminates after one step and series after eleven
    for name, steps in (("stop_now", 1), ("series", 11)):
        comp = load_core(name)
        assert len(run(comp, fuel=steps).events) == steps
        result, checks = run_with_preservation(comp, EMPTY, fuel=steps)
        assert (len(result.events), checks) == (steps, steps + 1)
    for attempt in (run, lambda comp, fuel: run_with_preservation(comp, EMPTY, fuel=fuel)):
        with pytest.raises(FuelExhausted, match=r"^no terminal configuration within 10 steps$"):
            attempt(load_core("series"), fuel=10)


def test_explore_no_wait_has_two_traces_one_observation():
    result = explore(load_core("ex21_no_wait"))
    assert result.traces == {("s1", "s2"), ("s2", "s1")}
    assert result.all_iso
    assert result.traces_match_linearizations
    assert len(result.terminals) == 1
    expected = Pomset.of({"a": "s1", "b": "s2"}, set())
    assert result.observations[0].iso_to(expected) is not None


def test_explore_wait_first_has_single_trace():
    result = explore(load_core("ex21_wait_first"))
    assert result.traces == {("s2", "s1")}
    assert result.traces_match_linearizations


def test_explore_nshape_matches_n_poset():
    result = explore(load_core("nshape"), max_states=100_000)
    n_poset = Pomset.of(
        {"1": "s1", "2": "s2", "3": "s3", "4": "s4"},
        {("1", "3"), ("2", "3"), ("2", "4")},
    )
    assert result.all_iso
    for pom in result.observations:
        assert pom.iso_to(n_poset) is not None
    assert result.traces_match_linearizations
    assert result.traces == n_poset.linearizations()


def test_fresh_naming_is_schedule_independent():
    worlds = set()
    for seed in range(5):
        result = run(load_core("nested_forks"), policy="random", seed=seed)
        worlds.add(result.terminal.world)
    assert len(worlds) == 1


def test_terminal_configuration_is_schedule_independent():
    finals = set()
    for seed in range(5):
        result = run(load_core("two_children_one_waited"), policy="random", seed=seed)
        finals.add(result.terminal)
    assert len(finals) == 1


def test_confluence_on_selected_programs():
    for name in ("nshape", "ex21_no_wait", "parallel", "grandchild", "chain3"):
        report = check_confluence(load_core(name))
        assert report.ok, (name, report.detail)


def test_confluence_vacuous_for_sequential_program():
    report = check_confluence(desugar(parse_comp("printstop[s1]()")))
    assert report.ok and report.states == 2


@pytest.mark.parametrize("name", ["series", "chain3", "ex21_wait_first", "parallel"])
def test_confluence_budget_counts_states(name):
    # the budget bounds the configurations of the lowest-tid run
    comp = load_core(name)
    size = len(run(comp).events) + 1
    for k in (1, size // 2, size - 1, size, size + 1, 2 * size):
        report = check_confluence(comp, k)
        assert report.ok, (k, report.detail)
        assert report.states == min(k, size), k
        assert report.truncated == (size > k), k


def test_exploration_budget_fails_loudly():
    # the budget bounds the gate run's configurations, and for the walk
    # the reduced graph's
    comp = load_core("parallel")
    for fns in ((explore, run_exhaustive), (walk_explore, walk_run_exhaustive)):
        needed = fns[0](comp).states
        for fn in fns:
            with pytest.raises(FuelExhausted, match=rf"^state budget {needed - 1} exhausted$"):
                fn(comp, needed - 1)
            fn(comp, needed)


def test_exploration_reports_deadlock_before_budget():
    comp = desugar(parse_comp("fork(); wait(#0.5); stop()"))
    for fn in (explore, run_exhaustive, walk_explore, walk_run_exhaustive):
        with pytest.raises(Deadlock, match="deadlocked configuration"):
            fn(comp, 100)
        with pytest.raises(FuelExhausted, match="state budget 2 exhausted"):
            fn(comp, 2)
    # the confluence check runs into the same stuck configuration, and short
    # of it reports a truncated check
    for text in ("fork(); wait(#0.5); stop()", "wait(#0.1); stop()"):
        with pytest.raises(Deadlock, match="deadlocked configuration"):
            check_confluence(desugar(parse_comp(text)), 100)
    assert check_confluence(comp, 2) == ConfluenceReport(True, 2, True, None)


def test_preservation_along_runs():
    for name in ("ex21_wait_first", "nshape", "parallel", "grandchild"):
        comp = load_core(name)
        assert typecheck_comp({}, frozenset(), comp) == EMPTY
        result, checks = run_with_preservation(comp, EMPTY)
        assert result.terminal.is_terminal()
        assert checks == len(result.events) + 1


def test_config_well_formed_rejects_wait_against_order():
    c = Configuration(
        (((), FINISHED, frozenset()), ((1,), FINISHED, frozenset({()}))),
    )  # thread 0.1 waits on the root
    # thread 0.1 waits on the root, so the root must be earlier in any
    # admissible creation order
    assert check_config_well_formed(c, EMPTY, ((), (1,))) is None
    bad = check_config_well_formed(c, EMPTY, ((1,), ()))
    assert bad is not None and "later sibling" in bad
    # two threads waiting for each other fit no creation order
    cycle = Configuration((((), FINISHED, frozenset({(1,)})), ((1,), FINISHED, frozenset({()}))))
    for order in (((), (1,)), ((1,), ())):
        bad = check_config_well_formed(cycle, EMPTY, order)
        assert bad is not None and "later sibling" in bad, order


def test_config_well_formed_rejects_an_order_that_is_not_on_the_world():
    c = Configuration((((), FINISHED, frozenset()), ((1,), FINISHED, frozenset())))
    for order in (((),), ((), (1,), (2,)), ((), (1,), (1,))):
        assert check_config_well_formed(c, EMPTY, order) == (
            "order is not a linear order on the world"
        ), order


def test_config_well_formed_rejects_a_wait_on_an_unknown_thread():
    c = Configuration((((), FINISHED, frozenset({(7,)})),))
    assert check_config_well_formed(c, EMPTY, ((),)) == "0 waits on unknown thread 0.7"


def test_config_well_formed_rejects_a_thread_that_does_not_typecheck():
    # the thread names 0.1, which is not before it in the order
    comp = desugar(parse_comp("wait(#0.1); stop()"))
    c = Configuration((((), comp, frozenset()), ((1,), FINISHED, frozenset())))
    assert check_config_well_formed(c, EMPTY, ((1,), ())) is None
    bad = check_config_well_formed(c, EMPTY, ((), (1,)))
    assert bad.startswith("thread 0 does not typecheck at the thread type: "), bad
    assert "0.1" in bad


def test_preservation_rejects_an_ill_formed_initial_configuration():
    comp = desugar(parse_comp("fork(); wait(#0.5); stop()"))
    with pytest.raises(MachineError, match=r"^initial configuration ill-formed: thread 0 "):
        run_with_preservation(comp, EMPTY)


def test_preservation_names_the_step_and_the_failed_condition(monkeypatch):
    # break the type checker for the state ``stop()``, which the root first
    # reaches at the tenth step
    stop = desugar(parse_comp("stop()"))
    check_comp = machine.check_comp

    def broken(gamma, visible, state, ty, memo=None):
        if state == stop:
            raise LangError("stop() made ill-typed")
        return check_comp(gamma, visible, state, ty, memo)

    monkeypatch.setattr(machine, "check_comp", broken)
    comp = desugar(parse_comp("print[s](); fork(); stop()"))
    with pytest.raises(MachineError) as raised:
        run_with_preservation(comp, EMPTY)
    assert str(raised.value) == (
        "configuration after step 10 ill-formed: thread 0 does not typecheck "
        "at the thread type: stop() made ill-typed"
    )


def test_config_well_formed_lets_errors_other_than_type_errors_propagate(monkeypatch):
    def broken(*_):
        raise RuntimeError("not a type error")

    monkeypatch.setattr(machine, "check_comp", broken)
    c = Configuration.initial(desugar(parse_comp("stop()")))
    with pytest.raises(RuntimeError, match="not a type error"):
        check_config_well_formed(c, EMPTY, ((),))


def test_creation_order_is_the_post_order_of_the_spawn_tree():
    # each thread after its children's subtrees and its older siblings'
    world = {(), (1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)}
    assert creation_order(world) == (
        (1, 1, 1), (1, 1), (1, 2), (1,), (2, 1), (2,), (),
    )


def _configurations_and_steps(name):
    """Every configuration of the reduced schedule graph of the corpus
    program ``name`` and of its lowest-tid and random-seed runs, and every
    step between two of them, as ``(before, after)`` pairs."""
    comp = load_core(name)
    c0, steps_of, _, truncated = full_graph(name, 25_000, reduce=True)
    assert not truncated
    configurations = set(steps_of)
    steps = {(c, nxt) for c, out in steps_of.items() for _, nxt in out}
    for policy, seed in SCHEDULES:
        path = [c0]
        run(comp, policy=policy, seed=seed, on_step=lambda _, c: path.append(c))
        configurations.update(path)
        steps.update(zip(path, path[1:]))
    return configurations, steps


@pytest.mark.parametrize("name", corpus_names())
def test_every_reachable_configuration_is_well_formed_in_its_creation_order(name):
    configurations, steps = _configurations_and_steps(name)
    for c in configurations:
        assert check_config_well_formed(c, EMPTY, creation_order(c.world)) is None, c
    # each step extends the order: restricted to the threads that were
    # there before, the successor's order is the predecessor's
    for before, after in steps:
        kept = tuple(t for t in creation_order(after.world) if t in before.world)
        assert kept == creation_order(before.world), (before, after)


def test_whole_corpus_runs_to_termination():
    for name in corpus_names():
        comp = load_core(name)
        assert typecheck_comp({}, frozenset(), comp) == EMPTY, name
        result = run(comp)
        assert result.terminal.is_terminal(), name


def test_run_result_json_shape():
    result = run(load_core("series"))
    data = run_result_to_json(result, "lowest-tid", None)
    assert data["policy"] == "lowest-tid"
    assert data["steps"] == len(result.events)
    assert data["pomset"]["inputs"] == 0
    labels = sorted(v["label"] for v in data["pomset"]["vertices"])
    assert labels == ["s1", "s2"]


# programs whose full schedule graph exceeds the oracle budget
FULL_GRAPH_TOO_LARGE = {"nshape", "three_workers"}

# the full-graph oracles also check the programs of ``EXTRA_PROGRAMS``: in
# ``nested_wait`` the root waits for 0.1, which waits for its child 0.1.1,
# so the observed s1 < s2 holds only in the closure of ``prec``.  The
# reduced walk always runs the root's wait first; the full graph (18
# states) also records the two waits the other way round
FULL_GRAPH_PROGRAMS = [
    n for n in corpus_names() if n not in FULL_GRAPH_TOO_LARGE
] + sorted(EXTRA_PROGRAMS)


def _reference_close_with(closed: frozenset, new_edges: set) -> frozenset:
    """A closed relation plus ``new_edges``, closed incrementally: the edges
    into each target ``b`` from sources ``S`` add ``(S | preds(S)) x ({b} |
    succs(b))``, since a path through two new edges into ``b`` passes ``b``
    twice and cutting the loop leaves a path through one."""
    by_target: dict = {}
    for a, b in new_edges:
        if (a, b) not in closed:
            by_target.setdefault(b, set()).add(a)
    for b, sources in by_target.items():
        before = set(sources)
        after = {b}
        for x, y in closed:
            if y in sources:
                before.add(x)
            if x == b:
                after.add(y)
        closed = closed | {(x, y) for x in before for y in after}
    return closed


def test_prec_keeps_local_waits_and_closes_like_the_closed_relation():
    # every step of the full schedule graph of every program that fits the
    # oracle budget.  prec only grows, by pairs into the acting thread or a
    # thread new to the world.  Closed, it is the relation a machine that
    # keeps prec closed reaches: there a step adds its waits and gives a new
    # child every thread below its parent, and the closure is kept up
    # incrementally.  The threads runnable on the direct waits are those
    # runnable on the closure
    for name in FULL_GRAPH_PROGRAMS:
        _, steps_of, _, truncated = full_graph(name, 25_000)
        assert not truncated, name
        closures: dict = {}

        def closed(prec):
            """The closure of ``prec`` and, for each thread, those below it."""
            if prec not in closures:
                below = _close_pairs(prec)
                preds: dict = {}
                for b, a in below:
                    preds.setdefault(a, set()).add(b)
                closures[prec] = below, preds
            return closures[prec]

        seen = set()
        for c, steps in steps_of.items():
            below, preds = closed(c.prec)
            finished = {t for t, state, _ in c.threads if state == FINISHED}
            runnable = [
                t
                for t, state, _ in c.threads
                if state != FINISHED
                and not isinstance(state, Ret)
                and preds.get(t, set()) <= finished
            ]
            assert [t for t, _, _, _ in _runnable(c)] == runnable, name
            for label, nxt in steps:
                # many steps repeat the same closure problem; check each once
                problem = (c.prec, nxt.prec, label.acting, c.world, nxt.world)
                if problem in seen:
                    continue
                seen.add(problem)
                a = label.acting
                assert c.prec <= nxt.prec, name
                added = nxt.prec - c.prec
                new_threads = nxt.world - c.world
                assert all(y == a or y in new_threads for _, y in added), name
                waits = {(x, y) for x, y in added if y == a}
                inherited = {(b, t) for t in new_threads for b in preds.get(a, ())}
                expected = _reference_close_with(below, waits | inherited)
                assert closed(nxt.prec)[0] == expected, name


def test_steps_write_only_the_acting_thread_and_a_new_child():
    # a step changes the acting thread's entry, whose wait set only grows,
    # and may add one child, which starts with its parent's set itself
    forks_after_waits = 0
    for name in FULL_GRAPH_PROGRAMS:
        _, steps_of, _, _ = full_graph(name, 25_000, reduce=True)
        for c, steps in steps_of.items():
            before = {t: (state, waits) for t, state, waits in c.threads}
            for label, nxt in steps:
                a = label.acting
                after = {t: (state, waits) for t, state, waits in nxt.threads}
                assert [t for t in before if after[t] != before[t]] == [a], name
                assert after[a][1] >= before[a][1], name
                for child in after.keys() - before.keys():
                    assert child[:-1] == a and after[child][1] is after[a][1], name
                    forks_after_waits += bool(after[a][1])
    assert forks_after_waits


def test_wait_step_changes_only_the_acting_threads_entry():
    stop = desugar(parse_comp("stop()"))
    c = Configuration(
        (
            ((), desugar(parse_comp("wait(#0.1 (+) #0.2); stop()")), frozenset({(3,)})),
            ((1,), FINISHED, frozenset()),
            ((2,), FINISHED, frozenset({(1,)})),
            ((3,), FINISHED, frozenset()),
            ((4,), stop, frozenset({(3,)})),
        )
    )
    label, nxt = [s for s in enabled_steps(c) if s[0].acting == ()][0]
    assert nxt.threads[0][2] == {(1,), (2,), (3,)}
    assert nxt.threads[1:] == c.threads[1:]
    assert all(new is old for new, old in zip(nxt.threads[1:], c.threads[1:]))


def test_prec_is_the_pairs_of_the_wait_sets():
    stop = desugar(parse_comp("stop()"))
    c = Configuration(
        (
            ((), stop, frozenset({(1,), (2,)})),
            ((1,), FINISHED, frozenset()),
            ((2,), stop, frozenset({(1,)})),
        )
    )
    assert c.prec == {((1,), ()), ((2,), ()), ((1,), (2,))}


def test_run_exhaustive_policy_returns_result_set():
    # run follows one schedule; all schedules are run_exhaustive's
    results = run_exhaustive(load_core("ex21_no_wait"))
    assert len(results) == 1
    expected = Pomset.of({"a": "s1", "b": "s2"}, set())
    assert results[0].pomset.iso_to(expected) is not None
    with pytest.raises(MachineError, match=r"^unknown policy 'exhaustive'$"):
        run(load_core("ex21_no_wait"), policy="exhaustive")


def test_preservation_rejects_unknown_policy():
    with pytest.raises(MachineError, match="unknown policy 'bogus'"):
        run_with_preservation(load_core("parallel"), EMPTY, policy="bogus")


def _local_step_keys(steps_of) -> set:
    """The ``(thread state, tid, spawn ordinal)`` keys of the runnable
    threads of every expanded configuration: the local steps taken there."""
    keys = set()
    for c in steps_of:
        for tid, state, _, ordinal in _runnable(c):
            assert ordinal == 1 + sum(1 for t in c.world if t and t[:-1] == tid)
            keys.add((state, tid, ordinal))
    return keys


@pytest.mark.parametrize(
    "name", [n for n in corpus_names() if n not in FULL_GRAPH_TOO_LARGE]
)
def test_reduced_graph_agrees_with_full_graph(name):
    graphs = {}
    for reduce in (False, True):
        c0, steps_of, first_event, truncated = full_graph(name, 25_000, reduce)
        assert not truncated
        terminals = {c for c, steps in steps_of.items() if not steps}
        observations = {
            t: observation(_witness_events(c0, t, first_event), t) for t in terminals
        }
        graphs[reduce] = (
            len(steps_of),
            _label_traces(c0, steps_of),
            observations,
            _local_step_keys(steps_of),
        )
    full_states, full_traces, full_obs, full_keys = graphs[False]
    reduced_states, reduced_traces, reduced_obs, reduced_keys = graphs[True]
    assert reduced_traces == full_traces
    assert reduced_obs.keys() == full_obs.keys()
    poms = list(full_obs.values()) + list(reduced_obs.values())
    assert all(poms[0].iso_to(p) is not None for p in poms[1:])
    assert reduced_states <= full_states
    # the reduced-graph oracle sees every local step of the full graph
    assert reduced_keys == full_keys


def _diamond_violation(steps: list, steps_of) -> str | None:
    """Per-thread determinacy and the one-step diamonds of ``steps``, the
    steps of one configuration; ``steps_of`` gives the steps of their
    targets."""
    acting = [label.acting for label, _ in steps]
    if len(set(acting)) != len(acting):
        return "thread with two distinct steps in one configuration"
    if len(steps) < 2:
        return None
    after = [{lab.acting: (lab, nxt) for lab, nxt in steps_of(c1)} for _, c1 in steps]
    for i, (l1, _) in enumerate(steps):
        for j in range(i + 1, len(steps)):
            l2 = steps[j][0]
            if l2.acting not in after[i] or l1.acting not in after[j]:
                return (
                    f"steps of {tid_str(l1.acting)} and {tid_str(l2.acting)} "
                    "do not commute (one disables the other)"
                )
            lab12, c12 = after[i][l2.acting]
            lab21, c21 = after[j][l1.acting]
            if lab12.action != l2.action or lab21.action != l1.action or c12 != c21:
                return f"no diamond for {tid_str(l1.acting)} / {tid_str(l2.acting)}"
    return None


def _graph_confluence(walk, reduce: bool, violation) -> ConfluenceReport:
    """The determinacy gate checked configuration by configuration over the
    schedule graph ``walk`` (as :func:`_state_graph` returns it, reduced or
    not), in the order the walk expanded it, with ``violation(c,
    steps_of)`` the first check that ``c`` fails or ``None``.  ``steps_of``
    enumerates every enabled step, memoized per oracle."""
    _, graph, _, truncated = walk
    # the full graph already holds every enabled step of what it expanded
    cache = {} if reduce else dict(graph)

    def steps_of(c):
        if c not in cache:
            cache[c] = enabled_steps(c)
        return cache[c]

    for checked, c in enumerate(graph, start=1):
        detail = violation(c, steps_of)
        if detail is not None:
            return ConfluenceReport(False, checked, False, detail)
    return ConfluenceReport(True, len(graph), truncated, None)


def _full_graph_violation(c, steps_of):
    """The prec-growth law on every step of ``c`` (a new wait pair into an
    old thread ends at the acting thread or at a thread waiting for it, or
    was already implied), then determinacy and the diamonds."""
    for label, nxt in steps_of(c):
        a = label.acting
        for x, y in nxt.prec - c.prec:
            if y in c.world and not ((x, y) in c.prec or a == y or (a, y) in c.prec):
                return (
                    f"prec pair ({tid_str(x)},{tid_str(y)}) not justified by "
                    f"acting thread {tid_str(a)}"
                )
    return _diamond_violation(steps_of(c), steps_of)


def _full_graph_confluence(walk) -> ConfluenceReport:
    """The first oracle for :func:`check_confluence`: the gate over the full
    schedule graph ``walk``, without the locality argument."""
    return _graph_confluence(walk, False, _full_graph_violation)


def _reduced_graph_violation(c, steps_of):
    """Locality and waits of the local step of every runnable thread of
    ``c``, not only the one the reduction keeps, then determinacy and the
    diamonds."""
    for a, state, _, ordinal in _runnable(c):
        local = machine._local_step(state, a, ordinal)
        for t, _ in local.threads:
            if t not in (a, a + (ordinal,)):
                return f"step of {tid_str(a)} changes thread {tid_str(t)}"
        for x, y in local.new_prec:
            if y != a:
                return (
                    f"prec pair ({tid_str(x)},{tid_str(y)}) not justified by "
                    f"acting thread {tid_str(a)}"
                )
    return _diamond_violation(steps_of(c), steps_of)


def _reduced_graph_confluence(walk) -> ConfluenceReport:
    """The second oracle for :func:`check_confluence`: the local checks at
    every configuration of the reduced schedule graph ``walk``, for every
    runnable thread, and the diamonds there."""
    return _graph_confluence(walk, True, _reduced_graph_violation)


def _confluence_reports(comp) -> list:
    """The gate's report and both oracles', on graphs of up to 25,000
    states built with the machine as it is now."""
    return [
        check_confluence(comp),
        _full_graph_confluence(_state_graph(comp, 25_000, reduce=False)),
        _reduced_graph_confluence(_state_graph(comp, 25_000)),
    ]


def _run_step_keys(comp) -> set:
    """The ``(thread state, tid, spawn ordinal)`` keys of the local steps
    one lowest-tid run takes."""
    keys = set()
    c = Configuration.initial(comp)

    def take(tid, ordinal, _):
        keys.add((c.thread(tid), tid, ordinal))

    def reach(_, nxt):
        nonlocal c
        c = nxt

    run(comp, on_step=reach, on_local=take)
    return keys


@pytest.mark.parametrize("name", FULL_GRAPH_PROGRAMS)
def test_confluence_agrees_with_full_graph_check(name):
    comp = load_named(name)
    oracle = _full_graph_confluence(full_graph(name, 25_000))
    assert not oracle.truncated
    report = check_confluence(comp)
    assert (report.ok, report.detail) == (oracle.ok, oracle.detail)
    assert report.ok and not report.truncated
    assert report.states == len(run(comp).events) + 1


@pytest.mark.parametrize("name", corpus_names())
def test_confluence_agrees_with_reduced_graph_check(name):
    comp = load_core(name)
    oracle = _reduced_graph_confluence(full_graph(name, 25_000, reduce=True))
    assert not oracle.truncated
    report = check_confluence(comp)
    assert (report.ok, report.detail) == (oracle.ok, oracle.detail)
    assert report.ok and not report.truncated


@pytest.mark.parametrize("name", corpus_names() + sorted(EXTRA_PROGRAMS))
def test_one_run_takes_every_local_step_of_the_graph(name):
    # (B) of check_confluence: the keys one lowest-tid run takes are those
    # of every runnable thread of the reduced graph and, where it fits the
    # oracle budget, of the full one
    comp = load_named(name)
    taken = _run_step_keys(comp)
    for reduce in (True, False):
        if not reduce and name in FULL_GRAPH_TOO_LARGE:
            continue
        _, steps_of, _, truncated = full_graph(name, 25_000, reduce)
        assert not truncated
        assert taken == _local_step_keys(steps_of), reduce


def test_confluence_of_a_wide_fork_is_one_run():
    # the reduced graph holds every interleaving of the 64 labelled steps,
    # far beyond any state budget; the run takes each step once
    text = "".join(f"let x{k} = node[s{k}](nil) in " for k in range(64)) + "stop()"
    report = check_confluence(desugar(parse_comp(text)))
    assert report.ok and not report.truncated, report.detail


def test_confluence_rejects_steps_that_are_not_local(monkeypatch):
    # every step of the root after its fork of 0.1 is replaced.  The root
    # may change itself, fork its next child, 0.2, and wait.  The full-graph
    # oracle checks confluence itself, which a step that writes a thread
    # no other step reads does not break, so only the reduced-graph oracle
    # has the messages of the gate
    comp = desugar(parse_comp("fork(); stop()"))
    stop = desugar(parse_comp("stop()"))

    def violation(*threads, waits=()):
        def change(out, state, tid):
            if tid != () or state == comp:
                return out
            return machine._LocalOut(None, threads, frozenset(waits))

        with monkeypatch.context() as patch:
            _mutate_local_steps(patch, change)
            report = check_confluence(comp)
            oracle = _reduced_graph_confluence(_state_graph(comp, 25_000))
        assert (report.ok, report.detail) == (oracle.ok, oracle.detail)
        return report.detail

    assert violation(((), FINISHED), ((2,), stop), waits={((1,), ())}) is None
    assert violation(((), FINISHED), ((1,), FINISHED)) == "step of 0 changes thread 0.1"
    assert violation(((), stop), ((3,), stop)) == "step of 0 changes thread 0.3"
    assert violation(((), stop), ((1, 1), stop)) == "step of 0 changes thread 0.1.1"
    assert violation(((), FINISHED), waits={((), (1,))}) == (
        "prec pair (0,0.1) not justified by acting thread 0"
    )


def _mutate_local_steps(monkeypatch, change) -> None:
    """Break the machine: every thread-local step ``out`` of thread ``tid``
    from state ``comp`` becomes ``change(out, comp, tid)`` (the inner steps
    of ``let`` are left alone).  ``change`` must depend on nothing else, so
    the broken step stays a function of its key, as a real one is."""
    original = machine._local_step
    depth = 0

    def mutated(comp, tid, ordinal):
        nonlocal depth
        depth += 1
        try:
            out = original(comp, tid, ordinal)
        finally:
            depth -= 1
        return out if depth else change(out, comp, tid)

    monkeypatch.setattr(machine, "_local_step", mutated)


def _with_new_prec(out, new_prec):
    return machine._LocalOut(out.action, out.threads, frozenset(new_prec))


def _reverse_waits(monkeypatch) -> None:
    """Wait steps record their edges the wrong way round: the awaited
    thread is made to wait for the acting one."""
    _mutate_local_steps(
        monkeypatch,
        lambda out, comp, tid: _with_new_prec(out, {(a, b) for b, a in out.new_prec}),
    )


@pytest.mark.parametrize("write", ["state", "waits"])
def test_run_rejects_a_step_that_writes_a_finished_thread(monkeypatch, write):
    # every print also writes thread 0.1: it sets 0.1 finished, or makes it
    # wait for the printer.  The print of s2 by 0.1.1 writes 0.1 before it
    # has finished, which the run's bookkeeping follows; the print of s1
    # comes after 0.1 finished, and finished must stay final
    def change(out, comp, tid):
        if out.action is None:
            return out
        if write == "state":
            return machine._LocalOut(out.action, out.threads + (((1,), FINISHED),), out.new_prec)
        return _with_new_prec(out, out.new_prec | {(tid, (1,))})

    _mutate_local_steps(monkeypatch, change)
    comp = load_core("ex21_wait_first")
    message = f"step {21 if write == 'state' else 23} writes finished thread 0.1"
    for policy, seed in SCHEDULES[:2]:
        for attempt in (run, lambda comp, *schedule: run_with_preservation(comp, EMPTY, *schedule)):
            with pytest.raises(MachineError) as raised:
                attempt(comp, policy, seed)
            assert str(raised.value) == message, (policy, seed)
    # the gate's hook sees the first print before it is applied
    detail = {
        "state": "step of 0.1.1 changes thread 0.1",
        "waits": "prec pair (0.1.1,0.1) not justified by acting thread 0.1.1",
    }[write]
    assert check_confluence(comp).detail == detail


REVERSED_WAIT_DETAIL = "prec pair (0.1,0.1.1) not justified by acting thread 0.1"


def test_confluence_rejects_reversed_waits(monkeypatch):
    _reverse_waits(monkeypatch)
    comp = load_core("nshape")
    for report in _confluence_reports(comp):
        assert (report.ok, report.detail) == (False, REVERSED_WAIT_DETAIL)


def test_confluence_after_an_earlier_walk_sees_broken_steps(monkeypatch):
    # no memo outlives a call: the local steps an exploration of the sound
    # machine computed do not stand in for the broken ones of a later check
    comp = load_core("nshape")
    assert explore(comp).all_iso
    _reverse_waits(monkeypatch)
    report = check_confluence(comp)
    assert (report.ok, report.detail) == (False, REVERSED_WAIT_DETAIL)


@pytest.mark.parametrize("which", ["every", "second"])
def test_confluence_checks_steps_the_reduction_postpones(monkeypatch, which):
    # every step of the child, or only its second, makes the root wait for
    # it.  The first step is unjustified only before the root's own wait,
    # where the reduction postpones it, so a check of the kept steps alone
    # would pass.  The second is reached in the reduced graph only after
    # the root's wait has put the pair into prec, so a check of the
    # configurations of the reduced graph would pass
    comp = load_core("ex21_wait_first")
    # the child's states along one lowest-tid run of the sound machine
    child_states = []

    def record(_, c):
        state = c.thread_map.get((1,))
        if state not in (None, FINISHED) and state not in child_states:
            child_states.append(state)

    run(comp, on_step=record)

    def change(out, state, tid):
        if tid != (1,) or (which == "second" and state != child_states[1]):
            return out
        return _with_new_prec(out, out.new_prec | {((1,), ())})

    _mutate_local_steps(monkeypatch, change)
    detail = "prec pair (0.1,0) not justified by acting thread 0.1"
    for report in _confluence_reports(comp):
        assert (report.ok, report.detail) == (False, detail)


@pytest.mark.parametrize("name", ["nshape", "three_workers", "diamond"])
def test_explore_reduction_fits_default_budget(name):
    # explore's states are the gate run's; the reduced graph of the walk it
    # replaced fits the budget too
    result = explore(load_core(name))
    assert result.all_iso and result.traces_match_linearizations
    assert result.states < 1_000
    assert walk_explore(load_core(name)).states < 1_000


def test_label_traces_handles_deep_chains():
    depth = 5_000
    steps_of = {
        i: [(StepLabel((), f"s{i}" if i % 100 == 0 else None), i + 1)]
        for i in range(depth)
    }
    steps_of[depth] = []
    expected = tuple(f"s{i}" for i in range(0, depth, 100))
    assert _label_traces(0, steps_of) == {expected}


SCHEDULES = [("lowest-tid", None)] + [("random", seed) for seed in range(1, 6)]


def _reference_run(comp, policy, seed):
    """Events, terminal configuration and trace lines of one schedule, by
    building every enabled step and printing whole thread states."""
    choose = (lambda steps: steps[0]) if policy == "lowest-tid" else random.Random(seed).choice
    c = Configuration.initial(comp)
    events, trace = [], []
    while True:
        steps = enabled_steps(c)
        if not steps:
            return tuple(events), c, tuple(trace)
        label, c = choose(steps)
        events.append(label)
        state = c.thread(label.acting)
        if state == FINISHED:
            summary = "finished"
        else:
            summary = print_comp(state)
            if len(summary) > 60:
                summary = summary[:57] + "..."
        mark = label.action if label.action is not None else "·"
        trace.append(f"{tid_str(label.acting)} {mark} -> {summary}")


@pytest.mark.parametrize("name", corpus_names())
def test_runs_agree_with_reference_schedule(name, capsys):
    comp = load_core(name)
    for policy, seed in SCHEDULES:
        events, terminal, trace = _reference_run(comp, policy, seed)
        result = run(comp, policy=policy, seed=seed)
        preserved, checks = run_with_preservation(comp, EMPTY, policy=policy, seed=seed)
        for got in (result, preserved):
            assert (got.events, got.terminal) == (events, terminal), (policy, seed)
        assert checks == len(events) + 1
        # the command line prints the trace lines before the pomset
        argv = ["run", str(PROGRAMS_DIR / f"{name}.prog"), "--policy", policy]
        assert main(argv + (["--seed", str(seed)] if seed is not None else [])) == 0
        printed = capsys.readouterr().out.splitlines()
        assert tuple(printed[: printed.index("pomset:")]) == trace, (policy, seed)


def test_deadlock_names_the_stuck_thread():
    with pytest.raises(Deadlock, match=r"no enabled steps: 0$"):
        run(desugar(parse_comp("wait(#0.1); stop()")))
    # a thread left holding a value is stuck as well; both loops say so alike
    comp = desugar(parse_comp("ret ()"))
    for attempt in (lambda: run(comp), lambda: run_with_preservation(comp, UNIT)):
        with pytest.raises(Deadlock, match=r"no enabled steps: 0$"):
            attempt()
    # the root and its child both wait for a thread that never exists
    comp = desugar(parse_comp("fork(); wait(#0.5); stop()"))
    message = "deadlocked configuration with no enabled steps: 0, 0.1"
    for attempt in (run, explore, run_exhaustive, check_confluence, walk_explore, walk_run_exhaustive):
        with pytest.raises(Deadlock) as raised:
            attempt(comp)
        assert str(raised.value) == message, attempt


def test_long_print_chain_runs_with_short_trace_lines():
    n = 150
    labels = [f"p{k}" for k in range(n)]
    text = "".join(f"print[{label}](); " for label in labels) + "stop()"
    lines = []
    result = run(
        desugar(parse_comp(text)),
        on_step=lambda label, c: lines.append(_trace_line(label, c.thread(label.acting))),
    )
    assert len(result.events) == len(lines) == 1_201
    pomset = result.pomset
    assert len(pomset.element_ids) == n
    by_label = {(pomset.label_map[a], pomset.label_map[b]) for a, b in pomset.order}
    assert by_label == {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)}
    assert all(len(line.split(" -> ", 1)[1]) <= 60 for line in lines)


def test_long_print_chain_runs_out_of_fuel_not_stack():
    # a step goes into a deeply nested continuation only as far as the
    # substituted variable occurs, so it does not exhaust the interpreter stack
    text = "".join(f"print[p{k}](); " for k in range(400)) + "stop()"
    with pytest.raises(FuelExhausted, match="within 50 steps"):
        run(desugar(parse_comp(text)), fuel=50)


def test_long_print_chain_is_checked_without_exhausting_the_stack():
    # the check is one run, which hashes no configuration and so no chain
    text = "".join(f"print[p{k}](); " for k in range(400)) + "stop()"
    report = check_confluence(desugar(parse_comp(text)))
    assert report.ok and not report.truncated


def test_long_chain_after_a_spawn_is_checked_without_exhausting_the_stack():
    # ``t`` is used at the very end, so substituting it rebuilds the whole
    # chain
    text = (
        "let t = node[s](nil) in "
        + "".join(f"print[p{k}](); " for k in range(400))
        + "wait(t); stop()"
    )
    report = check_confluence(desugar(parse_comp(text)))
    assert report.ok and not report.truncated


def test_deeply_nested_cases_run_with_preservation():
    # every configuration is type checked, each holding up to 600 nested cases
    comp = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(600):
        comp = CaseV(InjV(1, UNIT_V, Sum((UNIT,))), (("u", comp),))
    result, checks = run_with_preservation(comp, EMPTY)
    assert result.terminal.is_terminal()
    assert checks == 602


def test_preservation_types_each_step_in_work_proportional_to_what_it_wrote(monkeypatch):
    # the typing memo of the run leaves only the spine a step rebuilt to be
    # typed again, so the judgements grow with the chain, not its square
    judged = []
    comp = lang._comp

    def counted(env, world, term, want, memo=None):
        judged.append(term)
        return comp(env, world, term, want, memo)

    monkeypatch.setattr(lang, "_comp", counted)
    counts = []
    for n in (50, 100):
        judged.clear()
        text = "".join(f"print[p{k}](); " for k in range(n)) + "stop()"
        run_with_preservation(desugar(parse_comp(text)), EMPTY)
        counts.append(len(judged))
    assert counts[1] <= 2.5 * counts[0], counts


def test_let_steps_keep_the_rest_of_a_print_chain():
    comp = desugar(parse_comp("print[a](); print[b](); print[c](); stop()"))
    roots = []
    run(comp, on_step=lambda label, c: roots.append(c.thread(())))
    # until the root's first let step, its state is a let around the rest of
    # the program; that step leaves the rest itself, not a copy
    first = next(i for i, state in enumerate(roots) if state is comp.body)
    assert all(state.body is comp.body for state in roots[:first])
    rest = comp.body
    while type(rest) is LetC:
        rest = rest.body
        assert any(state is rest for state in roots)


def test_stuck_thread_is_raised_by_runs_and_walks():
    comp = desugar(parse_comp("proj3 ((), ())"))
    for attempt in (run, explore, check_confluence, walk_explore):
        with pytest.raises(StuckThread, match=r"^proj3 of a 2-tuple$"):
            attempt(comp)


_STOP = ApplyC(ConstV("stop"), UNIT_V)


@pytest.mark.parametrize("comp, message", [
    (ApplyC(ConstV("print", "s"), UNIT_V), "constant 'print' has no reduction rule; desugar first"),
    (ApplyC(UNIT_V, UNIT_V), "cannot apply non-function value 'ret ()'"),
    (ProjC(3, TupleV((UNIT_V, UNIT_V))), "proj3 of a 2-tuple"),
    (CaseV(InjV(3, UNIT_V), (("u", _STOP),)), "inj3 with 1 branches"),
    (ProjC(1, InjV(1, UNIT_V)), "no rule for 'proj1 (inj1 ())'"),
    (CaseV(UNIT_V, (("u", _STOP),)), "no rule for 'case () of { inj1 u => stop() }'"),
    (Ret(UNIT_V), "not a core computation: Ret(value=TupleV(items=()))"),
    # inside let frames, the redex is named
    (LetC("x", LetC("y", ProjC(1, InjV(1, UNIT_V)), _STOP), _STOP), "no rule for 'proj1 (inj1 ())'"),
])
def test_every_stuck_local_step_names_its_redex(comp, message):
    with pytest.raises(StuckThread) as raised:
        machine._local_step(comp, (), 1)
    assert str(raised.value) == message
