from __future__ import annotations

import copy
import pickle
import random
import sys

import pytest

from dynthreads.posets import (
    STAR,
    Bnd,
    Equality,
    HoleLabel,
    In,
    NfAct,
    NfChild,
    NfVarApp,
    NormalForm,
    Pomset,
    PosetError,
    Star,
    Vert,
    check_well_formed,
    covering_pairs,
    decide_equal,
    decide_equal_posets,
    erase_star,
    interp,
    iso_check,
    iso_quick_reject,
    make_poset,
    nf_to_term,
    normalize,
    poset_from_json,
    poset_subst,
    poset_to_dot,
    poset_to_json,
    poset_to_json_text,
    raw_poset,
    reify,
)
from dynthreads.terms import (
    STOP, Act, CompContext, Fork, TermError, Var, Wait, parse_term, parse_term_file,
    print_term, tidset,
)
from dynthreads.tids import ParamContext

from genutil import random_relation, random_term, random_well_formed_poset
from model_oracle import (
    Relation, TidSet, compose, graph_of, ref_act, ref_fork, ref_relabel, ref_stop, ref_wait,
)
import pair_oracle

EMPTY_G = CompContext(())
EMPTY_D = ParamContext(())


def _interp(src: str, vars=(), tids=()):
    return interp(parse_term(src), CompContext(tuple(vars)), ParamContext(tuple(tids)))


# --- element references ------------------------------------------------------

REFS = [In(1), In(2), Vert(1), Vert(3), Vert(10), STAR]


def test_element_references_of_different_kinds_differ():
    assert len({In(1), Vert(1), STAR}) == 3
    assert In(1) != Vert(1) and In(1) != STAR and Vert(1) != STAR
    assert Star() == STAR and In(2) == In(2) and Vert(2) != Vert(3)


def test_element_reference_repr_and_fields():
    assert [repr(e) for e in (In(1), Vert(3), STAR)] == ["In(index=1)", "Vert(vid=3)", "Star()"]
    assert str(In(1)) == "In(index=1)" and f"{Vert(3)}" == "Vert(vid=3)"
    assert In(4).index == 4 and Vert(5).vid == 5


def test_element_references_sort_inputs_then_vertices_then_star():
    def kind_key(e):
        # the order of the former explicit sort key
        if isinstance(e, In):
            return (0, e.index)
        if isinstance(e, Vert):
            return (1, e.vid)
        return (2, 0)

    shuffled = list(REFS)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=kind_key) == REFS


def test_element_references_match_by_class_pattern():
    bound = []
    for e in REFS:
        match e:
            case In(i):
                bound.append(("in", i))
            case Vert(v):
                bound.append(("v", v))
            case Star():
                bound.append(("star",))
    assert bound == [("in", 1), ("in", 2), ("v", 1), ("v", 3), ("v", 10), ("star",)]


def test_element_references_survive_deepcopy_and_pickle():
    for e in REFS:
        for copied in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert copied == e and type(copied) is type(e) and repr(copied) == repr(e)


# --- well-formedness ---------------------------------------------------------

def test_sequenced_actions_poset_is_well_formed():
    p = _interp("fork(a. wait(a, act[s2]), act[s1])")
    expected = make_poset(
        0,
        {1: "s1", 2: "s2"},
        {},
        {(Vert(1), Vert(2)), (Vert(1), STAR), (Vert(2), STAR)},
    )
    assert check_well_formed(p) is None
    assert iso_check(p, expected) is not None


def test_cyclic_visibility_is_ill_formed():
    # order edge one way, visibility edge back
    p = raw_poset(
        0,
        {1: "s"},
        {2: HoleLabel("x", 1, (frozenset({Vert(1), Vert(2)}),))},
        {(Vert(2), Vert(1)), (Vert(1), STAR), (Vert(2), STAR)},
    )
    violation = check_well_formed(p)
    assert violation is not None and "cycle" in violation


def test_empty_poset_is_well_formed():
    assert check_well_formed(ref_stop(0)) is None


def test_well_formedness_reports_each_clause():
    below_input = raw_poset(1, {1: "s"}, {}, {(Vert(1), In(1))})
    assert "minimal" in check_well_formed(below_input)

    above_star = raw_poset(0, {1: "s"}, {}, {(STAR, Vert(1))})
    assert "maximal" in check_well_formed(above_star)

    not_closed = raw_poset(
        0, {1: "s", 2: "t", 3: "u"}, {},
        {(Vert(1), Vert(2)), (Vert(2), Vert(3))},
    )
    assert "transitively" in check_well_formed(not_closed)

    missing_self = raw_poset(
        0, {}, {1: HoleLabel("x", 1, (frozenset(),))}, {(Vert(1), STAR)}
    )
    assert "misses the hole" in check_well_formed(missing_self)

    star_in_slot = raw_poset(
        0, {}, {1: HoleLabel("x", 1, (frozenset({Vert(1), STAR}),))}, {(Vert(1), STAR)}
    )
    assert "star" in check_well_formed(star_in_slot)

    not_down = raw_poset(
        0,
        {2: "s", 3: "t"},
        {1: HoleLabel("x", 1, (frozenset({Vert(1), Vert(2)}),))},
        {(Vert(3), Vert(2)), (Vert(1), STAR), (Vert(2), STAR), (Vert(3), STAR)},
    )
    assert "downward" in check_well_formed(not_down)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, {}, {}, {(In(2), STAR)}), "input 2 out of range 1..1"),
        ((0, {1: "s"}, {}, {(Vert(1), Vert(7))}), "unknown vertex id 7"),
        ((0, {1: "s"}, {}, {("s", STAR)}), "not an element reference: 's'"),
        # a plain pair that equals ``Vert(1)`` is not a reference either
        ((0, {1: "s"}, {}, {((1, 1), STAR)}), "not an element reference: (1, 1)"),
        ((0, {1: "s"}, {1: HoleLabel("x", 0, ())}, set()), "action and hole vertex ids overlap"),
        # visibility slots are checked as well as the order
        (
            (0, {}, {1: HoleLabel("x", 1, (frozenset({Vert(1), Vert(9)}),))}, set()),
            "unknown vertex id 9",
        ),
    ],
)
def test_raw_poset_rejects_bad_references(args, message):
    with pytest.raises(PosetError) as raised:
        raw_poset(*args)
    assert str(raised.value) == message


def test_well_formedness_names_the_least_witness():
    # several violations of one clause: the message names the least witness in
    # reference order, whatever order the pairs were given in
    chain = [(Vert(1), Vert(2)), (Vert(2), Vert(3)), (Vert(3), Vert(4)), (Vert(4), STAR)]
    raised = [(Vert(1), In(3)), (Vert(1), In(2)), (Vert(1), STAR)]
    for pairs in (chain, chain[::-1]):
        p = raw_poset(0, {1: "s", 2: "t", 3: "u", 4: "v"}, {}, pairs)
        assert check_well_formed(p) == (
            "order not transitively closed: Vert(vid=1) < Vert(vid=2) < Vert(vid=3)"
        )
    for pairs in (raised, raised[::-1]):
        assert check_well_formed(raw_poset(3, {1: "s"}, {}, pairs)) == "input 2 is not minimal"


# --- isomorphism -------------------------------------------------------------

def test_quick_reject_does_not_depend_on_set_iteration_order():
    # the same four inputs below the action; with vertex ids 1 and 2 the
    # signature frozensets iterate them in different orders
    def one_action(vid):
        order = {(In(i), Vert(vid)) for i in (1, 3, 4, 9)} | {(Vert(vid), STAR)}
        return make_poset(9, {vid: "s"}, {}, order)

    p, q = one_action(1), one_action(2)
    assert iso_quick_reject(p, q) is None
    assert iso_check(p, q) == {1: 2}


def test_iso_invariant_under_vertex_renaming():
    p = _interp("fork(a. wait(a, act[s2]), act[s1])")
    q = make_poset(
        0,
        {7: "s1", 3: "s2"},
        {},
        {(Vert(7), Vert(3)), (Vert(7), STAR), (Vert(3), STAR)},
    )
    witness = iso_check(p, q)
    assert witness is not None
    assert all(p.action_map[v] == q.action_map[w] for v, w in witness.items())


def test_iso_distinguishes_main_thread_placement():
    # same actions, different thread acts as the main one
    t2 = _interp("fork(a. act[s2], act[s1])")
    t3 = _interp("fork(a. act[s1], act[s2])")
    assert iso_check(t2, t3) is None


def test_iso_chain_vs_antichain():
    chain = make_poset(
        0, {1: "s1", 2: "s2"}, {},
        {(Vert(1), Vert(2)), (Vert(1), STAR), (Vert(2), STAR)},
    )
    antichain = make_poset(
        0, {1: "s1", 2: "s2"}, {},
        {(Vert(1), STAR), (Vert(2), STAR)},
    )
    assert iso_check(chain, antichain) is None


def test_iso_checks_visibility_slots():
    mk = lambda slot: make_poset(  # noqa: E731
        2, {}, {1: ("x", 1, [slot])}, {(Vert(1), STAR)}
    )
    assert iso_check(mk({In(1)}), mk({In(1)})) is not None
    assert iso_check(mk({In(1)}), mk({In(2)})) is None


# --- relabel -------------------------------------------------------------------

def _fig4c_expected():
    return make_poset(
        2,
        {1: "t", 2: "s"},
        {3: ("x", 2, [{In(1), Vert(1), Vert(3)}, {In(1), In(2), Vert(2), Vert(3)}])},
        {(In(1), Vert(1)), (In(1), Vert(2)), (In(2), Vert(2)), (Vert(3), STAR)},
    )


def test_relabel_substitutes_compound_for_fresh_input():
    # merging a third input into the first two, as in the node-term picture
    fig_b = _interp(
        "node[s](a3p, b1. node[t](a1, b2. x(b2, b1)))",
        vars=[("x", 2)],
        tids=["a1", "a2", "a3p"],
    )
    fig_c = _interp(
        "node[s](a1 + a2, b1. node[t](a1, b2. x(b2, b1)))",
        vars=[("x", 2)],
        tids=["a1", "a2"],
    )
    moved = ref_relabel(fig_b, graph_of([TidSet.of(2, {1, 2})], 2))
    assert iso_check(moved, fig_c) is not None
    assert iso_check(fig_c, _fig4c_expected()) is not None


def test_relabel_identity_is_identity():
    rng = random.Random(5)
    for _ in range(20):
        p = random_well_formed_poset(rng)
        q = ref_relabel(p, Relation.identity(p.n_inputs))
        assert iso_check(p, q) is not None


def test_relabel_functorial_on_composition():
    rng = random.Random(6)
    for _ in range(40):
        p = random_well_formed_poset(rng, max_inputs=3, max_vertices=4)
        r = random_relation(rng, p.n_inputs, rng.randint(0, 3))
        s = random_relation(rng, r.dst, rng.randint(0, 3))
        lhs = ref_relabel(ref_relabel(p, r), s)
        rhs = ref_relabel(p, compose(r, s))
        assert iso_check(lhs, rhs) is not None


def test_relabel_preserves_well_formedness():
    rng = random.Random(7)
    for _ in range(30):
        p = random_well_formed_poset(rng)
        r = random_relation(rng, p.n_inputs, rng.randint(0, 3))
        assert check_well_formed(ref_relabel(p, r)) is None


# --- model operations ------------------------------------------------------------

def test_op_stop_and_op_act_shapes():
    stop0 = ref_stop(0)
    assert stop0.order == frozenset() and not stop0.vertex_ids

    act0 = ref_act("s1", 0)
    assert act0.order == frozenset({(Vert(1), STAR)})

    act2 = ref_act("s1", 2)
    assert act2.below(Vert(1)) == frozenset()
    assert act2.below(STAR) == frozenset({Vert(1)})


FIG7_T1 = "fork(b1. fork(b2. wait(a2, act[s2]), x(a2)), wait(a1, act[s1]))"
FIG7_T2 = "wait(a1, act[s3])"
FIG7_T3 = "fork(c. stop, wait(a1, act[s3]))"


def _fig7d_expected():
    return make_poset(
        1,
        {1: "s1", 2: "s2", 3: "s3"},
        {4: ("x", 1, [{In(1), Vert(3), Vert(4)}])},
        {
            (In(1), Vert(1)),
            (In(1), Vert(3)),
            (Vert(3), Vert(2)),
            (Vert(3), STAR),
            (Vert(2), STAR),
            (In(1), STAR),
        },
    )


def test_op_fork_matches_forking_example():
    parent = _interp(FIG7_T1, vars=[("x", 1)], tids=["a1", "a2"])
    child = _interp(FIG7_T2, vars=[("x", 1)], tids=["a1"])
    combined = ref_fork(parent, child)
    assert iso_check(combined, _fig7d_expected()) is not None
    via_term = _interp(
        f"fork(a2. {FIG7_T1}, {FIG7_T2})", vars=[("x", 1)], tids=["a1"]
    )
    assert iso_check(combined, via_term) is not None


def test_op_fork_child_that_stops_immediately():
    # the child's own child is not waited for, so waiting on the child
    # guarantees nothing
    parent = _interp(FIG7_T1, vars=[("x", 1)], tids=["a1", "a2"])
    child = _interp(FIG7_T3, vars=[("x", 1)], tids=["a1"])
    combined = ref_fork(parent, child)
    expected = make_poset(
        1,
        {1: "s1", 2: "s2", 3: "s3"},
        {4: ("x", 1, [{Vert(4)}])},
        {(In(1), Vert(1)), (In(1), Vert(3)), (Vert(2), STAR)},
    )
    assert iso_check(combined, expected) is not None


def test_op_fork_wait_then_stop_child_is_identity():
    rng = random.Random(8)
    for _ in range(20):
        q = random_well_formed_poset(rng)
        n = q.n_inputs
        parent = _interp(
            "wait(b, stop)", tids=[f"a{i}" for i in range(1, n + 1)] + ["b"]
        )
        assert iso_check(ref_fork(parent, q), q) is not None


def test_op_fork_over_empty_child_erases_input():
    parent = _interp("wait(a1 + b, act[s1])", tids=["a1", "b"])
    result = ref_fork(parent, ref_stop(1))
    expected = _interp("wait(a1, act[s1])", tids=["a1"])
    assert iso_check(result, expected) is not None


def test_op_wait_matches_wait_example():
    base = _interp(FIG7_T3, vars=[("x", 1)], tids=["a1"])
    waited = ref_wait(base)
    expected = make_poset(
        2,
        {1: "s3"},
        {},
        {(In(1), Vert(1)), (In(2), Vert(1)), (In(2), STAR)},
    )
    assert iso_check(waited, expected) is not None
    via_term = _interp(f"wait(a2, {FIG7_T3})", vars=[("x", 1)], tids=["a1", "a2"])
    assert iso_check(waited, via_term) is not None


def test_op_wait_on_stop_poset():
    waited = ref_wait(ref_stop(0))
    assert waited.order == frozenset({(In(1), STAR)})


def test_double_wait_merges_like_single_wait():
    rng = random.Random(9)
    for _ in range(20):
        p = random_well_formed_poset(rng, max_vertices=4)
        n = p.n_inputs
        merge = graph_of([TidSet.of(n + 1, {n + 1})], n + 1)
        twice = ref_relabel(ref_wait(ref_wait(p)), merge)
        once = ref_wait(p)
        assert iso_check(twice, once) is not None


def test_model_ops_preserve_well_formedness():
    rng = random.Random(10)
    for _ in range(25):
        q = random_well_formed_poset(rng, max_vertices=4)
        p = random_well_formed_poset(rng, max_vertices=4)
        assert check_well_formed(ref_wait(q)) is None
        # fork needs a parent over one more input than the child
        parent = ref_relabel(p, random_relation(rng, p.n_inputs, q.n_inputs + 1, density=0.5))
        combined = ref_fork(parent, q)
        assert check_well_formed(combined) is None


# --- interp --------------------------------------------------------------------

def test_interp_second_action_not_on_main_thread():
    p = _interp("fork(a. act[s2], act[s1])")
    expected = make_poset(
        0, {1: "s1", 2: "s2"}, {}, {(Vert(2), STAR)}
    )
    assert iso_check(p, expected) is not None


def test_interp_stop():
    assert iso_check(_interp("stop"), ref_stop(0)) is not None


def test_interp_naturality_under_parameter_substitution():
    from dynthreads.terms import subst_param

    rng = random.Random(12)
    gamma = CompContext((("x", 1),))
    for _ in range(40):
        delta = ParamContext(("a", "b", "c"))
        t = random_term(rng, gamma, delta, 6)
        u = frozenset(n for n in ("a", "b") if rng.random() < 0.5)
        direct = interp(subst_param(t, u, "c"), gamma, ParamContext(("a", "b")))
        routed = ref_relabel(
            interp(t, gamma, delta),
            graph_of([TidSet.of(2, {{"a": 1, "b": 2}[n] for n in u})], 2),
        )
        assert iso_check(direct, routed) is not None



def _fork_chain(depth: int, every: int):
    """Forks nested ``depth`` deep in parent position.  Every ``every``-th
    level forks an action and waits for it; the other levels fork a child
    that stops at once."""
    term = STOP
    for k in range(depth, 0, -1):
        binder = f"b{k}"
        if k % every == 0:
            term = Fork(binder, Wait(tidset(binder), term), Act(f"s{k // every}"))
        else:
            term = Fork(binder, term, STOP)
    return term


def test_interp_and_normalize_walk_terms_deeper_than_the_recursion_limit():
    # no timing assertion: interp and normalize only have to return
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a",))
    hole = Var("x", (tidset("a"),))
    waits = hole
    for _ in range(10_000):
        waits = Wait(tidset("a"), waits)
    once = Wait(tidset("a"), hole)
    assert interp(waits, gamma, delta) == interp(once, gamma, delta)
    assert normalize(waits, gamma, delta) == normalize(once, gamma, delta)

    # a child that stops at once leaves nothing behind, so the deep chain
    # means what its 40 action levels alone mean: 40 actions in sequence
    deep = _fork_chain(2_000, 50)
    shallow = _fork_chain(40, 1)
    assert interp(deep, gamma, delta) == interp(shallow, gamma, delta)
    nf = normalize(deep, gamma, delta)
    assert nf == normalize(shallow, gamma, delta)
    assert [child.body.label for child in nf.children] == [f"s{k}" for k in range(1, 41)]


def test_term_files_deeper_than_the_recursion_limit_parse_normalize_and_print():
    # no timing assertion: the parser and the printer only have to return
    text = "tids a; " + "wait(a, " * 10_000 + "x((a))" + ")" * 10_000
    gamma, delta, term = parse_term_file("vars x:1; " + text)
    assert normalize(term, gamma, delta) == normalize(
        parse_term("wait(a, x(a))"), gamma, delta
    )
    assert print_term(term) == text[len("tids a; "):].replace("x((a))", "x(a)")
    # (deep terms are compared by their text: dataclass ``==`` recurses)
    deep = _fork_chain(2_000, 50)
    again = parse_term(print_term(deep))
    assert print_term(again) == print_term(deep)
    assert normalize(again, CompContext(()), delta) == normalize(deep, CompContext(()), delta)
    # an unclosed guard deep inside parentheses reports the token it stopped at
    with pytest.raises(TermError, match=r"^expected '\)', got ',' \(token 10004\)$"):
        parse_term_file("wait(" + "(" * 10_000 + "a, stop)")


# --- reify / normalize -----------------------------------------------------------

def test_reify_two_sequenced_actions():
    nf = reify(_interp("fork(b1. wait(b1, act[s2]), act[s1])"))
    assert nf == NormalForm(
        0,
        (
            NfChild(frozenset(), NfAct("s1")),
            NfChild(frozenset({Bnd(1)}), NfAct("s2")),
        ),
        frozenset({Bnd(1), Bnd(2)}),
    )


def test_reify_stop():
    assert reify(ref_stop(0)) == NormalForm(0, (), frozenset())


def test_reify_single_action_as_main():
    nf = normalize(parse_term("act[s]"), EMPTY_G, EMPTY_D)
    assert nf == NormalForm(
        0, (NfChild(frozenset(), NfAct("s")),), frozenset({Bnd(1)})
    )


NF2_SRC = (
    "fork(b1. fork(b2. wait(a1 + b1 + b2, stop), wait(a1 + b1, x(a1 + a2 + b1))), "
    "wait(a1, act[s1]))"
)


def test_reify_reproduces_two_input_normal_form():
    nf = normalize(
        parse_term(NF2_SRC),
        CompContext((("x", 1),)),
        ParamContext(("a1", "a2")),
    )
    assert nf == NormalForm(
        2,
        (
            NfChild(frozenset({In(1)}), NfAct("s1")),
            NfChild(
                frozenset({In(1), Bnd(1)}),
                NfVarApp("x", (frozenset({In(1), In(2), Bnd(1)}),)),
            ),
        ),
        frozenset({In(1), Bnd(1), Bnd(2)}),
    )
    assert nf.check_closure() is None


def test_nf_round_trips_back_to_same_poset():
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a1", "a2"))
    p = interp(parse_term(NF2_SRC), gamma, delta)
    nf = reify(p)
    g2, d2, term = nf_to_term(nf)
    assert iso_check(interp(term, g2, d2), p) is not None


def test_normalize_drops_invisible_child():
    lhs = parse_term("fork(a. wait(a, act[s1]), fork(b. stop, act[s2]))")
    rhs = parse_term("fork(b. act[s1], act[s2])")
    assert normalize(lhs, EMPTY_G, EMPTY_D) == normalize(rhs, EMPTY_G, EMPTY_D)


def test_normalize_wait_empty_stop():
    assert normalize(parse_term("wait(0, stop)"), EMPTY_G, EMPTY_D) == NormalForm(
        0, (), frozenset()
    )


def test_reified_normal_forms_satisfy_closure():
    rng = random.Random(13)
    gamma = CompContext((("x", 1), ("y", 0)))
    delta = ParamContext(("a", "b"))
    for _ in range(60):
        t = random_term(rng, gamma, delta, 8)
        assert normalize(t, gamma, delta).check_closure() is None


# --- decide_equal ------------------------------------------------------------------

def test_decide_equal_main_thread_example():
    lhs = parse_term("fork(a. wait(a, act[s1]), fork(b. stop, act[s2]))")
    rhs = parse_term("fork(b. act[s1], act[s2])")
    assert decide_equal(lhs, rhs, EMPTY_G, EMPTY_D).equal


def test_decide_equal_node_substitution_instance():
    gamma = CompContext((("y", 1),))
    delta = ParamContext(("a1", "a2"))
    lhs_host = parse_term("node[s](a1 + a2, c1. node[t](a1, c2. x(c2, c1)))")
    from dynthreads.terms import subst_comp

    lhs = subst_comp(lhs_host, ("b1", "b2"), Var("y", (tidset("b1", "b2"),)), "x")
    rhs = parse_term("node[s](a1 + a2, c1. node[t](a1, c2. y(c2 + c1)))")
    assert decide_equal(lhs, rhs, gamma, delta).equal


def test_decide_equal_distinct_actions():
    verdict = decide_equal(
        parse_term("act[s1]"), parse_term("act[s2]"), EMPTY_G, EMPTY_D
    )
    assert not verdict.equal
    assert "label" in verdict.evidence


def test_decide_equal_is_equivalence_and_congruence():
    rng = random.Random(14)
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a",))
    for _ in range(15):
        t = random_term(rng, gamma, delta, 6)
        g2, d2, t_nf = nf_to_term(normalize(t, gamma, delta), ("a",))
        # reflexivity and symmetry against the normal-form inclusion
        assert decide_equal(t, t, gamma, delta).equal
        merged_gamma = gamma if g2.entries == gamma.entries else CompContext(
            tuple(sorted(set(gamma.entries) | set(g2.entries)))
        )
        assert decide_equal(t, t_nf, merged_gamma, delta).equal
        assert decide_equal(t_nf, t, merged_gamma, delta).equal
        # congruence: wrap both sides in the same fork/wait context
        from dynthreads.terms import Fork, Wait

        u = random_term(rng, gamma, delta, 4)
        lhs = Fork("f", Wait(frozenset({"f"}), t), u)
        rhs = Fork("f", Wait(frozenset({"f"}), t_nf), u)
        assert decide_equal(lhs, rhs, merged_gamma, delta).equal


# --- poset substitution ---------------------------------------------------------

def test_poset_subst_matches_figure_example():
    host = _interp(
        "fork(b1. fork(b2. wait(a1, x(b1, b2)), act[s2]), act[s1])",
        vars=[("x", 2)],
        tids=["a1"],
    )
    guest = _interp("wait(b1, act[s])", tids=["a1", "b1", "b2"])
    result = poset_subst(host, "x", 2, guest)
    expected = _interp(
        "fork(b1. fork(b2. wait(a1, wait(b1, act[s])), act[s2]), act[s1])",
        tids=["a1"],
    )
    assert iso_check(result, expected) is not None


def test_poset_subst_identity_like_hole():
    host = _interp("fork(c. x(c), y)", vars=[("x", 1), ("y", 0)])
    guest = _interp("xp(b1)", vars=[("xp", 1)], tids=["b1"])
    result = poset_subst(host, "x", 1, guest)
    expected = _interp("fork(c. xp(c), y)", vars=[("xp", 1), ("y", 0)])
    assert iso_check(result, expected) is not None


def test_poset_subst_wait_stop_guest_erases_hole():
    host = _interp("fork(a. x(a), y)", vars=[("x", 1), ("y", 0)])
    guest = _interp("wait(b, stop)", tids=["b"])
    result = poset_subst(host, "x", 1, guest)
    expected = _interp("y", vars=[("y", 0)])
    assert iso_check(result, expected) is not None


def test_poset_subst_arity_mismatch():
    host = _interp("x(a)", vars=[("x", 1)], tids=["a"])
    guest = ref_stop(3)
    with pytest.raises(PosetError):
        poset_subst(host, "x", 1, guest)


# --- round trips -----------------------------------------------------------------

def test_interp_reify_right_inverse_on_random_posets():
    rng = random.Random(15)
    for _ in range(60):
        p = random_well_formed_poset(rng)
        gamma, delta, term = nf_to_term(reify(p))
        assert iso_check(interp(term, gamma, delta), p) is not None


def test_reify_interp_left_inverse_on_random_terms():
    rng = random.Random(16)
    gamma = CompContext((("x", 1), ("y", 2)))
    delta = ParamContext(("a", "b"))
    for _ in range(60):
        t = random_term(rng, gamma, delta, 8)
        p = interp(t, gamma, delta)
        nf = reify(p)
        g2, d2, term = nf_to_term(nf, delta.names)
        assert iso_check(interp(term, g2, d2), p) is not None


# --- serialization ---------------------------------------------------------------

def test_poset_json_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = random_well_formed_poset(rng)
        text = poset_to_json_text(p)
        again = poset_from_json(poset_to_json(p))
        assert again == p
        assert poset_to_json_text(again) == text


def test_poset_dot_export_mentions_all_elements():
    p = _interp(
        "fork(b1. wait(b1, x(a1)), wait(a1, act[s1]))",
        vars=[("x", 1)],
        tids=["a1"],
    )
    dot = poset_to_dot(p)
    assert "shape=box" in dot and "shape=circle" in dot and "shape=diamond" in dot
    assert "style=dotted" in dot and "star" in dot


def test_covering_pairs_drop_composites():
    # the chain 0 < 1 < 2 with its composite 0 < 2, as down-masks and as pairs
    assert covering_pairs([0b000, 0b001, 0b011]) == [0b000, 0b001, 0b010]
    order = frozenset({(1, 2), (2, 3), (1, 3)})
    assert pair_oracle.covering_pairs(order) == {(1, 2), (2, 3)}


def test_erase_star_requires_closed_hole_free():
    p = _interp("fork(a. wait(a, act[s2]), act[s1])")
    pom = erase_star(p)
    assert sorted(pom.label_map.values()) == ["s1", "s2"]
    assert len(pom.order) == 1
    with pytest.raises(PosetError):
        erase_star(_interp("x", vars=[("x", 0)]))


# --- axiom validity (quick version; the full grid lives in acceptance) -----------

def test_axioms_valid_in_poset_model():
    from dynthreads.terms import axiom_schemas

    for axiom in axiom_schemas():
        for extra in (0, 2):
            delta = ParamContext(
                tuple(f"n{i}" for i in range(1, extra + 1)) + axiom.delta.names
            )
            lhs = interp(axiom.lhs, axiom.gamma, delta)
            rhs = interp(axiom.rhs, axiom.gamma, delta)
            assert iso_check(lhs, rhs) is not None, axiom.name


def test_interp_invariant_under_binder_renaming():
    from dynthreads.terms import rename_binders_apart

    rng = random.Random(18)
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a", "b"))
    for _ in range(30):
        t = random_term(rng, gamma, delta, 7)
        renamed = rename_binders_apart(t, frozenset({"q1", "q2", "q3"} | set(delta.names)))
        assert iso_check(
            interp(t, gamma, delta), interp(renamed, gamma, delta)
        ) is not None


def test_interp_naturality_along_arbitrary_relations():
    # re-pointing all inputs at once along a relation agrees with the
    # simultaneous substitution of compounds for all parameters
    from dynthreads.terms import fresh_name, subst_param

    rng = random.Random(19)
    gamma = CompContext((("x", 1),))
    for _ in range(40):
        n = rng.randint(0, 3)
        n2 = rng.randint(0, 3)
        delta = ParamContext(tuple(f"a{i}" for i in range(1, n + 1)))
        delta2 = ParamContext(tuple(f"d{i}" for i in range(1, n2 + 1)))
        rel = random_relation(rng, n, n2)
        t = random_term(rng, gamma, delta, 6)

        moved = t
        temps = []
        for i in range(1, n + 1):
            tmp = fresh_name(f"_t{i}", set(delta.names) | set(delta2.names) | set(temps))
            temps.append(tmp)
            moved = subst_param(moved, frozenset({tmp}), f"a{i}")
        for i, tmp in enumerate(temps, start=1):
            image = frozenset(f"d{j}" for j in rel.image(i))
            moved = subst_param(moved, image, tmp)

        direct = interp(moved, gamma, delta2)
        routed = ref_relabel(interp(t, gamma, delta), rel)
        assert iso_check(direct, routed) is not None


def test_linearizations_of_a_chain_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    ids = [f"e{i:05}" for i in range(n)]
    chain = Pomset.of({e: f"s{i}" for i, e in enumerate(ids)}, zip(ids, ids[1:]))
    assert chain.linearizations() == {tuple(f"s{i}" for i in range(n))}
