from __future__ import annotations

import random

import pytest

from dynthreads import denote as denote_module
from dynthreads.denote import (
    AlphabetCollision,
    CanonicalFOType,
    Denotation,
    DenoteError,
    Elaborator,
    NotFirstOrderResult,
    UnboundTid,
    adequacy_check,
    apply_gadgets,
    closing_context,
    completeness_probe,
    denote,
    gadget_subst,
    world_context,
)
from dynthreads.lang import (
    Arrow,
    EMPTY,
    Prod,
    Sum,
    TID,
    UNIT,
    UnknownTid,
    desugar,
    parse_comp,
    parse_program,
)
from dynthreads.posets import (
    STAR,
    In,
    Vert,
    decide_equal,
    decide_equal_posets,
    erase_star,
    interp,
    iso_check,
)
from dynthreads.terms import (
    Act,
    CompContext,
    Fork,
    STOP,
    Var,
    Wait,
    alpha_eq,
    parse_term,
    subst_comp,
    tidset,
)
from dynthreads.tids import ParamContext

from corpus import corpus_names, load_surface
from genutil import random_term
from model_oracle import ref_stop


def test_canonical_fo_type_flattening():
    assert CanonicalFOType.of(TID).summands == (1,)
    assert CanonicalFOType.of(UNIT).summands == (0,)
    assert CanonicalFOType.of(EMPTY).summands == ()
    assert CanonicalFOType.of(Sum((TID, UNIT))).summands == (1, 0)
    # products distribute over sums
    pair = Prod((Sum((TID, UNIT)), TID))
    assert CanonicalFOType.of(pair).summands == (2, 1)
    with pytest.raises(NotFirstOrderResult):
        CanonicalFOType.of(Arrow(UNIT, UNIT))


def test_denote_print_is_fork_wait_continuation():
    d = denote(parse_comp("print[s]()"))
    assert d.gamma == CompContext((("x1", 0),))
    assert alpha_eq(d.term, Fork("a", Wait(tidset("a"), Var("x1")), Act("s")))


def test_denote_parallel_gives_cherries():
    d = denote(
        parse_comp("parallel(\\u:1. printstop[s1](), \\u:1. printstop[s2]())")
    )
    labels = sorted(l for _, l in d.poset.actions)
    assert labels == ["s1", "s2"]
    v1, v2 = sorted(d.poset.vertex_ids)
    below_star = d.poset.below(STAR)
    assert Vert(v1) in below_star and Vert(v2) in below_star
    # no order between the two actions
    assert (Vert(v1), Vert(v2)) not in d.poset.order
    assert (Vert(v2), Vert(v1)) not in d.poset.order


def test_denote_stop_is_stop():
    d = denote(parse_comp("stop()"))
    assert d.term == STOP
    assert iso_check(d.poset, ref_stop(0)) is not None


def test_denote_in_world_uses_input_parameters():
    d = denote(parse_comp("wait(#0.1); stop()"), frozenset({(1,)}))
    assert d.delta == ParamContext(("w0.1",))
    assert alpha_eq(d.term, Wait(tidset("w0.1"), STOP))


def test_denote_unbound_tid():
    with pytest.raises(UnknownTid):
        denote(parse_comp("wait(#0.1); stop()"), frozenset())


def test_elaborator_rejects_a_tid_outside_the_world():
    core = desugar(parse_comp("wait(#0.1); stop()"))
    with pytest.raises(UnboundTid):
        Elaborator(world_context(frozenset())).denote_comp(core, {}, EMPTY)


def test_adequacy_of_a_400_print_chain():
    # elaboration takes no Python stack frame per let
    _, comp = parse_program("".join(f"print[p{k}](); " for k in range(400)) + "stop()")
    report = adequacy_check(comp)
    assert report.ok
    assert len(report.denoted.labels) == 400


def test_denote_rejects_higher_order_result():
    with pytest.raises(NotFirstOrderResult):
        denote(parse_comp("ret (\\x:tid. wait(x))"))


def test_adequacy_on_paper_examples():
    wait_first = load_surface("ex21_wait_first")
    report = adequacy_check(wait_first)
    assert report.ok
    labels = dict(report.denoted.labels)
    (s2,) = [e for e, l in labels.items() if l == "s2"]
    (s1,) = [e for e, l in labels.items() if l == "s1"]
    assert (s2, s1) in report.denoted.order


def test_adequacy_nshape():
    report = adequacy_check(load_surface("nshape"))
    assert report.ok
    assert len(report.observed.element_ids) == 4
    assert len(report.observed.order) == 3


def test_adequacy_series_chain():
    report = adequacy_check(load_surface("series"))
    assert report.ok
    labels = dict(report.denoted.labels)
    (e1,) = [e for e, l in labels.items() if l == "s1"]
    (e2,) = [e for e, l in labels.items() if l == "s2"]
    assert (e1, e2) in report.denoted.order


def test_adequacy_across_corpus_policies():
    for name in ("parallel", "orphan_child", "grandchild", "redundant_wait"):
        for policy, seed in (("lowest-tid", None), ("random", 7)):
            report = adequacy_check(load_surface(name), policy=policy, seed=seed)
            assert report.ok, name


def test_adequacy_type_checks_and_desugars_once(monkeypatch):
    calls = []

    def count(name):
        job = getattr(denote_module, name)

        def counted(*args):
            calls.append(name)
            return job(*args)

        monkeypatch.setattr(denote_module, name, counted)

    count("typecheck_comp")
    count("desugar")
    report = adequacy_check(load_surface("nshape"))
    assert report.ok
    assert sorted(calls) == ["desugar", "typecheck_comp"]
    # the denotation is the one denote gives
    assert report.denoted == erase_star(denote(load_surface("nshape")).poset)


def test_program_level_wait_fork_commutation():
    world = frozenset({(1,)})
    d1 = denote(parse_comp("wait(#0.1); fork()"), world)
    d2 = denote(parse_comp("let x = fork() in wait(#0.1); ret x"), world)
    assert d1.gamma == d2.gamma
    verdict = decide_equal_posets(d1.poset, d2.poset)
    assert verdict.equal


def test_compositionality_of_let_via_substitution():
    # route 1: denote the whole let; route 2: denote the parts and glue
    # them with computation-variable substitution
    world = frozenset({(1,)})
    t_src = "fork()"
    u_src = "case x of { inj1 a => wait(a (+) #0.1); stop() | inj2 u => stop() }"
    whole = denote(parse_comp(f"let x = {t_src} in {u_src}"), world)

    d_t = denote(parse_comp(t_src), world)  # gamma: x1:1, x2:0
    delta = world_context(world)
    u = desugar(parse_comp(u_src))
    # u with x := inj1 #0.2 elaborated over the world {#0.1, #0.2}, whose
    # parameter w0.2 is the slot glued into x1
    _, u1 = Elaborator(world_context(world | {(2,)})).denote_comp(
        u, {"x": parse_comp("ret inj1 #0.2").value}, EMPTY
    )
    _, u2 = Elaborator(delta).denote_comp(u, {"x": parse_comp("ret inj2 ()").value}, EMPTY)
    glued = subst_comp(d_t.term, ("w0.2",), u1, "x1")
    glued = subst_comp(glued, (), u2, "x2")
    verdict = decide_equal(glued, whole.term, CompContext(()), delta)
    assert verdict.equal


def test_gadget_for_unary_variable():
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a1",))
    (slots, body), = [gadget_subst(gamma, delta)[x] for x in ("x",)]
    assert slots == ("b1",)
    assert alpha_eq(
        body,
        parse_term("fork(c1. wait(c1, act[$x]), wait(b1, act[$x.1]))"),
    )


def test_gadget_for_nullary_variable():
    gamma = CompContext((("x", 0),))
    slots, body = gadget_subst(gamma, ParamContext(()))["x"]
    assert slots == ()
    assert body == Act("$x")


def test_gadget_closing_of_variable_application():
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a1",))
    closed = apply_gadgets(Var("x", (tidset("a1"),)), gamma, delta)
    poset = interp(closed, CompContext(()), delta)
    labels = {v: l for v, l in poset.actions}
    (marker,) = [v for v, l in labels.items() if l == "$x.1"]
    (main,) = [v for v, l in labels.items() if l == "$x"]
    assert (In(1), Vert(marker)) in poset.order
    assert (Vert(marker), Vert(main)) in poset.order
    assert (Vert(main), STAR) in poset.order


def test_closing_context_shapes():
    closed = closing_context(STOP, ParamContext(()))
    assert alpha_eq(closed, parse_term("fork(c. wait(c, act[$1]), stop)"))
    poset = interp(closed, CompContext(()), ParamContext(()))
    assert sorted(l for _, l in poset.actions) == ["$1"]

    t = parse_term("wait(a1, act[s])")
    closed1 = closing_context(t, ParamContext(("a1",)))
    poset1 = interp(closed1, CompContext(()), ParamContext(()))
    labels = {v: l for v, l in poset1.actions}
    (anchor,) = [v for v, l in labels.items() if l == "$1"]
    (action,) = [v for v, l in labels.items() if l == "s"]
    assert (Vert(anchor), Vert(action)) in poset1.order


def test_probe_on_concurrent_vs_sequential_children():
    # closed pair whose main-thread placement differs
    t2 = parse_term("fork(a. act[s2], act[s1])")
    t3 = parse_term("fork(a. act[s1], act[s2])")
    report = completeness_probe(t2, t3, CompContext(()), ParamContext(()))
    assert report.consistent
    assert not report.open_equal and not report.closed_equal


def test_probe_on_derivably_equal_pair():
    lhs = parse_term("fork(a. wait(a, act[s1]), fork(b. stop, act[s2]))")
    rhs = parse_term("fork(b. act[s1], act[s2])")
    report = completeness_probe(lhs, rhs, CompContext(()), ParamContext(()))
    assert report.consistent
    assert report.open_equal and report.closed_equal


def test_probe_rejects_reserved_labels():
    with pytest.raises(AlphabetCollision):
        completeness_probe(
            Act("$x"), STOP, CompContext(()), ParamContext(())
        )


def test_probe_random_open_terms():
    rng = random.Random(21)
    gamma = CompContext((("x", 1), ("y", 0)))
    delta = ParamContext(("a", "b"))
    consistent = 0
    for _ in range(25):
        t1 = random_term(rng, gamma, delta, 6)
        t2 = random_term(rng, gamma, delta, 6)
        report = completeness_probe(t1, t2, gamma, delta)
        assert report.consistent
        consistent += 1
    assert consistent == 25


def test_gadget_markers_count_matches_holes():
    rng = random.Random(22)
    gamma = CompContext((("x", 1), ("y", 2)))
    delta = ParamContext(("a",))
    for _ in range(20):
        t = random_term(rng, gamma, delta, 6)
        open_poset = interp(t, gamma, delta)
        closed = apply_gadgets(t, gamma, delta)
        closed_poset = interp(closed, CompContext(()), delta)
        for var in ("x", "y"):
            holes = sum(1 for _, h in open_poset.holes if h.var == var)
            anchors = sum(
                1 for _, l in closed_poset.actions if l == f"${var}"
            )
            assert holes == anchors
