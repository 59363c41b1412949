"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import itertools
import json
import random

from dynthreads.denote import adequacy_check, completeness_probe
from dynthreads.lang import EMPTY, desugar, parse_program, print_program
from dynthreads.machine import (
    check_confluence,
    explore,
    run,
    run_result_to_json,
    run_with_preservation,
)
from dynthreads.posets import (
    Pomset,
    check_well_formed,
    decide_equal,
    decide_equal_posets,
    interp,
    iso_check,
    nf_to_term,
    normalize,
    poset_to_json,
    reify,
    Bnd,
    In,
    NfAct,
    NfChild,
    NfVarApp,
    NormalForm,
)
from dynthreads.terms import (
    CompContext,
    STOP,
    axiom_schemas,
    derived_node,
    parse_term,
    parse_term_file,
    print_term,
    print_term_file,
    tidset,
)
from dynthreads.tids import ParamContext

from corpus import PROGRAMS_DIR, corpus_names, load_core, load_surface
from genutil import random_term, random_well_formed_poset
from model_oracle import poset_from_json, poset_to_json_text

EMPTY_G = CompContext(())
EMPTY_D = ParamContext(())


def _verdict(number: int, name: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {state}{tail}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_axiom_validity():
    checks = 0
    ok = True
    for axiom in axiom_schemas():
        for extra in range(4):
            delta = ParamContext(
                axiom.delta.names + tuple(f"n{i}" for i in range(1, extra + 1))
            )
            lhs = interp(axiom.lhs, axiom.gamma, delta)
            rhs = interp(axiom.rhs, axiom.gamma, delta)
            checks += 1
            if iso_check(lhs, rhs) is None:
                ok = False
    _verdict(1, "axiom-validity", ok and checks == 32, f"{checks} checks")


def test_criterion_02_node_theory_laws():
    gamma2 = CompContext((("x", 2),))
    delta2 = ParamContext(("a1", "a2"))
    comm_lhs = parse_term("node[s](a1, b1. node[t](a2, b2. x(b1, b2)))")
    comm_rhs = parse_term("node[t](a2, b2. node[s](a1, b1. x(b1, b2)))")
    comm = decide_equal(comm_lhs, comm_rhs, gamma2, delta2).equal

    gamma1 = CompContext((("x", 1),))
    delta1 = ParamContext(("a",))
    trans_lhs = parse_term("node[s](a, b. x(b))")
    trans_rhs = parse_term("node[s](a, b. x(a + b))")
    trans = decide_equal(trans_lhs, trans_rhs, gamma1, delta1).equal

    # the worked substitution instances on the two-output node term
    from dynthreads.terms import Var, subst_comp, subst_param, alpha_eq

    fig_b = parse_term("node[s](a3, b1. node[t](a1, b2. x(b2, b1)))")
    fig_c = parse_term("node[s](a1 + a2, b1. node[t](a1, b2. x(b2, b1)))")
    sub_param_ok = alpha_eq(subst_param(fig_b, tidset("a1", "a2"), "a3"), fig_c)

    fig_d = parse_term("node[s](a1 + a2, c1. node[t](a1, c2. y(c2 + c1)))")
    body = Var("y", (tidset("b1", "b2"),))
    sub_comp = subst_comp(fig_c, ("b1", "b2"), body, "x")
    gamma_y = CompContext((("y", 1),))
    sub_comp_ok = decide_equal(sub_comp, fig_d, gamma_y, delta2).equal

    _verdict(2, "node-theory-laws", comm and trans and sub_param_ok and sub_comp_ok)


def test_criterion_03_worked_equalities():
    lhs = parse_term("fork(a. wait(a, act[s1]), fork(b. stop, act[s2]))")
    rhs = parse_term("fork(b. act[s1], act[s2])")
    worked = decide_equal(lhs, rhs, EMPTY_G, EMPTY_D).equal

    nf1 = normalize(
        parse_term("fork(b1. wait(b1, act[s2]), act[s1])"), EMPTY_G, EMPTY_D
    )
    nf1_ok = nf1 == NormalForm(
        0,
        (
            NfChild(frozenset(), NfAct("s1")),
            NfChild(frozenset({Bnd(1)}), NfAct("s2")),
        ),
        frozenset({Bnd(1), Bnd(2)}),
    )

    nf2_src = (
        "fork(b1. fork(b2. wait(a1 + b1 + b2, stop), "
        "wait(a1 + b1, x(a1 + a2 + b1))), wait(a1, act[s1]))"
    )
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a1", "a2"))
    nf2_term = parse_term(nf2_src)
    nf2 = normalize(nf2_term, gamma, delta)
    expected_nf2 = NormalForm(
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
    g2, d2, back = nf_to_term(nf2, delta.names)
    nf2_ok = nf2 == expected_nf2 and decide_equal(back, nf2_term, gamma, delta).equal

    _verdict(3, "worked-equalities", worked and nf1_ok and nf2_ok)


def test_criterion_04_representation_round_trips():
    rng = random.Random(101)
    poset_ok = 0
    for _ in range(200):
        p = random_well_formed_poset(rng, max_inputs=3, max_vertices=6, max_holes=2)
        gamma, delta, term = nf_to_term(reify(p))
        if iso_check(interp(term, gamma, delta), p) is not None:
            poset_ok += 1

    gamma = CompContext((("x", 1), ("y", 2)))
    delta = ParamContext(("a", "b"))
    term_ok = 0
    for _ in range(200):
        t = random_term(rng, gamma, delta, 8)
        p = interp(t, gamma, delta)
        nf = reify(p)
        assert nf.check_closure() is None
        g2, d2, inc = nf_to_term(nf, delta.names)
        if iso_check(interp(inc, g2, d2), p) is not None:
            term_ok += 1

    _verdict(
        4,
        "representation-round-trips",
        poset_ok == 200 and term_ok == 200,
        f"{poset_ok}/200 posets, {term_ok}/200 terms",
    )


def test_criterion_05_nshape_every_schedule():
    result = explore(load_core("nshape"), max_states=100_000)
    n_poset = Pomset.of(
        {"1": "s1", "2": "s2", "3": "s3", "4": "s4"},
        {("1", "3"), ("2", "3"), ("2", "4")},
    )
    ok = (
        result.all_iso
        and result.traces_match_linearizations
        and all(pom.iso_to(n_poset) is not None for pom in result.observations)
        and result.traces == n_poset.linearizations()
    )
    _verdict(5, "n-shape-every-schedule", ok, f"{result.states} states, {len(result.traces)} schedules")


def test_criterion_06_determinacy_and_confluence():
    names = corpus_names()
    assert len(names) >= 20
    failures = []
    for name in names:
        comp = load_core(name)
        result = explore(comp, max_states=100_000)
        if not (result.all_iso and result.traces_match_linearizations):
            failures.append(f"{name}: observations diverge")
        report = check_confluence(comp, max_states=10_000)
        if not report.ok:
            failures.append(f"{name}: {report.detail}")
        elif report.truncated:
            failures.append(f"{name}: confluence check truncated")
    _verdict(
        6,
        "determinacy-and-confluence",
        not failures,
        f"{len(names)} programs" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_07_preservation():
    failures = []
    for name in corpus_names():
        comp = load_core(name)
        try:
            result, checks = run_with_preservation(comp, EMPTY)
            if not result.terminal.is_terminal():
                failures.append(name)
        except Exception as exc:  # noqa: BLE001 - collected into the verdict
            failures.append(f"{name}: {exc}")
    _verdict(
        7,
        "preservation",
        not failures,
        f"{len(corpus_names())} programs" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_08_adequacy():
    failures = []
    for name in corpus_names():
        report = adequacy_check(load_surface(name))
        if not report.ok:
            failures.append(name)
    _verdict(
        8,
        "adequacy",
        not failures,
        f"{len(corpus_names())} programs" + ("; " + "; ".join(failures) if failures else ""),
    )


def _enumerate_node_terms(k: int, labels=("s", "t")):
    """All closed node-chains with exactly k nodes over the label set."""
    if k == 0:
        yield STOP
        return
    binders = [f"b{i}" for i in range(1, k + 1)]
    guard_spaces = [
        [frozenset(c) for r in range(i) for c in itertools.combinations(binders[:i], r)]
        + [frozenset(binders[:i])]
        for i in range(k)
    ]
    # deduplicate the guard space per position
    guard_spaces = [sorted(set(gs), key=sorted) for gs in guard_spaces]
    for label_choice in itertools.product(labels, repeat=k):
        for guard_choice in itertools.product(*guard_spaces):
            term = STOP
            for i in range(k, 0, -1):
                term = derived_node(
                    label_choice[i - 1], guard_choice[i - 1], binders[i - 1], term
                )
            yield term


def _labelled_poset_classes_oracle(k: int, labels=("s", "t")) -> int:
    """Brute-force count of iso classes of labelled posets on k points."""
    elems = list(range(k))
    pairs = [(i, j) for i in elems for j in elems if i != j]
    orders = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((j, i) in rel for (i, j) in rel):
            continue
        if any(
            (i, j) in rel and (j, l) in rel and (i, l) not in rel
            for i in elems for j in elems for l in elems
        ):
            continue
        orders.append(rel)
    classes = set()
    for rel in orders:
        for lab in itertools.product(labels, repeat=k):
            canon = min(
                (
                    tuple(sorted((perm[i], perm[j]) for (i, j) in rel)),
                    tuple(lab[perm.index(i)] for i in elems),
                )
                for perm in itertools.permutations(elems)
            )
            classes.add(canon)
    return len(classes)


def test_criterion_09_free_model_desk_check():
    details = []
    ok = True
    for k in range(4):
        posets = []
        for term in _enumerate_node_terms(k):
            posets.append(interp(term, EMPTY_G, EMPTY_D))
        # group by isomorphism, with a cheap invariant prefilter
        classes: list = []
        for p in posets:
            key = (tuple(sorted(l for _, l in p.actions)), len(p.order))
            for q_key, q in classes:
                if key == q_key and iso_check(p, q) is not None:
                    break
            else:
                classes.append((key, p))
        expected = _labelled_poset_classes_oracle(k)
        details.append(f"k={k}: {len(classes)} classes vs oracle {expected}")
        if len(classes) != expected:
            ok = False
    _verdict(9, "free-model-desk-check", ok, "; ".join(details))


def test_criterion_10_completeness_probes():
    rng = random.Random(202)
    gamma = CompContext((("x", 1), ("y", 0)))
    delta = ParamContext(("a", "b"))

    unequal_checked = 0
    unequal_ok = 0
    attempts = 0
    while unequal_checked < 50 and attempts < 1000:
        attempts += 1
        t1 = random_term(rng, gamma, delta, 6)
        t2 = random_term(rng, gamma, delta, 6)
        if decide_equal(t1, t2, gamma, delta).equal:
            continue
        unequal_checked += 1
        report = completeness_probe(t1, t2, gamma, delta)
        if report.consistent and not report.closed_equal:
            unequal_ok += 1

    equal_checked = 0
    equal_ok = 0
    for _ in range(50):
        t = random_term(rng, gamma, delta, 6)
        g2, d2, t_nf = nf_to_term(normalize(t, gamma, delta), delta.names)
        merged = CompContext(tuple(sorted(set(gamma.entries) | set(g2.entries))))
        equal_checked += 1
        report = completeness_probe(t, t_nf, merged, delta)
        if report.consistent and report.open_equal and report.closed_equal:
            equal_ok += 1

    _verdict(
        10,
        "completeness-probes",
        unequal_checked == 50 and unequal_ok == 50 and equal_ok == 50,
        f"{unequal_ok}/50 unequal, {equal_ok}/50 equal",
    )


def test_criterion_11_serialization_round_trips():
    failures = []
    # program files: parse-print stability, surface and core
    for name in corpus_names():
        text = (PROGRAMS_DIR / f"{name}.prog").read_text()
        world, comp = parse_program(text)
        printed = print_program(world, comp)
        w2, c2 = parse_program(printed)
        if print_program(w2, c2) != printed:
            failures.append(f"{name}: surface print unstable")
        core = desugar(comp)
        core_printed = print_program(world, core)
        w3, c3 = parse_program(core_printed)
        if print_program(w3, c3) != core_printed:
            failures.append(f"{name}: core print unstable")

    # term files incl. a normal form and its round trip
    term_sources = [
        "vars x:1;\ntids a1, a2;\nfork(b1. fork(b2. wait(a1 + b1 + b2, stop), "
        "wait(a1 + b1, x(a1 + a2 + b1))), wait(a1, act[s1]))\n",
        "fork(a. wait(a, act[s2]), act[s1])\n",
        "vars y:0;\nwait(0, y)\n",
    ]
    for src in term_sources:
        gamma, delta, term = parse_term_file(src)
        printed = print_term_file(gamma, delta, term)
        again = parse_term_file(printed)
        if print_term_file(*again) != printed:
            failures.append(f"term file unstable: {src[:30]}...")

    # poset JSON: load-dump stability across the corpus denotations and
    # run observations
    rng = random.Random(7)
    for name in corpus_names()[:8]:
        result = run(load_core(name))
        blob = json.dumps(run_result_to_json(result, "lowest-tid", None), sort_keys=True)
        if json.dumps(json.loads(blob), sort_keys=True) != blob:
            failures.append(f"{name}: run json unstable")
    for _ in range(20):
        p = random_well_formed_poset(rng)
        text = poset_to_json_text(p)
        if poset_to_json_text(poset_from_json(json.loads(text))) != text:
            failures.append("poset json unstable")

    _verdict(11, "serialization-round-trips", not failures, "; ".join(failures))
