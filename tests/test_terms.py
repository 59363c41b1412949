from __future__ import annotations

import random

import pytest

from dynthreads.denote import act_labels
from dynthreads.tids import ParamContext
from dynthreads.terms import (
    Act,
    ArityMismatch,
    CompContext,
    Fork,
    ShadowedBinder,
    Stop,
    STOP,
    TermError,
    UnboundParameter,
    UnboundVariable,
    Var,
    Wait,
    alpha_eq,
    axiom_schemas,
    binders_of,
    derived_node,
    free_params,
    parse_term,
    parse_term_file,
    print_term,
    print_term_file,
    scope_check,
    subst_comp,
    subst_param,
    tidset,
)

from genutil import random_term
from model_oracle import comp_vars


def test_scope_check_accepts_closed_fork_wait():
    t = parse_term("fork(a. wait(a, act[s2]), act[s1])")
    scope_check(t, CompContext(()), ParamContext(()))


def test_scope_check_unbound_parameter():
    with pytest.raises(UnboundParameter):
        scope_check(Var("x", (tidset("b"),)), CompContext((("x", 1),)), ParamContext(("a",)))


def test_scope_check_names_the_least_unbound_parameter():
    # a guard or argument with several unbound names reports the least of them
    gamma, delta = CompContext((("x", 1),)), ParamContext(("b",))
    for term in (Wait(tidset("d", "b", "c"), STOP), Var("x", (tidset("c", "b", "d"),))):
        with pytest.raises(UnboundParameter, match=r"^unbound parameter: 'c'$"):
            scope_check(term, gamma, delta)


def test_scope_check_arity_mismatch():
    with pytest.raises(ArityMismatch):
        scope_check(
            Var("x", (tidset("a"), tidset("a"))),
            CompContext((("x", 1),)),
            ParamContext(("a",)),
        )


def test_scope_check_shadowed_binder():
    t = parse_term("fork(a. fork(a. x(a), stop), stop)")
    with pytest.raises(ShadowedBinder):
        scope_check(t, CompContext((("x", 1),)), ParamContext(()))


def test_scope_check_of_a_deep_fork_chain():
    # no timing assertion: each fork's parent is the next fork, and the hole
    # at the bottom waits on the first and the last binder
    depth = 12_800
    term = Wait(tidset("b0", f"b{depth - 1}"), Var("x", (tidset("a"),)))
    for i in range(depth):
        term = Fork(f"b{i}", term, Act(f"s{i}"))
    scope_check(term, CompContext((("x", 1),)), ParamContext(("a",)))


def test_scope_check_reports_the_parent_error_before_the_child_error():
    gamma, delta = CompContext((("x", 1),)), ParamContext(("a",))
    unbound = Var("x", (tidset("q"),))
    arity = Var("x", ())
    with pytest.raises(UnboundParameter):
        scope_check(Fork("b", unbound, arity), gamma, delta)
    with pytest.raises(ArityMismatch):
        scope_check(Fork("b", arity, unbound), gamma, delta)


def test_scope_check_binder_scope_is_its_parent_only():
    gamma, delta = CompContext(()), ParamContext(())
    # the child may bind the name again, beside the parent's scope
    reused = Fork("b", Wait(tidset("b"), STOP), Fork("b", Wait(tidset("b"), STOP), STOP))
    scope_check(reused, gamma, delta)
    with pytest.raises(UnboundParameter):
        scope_check(Fork("b", STOP, Wait(tidset("b"), STOP)), gamma, delta)


def test_scope_check_rejects_what_is_not_a_term():
    gamma, delta = CompContext(()), ParamContext(())
    for bad in ("b", Fork("b", STOP, "b"), Wait(tidset(), ("b",))):
        with pytest.raises(TypeError):
            scope_check(bad, gamma, delta)
        # a stray string is not taken for the end of a binder's scope
        with pytest.raises(TypeError):
            free_params(bad)


def test_free_params_under_nested_shadowing():
    # the inner ``a`` ends its scope while the outer ``a`` still binds
    inner = "fork(a. stop, wait(a + c, stop))"
    assert free_params(parse_term(f"fork(a. {inner}, wait(b, stop))")) == {"b", "c"}
    assert free_params(parse_term(f"fork(a. {inner}, wait(a, stop))")) == {"a", "c"}


@pytest.mark.parametrize("t1, t2", [
    (Var("x"), Var("y")),
    (Var("x", (tidset("a"),)), Var("x")),
    (STOP, Act("s")),
    (Fork("a", STOP, STOP), Wait(tidset("a"), STOP)),
])
def test_alpha_eq_tells_apart_different_heads(t1, t2):
    assert not alpha_eq(t1, t2)
    assert not alpha_eq(t2, t1)


def test_subst_param_identity():
    t = parse_term("wait(a, x(a + b))")
    assert subst_param(t, tidset("a"), "a") == t


def test_subst_param_direct():
    t = parse_term("wait(a, stop)")
    assert subst_param(t, frozenset(), "a") == Wait(frozenset(), STOP)


def test_subst_param_node_example():
    # pointing a fresh input at a compound of two ambient IDs
    fig_b = parse_term("node[s](a3, b1. node[t](a1, b2. x(b2, b1)))")
    fig_c = parse_term("node[s](a1 + a2, b1. node[t](a1, b2. x(b2, b1)))")
    assert alpha_eq(subst_param(fig_b, tidset("a1", "a2"), "a3"), fig_c)


def test_subst_param_capture_avoided():
    # replacement mentions the binder name: binder must be renamed
    t = parse_term("fork(b. x(a + b), stop)")
    result = subst_param(t, tidset("b"), "a")
    assert isinstance(result, Fork)
    assert result.binder != "b"
    assert result.parent == Var("x", (frozenset({"b", result.binder}),))


def test_subst_comp_renaming():
    t = Var("x", (tidset("a"),))
    assert subst_comp(t, ("b",), Var("x'", (tidset("b"),)), "x") == Var("x'", (tidset("a"),))


def test_subst_comp_single_occurrence():
    t = parse_term("fork(c. x(c), stop)")
    body = parse_term("wait(b, stop)")
    expected = parse_term("fork(c. wait(c, stop), stop)")
    assert alpha_eq(subst_comp(t, ("b",), body, "x"), expected)


def test_subst_comp_fig4_example():
    # merging the two outputs of the two-output term into one
    fig_c = parse_term("node[s](a1 + a2, c1. node[t](a1, c2. x(c2, c1)))")
    fig_d = parse_term("node[s](a1 + a2, c1. node[t](a1, c2. y(c2 + c1)))")
    body = Var("y", (tidset("b1", "b2"),))
    assert alpha_eq(subst_comp(fig_c, ("b1", "b2"), body, "x"), fig_d)


def test_subst_comp_capture_avoided():
    # body's free ID collides with a host binder
    t = parse_term("fork(b. x(b), stop)")
    body = Var("y", (tidset("b", "c"),))  # c bound by the substitution, b ambient
    result = subst_comp(t, ("c",), body, "x")
    assert isinstance(result, Fork)
    assert result.binder != "b"
    assert result.parent == Var("y", (frozenset({"b", result.binder}),))


def test_subst_comp_is_simultaneous():
    # exchanging the two slots: substituting one after the other would give y(a, a)
    t = Var("x", (tidset("b"), tidset("a")))
    body = Var("y", (tidset("a"), tidset("b")))
    assert subst_comp(t, ("a", "b"), body, "x") == Var("y", (tidset("b"), tidset("a")))


def test_substitution_stops_at_a_binder_that_shadows_its_target():
    # the parent's a is the fork's own; only the child's a is free
    t = parse_term("fork(a. x(a), wait(a, stop))")
    result = subst_param(t, tidset("c"), "a")
    assert alpha_eq(result, parse_term("fork(a. x(a), wait(c, stop))"))
    assert free_params(result) == {"c"}
    # a host binder named like the body's slot binds nothing in the body
    host = parse_term("fork(a. x(a), x(b))")
    body = parse_term("wait(a, act[s])")
    expected = parse_term("fork(a. wait(a, act[s]), wait(b, act[s]))")
    assert alpha_eq(subst_comp(host, ("a",), body, "x"), expected)


def test_contexts_and_substitution_refuse_malformed_input():
    with pytest.raises(TermError, match=r"^duplicate computation variables: \['x', 'x'\]$"):
        CompContext((("x", 0), ("x", 1)))
    with pytest.raises(TermError, match="^negative arity$"):
        CompContext((("x", -1),))
    with pytest.raises(UnboundVariable, match="^unbound computation variable: 'y'$"):
        scope_check(parse_term("y"), CompContext((("x", 0),)), ParamContext(()))
    with pytest.raises(ArityMismatch, match="^x applied to 2 arguments, body binds 1$"):
        subst_comp(parse_term("x(a, a)"), ("b",), STOP, "x")
    with pytest.raises(TermError, match=r"^duplicate binders: \('b', 'b'\)$"):
        subst_comp(parse_term("x(a, a)"), ("b", "b"), STOP, "x")


def test_substitutions_preserve_scope():
    gamma = CompContext((("x", 1), ("y", 0)))
    delta = ParamContext(("a", "b"))
    t = parse_term("fork(c. wait(a + c, x(b + c)), y)")
    scope_check(t, gamma, delta)

    s1 = subst_param(t, tidset("b"), "a")
    scope_check(s1, gamma, ParamContext(("b",)))

    s2 = subst_comp(t, ("d",), parse_term("wait(d, act[s])"), "x")
    scope_check(s2, CompContext((("y", 0),)), delta)


def test_subst_param_commutes_with_subst_comp_on_independent_targets():
    rng = random.Random(11)
    gamma = CompContext((("x", 1),))
    delta = ParamContext(("a", "b"))
    body = parse_term("wait(c + b, act[s])")
    for _ in range(50):
        t = _random_term(rng, ["a", "b"], depth=3)
        scope_check(t, gamma, delta)
        # a is not free in body's instantiation inputs; orders must agree
        one = subst_param(subst_comp(t, ("c",), body, "x"), tidset("b"), "a")
        two = subst_comp(subst_param(t, tidset("b"), "a"), ("c",), body, "x")
        assert alpha_eq(one, two)


def _random_term(rng: random.Random, scope: list[str], depth: int):
    choice = rng.random()
    if depth == 0 or choice < 0.2:
        return rng.choice([STOP, Act("s"), Var("x", (_rand_guard(rng, scope),))])
    if choice < 0.5:
        binder = f"t{rng.randrange(1000)}"
        return Fork(
            binder,
            _random_term(rng, scope + [binder], depth - 1),
            _random_term(rng, scope, depth - 1),
        )
    if choice < 0.8:
        return Wait(_rand_guard(rng, scope), _random_term(rng, scope, depth - 1))
    return Var("x", (_rand_guard(rng, scope),))


def _rand_guard(rng: random.Random, scope: list[str]) -> frozenset[str]:
    return frozenset(n for n in scope if rng.random() < 0.4)


def test_axiom_schemas_shape():
    axioms = axiom_schemas()
    assert [a.name for a in axioms] == [
        "W-UNIT", "W-ACC", "W-CLOSE", "FW-COMM",
        "F-COMM", "F-ASSOC", "F-UNIT-L", "F-UNIT-R",
    ]
    for a in axioms:
        scope_check(a.lhs, a.gamma, a.delta)
        scope_check(a.rhs, a.gamma, a.delta)

    by_name = {a.name: a for a in axioms}
    assert by_name["W-UNIT"].lhs == Wait(frozenset(), Var("x"))
    assert by_name["W-UNIT"].rhs == Var("x")
    assert alpha_eq(
        by_name["F-ASSOC"].lhs,
        parse_term("fork(a. x(a), fork(b. y(b), z))"),
    )
    assert alpha_eq(
        by_name["F-ASSOC"].rhs,
        parse_term("fork(b. fork(a. x(a), y(b)), z)"),
    )
    assert alpha_eq(
        by_name["F-UNIT-R"].lhs,
        parse_term("fork(a. x(a), wait(b, stop))"),
    )
    assert by_name["F-UNIT-R"].rhs == Var("x", (tidset("b"),))


def test_derived_node_expansion():
    t = derived_node("s", tidset("a"), "b", Var("x", (tidset("b"),)))
    assert t == parse_term("fork(b. x(b), wait(a, act[s]))")
    t0 = derived_node("s", frozenset(), "b", STOP)
    assert t0 == parse_term("fork(b. stop, wait(0, act[s]))")


def test_derived_node_nested_scopes():
    nested = parse_term("node[s](a1 + a2, b1. node[t](a1, b2. x(b2, b1)))")
    expected = Fork(
        "b1",
        Fork("b2", Var("x", (tidset("b2"), tidset("b1"))), Wait(tidset("a1"), Act("t"))),
        Wait(tidset("a1", "a2"), Act("s")),
    )
    assert nested == expected
    scope_check(nested, CompContext((("x", 2),)), ParamContext(("a1", "a2")))


def test_parse_print_round_trip():
    sources = [
        "stop",
        "act[s1]",
        "x",
        "x(a + b, 0)",
        "fork(a. wait(a, act[s2]), act[s1])",
        "wait(0, stop)",
        "fork(b1. fork(b2. wait(a1 + b1 + b2, stop), wait(a1 + b1, x(a1 + a2 + b1))), wait(a1, act[s1]))",
    ]
    for src in sources:
        t = parse_term(src)
        assert print_term(t) == src
        assert parse_term(print_term(t)) == t


def test_parse_print_term_file_round_trip():
    text = "vars x:1, y:0;\ntids a, b;\nfork(c. x(a + c), y)\n"
    gamma, delta, term = parse_term_file(text)
    assert print_term_file(gamma, delta, term) == text
    assert gamma == CompContext((("x", 1), ("y", 0)))
    assert delta == ParamContext(("a", "b"))
    assert free_params(term) == {"a"}


@pytest.mark.parametrize("gamma, delta, term, refused", [
    # a label the lexer reads as another label, or not as one
    ((), (), Act(" s"), "the label ' s'"),
    ((), (), Act("s "), "the label 's '"),
    ((), (), Act("s]t"), "the label 's]t'"),
    ((), (), Act("  "), "the label '  '"),
    ((), (), Act(""), "the label ''"),
    # a keyword, 0, or text that is not one name token, wherever a name goes
    ((), (), Fork("act", STOP, STOP), "the name 'act'"),
    ((), (), Fork("a b", STOP, STOP), "the name 'a b'"),
    ((), (), Var("node", ()), "the name 'node'"),
    ((), (), Var("0", ()), "the name '0'"),
    ((), (), Var("x", (tidset("a-b"),)), "the name 'a-b'"),
    ((), (), Wait(tidset("a", "0"), STOP), "the name '0'"),
    ((), (), Wait(tidset("tids"), STOP), "the name 'tids'"),
    ((("vars", 0),), (), STOP, "the name 'vars'"),
    ((), ("a;",), STOP, "the name 'a;'"),
])
def test_the_printer_refuses_what_no_text_parses_as(gamma, delta, term, refused):
    if not gamma and not delta:
        with pytest.raises(TypeError, match=f"^no text parses as {refused}$"):
            print_term(term)
    with pytest.raises(TypeError, match=f"^no text parses as {refused}$"):
        print_term_file(CompContext(gamma), ParamContext(delta), term)


def test_term_files_read_back_as_printed():
    rng = random.Random(40)
    for _ in range(300):
        names = ("x", "y", "z")[: rng.randint(0, 3)]
        gamma = CompContext(tuple((n, rng.randint(0, 2)) for n in names))
        delta = ParamContext(("a", "$b", "c'")[: rng.randint(0, 3)])
        term = random_term(rng, gamma, delta, rng.randint(1, 12))
        assert parse_term_file(print_term_file(gamma, delta, term)) == (gamma, delta, term)
    for axiom in axiom_schemas():
        for term in (axiom.lhs, axiom.rhs):
            text = print_term_file(axiom.gamma, axiom.delta, term)
            assert parse_term_file(text) == (axiom.gamma, axiom.delta, term), axiom.name


def test_name_walks_handle_deep_fork_chains():
    # each fork binds its name in its parent, where the chain goes on, so
    # the hole at the bottom sees every name but ``z`` bound
    depth = 2_000
    term = Var("x", (tidset("b0", f"b{depth - 1}", "z"),))
    for i in range(depth):
        term = Fork(f"b{i}", term, Act(f"s{i}"))
    assert free_params(term) == {"z"}
    # beside the chain, a name it binds is free again
    assert free_params(Fork("c", term, Wait(tidset("b7"), STOP))) == {"z", "b7"}
    assert comp_vars(term) == {"x"}
    assert binders_of(term) == {f"b{i}" for i in range(depth)}
    assert act_labels(term) == {f"s{i}" for i in range(depth)}


def test_one_name_rule_for_binders_headers_and_guards():
    for text in ["fork(+. stop, stop)", "tids [a]; stop", "wait(fork, stop)",
                 "vars 0:1; stop", "node[s](0, tids. stop)", "0", "=>"]:
        with pytest.raises(TermError):
            parse_term_file(text)
    t = parse_term("fork($a. wait($a + 'b, stop), stop)")
    assert t == Fork("$a", Wait(tidset("$a", "'b"), STOP), STOP)


@pytest.mark.parametrize("text", [
    "wait(a b, stop)",
    "wait(a +, stop)",
    "x(a,)",
    "wait(a + (b, stop)",
    "wait([x], stop)",
    "wait((a + b, stop)",
    "wait(a + b)) , stop)",
    "wait(, stop)",
    "wait(a",
    "fork(a b. stop, stop)",
    "node[s](a, . stop)",
    "tids a, a; stop",
    "vars x; stop",
    "stop stop",
    "",
])
def test_malformed_term_files_raise_term_error(text):
    with pytest.raises(TermError):
        parse_term_file(text)


@pytest.mark.parametrize("text, message", [
    ("vars x:1; vars y:0; y", "1:11: repeated vars header"),
    ("tids a; tids b; stop", "1:9: repeated tids header"),
    ("tids a; vars x:0; tids b; x", "1:19: repeated tids header"),
    ("vars x:1, x:0; stop", "1:11: duplicate vars entry 'x'"),
    ("tids a, b, a; stop", "1:12: duplicate tids entry 'a'"),
])
def test_each_header_comes_once_and_names_each_entry_once(text, message):
    with pytest.raises(TermError) as exc:
        parse_term_file(text)
    assert str(exc.value) == message
    # in any order, each header once
    gamma, delta, term = parse_term_file("tids b, a; vars y:0, x:1; y")
    assert gamma == CompContext((("y", 0), ("x", 1)))
    assert (delta, term) == (ParamContext(("b", "a")), Var("y"))


@pytest.mark.parametrize("text, message", [
    ("stop #", "cannot read '#'"),
    ("vars x:y; stop", "expected arity after x:, got 'y'"),
    ("tids a b; stop", "expected ',' or ';'"),
    ("fork(a. vars, stop)", "unexpected token 'vars'"),
    ("x(a b)", "expected ',' or ')' in argument list, got 'b'"),
    ("act x", "expected [label], got 'x'"),
    ("act[ ]", "empty action label"),
    # a 0-ary call is written ``x``
    ("vars x:0; x()", "expected a name, got ')'"),
])
def test_term_file_parse_errors_name_what_went_wrong(text, message):
    # each error opens with the line:col of the token it was found at
    at = {
        "stop #": "1:6", "vars x:y; stop": "1:8", "tids a b; stop": "1:8",
        "fork(a. vars, stop)": "1:9", "x(a b)": "1:5", "act x": "1:5", "act[ ]": "1:4",
        "vars x:0; x()": "1:13",
    }
    with pytest.raises(TermError) as exc:
        parse_term_file(text)
    assert str(exc.value) == f"{at[text]}: {message}"
