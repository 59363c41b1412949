from __future__ import annotations

from typing import get_args

import pytest

from dynthreads import lang
from dynthreads.lang import (
    BOTTOM,
    EMPTY,
    TID,
    UNIT,
    UNIT_V,
    ApplyC,
    Arrow,
    CaseC,
    CaseV,
    Comp,
    ConstV,
    InjV,
    LambdaV,
    LetC,
    NilV,
    ProjC,
    Ret,
    SeqC,
    TidV,
    TupleV,
    UnionV,
    Value,
    VarV,
    LangError,
    ParseError,
    Prod,
    Sum,
    TypeCheckError,
    UnknownTid,
    desugar,
    is_core,
    parse_comp,
    parse_program,
    print_comp,
    print_program,
    print_type,
    returns_no_value,
    subst_value,
    tids_of_value,
    typecheck_comp,
    parse_comp as _pc,
)
from dynthreads.lang import _free, _parts, _rebuild, _value

from corpus import PROGRAMS_DIR, corpus_names
from graph_oracle import check_comp


def typecheck_value(env, world, v):
    """Synthesize the type of a value; raise on failure."""
    return _value(env, world, v, None)


EX21_PROGRAM_1 = (
    "let y = fork() in case y of "
    "{ inj1 x1 => wait(x1); print[s1](); stop() "
    "| inj2 u => print[s2](); stop() }"
)

EX21_PROGRAM_2 = (
    "let y = fork() in case y of "
    "{ inj1 x1 => print[s1](); wait(x1); stop() "
    "| inj2 u => print[s2](); stop() }"
)


def test_ex21_program_typechecks_at_empty_type():
    _, comp = parse_program(EX21_PROGRAM_1)
    assert typecheck_comp({}, frozenset(), comp) == EMPTY
    _, comp2 = parse_program(EX21_PROGRAM_2)
    assert typecheck_comp({}, frozenset(), comp2) == EMPTY


@pytest.mark.parametrize("ty, empty", [
    (EMPTY, True),
    (BOTTOM, True),
    (Prod((BOTTOM, UNIT)), True),
    (Sum((EMPTY, BOTTOM)), True),
    (UNIT, False),
    (TID, False),
    (Sum((EMPTY, UNIT)), False),
    (Arrow(UNIT, EMPTY), False),
])
def test_types_with_no_values(ty, empty):
    assert returns_no_value(ty) is empty


def test_tid_constant_needs_world():
    _, comp = parse_program("world #0.1; wait(#0.1)")
    assert typecheck_comp({}, frozenset({(1,)}), comp) == UNIT
    with pytest.raises(UnknownTid):
        typecheck_comp({}, frozenset(), comp)


def test_typecheck_value_tid_in_world():
    world = frozenset({(1,)})
    assert typecheck_value({}, world, parse_comp("ret #0.1").value) == TID
    assert typecheck_value({}, world, parse_comp("ret nil").value) == TID
    assert typecheck_value({}, world, parse_comp("ret #0.1 (+) nil").value) == TID


def test_parallel_applied_to_runners_has_empty_type():
    comp = parse_comp(
        "parallel(\\u:1. printstop[s1](), \\u:1. printstop[s2]())"
    )
    assert typecheck_comp({}, frozenset(), comp) == EMPTY


def test_constant_signatures():
    assert typecheck_value({}, frozenset(), ConstV("fork")) == Arrow(
        UNIT, Sum((TID, UNIT))
    )
    assert typecheck_value({}, frozenset(), ConstV("wait")) == Arrow(TID, UNIT)
    assert typecheck_value({}, frozenset(), ConstV("stop")) == Arrow(UNIT, EMPTY)
    assert typecheck_value({}, frozenset(), ConstV("printstop", "s")) == Arrow(
        UNIT, EMPTY
    )
    assert typecheck_value({}, frozenset(), ConstV("print", "s")) == Arrow(UNIT, UNIT)


def test_typecheck_weakens_under_world_extension():
    _, comp = parse_program(EX21_PROGRAM_1)
    small = frozenset()
    big = frozenset({(1,), (2, 1)})
    assert typecheck_comp({}, small, comp) == typecheck_comp({}, big, comp)


def test_typecheck_rejects_bad_programs():
    with pytest.raises(TypeCheckError):
        typecheck_comp({}, frozenset(), parse_comp("wait(())"))
    with pytest.raises(TypeCheckError):
        typecheck_comp({}, frozenset(), parse_comp("ret x"))
    with pytest.raises(TypeCheckError):
        typecheck_comp({}, frozenset(), parse_comp("proj2 ((), ())") and parse_comp("proj3 ((), ())"))


_FORKED = "let y = fork() in "
_RUNNER = "\\u:1. stop()"

# each ill-typed program with the error it raises, class and whole message
ILL_TYPED = [
    (
        "branches-disagree",
        _FORKED + "case y of { inj1 x => ret x | inj2 u => ret u }",
        TypeCheckError,
        "case branches do not agree on a single type",
    ),
    (
        "no-branch-synthesizes",
        _FORKED + "case y of { inj1 x => ret inj1 x | inj2 u => ret inj2 u }",
        TypeCheckError,
        "no case branch synthesizes a type: "
        "cannot infer a sum type for an injection here; "
        "cannot infer a sum type for an injection here",
    ),
    (
        "unannotated-injection",
        "ret inj1 ()",
        TypeCheckError,
        "cannot infer a sum type for an injection here",
    ),
    (
        "unannotated-lambda",
        "ret \\x. stop()",
        TypeCheckError,
        "cannot infer the argument type of \\x. ...; annotate it",
    ),
    (
        "lambda-annotation-mismatch",
        f"parallel(\\u:tid. stop(), {_RUNNER})",
        TypeCheckError,
        "lambda annotated tid, expected 1",
    ),
    (
        "tuple-arity",
        f"parallel({_RUNNER}, {_RUNNER}, {_RUNNER})",
        TypeCheckError,
        "tuple of 3 checked against product of 2",
    ),
    (
        "injection-index",
        "(\\x:tid + 1. stop())(inj3 ())",
        TypeCheckError,
        "inj3 into a sum with 2 summands",
    ),
    (
        "injection-into-non-sum",
        "wait(inj1 ())",
        TypeCheckError,
        "inj1 must have a sum type, not tid",
    ),
    (
        "projection-index",
        "proj3 ((), ())",
        TypeCheckError,
        "proj3 of a product with 2 components",
    ),
    (
        "projection-of-non-product",
        "proj1 nil",
        TypeCheckError,
        "proj1 of non-product tid",
    ),
    (
        "apply-non-function",
        _FORKED + "y(())",
        TypeCheckError,
        "applying a non-function of type tid + 1",
    ),
    (
        "case-on-non-sum",
        "case () of { inj1 x => stop() }",
        TypeCheckError,
        "case scrutinee has non-sum type 1",
    ),
    (
        "case-branch-count",
        _FORKED + "case y of { inj1 x => stop() }",
        TypeCheckError,
        "case with 1 branches on a sum of 2",
    ),
    (
        "argument-mismatch",
        "wait(())",
        TypeCheckError,
        "expected tid, found 1",
    ),
    (
        "unknown-tid",
        "wait(#0.1)",
        UnknownTid,
        "thread ID 0.1 not in the world",
    ),
    (
        "unbound-variable",
        "ret x",
        TypeCheckError,
        "unbound variable 'x'",
    ),
]


@pytest.mark.parametrize(
    "src, error, message", [case[1:] for case in ILL_TYPED], ids=[case[0] for case in ILL_TYPED]
)
def test_ill_typed_programs_raise_their_error(src, error, message):
    with pytest.raises(LangError) as exc:
        typecheck_comp({}, frozenset(), parse_comp(src))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_type_error_on_a_unary_sum_names_the_type():
    with pytest.raises(TypeCheckError) as exc:
        typecheck_comp({}, frozenset(), ProjC(1, InjV(1, UNIT_V, Sum((UNIT,)))))
    assert str(exc.value).startswith("proj1 of non-product ")


@pytest.mark.parametrize(
    "ty, text",
    [
        (Sum((UNIT,)), "(1 +)"),
        (Prod((UNIT,)), "(1 *)"),
        (Prod((Sum((TID, UNIT)),)), "((tid + 1) *)"),
        (Arrow(Sum((TID,)), EMPTY), "(tid +) -> 0"),
        (Prod((TID, Arrow(UNIT, Prod((TID,))))), "tid * (1 -> (tid *))"),
    ],
)
def test_unary_sums_and_products_print_as_text_the_parser_rejects(ty, text):
    # type errors name them with a trailing operator, which the parser
    # rejects, so the program printer refuses an annotation that holds one
    assert print_type(ty) == text
    with pytest.raises(ParseError):
        parse_comp(f"ret \\x:{text}. stop()")
    lam = Ret(LambdaV("x", ty, ApplyC(ConstV("stop"), UNIT_V)))
    for term in (lam, SeqC(ApplyC(ConstV("wait"), NilV()), lam)):
        with pytest.raises(TypeError) as raised:
            print_comp(term)
        assert str(raised.value) == f"no text parses as the annotation {text}"


@pytest.mark.parametrize(
    "ty, text",
    [
        (BOTTOM, "<never>"),
        (Arrow(BOTTOM, UNIT), "<never> -> 1"),
        (Prod((TID, Sum((UNIT, BOTTOM)))), "tid * (1 + <never>)"),
    ],
)
def test_the_bottom_marker_prints_as_no_annotation(ty, text):
    # the checker's bottom marker has no source syntax: the parser rejects
    # its text, so the program printer refuses an annotation that holds it
    assert print_type(ty) == text
    with pytest.raises(ParseError):
        parse_comp(f"ret \\x:{text}. stop()")
    lam = Ret(LambdaV("x", ty, ApplyC(ConstV("stop"), UNIT_V)))
    for term in (lam, SeqC(ApplyC(ConstV("wait"), NilV()), lam)):
        with pytest.raises(TypeError) as raised:
            print_comp(term)
        assert str(raised.value) == "no text parses as the annotation <never>"


RESERVED = ("let", "in", "case", "of", "ret", "nil", "fork", "wait", "stop", "printstop",
            "print", "node", "parallel", "series", "proj1", "inj2", "42")


@pytest.mark.parametrize("word", RESERVED)
def test_reserved_words_are_refused_as_binders(word):
    # bound as nil, a child's ID would be lost: wait(nil) reads the empty-ID
    # literal.  Each binder position, as the text before the word and after it
    for before, after in (
        ("let ", " = fork() in stop()"),
        ("ret \\", ". stop()"),
        ("ret \\", ":tid. stop()"),
        ("case fork() of { inj1 ", " => stop() | inj2 u => stop() }"),
    ):
        with pytest.raises(ParseError) as raised:
            parse_comp(before + word + after)
        assert str(raised.value) == f"1:{len(before) + 1}: expected an identifier, got {word!r}"


@pytest.mark.parametrize("word", RESERVED)
def test_the_printer_refuses_reserved_words_as_variables_and_binders(word):
    # ApplyC(VarV("ret"), ()) would print as ret(), which reads as Ret(())
    stop = ApplyC(ConstV("stop"), UNIT_V)
    for term in (
        ApplyC(VarV(word), UNIT_V),
        Ret(LambdaV(word, None, stop)),
        Ret(LambdaV(word, TID, stop)),
        LetC(word, ApplyC(ConstV("fork"), UNIT_V), stop),
        CaseC(ApplyC(ConstV("fork"), UNIT_V), (("u", stop), (word, stop))),
        CaseV(VarV("x"), ((word, stop),)),
    ):
        with pytest.raises(TypeError) as raised:
            print_comp(term)
        assert str(raised.value) == f"no text parses as the identifier {word!r}, a reserved word"


def test_nested_cases_type_check_without_exhausting_the_stack():
    # one stack frame per nesting level
    t = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(500):
        t = CaseV(InjV(1, UNIT_V, Sum((UNIT,))), (("u", t),))
    assert typecheck_comp({}, frozenset(), t) == EMPTY
    check_comp({}, frozenset(), t, EMPTY)


def test_synthesized_case_types_each_branch_once(monkeypatch):
    # a branch that synthesizes is not checked again, so nested cases cost
    # one judgement per computation, not one per pair of levels
    t = ApplyC(ConstV("stop"), UNIT_V)
    for _ in range(50):
        t = CaseV(InjV(1, UNIT_V, Sum((UNIT,))), (("u", t),))
    judged = []
    comp = lang._comp

    def counted(env, world, term, want, memo=None):
        judged.append(term)
        return comp(env, world, term, want, memo)

    monkeypatch.setattr(lang, "_comp", counted)
    assert typecheck_comp({}, frozenset(), t) == EMPTY
    assert len(judged) == 51


def test_typing_memo_entries_hold_only_for_their_variable_types_and_threads(monkeypatch):
    t = desugar(parse_comp("wait(#0.1); let x = fork() in stop()"))
    memo: dict = {}
    check_comp({}, frozenset({(1,)}), t, EMPTY, memo)
    # the two lets; a node with no computation inside is typed again, not
    # looked up
    assert len(memo) == 2
    with pytest.raises(UnknownTid, match="thread ID 0.1 not in the world"):
        check_comp({}, frozenset(), t, EMPTY, memo)
    # entries are keyed on the types of the node's free variables
    let = LetC("y", Ret(VarV("x")), Ret(VarV("y")))
    assert lang._comp({"x": TID}, frozenset(), let, None, memo) == TID
    assert lang._comp({"x": UNIT, "y": TID}, frozenset(), let, None, memo) == UNIT
    # the body names no thread: a lookup in a smaller world is a hit
    judged = []
    comp = lang._comp

    def counted(env, world, term, want, memo=None):
        judged.append(term)
        return comp(env, world, term, want, memo)

    monkeypatch.setattr(lang, "_comp", counted)
    check_comp({}, frozenset(), t.body, EMPTY, memo)
    check_comp({}, frozenset({(1,)}), t, EMPTY, memo)
    assert judged == [t.body, t]


def test_desugar_print_matches_fork_wait_form():
    # the child branch carries the empty-case coercion out of type 0
    core = desugar(parse_comp("print[s]()"))
    assert is_core(core)
    assert print_comp(core) == (
        "let _z1 = fork() in case _z1 of "
        "{ inj1 _a2 => wait(_a2) "
        "| inj2 _u3 => let _z4 = printstop[s]() in case _z4 of {} }"
    )
    assert typecheck_comp({}, frozenset(), core) == UNIT


def test_desugar_series_inlines_literal_pair():
    core = desugar(parse_comp("series(\\u:1. printstop[s1](), \\u:1. printstop[s2]())"))
    assert is_core(core)
    text = print_comp(core)
    assert text.startswith("let _z1 = fork() in case _z1 of { inj1 _a2 => let _u")
    assert "wait(_a2)" in text and "printstop[s2]" in text


def test_desugar_seq_is_let():
    core = desugar(parse_comp("wait(nil); stop()"))
    assert print_comp(core) == "let _u1 = wait(nil) in stop()"


def test_desugared_programs_typecheck_at_surface_type():
    sources = [
        EX21_PROGRAM_1,
        EX21_PROGRAM_2,
        "print[s]()",
        "parallel(\\u:1. printstop[s1](), \\u:1. printstop[s2]())",
        "series(\\u:1. printstop[s1](), \\u:1. printstop[s2]())",
        "let a = node[s1](nil) in wait(a)",
        "case stop() of {}; ret ()",
    ]
    for src in sources:
        comp = parse_comp(src)
        core = desugar(comp)
        assert is_core(core)
        assert typecheck_comp({}, frozenset(), core) == typecheck_comp(
            {}, frozenset(), comp
        )


def test_node_combinator_returns_tid():
    comp = parse_comp("let a = node[s](nil) in let b = node[t](a) in stop()")
    assert typecheck_comp({}, frozenset(), comp) == EMPTY


def test_tids_of_value():
    v = parse_comp("ret #0.1 (+) (#0.2 (+) nil)").value
    assert tids_of_value(v) == {(1,), (2,)}


def test_tids_of_an_open_value_are_refused():
    with pytest.raises(LangError, match=r"^not a closed thread-ID value: VarV\(name='x'\)$"):
        tids_of_value(UnionV(TidV((1,)), VarV("x")))


def test_a_constant_without_a_signature_does_not_type_check():
    with pytest.raises(TypeCheckError, match=r"^unknown constant 'spawn'$"):
        typecheck_comp({}, frozenset(), ApplyC(ConstV("spawn"), UNIT_V))


def test_the_type_checker_refuses_what_is_not_a_node():
    # a computation where a value belongs, and a value where a computation
    # belongs, with or without a typing memo
    for memo in (None, {}):
        with pytest.raises(TypeError, match=r"^not a value: Ret\("):
            check_comp({}, frozenset(), Ret(Ret(UNIT_V)), UNIT, memo)
        with pytest.raises(TypeError, match=r"^not a computation: TupleV\("):
            check_comp({}, frozenset(), LetC("x", UNIT_V, Ret(UNIT_V)), UNIT, memo)


def test_parse_print_round_trip_stability():
    sources = [
        EX21_PROGRAM_1,
        "ret (inj1 #0.1, ())",
        "ret (\\x:tid. wait(x))",
        "let f = ret (\\x:(1 -> 0) * (1 -> 0). parallel(x)) in f((\\u:1. stop(), \\u:1. stop()))",
        "proj1 (nil, ())",
        "case stop() of {}",
        "wait(nil); wait(nil); stop()",
    ]
    for src in sources:
        world, comp = parse_program(src)
        once = print_program(world, comp)
        world2, comp2 = parse_program(once)
        assert print_program(world2, comp2) == once


_WAIT_NIL = ApplyC(ConstV("wait"), NilV())


@pytest.mark.parametrize("node, message", [
    (
        CaseC(SeqC(_WAIT_NIL, Ret(InjV(1, UNIT_V))), (("u", Ret(UNIT_V)),)),
        "no text parses as a CaseC of a SeqC",
    ),
    (SeqC(SeqC(_WAIT_NIL, _WAIT_NIL), _WAIT_NIL), "no text parses as a SeqC of a SeqC"),
    (SeqC(LetC("x", _WAIT_NIL, _WAIT_NIL), _WAIT_NIL), "no text parses as a SeqC of a LetC"),
    (Ret(TupleV((VarV("x"),))), "no text parses as a one-item TupleV"),
    (ApplyC(ConstV("wait"), TupleV((VarV("x"),))), "no text parses as a one-item TupleV"),
    (Ret(TupleV((UNIT_V, TupleV((NilV(),))))), "no text parses as a one-item TupleV"),
])
def test_the_printer_refuses_nodes_the_parser_never_builds(node, message):
    # their text would be rejected by the parser (``case wait(nil); ret
    # inj1 () of ...``) or read back as another tree (``a; b; c`` is
    # ``a; (b; c)``, a let's body takes what follows it, and ``ret (x)``
    # is ``ret x`` and ``wait((x))`` is ``wait(x)``)
    for term in (node, LetC("y", node, _WAIT_NIL)):
        with pytest.raises(TypeError) as raised:
            print_comp(term)
        assert str(raised.value) == message


def test_corpus_programs_print_as_text_that_reads_back_the_same():
    for name in corpus_names():
        world, comp = parse_program((PROGRAMS_DIR / f"{name}.prog").read_text())
        text = print_program(world, comp)
        assert parse_program(text) == (world, comp), name
        assert print_program(*parse_program(text)) == text, name


def test_parse_errors_carry_locations():
    with pytest.raises(ParseError) as exc:
        parse_comp("let x = ret () in\n  case ??")
    assert "2:" in str(exc.value)


@pytest.mark.parametrize("src, message", [
    ("ret", "unexpected end of input"),
    ("let x = ret () on stop()", "1:16: expected 'in', got 'on'"),
    ("world x; stop()", "1:7: expected a tid literal"),
    ("world #0.1 stop()", "1:12: expected ',' or ';'"),
    ("stop() stop()", "1:8: trailing input 'stop'"),
    ("wait(#1.2)", "tid literals are rooted at #0, got '#1.2'"),
    ("printstop x", "1:11: printstop needs an [action] label"),
    ("ret ;", "1:5: expected a value, got ';'"),
    # application is written ``f(v)`` only
    ("wait x", "1:1: a bare value is not a computation; apply it or use ret"),
    (
        "let f = ret (\\x:tid. wait(x)) in f nil",
        "1:34: a bare value is not a computation; apply it or use ret",
    ),
])
def test_parse_errors_name_what_went_wrong(src, message):
    # the two messages above without a line:col are given theirs here
    at = {"ret": "1:4: ", "wait(#1.2)": "1:6: "}.get(src, "")
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert str(exc.value) == at + message


def test_unannotated_lambda_round_trips():
    text = "ret \\x. wait(x)"
    comp = parse_comp(text)
    assert comp == Ret(LambdaV("x", None, ApplyC(ConstV("wait"), VarV("x"))))
    assert print_comp(comp) == text


def test_case_on_a_scrutinee_that_never_returns_types_as_bot():
    comp = parse_comp("case case stop() of {} of { inj1 x => stop() | inj2 y => stop() }")
    assert type(comp) is CaseC and type(comp.comp) is CaseC
    assert typecheck_comp({}, frozenset(), comp) == lang.BOTTOM


def test_lone_case_is_a_parse_error():
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_comp("case")


def test_case_branches_must_be_written_in_order():
    with pytest.raises(ParseError, match=r"1:\d+: expected inj1, got 'inj2'"):
        parse_comp("case y of { inj2 a => wait(a) | inj1 b => stop() }")
    with pytest.raises(ParseError, match=r"1:\d+: expected inj1, got 'inj7'"):
        parse_comp("case y of { inj7 a => stop() }")


def test_world_header_round_trip():
    world, comp = parse_program("world #0.1, #0.2.1;\nwait(#0.1)")
    assert world == {(1,), (2, 1)}
    text = print_program(world, comp)
    assert text == "world #0.1, #0.2.1;\nwait(#0.1)\n"


@pytest.mark.parametrize("src, message", [
    ("world #0.1; world #0.2; stop()", "1:13: repeated world header"),
    ("world #0.1, #0.2, #0.1; stop()", "1:19: duplicate world entry '#0.1'"),
    ("world #0.1, #0.01; stop()", "1:13: duplicate world entry '#0.01'"),
])
def test_a_world_header_comes_once_and_names_each_thread_once(src, message):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert str(exc.value) == message


def test_parsing_keeps_no_stack_frame_per_construct():
    # no timing assertion; deep trees are compared by their text, since
    # record ``==`` recurses
    chain = "".join(f"print[p{k}](); " for k in range(10_000)) + "stop()"
    wide = "".join(f"let x{k} = node[s{k}](nil) in " for k in range(4_096)) + "stop()"
    lambdas = "ret \\x. " * 2_000 + "stop()"
    pairs = "ret " + "(nil, " * 2_000 + "nil" + ")" * 2_000
    cases = "case " * 2_000 + "x" + " of {}" * 2_000
    for text in (chain, wide, lambdas, pairs, cases):
        printed = print_program(*parse_program(text))
        assert printed == text + "\n"
        assert print_program(*parse_program(printed)) == printed


def test_subst_value_stops_at_binders_of_the_same_name():
    def subst(src: str) -> str:
        return print_comp(subst_value(parse_comp(src), "x", NilV()))

    # the bound of a shadowing let is outside its scope; the body is not
    assert subst("let x = wait(x) in wait(x)") == "let x = wait(nil) in wait(x)"
    assert subst("let y = wait(x) in wait(x)") == "let y = wait(nil) in wait(nil)"
    assert subst("case y of { inj1 x => wait(x) | inj2 z => wait(x) }") == (
        "case y of { inj1 x => wait(x) | inj2 z => wait(nil) }"
    )
    assert subst("ret (\\x:tid. wait(x), \\y:tid. wait(x), x)") == (
        "ret (\\x:tid. wait(x), \\y:tid. wait(nil), nil)"
    )
    # a binder inside the scope of a shadowing one, and a free occurrence
    # next to a shadowed one
    assert subst("let y = ret x in let x = wait(y) in let z = wait(x) in wait(x)") == (
        "let y = ret nil in let x = wait(y) in let z = wait(x) in wait(x)"
    )
    assert subst("case inj1 x of { inj1 x => wait(x) | inj2 y => ret \\x:tid. wait(x) }") == (
        "case inj1 nil of { inj1 x => wait(x) | inj2 y => ret \\x:tid. wait(x) }"
    )

    # where x is only bound, or only free under a binder of its own, the
    # term itself comes back
    for src in (
        "let x = wait(y) in wait(x)",
        "case y of { inj1 x => wait(x) | inj2 x => ret \\y:tid. wait(x) }",
        "ret \\x:tid. let y = ret x in wait(x (+) y)",
        "let u = print[s]() in stop()",
    ):
        t = parse_comp(src)
        assert subst_value(t, "x", NilV()) is t, src


def test_free_variables_of_a_deep_chain_need_no_recursion():
    # built directly, without the parser: only the free-variable walk runs
    depth = 5_000
    t = Ret(VarV("x"))
    for i in range(depth):
        # each let waits for the variable of the let around it
        t = LetC(f"y{i}", ApplyC(ConstV("wait"), VarV(f"y{i + 1}")), t)
    assert _free(t) == {"x", f"y{depth}"}
    assert subst_value(t, "y7", NilV()) is t
    shallow = subst_value(t, f"y{depth}", NilV())
    assert shallow.bound == ApplyC(ConstV("wait"), NilV())
    assert shallow.body is t.body
    assert _free(shallow) == {"x"}


_NODE_CLASSES = get_args(Value) + get_args(Comp)

_ONE_OF_EACH = [
    VarV("x"),
    TupleV((VarV("a"), NilV(), TidV((1,)))),
    InjV(2, VarV("a"), UNIT),
    LambdaV("x", TID, Ret(VarV("x"))),
    TidV((1, 2)),
    NilV(),
    UnionV(TidV(()), VarV("t")),
    ConstV("print", "s"),
    Ret(VarV("a")),
    ProjC(2, VarV("p")),
    CaseV(VarV("y"), (("a", Ret(VarV("a"))), ("b", Ret(UNIT_V)))),
    ApplyC(ConstV("wait"), VarV("t")),
    LetC("x", Ret(NilV()), Ret(VarV("x"))),
    SeqC(ApplyC(ConstV("stop"), UNIT_V), Ret(UNIT_V)),
    CaseC(ApplyC(ConstV("fork"), UNIT_V), (("a", Ret(VarV("a"))), ("u", Ret(NilV())))),
]


def _node_fields(node) -> list:
    """Every node held by a field of ``node``, directly, in a tuple or as
    the body of a case branch, in field order."""
    found = []
    for name in type(node).__match_args__:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, tuple):
                item = item[1]
            if isinstance(item, _NODE_CLASSES):
                found.append(item)
    return found


def test_shape_table_lists_and_rebuilds_every_child():
    # a constructor added to Value or Comp needs an instance here, and then
    # an entry in _parts and _rebuild for this test to pass
    assert {type(n) for n in _ONE_OF_EACH} == set(_NODE_CLASSES)
    for node in _ONE_OF_EACH:
        parts = _parts(node)
        kids = [kid for _, kid in parts]
        assert kids == _node_fields(node), node
        assert _rebuild(node, kids) == node
        markers = [VarV(f"k{i}") for i in range(len(kids))]
        rebuilt = _rebuild(node, markers)
        assert type(rebuilt) is type(node)
        assert _parts(rebuilt) == [(var, m) for (var, _), m in zip(parts, markers)]
    binders = {type(n): [var for var, _ in _parts(n)] for n in _ONE_OF_EACH}
    assert binders.pop(LambdaV) == ["x"]
    assert binders.pop(LetC) == [None, "x"]
    assert binders.pop(CaseV) == [None, "a", "b"]
    assert binders.pop(CaseC) == [None, "a", "u"]
    assert all(var is None for names in binders.values() for var in names)
