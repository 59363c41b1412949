"""The record contract (``dynthreads.record``) that every syntax node, type,
context and result relies on, and the start-up it buys."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dynthreads.lang import TID, ConstV, InjV, Prod, Ret, Sum, VarV
from dynthreads.machine import run
from dynthreads.posets import HoleLabel, PosetError, interp
from dynthreads.terms import STOP, Fork, Wait, parse_term_file
from dynthreads.tids import ParamContext, TidError

from corpus import load_core

SRC = Path(__file__).resolve().parent.parent / "src"


def test_equality_is_per_class():
    assert Prod((TID,)) != Sum((TID,))
    assert Ret(VarV("x")) != VarV(VarV("x"))
    assert Ret(VarV("x")) == Ret(VarV("x"))
    assert hash(Ret(VarV("x"))) == hash(Ret(VarV("x")))


def test_hash_is_the_hash_of_the_field_values():
    # the same value as a tuple of the fields, so sets of records iterate in
    # the order they always have
    assert hash(InjV(1, VarV("v"))) == hash((1, VarV("v"), None))
    assert hash(Prod(())) == hash(((),))
    assert hash(TID) == hash(())


def test_hash_cache_is_not_a_field():
    a, b = Ret(VarV("x")), Ret(VarV("x"))
    hash(a)
    assert "_hash" in a.__dict__ and "_hash" not in b.__dict__
    assert a == b and repr(a) == repr(b)


def test_fields_cannot_be_assigned_or_deleted():
    node = Ret(VarV("x"))
    with pytest.raises(AttributeError):
        node.value = VarV("y")
    with pytest.raises(AttributeError):
        del node.value
    with pytest.raises(AttributeError):
        node.other = 1
    assert node.value == VarV("x")


def test_keyword_construction_and_defaults():
    v = VarV("v")
    assert InjV(1, v).annot is None
    assert InjV(index=1, value=v, annot=TID) == InjV(1, v, TID)
    assert ConstV("print", action="s").action == "s"
    assert ConstV("stop").action is None
    with pytest.raises(TypeError):
        Ret()


def test_post_init_still_validates():
    with pytest.raises(PosetError, match="arity 2"):
        HoleLabel("x", 2, (frozenset(),))
    with pytest.raises(TidError, match="duplicate"):
        ParamContext(("a", "a"))


def test_repr_names_every_field():
    assert repr(Ret(VarV("x"))) == "Ret(value=VarV(name='x'))"
    assert repr(ConstV("stop")) == "ConstV(name='stop', action=None)"
    assert repr(TID) == "TidType()"


def test_class_patterns_match_fields_in_order():
    match InjV(2, VarV("v")):
        case InjV(index, VarV(name), annot):
            assert (index, name, annot) == (2, "v", None)
        case _:
            pytest.fail("no match")
    match Fork("a", Wait(frozenset({"a"}), STOP), STOP):
        case Fork(binder, Wait(guard, _), _):
            assert (binder, guard) == ("a", frozenset({"a"}))
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("copied", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_terms_programs_and_posets_survive_copying(copied):
    gamma, delta, term = parse_term_file("vars x:1; tids a; fork(b. wait(b, x(a+b)), act[s])")
    program = load_core("diamond")
    poset = interp(term, gamma, delta)
    for original in (term, program, poset, gamma, delta, run(program)):
        hash(original)  # copies must not carry the cached hash
        again = copied(original)
        assert type(again) is type(original)
        assert again == original
        assert "_hash" not in again.__dict__
    assert copied(poset).elements == poset.elements


def test_command_line_start_up_loads_no_class_generator():
    # building the records by the standard library's generator took most of
    # a command's start-up; ``-S`` keeps site hooks out of the count
    code = "import sys, dynthreads.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
