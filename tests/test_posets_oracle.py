"""Dual-route checks for ``interp``, the isomorphism matcher and
reification.

``interp`` builds each vertex's down-set in one walk over the term.  It is
cross-checked against ``ref_interp`` of ``model_oracle``, which composes
the model operations term by term as the semantics defines it, each
closing its order from scratch through ``make_poset``.  The backtracking
matcher is cross-checked against a brute-force search over all vertex
bijections, directly and through pomset isomorphism; reification is
cross-checked against every admissible reordering of independent
children, and against the reification it replaced, which rescans every
vertex for readiness at each step.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

from dynthreads.denote import denote
from dynthreads.posets import (
    STAR,
    Bnd,
    HoleLabel,
    IllFormed,
    In,
    NfAct,
    NfChild,
    NfVarApp,
    NormalForm,
    Pomset,
    PosetWithHoles,
    Star,
    Vert,
    _nf_ref_str,
    decide_equal,
    interp,
    iso_check,
    nf_to_term,
    poset_to_json,
    print_normal_form,
    reify,
    require_well_formed,
)
from dynthreads.terms import Act, CompContext, Fork, Stop, Wait, axiom_schemas
from dynthreads.tids import ParamContext

from corpus import corpus_names, load_surface
from genutil import random_term, random_well_formed_poset
from model_oracle import below, raw_poset, ref_interp
from pair_oracle import _close_pairs, visibility_relation

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import theory_eq  # noqa: E402


# --- interp against the composition of the model operations ----------------------

def _is_closed(p: PosetWithHoles) -> bool:
    return p.order == _close_pairs(set(p.order))


def _assert_interp_agrees(term, gamma: CompContext, delta: ParamContext) -> None:
    fast = interp(term, gamma, delta)
    assert _is_closed(fast)
    slow = ref_interp(term, delta)
    assert fast == slow, term
    assert poset_to_json(fast) == poset_to_json(slow), term


def test_interp_matches_closing_after_every_operation():
    rng = random.Random(36)
    variables = (("x", 1), ("y", 2), ("z", 0))
    for _ in range(2000):
        gamma = CompContext(tuple(rng.sample(variables, rng.randint(0, 3))))
        n = rng.randint(0, 3)
        delta = ParamContext(tuple(f"a{i}" for i in range(1, n + 1)))
        _assert_interp_agrees(random_term(rng, gamma, delta, rng.randint(1, 30)), gamma, delta)


def test_interp_matches_the_composition_on_benchmark_terms():
    # the term-layer benchmark's terms, and the terms of their normal forms
    rng = random.Random(37)
    for size in theory_eq.TERM_SIZES * 8:
        term = theory_eq.random_term(rng, size)
        _assert_interp_agrees(term, theory_eq.GAMMA, theory_eq.DELTA)
        nf = reify(interp(term, theory_eq.GAMMA, theory_eq.DELTA))
        gamma, delta, nf_term = nf_to_term(nf, theory_eq.DELTA.names)
        _assert_interp_agrees(nf_term, gamma, delta)


def test_interp_numbers_shared_subterms_once_per_occurrence():
    # one subterm object under both the parent and the child of a fork, and
    # under every fork of a chain: each occurrence gets vertices of its own
    rng = random.Random(38)
    gamma = CompContext((("x", 1), ("y", 2)))
    delta = ParamContext(("a", "b"))
    for _ in range(150):
        shared = random_term(rng, gamma, delta, rng.randint(1, 12))
        term = shared
        for k in range(1, rng.randint(2, 5)):
            guard = frozenset({f"s{k}"}) if rng.random() < 0.5 else frozenset()
            term = Fork(f"s{k}", Wait(guard, term), shared)
        _assert_interp_agrees(term, gamma, delta)


def test_interp_matches_the_composition_on_axiom_instances():
    for axiom in axiom_schemas():
        for extra in (0, 2):
            delta = ParamContext(
                tuple(f"n{i}" for i in range(1, extra + 1)) + axiom.delta.names
            )
            _assert_interp_agrees(axiom.lhs, axiom.gamma, delta)
            _assert_interp_agrees(axiom.rhs, axiom.gamma, delta)


def test_interp_matches_the_composition_on_corpus_denotations():
    for name in corpus_names():
        d = denote(load_surface(name))
        _assert_interp_agrees(d.term, d.gamma, d.delta)


def brute_force_iso(p: PosetWithHoles, q: PosetWithHoles) -> bool:
    """Try every bijection on vertices; inputs and star stay fixed."""
    if p.n_inputs != q.n_inputs:
        return False
    p_actions = sorted(p.action_map)
    q_actions = sorted(q.action_map)
    p_holes = sorted(p.hole_map)
    q_holes = sorted(q.hole_map)
    if len(p_actions) != len(q_actions) or len(p_holes) != len(q_holes):
        return False

    def translate(e, mapping):
        return Vert(mapping[e.vid]) if isinstance(e, Vert) else e

    for act_perm in itertools.permutations(q_actions):
        for hole_perm in itertools.permutations(q_holes):
            mapping = dict(zip(p_actions, act_perm))
            mapping.update(zip(p_holes, hole_perm))
            if any(p.action_map[v] != q.action_map[mapping[v]] for v in p_actions):
                continue
            image = {
                (translate(d, mapping), translate(e, mapping)) for d, e in p.order
            }
            if image != set(q.order):
                continue
            ok = True
            for v in p_holes:
                mine = p.hole_map[v]
                theirs = q.hole_map[mapping[v]]
                if (mine.var, mine.arity) != (theirs.var, theirs.arity):
                    ok = False
                    break
                for slot, oslot in zip(mine.visibility, theirs.visibility):
                    if {translate(e, mapping) for e in slot} != set(oslot):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def _shuffle_ids(p: PosetWithHoles, rng: random.Random) -> PosetWithHoles:
    ids = sorted(p.vertex_ids)
    new_ids = rng.sample(range(100, 100 + 3 * len(ids) + 1), len(ids))
    mapping = dict(zip(ids, new_ids))

    def move(e):
        return Vert(mapping[e.vid]) if isinstance(e, Vert) else e

    actions = {mapping[v]: l for v, l in p.actions}
    holes = {
        mapping[v]: HoleLabel(
            h.var, h.arity, tuple(frozenset(move(e) for e in slot) for slot in h.visibility)
        )
        for v, h in p.holes
    }
    order = {(move(d), move(e)) for d, e in p.order}
    return raw_poset(p.n_inputs, actions, holes, order)


def test_iso_check_agrees_with_brute_force_on_shuffles():
    rng = random.Random(31)
    for _ in range(60):
        p = random_well_formed_poset(rng, max_vertices=5)
        q = _shuffle_ids(p, rng)
        assert iso_check(p, q) is not None
        assert brute_force_iso(p, q)


def test_iso_check_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(32)
    agree_positive = 0
    for _ in range(120):
        p = random_well_formed_poset(rng, max_vertices=4)
        q = random_well_formed_poset(rng, max_vertices=4)
        fast = iso_check(p, q) is not None
        slow = brute_force_iso(p, q)
        assert fast == slow
        agree_positive += fast
    # the generator should produce at least a few coincidences
    assert agree_positive >= 1


def _is_pomset_iso(p: Pomset, q: Pomset, mapping: dict) -> bool:
    """A bijection of elements that keeps labels and maps the order of
    ``p`` exactly onto the order of ``q``."""
    return (
        sorted(mapping) == sorted(p.element_ids)
        and sorted(mapping.values()) == sorted(q.element_ids)
        and all(p.label_map[e] == q.label_map[f] for e, f in mapping.items())
        and {(mapping[a], mapping[b]) for a, b in p.order} == set(q.order)
    )


def brute_force_pomset_iso(p: Pomset, q: Pomset) -> bool:
    """Try every bijection of elements."""
    mine, theirs = sorted(p.element_ids), sorted(q.element_ids)
    if len(mine) != len(theirs):
        return False
    return any(
        _is_pomset_iso(p, q, dict(zip(mine, perm)))
        for perm in itertools.permutations(theirs)
    )


def _random_pomset(rng: random.Random, names: list[str]) -> Pomset:
    # ids drawn at random, so sorted id order is not the order of generation;
    # two labels, so that many elements look alike
    ids = rng.sample(names, rng.randint(0, 6))
    order = {
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if rng.random() < 0.3
    }
    return Pomset.of({e: rng.choice("ab") for e in ids}, order)


def _renamed(p: Pomset, rng: random.Random, names: list[str]) -> Pomset:
    new = dict(zip(sorted(p.element_ids), rng.sample(names, len(p.element_ids))))
    return Pomset.of(
        {new[e]: label for e, label in p.labels},
        {(new[a], new[b]) for a, b in p.order},
    )


def test_pomset_iso_agrees_with_brute_force():
    rng = random.Random(34)
    names = [f"e{k}" for k in range(12)]
    outcomes = set()
    for trial in range(400):
        shuffled = trial % 2 == 0
        p = _random_pomset(rng, names)
        q = _renamed(p, rng, names) if shuffled else _random_pomset(rng, names)
        witness = p.iso_to(q)
        assert (witness is not None) == brute_force_pomset_iso(p, q), (p, q)
        if witness is not None:
            assert _is_pomset_iso(p, q, witness), (p, q, witness)
        outcomes.add((shuffled, witness is not None))
    # shuffled copies always match; unrelated pairs both match and miss
    assert outcomes == {(True, True), (False, True), (False, False)}


def _admissible_orders(nf: NormalForm):
    """All reorderings of children compatible with their binder references."""
    k = len(nf.children)
    refs = []
    for child in nf.children:
        used = {e.index for e in child.guard if isinstance(e, Bnd)}
        if isinstance(child.body, NfVarApp):
            for arg in child.body.args:
                used |= {e.index for e in arg if isinstance(e, Bnd)}
        refs.append(used)
    for perm in itertools.permutations(range(k)):
        position = {old: new for new, old in enumerate(perm)}
        if all(position[r - 1] < position[old] for old in range(k) for r in refs[old]):
            yield perm


def _reorder(nf: NormalForm, perm) -> NormalForm:
    position = {old: new for new, old in enumerate(perm)}

    def retoken(refs):
        out = set()
        for e in refs:
            out.add(Bnd(position[e.index - 1] + 1) if isinstance(e, Bnd) else e)
        return frozenset(out)

    children = []
    for old in perm:
        child = nf.children[old]
        body = child.body
        if isinstance(body, NfVarApp):
            body = NfVarApp(body.var, tuple(retoken(a) for a in body.args))
        children.append(NfChild(retoken(child.guard), body))
    return NormalForm(nf.n_inputs, tuple(children), retoken(nf.final_guard))


def test_reify_result_stable_under_independent_reordering():
    rng = random.Random(33)
    gamma = CompContext((("x", 1), ("y", 2), ("z", 0)))
    checked = 0
    for _ in range(40):
        p = random_well_formed_poset(rng, max_vertices=4)
        nf = reify(p)
        names = tuple(f"a{i}" for i in range(1, nf.n_inputs + 1))
        base_g, base_d, base_term = nf_to_term(nf, names)
        for perm in _admissible_orders(nf):
            other = _reorder(nf, perm)
            assert other.check_closure() is None
            g2, d2, term2 = nf_to_term(other, names)
            merged = CompContext(
                tuple(sorted(set(base_g.entries) | set(g2.entries)))
            )
            assert decide_equal(base_term, term2, merged, base_d).equal
            checked += 1
    assert checked >= 40


# --- reification against the quadratic reference ---------------------------------

def reference_reify(p: PosetWithHoles) -> NormalForm:
    """The reification ``reify`` replaced: at every step it rescans the
    remaining vertices for readiness and takes the least ready one under a
    key recomputed for each."""
    require_well_formed(p)
    vertex_refs = {Vert(v) for v in p.vertex_ids}
    combined = p.order | visibility_relation(p)
    preds = {
        v: {d for (d, e) in combined if e == v and isinstance(d, Vert) and d != v}
        for v in vertex_refs
    }
    index = {}

    def translate(refs):
        return frozenset(e if isinstance(e, In) else Bnd(index[e]) for e in refs)

    def guard_of(v):
        return translate(d for d in below(p, v) if not isinstance(d, Star))

    def sort_key(v):
        if v.vid in p.action_map:
            head = (0, p.action_map[v.vid], 0)
        else:
            label = p.hole_map[v.vid]
            head = (1, label.var, label.arity)
        return (head, sorted(map(_nf_ref_str, guard_of(v))), v.vid)

    children = []
    remaining = set(vertex_refs)
    emitted = set()
    while remaining:
        ready = [v for v in remaining if preds[v] <= emitted]
        if not ready:
            raise IllFormed("cannot linearize: visibility and order form a cycle")
        v = min(ready, key=sort_key)
        remaining.discard(v)
        emitted.add(v)
        index[v] = len(children) + 1
        if v.vid in p.action_map:
            body = NfAct(p.action_map[v.vid])
        else:
            label = p.hole_map[v.vid]
            body = NfVarApp(label.var, tuple(translate(slot - {v}) for slot in label.visibility))
        children.append(NfChild(guard_of(v), body))
    nf = NormalForm(p.n_inputs, tuple(children), translate(below(p, STAR)))
    bad = nf.check_closure()
    if bad:
        raise IllFormed(f"reified normal form breaks closure: {bad}")
    return nf


def _assert_reify_agrees(p: PosetWithHoles) -> None:
    nf = reify(p)
    assert nf == reference_reify(p)
    assert print_normal_form(nf) == print_normal_form(reference_reify(p))
    assert nf_to_term(nf) == nf_to_term(reference_reify(p))


def test_reify_matches_the_reference():
    for axiom in axiom_schemas():
        for extra in (0, 2):
            delta = ParamContext(
                tuple(f"n{i}" for i in range(1, extra + 1)) + axiom.delta.names
            )
            _assert_reify_agrees(interp(axiom.lhs, axiom.gamma, delta))
            _assert_reify_agrees(interp(axiom.rhs, axiom.gamma, delta))
    for name in corpus_names():
        d = denote(load_surface(name))
        _assert_reify_agrees(interp(d.term, d.gamma, d.delta))
    rng = random.Random(39)
    variables = (("x", 1), ("y", 2), ("z", 0))
    for _ in range(1000):
        gamma = CompContext(tuple(rng.sample(variables, rng.randint(0, 3))))
        delta = ParamContext(tuple(f"a{i}" for i in range(1, rng.randint(0, 3) + 1)))
        term = random_term(rng, gamma, delta, rng.randint(1, 30))
        _assert_reify_agrees(interp(term, gamma, delta))
    for size in theory_eq.TERM_SIZES * 4:
        _assert_reify_agrees(interp(theory_eq.random_term(rng, size), theory_eq.GAMMA,
                                    theory_eq.DELTA))
    for _ in range(200):
        _assert_reify_agrees(random_well_formed_poset(rng, max_vertices=6))


def test_reify_matches_the_reference_on_a_wide_fork_chain():
    # independent children, each ready from the start, ordered by label and
    # then by guard
    term = Stop()
    for k in range(300):
        guard = frozenset({"a1"}) if k % 3 == 0 else frozenset()
        term = Fork(f"b{k}", term, Wait(guard, Act(f"s{k % 7}")))
    _assert_reify_agrees(interp(term, CompContext(()), ParamContext(("a1",))))
