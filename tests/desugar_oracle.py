"""The two-pass desugarer, kept as the oracle of :func:`dynthreads.lang.desugar`.

Each sugar expansion (``print``, ``node``, ``parallel``, ``series``) is
first built as surface syntax, with ``;``, ``case`` of a computation and
the ``print`` constant in it, and then lowered again by the same walk.  The
desugarer in ``src/`` builds each expansion in core form directly and
draws its fresh names in the same order; the tests check that both print
the same text.
"""

from __future__ import annotations

from typing import Optional

from dynthreads.lang import (
    SUGAR_CONSTS,
    UNIT_V,
    ApplyC,
    CaseC,
    CaseV,
    Comp,
    ConstV,
    LambdaV,
    LetC,
    ProjC,
    Ret,
    SeqC,
    TupleV,
    Value,
    VarV,
    _fresh_namer,
    _parts,
    _rebuild,
    const_signature,
)


def desugar(t: Comp) -> Comp:
    """Lower sequencing, case-of-computation, and the sugar constants to the
    fork/wait/stop/printstop core, expanding each sugar constant to surface
    syntax and lowering that."""
    fresh = _fresh_namer(t)

    def ds(node):
        kind = type(node)
        if kind is SeqC:
            return LetC(fresh("u"), ds(node.first), ds(node.second))
        if kind is CaseC:
            z = fresh("z")
            return LetC(z, ds(node.comp), ds(CaseV(VarV(z), node.branches)))
        if kind is ApplyC and type(node.fn) is ConstV and node.fn.name in SUGAR_CONSTS:
            return expand(node.fn.name, node.fn.action, ds(node.arg))
        if kind is ConstV and node.name in SUGAR_CONSTS:
            z = fresh("f")
            signature = const_signature(node)
            return LambdaV(z, signature.arg, expand(node.name, node.action, VarV(z)))
        kids = []
        for _, kid in _parts(node):
            kids.append(ds(kid))
        return _rebuild(node, kids)

    def call(name: str, arg: Value, action: Optional[str] = None) -> Comp:
        return ApplyC(ConstV(name, action), arg)

    def expand(name: str, action: Optional[str], arg: Value) -> Comp:
        if name == "print":
            # an action that can be followed: fork a thread that merely
            # performs it, then wait for that thread; the child branch is
            # coerced out of the empty type by an empty case
            z, a, u = fresh("z"), fresh("a"), fresh("u")
            return ds(
                LetC(
                    z,
                    call("fork", UNIT_V),
                    CaseV(
                        VarV(z),
                        (
                            (a, call("wait", VarV(a))),
                            (u, CaseC(call("printstop", UNIT_V, action), ())),
                        ),
                    ),
                )
            )
        if name == "node":
            # fork a child that waits on the given IDs then acts; hand the
            # child's ID back to the caller
            z, b, u = fresh("z"), fresh("b"), fresh("u")
            child = SeqC(
                call("wait", arg),
                SeqC(call("print", UNIT_V, action), CaseC(call("stop", UNIT_V), ())),
            )
            return ds(
                LetC(
                    z,
                    call("fork", UNIT_V),
                    CaseV(VarV(z), ((b, Ret(VarV(b))), (u, child))),
                )
            )
        if name in ("parallel", "series"):
            runner1, runner2, wrap = _split_pair(arg, fresh)
            if name == "series":
                z, a, u = fresh("z"), fresh("a"), fresh("u")
                body = LetC(
                    z,
                    call("fork", UNIT_V),
                    CaseV(
                        VarV(z),
                        (
                            (a, SeqC(call("wait", VarV(a)), ApplyC(runner2, UNIT_V))),
                            (u, ApplyC(runner1, UNIT_V)),
                        ),
                    ),
                )
            else:
                z1, z2, a, b, u = (
                    fresh("z"), fresh("z"), fresh("a"), fresh("b"), fresh("u")
                )
                inner = LetC(
                    z2,
                    call("fork", UNIT_V),
                    CaseV(
                        VarV(z2),
                        (
                            (
                                b,
                                SeqC(
                                    call("wait", VarV(a)),
                                    SeqC(call("wait", VarV(b)), call("stop", UNIT_V)),
                                ),
                            ),
                            (u, ApplyC(runner2, UNIT_V)),
                        ),
                    ),
                )
                fresh_u = fresh("u")
                body = LetC(
                    z1,
                    call("fork", UNIT_V),
                    CaseV(VarV(z1), ((a, inner), (fresh_u, ApplyC(runner1, UNIT_V)))),
                )
            return ds(wrap(body))
        raise TypeError(f"not a sugar constant: {name!r}")

    return ds(t)


def _split_pair(arg: Value, fresh) -> tuple[Value, Value, "object"]:
    """Access the two components of a pair argument: literal pairs are used
    directly, anything else goes through projections."""
    if isinstance(arg, TupleV) and len(arg.items) == 2:
        return arg.items[0], arg.items[1], lambda body: body

    f, g = fresh("f"), fresh("g")

    def wrap(body: Comp) -> Comp:
        return LetC(f, ProjC(1, arg), LetC(g, ProjC(2, arg), body))

    return VarV(f), VarV(g), wrap
