"""Command-line front end.

Subcommands operate on two kinds of files: term files (the algebraic
theory; optional ``vars``/``tids`` headers) and program files (the
concurrent language; optional ``world`` header).

Exit codes: 0 for ok/equal verdicts, 1 for not-equal/mismatch verdicts,
2 for errors (parse, type, usage).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .denote import adequacy_check, denote
from .lang import desugar, parse_program, print_type, returns_no_value, tid_str, typecheck_comp
from .machine import (
    DEFAULT_BUDGET, FINISHED, StepLabel, explore, run, run_result_to_json, state_pieces,
)
from .posets import (
    decide_equal,
    interp,
    normalize,
    poset_to_dot,
    poset_to_json,
    print_normal_form,
    reify,
)
from .terms import parse_term_file, print_term


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _pomset_text(pomset) -> list[str]:
    lines = [f"events: {len(pomset.element_ids)}"]
    for e, l in pomset.labels:
        lines.append(f"  {e}: {l}")
    for a, b in sorted(pomset.order):
        lines.append(f"  {a} < {b}")
    return lines


def cmd_check(args) -> int:
    world, comp = parse_program(_read(args.path))
    surface_ty = typecheck_comp({}, world, comp)
    core = desugar(comp)
    core_ty = typecheck_comp({}, world, core)
    if surface_ty != core_ty:
        print(f"desugaring changed the type: {print_type(surface_ty)} vs {print_type(core_ty)}")
        return 1
    print(f"type: {print_type(surface_ty)}")
    return 0


def cmd_normalize(args) -> int:
    gamma, delta, term = parse_term_file(_read(args.path))
    nf = normalize(term, gamma, delta)
    print(print_normal_form(nf))
    return 0


def cmd_eq(args) -> int:
    gamma1, delta1, term1 = parse_term_file(_read(args.path1))
    gamma2, delta2, term2 = parse_term_file(_read(args.path2))
    if gamma1 != gamma2 or delta1 != delta2:
        raise CliError("the two term files declare different contexts")
    verdict = decide_equal(term1, term2, gamma1, delta1)
    if verdict.equal:
        print("equal")
        return 0
    print("not-equal")
    print(f"evidence: {verdict.evidence}")
    return 1


def _load_closed_program(args):
    """The program of ``args.path``, which must have no world header; it is
    not type checked, since :func:`denote` and :func:`adequacy_check` check
    it."""
    world, comp = parse_program(_read(args.path))
    if world:
        raise CliError(f"{args.command} expects programs in the empty world")
    return comp


def _load_program_for_run(args):
    """The program of ``args.path``, which must be closed and of the empty
    type or another type with no values, as :func:`adequacy_check`
    requires: a run counts only threads that stop as finished, so a root
    that returns would read as a deadlock."""
    comp = _load_closed_program(args)
    ty = typecheck_comp({}, frozenset(), comp)
    if not returns_no_value(ty):
        raise CliError(
            f"{args.command} needs a closed program of the empty type, got {print_type(ty)}"
        )
    return comp


def cmd_run(args) -> int:
    comp = _load_program_for_run(args)
    core = desugar(comp)
    trace: list[str] = []
    on_local = None
    if args.format == "text":
        # each line from the local step: the acting thread's new state is
        # among the entries it writes, so no configuration is built
        def on_local(tid, _ordinal, local):
            trace.append(_trace_line(StepLabel(tid, local.action), dict(local.threads)[tid]))
    result = run(core, args.policy, args.seed, args.fuel, on_local=on_local)
    if args.format == "json":
        print(_json(run_result_to_json(result, args.policy, args.seed)), end="")
    else:
        print("\n".join(trace + ["pomset:"] + _pomset_text(result.pomset)))
    return 0


_TRACE_WIDTH = 60


def _trace_line(label: StepLabel, state) -> str:
    """One step as text: the acting thread, its action (``·`` when silent)
    and the start of its new state, a thread state or ``FINISHED``.

    The state is rendered from its frames and focus, outermost frame
    first, only up to the cut: pieces of :func:`state_pieces` are read
    until the text is longer than 60 characters, which is then shortened
    to 57 plus ``...``.  The line is the one a full ``print_comp`` of the
    computation the state stands for would give, and no node is built."""
    summary = ""
    for piece in ["finished"] if state == FINISHED else state_pieces(state):
        summary += piece
        if len(summary) > _TRACE_WIDTH:
            summary = summary[: _TRACE_WIDTH - 3] + "..."
            break
    mark = label.action if label.action is not None else "·"
    return f"{tid_str(label.acting)} {mark} -> {summary}"


def _explore_report(core, budget: int, fmt: str) -> int:
    result = explore(core, max_states=budget)
    confluence = result.confluence
    ok = result.all_iso and result.traces_match_linearizations and confluence.ok
    if fmt == "json":
        data = {
            "states": result.states,
            "schedules": sorted(list(t) for t in result.traces),
            "observations_isomorphic": result.all_iso,
            "traces_match_linearizations": result.traces_match_linearizations,
            "confluence": {
                "ok": confluence.ok,
                "states": confluence.states,
                "truncated": confluence.truncated,
                "detail": confluence.detail,
            },
            "pomset": result.observations[0].to_json() if result.observations else None,
        }
        if result.mismatch is not None:
            data["traces_mismatch"] = result.mismatch
        print(_json(data), end="")
    else:
        print(f"states: {result.states}")
        print(f"schedules: {len(result.traces)}")
        for t in sorted(result.traces):
            print("  " + (" ".join(t) if t else "(silent)"))
        print(f"observations pairwise isomorphic: {'yes' if result.all_iso else 'NO'}")
        print(
            "traces match linearizations: "
            f"{'yes' if result.traces_match_linearizations else 'NO'}"
        )
        if result.mismatch is not None:
            print(f"  {result.mismatch}")
        print(f"confluence: {'ok' if confluence.ok else 'VIOLATED'}")
        if result.observations:
            print("pomset:")
            for line in _pomset_text(result.observations[0]):
                print(line)
    return 0 if ok else 1


def cmd_explore(args) -> int:
    comp = _load_program_for_run(args)
    return _explore_report(desugar(comp), args.fuel, args.format)


def cmd_denote(args) -> int:
    comp = _load_closed_program(args)
    d = denote(comp, frozenset())
    if args.format == "json":
        print(_json({"term": print_term(d.term), "poset": poset_to_json(d.poset)}), end="")
    elif args.format == "dot":
        print(poset_to_dot(d.poset), end="")
    else:
        print(f"term: {print_term(d.term)}")
        print(_json(poset_to_json(d.poset)), end="")
    return 0


def cmd_adequacy(args) -> int:
    comp = _load_closed_program(args)
    report = adequacy_check(comp, policy=args.policy, seed=args.seed, fuel=args.fuel)
    data = {
        "program": args.path,
        "policy": args.policy,
        "seed": args.seed,
        "observed": report.observed.to_json(),
        "denoted": report.denoted.to_json(),
        "verdict": "ok" if report.ok else "mismatch",
    }
    if args.format == "json":
        print(_json(data), end="")
    else:
        print(f"adequacy: {data['verdict']} ({args.path}, policy {args.policy})")
    return 0 if report.ok else 1


def cmd_export(args) -> int:
    gamma, delta, term = parse_term_file(_read(args.path))
    poset = interp(term, gamma, delta)
    if args.format == "dot":
        text = poset_to_dot(poset)
    elif args.format == "text":
        text = print_normal_form(reify(poset)) + "\n"
    else:
        text = _json(poset_to_json(poset))
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynthreads",
        description="Workbench for the algebraic theory of dynamic threads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, "typecheck a program file")
    p.add_argument("path")

    p = add("normalize", cmd_normalize, "normal form of a term file")
    p.add_argument("path")

    p = add("eq", cmd_eq, "decide equality of two term files (shared context)")
    p.add_argument("path1")
    p.add_argument("path2")

    p = add("run", cmd_run, "run a program and print trace and pomset")
    p.add_argument("path")
    p.add_argument("--policy", choices=["lowest-tid", "random"], default="lowest-tid")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fuel", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("explore", cmd_explore, "explore all schedules of a program")
    p.add_argument("path")
    p.add_argument("--fuel", type=int, default=DEFAULT_BUDGET, help="state budget")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("denote", cmd_denote, "denotation of a program as a labelled poset")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p = add("adequacy", cmd_adequacy, "compare a run's pomset with the denotation")
    p.add_argument("path")
    p.add_argument("--policy", choices=["lowest-tid", "random"], default="lowest-tid")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fuel", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("export", cmd_export, "export a term file's poset")
    p.add_argument("path")
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "fuel", 1) < 1:
            raise CliError(f"--fuel must be at least 1, got {args.fuel}")
        if getattr(args, "policy", None) == "random" and args.seed is None:
            raise CliError("--policy random requires --seed")
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - uniform error exit for the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
