"""Benchmark of the dynthreads workbench.

    python3 perfbench/run.py --workload corpus-gate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see README.md and each module's docstring): ``corpus-gate``
(explore, confluence, preservation and adequacy over ``programs/``),
``long-programs`` (long generated programs, one seeded schedule each) and
``theory-eq`` (term/poset round trips and equality questions).

Every pass runs in a fresh interpreter (``child.py``), one after another,
with PYTHONHASHSEED fixed, DYNTHREADS_FUEL removed and every budget passed
explicitly, so module-level memo tables start empty and peak memory is per
pass.  With ``--trace 0`` the run first starts SETUP_SAMPLES set-up-only
children, then passes until the next one would end after ``--seconds``
(at least MIN_PASSES), and reports medians over passes.  With ``--trace 1`` it
runs one untraced pass, one traced pass and the limits probe, and reports
the per-layer metrics.  Every verdict is checked against a known answer;
the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-gate", "long-programs", "theory-eq")
SETUP_SAMPLES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
TAIL_SAMPLES = 10
LAYERS = ("bench", "lang", "machine", "posets", "denote")
# per-layer metrics that are summed span durations, by span name
SPAN_METRICS = (
    "lang.parse", "lang.typecheck", "lang.desugar",
    "machine.run", "machine.explore", "machine.state_graph",
    "machine.confluence", "machine.preservation",
    "posets.interp", "posets.reify", "posets.make_poset", "posets.nf_to_term", "posets.iso_check",
    "posets.quick_reject", "posets.decide_equal", "posets.pomset_iso",
    "posets.linearizations", "posets.erase_star",
    "denote.elaborate", "denote.adequacy", "denote.gadgets", "denote.probe",
)
COUNT_METRICS = (
    "machine.run.steps", "machine.explore.states", "machine.explore.traces",
    "machine.confluence.states", "machine.confluence.truncated",
    "machine.preservation.checks", "posets.interp.vertices",
)
LIMIT_METRICS = (
    "lang.limit.parse_program", "lang.limit.desugar",
    "lang.limit.typecheck_comp", "denote.limit.denote_comp", "posets.limit.iso_check",
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DYNTHREADS_FUEL", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(script: str, *args: str) -> tuple[float, dict | None]:
    """Run one child to completion; return its set-up time (process start
    to its READY line) and its JSON result, if it printed one."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{script} {' '.join(args)}: no result within {CHILD_TIMEOUT_S} s")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)}: exited with code {proc.returncode}")
    lines = out.splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def run_child(workload: str, seed: int, mode: str) -> tuple[float, dict | None]:
    return spawn("child.py", str(ROOT), workload, str(seed), mode)


def tail(item_s: list[float], per_pass: int) -> tuple[float, float, int]:
    """The tail of item times: the highest percentile of one pass of
    ``per_pass`` items that leaves TAIL_SAMPLES of them beyond it (at least
    the median), taken by nearest rank over the item times of all passes.
    Returns (percentile, value, samples beyond)."""
    kept = max(per_pass - TAIL_SAMPLES, math.ceil(per_pass / 2))
    ordered = sorted(item_s)
    rank = -(-len(ordered) * kept // per_pass)
    return 100 * kept / per_pass, ordered[rank - 1], len(ordered) - rank


def check_counts(passes: list[dict]) -> None:
    """Work counts of one input set must repeat exactly from pass to pass."""
    clean = [p for p in passes if "fail" not in p["statuses"]]
    for other in clean[1:]:
        first = clean[0]["counts"]
        for key in first.keys() & other["counts"].keys():
            if first[key] != other["counts"][key]:
                raise BenchError(
                    f"{key} differs between passes of one input set: "
                    f"{first[key]} vs {other['counts'][key]}"
                )


def tally(passes: list[dict]) -> tuple[int, int, int]:
    """Attempted, passed and failed items.  A check cut short by its budget
    (status "truncated") is neither a pass nor a failure."""
    statuses = [s for p in passes for s in p["statuses"]]
    return len(statuses), statuses.count("pass"), statuses.count("fail")


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    # the percentile is chosen from one pass, so that it does not depend on
    # how many passes fit in the run; its value is taken over the item times
    # of all passes, because one pass has too few items for a steady tail
    item_s = [s for p in passes for s in p["item_s"]]
    p_tail, tail_s, beyond = tail(item_s, len(passes[0]["item_s"]))
    attempted, passed, _ = tally(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "verdict_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
        "verdict_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "pass_rate": (passed / attempted, "ratio"),
    }
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    note = (
        f"{len(passes)} passes of {len(passes[0]['item_s'])} items (wall_s {walls}), "
        f"{len(setups)} set-ups; "
        f"verdict_tail_ms is p{p_tail:.4g} of {len(item_s)} item times, {beyond} beyond it"
    )
    return metrics, note


def per_layer(plain: dict, traced: dict, limits: dict) -> dict:
    spans = traced["span_s"]
    counts = traced["counts"]
    metrics = {f"{name}_s": (spans.get(name, 0.0), "s") for name in SPAN_METRICS}
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    metrics.update({name: (limits[name], "count") for name in LIMIT_METRICS})
    metrics.update({f"{layer}.self_s": (traced["self_s"].get(layer, 0.0), "s") for layer in LAYERS})

    def rate(count: str, span: str) -> float:
        return counts.get(count, 0) / spans[span] if spans.get(span) else 0.0

    unequal = counts.get("posets.quick_reject.unequal", 0)
    p_tail, _, beyond = tail(plain["item_s"], len(plain["item_s"]))
    metrics.update({
        "machine.run.steps_per_s": (rate("machine.run.steps", "machine.run"), "1/s"),
        "machine.explore.states_per_s": (rate("machine.explore.states", "machine.explore"), "1/s"),
        "posets.quick_reject.share": (
            counts.get("posets.quick_reject.settled", 0) / unequal if unequal else 0.0, "ratio"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"] - traced["split_s"], "s"),
        "trace.split_s": (traced["split_s"], "s"),
        "trace.split_mismatches": (traced["split_mismatches"], "count"),
        "trace.spans": (traced["spans"], "count"),
        "verdict_tail.percentile": (p_tail, "%"),
        "verdict_tail.beyond": (beyond, "count"),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        _, plain = run_child(workload, seed, "pass")
        _, traced = run_child(workload, seed, "traced")
        _, limits = spawn("limits.py")
        passes = [plain, traced]
        metrics = per_layer(plain, traced, limits)
        note = "per-layer metrics of one traced pass; counts checked against one untraced pass"
    else:
        setups = [run_child(workload, seed, "setup")[0] for _ in range(SETUP_SAMPLES)]
        passes = []
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            setup_s, result = run_child(workload, seed, "pass")
            setups.append(setup_s)
            passes.append(result)
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and now - begin + (now - started) > seconds:
                break
        metrics, note = end_to_end(passes, setups)
    check_counts(passes)
    attempted, _, failed = tally(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "note": note,
    }


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['note']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  verdicts: {result['attempted'] - result['failed']}/{result['attempted']} as known"
          f" ({result['failed']} failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynthreads").is_dir() or not (ROOT / "programs").is_dir():
        print(f"no workbench sources under {ROOT}: need src/dynthreads and programs/",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
            report(workload, results[workload])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
