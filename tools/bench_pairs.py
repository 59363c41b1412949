"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/bench_pairs.py --workload long-programs --seed 41 --pairs 10 --out BENCH.json
    python3 tools/bench_pairs.py --workload all --base HEAD~1 --seed 43 --pairs 10 --out BENCH.json

Exports ``--base`` (default ``HEAD``) with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py --workload W --seed S --trace X`` of each
checkout, one after another, ``--pairs`` times; the side that runs first
alternates from pair to pair.  Each checkout runs its own ``perfbench/run.py``
on its own sources, for that benchmark's own run length.  For every metric it prints the
median and quartiles of each side and how many pairs the working tree won,
lost and tied, and it writes all runs and that summary to ``--out`` as JSON.

A metric's direction and bound come from ``BENCHMARK.json``.  The summary
calls a metric

* ``gain`` when the working tree wins at least 9 of 10 pairs and the medians
  differ, in the better direction, by more than the base's interquartile
  range;
* ``worse`` when the working tree's median is worse than the base's by more
  than the bound, taken as a fraction of the base's median;
* ``unresolved`` when the base's own interquartile range is wider than the
  bound and not every run of the working tree beats every run of the base;
* ``within bound`` otherwise.

Per-layer metrics (``--trace 1``) have a direction but no bound, so they are
only ever ``gain`` or ``-``.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus-gate", "long-programs", "theory-eq")
GAIN_SHARE = 0.9


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` of the repository into ``dest``; return its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its metric values by name."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} verdicts failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str, bound) -> dict:
    sign = -1 if better == "lower" else 1  # sign * value grows as it gets better
    wins = sum(sign * c > sign * b for b, c in zip(base, change))
    losses = sum(sign * c < sign * b for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    gain = wins >= GAIN_SHARE * len(base) and sign * (cmed - bmed) > iqr
    if gain:
        status = "gain"
    elif bound is None:
        status = "-"
    elif sign * (bmed - cmed) > bound * abs(bmed):
        status = "worse"
    elif iqr > bound * abs(bmed) and min(sign * c for c in change) <= max(sign * b for b in base):
        status = "unresolved"
    else:
        status = "within bound"
    return {
        "base": {"runs": base, "median": bmed, "q1": bq1, "q3": bq3},
        "change": {"runs": change, "median": cmed, "q1": cq1, "q3": cq3},
        "better": better, "bound": bound,
        "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
        "status": status,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    directions.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    report = {"base": args.base, "seed": args.seed, "pairs": args.pairs,
              "trace": args.trace, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        report["base_commit"] = export(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs: dict = {"base": [], "change": []}
            order = []
            for k in range(args.pairs):
                first = ("base", "change") if k % 2 == 0 else ("change", "base")
                order.append(first[0])
                for side in first:
                    runs[side].append(bench(sides[side], workload, args.seed, args.trace))
                print(f"{workload}: pair {k + 1}/{args.pairs} done", file=sys.stderr)
            metrics = {}
            print(f"== {workload}, seed {args.seed}, {args.pairs} pairs, "
                  f"base {args.base} ({report['base_commit'][:10]}) -> working tree")
            for name in runs["base"][0]:
                if name not in directions:
                    continue
                better, bound = directions[name]
                s = summarize([r[name] for r in runs["base"]],
                              [r[name] for r in runs["change"]], better, bound)
                metrics[name] = s
                b, c = s["base"], s["change"]
                print(f"  {name:32} {b['median']:12.6g} [{b['q1']:.4g}-{b['q3']:.4g}] -> "
                      f"{c['median']:12.6g} [{c['q1']:.4g}-{c['q3']:.4g}]  "
                      f"won {s['wins']}/{args.pairs} lost {s['losses']}  {s['status']}")
            report["workloads"][workload] = {"first": order, "metrics": metrics}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
