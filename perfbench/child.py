"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (build the inputs and exit), ``pass`` (one untraced
pass) or ``traced`` (one pass with spans).  The child prints ``READY``
once its inputs are built, so the parent can time set-up from process
start, and then one JSON line with the pass result.  ``run.py`` starts
it with ``ROOT/src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import SplitMismatch, Tracer, Wrong

MODULES = {
    "corpus-gate": "corpus_gate",
    "long-programs": "long_programs",
    "theory-eq": "theory_eq",
}


def run_pass(module, items, tracer: Tracer | None) -> dict:
    statuses, seconds, counts = [], [], {}
    mismatches = 0
    begin = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            if tracer is None:
                status, item_counts = module.run_item(item, None)
            else:
                with tracer.span("bench.item"):
                    status, item_counts = module.run_item(item, tracer)
        except SplitMismatch as exc:
            mismatches += 1
            status, item_counts = "fail", {}
            print(f"item {index}: {exc}", file=sys.stderr)
        except Wrong as exc:
            status, item_counts = "fail", {}
            print(f"item {index}: wrong verdict: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - an exception is a failed verdict
            status, item_counts = "fail", {}
            print(f"item {index}: raised\n{traceback.format_exc(limit=3)}", file=sys.stderr)
        seconds.append(time.perf_counter() - start)
        statuses.append(status)
        for key, value in item_counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = time.perf_counter() - begin
    result = {
        "wall_s": wall,
        "item_s": seconds,
        "statuses": statuses,
        "counts": counts,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result.update(
            span_s=tracer.totals(),
            self_s=tracer.self_times(),
            split_s=tracer.total_of_suffix(".split"),
            split_mismatches=mismatches,
            spans=len(tracer.spans),
        )
    return result


def main() -> None:
    root, workload, seed, mode = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
    module = importlib.import_module(MODULES[workload])
    items = module.setup(root, seed)
    print("READY", flush=True)
    if mode == "setup":
        return
    tracer = Tracer() if mode == "traced" else None
    result = run_pass(module, items, tracer)
    if tracer is not None:
        out = root / ".perfbench" / f"spans-{workload}-seed{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "item"],
                                   "spans": tracer.spans}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
