"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/test_harness.py
    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import corpus_gate  # noqa: E402
import long_programs  # noqa: E402
import run  # noqa: E402
import theory_eq  # noqa: E402
from tracing import Tracer, closure  # noqa: E402


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["bench.item", 0.0, 10.0, None, 0],
        ["machine.explore", 1.0, 5.0, 0, 0],
        ["machine.explore.split", 5.0, 9.0, 0, 0],
        ["machine.state_graph", 5.0, 8.0, 2, 0],
    ]
    assert tracer.self_times() == {"bench": 2.0, "machine": 8.0}
    assert tracer.totals()["machine.explore"] == 4.0
    assert tracer.total_of_suffix(".split") == 4.0


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 97)]
    assert run.tail(samples, 96) == (100 * 86 / 96, 86.0, 10)
    assert run.tail(samples + samples, 96) == (100 * 86 / 96, 86.0, 20)
    assert run.tail(samples[:40], 40) == (75.0, 30.0, 10)
    assert run.tail([1.0, 2.0, 3.0], 3)[2] == 1


def test_counts_must_repeat():
    same = {"statuses": ["pass"], "counts": {"machine.explore.states": 5}}
    other = {"statuses": ["pass"], "counts": {"machine.explore.states": 6, "trace.only": 1}}
    run.check_counts([same, dict(same)])
    try:
        run.check_counts([same, other])
    except run.BenchError:
        pass
    else:
        raise AssertionError("differing counts were accepted")


def test_truncated_is_neither_pass_nor_failure():
    passes = [{"statuses": ["pass", "truncated", "fail"]}]
    assert run.tally(passes) == (3, 1, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = {"statuses": ["pass"] * 20, "item_s": [0.01] * 20, "wall_s": 1.0, "rss_mb": 9.0}
    traced = dict(plain, span_s={}, counts={}, self_s={}, split_s=0.0,
                  split_mismatches=0, spans=0)
    limits = dict.fromkeys(run.LIMIT_METRICS, 1)
    layer_names = set(run.per_layer(plain, traced, limits))
    e2e_names = set(run.end_to_end([plain], [0.1])[0])
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    assert e2e_names == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_closure():
    assert closure({(1, 2), (2, 3)}) == {(1, 2), (2, 3), (1, 3)}


def _run_items(module, items):
    for traced in (None, Tracer()):
        result = child.run_pass(module, items, traced)
        assert "fail" not in result["statuses"], result
    return result


def test_corpus_gate_items():
    items = [i for i in corpus_gate.setup(ROOT, 0) if i[0] in ("nested_forks", "series")]
    result = _run_items(corpus_gate, items)
    assert result["split_mismatches"] == 0
    assert result["span_s"]["machine.state_graph"] > 0


def test_long_programs_items():
    items = [i for i in long_programs.setup(ROOT, 0) if i[0] in ("chain20", "dag10")]
    result = _run_items(long_programs, items)
    assert result["counts"]["machine.run.steps"] > 0


def test_theory_eq_items_and_oracle():
    items = theory_eq.setup(ROOT, 0)[:8]
    result = _run_items(theory_eq, items)
    assert result["counts"]["posets.quick_reject.unequal"] >= 1
    rng = theory_eq.random.Random(0)
    cycle = theory_eq.twin_spec(rng, 2, (4,))
    assert theory_eq.oracle_isomorphic(cycle, theory_eq.twin_spec(rng, 2, (4,)))
    assert not theory_eq.oracle_isomorphic(cycle, theory_eq.twin_spec(rng, 2, (2, 2)))


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "theory-eq", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2 and not proc.stdout.strip()


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
