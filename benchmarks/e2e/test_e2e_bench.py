"""Checks of the benchmark harness itself (collected by the tier-1 run)."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from e2e import ROOT, compare, loadgen, trace

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_schedule_is_a_function_of_the_seed():
    first = loadgen.poisson_schedule(np.random.default_rng([7, 1]), 300.0, 2.0)
    again = loadgen.poisson_schedule(np.random.default_rng([7, 1]), 300.0, 2.0)
    other = loadgen.poisson_schedule(np.random.default_rng([8, 1]), 300.0, 2.0)
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:10], other[:10])
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    # Poisson arrivals: the count is near rate x duration, not exactly it.
    assert 450 < len(first) < 750


def test_percentile_arithmetic():
    samples = list(range(1, 101))
    assert loadgen.percentile(samples, 50) == 50.5
    assert loadgen.percentile(samples, 95) == pytest.approx(95.05)
    assert loadgen.percentile([4.0], 99) == 4.0
    assert np.isnan(loadgen.percentile([], 50))


def test_span_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 5.0, 7.0, 0, 1],
        ["a", 5.5, 6.0, 2, 1],
        ["other-thread", 2.0, 3.0, None, 2],
    ]
    assert trace.self_times(spans) == [5.0, 3.0, 1.5, 0.5, 1.0]
    summary = trace.summarize(spans)
    assert summary["a"] == {"calls": 2, "total_ms": 3500.0, "self_ms": 3500.0}
    assert summary["root"]["self_ms"] == 5000.0


def test_recorder_nests_spans_per_thread():
    recorder = trace.Recorder()
    outer = recorder.open("outer")
    recorder.close(recorder.open("inner"))
    recorder.close(outer)
    recorder.close(recorder.open("sibling"))
    assert [(row[0], row[3]) for row in recorder.spans] == [
        ("outer", None), ("inner", 0), ("sibling", None)
    ]
    assert all(end >= start for _, start, end, _, _ in recorder.spans)


def _document(op_ms: list[float]) -> dict:
    metrics = lambda value: {"op_ms_p50": {"value": value, "unit": "ms"}}  # noqa: E731
    return {
        "seed": 0, "seconds": 10.0, "smoke": False, "trace": False,
        "environment": {"cpu_count": 2},
        "runs": [{"workload": "serve_thread", "metrics": metrics(v)} for v in op_ms],
    }


def test_compare_flags_a_regression_beyond_the_bound_only():
    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "op_ms_p50")
    samples = (4.0, 4.02, 3.98, 4.01)
    base = _document(list(samples))
    changes = {"worse": 1 + 1.5 * bound, "within": 1 + 0.5 * bound, "better": 1 - 1.5 * bound}
    for expected, change in changes.items():
        rows = compare.compare(base, _document([v * change for v in samples]), SPEC)
        assert [row["verdict"] for row in rows] == [expected]
        assert rows[0]["ratio"] == pytest.approx(change)
    noisy = _document([v * f for v, f in zip(samples, (0.6, 0.9, 1.1, 1.4))])
    assert compare.compare(base, noisy, SPEC)[0]["verdict"] == "unresolved"


def test_compare_exit_code_is_one_only_when_something_got_worse(tmp_path):
    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "op_ms_p50")
    files = {}
    for name, change in (("base", 1.0), ("slow", 1 + 1.5 * bound), ("same", 1 + 0.5 * bound)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(_document([4.0 * change])))
    assert compare.main([str(files["base"]), str(files["slow"])]) == 1
    assert compare.main([str(files["base"]), str(files["same"])]) == 0
    other = dict(_document([4.0]), seed=5)
    files["base"].write_text(json.dumps(other))
    assert compare.main([str(files["base"]), str(files["same"])]) == 2


def test_compare_refuses_mismatched_files():
    base = _document([4.0])
    other_seed = dict(copy.deepcopy(base), seed=1)
    other_box = copy.deepcopy(base)
    other_box["environment"]["cpu_count"] = 64
    assert compare.refusal(base, copy.deepcopy(base)) is None
    assert "seed" in compare.refusal(base, other_seed)
    assert "cpu_count" in compare.refusal(base, other_box)
    assert "smoke" in compare.refusal(base, dict(base, smoke=True))


def test_benchmark_json_names_are_well_formed_and_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert any(e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
               for e in SPEC["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("traced, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_serve_thread_emits_every_declared_metric(traced, declared):
    done = subprocess.run(
        [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", "serve_thread",
         "--smoke", "--seed", "3", "--trace", str(traced)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {entry["name"]: entry["unit"] for entry in SPEC[declared]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])
    if traced:
        spans = json.loads((ROOT / "benchmarks/e2e/results/trace_serve_thread.json").read_text())
        assert spans["workload"] == "serve_thread" and len(spans["spans"]) > 100
        assert result["metrics"]["serve.engine.mean_batch_size"]["value"] >= 1
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
