"""Benchmark result writers: a smoke-scale run prints its numbers and writes no file."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str, filename: str, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def records(monkeypatch, tmp_path):
    module = _load("bench_records", "records.py", monkeypatch)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(module, "environment_block", lambda: {"cpu_count": 1})
    return module


@pytest.fixture
def harness(monkeypatch, tmp_path):
    module = _load("bench_harness", "conftest.py", monkeypatch)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


class TestAppendRecord:
    def test_smoke_record_is_printed_not_written(self, records, tmp_path, capsys):
        assert records.append_record("spatial", {"scale": "smoke", "ms": 1.5}) is None
        assert list(tmp_path.iterdir()) == []
        assert '"ms": 1.5' in capsys.readouterr().out

    def test_bench_record_appends_to_history(self, records, tmp_path):
        path = records.append_record("spatial", {"scale": "bench", "ms": 1.5})
        records.append_record("spatial", {"scale": "bench", "ms": 2.5})
        assert path == tmp_path / "BENCH_spatial.json"
        history = json.loads(path.read_text())
        assert [entry["ms"] for entry in history] == [1.5, 2.5]
        assert history[0]["environment"] == {"cpu_count": 1}


class TestRecordResult:
    def test_smoke_result_is_printed_not_written(self, harness, tmp_path, capsys):
        harness.record_result("fig7_efficiency", {"scale": "smoke", "formatted": "row"})
        assert list(tmp_path.iterdir()) == []
        assert "row" in capsys.readouterr().out

    def test_bench_result_is_written(self, harness, tmp_path):
        harness.record_result("fig7_efficiency", {"scale": "bench", "formatted": "row"})
        assert (tmp_path / "fig7_efficiency.txt").read_text() == "row\n"
