"""EngineMetrics: flush reasons and a snapshot that does not stall writers."""

import threading

import pytest

from repro.serve import metrics as metrics_module
from repro.serve.metrics import COUNTERS, LATENCY_WINDOW, EngineMetrics


def test_each_flush_reason_has_its_counter():
    metrics = EngineMetrics()
    for size, reason in ((4, "size"), (1, "idle"), (1, "idle"), (2, "deadline")):
        metrics.record_flush(size, reason)
    snapshot = metrics.snapshot()
    assert "idle_flushes" in COUNTERS
    assert (snapshot["size_flushes"], snapshot["idle_flushes"],
            snapshot["deadline_flushes"]) == (1, 2, 1)
    assert snapshot["batches"] == 4 and snapshot["mean_batch_size"] == 2.0
    assert metrics()["idle_flushes"] == 2  # both spellings carry the key
    with pytest.raises(ValueError):
        metrics.record_flush(1, "timer")
    assert metrics.batches == 4


def test_record_done_completes_while_a_full_window_is_being_ranked(monkeypatch):
    metrics = EngineMetrics()
    for _ in range(LATENCY_WINDOW):
        metrics.record_submit()
        metrics.record_done(0.001)
    rank = metrics_module.percentiles
    finished = []

    def rank_while_another_thread_records(samples, *args):
        writer = threading.Thread(target=metrics.record_done, args=(0.002,))
        writer.start()
        writer.join(timeout=5.0)
        finished.append(not writer.is_alive())
        return rank(samples, *args)

    monkeypatch.setattr(metrics_module, "percentiles", rank_while_another_thread_records)
    snapshot = metrics.snapshot()
    assert finished == [True]
    # One consistent view: the snapshot predates the concurrent record.
    assert snapshot["completed"] == LATENCY_WINDOW
    assert snapshot["latency_ms"]["p99"] == pytest.approx(1.0)
    assert metrics.completed == LATENCY_WINDOW + 1
