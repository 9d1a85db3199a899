"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper via the
experiment runners in :mod:`repro.experiments`.  The fidelity/runtime
trade-off is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``smoke`` | ``bench`` | ``paper``; default ``bench``) so the same harness
can be used for a quick check or an overnight full-scale run.

Each benchmark prints the regenerated rows/series and, above smoke scale,
also writes them to ``benchmarks/results/<experiment>.txt`` so they survive
output capturing.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Scale preset used by the benchmark harness."""
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


def bench_seed() -> int:
    """Seed used by the benchmark harness."""
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


def record_result(name: str, result: dict) -> None:
    """Print the regenerated table/figure and, above smoke scale, persist it."""
    formatted = result.get("formatted", "")
    scale = result.get("scale", bench_scale())
    print(f"\n===== {name} (scale={scale}) =====")
    print(formatted)
    if scale == "smoke":
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{name}.txt", "w", encoding="utf-8") as handle:
        handle.write(formatted + "\n")


@pytest.fixture
def scale() -> str:
    return bench_scale()


@pytest.fixture
def seed() -> int:
    return bench_seed()
