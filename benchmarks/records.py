"""The append-only ``benchmarks/results/BENCH_*.json`` history files.

Each record the legacy benchmark scripts (hot path, serving, spatial,
resilience) append carries the environment block of the repo benchmark
(:func:`e2e.environment.environment_block`: cores, BLAS build and threads,
library versions, commit, ``repro`` knobs), so an entry is compared only
with entries taken on the same set-up.  A smoke-scale record is printed
and never written: smokes check that a script runs, and their numbers do not
belong in the trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path

from e2e.environment import environment_block

from repro.utils.serialization import save_json

RESULTS_DIR = Path(__file__).parent / "results"


def append_record(name: str, record: dict) -> Path | None:
    """Stamp ``record`` with the environment and append it to ``BENCH_<name>.json``.

    A record whose ``scale`` is ``"smoke"`` is printed instead; nothing is
    written and ``None`` is returned.
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    record["environment"] = environment_block()
    if record.get("scale") == "smoke":
        print(json.dumps(record, indent=2, default=str))
        print(f"smoke scale: not recorded to {path}")
        return None
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    save_json(path, history)
    print(f"recorded to {path}")
    return path
