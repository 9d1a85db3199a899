"""Compare two result files of ``run.py``: the regression gate.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit), B the candidate.  For every workload and
metric the table shows both medians, the ratio B/A, the bound fixed in
``BENCHMARK.json`` and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than the bound;
* ``within``     the medians differ by no more than the bound;
* ``unresolved`` either file's run-to-run spread exceeds the bound, so the
                 difference cannot be told from noise;
* ``-``          the metric has no bound (per-layer metrics).

Files taken with different seeds, run lengths, ``--smoke``/``--trace``
flags or on different environments are refused (exit 2).  Exit 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0:1] = [str(Path(__file__).resolve().parents[1])]

from e2e import ROOT  # noqa: E402
from e2e.environment import COMPARABLE_FIELDS  # noqa: E402

RUN_FIELDS = ("seed", "seconds", "smoke", "trace")


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between the
    quartiles from four values up, the full range for two or three."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def collect(document: dict) -> dict:
    """``{(workload, metric): [value per repetition]}``."""
    table: dict[tuple, list] = {}
    for run in document["runs"]:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def refusal(base: dict, candidate: dict) -> str | None:
    """Why the two files cannot be compared, or None when they can."""
    for field in RUN_FIELDS:
        if base.get(field) != candidate.get(field):
            return f"{field} differs: {base.get(field)!r} vs {candidate.get(field)!r}"
    for field in COMPARABLE_FIELDS:
        ours, theirs = base["environment"].get(field), candidate["environment"].get(field)
        if ours != theirs:
            return f"environment field {field} differs: {ours!r} vs {theirs!r}"
    return None


def verdict(base: list, candidate: list, better: str, bound: float | None) -> str:
    if bound is None:
        return "-"
    if max(spread(base), spread(candidate)) > bound:
        return "unresolved"
    a, b = statistics.median(base), statistics.median(candidate)
    worse_by = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(base: dict, candidate: dict, spec: dict) -> list[dict]:
    """One row per workload and metric present in both files."""
    declared = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    ours, theirs = collect(base), collect(candidate)
    rows = []
    for key in ours:
        if key not in theirs or key[1] not in declared:
            continue
        entry = declared[key[1]]
        a, b = statistics.median(ours[key]), statistics.median(theirs[key])
        rows.append({
            "workload": key[0],
            "metric": key[1],
            "unit": entry["unit"],
            "base": a,
            "candidate": b,
            "ratio": b / a if a else float("nan"),
            "spread": max(spread(ours[key]), spread(theirs[key])),
            "bound": entry.get("bound"),
            "verdict": verdict(ours[key], theirs[key], entry["better"], entry.get("bound")),
        })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    reason = refusal(base, candidate)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(base, candidate, spec)
    print(f"{'workload':<14}{'metric':<34}{'A (base)':>13}{'B':>13}{'B/A':>8}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<14}{row['metric']:<34}{row['base']:>13.5g}"
              f"{row['candidate']:>13.5g}{row['ratio']:>8.3f}{row['spread']:>8.3f}"
              f"{bound:>7}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
