"""Run the repo benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--reps R] [--out FILE]

Each workload runs in a fresh subprocess, so peak RSS, the compiled-program
cache and ``repro``'s process-global knobs never leak from one workload to
the next.  Without ``--trace`` the end-to-end metrics of ``BENCHMARK.json``
are measured with tracing off; with it, a traced child gives the per-layer
metrics and an untraced child run beside it gives the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Import the sibling modules as the ``e2e`` package, not as top-level names
# (``trace`` would shadow the standard library's module of that name).
sys.path[0:1] = [str(ROOT / "benchmarks")]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmark needs the program under test at {ROOT / 'src' / 'repro'}")

import e2e  # noqa: E402  (puts src/ on sys.path)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
SMOKE_SECONDS = 1.0
SETUP_REPEATS = 3
# The whole command must end within 180 s; children share this budget.
BUDGET_S = 170.0


# -------------------------------------------------------------------- #
# Child side
# -------------------------------------------------------------------- #
def child_main(args) -> int:
    from e2e import trace, workloads

    recorder = None
    if args.trace:
        recorder = trace.Recorder()
        trace.install(recorder)
    result = workloads.run_workload(
        args.workload[0], args.seed, args.seconds, args.child, args.started_at, recorder
    )
    if recorder is not None and "layers" in result:
        result["layers"]["trace.missing_targets"] = float(len(recorder.missing))
        path = RESULTS_DIR / f"trace_{args.workload[0]}.json"
        recorder.dump(path, {"workload": args.workload[0], "seed": args.seed})
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


# -------------------------------------------------------------------- #
# Parent side
# -------------------------------------------------------------------- #
class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str, traced: bool,
              deadline: float) -> dict:
    """One fresh interpreter for one workload; returns what it printed last."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0", "--started-at", repr(time.time()),
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # The child may own worker processes: stop its whole session.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{workload} ({mode}) ran out of time")
    if process.returncode != 0:
        raise ChildFailed(f"{workload} ({mode}) exited {process.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float, deadline: float,
                 setup_repeats: int) -> dict:
    """End-to-end metrics: set-up taken ``setup_repeats`` times, one measured
    run, and for the stream workloads the eager reference of its first losses."""
    setups = [
        run_child(workload, seed, seconds, "setup", False, deadline)["setup_s"]
        for _ in range(setup_repeats - 1)
    ]
    run = run_child(workload, seed, seconds, "full", False, deadline)
    setups.append(run["values"]["setup_s"])
    run["values"]["setup_s"] = statistics.median(setups)
    run["details"]["setup_s_samples"] = setups
    if "first_losses" in run["details"]:
        eager = run_child(workload, seed, seconds, "eager", False, deadline)["losses"]
        # The eager child trains the base period only, which may be shorter.
        run["checks"]["first_losses_equal_eager"] = (
            len(eager) > 0 and run["details"]["first_losses"][: len(eager)] == eager
        )
    return run


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Per-layer metrics from a traced child; the same run untraced beside it
    gives the tracing overhead on the workload's headline metric."""
    plain = run_child(workload, seed, seconds, "full", False, deadline)
    run = run_child(workload, seed, seconds, "full", True, deadline)
    headline = "op_ms_p50"
    run["layers"]["trace.overhead_share"] = (
        run["values"][headline] / plain["values"][headline] - 1.0
    )
    run["details"]["untraced_values"] = plain["values"]
    if "first_losses" in run["details"]:
        run["checks"]["first_losses_equal_untraced"] = (
            run["details"]["first_losses"] == plain["details"]["first_losses"]
        )
    return run


def measure(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload; return its record for the result file."""
    deadline = time.monotonic() + BUDGET_S
    if traced:
        run = run_traced(workload, seed, seconds, deadline)
    else:
        # A smoke run checks that everything works, not how long set-up takes.
        run = run_untraced(workload, seed, seconds, deadline, 1 if smoke else SETUP_REPEATS)
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    measured = run["layers"] if traced else run["values"]
    metrics = {}
    for entry in declared:
        # A layer that did no work on this workload reports zero time and
        # zero counts; an end-to-end metric must always be measured.
        value = measured.get(entry["name"], 0.0) if traced else measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    run["checks"]["metrics_finite"] = all(
        math.isfinite(metric["value"]) for metric in metrics.values()
    )
    return {
        "workload": workload,
        "correct": all(run["checks"].values()) and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "checks": run["checks"],
        "details": run["details"],
        "trace_file": run.get("trace_file"),
    }


def print_record(record: dict) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(f"== {record['workload']}: {status}, "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    for check, passed in record["checks"].items():
        print(f"   check {check}: {'pass' if passed else 'FAIL'}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if record["trace_file"]:
        print(f"   spans written to {record['trace_file']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives datasets, model init, arrivals, windows, updates")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"run length (default {SPEC['run_seconds']}, the size the "
                             "bounds were fixed at)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                        help="report the per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at a tenth of its size (--seconds {SMOKE_SECONDS:g})")
    parser.add_argument("--reps", type=int, default=1, help="repetitions of each workload")
    parser.add_argument("--out", type=Path, help="write the full result file here")
    parser.add_argument("--child", choices=("full", "setup", "eager"), help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = float(SPEC["run_seconds"])
    if args.seconds <= 0 or args.reps < 1:
        parser.error("--seconds must be positive and --reps at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    from e2e.environment import environment_block

    workloads = args.workload or WORKLOAD_NAMES
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "environment": environment_block(),
        "runs": [],
    }
    try:
        for _ in range(args.reps):
            for workload in workloads:
                record = measure(
                    workload, args.seed, args.seconds, bool(args.trace), args.smoke
                )
                document["runs"].append(record)
                print_record(record)
    except ChildFailed as error:
        print(error, file=sys.stderr)
        return 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    runs = document["runs"]
    single = len(runs) == 1
    summary = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        # One workload: metrics by name.  Several: by workload, then name.
        "metrics": runs[0]["metrics"] if single else {
            f"{run['workload']}/{name}": metric
            for run in runs for name, metric in run["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
