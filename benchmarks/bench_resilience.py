"""Resilience benchmark: seeded fault storm vs clean serving, with recovery.

Drives the :class:`~repro.serve.ServingEngine` through
:func:`~repro.serve.loadgen.run_fault_storm`: a clean closed-loop baseline,
the same loop under the default seeded :meth:`FaultPlan.storm` (worker
crashes and stalls, NaN window corruption, node dropout, a failed
checkpoint load), then disarm and measure time-to-recover plus the
post-recovery curve.

Correctness is asserted inline before any timing:

* **Retry bit-parity** — under a crash/stall-only plan (no data
  corruption) with retries enabled, every request must resolve to the
  *bit-identical* prediction a direct ``Forecaster.predict`` gives:
  redispatching a batch after a worker crash is only safe because predict
  is side-effect-free, and this check pins that invariant.
* **Zero lost futures** — across clean, storm and recovery phases every
  accepted request's future must resolve; a future that never resolves is
  the one failure mode the engine promises cannot happen.
* **Recovery** — after the storm is disarmed the engine must return to
  sustained healthy service, with post-recovery throughput within 2x of
  the clean baseline.

Everything records to ``benchmarks/results/BENCH_resilience.json`` (clean
vs storm vs post-recovery throughput/latency/error curves, fault counts,
time-to-recover, resilience metrics) so the fault-tolerance trajectory is
tracked per PR.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --scale smoke
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.reporting import format_table
from repro.serve import FaultPlan, ServingEngine, build_synthetic_tenants
from repro.serve.loadgen import resilience_config, run_fault_storm

from records import append_record

# (tenants, concurrency, total requests, nodes, request windows)
SWEEPS = {
    "smoke": (2, 8, 96, 12, 24),
    "bench": (2, 16, 256, 16, 32),
}


def assert_retry_parity(pool, windows: np.ndarray, seed: int) -> list[dict]:
    """Crashed-and-retried batches must match direct predict bit-for-bit.

    The plan injects only worker crashes and stalls — faults that destroy
    *where* a batch runs, never *what* it computes — so with retries on,
    served output equals the fault-free output exactly.  ``fallback`` is
    off so a silent degraded answer cannot masquerade as parity.
    """
    checks = []
    config = resilience_config(
        max_retries=8, wedge_timeout_s=5.0, fallback="none",
    )
    for tenant in pool.resident:
        direct = pool.forecaster(tenant).predict(windows)
        plan = FaultPlan(
            seed=seed, worker_crash_rate=0.35, worker_stall_rate=0.15,
            stall_ms=10.0, worker_fault_limit=6,
        )
        engine = ServingEngine(pool, config, faults=plan)
        try:
            futures = [engine.submit(window, tenant=tenant) for window in windows]
            served = np.stack([future.result(timeout=120) for future in futures])
            faults = engine.injector.stats()
            restarts = engine.metrics.worker_restarts
            retried = engine.metrics.retried
        finally:
            engine.close()
        if not np.array_equal(served, direct):
            raise AssertionError(
                f"retried serving diverged from direct predict (tenant={tenant})"
            )
        checks.append({
            "tenant": tenant,
            "bit_identical": True,
            "injected_crashes": faults["crashes"],
            "injected_stalls": faults["stalls"],
            "worker_restarts": restarts,
            "requests_retried": retried,
        })
    return checks


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    num_tenants, concurrency, total_requests, num_nodes, num_windows = (
        SWEEPS[args.scale]
    )
    pool, windows, _ = build_synthetic_tenants(
        num_tenants=num_tenants, num_nodes=num_nodes, seed=args.seed,
        request_windows=num_windows,
    )
    tenants = pool.resident

    record = {
        "benchmark": "resilience",
        "scale": args.scale,
        "seed": args.seed,
        "num_nodes": num_nodes,
        "concurrency": concurrency,
        "total_requests": total_requests,
        "retry_parity": assert_retry_parity(pool, windows[:8], args.seed),
    }
    record.update(
        run_fault_storm(
            pool, windows, tenants=tenants,
            plan=FaultPlan.storm(seed=args.seed),
            concurrency=concurrency, total_requests=total_requests,
        )
    )

    rows = []
    for phase in ("clean", "storm", "post_recovery"):
        result = record[phase]
        issued = result["completed"] + result["failed"] + result["lost"]
        rows.append([
            phase,
            result["throughput_rps"],
            result["latency_ms"]["p50"],
            result["latency_ms"]["p99"],
            result["failed"],
            f"{result['failed'] / issued:.1%}" if issued else "n/a",
            result["lost"],
        ])
    print(format_table(
        ["phase", "req/s", "p50 ms", "p99 ms", "failed", "error rate", "lost"],
        rows,
        title=(
            f"Resilience — closed loop at concurrency {concurrency} "
            f"under FaultPlan.storm ({args.scale})"
        ),
    ))
    faults = record["faults"]
    print(
        f"injected: {faults.get('crashes', 0)} crashes, "
        f"{faults.get('stalls', 0)} stalls, "
        f"{faults.get('corrupted_windows', 0)} corrupted windows, "
        f"{faults.get('dropped_node_windows', 0)} node dropouts, "
        f"{faults.get('checkpoint_failures', 0)} checkpoint failures"
    )
    metrics = record["metrics"]
    print(
        f"recovery: {metrics['worker_restarts']} worker restarts, "
        f"{metrics['retried']} requests retried, "
        f"{metrics['fallbacks']} fallback answers, "
        f"{metrics['imputed_windows']} windows imputed; "
        f"time-to-recover {record['recovery']['time_to_recover_seconds'] * 1e3:.0f} ms"
    )

    if record["lost_requests"] != 0:
        raise AssertionError(
            f"{record['lost_requests']} futures never resolved — the engine "
            "dropped accepted requests"
        )
    if not record["recovery"]["recovered"]:
        raise AssertionError(
            "engine did not return to healthy service after the storm was disarmed"
        )
    ratio = record["recovered_throughput_ratio"]
    if not ratio >= 0.5:
        raise AssertionError(
            f"post-recovery throughput is {ratio:.2f}x the clean baseline "
            "(must be within 2x, i.e. ratio >= 0.5)"
        )
    print(
        f"post-recovery throughput: {ratio:.2f}x clean baseline; "
        f"0 lost futures across all phases"
    )

    append_record("resilience", record)
    return record


if __name__ == "__main__":
    main()
