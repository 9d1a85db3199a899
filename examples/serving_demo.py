"""Serving demo: one engine, several tenants, concurrent predict + update.

Spins up the async :class:`repro.serve.ServingEngine` over a multi-tenant
:class:`repro.serve.ModelPool` (three synthetic tenants sharing one sensor
graph), fires concurrent single-window requests through the dynamic
micro-batcher while the serialized update lane folds new observations into
one tenant's model online, and finishes with the node-sharded serving view
— whose stitched output is verified bit-identical to direct prediction.

Run with::

    python examples/serving_demo.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.graph.sparse import support_cache_stats
from repro.serve import (
    EngineConfig,
    ProcessServingEngine,
    ServingEngine,
    ShardedForecaster,
    build_synthetic_tenants,
    run_closed_loop,
)


def main() -> None:
    # 1. Three tenants (say, three city districts) over ONE shared graph:
    #    diffusion supports are built once, not once per tenant.
    builds_before = support_cache_stats()["graph_support_builds"]
    pool, windows, scenario = build_synthetic_tenants(
        num_tenants=3, num_nodes=16, seed=7, request_windows=24
    )
    spec = scenario.spec
    print(f"pool: {len(pool.resident)} tenants on graph {pool.graph!r}")

    # 2. The engine: deadline-based micro-batching, bounded queues, worker
    #    threads.  Submit returns a future per request.
    config = EngineConfig(max_batch_size=8, max_delay_ms=4.0, num_workers=2)
    with ServingEngine(pool, config) as engine:
        # Warm each tenant once so the demo's timings are steady-state.
        for tenant in pool.resident:
            engine.predict(windows[0], tenant=tenant, timeout=60)
        shared_builds = support_cache_stats()["graph_support_builds"] - builds_before
        assert shared_builds == 1  # T tenants, one graph, one support build
        print(f"diffusion supports built {shared_builds}x for all "
              f"{len(pool.resident)} tenants (shared graph)")

        # 3. Concurrent predict + online update: clients hammer all three
        #    tenants while tenant-0 learns from newly observed windows
        #    through the serialized update lane (readers never observe a
        #    half-stepped optimizer write).
        series = scenario.raw_series
        window, horizon = spec.input_steps, spec.output_steps

        def online_updates() -> None:
            for start in range(0, 6):
                inputs = np.stack([series[start : start + window]])
                actual = np.stack(
                    [series[start + window : start + window + horizon, :,
                            spec.target_channel : spec.target_channel + 1]]
                )
                step = engine.update(inputs, actual, tenant="tenant-0")
                print(f"  online update {start}: task loss {step.task_loss:.4f} "
                      f"(replayed {step.replay_samples})")

        updater = threading.Thread(target=online_updates)
        updater.start()
        result = run_closed_loop(
            engine, windows, concurrency=8, total_requests=120,
            tenants=pool.resident,
        )
        updater.join()
        snapshot = engine.metrics.snapshot()
        print(
            f"served {result['completed']} requests at "
            f"{result['throughput_rps']:.0f} req/s | p50 "
            f"{result['latency_ms']['p50']:.2f} ms, p99 "
            f"{result['latency_ms']['p99']:.2f} ms | mean batch "
            f"{snapshot['mean_batch_size']:.1f} ({snapshot['updates']} online updates)"
        )
        assert result["failed"] == 0
        assert np.isfinite(result["latency_ms"]["p99"])

    # 4. Node-sharded serving: each shard worker holds only its owned node
    #    rows; spatial mixes gather just the halo rows their CSR columns
    #    reference through an in-process exchange.  The min-cut planner
    #    picks the shard boundaries; the stitched output is bit-identical
    #    to the unsharded forecaster.
    forecaster = pool.forecaster("tenant-1")
    direct = forecaster.predict(windows)
    with ShardedForecaster(forecaster, num_shards=2) as sharded:
        stitched = sharded.predict(windows)
        print(f"sharded serving: {sharded!r}")
    assert np.array_equal(stitched, direct)
    print(
        f"2 memory shards ({sharded.plan.cut_edge_pairs} cut edge pairs) "
        "bit-identical to direct predict"
    )

    # 5. Process-parallel serving: the same submit()/future/update API, but
    #    the forwards run in worker processes over a shared-memory model
    #    plane (zero-copy weights + CSR supports, SPSC request rings) —
    #    past the GIL.  Output stays bit-identical to direct predict, and
    #    an online update flips new weights to every worker behind a
    #    seqlock without blocking in-flight requests.
    config = EngineConfig(max_batch_size=8, max_delay_ms=4.0, num_workers=2)
    with ProcessServingEngine(pool, config, sample_windows=windows[:1]) as engine:
        futures = [engine.submit(w, tenant="tenant-1") for w in windows]
        served = np.stack([f.result(timeout=120) for f in futures])
        assert np.array_equal(served, direct)
        inputs = np.stack([series[:window]])
        actual = np.stack(
            [series[window : window + horizon, :,
                    spec.target_channel : spec.target_channel + 1]]
        )
        engine.update(inputs, actual, tenant="tenant-1")
        assert engine.weight_generation("tenant-1") == 1
        post_update = engine.predict(windows[0], tenant="tenant-1", timeout=120)
        assert np.array_equal(
            post_update, pool.forecaster("tenant-1").predict(windows[:1])[0]
        )
        merged = engine.metrics()["workers"]
        print(
            f"process engine [{engine.start_method}]: {len(windows)} requests "
            f"bit-identical to direct predict across {config.num_workers} worker "
            f"processes ({merged['batches']} batches, "
            f"{merged['refreshes']} weight refreshes after 1 online update)"
        )


if __name__ == "__main__":
    main()
