"""Serving-engine benchmark: dynamic batching x tenants x node shards.

Closed-loop clients drive the :class:`~repro.serve.ServingEngine` over a
synthetic multi-tenant scenario, and the bench sweeps the three serving
axes (each point is :func:`sweep_point`):

* **batching** — one-request-at-a-time (``max_batch_size=1``) versus the
  deadline-based dynamic micro-batcher, at fixed concurrency;
* **tenants** — traffic interleaved round-robin over T tenant models that
  share one CSR graph through the byte-bounded :class:`ModelPool`;
* **shards** — node-sharded (memory-partitioned) serving at K shards.

Correctness is asserted inline before any timing: the batched + sharded
engine must produce *bit-identical* outputs to a direct
``Forecaster.predict`` on the same windows, for every shard count in the
sweep.  At the full ``bench`` scale the dynamic batcher must deliver at
least 2x the unbatched throughput at concurrency >= 32.

The process-parallel engine (``repro.serve.proc``) gets its own leg: a
worker-count sweep over shared-memory worker processes, with per-run
bit-parity asserted against *both* direct ``Forecaster.predict`` and the
in-process threaded engine, per-shard scaling efficiency recorded (and
asserted >= 0.7 only when the host has a core to spare for the parent
beside one per worker), and — at the
full ``bench`` scale — the 4-tenant / 2-shard batched point required to
clear 4x the threaded engine's GIL-bound 556 req/s.

Everything records to ``benchmarks/results/BENCH_serving.json`` (p50/p95/
p99 latency, throughput, batching efficiency per sweep point) so the
serving-performance trajectory is tracked per PR.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_serving.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --engine process
"""

from __future__ import annotations

import argparse
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.experiments.reporting import format_table
from repro.graph.sparse import clear_support_cache, support_cache_stats
from repro.serve import (
    EngineConfig,
    ProcessServingEngine,
    ServingEngine,
    build_synthetic_tenants,
    forecaster_nbytes,
    run_closed_loop,
)
from repro.serve.tenancy import ModelPool

from records import append_record

# The threaded engine's 4-tenant / 2-shard batched throughput collapses to
# ~556 req/s under the GIL (see the PR-7 record in BENCH_serving.json); the
# process plane must clear 4x that at the full bench scale.
GIL_BASELINE_RPS = 556.0

# (tenants, shard counts, concurrency, total requests, nodes, request windows)
SWEEPS = {
    "smoke": (2, (1, 2), 16, 96, 12, 24),
    "bench": (4, (1, 2, 4), 32, 512, 24, 48),
}

# Worker-process counts for the process-engine scaling leg, per scale.
PROC_WORKERS = {"smoke": (1, 2), "bench": (1, 2, 4)}


def assert_parity(pool, windows: np.ndarray, shard_counts, concurrency: int) -> list[dict]:
    """Engine output must equal direct predict bit-for-bit, per shard count."""
    checks = []
    for tenant in pool.resident:
        direct = pool.forecaster(tenant).predict(windows)
        for shards in shard_counts:
            config = EngineConfig(
                max_batch_size=max(concurrency // 2, 2), max_delay_ms=2.0,
                num_workers=2, shards=shards,
            )
            with ServingEngine(pool, config) as engine:
                futures = [engine.submit(window, tenant=tenant) for window in windows]
                served = np.stack([future.result(timeout=120) for future in futures])
            if not np.array_equal(served, direct):
                raise AssertionError(
                    f"engine output diverged from direct predict "
                    f"(tenant={tenant}, shards={shards})"
                )
            checks.append({"tenant": tenant, "shards": shards, "bit_identical": True})
    return checks


def assert_process_parity(pool, windows: np.ndarray, concurrency: int) -> list[dict]:
    """Process-engine output must be bit-identical to direct predict AND to
    the in-process threaded engine, per tenant, on every run."""
    config = EngineConfig(
        max_batch_size=max(concurrency // 2, 2), max_delay_ms=2.0, num_workers=2,
    )
    served_threaded = {}
    with ServingEngine(pool, config) as engine:
        for tenant in pool.resident:
            futures = [engine.submit(window, tenant=tenant) for window in windows]
            served_threaded[tenant] = np.stack(
                [future.result(timeout=120) for future in futures]
            )
    checks = []
    with ProcessServingEngine(pool, config, sample_windows=windows[:1]) as engine:
        for tenant in pool.resident:
            direct = pool.forecaster(tenant).predict(windows)
            futures = [engine.submit(window, tenant=tenant) for window in windows]
            served = np.stack([future.result(timeout=120) for future in futures])
            if not np.array_equal(served, direct):
                raise AssertionError(
                    f"process-engine output diverged from direct predict "
                    f"(tenant={tenant})"
                )
            if not np.array_equal(served, served_threaded[tenant]):
                raise AssertionError(
                    f"process-engine output diverged from the threaded engine "
                    f"(tenant={tenant})"
                )
            checks.append({
                "tenant": tenant, "engine": "process",
                "bit_identical_to_direct": True,
                "bit_identical_to_threaded": True,
            })
    return checks


def process_sweep(pool, windows, tenants, worker_counts, concurrency: int,
                  total_requests: int, scale: str) -> dict:
    """Worker-process scaling leg + the headline 4-tenant / 2-shard point."""
    points = []
    for workers in worker_counts:
        points.append(sweep_point(
            pool, windows, tenants, shards=1, batching=True,
            concurrency=concurrency, total_requests=total_requests,
            num_workers=workers, engine_kind="process",
        ))
    headline = sweep_point(
        pool, windows, tenants, shards=2, batching=True,
        concurrency=concurrency, total_requests=total_requests,
        num_workers=max(worker_counts), engine_kind="process",
    )
    base, widest = points[0], points[-1]
    max_workers = max(worker_counts)
    efficiency = (
        widest["throughput_rps"] / (base["throughput_rps"] * max_workers)
        if base["throughput_rps"] > 0 else 0.0
    )
    # The CPUs this process may run on: the parent's flusher, dispatchers and
    # settlers and the load generator need one beside the workers', or the
    # widest point measures their contention, not the engine's scaling.
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    assert_scaling = cores > max_workers
    record = {
        "sweep": points,
        "headline": headline,
        "scaling": {
            "workers": list(worker_counts),
            "throughput_rps": [p["throughput_rps"] for p in points],
            "efficiency_1_to_max": efficiency,
            "cpu_cores": cores,
            "efficiency_asserted": assert_scaling,
        },
    }
    if assert_scaling and efficiency < 0.7:
        raise AssertionError(
            f"process engine scaled 1 -> {max_workers} workers at only "
            f"{efficiency:.2f} efficiency on {cores} cores (>= 0.7 required)"
        )
    # The 4x-over-GIL headline needs real parallelism: on a box without the
    # cores (CI containers are often 1-2 vCPU) the number is recorded for
    # the trajectory but cannot be asserted — there is nothing to scale on.
    required = 4 * GIL_BASELINE_RPS
    record["headline_required_rps"] = required
    record["headline_asserted"] = scale == "bench" and concurrency >= 32 and cores >= 4
    if record["headline_asserted"] and headline["throughput_rps"] < required:
        raise AssertionError(
            f"process engine served {headline['throughput_rps']:.0f} req/s "
            f"on the {headline['tenants']}-tenant / 2-shard batched point "
            f"(>= {required:.0f} = 4 x the {GIL_BASELINE_RPS:.0f} req/s "
            f"GIL-bound threaded baseline required)"
        )
    return record


def sweep_point(pool, windows, tenants, shards: int, batching: bool,
                concurrency: int, total_requests: int,
                num_workers: int = 2, engine_kind: str = "thread") -> dict:
    """One point of the batching x tenants x shards sweep.

    Spins up a fresh engine over ``pool``, drives it closed-loop and returns
    the loadgen result with the sweep coordinates and the engine's batching
    counters.  With ``batching`` on, the flush size is each tenant's share of
    the concurrency halved — buckets are per tenant, and a full bucket
    flushes synchronously while an oversized one waits for a worker to finish
    its batch (``max_delay_ms`` at the longest).  ``engine_kind`` is
    ``"thread"`` or ``"process"`` (``num_workers`` then counts processes).
    """
    tenants = list(tenants)
    config = EngineConfig(
        max_batch_size=max(concurrency // (2 * len(tenants)), 2) if batching else 1,
        max_delay_ms=2.0 if batching else 0.0,
        num_workers=num_workers,
        shards=shards,
    )
    if engine_kind == "process":
        engine = ProcessServingEngine(pool, config, sample_windows=windows[:1])
    else:
        engine = ServingEngine(pool, config)
    with engine:
        result = run_closed_loop(
            engine, windows, concurrency=concurrency,
            total_requests=total_requests, tenants=tenants,
        )
        metrics = engine.metrics.snapshot()
    result.update(
        engine=engine_kind, batching=batching, shards=shards,
        tenants=len(tenants), num_workers=num_workers,
        mean_batch_size=metrics["mean_batch_size"],
        size_flushes=metrics["size_flushes"],
        deadline_flushes=metrics["deadline_flushes"],
        idle_flushes=metrics["idle_flushes"],
    )
    if result["failed"]:
        raise AssertionError(f"{result['failed']} requests failed during the sweep")
    return result


def bench_pool(num_tenants: int, num_nodes: int, seed: int) -> dict:
    """Multi-tenant pool: shared-graph support builds + byte-bounded LRU."""
    clear_support_cache()
    builds_before = support_cache_stats()["graph_support_builds"]
    pool, windows, _ = build_synthetic_tenants(
        num_tenants=num_tenants, num_nodes=num_nodes, seed=seed, request_windows=8,
    )
    for tenant in pool.resident:
        pool.forecaster(tenant).predict(windows[:2])
    builds = support_cache_stats()["graph_support_builds"] - builds_before
    if builds != 1:
        raise AssertionError(
            f"{num_tenants} tenants sharing one graph built supports {builds} times"
        )
    per_tenant = forecaster_nbytes(pool.forecaster(pool.resident[0]))
    # Re-home the tenants into a bounded pool sized for roughly half of
    # them.  Eviction requires a reloadable checkpoint per tenant (put-only
    # tenants are pinned), so save each one to disk and register the paths.
    bound = int(per_tenant * max(num_tenants // 2, 1) + per_tenant // 2)
    bounded = ModelPool(max_bytes=bound, network=pool.network)
    with tempfile.TemporaryDirectory() as staging:
        for tenant in list(pool.resident):
            path = pool.forecaster(tenant).save(Path(staging) / tenant)
            bounded.register(tenant, path)
            bounded.get(tenant)
        stats = bounded.stats()
    if stats["resident_bytes"] > bound:
        raise AssertionError(
            f"pool holds {stats['resident_bytes']} bytes over the {bound} bound"
        )
    return {
        "tenants": num_tenants,
        "per_tenant_bytes": per_tenant,
        "max_bytes": bound,
        "resident_bytes": stats["resident_bytes"],
        "resident": stats["resident"],
        "evictions": stats["evictions"],
        "support_builds_for_all_tenants": builds,
    }


# ---------------------------------------------------------------------- #
# Memory-sharded (partition-mode) inference leg
# ---------------------------------------------------------------------- #
# (num_nodes, clusters, shard counts, batch, input steps, hidden channels)
SHARDING_SCALES = {
    "smoke": (2048, 8, (2, 4), 2, 8, 8),
    "bench": (50_000, 16, (2, 4), 1, 8, 8),
}


def _clustered_graph(num_nodes: int, clusters: int, seed: int):
    """Sparse clustered graph with shuffled node ids.

    Dense intra-cluster connectivity (~6 out-edges per node) plus a thin
    layer of cross-cluster edges, then a random node permutation so
    contiguous index ranges do not coincide with the clusters — the gap the
    min-cut planner is supposed to close.
    """
    from scipy import sparse as sp

    from repro.graph import Graph

    rng = np.random.default_rng(seed)
    size = num_nodes // clusters
    rows, cols = [], []
    for c in range(clusters):
        lo = c * size
        hi = lo + size if c < clusters - 1 else num_nodes
        width = hi - lo
        count = 6 * width
        rows.append(rng.integers(lo, hi, size=count))
        cols.append(rng.integers(lo, hi, size=count))
    cross = max(2 * clusters, num_nodes // 50)
    rows.append(rng.integers(0, num_nodes, size=cross))
    cols.append(rng.integers(0, num_nodes, size=cross))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    perm = rng.permutation(num_nodes)
    adjacency = sp.coo_array(
        (0.5 + 0.5 * rng.random(len(rows)), (perm[rows], perm[cols])),
        shape=(num_nodes, num_nodes),
    )
    return Graph(adjacency, name=f"clustered-{num_nodes}", directed=False)


def _sharded_facade(graph, batch: int, steps: int, hidden: int, seed: int):
    """A strict-compatible forecaster (no global mixing) over ``graph``."""
    from types import SimpleNamespace

    from repro.models.baselines.stgcn import STGCN
    from repro.serve import Forecaster

    network = SimpleNamespace(graph=graph, num_nodes=graph.num_nodes)
    model = STGCN(
        network, in_channels=1, input_steps=steps, hidden_dim=hidden, rng=seed,
    )
    rng = np.random.default_rng(seed + 1)
    windows = rng.normal(size=(batch, steps, graph.num_nodes, 1))
    return Forecaster(model), windows


def _shard_activation_peaks(facade, plan, windows: np.ndarray) -> tuple[int, list[int]]:
    """Peak activation bytes: unsharded forward vs each partitioned shard.

    Runs eagerly (tracing off) so the tracker sees every interior
    activation, with ``strict=True`` contexts so any full-``N`` gather —
    the thing the memory claim forbids — fails loudly instead of skewing
    the measurement.
    """
    import threading

    from repro.tensor import (
        HaloExchange,
        PartitionContext,
        partition_scope,
        track_activations,
        traced_execution,
    )

    model = facade.model
    num_shards = plan.num_shards
    with traced_execution(False):
        with track_activations() as full_stats:
            model.predict(windows)
        full_peak = full_stats.peak_bytes

        exchange = HaloExchange(num_shards)
        contexts = [
            PartitionContext(plan, k, exchange, strict=True)
            for k in range(num_shards)
        ]
        peaks: list = [None] * num_shards
        errors: list = []

        def worker(k: int) -> None:
            try:
                local = windows[..., plan.owned(k), :]
                with track_activations() as stats:
                    with partition_scope(contexts[k]):
                        model.predict(local)
                peaks[k] = stats.peak_bytes
            except BaseException as exc:  # unblock peers stuck in a gather
                errors.append(exc)
                exchange.fail(exc)

        threads = [
            threading.Thread(target=worker, args=(k,), daemon=True)
            for k in range(num_shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    return full_peak, peaks


def _range_cut_pairs(csr, num_shards: int) -> int:
    """Unordered edge pairs cut by balanced node ranges in identity order —
    the naive baseline the min-cut planner must beat."""
    num_nodes = csr.shape[0]
    bounds = np.linspace(0, num_nodes, num_shards + 1).round().astype(int)
    owner = np.repeat(np.arange(num_shards), np.diff(bounds))
    coo = csr.tocoo()
    cross = owner[coo.row] != owner[coo.col]
    lo = np.minimum(coo.row, coo.col)[cross].astype(np.int64)
    hi = np.maximum(coo.row, coo.col)[cross]
    return len(np.unique(lo * num_nodes + hi))


def sharding_leg(scale: str, seed: int) -> dict:
    """Partition-mode serving: exactness, cut quality, per-shard memory."""
    import time

    from repro.graph.sparse import spatial_mode
    from repro.serve.sharding import ShardedForecaster, ShardPlanner

    num_nodes, clusters, shard_counts, batch, steps, hidden = SHARDING_SCALES[scale]
    record: dict = {
        "num_nodes": num_nodes,
        "clusters": clusters,
        "shard_counts": list(shard_counts),
        "sweep": [],
        "memory": [],
    }
    with spatial_mode("sparse"):
        graph = _clustered_graph(num_nodes, clusters, seed)
        facade, windows = _sharded_facade(graph, batch, steps, hidden, seed)

        started = time.perf_counter()
        direct = facade.predict(windows)
        record["direct_seconds"] = time.perf_counter() - started

        # Exactness + accuracy-vs-cut sweep (traced path, like production).
        for shards in shard_counts:
            with ShardedForecaster(facade, shards, strict=True) as sharded:
                started = time.perf_counter()
                stitched = sharded.predict(windows)
                elapsed = time.perf_counter() - started
                exact = bool(np.array_equal(stitched, direct))
                if not exact:
                    raise AssertionError(
                        f"partitioned predict diverged from direct at K={shards} "
                        f"(max |diff| {np.abs(stitched - direct).max():.3e})"
                    )
                profile = sharded.halo_profile(2)
                cut_pairs = int(sharded.plan.cut_edge_pairs)
                range_cut_pairs = _range_cut_pairs(graph.csr, shards)
                # Min-cut must actually beat node ranges on the shuffled graph.
                if cut_pairs >= range_cut_pairs:
                    raise AssertionError(
                        f"min-cut planner cut {cut_pairs} pairs at K={shards}, "
                        f"identity-order ranges cut {range_cut_pairs}"
                    )
                record["sweep"].append(
                    {
                        "shards": shards,
                        "bit_identical": exact,
                        "max_abs_diff": 0.0,
                        "cut_edge_pairs": cut_pairs,
                        "range_cut_edge_pairs": range_cut_pairs,
                        "edge_cut": float(sharded.plan.edge_cut),
                        "max_halo_fraction": profile["max_halo_fraction"],
                        "seconds": elapsed,
                    }
                )

        # Memory: per-shard peak activation vs the unsharded forward.
        for shards in shard_counts:
            plan = ShardPlanner(shards).plan(graph)
            full_peak, shard_peaks = _shard_activation_peaks(facade, plan, windows)
            profile = graph.halo_profile(plan, 2)
            entries = []
            for k, peak in enumerate(shard_peaks):
                owned = len(plan.owned(k))
                halo_fraction = profile["shards"][k]["halo_fraction"]
                bound_fraction = owned / num_nodes + halo_fraction
                ratio = peak / full_peak
                entries.append(
                    {
                        "shard": k,
                        "owned": owned,
                        "halo": profile["shards"][k]["halo"],
                        "peak_bytes": int(peak),
                        "peak_fraction_of_full": ratio,
                        "bound_fraction": bound_fraction,
                    }
                )
                # Acceptance: per-shard peak activation stays within the
                # owned + halo share of the unsharded peak (25% slack for
                # fixed-size temporaries that do not scale with N).
                if ratio > 1.25 * bound_fraction + 0.05:
                    raise AssertionError(
                        f"shard {k}/{shards} peaked at {ratio:.3f} of the "
                        f"unsharded forward; owned+halo bound is "
                        f"{bound_fraction:.3f}"
                    )
            record["memory"].append(
                {
                    "shards": shards,
                    "full_peak_bytes": int(full_peak),
                    "max_shard_peak_bytes": int(max(shard_peaks)),
                    "max_peak_fraction": max(e["peak_fraction_of_full"] for e in entries),
                    "shards_detail": entries,
                }
            )
    return record


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine", default="both",
        choices=("thread", "process", "sharding", "both", "all"),
        help="which worker plane(s) to sweep ('both' = thread + process; "
             "'all' adds the memory-sharded partition leg)",
    )
    args = parser.parse_args(argv)

    num_tenants, shard_counts, concurrency, total_requests, num_nodes, num_windows = (
        SWEEPS[args.scale]
    )
    pool = windows = tenants = None
    if args.engine != "sharding":
        pool, windows, _ = build_synthetic_tenants(
            num_tenants=num_tenants, num_nodes=num_nodes, seed=args.seed,
            request_windows=num_windows,
        )
        tenants = pool.resident

    record = {
        "benchmark": "serving",
        "scale": args.scale,
        "seed": args.seed,
        "engine": args.engine,
        "num_nodes": num_nodes,
        "concurrency": concurrency,
        "total_requests": total_requests,
        "sweep": [],
    }

    if args.engine in ("thread", "both"):
        record["parity"] = assert_parity(pool, windows[:8], shard_counts, concurrency)
        for shards in shard_counts:
            for tenant_count in sorted({1, num_tenants}):
                for batching in (False, True):
                    record["sweep"].append(
                        sweep_point(
                            pool, windows, tenants[:tenant_count], shards, batching,
                            concurrency, total_requests,
                        )
                    )

        rows = [
            [
                point["shards"],
                point["tenants"],
                "on" if point["batching"] else "off",
                point["throughput_rps"],
                point["latency_ms"]["p50"],
                point["latency_ms"]["p95"],
                point["latency_ms"]["p99"],
                point["mean_batch_size"],
            ]
            for point in record["sweep"]
        ]
        print(format_table(
            ["shards", "tenants", "batch", "req/s", "p50 ms", "p95 ms", "p99 ms",
             "mean batch"],
            rows,
            title=f"Serving engine — closed loop at concurrency {concurrency} "
                  f"({args.scale})",
        ))

        def point(shards, tenant_count, batching):
            return next(
                p for p in record["sweep"]
                if p["shards"] == shards and p["tenants"] == tenant_count
                and p["batching"] == batching
            )

        baseline = point(1, 1, False)
        batched = point(1, 1, True)
        record["batching_speedup"] = batched["throughput_rps"] / baseline["throughput_rps"]
        print(
            f"dynamic batching speedup at concurrency {concurrency}: "
            f"{record['batching_speedup']:.2f}x "
            f"({baseline['throughput_rps']:.0f} -> {batched['throughput_rps']:.0f} req/s)"
        )
        if args.scale == "bench" and concurrency >= 32 and record["batching_speedup"] < 2.0:
            raise AssertionError(
                f"dynamic batcher delivered only {record['batching_speedup']:.2f}x "
                f"over one-request-at-a-time (>= 2x required at concurrency >= 32)"
            )

        record["pool"] = bench_pool(num_tenants, num_nodes, args.seed)
        print(
            f"pool: {record['pool']['tenants']} tenants x "
            f"{record['pool']['per_tenant_bytes'] / 1024:.0f} KiB, supports built "
            f"{record['pool']['support_builds_for_all_tenants']}x; byte-bounded LRU kept "
            f"{record['pool']['resident']} resident ({record['pool']['evictions']} evictions)"
        )

    if args.engine in ("process", "both"):
        record["process_parity"] = assert_process_parity(pool, windows[:8], concurrency)
        print(f"process-engine parity: {len(record['process_parity'])} tenant(s) "
              f"bit-identical to direct predict and to the threaded engine")
        proc = process_sweep(
            pool, windows, tenants, PROC_WORKERS[args.scale],
            concurrency, total_requests, args.scale,
        )
        record["process"] = proc
        rows = [
            [p["num_workers"], p["shards"], p["tenants"], p["throughput_rps"],
             p["latency_ms"]["p50"], p["latency_ms"]["p95"], p["latency_ms"]["p99"],
             p["mean_batch_size"]]
            for p in proc["sweep"] + [proc["headline"]]
        ]
        print(format_table(
            ["workers", "shards", "tenants", "req/s", "p50 ms", "p95 ms", "p99 ms",
             "mean batch"],
            rows,
            title=f"Process engine — closed loop at concurrency {concurrency} "
                  f"({args.scale})",
        ))
        scaling = proc["scaling"]
        print(
            f"process scaling 1 -> {max(scaling['workers'])} workers: "
            f"{scaling['efficiency_1_to_max']:.2f} efficiency on "
            f"{scaling['cpu_cores']} core(s)"
            f"{'' if scaling['efficiency_asserted'] else ' (recorded, not asserted)'}"
        )
        print(
            f"headline {proc['headline']['tenants']}-tenant / "
            f"{proc['headline']['shards']}-shard batched point: "
            f"{proc['headline']['throughput_rps']:.0f} req/s "
            f"(threaded GIL baseline {GIL_BASELINE_RPS:.0f} req/s)"
        )

    if args.engine in ("sharding", "all"):
        sharding = sharding_leg(args.scale, args.seed)
        record["sharding"] = sharding
        rows = [
            [p["shards"], "yes" if p["bit_identical"] else "NO",
             p["cut_edge_pairs"], p["range_cut_edge_pairs"], f"{p['edge_cut']:.4f}",
             f"{p['max_halo_fraction']:.4f}", f"{p['seconds']:.2f}"]
            for p in sharding["sweep"]
        ]
        print(format_table(
            ["shards", "exact", "cut pairs", "range cut pairs", "edge cut",
             "max halo frac", "seconds"],
            rows,
            title=f"Memory-sharded partition forward — N={sharding['num_nodes']} "
                  f"({args.scale})",
        ))
        for entry in sharding["memory"]:
            worst = max(entry["shards_detail"], key=lambda e: e["peak_fraction_of_full"])
            print(
                f"K={entry['shards']}: per-shard peak activation "
                f"{entry['max_peak_fraction']:.3f} of unsharded "
                f"({entry['max_shard_peak_bytes'] / 1e6:.1f} MB vs "
                f"{entry['full_peak_bytes'] / 1e6:.1f} MB); worst shard owns "
                f"{worst['owned']} nodes + {worst['halo']} halo "
                f"(owned+halo bound {worst['bound_fraction']:.3f})"
            )

    append_record("serving", record)
    return record


if __name__ == "__main__":
    main()
