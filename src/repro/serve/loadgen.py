"""Closed-loop load, the synthetic tenant fixture and the fault-storm harness.

A *closed loop* keeps a fixed number of concurrent clients, each issuing
its next request only after the previous one resolved — the standard way
to measure a serving system's latency/throughput trade-off at a given
concurrency.  :func:`run_closed_loop` drives any engine with windows and
tenants assigned round-robin and reports client-observed latencies
(submit → future resolution), throughput, and failure, rejection and
lost-future counts.  It is the load behind ``repro serve``.  Open-loop
measurement at a fixed offered rate lives in the repo benchmark
(``benchmarks/e2e``), whose generator charges latency from each
request's due time.

:func:`build_synthetic_tenants` manufactures the multi-tenant fixture the
tests and benchmarks share: one synthetic scenario, ``T`` independently
initialised forecasters over its single shared graph, and a stack of raw
request windows drawn from the stream.

:func:`run_fault_storm` is the resilience harness shared by the chaos
tests and ``benchmarks/bench_resilience.py``: the same closed loop driven
three times over one pool — clean baseline, under a seeded
:class:`~repro.serve.faults.FaultPlan` storm (engine settings from
:func:`resilience_config`), and again after the storm is disarmed — with
the time from disarm to sustained healthy service measured in between.
Zero lost futures (a future that never resolves) is the harness's core
invariant; the count is in the returned record.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict

import numpy as np

from ..core.config import TrainingConfig, URCLConfig
from ..core.urcl import URCLModel
from ..data.datasets import load_dataset
from ..data.streaming import build_streaming_scenario
from ..exceptions import QueueFull
from ..models.stencoder import STEncoderConfig
from .engine import EngineConfig, ServingEngine
from .faults import FaultPlan
from .forecaster import Forecaster
from .metrics import percentiles
from .tenancy import ModelPool

__all__ = [
    "run_closed_loop",
    "build_synthetic_tenants",
    "resilience_config",
    "run_fault_storm",
]


def run_closed_loop(
    engine,
    windows: np.ndarray,
    concurrency: int = 8,
    total_requests: int | None = 256,
    tenants=None,
    timeout: float = 120.0,
    deadline_ms: float | None = None,
    duration_s: float | None = None,
) -> dict:
    """Drive ``engine`` with ``concurrency`` synchronous clients.

    ``windows`` is a ``(n, time, nodes, channels)`` stack cycled
    round-robin; ``tenants`` (ids, ``None`` entries meaning the default
    tenant) are cycled the same way so multi-tenant traffic interleaves.
    Requests rejected with :class:`~repro.exceptions.QueueFull` (including
    :class:`~repro.exceptions.RateLimited`) are counted and retried after
    a short backoff — a closed loop must not lose its clients to
    backpressure.  Any other error, raised by ``submit`` or by the future,
    counts the request as failed and the client moves on to the next one.
    ``deadline_ms`` is attached to every request when set.

    ``duration_s`` switches to sustained (time-bounded) mode: clients keep
    issuing until the wall clock runs out instead of until a request count
    is reached — pass ``total_requests=None`` for a pure multi-minute soak,
    or keep both to stop at whichever comes first.

    Returns a JSON-serialisable dict: completed/failed/rejected counts, an
    ``errors`` breakdown by exception type, the number of ``lost`` futures
    (``Future.result`` timed out — the engine broke its answer-everything
    contract), wall-clock duration, throughput (completed requests per
    second) and client-observed latency percentiles in milliseconds.
    """
    if total_requests is None and duration_s is None:
        raise ValueError("set total_requests and/or duration_s")
    tenant_cycle = list(tenants) if tenants else [None]
    ticket = itertools.count()
    lock = threading.Lock()
    latencies: list[float] = []
    errors: dict[str, int] = {}
    rejected = 0
    failed = 0
    lost = 0
    stop_at = None if duration_s is None else time.perf_counter() + duration_s

    def submit(window, tenant):
        nonlocal rejected
        while True:
            try:
                return engine.submit(window, tenant=tenant, deadline_ms=deadline_ms)
            except QueueFull:
                with lock:
                    rejected += 1
                time.sleep(engine.config.max_delay_ms / 1e3 or 1e-3)

    def client() -> None:
        nonlocal failed, lost
        while True:
            index = next(ticket)
            if total_requests is not None and index >= total_requests:
                return
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            window = windows[index % len(windows)]
            tenant = tenant_cycle[index % len(tenant_cycle)]
            issued = time.perf_counter()
            try:
                submit(window, tenant).result(timeout=timeout)
            except FutureTimeoutError:
                # The future never resolved: a dropped request, the one
                # failure mode the engine promises can't happen.
                with lock:
                    lost += 1
                continue
            except Exception as exc:
                # Refused at admission (bad window, unknown tenant, closed
                # engine) or failed in service: the client moves on.
                with lock:
                    failed += 1
                    name = type(exc).__name__
                    errors[name] = errors.get(name, 0) + 1
                continue
            with lock:
                latencies.append(time.perf_counter() - issued)

    threads = [
        threading.Thread(target=client, name=f"repro-loadgen-{i}", daemon=True)
        for i in range(max(int(concurrency), 1))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    completed = len(latencies)
    return {
        "concurrency": int(concurrency),
        "total_requests": None if total_requests is None else int(total_requests),
        "duration_s": duration_s,
        "completed": completed,
        "failed": failed,
        "lost": lost,
        "errors": errors,
        "rejected_retries": rejected,
        "duration_seconds": duration,
        "throughput_rps": completed / duration if duration > 0 else 0.0,
        "latency_ms": {
            key: value * 1e3 for key, value in percentiles(latencies).items()
        },
    }


def resilience_config(num_workers: int = 2, **overrides) -> EngineConfig:
    """The engine configuration the resilience benchmark and chaos CI use.

    Aggressive recovery knobs so a short storm exercises every mechanism:
    fast supervision, small capped backoff, a sensitive circuit breaker
    that re-closes quickly, NaN imputation and the historical-average
    fallback.  ``overrides`` land on top.
    """
    settings = dict(
        num_workers=num_workers,
        max_retries=3,
        retry_backoff_ms=5.0,
        retry_backoff_max_ms=50.0,
        wedge_timeout_s=1.0,
        supervise_interval_s=0.02,
        breaker_failures=4,
        breaker_reset_s=0.25,
        nan_policy="impute",
        fallback="ha",
    )
    settings.update(overrides)
    return EngineConfig(**settings)


def _measure_recovery(
    engine,
    windows: np.ndarray,
    tenants=None,
    ok_needed: int = 5,
    max_probes: int = 500,
    probe_timeout: float = 30.0,
) -> dict:
    """Sequential probes from disarm until ``ok_needed`` consecutive
    successes: the crude but honest time-to-recover measurement."""
    tenant_cycle = list(tenants) if tenants else [None]
    start = time.perf_counter()
    consecutive = probes = failures = 0
    while consecutive < ok_needed and probes < max_probes:
        window = windows[probes % len(windows)]
        tenant = tenant_cycle[probes % len(tenant_cycle)]
        probes += 1
        try:
            engine.predict(window, tenant=tenant, timeout=probe_timeout)
        except Exception:
            failures += 1
            consecutive = 0
            time.sleep(0.01)
            continue
        consecutive += 1
    recovered = consecutive >= ok_needed
    return {
        "recovered": recovered,
        "time_to_recover_seconds": (
            time.perf_counter() - start if recovered else float("nan")
        ),
        "probes": probes,
        "failed_probes": failures,
    }


def run_fault_storm(
    pool: ModelPool,
    windows: np.ndarray,
    tenants=None,
    plan: FaultPlan | None = None,
    config: EngineConfig | None = None,
    concurrency: int = 8,
    total_requests: int = 192,
    recovery_ok_probes: int = 5,
    timeout: float = 120.0,
) -> dict:
    """Clean baseline → seeded fault storm → disarm → recovery, one record.

    Three closed loops over the same ``pool``: a fault-free engine for the
    clean baseline, then an engine with ``plan`` injected (default
    :meth:`FaultPlan.storm`) driven through the storm, disarmed, probed
    until service is healthy again (time-to-recover) and driven once more
    for the post-recovery curve.  The returned record carries all three
    result dicts, the injector's fault counts, the engine's resilience
    metrics and health, total ``lost_requests`` (must be 0) and the
    post-recovery/clean throughput ratio.
    """
    plan = FaultPlan.storm() if plan is None else plan
    config = resilience_config() if config is None else config
    clean_engine = ServingEngine(pool, config)
    try:
        clean = run_closed_loop(
            clean_engine, windows, concurrency=concurrency,
            total_requests=total_requests, tenants=tenants, timeout=timeout,
        )
    finally:
        clean_engine.close()
    engine = ServingEngine(pool, config, faults=plan)
    try:
        storm = run_closed_loop(
            engine, windows, concurrency=concurrency,
            total_requests=total_requests, tenants=tenants, timeout=timeout,
        )
        storm_health = engine.health()
        faults = engine.injector.stats() if engine.injector is not None else {}
        if engine.injector is not None:
            engine.injector.disarm()
        recovery = _measure_recovery(
            engine, windows, tenants=tenants, ok_needed=recovery_ok_probes,
        )
        post = run_closed_loop(
            engine, windows, concurrency=concurrency,
            total_requests=total_requests, tenants=tenants, timeout=timeout,
        )
        metrics = engine.metrics.snapshot()
        final_health = engine.health()
    finally:
        engine.close(drain_timeout=30.0)
    clean_rps = clean["throughput_rps"]
    return {
        "plan": asdict(plan),
        "clean": clean,
        "storm": storm,
        "recovery": recovery,
        "post_recovery": post,
        "faults": faults,
        "storm_health": storm_health,
        "final_health": final_health,
        "metrics": metrics,
        "lost_requests": clean["lost"] + storm["lost"] + post["lost"],
        "recovered_throughput_ratio": (
            post["throughput_rps"] / clean_rps if clean_rps > 0 else float("nan")
        ),
    }


def build_synthetic_tenants(
    num_tenants: int = 2,
    num_nodes: int = 12,
    num_days: int = 4,
    seed: int = 0,
    request_windows: int = 32,
    encoder: STEncoderConfig | None = None,
):
    """A multi-tenant serving fixture over one synthetic scenario.

    Returns ``(pool, windows, scenario)``: a :class:`ModelPool` holding
    ``num_tenants`` independently seeded URCL forecasters that all share
    the scenario's single graph (tenant ids ``"tenant-0"...``), plus a
    ``(request_windows, time, nodes, channels)`` stack of raw request
    windows drawn from the stream.
    """
    dataset = load_dataset("pems08", num_days=num_days, num_nodes=num_nodes, seed=seed)
    scenario = build_streaming_scenario(dataset)
    spec = scenario.spec
    encoder = encoder or STEncoderConfig(
        residual_channels=4,
        dilation_channels=4,
        skip_channels=8,
        end_channels=8,
        dilations=(1, 2),
        adaptive_embedding_dim=3,
    )
    pool = ModelPool(network=scenario.network)
    for tenant_index in range(num_tenants):
        model = URCLModel(
            scenario.network,
            in_channels=spec.num_channels,
            input_steps=spec.input_steps,
            output_steps=spec.output_steps,
            out_channels=1,
            config=URCLConfig(encoder=encoder, buffer_capacity=64, replay_sample_size=4),
            rng=seed + tenant_index,
        )
        forecaster = Forecaster(
            model,
            scaler=scenario.scaler,
            target_channel=spec.target_channel,
            training=TrainingConfig(batch_size=8),
        )
        pool.put(f"tenant-{tenant_index}", forecaster)
    series = scenario.raw_series
    starts = np.random.default_rng(seed + 99).integers(
        0, series.shape[0] - spec.input_steps, size=request_windows
    )
    windows = np.stack([series[s : s + spec.input_steps] for s in starts])
    return pool, windows, scenario
