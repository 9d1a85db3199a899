"""Resilience demo: fault injection, retries, breakers, graceful degradation.

Walks the serving engine's fault-tolerance machinery end to end:

1. a seeded :class:`repro.serve.FaultPlan` crashes workers and corrupts
   inbound windows while a closed loop runs — every accepted request still
   resolves (retried batches are bit-identical to a fault-free serve);
2. request deadlines expire stale work with a structured
   :class:`~repro.exceptions.DeadlineExceeded`;
3. a tenant whose model goes bad trips its circuit breaker and is served
   by the model-free historical-average fallback until the model heals,
   after which half-open probes close the breaker;
4. a poisoned online update rolls back to the pre-step weights bit-for-bit.

Run with::

    python examples/resilience_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DeadlineExceeded
from repro.serve import (
    EngineConfig,
    FaultPlan,
    ServingEngine,
    build_synthetic_tenants,
)


def main() -> None:
    pool, windows, scenario = build_synthetic_tenants(
        num_tenants=2, num_nodes=12, seed=3, request_windows=16
    )
    tenant = pool.resident[0]
    spec = scenario.spec

    # 1. Fault storm: seeded worker crashes + stalls + NaN corruption.  The
    #    supervisor restarts dead workers and requeues their batches; NaN
    #    windows are mask-and-imputed at admission.  Nothing is lost.
    direct = pool.forecaster(tenant).predict(windows)
    config = EngineConfig(
        max_batch_size=8, max_delay_ms=4.0, num_workers=2,
        max_retries=4, retry_backoff_ms=5.0, supervise_interval_s=0.02,
        wedge_timeout_s=2.0, breaker_failures=4, breaker_reset_s=0.25,
        fallback="ha",
    )
    # crash_rate=1.0 + a fault limit of 3 makes the storm deterministic:
    # the first three batch dispatches die, everything after them serves.
    crash_plan = FaultPlan(seed=0, worker_crash_rate=1.0, worker_fault_limit=3)
    with ServingEngine(pool, config, faults=crash_plan) as engine:
        futures = [engine.submit(window, tenant=tenant) for window in windows]
        served = np.stack([future.result(timeout=60) for future in futures])
        stats = engine.injector.stats()
        print(
            f"fault storm: {stats['crashes']} injected worker crashes, "
            f"{engine.metrics.worker_restarts} workers restarted, "
            f"{engine.metrics.retried} requests retried, 0 lost"
        )
        assert np.array_equal(served, direct)
        print("retried batches are bit-identical to a fault-free serve")

    # 2. Deadlines: a request that cannot be served inside its budget fails
    #    fast with a structured error instead of arriving uselessly late.
    #    The engine's only worker is stalled on an earlier batch, so the
    #    request waits in the batcher (an idle worker would take it at once).
    slow = EngineConfig(max_batch_size=64, max_delay_ms=200.0, num_workers=1,
                        supervise_interval_s=0.01)
    stall = FaultPlan(seed=0, worker_stall_rate=1.0, stall_ms=150.0,
                      worker_fault_limit=1)
    with ServingEngine(pool, slow, faults=stall) as engine:
        engine.submit(windows[1], tenant=tenant)
        future = engine.submit(windows[0], tenant=tenant, deadline_ms=15.0)
        try:
            future.result(timeout=60)
            raise AssertionError("deadline should have expired in the batcher")
        except DeadlineExceeded as exc:
            print(
                f"deadline: expired after {exc.waited_ms:.0f} ms "
                f"(budget {exc.deadline_ms:.0f} ms, tenant {exc.tenant!r})"
            )

    # 3. Circuit breaker + fallback: poison the model and publish it to
    #    serving, so every batch fails.
    #    After `breaker_failures` consecutive failures the breaker opens and
    #    requests are answered by the historical-average baseline; healing
    #    the model lets half-open probes close the breaker again.
    with ServingEngine(pool, config, faults=None) as engine:
        engine.predict(windows[0], tenant=tenant, timeout=60)  # teach HA the shape
        forecaster = pool.forecaster(tenant)
        saved = forecaster.snapshot_state()
        for parameter in forecaster.model.parameters():
            parameter.data[...] = np.nan  # the model is now sick
        engine.publish(tenant)  # serving reads published weights only
        # Sequential requests, so each is its own micro-batch = one breaker
        # event; the 5th onwards hits an already-open breaker (fast fail ->
        # fallback) instead of touching the sick model at all.
        answers = np.stack([
            engine.predict(window, tenant=tenant, timeout=60)
            for window in windows[:6]
        ])
        breaker = engine.health()["breakers"][tenant]
        print(
            f"breaker: state={breaker['state']} after a sick model; "
            f"{engine.metrics.fallbacks} requests served by the HA fallback "
            f"(finite: {bool(np.isfinite(answers).all())})"
        )
        assert breaker["state"] != "closed"
        assert np.isfinite(answers).all()
        forecaster.restore_state(saved)  # the model heals
        engine.publish(tenant)
        import time
        time.sleep(config.breaker_reset_s * 1.5)  # let the breaker half-open
        healed = engine.predict(windows[0], tenant=tenant, timeout=60)
        assert np.array_equal(healed, direct[0])
        print(
            f"breaker: state={engine.health()['breakers'][tenant]['state']} "
            "after successful half-open probe — healthy serving resumed"
        )

    # 4. Update rollback: a poisoned online batch raises mid-step and the
    #    model + optimizer are restored bit-for-bit.
    with ServingEngine(pool, config) as engine:
        series = scenario.raw_series
        window, horizon = spec.input_steps, spec.output_steps
        inputs = np.stack([series[:window]])
        actual = np.stack(
            [series[window : window + horizon, :,
                    spec.target_channel : spec.target_channel + 1]]
        )
        before = engine.predict(windows[0], tenant=tenant, timeout=60)
        try:
            engine.update(inputs, actual[:, :-1], tenant=tenant)  # wrong horizon
        except Exception as exc:
            print(f"update rollback: poisoned step raised {type(exc).__name__}, "
                  f"{engine.metrics.rollbacks} rollback(s) recorded")
        after = engine.predict(windows[0], tenant=tenant, timeout=60)
        assert engine.metrics.rollbacks == 1
        assert np.array_equal(before, after)
        print("post-rollback predictions are bit-identical to pre-update")

    print("resilience demo complete: all futures resolved, model healed, "
          "weights rolled back")


if __name__ == "__main__":
    main()
