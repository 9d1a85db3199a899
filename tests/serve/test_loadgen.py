"""The closed-loop load generator: every request is accounted for."""

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.serve import EngineConfig, Forecaster, ServingEngine, run_closed_loop


@pytest.fixture
def forecaster(tiny_scenario, tiny_urcl_config):
    return Forecaster.from_scenario(
        tiny_scenario, config=tiny_urcl_config,
        training=TrainingConfig(batch_size=8), seed=0,
    )


@pytest.fixture
def windows(tiny_scenario):
    series = tiny_scenario.raw_series
    steps = tiny_scenario.spec.input_steps
    return np.stack([series[s : s + steps] for s in range(0, 8 * steps, steps)])


class TestClosedLoop:
    def test_admission_errors_count_as_failures_and_clients_go_on(self, forecaster,
                                                                  windows):
        windows = np.array(windows, dtype=float)
        windows[3, 0, 0, 0] = np.nan
        config = EngineConfig(max_batch_size=4, max_delay_ms=2.0, nan_policy="reject")
        with ServingEngine(forecaster, config) as engine:
            result = run_closed_loop(engine, windows, concurrency=2, total_requests=32)
        # 32 requests cycle the 8 windows four times; the NaN window is
        # refused by submit() each time and the clients carry on.
        assert result["completed"] == 28
        assert result["failed"] == 4
        assert result["errors"] == {"DataError": 4}
        assert result["lost"] == 0
