"""ProgramStructure serialization: round-trip, zero-copy CSR, rejection."""

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.models.registry import build_model
from repro.serve import Forecaster
from repro.tensor import (
    clear_program_cache,
    export_structures,
    install_structures,
    program_cache_stats,
    traced_execution,
)
from repro.tensor.serialize import dump_structures, load_structures


@pytest.fixture
def captured(tiny_scenario, tiny_urcl_config):
    """A forecaster warmed so the trace registry holds its structures."""
    forecaster = Forecaster.from_scenario(
        tiny_scenario, config=tiny_urcl_config,
        training=TrainingConfig(batch_size=8), seed=0,
    )
    series = tiny_scenario.raw_series
    steps = tiny_scenario.spec.input_steps
    windows = np.stack([series[:steps], series[1 : steps + 1]])
    forecaster.predict(windows)
    items = export_structures()
    assert items, "predict should capture at least one shareable structure"
    return forecaster, windows, items


class TestRoundTrip:
    def test_blob_and_table_round_trip(self, captured):
        _, _, items = captured
        blob, table = dump_structures(items)
        assert isinstance(blob, bytes) and blob
        assert all(isinstance(a, np.ndarray) for a in table)
        loaded = load_structures(blob, table)
        assert [fp for fp, _ in loaded] == [fp for fp, _ in items]
        for (_, original), (_, restored) in zip(items, loaded):
            assert len(restored.slots) == len(original.slots)
            assert len(restored.nodes) == len(original.nodes)
            assert restored.input_slot == original.input_slot
            assert restored.out_slot == original.out_slot
            assert restored.shareable
            # Process-local leaf tensors never travel.
            assert all(slot.leaf is None for slot in restored.slots)

    def test_table_is_deduplicated_by_identity(self, captured):
        _, _, items = captured
        blob, table = dump_structures(items)
        ids = [id(a) for a in table]
        assert len(ids) == len(set(ids))
        # Dumping twice externalizes the same live buffers.
        _, table2 = dump_structures(items)
        assert len(table2) == len(table)

    def test_loaded_arrays_are_zero_copy_views_of_table(self, captured):
        _, _, items = captured
        blob, table = dump_structures(items)
        loaded = load_structures(blob, table)
        shared = 0
        for _, structure in loaded:
            for slot in structure.slots:
                if slot.array is not None:
                    assert any(np.shares_memory(slot.array, a) for a in table)
                    shared += 1
        assert shared, "expected at least one baked CONST buffer"

    def test_load_accepts_read_only_views(self, captured):
        _, _, items = captured
        blob, table = dump_structures(items)
        frozen = []
        for array in table:
            ro = array.view()
            ro.flags.writeable = False
            frozen.append(ro)
        loaded = load_structures(blob, frozen)
        assert len(loaded) == len(items)


class TestRecurrentShipping:
    """A recurrent model's structure (its cell recorded once per step) replays
    from a dump/load round trip exactly as the eager forward computes."""

    SHAPES = {"in_channels": 2, "input_steps": 12, "output_steps": 3, "out_channels": 1}

    @pytest.mark.parametrize("name", ["dcrnn", "agcrn"])
    def test_loaded_structure_replays_bit_identical(self, small_network, name):
        clear_program_cache()
        x = np.random.default_rng(0).standard_normal(
            (2, self.SHAPES["input_steps"], small_network.num_nodes, self.SHAPES["in_channels"])
        )
        build_model(name, dict(self.SHAPES), small_network, rng=1).predict(x)
        items = export_structures()
        assert len(items) == 1
        blob, table = dump_structures(items)

        clear_program_cache()
        assert install_structures(load_structures(blob, table)) == 1
        model = build_model(name, dict(self.SHAPES), small_network, rng=2)
        with traced_execution(False):
            eager = model.predict(x)
        try:
            assert np.array_equal(model.predict(x), eager)
            stats = program_cache_stats()
            assert stats["structure_hits"] == 1
            assert stats["captures"] == 0 and stats["untraceable"] == 0
            assert np.array_equal(model.predict(x), eager)
        finally:
            clear_program_cache()


class TestRejection:
    def test_non_shareable_structure_is_rejected(self, captured):
        _, _, items = captured
        fingerprint, structure = items[0]
        import copy

        broken = copy.copy(structure)
        broken.shareable = False
        with pytest.raises(ValueError, match="shareable"):
            dump_structures([(fingerprint, broken)])

    def test_unnamed_param_slot_is_rejected(self, captured):
        from repro.tensor.program import PARAM

        _, _, items = captured
        fingerprint, structure = items[0]
        param_slots = [s for s in structure.slots if s.kind == PARAM]
        assert param_slots, "model structures carry named parameter slots"
        import copy

        broken = copy.copy(structure)
        broken.slots = list(structure.slots)
        doctored = copy.copy(param_slots[0])
        doctored.name = None
        broken.slots[structure.slots.index(param_slots[0])] = doctored
        with pytest.raises(ValueError, match="unnamed parameter"):
            dump_structures([(fingerprint, broken)])
