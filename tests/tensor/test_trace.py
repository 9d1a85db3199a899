"""Traced (tape capture + replay) vs eager bit-parity across the model zoo.

The compiled path must be invisible: eval-mode ``no_grad`` forwards replayed
from a captured program have to produce bit-identical arrays to the untraced
forward, training must stay on the tape (bit-identical to the backward that
kept the whole graph), shape misses must fall back transparently, knob
changes (spatial mode, default dtype) must re-key the program cache, and
structure sharing must only ever happen between models on the same graph.
"""

import numpy as np
import pytest

import repro  # noqa: F401 - registers the model zoo
from repro.core.config import URCLConfig
from repro.core.urcl import URCLModel
from repro.graph import sparse as gs
from repro.graph.generators import grid_network
from repro.models.registry import build_model
from repro.nn.losses import mae_loss
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.rnn import GRU
from repro.tensor import (
    Tensor,
    clear_program_cache,
    declare_const,
    default_dtype,
    export_structures,
    no_grad,
    program_cache_stats,
    run_compiled,
    stack,
    traced_execution,
)
from repro.tensor import trace
from repro.tensor.program import INPUT, INTER, ProgramInstance

ZOO = ("graphwavenet", "dcrnn", "geoman", "stgcn", "mtgnn", "agcrn", "stgode")
URCL_BACKBONES = ("graphwavenet", "dcrnn", "geoman")

SHAPES = {"in_channels": 2, "input_steps": 12, "output_steps": 3, "out_channels": 1}


@pytest.fixture(autouse=True)
def fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


def _build(name, network, seed=1):
    return build_model(name, dict(SHAPES), network, rng=seed)


def _inputs(network, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (batch, SHAPES["input_steps"], network.num_nodes, SHAPES["in_channels"])
    )


def _targets(network, batch=2, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (batch, SHAPES["output_steps"], network.num_nodes, SHAPES["out_channels"])
    )


def _eager_predict(model, x):
    with traced_execution(False):
        return model.predict(x)


# The oracle: ``Tensor.backward`` as it was before it freed the graph as it
# went, copied verbatim (every interior node keeps its grad and closure)
# except that it starts from the loss's autograd node.
def _retaining_backward(self, grad: np.ndarray | float | None = None) -> None:
    """Run reverse-mode autodiff from this tensor.

    Parameters
    ----------
    grad:
        Upstream gradient.  Defaults to 1.0, which requires ``self`` to
        be a scalar.
    """
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        if self.size != 1:
            raise RuntimeError("grad must be provided for non-scalar outputs")
        grad = np.ones_like(self.data)
    grad = np.asarray(grad, dtype=self.data.dtype)
    if grad.shape != self.shape:
        grad = np.broadcast_to(grad, self.shape).astype(self.data.dtype)

    # Topological order over the graph reachable from ``self``'s node.
    root = self._node or self
    order: list = []
    visited: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    root._accumulate(grad)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)


def _interior_nodes(loss):
    """Every interior autograd node of ``loss``'s graph, its root excluded."""
    root = loss._node
    seen, stack, interior = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node is not root and node._backward is not None:
            interior.append(node)
        stack.extend(node._parents)
    return interior


def _training_step(name, network, encoder_config):
    """One training step plus Adam: (leaf grads, parameters, interior nodes).

    URCL backbones run the full Alg. 1 step over a non-empty buffer (RMIR's
    virtual step, STMixup, the joint current loss and the STSimSiam views);
    the other zoo models run the baseline step the trainer gives them.
    """
    x, y = _inputs(network, batch=4), _targets(network, batch=4)
    if name in URCL_BACKBONES:
        config = URCLConfig(
            backbone=name, encoder=encoder_config, buffer_capacity=16,
            replay_sample_size=2, rmir_candidate_pool=4,
        )
        model = URCLModel(network, config=config, rng=1, **SHAPES)
        model.buffer.add_batch(x, y)
        loss = model.training_step(x + 0.5, y).total_loss
    else:
        model = _build(name, network)
        predictions = run_compiled(model, model.forward, Tensor(x), kind="train")
        loss = mae_loss(predictions, Tensor(y))
    interior = _interior_nodes(loss)
    optimizer = Adam(model.parameters(), lr=0.01)
    model.zero_grad()
    loss.backward()
    grads = [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    optimizer.step()
    return grads, [p.data.copy() for p in model.parameters()], interior


class TestForwardParity:
    @pytest.mark.parametrize("name", ZOO)
    def test_capture_and_replay_match_eager(self, small_network, name):
        model = _build(name, small_network)
        x = _inputs(small_network)
        eager = _eager_predict(model, x)
        captured = model.predict(x)
        replayed = model.predict(x)
        stats = program_cache_stats()
        assert np.array_equal(captured, eager)
        assert np.array_equal(replayed, eager)
        assert stats["untraceable"] == 0
        assert stats["captures"] == 1
        assert stats["replays"] >= 1


class TestTrainingParity:
    """Training never compiles: it runs on the tape, whose backward frees the
    graph as it goes without changing one bit of what it computes."""

    @pytest.mark.parametrize("name", ZOO)
    def test_step_bit_identical_to_retaining_backward(
        self, small_network, tiny_encoder_config, monkeypatch, name
    ):
        grads, params, interior = _training_step(name, small_network, tiny_encoder_config)
        assert interior and all(node.grad is None for node in interior)
        monkeypatch.setattr(Tensor, "backward", _retaining_backward)
        ref_grads, ref_params, ref_interior = _training_step(
            name, small_network, tiny_encoder_config
        )
        assert any(node.grad is not None for node in ref_interior)
        for got, want in zip(grads, ref_grads):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
        for got, want in zip(params, ref_params):
            assert np.array_equal(got, want)

    def test_grad_or_training_mode_call_leaves_captures_unchanged(self, small_network):
        model = _build("stgcn", small_network)
        x = Tensor(_inputs(small_network))
        before = program_cache_stats()["captures"]
        model.train(True)
        run_compiled(model, model.forward, x, kind="train")
        with no_grad():
            run_compiled(model, model.forward, x, kind="rmir")
        model.train(False)
        run_compiled(model, model.forward, x, kind="eval")
        assert program_cache_stats()["captures"] == before
        with no_grad():
            run_compiled(model, model.forward, x, kind="predict")
        assert program_cache_stats()["captures"] == before + 1


class TestFallbacksAndInvalidation:
    def test_shape_miss_recaptures_and_both_programs_stay_live(self, small_network):
        model = _build("stgcn", small_network)
        x2 = _inputs(small_network, batch=2)
        x3 = _inputs(small_network, batch=3, seed=1)
        e2, e3 = _eager_predict(model, x2), _eager_predict(model, x3)
        assert np.array_equal(model.predict(x2), e2)
        assert np.array_equal(model.predict(x3), e3)  # new shape -> new program
        stats = program_cache_stats()
        assert stats["captures"] == 2
        assert stats["shape_misses"] >= 1
        assert np.array_equal(model.predict(x2), e2)
        assert np.array_equal(model.predict(x3), e3)
        assert program_cache_stats()["captures"] == 2  # replays, not recaptures

    def test_escape_hatch_disables_capture(self, small_network):
        model = _build("stgcn", small_network)
        x = _inputs(small_network)
        with traced_execution(False):
            out = model.predict(x)
        stats = program_cache_stats()
        assert stats["captures"] == 0
        assert stats["entries"] == 0
        assert np.array_equal(model.predict(x), out)

    def test_spatial_mode_change_rekeys(self, small_network):
        model = _build("stgcn", small_network)
        x = _inputs(small_network)
        base = model.predict(x)
        assert program_cache_stats()["captures"] == 1
        with gs.spatial_mode("dense"):
            eager_dense = _eager_predict(model, x)
            assert np.array_equal(model.predict(x), eager_dense)
            assert program_cache_stats()["captures"] == 2
        # Back on the original knobs: the first program replays untouched.
        assert np.array_equal(model.predict(x), base)
        assert program_cache_stats()["captures"] == 2

    def test_dtype_change_rekeys(self, small_network):
        model = _build("stgcn", small_network)
        x = _inputs(small_network)
        out64 = model.predict(x)
        with default_dtype("float32"):
            eager32 = _eager_predict(model, x)
            assert np.array_equal(model.predict(x), eager32)
            assert np.array_equal(model.predict(x), eager32)
            assert program_cache_stats()["captures"] == 2
        assert np.array_equal(model.predict(x), out64)
        assert program_cache_stats()["captures"] == 2


class TestStructureSharing:
    def test_same_graph_models_share_one_structure(self, small_network):
        x = _inputs(small_network)
        first = _build("stgcn", small_network, seed=1)
        second = _build("stgcn", small_network, seed=2)
        e1, e2 = _eager_predict(first, x), _eager_predict(second, x)
        assert np.array_equal(first.predict(x), e1)
        assert np.array_equal(second.predict(x), e2)  # adopts the shared structure
        assert np.array_equal(second.predict(x), e2)
        stats = program_cache_stats()
        assert stats["captures"] == 1
        assert stats["structure_hits"] == 1

    def test_structure_hit_builds_one_instance(self, small_network, monkeypatch):
        x = _inputs(small_network)
        _build("stgcn", small_network, seed=1).predict(x)
        second = _build("stgcn", small_network, seed=2)
        eager = _eager_predict(second, x)
        built = []

        class CountingInstance(ProgramInstance):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(trace, "ProgramInstance", CountingInstance)
        assert np.array_equal(second.predict(x), eager)  # a structure hit
        stats = program_cache_stats()
        assert stats["structure_hits"] == 1
        assert len(built) == 1  # the validating build is the one kept
        assert stats["bytes"] == built[0].arena_nbytes()
        assert np.array_equal(second.predict(x), eager)
        assert len(built) == 1 and program_cache_stats()["instance_builds"] == 1

    def test_cross_graph_models_never_share(self):
        n1 = grid_network(3, 3, rng=7)
        n2 = grid_network(3, 3, rng=99)
        x = _inputs(n1)
        m1, m2 = _build("stgcn", n1, seed=1), _build("stgcn", n2, seed=1)
        e1, e2 = _eager_predict(m1, x), _eager_predict(m2, x)
        assert not np.array_equal(e1, e2)  # the graphs genuinely differ
        assert np.array_equal(m1.predict(x), e1)
        assert np.array_equal(m2.predict(x), e2)
        assert np.array_equal(m2.predict(x), e2)
        stats = program_cache_stats()
        assert stats["captures"] == 2
        assert stats["structure_hits"] == 0


class TestArenaBytes:
    @pytest.mark.parametrize("name", ZOO)
    def test_counts_each_owned_buffer_once(self, small_network, name):
        model = _build(name, small_network)
        x = _inputs(small_network)
        model.predict(x)
        model.predict(x)  # the replay builds the one instance
        (structure,) = [structure for _, structure in export_structures()]
        instance = ProgramInstance(structure, model)
        arena = [
            array
            for slot, array in zip(structure.slots, instance.env)
            if slot.kind in (INPUT, INTER)
        ]
        owned = {id(array): array.nbytes for array in arena if array.base is None}
        assert any(array.base is not None for array in arena)  # views own nothing
        assert instance.arena_nbytes() == sum(owned.values())
        assert program_cache_stats()["bytes"] == instance.arena_nbytes()

    @pytest.mark.parametrize("name", ZOO)
    def test_slot_reuse_covers_every_program(self, small_network, name):
        model = _build(name, small_network)
        model.predict(_inputs(small_network))
        (structure,) = [structure for _, structure in export_structures()]
        instance = ProgramInstance(structure, model)
        pooled = [
            (slot, array)
            for slot, array in zip(structure.slots, instance.env)
            if slot.kind == INTER and array.base is None
        ]
        owned = {id(array): array.nbytes for _, array in pooled}
        assert sum(owned.values()) < sum(slot.nbytes for slot, _ in pooled)


class _GRUHead(Module):
    def __init__(self):
        super().__init__()
        self.gru = GRU(2, 5, rng=3)

    def forward(self, x):
        sequence, hidden = self.gru(x)
        return sequence.sum(axis=1) + hidden


class TestGRU:
    """``nn.GRU`` has one forward: the eager loop, recorded per step."""

    def test_gru_compiles_bit_identical(self):
        model = _GRUHead().eval()
        x = np.random.default_rng(4).standard_normal((3, 6, 4, 2))

        def run():
            with no_grad():
                return run_compiled(model, model.forward, Tensor(x), kind="predict").data

        with traced_execution(False):
            eager = run()
        captured, replayed = run(), run()
        stats = program_cache_stats()
        assert stats["untraceable"] == 0
        assert stats["captures"] == 1 and stats["replays"] == 1
        assert np.array_equal(captured, eager)
        assert np.array_equal(replayed, eager)

    def test_gru_training_step_bit_identical_to_reference_loop(self):
        model = _GRUHead()
        x = np.random.default_rng(5).standard_normal((2, 5, 3, 2))

        def step(sequence, hidden):
            loss = (sequence * sequence).sum() + hidden.sum()
            model.zero_grad()
            loss.backward()
            return [p.grad.copy() for p in model.parameters()]

        sequence, hidden = model.gru(Tensor(x))
        values = (sequence.data.copy(), hidden.data.copy())
        grads = step(sequence, hidden)

        inputs, cell = Tensor(x), model.gru.cell
        h = Tensor(np.zeros((2, 3, 5)))
        outputs = []
        for t in range(x.shape[1]):
            h = cell(inputs[:, t, :, :], h)
            outputs.append(h)
        ref_sequence = stack(outputs, axis=1)
        assert np.array_equal(values[0], ref_sequence.data)
        assert np.array_equal(values[1], h.data)
        for got, want in zip(grads, step(ref_sequence, h)):
            assert np.array_equal(got, want)


class _Affine(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.full(3, 1.5))


class TestCaptureIdentity:
    """The capture tape pins no intermediate: an ``id()`` that a dead traced
    tensor left behind must never resolve to that tensor's slot."""

    @pytest.mark.parametrize("declared", [True, False])
    def test_reused_id_never_resolves_to_a_dead_slot(self, declared):
        model = _Affine().eval()
        reused = []

        def forward(x):
            dead = x * 2.0
            dead_id = id(dead)
            del dead
            source = np.full(x.shape, 3.0)
            alive = []
            reborn = Tensor(source)
            while id(reborn) != dead_id and len(alive) < 100_000:
                alive.append(reborn)
                reborn = Tensor(source)
            reused.append(id(reborn) == dead_id)
            if declared:
                declare_const(reborn)
            return x * model.weight + reborn

        def run(x):
            with no_grad():
                return run_compiled(model, forward, Tensor(x), kind="predict").data

        x = np.random.default_rng(0).standard_normal((2, 3))
        with traced_execution(False):
            eager = run(x)
        captured, replayed = run(x), run(x)
        assert reused[1]  # the capture really handed the dead id to ``reborn``
        assert np.array_equal(captured, eager)
        assert np.array_equal(replayed, eager)
        stats = program_cache_stats()
        assert (stats["replays"], stats["untraceable"]) == ((1, 0) if declared else (0, 1))
