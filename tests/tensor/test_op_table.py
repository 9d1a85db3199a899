"""The op table, checked entry by entry.

* **Eager against references.**  Each reference below is the eager body and
  the vector-Jacobian product an op had when its arithmetic was still written
  out inside ``tensor.py``, copied verbatim as plain NumPy: sigmoid is
  ``1.0 / (1.0 + np.exp(-x))`` with VJP ``g * data * (1.0 - data)``, and so
  on.  Eager results and the gradients ``backward()`` delivers must equal
  them bit for bit, at float32 and float64, over broadcast shapes, negatives
  and ``-0.0``.  Replay and eager share one kernel, so this is what pins the
  eager bits.
* **One-op forward differential.**  Every forward primitive, alone in a
  module: capture, replay, serialize, reload into a cleared cache and replay
  again, each bit-identical to eager.
* **Scalar operands keep a float32 model float32** under a float64 default.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.generators import grid_network
from repro.nn.module import Module, Parameter
from repro.serve.sharding import ShardPlanner
from repro.tensor import (
    HaloExchange,
    PartitionContext,
    Tensor,
    clear_program_cache,
    concatenate,
    default_dtype,
    export_structures,
    install_structures,
    maximum,
    minimum,
    no_grad,
    program_cache_stats,
    run_compiled,
    spmm,
    spmm_multi,
    stack,
    traced_execution,
    where,
)
from repro.tensor import functional as F
from repro.tensor.serialize import dump_structures, load_structures
from repro.tensor.tensor import PRIMITIVES


# ---------------------------------------------------------------------- #
# Verbatim helpers
# ---------------------------------------------------------------------- #
def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _spmm_leading(matrix, array):
    if array.ndim == 1:
        return matrix @ array
    if array.ndim == 2:
        return matrix @ array
    moved = np.moveaxis(array, -2, 0)
    flat = moved.reshape(moved.shape[0], -1)
    product = matrix @ flat
    out = np.moveaxis(product.reshape((matrix.shape[0],) + moved.shape[1:]), 0, -2)
    return np.ascontiguousarray(out)


def _spmm_multi_forward(stacked, array, count, rows):
    size = stacked.shape[1]
    moved = np.moveaxis(array, -2, 0)
    lead = moved.shape[1:]
    flat = moved.reshape(size, -1)
    product = stacked @ flat
    blocks = np.moveaxis(product.reshape(count, rows, *lead), (0, 1), (-2, -3))
    channels = array.shape[-1]
    out_shape = array.shape[:-2] + (rows, count * channels)
    return np.ascontiguousarray(blocks.reshape(out_shape))


def _spmm_multi_vjp(transposed, grad, count, rows, size, lead, channels):
    g_blocks = grad.reshape(grad.shape[:-1] + (count, channels))
    g_moved = np.moveaxis(g_blocks, (-2, -3), (0, 1))
    g_flat = np.ascontiguousarray(g_moved).reshape(count * rows, -1)
    x_grad = transposed @ g_flat
    return np.ascontiguousarray(np.moveaxis(x_grad.reshape(size, *lead), 0, -2))


def _sum_vjp(grad, shape, axis, keepdims):
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad, shape).copy()


def _max_vjp(grad, x, data, axis, keepdims):
    expanded_data = data
    expanded_grad = grad
    if axis is not None and not keepdims:
        expanded_data = np.expand_dims(data, axis)
        expanded_grad = np.expand_dims(grad, axis)
    mask = x == expanded_data
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return expanded_grad * mask / counts


def _getitem_vjp(grad, shape, dtype, index, basic):
    full = np.zeros(shape, dtype=dtype)
    if basic:
        full[index] = grad
    else:
        np.add.at(full, index, grad)
    return full


def _clip_mask(x, minimum, maximum):
    mask = np.ones_like(x)
    if minimum is not None:
        mask = mask * (x >= minimum)
    if maximum is not None:
        mask = mask * (x <= maximum)
    return mask


def _take(grad, axis, key):
    index = [slice(None)] * grad.ndim
    index[axis] = key
    return grad[tuple(index)]


# ---------------------------------------------------------------------- #
# Cases
# ---------------------------------------------------------------------- #
_MIX = sparse.csr_matrix(np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 0.0], [1.0, 0.0, -1.0]]))
_STACKED = sparse.vstack([_MIX, sparse.identity(3) * 0.5]).tocsr()
_DUPLICATES = np.array([2, 0, 2])


class Case:
    """``apply(*tensors)`` against ``forward(*arrays)``; ``vjps[i](g, *arrays)``
    is operand ``i``'s gradient (``None``: the operand needs none)."""

    def __init__(self, shapes, apply, forward, *vjps, positive=False, mask=None, no_grad=False):
        self.shapes = shapes
        self.apply = apply
        self.forward = forward
        self.vjps = vjps
        self.positive = positive
        self.mask = mask  # operand index passed as a boolean array
        self.no_grad = no_grad


def _ub(i):
    return lambda g, *arrays: _unbroadcast(g, arrays[i].shape)


REFERENCES = {
    "add": [
        Case([(3, 4), (4,)], lambda a, b: a + b, lambda x, y: x + y, _ub(0), _ub(1)),
        Case([(2, 1, 4), (3, 1)], lambda a, b: a + b, lambda x, y: x + y, _ub(0), _ub(1)),
    ],
    "sub": [
        Case(
            [(3, 4), (3, 1)],
            lambda a, b: a - b,
            lambda x, y: x - y,
            _ub(0),
            lambda g, x, y: _unbroadcast(-g, y.shape),
        ),
    ],
    "mul": [
        Case(
            [(2, 3, 4), (3, 4)],
            lambda a, b: a * b,
            lambda x, y: x * y,
            lambda g, x, y: _unbroadcast(g * y, x.shape),
            lambda g, x, y: _unbroadcast(g * x, y.shape),
        ),
    ],
    "div": [
        Case(
            [(3, 4), (4,)],
            lambda a, b: a / b,
            lambda x, y: x / y,
            lambda g, x, y: _unbroadcast(g / y, x.shape),
            lambda g, x, y: _unbroadcast(-g * x / (y**2), y.shape),
        ),
    ],
    "neg": [Case([(3, 4)], lambda a: -a, lambda x: -x, lambda g, x: np.negative(g))],
    "pow": [
        Case([(3, 4)], lambda a: a**3, lambda x: x**3, lambda g, x: g * 3 * x ** (3 - 1)),
        Case(
            [(3, 4)],
            lambda a: a**0.5,
            lambda x: x**0.5,
            lambda g, x: g * 0.5 * x ** (0.5 - 1),
            positive=True,
        ),
    ],
    "exp": [Case([(3, 4)], lambda a: a.exp(), np.exp, lambda g, x: g * np.exp(x))],
    "log": [
        Case([(3, 4)], lambda a: a.log(), np.log, lambda g, x: g / x, positive=True),
    ],
    "sqrt": [
        Case(
            [(3, 4)],
            lambda a: a.sqrt(),
            np.sqrt,
            lambda g, x: g * 0.5 / np.maximum(np.sqrt(x), 1e-12),
            positive=True,
        ),
    ],
    "abs": [Case([(3, 4)], lambda a: a.abs(), np.abs, lambda g, x: g * np.sign(x))],
    "tanh": [
        Case([(3, 4)], lambda a: a.tanh(), np.tanh, lambda g, x: g * (1.0 - np.tanh(x) ** 2)),
    ],
    "sigmoid": [
        Case(
            [(3, 4)],
            lambda a: a.sigmoid(),
            lambda x: 1.0 / (1.0 + np.exp(-x)),
            lambda g, x: g * (1.0 / (1.0 + np.exp(-x))) * (1.0 - 1.0 / (1.0 + np.exp(-x))),
        ),
    ],
    "relu": [
        Case([(3, 4)], lambda a: a.relu(), lambda x: x * (x > 0), lambda g, x: g * (x > 0)),
    ],
    "clip": [
        Case(
            [(3, 4)],
            lambda a: a.clip(-0.5, 0.75),
            lambda x: np.clip(x, -0.5, 0.75),
            lambda g, x: g * _clip_mask(x, -0.5, 0.75),
        ),
        Case(
            [(3, 4)],
            lambda a: a.clip(maximum=0.25),
            lambda x: np.clip(x, None, 0.25),
            lambda g, x: g * _clip_mask(x, None, 0.25),
        ),
    ],
    "sum": [
        Case(
            [(2, 3, 4)],
            lambda a: a.sum(axis=1),
            lambda x: x.sum(axis=1),
            lambda g, x: _sum_vjp(g, x.shape, 1, False),
        ),
        Case(
            [(2, 3, 4)],
            lambda a: a.sum(axis=(0, 2), keepdims=True),
            lambda x: x.sum(axis=(0, 2), keepdims=True),
            lambda g, x: _sum_vjp(g, x.shape, (0, 2), True),
        ),
        Case(
            [(3, 4)],
            lambda a: a.sum(),
            lambda x: x.sum(),
            lambda g, x: _sum_vjp(g, x.shape, None, False),
        ),
    ],
    "max": [
        Case(
            [(3, 4)],
            lambda a: a.max(axis=1),
            lambda x: x.max(axis=1),
            lambda g, x: _max_vjp(g, x, x.max(axis=1), 1, False),
        ),
        Case(
            [(2, 3, 4)],
            lambda a: a.max(axis=-1, keepdims=True),
            lambda x: x.max(axis=-1, keepdims=True),
            lambda g, x: _max_vjp(g, x, x.max(axis=-1, keepdims=True), -1, True),
        ),
        Case(
            [(3, 4)],
            lambda a: a.max(),
            lambda x: x.max(),
            lambda g, x: _max_vjp(g, x, x.max(), None, False),
        ),
    ],
    "reshape": [
        Case([(3, 4)], lambda a: a.reshape(2, 6), lambda x: x.reshape((2, 6)),
             lambda g, x: g.reshape(x.shape)),
        Case([(3, 4)], lambda a: a.T.reshape(-1), lambda x: x.T.reshape(-1),
             lambda g, x: g.reshape((4, 3)).transpose(np.argsort((1, 0)))),
    ],
    "transpose": [
        Case([(2, 3, 4)], lambda a: a.transpose(2, 0, 1), lambda x: x.transpose((2, 0, 1)),
             lambda g, x: g.transpose(np.argsort((2, 0, 1)))),
    ],
    "expand_dims": [
        Case([(3, 4)], lambda a: a.expand_dims(1), lambda x: np.expand_dims(x, 1),
             lambda g, x: np.squeeze(g, axis=1)),
    ],
    "squeeze": [
        Case([(3, 1, 4)], lambda a: a.squeeze(1), lambda x: np.squeeze(x, axis=1),
             lambda g, x: g.reshape(x.shape)),
    ],
    "pad": [
        Case(
            [(3, 4)],
            lambda a: a.pad(((1, 0), (0, 2))),
            lambda x: np.pad(x, ((1, 0), (0, 2))),
            lambda g, x: g[(slice(1, 4), slice(0, 4))],
        ),
    ],
    "getitem": [
        Case([(3, 4)], lambda a: a[1:, ::2], lambda x: x[1:, ::2],
             lambda g, x: _getitem_vjp(g, x.shape, x.dtype, (slice(1, None), slice(None, None, 2)), True)),
        Case([(3, 4)], lambda a: a[_DUPLICATES], lambda x: x[_DUPLICATES],
             lambda g, x: _getitem_vjp(g, x.shape, x.dtype, _DUPLICATES, False)),
        Case([(2, 3, 4)], lambda a: a[:, _DUPLICATES, 1], lambda x: x[:, _DUPLICATES, 1],
             lambda g, x: _getitem_vjp(g, x.shape, x.dtype, (slice(None), _DUPLICATES, 1), False)),
    ],
    "matmul": [
        Case(
            [(3, 4), (4, 5)],
            lambda a, b: a @ b,
            np.matmul,
            lambda g, x, y: _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape),
            lambda g, x, y: _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape),
        ),
        Case(
            [(2, 3, 4), (4, 5)],
            lambda a, b: a @ b,
            np.matmul,
            lambda g, x, y: _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape),
            lambda g, x, y: _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape),
        ),
        Case(
            [(4,), (2, 4, 5)],
            lambda a, b: a @ b,
            np.matmul,
            lambda g, x, y: _unbroadcast((g[..., None, :] * y).sum(axis=-1), x.shape),
            lambda g, x, y: _unbroadcast(x[..., :, None] * g[..., None, :], y.shape),
        ),
        Case(
            [(2, 3, 4), (4,)],
            lambda a, b: a @ b,
            np.matmul,
            lambda g, x, y: _unbroadcast(g[..., :, None] * y, x.shape),
            lambda g, x, y: _unbroadcast(
                (x * g[..., :, None]).sum(axis=tuple(range(x.ndim - 1))), y.shape
            ),
        ),
        Case(
            [(4,), (4,)],
            lambda a, b: a @ b,
            np.matmul,
            lambda g, x, y: g * y,
            lambda g, x, y: g * x,
        ),
    ],
    "spmm": [
        Case(
            [(2, 3, 4)],
            lambda a: spmm(_MIX, a),
            lambda x: _spmm_leading(_MIX.astype(x.dtype), x),
            lambda g, x: _spmm_leading(_MIX.astype(x.dtype).T, g),
        ),
        Case(
            [(3, 4)],
            lambda a: spmm(_MIX, a),
            lambda x: _spmm_leading(_MIX.astype(x.dtype), x),
            lambda g, x: _spmm_leading(_MIX.astype(x.dtype).T, g),
        ),
    ],
    "spmm_multi": [
        Case(
            [(2, 5, 3, 4)],
            lambda a: spmm_multi(_STACKED, a, 2),
            lambda x: _spmm_multi_forward(_STACKED.astype(x.dtype), x, 2, 3),
            lambda g, x: _spmm_multi_vjp(
                _STACKED.astype(x.dtype).T, g, 2, 3, 3, (2, 5, 4), 4
            ),
        ),
    ],
    "concatenate": [
        Case(
            [(3, 2), (3, 4)],
            lambda a, b: concatenate([a, b], axis=1),
            lambda x, y: np.concatenate([x, y], axis=1),
            lambda g, x, y: _take(g, 1, slice(0, 2)),
            lambda g, x, y: _take(g, 1, slice(2, 6)),
        ),
    ],
    "stack": [
        Case(
            [(3, 4), (3, 4)],
            lambda a, b: stack([a, b], axis=1),
            lambda x, y: np.stack([x, y], axis=1),
            lambda g, x, y: _take(g, 1, 0),
            lambda g, x, y: _take(g, 1, 1),
        ),
    ],
    "where": [
        Case(
            [(3, 4), (3, 4), (4,)],
            lambda c, a, b: where(c, a, b),
            lambda c, x, y: np.where(c, x, y),
            None,
            lambda g, c, x, y: _unbroadcast(g * c, x.shape),
            lambda g, c, x, y: _unbroadcast(g * ~c, y.shape),
            mask=0,
        ),
    ],
    # The comparisons are non-differentiable: they reach a user through the
    # ops that build a condition from them.
    "greater": [
        Case(
            [(3, 4)],
            lambda a: F.leaky_relu(a, 0.1),
            lambda x: np.where(x > 0, x, x * 0.1),
            no_grad=True,
        ),
        Case(
            [(3, 4)],
            lambda a: F.elu(a, 0.5),
            lambda x: np.where(x > 0, x, (np.exp(x) - 1.0) * 0.5),
            no_grad=True,
        ),
    ],
    "greater_equal": [
        Case(
            [(3, 4), (4,)],
            maximum,
            lambda x, y: np.where(x >= y, x, y),
            lambda g, x, y: _unbroadcast(g * (x >= y), x.shape),
            lambda g, x, y: _unbroadcast(g * ~(x >= y), y.shape),
        ),
    ],
    "less_equal": [
        Case(
            [(3, 4), (3, 4)],
            minimum,
            lambda x, y: np.where(x <= y, x, y),
            lambda g, x, y: _unbroadcast(g * (x <= y), x.shape),
            lambda g, x, y: _unbroadcast(g * ~(x <= y), y.shape),
        ),
    ],
    "halo_gather": [
        Case([(2, 3, 6, 4)], lambda a: _gather_one_shard(a), lambda x: x, no_grad=True),
    ],
}


def _gather_one_shard(tensor):
    """A one-shard full gather: every row is the shard's own."""
    plan = ShardPlanner(1).plan(grid_network(2, 3, rng=0).graph)
    context = PartitionContext(plan, 0, HaloExchange(1))
    return context._gather(tensor, context._full_gather_spec())


def _draw(rng, shape, dtype, positive):
    values = rng.standard_normal(shape) * 2.0
    if positive:
        values = np.abs(values) + 0.05
    flat = values.reshape(-1)
    flat[::5] = 0.0
    flat[1::5] = -0.0
    if not positive:
        flat[2::7] = -np.abs(flat[2::7])
    return values.astype(dtype)


def _same(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


_IDS = [(name, i) for name, cases in REFERENCES.items() for i in range(len(cases))]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,index", _IDS, ids=[f"{n}-{i}" for n, i in _IDS])
def test_eager_op_matches_reference_bits(name, index, seed, dtype):
    case = REFERENCES[name][index]
    rng = np.random.default_rng(seed)
    with default_dtype(dtype), np.errstate(all="ignore"):
        arrays = [_draw(rng, shape, dtype, case.positive) for shape in case.shapes]
        if case.mask is not None:
            arrays[case.mask] = arrays[case.mask] > 0
        operands = [
            array if i == case.mask else Tensor(array, requires_grad=not case.no_grad)
            for i, array in enumerate(arrays)
        ]
        if case.no_grad:
            with no_grad():
                result = case.apply(*operands)
        else:
            result = case.apply(*operands)
        expected = case.forward(*arrays)
        assert _same(result.data, expected), name
        if case.no_grad:
            return
        upstream = rng.standard_normal(result.shape).astype(dtype)
        result.backward(upstream)
        for operand, vjp in zip(operands, case.vjps):
            if vjp is None:
                continue
            reference = np.asarray(vjp(upstream.copy(), *arrays), dtype=dtype)
            assert _same(operand.grad, reference), name


def test_references_cover_the_op_table():
    assert set(REFERENCES) == set(PRIMITIVES)


# ---------------------------------------------------------------------- #
# One-op forward differential
# ---------------------------------------------------------------------- #
# ``x`` is (batch, time, nodes=3, channels=5); ``m`` carries parameters
# ``w`` (5,), ``positive`` (5,), ``mix`` (5, 6) and ``dense`` (3, 3).
FORWARD = {
    "add": [lambda m, x: x + m.w, lambda m, x: 0.5 + x],
    "sub": [lambda m, x: x - m.w, lambda m, x: 1.0 - x],
    "mul": [lambda m, x: x * m.w, lambda m, x: x * 0.5],
    "div": [lambda m, x: x / m.positive, lambda m, x: 2.0 / m.positive],
    "neg": [lambda m, x: -x],
    "pow": [lambda m, x: x**3, lambda m, x: x**2],
    "exp": [lambda m, x: x.exp()],
    "log": [lambda m, x: x.log()],
    "sqrt": [lambda m, x: x.sqrt()],
    "abs": [lambda m, x: x.abs()],
    "tanh": [lambda m, x: x.tanh()],
    "sigmoid": [lambda m, x: x.sigmoid()],
    "relu": [lambda m, x: x.relu()],
    "clip": [lambda m, x: x.clip(-0.5, 0.5), lambda m, x: x.clip(minimum=0.0)],
    "sum": [lambda m, x: x.sum(axis=1), lambda m, x: x.sum(axis=(0, 3), keepdims=True)],
    "max": [
        lambda m, x: x.max(axis=-1, keepdims=True),
        lambda m, x: x.max(axis=2),
        lambda m, x: F.softmax(x, axis=-1),
        lambda m, x: F.log_softmax(x, axis=1),
        lambda m, x: x + F.softmax(m.w),  # the shift of a parameter
        lambda m, x: x @ F.log_softmax(m.mix, axis=0),
    ],
    "reshape": [
        lambda m, x: x.reshape(2, 12, 5),  # a view of the input slot
        lambda m, x: x.transpose(0, 2, 1, 3).reshape(2, 3, 20),  # a copy
    ],
    "transpose": [lambda m, x: x.transpose(0, 2, 1, 3)],
    "expand_dims": [lambda m, x: x.expand_dims(1)],
    "squeeze": [lambda m, x: x[:, :1].squeeze(1)],
    "getitem": [
        lambda m, x: x[:, 1:, :, ::2],  # basic: a view
        lambda m, x: x[:, [2, 0, 2]],  # advanced: a copy per replay
    ],
    "pad": [lambda m, x: x.pad(((0, 0), (1, 0), (0, 0), (0, 2)))],
    "matmul": [
        lambda m, x: x @ m.mix,  # the canonical row panel
        lambda m, x: m.dense @ x,  # a batched right operand
        lambda m, x: x @ m.w,
    ],
    "spmm": [lambda m, x: spmm(_MIX, x)],
    "spmm_multi": [lambda m, x: spmm_multi(_STACKED, x, 2)],
    "concatenate": [lambda m, x: concatenate([x, x.exp()], axis=-1)],
    "stack": [lambda m, x: stack([x, -x], axis=1)],
    "where": [lambda m, x: where(Tensor._make("greater", x, m.w), x, -x)],
    "greater": [lambda m, x: F.leaky_relu(x, 0.1), lambda m, x: F.elu(x)],
    "greater_equal": [lambda m, x: maximum(x, m.w)],  # ``where`` on a traced condition
    "less_equal": [lambda m, x: minimum(x, 0.25)],
}
# ``halo_gather`` programs are never shareable, so they cannot be dumped;
# partitioned replay is pinned by tests/serve/test_partition_parity.py.
UNSERIALIZABLE = {"halo_gather"}


class _OneOp(Module):
    def __init__(self, fn, rng):
        super().__init__()
        self.fn = fn
        self.w = Parameter(rng.standard_normal(5))
        self.positive = Parameter(rng.random(5) + 0.5)
        self.mix = Parameter(rng.standard_normal((5, 6)))
        self.dense = Parameter(rng.standard_normal((3, 3)))

    def forward(self, x):
        return self.fn(self, x)


@pytest.fixture
def fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


def test_forward_cases_cover_the_op_table():
    assert set(FORWARD) == set(PRIMITIVES) - UNSERIALIZABLE


_FORWARD_IDS = [(name, i) for name, cases in FORWARD.items() for i in range(len(cases))]


@pytest.mark.usefixtures("fresh_program_cache")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name,index", _FORWARD_IDS, ids=[f"{n}-{i}" for n, i in _FORWARD_IDS])
def test_one_op_replay_and_reload_are_bit_identical(name, index, dtype):
    rng = np.random.default_rng(index)
    with default_dtype(dtype), np.errstate(all="ignore"):
        module = _OneOp(FORWARD[name][index], rng).eval()
        inputs = [_draw(rng, (2, 4, 3, 5), dtype, positive=False) for _ in range(2)]

        def run(x):
            with no_grad():
                return run_compiled(module, module, Tensor(x), kind="predict").data

        with traced_execution(False):
            eager = [run(x) for x in inputs]
        assert _same(run(inputs[0]), eager[0])  # the capture call
        assert _same(run(inputs[1]), eager[1])  # a replay on new values
        stats = program_cache_stats()
        assert (stats["captures"], stats["replays"], stats["untraceable"]) == (1, 1, 0)

        blob, arrays = dump_structures(export_structures())
        loaded = load_structures(blob, [np.array(array) for array in arrays])
        clear_program_cache()
        assert install_structures(loaded) == 1
        assert _same(run(inputs[1]), eager[1])
        assert _same(run(inputs[0]), eager[0])
        stats = program_cache_stats()
        assert (stats["captures"], stats["structure_hits"], stats["replays"]) == (0, 1, 2)


# ---------------------------------------------------------------------- #
# Scalar operands and dtype
# ---------------------------------------------------------------------- #
_KEEPS_FLOAT32 = {
    "add_scalar": lambda x: x + 1.0,
    "mul_scalar": lambda x: x * 0.5,
    "leaky_relu": F.leaky_relu,
    "gelu": F.gelu,
    "softmax": F.softmax,
    "reflected_sub": lambda x: 1.0 - x,
    "reflected_div": lambda x: 2.0 / (x * x + 1.0),
}


@pytest.mark.parametrize("name", sorted(_KEEPS_FLOAT32))
def test_float32_tensor_stays_float32_under_float64_default(name):
    expression = _KEEPS_FLOAT32[name]
    x = np.random.default_rng(3).standard_normal((3, 4)).astype(np.float32)
    with default_dtype("float32"):
        expected = expression(Tensor(x)).data
    with default_dtype("float64"):
        result = expression(Tensor(x, dtype=np.float32)).data
    assert result.dtype == np.float32
    assert _same(result, expected)
