"""Random op graphs: every leaf gradient agrees with central differences.

HIPS/autograd's discipline for a tape: whatever graph the ops build, the
reverse pass must reproduce the numerical derivative.  Hypothesis draws small
DAGs over the differentiable op set (derandomized, float64): operands are
picked from everything computed so far, so subexpressions are shared, and the
steps mix in broadcast shapes, constant (no-grad) operands and basic and fancy
indexing.  Every op's saved arrays and every skipped-operand VJP run here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.tensor import (
    Tensor,
    check_gradients,
    concatenate,
    maximum,
    minimum,
    spmm,
    spmm_multi,
    stack,
    where,
)

_CONST = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))  # no-grad operand
_ROW = Tensor(np.array([0.5, -1.0, 2.0, 0.25]))  # broadcasts over rows
_MIX = sparse.csr_matrix(np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 0.0], [1.0, 0.0, -1.0]]))
_STACKED = sparse.vstack([_MIX, sparse.identity(3) * 0.5]).tocsr()
_DUPLICATES = np.array([2, 0, 2])

# Every step maps three operands of shape (3, 4) to one of shape (3, 4).
# Growth is kept at most linear (tanh / squashed denominators) so that
# eight chained steps stay well inside finite-difference accuracy.
_OPS = {
    "add": lambda a, b, c: a + b,
    "sub_const": lambda a, b, c: a - _CONST,
    "mul": lambda a, b, c: a * b.tanh(),
    "mul_const": lambda a, b, c: _CONST * a,
    "div": lambda a, b, c: a / (b * b + 1.0),
    "rdiv": lambda a, b, c: 1.0 / (a * a + 2.0),
    "neg": lambda a, b, c: -a,
    "pow": lambda a, b, c: a.tanh() ** 3,
    "exp": lambda a, b, c: a.tanh().exp(),
    "log": lambda a, b, c: (a * a + 1.0).log(),
    "sqrt": lambda a, b, c: (a * a + 0.5).sqrt(),
    "abs": lambda a, b, c: a.abs(),
    "tanh": lambda a, b, c: a.tanh(),
    "sigmoid": lambda a, b, c: a.sigmoid(),
    "relu": lambda a, b, c: a.relu(),
    "clip": lambda a, b, c: a.clip(-0.5, 0.5),
    "bias_const": lambda a, b, c: a + _ROW,
    "row_sum": lambda a, b, c: b + a.sum(axis=1, keepdims=True),
    "col_mean": lambda a, b, c: b * a.mean(axis=0).tanh(),
    "total": lambda a, b, c: b - a.sum() * 0.1,
    "var": lambda a, b, c: b + a.var(axis=0),
    "max": lambda a, b, c: b - a.max(axis=1, keepdims=True),
    "min": lambda a, b, c: b + a.min(axis=0),
    "reshape": lambda a, b, c: a.reshape(4, 3).transpose(),
    "swapaxes": lambda a, b, c: a.reshape(3, 2, 2).swapaxes(1, 2).reshape(3, 4),
    "squeeze": lambda a, b, c: a.expand_dims(0).squeeze(0),
    "matmul": lambda a, b, c: a @ (b.T @ c).tanh() * 0.25,
    "matvec": lambda a, b, c: (a @ b[0].tanh()).expand_dims(1) + c,
    "vecmat": lambda a, b, c: c + b[1] @ (a.T @ a).tanh() * 0.25,
    "pad": lambda a, b, c: a[:, 1:].pad(((0, 0), (1, 0))),
    "fancy": lambda a, b, c: a[_DUPLICATES],
    "fancy_mask": lambda a, b, c: b + concatenate([a[a.data > 0].sum().reshape(1)] * 4),
    "concatenate": lambda a, b, c: concatenate([a[:, :2], b[:, 2:]], axis=1),
    "stack": lambda a, b, c: stack([a[0], b[1], c[2]], axis=0),
    "where": lambda a, b, c: where(a.data > 0, b, c),
    "maximum": lambda a, b, c: maximum(a, b),
    "minimum": lambda a, b, c: minimum(a, _CONST),
    "spmm": lambda a, b, c: spmm(_MIX, a),
    "spmm_multi": lambda a, b, c: spmm_multi(_STACKED, a, 2)[:, 4:] - b,
}

_STEP = st.tuples(
    st.sampled_from(sorted(_OPS)),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
)


@pytest.mark.parametrize("last", sorted(_OPS))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(
    steps=st.lists(_STEP, max_size=7),
    operands=st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)),
    seed=st.integers(0, 2**16),
)
def test_random_graph_gradients_match_central_differences(last, steps, operands, seed):
    steps = steps + [(last, *operands)]  # every op ends at least five graphs
    rng = np.random.default_rng(seed)
    leaves = [
        Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        Tensor(rng.normal(size=(4,)), requires_grad=True),  # broadcast leaf
    ]
    weights = rng.normal(size=(len(steps), 3, 4))

    def loss(x, y, bias):
        pool = [x, y, x + bias]
        for name, i, j, k in steps:
            size = len(pool)
            pool.append(_OPS[name](pool[i % size], pool[j % size], pool[k % size]))
        # Weight every step's output so no intermediate's gradient cancels.
        return sum((node * w).sum() for node, w in zip(pool[3:], weights))

    assert check_gradients(loss, leaves)
