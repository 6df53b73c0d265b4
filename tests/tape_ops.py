"""The generic reverse-mode tape, which only the tests run: a node
remembers its parents and a backward closure, and backward(loss) sweeps the
graph once, accumulating full-shape gradients into the param() leaves. The
package's parameters are plain arrays; taped(model) makes one leaf over
each, and cell_nodes the model's cell over those leaves. Its ops are the
per-op reference paths of oracles.py and the loss reductions the tests
differentiate. project_context, recurrence and masked_nll are one node per
layer of the model, and layer_nll composes them into a batch's graph, the
reference for SequenceModel.gradients; sequence_nll is one node whose
backward is SequenceModel.gradients itself.
"""

import numpy as np

import mmlm.cells as C
import mmlm.tensor as tz
from mmlm.errors import DataError, DimensionError
from mmlm.tensor import _add_at_flat, _need_same_dtype, dot_t, logistic


class Tensor:
    """One node of the tape: a 2-D array, data, plus, in the gradient flow,
    its parents, its backward closure and its gradient."""

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)  # no copy of an array
        self.requires_grad = requires_grad
        self._grad, self._parents, self._backward = None, (), None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        """The full-shape gradient, zeros before any write; None outside the flow."""
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        return self.data.item()  # a ValueError unless 1 x 1


const = Tensor  # a leaf outside the gradient flow


def param(data) -> Tensor:
    """Leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


def _in_flow(t) -> bool:
    return getattr(t, "requires_grad", False)


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data, requires_grad=any(_in_flow(p) for p in parents))
    if out.requires_grad:  # constants need no history
        out._parents, out._backward = parents, backward
    return out


def _accum(t, g: np.ndarray) -> None:
    if _in_flow(t):
        if t._grad is None:
            t._grad = np.array(g, copy=True)
        else:
            t._grad += g


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; every node is visited once, in
    reverse topological order. A node's backward may consume what it kept,
    so sweep a graph once."""
    if loss.data.shape != (1, 1):
        raise DimensionError(f"backward needs a 1x1 scalar, got {loss.data.shape}")
    order, seen, stack = [], set(), [(loss, False)] if loss.requires_grad else []
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack += [(p, False) for p in node._parents if _in_flow(p)]
    loss._grad = np.ones((1, 1), dtype=loss.data.dtype) if order else None
    for node in reversed(order):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)


def zero_grad(params) -> None:
    """Drop the gradients; the next write starts each one afresh."""
    for p in params:
        p._grad = None


def taped(model) -> dict:
    """Name -> a tape leaf over the model's own array, one per parameter, in
    named_parameters() order: perturbing a leaf's data perturbs the model."""
    return {name: param(a) for name, a in model.named_parameters().items()}


def cell_nodes(model, leaves: dict) -> C.Cell:
    """The model's cell with each parameter its leaf in leaves (from taped):
    the cell the per-op steps of oracles.py read."""
    cfg = model.config
    cell = {name: leaves[f"cell.{name}"] for name, _ in C.spec(cfg.arch).params}
    return C.Cell(cfg.arch, cell, cfg.fusion, cfg.lstm_activation)


def _need_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.data.shape} x {b.data.shape}")
    _need_same_dtype("matmul", a, b)
    out = a.data @ b.data

    def back(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(out, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("add", a, b)
    _need_same_dtype("add", a, b)

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), back)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("hadamard", a, b)
    _need_same_dtype("hadamard", a, b)

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), back)


def scale(x: Tensor, k: float) -> Tensor:
    kk = x.data.dtype.type(k)

    def back(g):
        _accum(x, g * kk)

    return _result(x.data * kk, (x,), back)


def sum_all(x: Tensor) -> Tensor:
    out = np.array([[x.data.sum()]], dtype=x.data.dtype)

    def back(g):
        _accum(x, np.full_like(x.data, g[0, 0]))

    return _result(out, (x,), back)


def one_minus(x: Tensor) -> Tensor:
    """1 - x, the complement used by every gating cell."""
    def back(g):
        _accum(x, -g)

    return _result(1.0 - x.data, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    out = logistic(x.data)

    def back(g):
        _accum(x, g * out * (1.0 - out))

    return _result(out, (x,), back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g):
        _accum(x, g * (1.0 - out * out))

    return _result(out, (x,), back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def back(g):
        _accum(x, g * (x.data > 0))

    return _result(out, (x,), back)


def identity(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, g)

    return _result(x.data, (x,), back)


def transpose(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, g.T)

    return _result(x.data.T, (x,), back)


def mul_row(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of x by a 1 x cols row vector."""
    if v.data.shape != (1, x.cols):
        raise DimensionError(f"mul_row: vector {v.data.shape} does not match {x.data.shape}")
    _need_same_dtype("mul_row", x, v)

    def back(g):
        _accum(x, g * v.data)
        _accum(v, (g * x.data).sum(axis=0, keepdims=True))

    return _result(x.data * v.data, (x, v), back)


def embed_columns(w: Tensor, ids) -> Tensor:
    """Look up columns of w by token id; returns len(ids) x rows(w).

    Row b of the result is column ids[b] of w, so a batch of token ids turns
    into a batch of embedding rows in one op.
    """
    idx = np.asarray(ids)
    if idx.ndim != 1:
        raise DimensionError(f"embed_columns: ids must be 1-D, got ndim={idx.ndim}")
    vocab = w.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise DataError(
            f"embed_columns: id out of range 0..{vocab - 1}: {idx[(idx < 0) | (idx >= vocab)][0]}"
        )
    out = w.data[:, idx].T.copy()

    def back(g):
        if _in_flow(w):  # repeated ids add up in order
            np.add.at(w.grad.T, idx, g)

    return _result(out, (w,), back)


def take_per_row(x: Tensor, cols) -> Tensor:
    """Pick one entry per row: out[i, 0] = x[i, cols[i]]."""
    idx = np.asarray(cols)
    if idx.ndim != 1 or idx.size != x.rows:
        raise DimensionError(
            f"take_per_row: need {x.rows} column indices, got shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= x.cols):
        raise DataError(f"take_per_row: column index out of range 0..{x.cols - 1}")
    rows_arange = np.arange(x.rows)
    out = x.data[rows_arange, idx].reshape(-1, 1)

    def back(g):
        buf = np.zeros_like(x.data)
        buf[rows_arange, idx] = g[:, 0]
        _accum(x, buf)

    return _result(out, (x,), back)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, computed with max subtraction for stability."""
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _result(y, (x,), back)


def log_softmax_rows(x: Tensor) -> Tensor:
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse

    def back(g):
        _accum(x, g - np.exp(y) * g.sum(axis=1, keepdims=True))

    return _result(y, (x,), back)


def sum_row_blocks(x: Tensor, blocks: int) -> Tensor:
    """Sum the equal row blocks of x: x[0:n] + x[n:2n] + ..., first block first.

    On a stack of T per-step B x C values this is the per-sequence total over
    time, added in step order.
    """
    if blocks < 1 or x.rows % blocks:
        raise DimensionError(f"sum_row_blocks: {x.rows} rows do not split into {blocks} blocks")
    n = x.rows // blocks
    out = x.data[:n].copy()
    for k in range(1, blocks):
        out += x.data[k * n:(k + 1) * n]

    def back(g):
        _accum(x, np.tile(g, (blocks, 1)))

    return _result(out, (x,), back)


def _row_indices(op: str, rows, limit: int) -> np.ndarray:
    idx = np.asarray(rows)
    if idx.ndim != 1:
        raise DimensionError(f"{op}: row indices must be 1-D, got ndim={idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise DataError(f"{op}: row index out of range 0..{limit - 1}")
    return idx


def take_rows(x: Tensor, rows) -> Tensor:
    """Rows rows[0], rows[1], ... of x, top to bottom."""
    idx = _row_indices("take_rows", rows, x.rows)

    def back(g):
        buf = np.zeros(x.data.shape, x.data.dtype)
        # a repeated row collects every copy's gradient
        _add_at_flat(buf, (idx[:, None] * x.cols + np.arange(x.cols)).ravel(), g)
        _accum(x, buf)

    return _result(x.data[idx], (x,), back)


def put_rows(x: Tensor, rows, n: int) -> Tensor:
    """n x cols(x) zeros with row i of x added into row rows[i]."""
    idx = _row_indices("put_rows", rows, n)
    if idx.size != x.rows:
        raise DimensionError(f"put_rows: {idx.size} row indices for {x.rows} rows")
    out = np.zeros((n, x.cols), x.data.dtype)
    np.add.at(out, idx, x.data)

    def back(g):
        _accum(x, g[idx])

    return _result(out, (x,), back)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for a weight b stored one output per row, through
    tensor.dot_t; b's gradient is one contiguous g.T @ a."""
    if a.cols != b.shape[1]:
        raise DimensionError(f"matmul_t: {a.data.shape} x {b.data.shape}^T")
    _need_same_dtype("matmul_t", a, b)

    def back(g):
        _accum(a, g @ b.data)
        _accum(b, g.T @ a.data)

    return _result(dot_t(a.data, b.data), (a, b), back)


def add_row(x: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x cols row vector to every row of x."""
    if v.data.shape != (1, x.cols):
        raise DimensionError(f"add_row: vector {v.data.shape} does not match {x.data.shape}")
    _need_same_dtype("add_row", x, v)

    def back(g):
        _accum(x, g)
        _accum(v, g.sum(axis=0, keepdims=True))

    return _result(x.data + v.data, (x, v), back)


def project_context(leaves, ctx, batch_size=None) -> Tensor:
    """SequenceModel._gain as matmul_t and add_row nodes over the leaves
    "fusion.M" and, when present, "fusion.b_M"."""
    M, b_M = leaves["fusion.M"], leaves.get("fusion.b_M")
    if ctx is None:
        base = const(np.zeros((batch_size or 1, M.shape[0]), M.dtype))
    else:
        base = matmul_t(const(np.asarray(ctx, dtype=M.dtype)), M)
    return base if b_M is None else add_row(base, b_M)


def const_state(state) -> C.StepState:
    """A StepState of arrays as one of constant nodes."""
    return C.StepState(const(state.h), None if state.cell is None else const(state.cell))


def array_state(state) -> C.StepState:
    """A StepState of nodes as one of their arrays."""
    return C.StepState(state.h.data, None if state.cell is None else state.cell.data)


def start_state(model, leaves, batch_size: int = 1, contexts=None):
    """model.start_state as nodes: the zero state as constants, and the gain
    as projection nodes over leaves (from taped; None for a text-only
    model)."""
    state, gain = model.start_state(batch_size, contexts)
    if gain is not None:
        gain = project_context(leaves, contexts, batch_size)
    return const_state(state), gain


def _dense(block: np.ndarray, cols, shape: tuple) -> np.ndarray:
    """A gradient block of the columns cols (None: all of them), at full shape."""
    full = np.zeros(shape, block.dtype)
    full[:, slice(None) if cols is None else cols] = block
    return full


def recurrence(cell, p, tokens, gain, state):
    """cells.recurrence of cell as one node over p's parameters, the same
    cell's as nodes, and the gain, from a state of nodes; returns (hs,
    final state of constants)."""
    hs, final, kept = C.recurrence(cell, tokens, None if gain is None else gain.data,
                                   array_state(state), keep=True)
    def back(g):
        grads, cols, dgain = C.recurrence_backward(kept, g)
        for name, d in grads.items():
            w = p.params[name]
            _accum(w, _dense(d, cols if name in C.spec(p.arch).inputs else None, w.shape))
        _accum(gain, dgain)

    parents = tuple(p.params.values()) + (() if gain is None else (gain,))
    return _result(hs, parents, back), const_state(final)


def masked_nll(hs: Tensor, w: Tensor, b, targets, mask) -> Tensor:
    """tensor.masked_nll and its backward as one node."""
    loss, kept = tz.masked_nll(hs.data, w.data, None if b is None else b.data, targets, mask,
                               keep=True)
    parents = (hs, w) if b is None else (hs, w, b)

    def back(g):
        for t, d in zip(parents, tz.masked_nll_backward(kept)):
            _accum(t, d * g[0, 0])  # d * 1 is d exactly

    return _result(np.full((1, 1), loss), parents, back)


def layer_nll(model, leaves, batch):
    """(loss node, counted targets): model.sequence_nll as a graph of one
    node per layer over leaves (from taped): the context projection
    (matmul_t and add_row), one recurrence node, then one masked_nll node."""
    last = int(np.flatnonzero(batch.mask.any(axis=1))[-1])
    state, gain = start_state(model, leaves, batch.batch_size, batch.contexts)
    hs, _ = recurrence(model.cell, cell_nodes(model, leaves), batch.tokens[:last], gain, state)
    loss = masked_nll(hs, leaves["decoder.U"], leaves.get("decoder.b_U"),
                      batch.tokens[1:last + 1], batch.mask[1:last + 1])
    return loss, batch.target_count()


def sequence_nll(model, leaves, batch):
    """(loss node, counted targets): model.sequence_nll as one node over
    leaves (from taped), whose backward is model.gradients."""
    loss, count, kept = model.sequence_nll(batch, keep=True)

    def back(g):
        grads, cols = model.gradients(kept)
        for name, d in grads.items():
            _accum(leaves[name], _dense(d, cols.get(name), leaves[name].shape) * g[0, 0])

    parents = tuple(leaves.values()) if kept else ()  # nothing kept: nothing scored
    return _result(np.full((1, 1), loss), parents, back), count
