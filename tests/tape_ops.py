"""Tape ops that only the tests run: the per-op reference paths in
oracles.py (cell steps, the per-step decoder, forward_sequence), the loss
reductions the tests differentiate, and the tests of the tape itself.

Each op is one tape node with a hand-written backward, built from the same
helpers as the ops in mmlm.tensor.
"""

import numpy as np

from mmlm.errors import DataError, DimensionError
from mmlm.tensor import (Tensor, _accum, _accum_columns, _add_at_flat, _need_same_dtype,
                         _result, logistic)


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


def add_scalar(x: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(x, g)

    return _result(x.data + x.data.dtype.type(c), (x,), back)


def one_minus(x: Tensor) -> Tensor:
    """1 - x, the complement used by every gating cell."""
    return add_scalar(scale(x, -1.0), 1.0)


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
    if idx.size and (idx.min() < 0 or idx.max() >= w.cols):
        raise DataError(
            f"embed_columns: id out of range 0..{w.cols - 1}: {idx[(idx < 0) | (idx >= w.cols)][0]}"
        )
    out = w.data[:, idx].T.copy()

    def back(g):
        _accum_columns(w, idx, g)

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
