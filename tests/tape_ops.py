"""Tape ops that only the tests run: the per-op reference path in
oracles.py and the tests of the tape itself.

Each op is one tape node with a hand-written backward, built from the same
helpers as the ops in mmlm.tensor.
"""

import numpy as np

from mmlm.errors import DataError, DimensionError
from mmlm.tensor import (Tensor, _accum, _accum_columns, _need_same_dtype, _result,
                         logistic, scale)


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
