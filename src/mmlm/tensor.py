"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a rows x cols matrix in either float32 (training precision)
or float64 (verification precision); the two must never meet on one tape.
Operations return fresh Tensor nodes that remember their parents and a
backward closure, so ``backward(loss)`` can walk the graph once in reverse
topological order and accumulate gradients into the leaves. Inside a
``no_grad()`` block they remember neither, so scoring builds no tape.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import struct
import threading
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError, StateError


class Tensor:
    """One node of the tape: a 2-D array plus optional gradient state.

    A gradient exists once a backward writes one. grad_block holds it
    full-shape, or, while grad_cols is set, as the block of those sorted
    distinct columns; every other column's gradient is then zero.
    """

    __slots__ = ("data", "requires_grad", "grad_block", "grad_cols", "_parents", "_backward",
                 "_back_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        arr = np.atleast_2d(arr)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad_block = self.grad_cols = None
        self._parents: tuple = ()
        self._backward = None
        self._back_done = False

    @property
    def grad(self) -> np.ndarray | None:
        """The full-shape gradient, zeros before any write; None outside
        the gradient flow. The read stores what it returns, so in-place
        edits of it are edits of the gradient."""
        if not self.requires_grad and self.grad_block is None:
            return None
        if self.grad_block is None or self.grad_cols is not None:
            full = np.zeros(self.data.shape, self.data.dtype)
            if self.grad_block is not None:
                full[:, self.grad_cols] = self.grad_block
            self.grad = full
        return self.grad_block

    @grad.setter
    def grad(self, value) -> None:
        self.grad_block, self.grad_cols = value, None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor({self.data.shape[0]}x{self.data.shape[1]}, {self.data.dtype}{flag})"


def param(data, dtype=None) -> Tensor:
    """Leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def const(data, dtype=None) -> Tensor:
    """Leaf tensor outside the gradient flow."""
    return Tensor(data, requires_grad=False, dtype=dtype)


_GRAD_ENABLED = contextvars.ContextVar("mmlm_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block.

    Results of ops keep no parents and no backward closure, so nothing
    computed here can be differentiated and parameter gradients are never
    touched. Blocks nest; the previous mode comes back on exit, also when
    the block raises.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _taped(parents: tuple) -> bool:
    """Whether an op on these parents records a tape node."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _taped(parents)
    out.grad_block = out.grad_cols = None
    # constants need no history; dropping it keeps eval-only graphs flat
    out._parents = parents if out.requires_grad else ()
    out._backward = backward if out.requires_grad else None
    out._back_done = False
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad_block is None:
        t.grad_block = np.array(g, copy=True)
    else:
        t.grad += g  # a compact gradient is expanded first


@contextlib.contextmanager
def beside(fn: Callable, *args, **kwargs):
    """Run fn(*args, **kwargs) on a second thread while the block runs on
    this one; the worker is joined on exit, also when the block raises, and
    an exception fn raised is raised here once the block is done.

    fn must be plain numpy that allocates nothing (its outputs are buffers
    the caller made): an array a worker allocates lands in a second malloc
    arena, whose freed memory the caller's later arrays cannot reuse. It
    must build no tape node and call nothing a tracer wraps. numpy's BLAS
    calls, ufuncs and Generator fills release the GIL, so the two threads
    overlap on two cores. Each side's arithmetic is unchanged, so every
    result is the same bytes as when the two run one after the other.
    """
    failed = []

    def work():
        try:
            fn(*args, **kwargs)
        except BaseException as exc:  # handed to the caller's thread
            failed.append(exc)

    worker = threading.Thread(target=work, name="mmlm-beside")
    worker.start()
    try:
        yield
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _need_same_dtype(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise ConfigError(
            f"{op}: {a.data.dtype} and {b.data.dtype} mixed on one tape; keep a"
            " single precision per graph"
        )


_WEIGHT_MAJOR_ROWS = 32  # most rows of x that dot_t multiplies weight-major
_WEIGHT_MAJOR_MIN_SIZE = 1 << 15  # fewest entries of w that dot_t multiplies weight-major


def dot_t(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T for a weight w stored one output per row, as a C-contiguous
    array equal to x @ w.T bit for bit.

    A product of at most _WEIGHT_MAJOR_ROWS rows with a w of at least
    _WEIGHT_MAJOR_MIN_SIZE entries runs weight-major, as (w @ x.T).T copied
    back to row order, wherever the BLAS gives both orders the same bytes
    (see _orders_agree). OpenBLAS packs the whole right operand on every
    call, and a transposed right operand is its slow case: at 13 rows over
    an 8000 x 256 float32 decoder, x @ w.T takes about 1.4 times as long as
    the weight-major product and its copy. From 64 rows on, the copy costs
    more than the order saves. So does it, and the call, for a small w: a
    64 x 64 product took 1.1 to 1.4 times as long weight-major at every
    row count from 2 to 32.
    """
    if (x.shape[0] > _WEIGHT_MAJOR_ROWS or w.size < _WEIGHT_MAJOR_MIN_SIZE
            or not _orders_agree(x.dtype)):
        return x @ w.T
    return np.ascontiguousarray((w @ x.T).T)


@functools.cache
def _orders_agree(dtype: np.dtype) -> bool:
    """Whether this BLAS gives x @ w.T and (w @ x.T).T the same bytes in
    dtype, tried on 1 to _WEIGHT_MAJOR_ROWS rows of x against a 203 x 24 w.

    The answer depends on the BLAS kernels. With OpenBLAS 0.3.31's AVX-512
    kernels (SkylakeX), float32 agreed at every shape tried, and float64
    differs from 12 rows on for a w whose row count is 193 or more and not
    a multiple of 8, as the probe's is. With its AVX2 kernels (Haswell,
    Zen), both dtypes differ from 3 or 4 rows on once w has 20 columns.
    """
    # values over [-1, 1] with full mantissas; numpy.random would cost its
    # import, about 20 ms, in a command that draws nothing
    w = np.sin(np.arange(203 * 24)).reshape(203, 24).astype(dtype)
    xs = np.cos(0.7 * np.arange(_WEIGHT_MAJOR_ROWS * 24)).reshape(-1, 24).astype(dtype)
    for rows in range(1, _WEIGHT_MAJOR_ROWS + 1):
        x = xs[:rows]
        if (x @ w.T).tobytes() != np.ascontiguousarray((w @ x.T).T).tobytes():
            return False
    return True


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for a weight b stored one output per row.

    The backward accumulates b's gradient as one contiguous g.T @ a, where
    matmul(a, transpose(b)) would add a transposed copy through an extra node.
    """
    if a.cols != b.cols:
        raise DimensionError(f"matmul_t: {a.data.shape} x {b.data.shape}^T")
    _need_same_dtype("matmul_t", a, b)

    def back(g):
        _accum(a, g @ b.data)
        _accum(b, g.T @ a.data)

    return _result(dot_t(a.data, b.data), (a, b), back)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a plain array, without exp overflow.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)): the numerator is exactly
    1 where x >= 0 and exp(x) below, so each entry equals the piecewise form
    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, bit for
    bit, with no boolean-indexed copies.
    """
    den = np.abs(x)
    np.exp(np.negative(den, out=den), out=den)
    den += 1.0
    out = np.minimum(x, 0)
    np.exp(out, out=out)
    out /= den
    return out


def add_row(x: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x cols row vector to every row of x."""
    if v.data.shape != (1, x.cols):
        raise DimensionError(f"add_row: vector {v.data.shape} does not match {x.data.shape}")
    _need_same_dtype("add_row", x, v)

    def back(g):
        _accum(x, g)
        _accum(v, g.sum(axis=0, keepdims=True))

    return _result(x.data + v.data, (x, v), back)


class _ColumnMap(NamedTuple):
    """Where _accum_columns puts one id list's rows in a compact gradient."""

    before: np.ndarray | None  # the gradient's columns before (None: no gradient yet)
    cols: np.ndarray  # its columns after: before and the ids, sorted and distinct
    moved: np.ndarray | None  # the place in cols of each column of before
    flat: np.ndarray  # the flat place in the block of each entry of the rows


def _column_map(idx: np.ndarray, before, vocab: int, rows: int) -> _ColumnMap:
    seen = np.zeros(vocab, bool)
    seen[idx] = True
    if before is not None:
        seen[before] = True
    cols = np.flatnonzero(seen)
    where = np.empty(vocab, np.intp)  # column id -> its place in cols
    where[cols] = np.arange(cols.size)
    return _ColumnMap(before, cols, None if before is None else where[before],
                      _flat_index(where[idx], rows, cols.size))


def _flat_index(pos: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The flat index of entry (r, pos[k]) of a rows x width block, for row k
    of g and each r: the order _add_at_flat reads g in."""
    return (pos[:, None] + np.arange(rows) * width).ravel()


def _accum_columns(w: Tensor, idx: np.ndarray, g: np.ndarray, shared=None):
    """Add row k of g into column idx[k] of w's gradient; duplicate ids
    accumulate in order. Returns the column map it used, or shared.

    A missing or compact gradient stays compact: its block widens to the
    union of the columns seen so far, and each entry gets the same additions
    in the same order as a full-shape scatter, so it is equal bit for bit.
    A full-shape gradient takes the columns in place.

    shared is the map an earlier call with the same idx returned. It is
    used again where it fits, that is where w has as many rows and its
    gradient is missing or compact over the same columns array as before
    that call, so a backward that scatters one id list into several
    matrices builds the map once.
    """
    if not w.requires_grad:
        return shared
    block, cols = w.grad_block, w.grad_cols
    if block is not None and cols is None:
        if not block.flags.c_contiguous:
            block = w.grad_block = np.ascontiguousarray(block)
        _add_at_flat(block, _flat_index(idx, w.rows, w.cols), g)
        return shared
    if shared is None or shared.before is not cols or shared.flat.size != idx.size * w.rows:
        shared = _column_map(idx, cols, w.cols, w.rows)
    if block is None or shared.cols.size != cols.size:
        wider = np.zeros((w.rows, shared.cols.size), w.data.dtype)
        if block is not None:
            wider[:, shared.moved] = block
        block = w.grad_block = wider
        w.grad_cols = shared.cols
    _add_at_flat(block, shared.flat, g)
    return shared


def _add_at_flat(target: np.ndarray, flat_idx: np.ndarray, values: np.ndarray) -> None:
    """target.flat[flat_idx[k]] += values.flat[k] for every k, repeated
    indices adding up in order. One flat index per entry takes numpy's 1-D
    add.at path, several times faster than add.at over rows; the sums are
    the same bit for bit. target must be C-contiguous."""
    np.add.at(target.reshape(-1), flat_idx, values.reshape(-1))


_EXP_BLOCK_BYTES = 2 << 20  # scratch for the exponentials, one row block at a time


def _shifted_logits(h: np.ndarray, w: np.ndarray, b) -> tuple:
    """(z, lse) of a softmax decoder: z = h wᵀ + b with each row's max
    subtracted, in place in one rows x |V| array, and lse = each row's
    log-sum-exp of z, as a rows x 1 column; log softmax is z - lse.

    The logits come from one GEMM, not one per row block, because every
    BLAS call packs all of w again. Their exponentials go through a scratch
    buffer of about 2 MiB, one row block at a time.
    """
    z = dot_t(h, w)
    if b is not None:
        z += b
    z -= z.max(axis=1, keepdims=True)
    n, classes = z.shape
    lse = np.empty((n, 1), z.dtype)
    step = max(1, _EXP_BLOCK_BYTES // (classes * z.itemsize))
    buf = np.empty((min(step, n), classes), z.dtype)
    for start in range(0, n, step):
        e = np.exp(z[start:start + step], out=buf[:min(step, n - start)])
        np.log(e.sum(axis=1, keepdims=True), out=lse[start:start + step])
    return z, lse


def log_probs(h: Tensor, w: Tensor, b: Tensor | None) -> np.ndarray:
    """log softmax(h wᵀ + b) for every row of h, as a plain array; builds no
    tape node."""
    z, lse = _shifted_logits(h.data, w.data, None if b is None else b.data)
    z -= lse
    return z


def masked_nll(hs: Tensor, w: Tensor, b: Tensor | None, targets, mask) -> Tensor:
    """The decoder's loss: -sum of log softmax(h wᵀ + b)[target] over the
    masked targets, as a 1 x 1 tensor.

    targets and mask are T x B, and row t * B + j of hs is what predicts
    targets[t, j]. Only the rows of masked targets are decoded. Each
    sequence's terms are added in step order and the per-sequence sums then
    added up, so padding a batch with extra rows or columns leaves the loss
    bit-identical. With a tape the shifted logits are kept, and the backward
    turns them into the logit gradient in place: w's gradient is one GEMM
    over the decoded rows, and hs's lands in those rows of a zero buffer;
    the two GEMMs run side by side (see beside).
    """
    parents = (hs, w) if b is None else (hs, w, b)
    tgt = np.asarray(targets)
    if tgt.ndim != 2 or np.shape(mask) != tgt.shape or tgt.size != hs.rows:
        raise DimensionError(f"masked_nll: {hs.rows} rows need T x B targets and mask,"
                             f" got {tgt.shape} and {np.shape(mask)}")
    if hs.cols != w.cols:
        raise DimensionError(f"masked_nll: {hs.data.shape} x {w.data.shape}^T")
    if b is not None and b.data.shape != (1, w.rows):
        raise DimensionError(f"masked_nll: bias {b.data.shape} for {w.rows} classes")
    for p in parents[1:]:
        _need_same_dtype("masked_nll", hs, p)
    scored = np.flatnonzero(np.asarray(mask).reshape(-1))
    idx = tgt.reshape(-1)[scored]
    if idx.size and (idx.min() < 0 or idx.max() >= w.rows):
        raise DataError(f"masked_nll: target out of range 0..{w.rows - 1}")
    n = scored.size
    h = hs.data[scored]
    z, lse = _shifted_logits(h, w.data, None if b is None else b.data)
    picked = np.zeros(tgt.shape, z.dtype)
    picked.reshape(-1)[scored] = z[np.arange(n), idx] - lse[:, 0]
    per_seq = picked[0].copy()
    for row in picked[1:]:
        per_seq += row
    kept = z if _taped(parents) else None

    def back(g):
        nonlocal kept
        if kept is None:
            raise StateError("masked_nll: its kept logits were already consumed")
        # d loss_i / d logits_i = softmax_i - onehot(targets[i]), scaled by g
        d, kept = kept, None
        d -= lse
        np.exp(d, out=d)
        if g[0, 0] != 1:  # the root's gradient is 1, and d * 1 is d exactly
            d *= g[0, 0]
        d[np.arange(n), idx] -= g[0, 0]
        # the input and weight gradients read only d, w and h: the worker
        # makes d w while this thread makes dᵀ h, each one whole GEMM
        part = np.empty((n, w.cols), d.dtype)
        dh = np.zeros(hs.data.shape, hs.data.dtype)
        with beside(np.matmul, d, w.data, out=part):
            dw = d.T @ h
        dh[scored] += part
        _accum(hs, dh)
        _accum(w, dw)
        if b is not None:
            _accum(b, d.sum(axis=0, keepdims=True))

    return _result(np.full((1, 1), -per_seq.sum(), z.dtype), parents, back)


def _toposort(root: Tensor) -> list:
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; every node is visited once.

    Gradients accumulate into the .grad of every reachable leaf with
    requires_grad set. Calling twice on the same node is a StateError since
    the intermediate gradients it would reread are already consumed.
    """
    if loss.data.shape != (1, 1):
        raise DimensionError(f"backward needs a 1x1 scalar, got {loss.data.shape}")
    if loss._back_done:
        raise StateError("backward already ran on this tape; build a fresh graph")
    loss._back_done = True
    if not loss.requires_grad:
        return  # constant loss: every gradient stays zero
    order = _toposort(loss)
    loss.grad_block = np.ones((1, 1), dtype=loss.data.dtype)
    for node in reversed(order):
        if node._backward is not None and node.grad_block is not None:
            node._backward(node.grad_block)


def zero_grad(params: Iterable[Tensor]) -> None:
    """Drop the gradients; the next write starts each one afresh."""
    for p in params:
        p.grad = None


def clip_gradients(grads: dict, bound: float) -> dict:
    """Scale all gradients together, in place, so that their global L2
    norm is at most bound; returns the same dict.

    The norm is one float64 sum of squares, taken one block of entries at a
    time, so no gradient gets a float64 copy of its own size. Above the
    bound every gradient is multiplied by bound / norm * (1 - 1e-5): the
    margin keeps float32 rounding of the scaled gradients, and of the step
    lr * g made from them, from taking the step past lr * bound.
    """
    if not bound > 0:
        raise ConfigError(f"clip bound must be positive, got {bound}")
    sq = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        for start in range(0, flat.size, _NORM_BLOCK):
            block = flat[start:start + _NORM_BLOCK].astype(np.float64, copy=False)
            sq += float(np.dot(block, block))
    norm = np.sqrt(sq)
    if norm > bound:
        factor = bound / norm * (1.0 - 1e-5)
        for g in grads.values():
            g *= g.dtype.type(factor)
    return grads


_NORM_BLOCK = 1 << 16  # entries per float64 block of the norm: 512 KiB


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for one named stream of a run seed.

    Different names give statistically independent streams; the same
    (seed, name) pair always yields the same draws.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = struct.unpack("<4Q", digest[:32])
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, *words]))
