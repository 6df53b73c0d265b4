"""The numeric layers of the model, on plain numpy arrays.

Every parameter is a 2-D numpy array in either float32 (training
precision) or float64 (verification precision); the two must never meet
in one model.
A layer's forward returns its output and, when asked to keep, what its
backward needs; the backward is a module-level function of what was kept.
model.SequenceModel.gradients runs the backwards in their one fixed order.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import struct
import threading
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, DimensionError


@contextlib.contextmanager
def beside(fn: Callable, *args, **kwargs):
    """Run fn(*args, **kwargs) on a second thread while the block runs on
    this one; the worker is joined on exit, also when the block raises, and
    an exception fn raised is raised here once the block is done.

    fn must be plain numpy that allocates nothing (its outputs are buffers
    the caller made): an array a worker allocates lands in a second malloc
    arena, whose freed memory the caller's later arrays cannot reuse. It
    must call nothing a tracer wraps. numpy's BLAS calls, ufuncs and
    Generator fills release the GIL, so the two threads overlap on two
    cores. Each side's arithmetic is unchanged, so every result is the same
    bytes as when the two run one after the other.
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


def _need_same_dtype(op: str, a, b) -> None:
    """ConfigError unless the arrays a and b share a dtype."""
    if a.dtype != b.dtype:
        raise ConfigError(f"{op}: {a.dtype} and {b.dtype} mixed; keep a single precision"
                          " per model")


_WEIGHT_MAJOR_ROWS = 32  # most rows of x that dot_t multiplies weight-major
_WEIGHT_MAJOR_MIN_SIZE = 1 << 15  # fewest entries of w that dot_t multiplies weight-major


def dot_t(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """x @ w.T for a weight w stored one output per row, as a C-contiguous
    array equal to x @ w.T bit for bit; written into out where given.

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
        return np.matmul(x, w.T, out=out)
    out = np.empty((x.shape[0], w.shape[0]), x.dtype) if out is None else out
    out[...] = (w @ x.T).T
    return out


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


def column_blocks(ids: np.ndarray, grads) -> tuple:
    """(cols, blocks) for gradients whose only nonzero columns are looked-up
    ids: row k of each g in grads, all of one width, belongs to column
    ids[k]. cols are the sorted distinct ids, and each block holds g's
    gradient in those columns, as g.shape[1] x cols.size.

    The rows of one id add up in order, so each block is equal bit for bit
    to the same rows added into a zero full-shape gradient. One map from
    ids to places serves every g.
    """
    cols, places = np.unique(ids, return_inverse=True)
    # the flat place of entry (r, places[k]) of a block, for row k of g and
    # each r: the order _add_at_flat reads g in
    flat = (places[:, None] + np.arange(grads[0].shape[1]) * cols.size).ravel()
    blocks = [np.zeros((g.shape[1], cols.size), g.dtype) for g in grads]
    for block, g in zip(blocks, grads):
        _add_at_flat(block, flat, g)
    return cols, blocks


def _add_at_flat(target: np.ndarray, flat_idx: np.ndarray, values: np.ndarray) -> None:
    """target.flat[flat_idx[k]] += values.flat[k] for every k, repeated
    indices adding up in order. One flat index per entry takes numpy's 1-D
    add.at path, several times faster than add.at over rows; the sums are
    the same bit for bit. target must be C-contiguous."""
    np.add.at(target.reshape(-1), flat_idx, values.reshape(-1))


_EXP_BLOCK_BYTES = 2 << 20  # scratch for the exponentials, one row block at a time
_SPLIT_ALIGN = 48  # a split softmax's cut is a multiple of this many rows
_SPLIT_MIN_SIZE = 1 << 20  # fewest decoder entries whose softmax splits by rows


def _row_cut(n: int, w: np.ndarray) -> int:
    """Where n rows of softmax over decoder w split between two threads: the
    largest multiple of _SPLIT_ALIGN at most n / 2, or 0 for no split."""
    cut = n // 2 // _SPLIT_ALIGN * _SPLIT_ALIGN
    ok = cut > _WEIGHT_MAJOR_ROWS and w.size >= _SPLIT_MIN_SIZE and _row_split_agrees(w.dtype)
    return cut if ok else 0


@functools.cache
def _row_split_agrees(dtype: np.dtype) -> bool:
    """Whether this BLAS gives h @ w.T the same bytes as its two row parts at
    every cut _row_cut could make in a 250 x 32 h, against a 203 x 32 w
    (see README: the kernels and the BLAS thread count decide it)."""
    w = np.sin(np.arange(203 * 32)).reshape(203, 32).astype(dtype)
    h = np.cos(0.7 * np.arange(250 * 32)).reshape(250, 32).astype(dtype)
    whole = (h @ w.T).tobytes()
    return all((h[:cut] @ w.T).tobytes() + (h[cut:] @ w.T).tobytes() == whole
               for cut in range(_SPLIT_ALIGN, h.shape[0] - _WEIGHT_MAJOR_ROWS, _SPLIT_ALIGN))


def _logit_rows(h, w, b, z, lse, buf) -> None:
    """Rows of _shifted_logits into z and lse, exponentials through buf, with
    z already holding h wᵀ where h is None; it allocates nothing."""
    if h is not None:
        dot_t(h, w, out=z)
    if b is not None:
        z += b
    np.max(z, axis=1, keepdims=True, out=lse)
    z -= lse
    step = buf.shape[0]
    for start in range(0, z.shape[0], step):
        part = lse[start:start + step]
        e = np.exp(z[start:start + step], out=buf[:part.shape[0]])
        np.log(np.sum(e, axis=1, keepdims=True, out=part), out=part)


def _shifted_logits(h: np.ndarray, w: np.ndarray, b) -> tuple:
    """(z, lse) of a softmax decoder: z = h wᵀ + b with each row's max
    subtracted, in one rows x |V| array, and lse = each row's log-sum-exp
    of z, as a rows x 1 column; log softmax is z - lse. Rows from _row_cut
    on run on beside's worker. Each part is one GEMM (every BLAS call packs
    all of w again), with its exponentials in its half of one 2 MiB scratch:
    a scratch per part made later evals and checkpoint loads fault more."""
    n, classes = h.shape[0], w.shape[0]
    cut = _row_cut(n, w)
    # unsplit, dot_t makes z, so a weight-major temporary comes before every buffer
    z = np.empty((n, classes), h.dtype) if cut else dot_t(h, w)
    lse = np.empty((n, 1), h.dtype)
    buf = np.empty((max(2, min(n, _EXP_BLOCK_BYTES // (classes * z.itemsize))), classes), z.dtype)
    half = buf.shape[0] // 2 if cut else buf.shape[0]
    with beside(_logit_rows, h[cut:], w, b, z[cut:], lse[cut:], buf[half:]) if cut \
            else contextlib.nullcontext():
        _logit_rows(h[:cut] if cut else None, w, b, z[:cut or n], lse[:cut or n], buf[:half])
    return z, lse


def _softmax_in_place(z: np.ndarray, lse: np.ndarray) -> None:
    z -= lse
    np.exp(z, out=z)


def log_probs(h: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """log softmax(h wᵀ + b) for every row of h."""
    z, lse = _shifted_logits(h, w, b)
    z -= lse
    return z


def masked_nll(hs: np.ndarray, w: np.ndarray, b: np.ndarray | None, targets, mask,
               keep: bool = False) -> tuple:
    """(loss, kept): the decoder's loss, -sum of log softmax(h wᵀ + b)[target]
    over the masked targets, as a scalar of hs's dtype; and with keep what
    masked_nll_backward needs, else None.

    targets and mask are T x B, and row t * B + j of hs is what predicts
    targets[t, j]. Only the rows of masked targets are decoded. Each
    sequence's terms are added in step order and the per-sequence sums then
    added up, so padding a batch with extra rows or columns leaves the loss
    bit-identical. What it keeps holds the shifted logits, which the
    backward turns into the logit gradient.
    """
    tgt = np.asarray(targets)
    if tgt.ndim != 2 or np.shape(mask) != tgt.shape or tgt.size != hs.shape[0]:
        raise DimensionError(f"masked_nll: {hs.shape[0]} rows need T x B targets and mask,"
                             f" got {tgt.shape} and {np.shape(mask)}")
    if hs.shape[1] != w.shape[1]:
        raise DimensionError(f"masked_nll: {hs.shape} x {w.shape}^T")
    if b is not None and b.shape != (1, w.shape[0]):
        raise DimensionError(f"masked_nll: bias {b.shape} for {w.shape[0]} classes")
    for p in (w, b):
        if p is not None:
            _need_same_dtype("masked_nll", hs, p)
    scored = np.flatnonzero(np.asarray(mask).reshape(-1))
    idx = tgt.reshape(-1)[scored]
    if idx.size and (idx.min() < 0 or idx.max() >= w.shape[0]):
        raise DataError(f"masked_nll: target out of range 0..{w.shape[0] - 1}")
    n = scored.size
    h = hs[scored]
    z, lse = _shifted_logits(h, w, b)
    picked = np.zeros(tgt.shape, z.dtype)
    picked.reshape(-1)[scored] = z[np.arange(n), idx] - lse[:, 0]
    per_seq = picked[0].copy()
    for row in picked[1:]:
        per_seq += row
    kept = [z, lse, h, w, scored, idx, hs.shape, b is not None] if keep else None
    return -per_seq.sum(), kept


def masked_nll_backward(kept) -> tuple:
    """(dhs, dw, db): the gradients of masked_nll's loss with respect to hs,
    w and b (None without a bias), from what it kept, which this consumes.

    The kept logits become the logit gradient in place. w's gradient is one
    GEMM over the decoded rows, and hs's lands in those rows of a zero
    buffer; the two GEMMs run side by side (see beside).
    """
    d, lse, h, w, scored, idx, shape, bias = kept
    kept.clear()  # the logits go on return, before the next backward allocates
    n = d.shape[0]
    # d loss_i / d logits_i = softmax_i - onehot(targets[i])
    cut = _row_cut(n, w)
    with beside(_softmax_in_place, d[cut:], lse[cut:]) if cut else contextlib.nullcontext():
        _softmax_in_place(d[:cut or n], lse[:cut or n])
    d[np.arange(n), idx] -= 1
    # the input and weight gradients read only d, w and h: the worker makes
    # d w while this thread makes dᵀ h, each one whole GEMM
    part = np.empty((n, w.shape[1]), d.dtype)
    dhs = np.zeros(shape, d.dtype)
    with beside(np.matmul, d, w, out=part):
        dw = d.T @ h
    dhs[scored] += part
    return dhs, dw, d.sum(axis=0, keepdims=True) if bias else None


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
