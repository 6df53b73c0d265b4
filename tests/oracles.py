"""Independent plain-numpy re-implementations used as test oracles.

Most functions here are straight transcriptions of the model math with
numpy arrays, so agreement between these and the package is evidence, not
tautology. The rest keep the package's earlier code as references for the
code that replaced them: the piecewise sigmoid, the cell steps built from
one tape op per product and gate (with step, predict_next and
sequence_nll_per_step around them), the decoder as tape ops
(forward_sequence), the per-candidate beam search, and the one-thread
forms of the work the package runs on two threads (beside_serial,
build_model_serial). finite_diff_check holds the tape's gradients against
central differences, and blas_core_name names the BLAS kernels in use.
"""

import contextlib
import ctypes
import glob
import os

import numpy as np

import mmlm.cells as C
import mmlm.evaluate as E
import mmlm.tensor as T
from mmlm.data import BOS_ID, EOS_ID
from mmlm.errors import ConfigError, UsageError
from mmlm.model import SequenceModel, parameter_table
from tape_ops import (add, add_row, backward, cell_nodes, const, embed_columns, hadamard,
                      identity, log_softmax_rows, matmul, matmul_t, mul_row, one_minus, relu, scale,
                      sigmoid, softmax_rows, start_state, sum_all, take_per_row, take_rows, taped,
                      tanh, transpose, zero_grad)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def delta_step_np(p, emb, h_prev, gain=None):
    d_rec = h_prev @ p.V.T
    d_dat = emb
    pre = p.alpha * d_rec * d_dat + p.beta1 * d_rec + p.beta2 * d_dat
    if p.fusion == "inner":
        pre = pre + gain
    z = np.tanh(pre)
    r = np_sigmoid(d_dat + p.b_r)
    mixed = (1.0 - r) * z + r * h_prev
    if p.fusion == "outer":
        mixed = mixed * gain
    return np.maximum(mixed, 0.0)


def gru_step_np(p, embs, h_prev, gain=None):
    e_z, e_r, e_h = embs
    z = np_sigmoid(e_z + h_prev @ p.V_z.T)
    r = np_sigmoid(e_r + h_prev @ p.V_r.T)
    cand = np.tanh(e_h + (r * h_prev) @ p.V_h.T)
    h = z * h_prev + (1.0 - z) * cand
    if p.fusion != "none":
        h = h * gain
    return h


def lstm_step_np(p, embs, h_prev, c_prev, gain=None):
    e_z, e_i, e_f, e_r = embs
    z = np.tanh(e_z + h_prev @ p.V_z.T)
    i = np_sigmoid(e_i + h_prev @ p.V_i.T + c_prev * p.U_i)
    f = np_sigmoid(e_f + h_prev @ p.V_f.T + c_prev * p.U_f)
    c = f * c_prev + i * z
    r = np_sigmoid(e_r + h_prev @ p.V_r.T + c * p.U_r)
    h = r * np.tanh(c)
    if p.fusion != "none":
        h = h * gain
    return h, c


def sigmoid_piecewise(x):
    """The two boolean-indexed halves the package's sigmoid used to compute."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def delta_rnn_step(p, emb, h_prev, ctx_gain=None):
    """One delta-RNN step.

    d_rec = V h_prev and d_dat = emb are mixed through a second-order term
    alpha * d_rec * d_dat plus the gated linear terms, squashed by tanh;
    a data-driven rate gate r then interpolates with the previous state and
    the result passes through a linear rectifier.
    """
    C._check_gain(p.fusion, ctx_gain, "delta-rnn")
    d_rec = matmul_t(h_prev, p.V)
    d_dat = emb
    d1 = mul_row(hadamard(d_rec, d_dat), p.alpha)
    d2 = add(mul_row(d_rec, p.beta1), mul_row(d_dat, p.beta2))
    pre = add(d1, d2)
    if p.fusion == "inner":
        pre = add(pre, ctx_gain)
    z = tanh(pre)
    r = sigmoid(add_row(d_dat, p.b_r))
    mixed = add(hadamard(one_minus(r), z), hadamard(r, h_prev))
    if p.fusion == "outer":
        mixed = hadamard(mixed, ctx_gain)
    return C.StepState(h=relu(mixed))


def gru_step(p, embs, h_prev, ctx_gain=None):
    """One GRU step; embs = (e_z, e_r, e_h) rows from W_z, W_r, W_h.

    Note the update gate keeps the old state (h = z*h_prev + (1-z)*cand).
    Outer fusion multiplies the new state by the context gain.
    """
    C._check_gain(p.fusion, ctx_gain, "gru")
    e_z, e_r, e_h = embs
    z = sigmoid(add(e_z, matmul_t(h_prev, p.V_z)))
    r = sigmoid(add(e_r, matmul_t(h_prev, p.V_r)))
    cand = tanh(add(e_h, matmul_t(hadamard(r, h_prev), p.V_h)))
    h = add(hadamard(z, h_prev), hadamard(one_minus(z), cand))
    if p.fusion != "none":
        h = hadamard(h, ctx_gain)
    return C.StepState(h=h)


def lstm_step(p, embs, state, ctx_gain=None):
    """One peephole LSTM step; embs = (e_z, e_i, e_f, e_r).

    Peepholes are diagonal: U_i and U_f see c_{t-1}, U_r sees c_t. The block
    input and cell output use p.activation (tanh by default). Outer fusion
    multiplies the emitted hidden state by the context gain.
    """
    C._check_gain(p.fusion, ctx_gain, "lstm")
    act = {"tanh": tanh, "sigmoid": sigmoid, "relu": relu, "identity": identity}
    if p.activation not in act:
        raise ConfigError(f"unknown lstm activation {p.activation!r}")
    phi = act[p.activation]
    e_z, e_i, e_f, e_r = embs
    h_prev, c_prev = state.h, state.cell
    z = phi(add(e_z, matmul_t(h_prev, p.V_z)))
    i = sigmoid(add(add(e_i, matmul_t(h_prev, p.V_i)), mul_row(c_prev, p.U_i)))
    f = sigmoid(add(add(e_f, matmul_t(h_prev, p.V_f)), mul_row(c_prev, p.U_f)))
    c = add(hadamard(f, c_prev), hadamard(i, z))
    r = sigmoid(add(add(e_r, matmul_t(h_prev, p.V_r)), mul_row(c, p.U_r)))
    h = hadamard(r, phi(c))
    if p.fusion != "none":
        h = hadamard(h, ctx_gain)
    return C.StepState(h=h, cell=c)


def step(p, ids, state, gain):
    """One step of the cell of nodes p through the per-op step functions."""
    embs = tuple(embed_columns(p.params[n], ids) for n in C.spec(p.arch).inputs)
    if p.arch == "delta-rnn":
        return delta_rnn_step(p, embs[0], state.h, gain)
    if p.arch == "gru":
        return gru_step(p, embs, state.h, gain)
    return lstm_step(p, embs, state, gain)


def logits(leaves, h):
    """The decoder's logits h Uᵀ + b_U, as tape ops over leaves (from taped)."""
    out = matmul_t(h, leaves["decoder.U"])
    if "decoder.b_U" in leaves:
        out = add_row(out, leaves["decoder.b_U"])
    return out


def forward_sequence(model, batch):
    """Per-step next-token distributions, one B x |V| tensor per row of
    batch.tokens; entry t conditions on rows 0..t."""
    model._validate_ids(batch.tokens)
    state, gain = model.start_state(batch.batch_size, batch.contexts)
    hs, _, _ = C.recurrence(model.cell, batch.tokens, gain, state)
    dists = softmax_rows(logits(taped(model), const(hs)))
    b = batch.batch_size
    return [take_rows(dists, np.arange(t * b, (t + 1) * b))
            for t in range(batch.tokens.shape[0])]


def predict_next(model, prefix, context=None):
    """Distribution over the next token after consuming the prefix, one
    per-op step at a time."""
    ids = np.asarray(prefix, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise UsageError("prefix must be a nonempty 1-D id sequence")
    if ids[0] != BOS_ID:
        raise UsageError(f"prefix must start with BOS (id {BOS_ID}), got {ids[0]}")
    model._validate_ids(ids.reshape(-1, 1))
    ctx = None if context is None else np.atleast_2d(np.asarray(context, dtype=model.dtype))
    leaves = taped(model)
    p = cell_nodes(model, leaves)
    state, gain = start_state(model, leaves, 1, ctx)
    dist = None
    for t in range(ids.size):
        state = step(p, ids[t: t + 1], state, gain)
        dist = softmax_rows(logits(leaves, state.h))
    return dist.data[0].copy()


def gain_np(model, contexts, batch):
    """Context gain as plain numpy; None for text-only models."""
    if model.config.fusion == "none":
        return None
    M, b_M = model.params["fusion.M"], model.params.get("fusion.b_M")
    if contexts is None:
        base = np.zeros((batch, M.shape[0]))
    else:
        base = np.asarray(contexts, dtype=np.float64) @ M.T
    if b_M is not None:
        base = base + b_M
    return base


def forward_np(model, tokens, contexts=None):
    """Per-step distributions for every row of a token matrix."""
    p = model.cell
    arch = model.config.arch
    steps, batch = tokens.shape
    hidden = model.config.hidden
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    gain = gain_np(model, contexts, batch)
    dists = []
    for t in range(steps):
        ids = tokens[t]
        if arch == "delta-rnn":
            h = delta_step_np(p, p.W[:, ids].T.astype(np.float64), h, gain)
        elif arch == "gru":
            embs = tuple(getattr(p, n)[:, ids].T.astype(np.float64) for n in ("W_z", "W_r", "W_h"))
            h = gru_step_np(p, embs, h, gain)
        else:
            embs = tuple(getattr(p, n)[:, ids].T.astype(np.float64)
                         for n in ("W_z", "W_i", "W_f", "W_r"))
            h, c = lstm_step_np(p, embs, h, c, gain)
        logits = h @ model.params["decoder.U"].T
        if "decoder.b_U" in model.params:
            logits = logits + model.params["decoder.b_U"]
        dists.append(np_softmax(logits))
    return dists


def sequence_nll_np(model, batch):
    """(summed masked NLL, target count) via the naive per-step loop."""
    dists = forward_np(model, batch.tokens[:-1], batch.contexts)
    total = 0.0
    for t, dist in enumerate(dists):
        target = batch.tokens[t + 1]
        m = batch.mask[t + 1]
        picked = dist[np.arange(dist.shape[0]), target]
        total -= float((np.log(picked) * m).sum())
    return total, int(batch.mask.sum())


def sequence_nll_per_step(model, leaves, batch):
    """(loss tensor, target count) with one tape op per product and gate,
    over leaves (from taped).

    This is the tape loop that the recurrence op and the time-batched
    decoder replaced: the per-op cell step, then a decoder matmul,
    log-softmax and pick per step, summed over steps as they come. Its
    gradients are the reference for sequence_nll's.
    """
    last = int(np.flatnonzero(batch.mask.any(axis=1))[-1])
    p = cell_nodes(model, leaves)
    state, gain = start_state(model, leaves, batch.batch_size, batch.contexts)
    total = None
    for t in range(last):
        state = step(p, batch.tokens[t], state, gain)
        logits = matmul(state.h, transpose(leaves["decoder.U"]))
        if "decoder.b_U" in leaves:
            logits = add_row(logits, leaves["decoder.b_U"])
        picked = take_per_row(log_softmax_rows(logits), batch.tokens[t + 1])
        m = const(batch.mask[t + 1].reshape(-1, 1).astype(model.dtype))
        contrib = hadamard(picked, m)
        total = contrib if total is None else add(total, contrib)
    return scale(sum_all(total), -1.0), batch.target_count()


def beam_search_per_candidate(model, context=None, width=13, max_len=None,
                              length_normalize=False):
    """Beam search that builds and sorts one Python tuple per candidate.

    This is the loop the array ranking in evaluate.beam_search replaced:
    every live hypothesis times every word becomes an (ids, score, state, w)
    tuple, and the tuples are sorted on (-score, ids). Scores must be free
    of NaN, whose order under list.sort is undefined.
    """
    if max_len is None:
        max_len = model.config.unroll
    ctx = None
    if context is not None:
        ctx = np.atleast_2d(np.asarray(context, dtype=model.dtype))
    state, gain = model.start_state(1, ctx)
    state, logp = model.advance(state, gain, BOS_ID)
    words = list(range(4, model.config.vocab))
    live = [((), 0.0, state, logp[0])]
    completed = []
    for step in range(1, max_len + 1):
        for ids, score, _, lp in live:
            completed.append(E.Hypothesis(ids, score + float(lp[EOS_ID])))
        if step == max_len:
            break
        extensions = []
        for ids, score, st, lp in live:
            for w in words:
                extensions.append((ids + (w,), score + float(lp[w]), st, w))
        extensions.sort(key=lambda e: (-e[1], e[0]))
        live = []
        for ids, score, st, w in extensions[:width]:
            new_state, lp = model.advance(st, gain, w)
            live.append((ids, score, new_state, lp[0]))
        if not live:
            break

    def rank_key(h):
        score = h.logprob / max(len(h.ids) + 1, 1) if length_normalize else h.logprob
        return (-score, len(h.ids), h.ids)

    return sorted(completed, key=rank_key)


def finite_diff_check(f, params, eps: float = 1e-4) -> float:
    """Compare analytic gradients of f() against central differences.

    f must rebuild its graph from the given parameter leaves on every call
    and return a 1x1 loss. Returns the worst relative error
    |a - n| / max(1e-8, |a| + |n|) over all parameter components.
    """
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigError("finite_diff_check runs in 64-bit mode; cast parameters first")
    zero_grad(params)
    backward(f())
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = f().item()
            flat[i] = orig - eps
            lm = f().item()
            flat[i] = orig
            num = (lp - lm) / (2.0 * eps)
            err = abs(gflat[i] - num) / max(1e-8, abs(gflat[i]) + abs(num))
            if err > worst:
                worst = err
    return worst


def blas_core_name() -> str:
    """The kernel set of the OpenBLAS that numpy loaded, as
    openblas_get_corename() reports it, or "unknown"."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


@contextlib.contextmanager
def beside_serial(fn, *args, **kwargs):
    """tensor.beside on one thread: fn runs to the end, then the block."""
    fn(*args, **kwargs)
    yield


def build_model_serial(config, seed: int, dtype=np.float32):
    """model.build_model as three seed streams drawn one after the other on
    this thread, each array drawn as it is allocated, in parameter_table
    order."""
    streams, arrays = {}, {}
    for name, (shape, init) in parameter_table(config).items():
        block = name.split(".")[0]
        if block not in streams:
            streams[block] = T.seed_stream(seed, f"init/{block}")
        arrays[name] = C.draw(init, streams[block], np.empty(shape, dtype))
    return SequenceModel(config, arrays)
