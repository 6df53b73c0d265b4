"""Independent plain-numpy re-implementations used as test oracles.

Apart from sequence_nll_per_step and beam_search_per_candidate, nothing
here touches the tape machinery: every function is a straight transcription
of the model math with numpy arrays, so agreement between these and the
package is evidence, not tautology. Those two keep the package's earlier
loops as references for the code that replaced them.
"""

import numpy as np

import mmlm.evaluate as E
import mmlm.tensor as T
from mmlm.data import BOS_ID, EOS_ID


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def delta_step_np(p, emb, h_prev, gain=None):
    d_rec = h_prev @ p.V.data.T
    d_dat = emb
    pre = p.alpha.data * d_rec * d_dat + p.beta1.data * d_rec + p.beta2.data * d_dat
    if p.fusion is not None and p.fusion.mode == "inner":
        pre = pre + gain
    z = np.tanh(pre)
    r = np_sigmoid(d_dat + p.b_r.data)
    mixed = (1.0 - r) * z + r * h_prev
    if p.fusion is not None and p.fusion.mode == "outer":
        mixed = mixed * gain
    return np.maximum(mixed, 0.0)


def gru_step_np(p, embs, h_prev, gain=None):
    e_z, e_r, e_h = embs
    z = np_sigmoid(e_z + h_prev @ p.V_z.data.T)
    r = np_sigmoid(e_r + h_prev @ p.V_r.data.T)
    cand = np.tanh(e_h + (r * h_prev) @ p.V_h.data.T)
    h = z * h_prev + (1.0 - z) * cand
    if p.fusion is not None:
        h = h * gain
    return h


def lstm_step_np(p, embs, h_prev, c_prev, gain=None):
    e_z, e_i, e_f, e_r = embs
    z = np.tanh(e_z + h_prev @ p.V_z.data.T)
    i = np_sigmoid(e_i + h_prev @ p.V_i.data.T + c_prev * p.U_i.data)
    f = np_sigmoid(e_f + h_prev @ p.V_f.data.T + c_prev * p.U_f.data)
    c = f * c_prev + i * z
    r = np_sigmoid(e_r + h_prev @ p.V_r.data.T + c * p.U_r.data)
    h = r * np.tanh(c)
    if p.fusion is not None:
        h = h * gain
    return h, c


def gain_np(model, contexts, batch):
    """Context gain as plain numpy; None for text-only models."""
    if model.config.fusion == "none":
        return None
    f = model.cell.fusion
    if contexts is None:
        base = np.zeros((batch, f.M.data.shape[0]))
    else:
        base = np.asarray(contexts, dtype=np.float64) @ f.M.data.T
    if f.use_bias:
        base = base + f.b_M.data
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
            h = delta_step_np(p, p.W.data[:, ids].T.astype(np.float64), h, gain)
        elif arch == "gru":
            embs = tuple(getattr(p, n).data[:, ids].T.astype(np.float64) for n in ("W_z", "W_r", "W_h"))
            h = gru_step_np(p, embs, h, gain)
        else:
            embs = tuple(getattr(p, n).data[:, ids].T.astype(np.float64)
                         for n in ("W_z", "W_i", "W_f", "W_r"))
            h, c = lstm_step_np(p, embs, h, c, gain)
        logits = h @ model.decoder.U.data.T
        if model.decoder.b_U is not None:
            logits = logits + model.decoder.b_U.data
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


def sequence_nll_per_step(model, batch):
    """(loss tensor, target count) with the decoder run once per timestep.

    This is the tape loop the time-batched sequence_nll replaced: a decoder
    matmul, log-softmax and pick per step, summed over steps as they come.
    Its gradients are the reference for the batched decoder's.
    """
    last = int(np.flatnonzero(batch.mask.any(axis=1))[-1])
    state, gain = model.start_state(batch.batch_size, batch.contexts)
    total = None
    for t in range(last):
        state = model._step(batch.tokens[t], state, gain)
        logits = T.matmul(state.h, T.transpose(model.decoder.U))
        if model.decoder.b_U is not None:
            logits = T.add_row(logits, model.decoder.b_U)
        picked = T.take_per_row(T.log_softmax_rows(logits), batch.tokens[t + 1])
        m = T.const(batch.mask[t + 1].reshape(-1, 1).astype(model.dtype))
        contrib = T.hadamard(picked, m)
        total = contrib if total is None else T.add(total, contrib)
    return T.scale(T.sum_all(total), -1.0), int(batch.mask.sum())


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
