"""Float64 numpy oracle for teacher-forced sentence scores.

Written apart from the `mmlm` package and importing nothing from it or from
its tests: parameters come in as a dict of arrays keyed by the checkpoint
tensor names (`cell.W`, `decoder.U`, ...) and the equations below are
recomputed here in 64-bit floats.

Cells (x is the word's column of each input matrix, h and c the previous
state, * elementwise, s the logistic sigmoid; outer fusion multiplies the
emitted state by the gain g = M ctx + b_M, with a null context giving b_M):
  delta-rnn  a = V h;  z = tanh(alpha*a*x + beta1*a + beta2*x)
             r = s(x + b_r);  h' = relu(((1 - r)*z + r*h) * g)
  gru        z = s(x_z + V_z h);  r = s(x_r + V_r h)
             h' = (z*h + (1 - z)*tanh(x_h + V_h (r*h))) * g
  lstm       u = tanh(x_z + V_z h);  i = s(x_i + V_i h + U_i*c)
             f = s(x_f + V_f h + U_f*c);  c' = f*c + i*u
             o = s(x_r + V_r h + U_r*c');  h' = o*tanh(c') * g
Decoder: log P(next) = log_softmax(U h' + b_U).
"""

from __future__ import annotations

import numpy as np

BOS, EOS, PAD = 2, 3, 0
ROW_CHUNK = 64  # sentences scored at once; bounds the B x V logit block

_INPUTS = {"delta-rnn": ("W",), "gru": ("W_z", "W_r", "W_h"),
           "lstm": ("W_z", "W_i", "W_f", "W_r")}


def _sig(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Oracle:
    def __init__(self, arch: str, params: dict):
        self.arch = arch
        self.p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.fused = "fusion.M" in self.p

    def gain(self, contexts, rows: int):
        """rows x H gain, or None for a text-only model."""
        if not self.fused:
            return None
        b = self.p.get("fusion.b_M", np.zeros((1, self.p["fusion.M"].shape[0])))
        if contexts is None:
            return np.repeat(b, rows, axis=0)
        return np.asarray(contexts, dtype=np.float64) @ self.p["fusion.M"].T + b

    def _step(self, ids, h, c, g):
        p = self.p
        xs = [p["cell." + n][:, ids].T for n in _INPUTS[self.arch]]
        if self.arch == "delta-rnn":
            (x,) = xs
            a = h @ p["cell.V"].T
            z = np.tanh(p["cell.alpha"] * a * x + p["cell.beta1"] * a + p["cell.beta2"] * x)
            r = _sig(x + p["cell.b_r"])
            out = (1.0 - r) * z + r * h
        elif self.arch == "gru":
            x_z, x_r, x_h = xs
            z = _sig(x_z + h @ p["cell.V_z"].T)
            r = _sig(x_r + h @ p["cell.V_r"].T)
            out = z * h + (1.0 - z) * np.tanh(x_h + (r * h) @ p["cell.V_h"].T)
        else:
            x_z, x_i, x_f, x_r = xs
            u = np.tanh(x_z + h @ p["cell.V_z"].T)
            i = _sig(x_i + h @ p["cell.V_i"].T + p["cell.U_i"] * c)
            f = _sig(x_f + h @ p["cell.V_f"].T + p["cell.U_f"] * c)
            c = f * c + i * u
            o = _sig(x_r + h @ p["cell.V_r"].T + p["cell.U_r"] * c)
            out = o * np.tanh(c)
        if g is not None:
            out = out * g
        if self.arch == "delta-rnn":
            out = np.maximum(out, 0.0)
        return out, c

    def _log_probs(self, h, targets):
        logits = h @ self.p["decoder.U"].T
        if "decoder.b_U" in self.p:
            logits = logits + self.p["decoder.b_U"]
        top = logits.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        return logits[np.arange(len(targets)), targets] - lse

    def sentence_scores(self, id_lists, contexts=None, unroll: int = 49):
        """Summed log P of each framed sentence BOS + ids + EOS, truncated to
        unroll targets; contexts is one row per sentence, or None for null."""
        frames = [([BOS] + list(ids) + [EOS])[:unroll + 1] for ids in id_lists]
        return self.frame_scores(frames, contexts)

    def frame_scores(self, frames, contexts=None):
        """Summed log P(frame[t + 1] | frame[:t + 1]) of each token frame."""
        scores = np.zeros(len(frames))
        for lo in range(0, len(frames), ROW_CHUNK):
            chunk = frames[lo:lo + ROW_CHUNK]
            ctx = None if contexts is None else contexts[lo:lo + ROW_CHUNK]
            scores[lo:lo + len(chunk)] = self._score_chunk(chunk, ctx)
        return scores

    def _score_chunk(self, frames, contexts):
        steps = max(len(f) for f in frames) - 1
        tokens = np.full((steps + 1, len(frames)), PAD, dtype=np.int64)
        for j, f in enumerate(frames):
            tokens[:len(f), j] = f
        lengths = np.array([len(f) - 1 for f in frames])
        hidden = self.p["decoder.U"].shape[1]
        h = np.zeros((len(frames), hidden))
        c = np.zeros_like(h)
        g = self.gain(contexts, len(frames))
        total = np.zeros(len(frames))
        for t in range(steps):
            h, c = self._step(tokens[t], h, c, g)
            live = lengths > t
            total[live] += self._log_probs(h[live], tokens[t + 1][live])
        return total
