"""Full sequence model: embedding lookup, recurrent unrolling, softmax
decoder, and masked sequence negative log likelihood.

Sentences are framed [BOS, w_1, ..., w_L, EOS]; the model consumes a token
and predicts the next one, starting from a zero hidden state, with the
context vector projected once per sequence and reused at every step.

A model's parameters are plain arrays in one dict, SequenceModel.params,
keyed as in parameter_table; the cell reads its own by their short names.

There is one decoder. Training and scoring take the masked NLL through
tensor.masked_nll, over the stacked hidden states; sampling takes full
log-probability rows from tensor.log_probs, which shares its arithmetic.
A training batch keeps what the backwards need, and
SequenceModel.gradients runs them in their one fixed order: the decoder,
the recurrence, then the context projection, whose forward is
SequenceModel._gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cells, tensor as tz
from .data import SPECIAL_TOKENS, SequenceBatch
from .errors import ConfigError, DataError, DimensionError, UsageError


@dataclass
class ModelConfig:
    arch: str = "delta-rnn"
    hidden: int = 64
    vocab: int = 0  # filled from the vocabulary at build time
    context_dim: int = 2048
    fusion: str = "none"
    fusion_bias: bool = True
    unroll: int = 49
    decoder_bias: bool = True
    lstm_activation: str = "tanh"

    def validate(self) -> None:
        cells.check_fusion(self.arch, self.fusion)
        cells.lstm_activation(self.lstm_activation)
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if self.vocab < len(SPECIAL_TOKENS):
            raise ConfigError(f"vocab must be >= {len(SPECIAL_TOKENS)} to hold the special"
                              f" tokens {' '.join(SPECIAL_TOKENS)}, got {self.vocab}")
        if self.unroll < 1:
            raise ConfigError(f"unroll length must be >= 1, got {self.unroll}")
        if self.fusion != "none" and self.context_dim < 1:
            raise ConfigError(f"context dim must be >= 1, got {self.context_dim}")


class SequenceModel:
    """A recurrent cell plus decoder operating on SequenceBatch inputs.

    Its parameters are the arrays of params, keyed as in
    parameter_shapes(config): checked for names, shapes and one dtype,
    float32 or float64, then held without a copy in parameter_table order.
    Their dtype is the model's precision."""

    def __init__(self, config: ModelConfig, params: dict):
        shapes = parameter_shapes(config)
        missing, extra = sorted(set(shapes) - set(params)), sorted(set(params) - set(shapes))
        if missing or extra:
            raise DimensionError(f"parameters missing {missing}, extra {extra}")
        dtype = params["decoder.U"].dtype
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise DimensionError(f"parameter {name!r} has shape {params[name].shape},"
                                     f" expected {shape}")
            if params[name].dtype != dtype or dtype not in (np.float32, np.float64):
                raise ConfigError(f"parameter {name!r} is {params[name].dtype}, decoder.U {dtype}:"
                                  f" a model's parameters share one dtype, float32 or float64")
        self.config = config
        self.params = {name: params[name] for name in shapes}
        self.dtype = dtype
        cell = {name: self.params[f"cell.{name}"] for name, _ in cells.spec(config.arch).params}
        self.cell = cells.Cell(config.arch, cell, config.fusion, config.lstm_activation)

    def named_parameters(self) -> dict:
        """Name -> array of every parameter, in parameter_table order."""
        return self.params

    # -- forward machinery ---------------------------------------------------

    def _validate_ids(self, tokens: np.ndarray) -> None:
        bad = (tokens < 0) | (tokens >= self.config.vocab)
        if bad.any():
            t, b = np.argwhere(bad)[0]
            raise DataError(
                f"token id {tokens[t, b]} out of range 0..{self.config.vocab - 1}"
                f" at step {t}, sequence {b}"
            )

    def _gain(self, contexts, batch_size: int) -> np.ndarray | None:
        """The context projection's forward, gain = ctx Mᵀ + b_M, B x H; None
        for a text-only model. The null context (None) equals all-zeros
        rows. The backward is in gradients."""
        if self.config.fusion == "none":
            if contexts is not None:
                raise UsageError("text-only model got context vectors; drop them or build a fused model")
            return None
        M, b_M = self.params["fusion.M"], self.params.get("fusion.b_M")
        if contexts is None:
            gain = np.zeros((batch_size, M.shape[0]), dtype=self.dtype)
        else:
            ctx = np.atleast_2d(np.asarray(contexts, dtype=self.dtype))
            if ctx.shape[1] != M.shape[1]:
                raise DimensionError(f"context width {ctx.shape[1]} does not match projection"
                                     f" input {M.shape[1]}")
            if ctx.shape[0] != batch_size:
                raise DimensionError(f"context rows {ctx.shape[0]} do not match batch size"
                                     f" {batch_size}")
            gain = tz.dot_t(ctx, M)
        if b_M is not None:
            gain += b_M
        return gain

    def start_state(self, batch_size: int = 1, contexts=None):
        """(zero recurrent state, context gain) for incremental decoding."""
        state = cells.init_state(self.config.arch, batch_size, self.config.hidden, self.dtype)
        return state, self._gain(contexts, batch_size)

    def advance(self, state: cells.StepState, gain, ids):
        """Feed one token per sequence; returns (new state, log P rows).

        state, gain (when fused) and ids hold one row per sequence, and row
        i of the results is sequence i's. A one-row call runs on two copies
        of its row and returns the first: at one row BLAS takes a
        matrix-vector path whose last bits differ from the matrix-matrix
        path of a larger call, so a lone sequence decodes as it would in a
        small batch."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        n = ids.size
        if n == 1:
            pad = np.zeros(2, dtype=np.int64)
            state, ids = state.take(pad), ids[pad]
            gain = None if gain is None else gain[pad]
        _, new_state, _ = cells.recurrence(self.cell, ids.reshape(1, -1), gain, state)
        logp = tz.log_probs(new_state.h, self.params["decoder.U"], self.params.get("decoder.b_U"))
        return new_state.take(slice(n)), logp[:n]

    def sequence_nll(self, batch: SequenceBatch, keep: bool = False):
        """(loss, counted targets, kept): the sum of -log P over the masked
        targets, as a scalar of the model's dtype; and with keep what
        gradients needs, else None.

        The recurrence runs over the steps up to the last target;
        tensor.masked_nll then scores the masked targets of all steps at
        once, on their rows of the stacked hidden states, so padding is
        never decoded and never changes the loss.

        A batch with no masked targets returns (zero, 0, None); the zero
        count is the caller's flag that nothing was scored.
        """
        self._validate_ids(batch.tokens)
        masked_rows = np.flatnonzero(batch.mask.any(axis=1))
        if masked_rows.size == 0:
            return self.dtype.type(0), 0, None
        last = int(masked_rows[-1])
        state, gain = self.start_state(batch.batch_size, batch.contexts)
        # consuming row t predicts row t+1; row t * B + b of hs is sequence b after row t
        hs, _, rec = cells.recurrence(self.cell, batch.tokens[:last], gain, state, keep)
        loss, dec = tz.masked_nll(hs, self.params["decoder.U"], self.params.get("decoder.b_U"),
                                  batch.tokens[1:last + 1], batch.mask[1:last + 1], keep)
        return loss, batch.target_count(), (batch.contexts, rec, dec) if keep else None

    def gradients(self, kept) -> tuple:
        """(grads, cols): the gradients of the loss whose kept state
        sequence_nll(batch, keep=True) returned, which this consumes.

        The backwards run in one fixed order: the decoder, the recurrence,
        then the context projection, whose gain = M ctx + b_M gives
        dM = dgainᵀ ctx (for a given context) and db_M = the column sums of
        dgain. Each parameter gets exactly one gradient. grads maps parameter
        names to arrays in named_parameters() order, and cols maps each
        input matrix's name to the sorted token ids whose columns its
        gradient block holds; every other column's gradient is zero.
        """
        contexts, rec, dec = kept
        dhs, dU, db_U = tz.masked_nll_backward(dec)
        cell_grads, ids, dgain = cells.recurrence_backward(rec, dhs)
        found = {f"cell.{name}": g for name, g in cell_grads.items()}
        if dgain is not None:
            if contexts is not None:
                found["fusion.M"] = dgain.T @ np.asarray(contexts, dtype=self.dtype)
            found["fusion.b_M"] = dgain.sum(axis=0, keepdims=True)
        found["decoder.U"], found["decoder.b_U"] = dU, db_U
        grads = {name: found[name] for name in self.params if found.get(name) is not None}
        return grads, {f"cell.{name}": ids for name in cells.spec(self.config.arch).inputs}


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> SequenceModel:
    """Fresh model: weight matrices U(-0.1, 0.1), biases zero, mixing
    vectors and b_M ones; deterministic per (config, seed). The cell, the
    fusion block and the decoder each draw from their own stream of the
    seed, in parameter_table order.

    The fusion and decoder streams are drawn on a second thread
    (tensor.beside) while this one draws the cell's. This thread allocates
    every array first, in parameter_table order, and the worker's draw
    buffer too, so the worker allocates nothing.
    """
    table = parameter_table(config)
    arrays = {name: np.empty(shape, dtype) for name, (shape, _) in table.items()}
    streams = {block: tz.seed_stream(seed, f"init/{block}")
               for block in dict.fromkeys(name.split(".")[0] for name in table)}

    def fill(blocks, buf=None):
        for name, (_, init) in table.items():
            block = name.split(".")[0]
            if block in blocks:
                cells.draw(init, streams[block], arrays[name], buf)

    with tz.beside(fill, ("fusion", "decoder"), np.empty(cells.DRAW_BLOCK)):
        fill(("cell",))
    return SequenceModel(config, arrays)


def parameter_table(config: ModelConfig) -> dict:
    """Name -> (shape, init) of every parameter, in named_parameters() order."""
    config.validate()
    h, v = config.hidden, config.vocab
    out = {f"cell.{name}": entry
           for name, entry in cells.param_table(config.arch, h, v).items()}
    if config.fusion != "none":
        out["fusion.M"] = ((h, config.context_dim), "uniform")
        if config.fusion_bias:
            out["fusion.b_M"] = ((1, h), "ones")
    out["decoder.U"] = ((v, h), "uniform")
    if config.decoder_bias:
        out["decoder.b_U"] = ((1, v), "zeros")
    return out


def parameter_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter, in named_parameters() order: the
    tensors a checkpoint of this config holds."""
    return {name: shape for name, (shape, _) in parameter_table(config).items()}
