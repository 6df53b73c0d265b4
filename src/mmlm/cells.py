"""Recurrent cells: delta-RNN, GRU, and peephole LSTM, with optional
multi-modal context fusion.

All step functions work on batches: hidden states are B x H matrices, one
row per sequence. Word embeddings arrive as B x H rows already looked up
from the input matrices (column per vocabulary item), so a step is pure
tape arithmetic.

Fusion modes: "inner" adds the projected context inside the candidate
tanh of the delta-RNN; "outer" multiplies the cell output by the projected
context and is defined for all three cells. With the projection forced to
all ones, an outer-fused step reproduces the text-only step exactly; for
inner mode the neutral projection is all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError, UsageError
from .tensor import Tensor

ARCHITECTURES = ("delta-rnn", "gru", "lstm")
FUSION_MODES = ("none", "inner", "outer")


@dataclass
class FusionParams:
    """Context projection: gain = M c + b_M (bias optional)."""

    M: Tensor  # H x D
    b_M: Tensor  # 1 x H, initialized to ones
    mode: str = "outer"
    use_bias: bool = True


@dataclass
class DeltaRnnParams:
    W: Tensor  # H x V input columns
    V: Tensor  # H x H recurrence
    b_r: Tensor  # 1 x H rate-gate bias
    alpha: Tensor  # 1 x H second-order mixing
    beta1: Tensor  # 1 x H recurrent term
    beta2: Tensor  # 1 x H data term
    fusion: FusionParams | None = None


@dataclass
class GruParams:
    W_z: Tensor
    V_z: Tensor
    W_r: Tensor
    V_r: Tensor
    W_h: Tensor  # candidate input
    V_h: Tensor  # candidate recurrence (applied to r * h)
    fusion: FusionParams | None = None


@dataclass
class LstmParams:
    W_z: Tensor  # block input
    V_z: Tensor
    W_i: Tensor  # input gate
    V_i: Tensor
    U_i: Tensor  # 1 x H peephole to c_{t-1}
    W_f: Tensor  # forget gate
    V_f: Tensor
    U_f: Tensor  # 1 x H peephole to c_{t-1}
    W_r: Tensor  # output gate
    V_r: Tensor
    U_r: Tensor  # 1 x H peephole to c_t
    fusion: FusionParams | None = None
    activation: str = "tanh"  # block input and cell output nonlinearity


@dataclass
class StepState:
    """Per-step recurrent state; cell is only used by the LSTM."""

    h: Tensor
    cell: Tensor | None = None


def input_matrix_names(arch: str) -> tuple:
    """Names of the embedding matrices a cell looks words up in, in the
    order its step function consumes them."""
    if arch == "delta-rnn":
        return ("W",)
    if arch == "gru":
        return ("W_z", "W_r", "W_h")
    if arch == "lstm":
        return ("W_z", "W_i", "W_f", "W_r")
    raise ConfigError(f"unknown architecture {arch!r}")


def primary_input_matrix(arch: str) -> str:
    """The matrix whose columns act as the word embedding proper, the one
    pretrained vectors are written into."""
    return {"delta-rnn": "W", "gru": "W_h", "lstm": "W_i"}[arch]


def project_context(fusion: FusionParams, ctx, batch_size: int | None = None,
                    dtype=np.float64) -> Tensor:
    """Project context vectors to the hidden width: rows of ctx @ M.T (+ b_M).

    ctx may be a Tensor, an array of shape B x D (or a single D-vector), or
    None for the null context, which equals an explicit all-zeros vector.
    """
    h_dim, c_dim = fusion.M.shape
    if ctx is None:
        if batch_size is None:
            batch_size = 1
        base = tz.const(np.zeros((batch_size, h_dim), dtype=fusion.M.dtype))
    else:
        if not isinstance(ctx, Tensor):
            ctx = tz.const(np.asarray(ctx, dtype=fusion.M.dtype))
        if ctx.cols != c_dim:
            raise DimensionError(
                f"context width {ctx.cols} does not match projection input {c_dim}"
            )
        if batch_size is not None and ctx.rows != batch_size:
            raise DimensionError(
                f"context rows {ctx.rows} do not match batch size {batch_size}"
            )
        base = tz.matmul_t(ctx, fusion.M)
    if fusion.use_bias:
        return tz.add_row(base, fusion.b_M)
    return base


def _check_fusion(fusion: FusionParams | None, ctx_gain: Tensor | None, arch: str) -> None:
    if fusion is None and ctx_gain is not None:
        raise UsageError(f"text-only {arch} step was given a context gain")
    if fusion is not None and ctx_gain is None:
        raise UsageError(f"fused {arch} step needs a context gain; pass project_context(...)")
    if fusion is not None and fusion.mode == "inner" and arch != "delta-rnn":
        raise ConfigError(f"inner fusion is only defined for delta-rnn, not {arch}")


def delta_rnn_step(p: DeltaRnnParams, emb: Tensor, h_prev: Tensor,
                   ctx_gain: Tensor | None = None) -> StepState:
    """One delta-RNN step.

    d_rec = V h_prev and d_dat = emb are mixed through a second-order term
    alpha * d_rec * d_dat plus the gated linear terms, squashed by tanh;
    a data-driven rate gate r then interpolates with the previous state and
    the result passes through a linear rectifier.
    """
    _check_fusion(p.fusion, ctx_gain, "delta-rnn")
    d_rec = tz.matmul_t(h_prev, p.V)
    d_dat = emb
    d1 = tz.mul_row(d_rec * d_dat, p.alpha)
    d2 = tz.mul_row(d_rec, p.beta1) + tz.mul_row(d_dat, p.beta2)
    pre = d1 + d2
    if p.fusion is not None and p.fusion.mode == "inner":
        pre = pre + ctx_gain
    z = tz.tanh(pre)
    r = tz.sigmoid(tz.add_row(d_dat, p.b_r))
    mixed = tz.one_minus(r) * z + r * h_prev
    if p.fusion is not None and p.fusion.mode == "outer":
        mixed = mixed * ctx_gain
    return StepState(h=tz.relu(mixed))


def gru_step(p: GruParams, embs: tuple, h_prev: Tensor,
             ctx_gain: Tensor | None = None) -> StepState:
    """One GRU step; embs = (e_z, e_r, e_h) rows from W_z, W_r, W_h.

    Note the update gate keeps the old state (h = z*h_prev + (1-z)*cand).
    Outer fusion multiplies the new state by the context gain.
    """
    _check_fusion(p.fusion, ctx_gain, "gru")
    e_z, e_r, e_h = embs
    z = tz.sigmoid(e_z + tz.matmul_t(h_prev, p.V_z))
    r = tz.sigmoid(e_r + tz.matmul_t(h_prev, p.V_r))
    cand = tz.tanh(e_h + tz.matmul_t(r * h_prev, p.V_h))
    h = z * h_prev + tz.one_minus(z) * cand
    if p.fusion is not None:
        h = h * ctx_gain
    return StepState(h=h)


def lstm_step(p: LstmParams, embs: tuple, state: StepState,
              ctx_gain: Tensor | None = None) -> StepState:
    """One peephole LSTM step; embs = (e_z, e_i, e_f, e_r).

    Peepholes are diagonal: U_i and U_f see c_{t-1}, U_r sees c_t. The block
    input and cell output use p.activation (tanh by default). Outer fusion
    multiplies the emitted hidden state by the context gain.
    """
    _check_fusion(p.fusion, ctx_gain, "lstm")
    act = {"tanh": tz.tanh, "sigmoid": tz.sigmoid, "relu": tz.relu, "identity": tz.identity}
    if p.activation not in act:
        raise ConfigError(f"unknown lstm activation {p.activation!r}")
    phi = act[p.activation]
    e_z, e_i, e_f, e_r = embs
    h_prev, c_prev = state.h, state.cell
    z = phi(e_z + tz.matmul_t(h_prev, p.V_z))
    i = tz.sigmoid(e_i + tz.matmul_t(h_prev, p.V_i) + tz.mul_row(c_prev, p.U_i))
    f = tz.sigmoid(e_f + tz.matmul_t(h_prev, p.V_f) + tz.mul_row(c_prev, p.U_f))
    c = f * c_prev + i * z
    r = tz.sigmoid(e_r + tz.matmul_t(h_prev, p.V_r) + tz.mul_row(c, p.U_r))
    h = r * phi(c)
    if p.fusion is not None:
        h = h * ctx_gain
    return StepState(h=h, cell=c)


def init_state(arch: str, batch_size: int, hidden: int, dtype) -> StepState:
    """Zero state at the start of every sequence."""
    h = tz.const(np.zeros((batch_size, hidden), dtype=dtype))
    if arch == "lstm":
        return StepState(h=h, cell=tz.const(np.zeros((batch_size, hidden), dtype=dtype)))
    return StepState(h=h)


def uniform_param(rng, rows, cols, dtype) -> Tensor:
    """rows x cols parameter drawn from U(-0.1, 0.1), row-major.

    The draws go in blocks straight into the parameter, so a V x H matrix
    never has a float64 copy the size of itself; the values are the same
    as one rng.uniform call of the full shape.
    """
    out = np.empty((rows, cols), dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, flat.size)
        flat[start:stop] = rng.uniform(-0.1, 0.1, size=stop - start)
    return tz.param(out)


_DRAW_BLOCK = 1 << 16  # float64 draws per block: 512 KiB, well inside L2


def init_fusion(rng, hidden: int, context_dim: int, mode: str,
                use_bias: bool = True, dtype=np.float32) -> FusionParams:
    if mode not in ("inner", "outer"):
        raise ConfigError(f"fusion mode must be inner or outer, got {mode!r}")
    return FusionParams(
        M=uniform_param(rng, hidden, context_dim, dtype),
        b_M=tz.param(np.ones((1, hidden), dtype=dtype)),
        mode=mode,
        use_bias=use_bias,
    )


def init_cell(arch: str, hidden: int, vocab: int, rng, dtype=np.float32,
              fusion: FusionParams | None = None, lstm_activation: str = "tanh"):
    """Fresh cell parameters: weight matrices U(-0.1, 0.1), gate biases zero,
    mixing vectors (alpha, betas) ones. Draw order is fixed so a given rng
    state always produces the same cell."""
    if hidden < 1 or vocab < 1:
        raise ConfigError(f"hidden={hidden} and vocab={vocab} must be positive")
    if arch == "delta-rnn":
        return DeltaRnnParams(
            W=uniform_param(rng, hidden, vocab, dtype),
            V=uniform_param(rng, hidden, hidden, dtype),
            b_r=tz.param(np.zeros((1, hidden), dtype=dtype)),
            alpha=tz.param(np.ones((1, hidden), dtype=dtype)),
            beta1=tz.param(np.ones((1, hidden), dtype=dtype)),
            beta2=tz.param(np.ones((1, hidden), dtype=dtype)),
            fusion=fusion,
        )
    if arch == "gru":
        if fusion is not None and fusion.mode == "inner":
            raise ConfigError("inner fusion is only defined for delta-rnn")
        return GruParams(
            W_z=uniform_param(rng, hidden, vocab, dtype),
            V_z=uniform_param(rng, hidden, hidden, dtype),
            W_r=uniform_param(rng, hidden, vocab, dtype),
            V_r=uniform_param(rng, hidden, hidden, dtype),
            W_h=uniform_param(rng, hidden, vocab, dtype),
            V_h=uniform_param(rng, hidden, hidden, dtype),
            fusion=fusion,
        )
    if arch == "lstm":
        if fusion is not None and fusion.mode == "inner":
            raise ConfigError("inner fusion is only defined for delta-rnn")
        return LstmParams(
            W_z=uniform_param(rng, hidden, vocab, dtype),
            V_z=uniform_param(rng, hidden, hidden, dtype),
            W_i=uniform_param(rng, hidden, vocab, dtype),
            V_i=uniform_param(rng, hidden, hidden, dtype),
            U_i=uniform_param(rng, 1, hidden, dtype),
            W_f=uniform_param(rng, hidden, vocab, dtype),
            V_f=uniform_param(rng, hidden, hidden, dtype),
            U_f=uniform_param(rng, 1, hidden, dtype),
            W_r=uniform_param(rng, hidden, vocab, dtype),
            V_r=uniform_param(rng, hidden, hidden, dtype),
            U_r=uniform_param(rng, 1, hidden, dtype),
            fusion=fusion,
            activation=lstm_activation,
        )
    raise ConfigError(f"unknown architecture {arch!r}")


_CELL_FIELDS = {
    "delta-rnn": ("W", "V", "b_r", "alpha", "beta1", "beta2"),
    "gru": ("W_z", "V_z", "W_r", "V_r", "W_h", "V_h"),
    "lstm": ("W_z", "V_z", "W_i", "V_i", "U_i", "W_f", "V_f", "U_f", "W_r", "V_r", "U_r"),
}


_CELL_CLASSES = {"delta-rnn": DeltaRnnParams, "gru": GruParams, "lstm": LstmParams}


def cell_param_shapes(arch: str, hidden: int, vocab: int) -> dict:
    """Field name -> shape for one cell: input matrices W* are H x V,
    recurrences V* are H x H, and every other field is a 1 x H row."""
    return {name: {"W": (hidden, vocab), "V": (hidden, hidden)}.get(name[0], (1, hidden))
            for name in _CELL_FIELDS[arch]}


def cell_from_params(arch: str, params: dict, fusion: FusionParams | None = None,
                     lstm_activation: str = "tanh"):
    """Cell around existing leaves, keyed by field name; no draw, no copy."""
    extra = {"activation": lstm_activation} if arch == "lstm" else {}
    return _CELL_CLASSES[arch](**params, fusion=fusion, **extra)


def cell_arch(params) -> str:
    for arch, cls in _CELL_CLASSES.items():
        if isinstance(params, cls):
            return arch
    raise ConfigError(f"not a cell parameter set: {type(params).__name__}")


def named_cell_params(params, prefix: str = "cell") -> dict:
    """Ordered name -> Tensor map for the cell and its fusion block."""
    arch = cell_arch(params)
    out = {f"{prefix}.{name}": getattr(params, name) for name in _CELL_FIELDS[arch]}
    if params.fusion is not None:
        out["fusion.M"] = params.fusion.M
        if params.fusion.use_bias:
            out["fusion.b_M"] = params.fusion.b_M
    return out
