"""Recurrent cells: delta-RNN, GRU, and peephole LSTM, with optional
multi-modal context fusion.

Cells run on batches: hidden states are B x H matrices, one row per
sequence, and each input matrix holds one column per vocabulary item.
`recurrence` runs a whole T x B block of token ids as one tape op with a
hand-written backward.

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
from .errors import ConfigError, DataError, DimensionError, StateError, UsageError
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
    order its recurrence consumes them."""
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


_LSTM_ACTIVATIONS = {  # name -> (phi, phi' written in terms of phi's output)
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (tz.logistic, lambda y: y * (1.0 - y)),
    "relu": (lambda u: np.maximum(u, 0), lambda y: (y > 0).astype(y.dtype)),
    "identity": (lambda u: u, np.ones_like),
}


def recurrence(p, tokens, gain: Tensor | None, state: StepState):
    """Run the cell over a T x B matrix of token ids from `state`, as one
    tape node. Returns (hs, final state).

    Row t * B + b of hs is sequence b's output after consuming tokens[t, b].
    The given state and the final one are constants: no gradient reaches
    or leaves them. The forward gathers the T * B embedding columns of every
    input matrix at once, then runs one step per row of tokens, in the same
    arithmetic as the step-by-step tape chain. With a tape it keeps every
    step's activations, and the backward is hand-written BPTT: one GEMM over
    the T * B rows per recurrence matrix, one scatter into each input
    matrix, and one sum for every row vector and for the gain. Under
    no_grad it keeps nothing.
    """
    arch = cell_arch(p)
    _check_fusion(p.fusion, gain, arch)
    if arch == "lstm" and p.activation not in _LSTM_ACTIVATIONS:
        raise ConfigError(f"unknown lstm activation {p.activation!r}")
    ids = np.asarray(tokens)
    if ids.ndim != 2 or ids.shape[0] < 1:
        raise DimensionError(f"recurrence: need a T x B id matrix with T >= 1, got {ids.shape}")
    steps, batch = ids.shape
    flat = ids.reshape(-1)
    names = input_matrix_names(arch)
    hidden, vocab = getattr(p, names[0]).shape
    if flat.size and (flat.min() < 0 or flat.max() >= vocab):
        raise DataError(f"recurrence: token id out of range 0..{vocab - 1}")
    for t in (state.h, gain):
        if t is not None and t.shape != (batch, hidden):
            raise DimensionError(f"recurrence: state or gain {t.shape} for {batch} x {hidden}")
    params = tuple(getattr(p, n) for n in _CELL_FIELDS[arch])
    parents = params if gain is None else params + (gain,)
    if gain is not None:
        tz._need_same_dtype("recurrence", params[0], gain)
    forward, backward = _RECURRENCES[arch]
    xs = [getattr(p, n).data.T[flat].reshape(steps, batch, hidden) for n in names]
    g = None if gain is None else gain.data
    h0, c0 = state.h.data, None if state.cell is None else state.cell.data
    kept = [] if tz._taped(parents) else None
    out, c_last = forward(p, xs, g, h0, c0, kept)
    if kept is not None:
        kept = [np.stack(a) for a in zip(*kept)]

    def back(grad):
        nonlocal kept
        if kept is None:
            raise StateError("recurrence: its kept activations were already consumed")
        acts, kept = kept, None
        hprev = np.concatenate([h0[None], out[:-1]])
        dxs, grads, dgain = backward(p, xs, g, hprev, c0, acts, grad.reshape(out.shape))
        for name, dx in zip(names, dxs):
            tz._accum_columns(getattr(p, name), flat, _rows(dx))
        for name, d in grads.items():
            tz._accum(getattr(p, name), d)
        if gain is not None:
            tz._accum(gain, dgain)

    hs = tz._result(out.reshape(steps * batch, hidden), parents, back)
    final = StepState(h=tz.const(out[-1]), cell=None if c_last is None else tz.const(c_last))
    return hs, final


def _rows(a: np.ndarray) -> np.ndarray:
    """A T x B x C stack as T * B rows."""
    return a.reshape(-1, a.shape[-1])


def _rowsum(a: np.ndarray) -> np.ndarray:
    return _rows(a).sum(axis=0, keepdims=True)


def _delta_forward(p, xs, g, h, c, kept):
    """d_rec = V h_prev and d_dat = the embedding are mixed through a
    second-order term alpha * d_rec * d_dat plus the gated linear terms,
    squashed by tanh; a data-driven rate gate r then interpolates with the
    previous state and the result passes through a linear rectifier."""
    (x,) = xs
    inner = p.fusion is not None and p.fusion.mode == "inner"
    r = tz.logistic(x + p.b_r.data)
    one_minus_r = 1.0 - r
    dat = x * p.beta2.data
    V, alpha, beta1 = p.V.data, p.alpha.data, p.beta1.data
    out = np.empty_like(x)
    for t in range(len(x)):
        d_rec = h @ V.T
        pre = d_rec * x[t] * alpha + (d_rec * beta1 + dat[t])
        if inner:
            pre = pre + g
        z = np.tanh(pre)
        mixed = one_minus_r[t] * z + r[t] * h
        if kept is not None:
            kept.append((d_rec, z, mixed))
        if g is not None and not inner:
            mixed = mixed * g
        h = out[t] = np.maximum(mixed, 0)
    return out, None


def _delta_backward(p, xs, g, hprev, c0, acts, G):
    (x,) = xs
    d_rec, z, mixed = acts
    outer = p.fusion is not None and p.fusion.mode == "outer"
    r = tz.logistic(x + p.b_r.data)
    live = ((mixed * g if outer else mixed) > 0).astype(x.dtype)
    dz_dm = (1.0 - r) * (1.0 - z * z)
    dpre_da = p.alpha.data * x + p.beta1.data
    V = p.V.data
    d_live, d_rec_grad = np.empty_like(G), np.empty_like(G)
    dh = np.zeros_like(G[0])
    for t in reversed(range(len(G))):
        dm = np.multiply(G[t] + dh, live[t], out=d_live[t])
        if outer:
            dm = dm * g
        da = np.multiply(dm * dz_dm[t], dpre_da[t], out=d_rec_grad[t])
        dh = dm * r[t] + da @ V
    dmixed = d_live * g if outer else d_live
    dpre = dmixed * dz_dm
    dr = dmixed * (hprev - z) * r * (1.0 - r)
    dx = dpre * (p.alpha.data * d_rec + p.beta2.data) + dr
    grads = {"V": _rows(d_rec_grad).T @ _rows(hprev), "b_r": _rowsum(dr),
             "alpha": _rowsum(dpre * d_rec * x), "beta1": _rowsum(dpre * d_rec),
             "beta2": _rowsum(dpre * x)}
    dgain = None
    if g is not None:
        dgain = (d_live * mixed).sum(axis=0) if outer else dpre.sum(axis=0)
    return (dx,), grads, dgain


def _gru_forward(p, xs, g, h, c, kept):
    """The update gate keeps the old state: h = z*h_prev + (1-z)*cand, and
    the candidate's recurrence reads r * h_prev. Outer fusion multiplies
    the new state by the context gain."""
    x_z, x_r, x_h = xs
    V_z, V_r, V_h = p.V_z.data, p.V_r.data, p.V_h.data
    out = np.empty_like(x_z)
    for t in range(len(x_z)):
        z = tz.logistic(x_z[t] + h @ V_z.T)
        r = tz.logistic(x_r[t] + h @ V_r.T)
        rh = r * h
        cand = np.tanh(x_h[t] + rh @ V_h.T)
        new = z * h + (1.0 - z) * cand
        if kept is not None:
            kept.append((z, r, rh, cand, new))
        h = out[t] = new if g is None else new * g
    return out, None


def _gru_backward(p, xs, g, hprev, c0, acts, G):
    z, r, rh, cand, new = acts
    hidden = G.shape[-1]
    dz_dpre = (hprev - cand) * z * (1.0 - z)
    dcand_dpre = (1.0 - z) * (1.0 - cand * cand)
    dr_dpre = hprev * r * (1.0 - r)
    V_zr = np.concatenate([p.V_z.data, p.V_r.data])
    V_h = p.V_h.data
    d_out = np.empty_like(G)
    d_zr = np.empty(G.shape[:2] + (2 * hidden,), G.dtype)
    d_cand = np.empty_like(G)
    dh = np.zeros_like(G[0])
    for t in reversed(range(len(G))):
        dnew = np.add(G[t], dh, out=d_out[t])
        if g is not None:
            dnew = dnew * g
        np.multiply(dnew, dz_dpre[t], out=d_zr[t, :, :hidden])
        drh = np.multiply(dnew, dcand_dpre[t], out=d_cand[t]) @ V_h
        np.multiply(drh, dr_dpre[t], out=d_zr[t, :, hidden:])
        dh = dnew * z[t] + drh * r[t] + d_zr[t] @ V_zr
    dV_zr = _rows(d_zr).T @ _rows(hprev)
    grads = {"V_z": dV_zr[:hidden], "V_r": dV_zr[hidden:],
             "V_h": _rows(d_cand).T @ _rows(rh)}
    dgain = None if g is None else (d_out * new).sum(axis=0)
    return (d_zr[..., :hidden], d_zr[..., hidden:], d_cand), grads, dgain


def _lstm_forward(p, xs, g, h, c, kept):
    """Peephole LSTM: the diagonal peepholes U_i and U_f see c_{t-1}, U_r
    sees c_t. The block input and cell output use p.activation. Outer
    fusion multiplies the emitted hidden state by the context gain."""
    x_z, x_i, x_f, x_r = xs
    V_z, V_i, V_f, V_r = p.V_z.data, p.V_i.data, p.V_f.data, p.V_r.data
    U_i, U_f, U_r = p.U_i.data, p.U_f.data, p.U_r.data
    phi = _LSTM_ACTIVATIONS[p.activation][0]
    out = np.empty_like(x_z)
    for t in range(len(x_z)):
        z = phi(x_z[t] + h @ V_z.T)
        i = tz.logistic(x_i[t] + h @ V_i.T + c * U_i)
        f = tz.logistic(x_f[t] + h @ V_f.T + c * U_f)
        c = f * c + i * z
        o = tz.logistic(x_r[t] + h @ V_r.T + c * U_r)
        phi_c = phi(c)
        y = o * phi_c
        if kept is not None:
            kept.append((z, i, f, c, o, phi_c, y))
        h = out[t] = y if g is None else y * g
    return out, c


def _lstm_backward(p, xs, g, hprev, c0, acts, G):
    z, i, f, c, o, phi_c, y = acts
    hidden = G.shape[-1]
    dphi = _LSTM_ACTIVATIONS[p.activation][1]
    cprev = np.concatenate([c0[None], c[:-1]])
    do_dpre = phi_c * o * (1.0 - o)
    dc_dy = o * dphi(phi_c)
    di_dpre = z * i * (1.0 - i)
    df_dpre = cprev * f * (1.0 - f)
    dz_dpre = i * dphi(z)
    U_i, U_f, U_r = p.U_i.data, p.U_f.data, p.U_r.data
    V_all = np.concatenate([p.V_z.data, p.V_i.data, p.V_f.data, p.V_r.data])
    d_out = np.empty_like(G)
    d_pre = np.empty(G.shape[:2] + (4 * hidden,), G.dtype)  # gates z, i, f, r
    dz, di, df, do = (d_pre[..., k * hidden:(k + 1) * hidden] for k in range(4))
    dh = np.zeros_like(G[0])
    dc_next = np.zeros_like(G[0])
    for t in reversed(range(len(G))):
        dy = np.add(G[t], dh, out=d_out[t])
        if g is not None:
            dy = dy * g
        dpo = np.multiply(dy, do_dpre[t], out=do[t])
        dc = dc_next + dy * dc_dy[t] + dpo * U_r
        dpi = np.multiply(dc, di_dpre[t], out=di[t])
        dpf = np.multiply(dc, df_dpre[t], out=df[t])
        np.multiply(dc, dz_dpre[t], out=dz[t])
        dc_next = dc * f[t] + dpi * U_i + dpf * U_f
        dh = d_pre[t] @ V_all
    dV = _rows(d_pre).T @ _rows(hprev)
    grads = {name: dV[k * hidden:(k + 1) * hidden]
             for k, name in enumerate(("V_z", "V_i", "V_f", "V_r"))}
    grads.update(U_i=_rowsum(di * cprev), U_f=_rowsum(df * cprev), U_r=_rowsum(do * c))
    dgain = None if g is None else (d_out * y).sum(axis=0)
    return (dz, di, df, do), grads, dgain


_RECURRENCES = {
    "delta-rnn": (_delta_forward, _delta_backward),
    "gru": (_gru_forward, _gru_backward),
    "lstm": (_lstm_forward, _lstm_backward),
}


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
