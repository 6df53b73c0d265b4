"""Recurrent cells: delta-RNN, GRU, and peephole LSTM, with optional
multi-modal context fusion.

Each architecture is one entry of SPECS: its parameters in draw and save
order, the input matrix that holds the word embedding, the fusion modes it
defines, and its forward and backward. A Cell holds the parameters by name.
Cells run on batches: hidden states are B x H matrices, one row per
sequence, and each input matrix holds one column per vocabulary item.
`recurrence` runs a whole T x B block of token ids and, when asked to,
keeps the activations that `recurrence_backward`, hand-written BPTT, reads.

Fusion modes: "inner" adds the projected context inside the candidate
tanh of the delta-RNN; "outer" multiplies the cell output by the projected
context and is defined for all three cells. With the projection forced to
all ones, an outer-fused step reproduces the text-only step exactly; for
inner mode the neutral projection is all zeros.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DataError, DimensionError, UsageError


@dataclass(frozen=True)
class CellSpec:
    """One architecture. Each parameter is a (name, init) pair, in draw and
    save order; its first letter gives its shape: W* are H x V input
    matrices, V* are H x H recurrences, and the rest are 1 x H rows."""

    params: tuple
    embedding: str  # the input matrix pretrained vectors are written into
    fusions: tuple  # the fusion modes besides "none"
    forward: Callable
    backward: Callable

    @functools.cached_property
    def inputs(self) -> tuple:
        """The input matrices, in the order the recurrence consumes them."""
        return tuple(name for name, _ in self.params if name[0] == "W")


def spec(arch: str) -> CellSpec:
    if arch not in SPECS:
        raise ConfigError(f"arch must be one of {ARCHITECTURES}, got {arch!r}")
    return SPECS[arch]


def check_fusion(arch: str, mode: str) -> None:
    """ConfigError unless arch is known and defines fusion `mode` ("none":
    text-only)."""
    fusions = spec(arch).fusions
    if mode != "none" and mode not in fusions:
        raise ConfigError(f"fusion for {arch} must be none or one of {fusions}, got {mode!r}")


def param_table(arch: str, hidden: int, vocab: int) -> dict:
    """name -> (shape, init) for one cell, in draw and save order."""
    return {name: ({"W": (hidden, vocab), "V": (hidden, hidden)}.get(name[0], (1, hidden)), init)
            for name, init in spec(arch).params}


def draw(init: str, rng, out: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """Fill the C-contiguous array out with a parameter's initial values and
    return it: "uniform" draws U(-0.1, 0.1) row-major from rng, "zeros" and
    "ones" draw nothing.

    The uniform draws go in blocks of float64 through buf (a fresh block of
    at most DRAW_BLOCK entries when None), so a V x H matrix never has a
    float64 copy the size of itself. Each block is filled by rng.random and
    mapped to -0.1 + 0.2 u in place, the arithmetic of rng.uniform(-0.1,
    0.1), so the values are the same as one rng.uniform call of the full
    shape, whatever the block size. The block is then copied into out,
    which casts it without the buffers a ufunc writing out would allocate.
    """
    if init != "uniform":
        out[...] = {"zeros": 0, "ones": 1}[init]
        return out
    flat = out.reshape(-1)
    if buf is None:
        buf = np.empty(max(1, min(DRAW_BLOCK, flat.size)))
    for start in range(0, flat.size, buf.size):
        u = buf[:min(buf.size, flat.size - start)]
        rng.random(out=u)
        u *= 0.2
        u += -0.1
        flat[start:start + u.size] = u
    return out


DRAW_BLOCK = 1 << 16  # float64 draws per block: 512 KiB, well inside L2


@dataclass
class Cell:
    """One recurrent cell: its architecture, its parameters by name (also
    set as attributes, so the math reads cell.W), the model's fusion mode
    ("none", "inner" or "outer"), and the LSTM's block input and cell
    output nonlinearity. SequenceModel checks the wiring it builds."""

    arch: str
    params: dict
    fusion: str = "none"
    activation: str = "tanh"

    def __post_init__(self):
        self.__dict__.update(self.params)  # cell.W is cell.params["W"]


@dataclass
class StepState:
    """Per-step recurrent state, one row per sequence; cell is only used by
    the LSTM."""

    h: np.ndarray
    cell: np.ndarray | None = None

    def take(self, rows) -> StepState:
        """The state of the given rows, in order; a row may repeat."""
        return StepState(h=self.h[rows], cell=None if self.cell is None else self.cell[rows])


def init_state(arch: str, batch_size: int, hidden: int, dtype) -> StepState:
    """Zero state at the start of every sequence."""
    cell = np.zeros((batch_size, hidden), dtype=dtype) if arch == "lstm" else None
    return StepState(h=np.zeros((batch_size, hidden), dtype=dtype), cell=cell)


def _check_gain(fusion: str, ctx_gain, arch: str) -> None:
    if fusion == "none" and ctx_gain is not None:
        raise UsageError(f"text-only {arch} step was given a context gain")
    if fusion != "none" and ctx_gain is None:
        raise UsageError(f"fused {arch} step needs a context gain; pass SequenceModel._gain(...)")


_LSTM_ACTIVATIONS = {  # name -> (phi, phi' written in terms of phi's output)
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (tz.logistic, lambda y: y * (1.0 - y)),
    "relu": (lambda u: np.maximum(u, 0), lambda y: (y > 0).astype(y.dtype)),
    "identity": (lambda u: u, np.ones_like),
}


def lstm_activation(name: str) -> tuple:
    """(phi, phi' in terms of phi's output) for an LSTM activation name."""
    if name not in _LSTM_ACTIVATIONS:
        raise ConfigError(f"lstm activation must be one of {tuple(_LSTM_ACTIVATIONS)},"
                          f" got {name!r}")
    return _LSTM_ACTIVATIONS[name]


def recurrence(p: Cell, tokens, gain: np.ndarray | None, state: StepState,
               keep: bool = False) -> tuple:
    """Run the cell over a T x B matrix of token ids from `state`. Returns
    (hs, final state, kept).

    Row t * B + b of hs is sequence b's output after consuming tokens[t, b].
    No gradient reaches or leaves the given state and the final one. The
    forward gathers the T * B embedding columns of every input matrix at
    once, then runs one step per row of tokens, in the same arithmetic as
    the step-by-step op chain. With keep, kept holds every step's
    activations for recurrence_backward; else it is None and nothing is kept.
    """
    sp = spec(p.arch)
    _check_gain(p.fusion, gain, p.arch)
    ids = np.asarray(tokens)
    if ids.ndim != 2 or ids.shape[0] < 1:
        raise DimensionError(f"recurrence: need a T x B id matrix with T >= 1, got {ids.shape}")
    steps, batch = ids.shape
    flat = ids.reshape(-1)
    names = sp.inputs
    hidden, vocab = p.params[names[0]].shape
    if flat.size and (flat.min() < 0 or flat.max() >= vocab):
        raise DataError(f"recurrence: token id out of range 0..{vocab - 1}")
    for a in (state.h, gain):
        if a is not None and a.shape != (batch, hidden):
            raise DimensionError(f"recurrence: state or gain {a.shape} for {batch} x {hidden}")
    if gain is not None:
        tz._need_same_dtype("recurrence", p.params[names[0]], gain)
    xs = [p.params[n].T[flat].reshape(steps, batch, hidden) for n in names]
    acts = [] if keep else None
    out, c_last = sp.forward(p, xs, gain, state.h, state.cell, acts)
    kept = [p, flat, xs, gain, state, out, [np.stack(a) for a in zip(*acts)]] if keep else None
    return out.reshape(steps * batch, hidden), StepState(h=out[-1], cell=c_last), kept


def recurrence_backward(kept, dhs: np.ndarray) -> tuple:
    """(grads, cols, dgain): hand-written BPTT through what recurrence kept,
    which this consumes, from dhs, the gradient of its stacked outputs.

    grads maps each of the cell's parameter names to its gradient: one GEMM
    over the T * B rows per recurrence matrix, and one sum for every row
    vector. Each input matrix's gradient is the block of the columns cols,
    the sorted distinct token ids (see tensor.column_blocks). dgain is the
    gain's gradient, B x H, or None for a text-only cell.
    """
    p, ids, xs, g, state, out, acts = kept
    kept.clear()  # the activations go on return
    sp = spec(p.arch)
    hprev = np.concatenate([state.h[None], out[:-1]])
    dxs, grads, dgain = sp.backward(p, xs, g, hprev, state.cell, acts, dhs.reshape(out.shape))
    cols, blocks = tz.column_blocks(ids, [_rows(dx) for dx in dxs])
    return {**dict(zip(sp.inputs, blocks)), **grads}, cols, dgain


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
    inner = p.fusion == "inner"
    r = tz.logistic(x + p.b_r)
    one_minus_r = 1.0 - r
    dat = x * p.beta2
    out = np.empty_like(x)
    for t in range(len(x)):
        d_rec = tz.dot_t(h, p.V)
        pre = d_rec * x[t] * p.alpha + (d_rec * p.beta1 + dat[t])
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
    outer = p.fusion == "outer"
    r = tz.logistic(x + p.b_r)
    live = ((mixed * g if outer else mixed) > 0).astype(x.dtype)
    dz_dm = (1.0 - r) * (1.0 - z * z)
    dpre_da = p.alpha * x + p.beta1
    d_live, d_rec_grad = np.empty_like(G), np.empty_like(G)
    dh = np.zeros_like(G[0])
    for t in reversed(range(len(G))):
        dm = np.multiply(G[t] + dh, live[t], out=d_live[t])
        if outer:
            dm = dm * g
        da = np.multiply(dm * dz_dm[t], dpre_da[t], out=d_rec_grad[t])
        dh = dm * r[t] + da @ p.V
    dmixed = d_live * g if outer else d_live
    dpre = dmixed * dz_dm
    dr = dmixed * (hprev - z) * r * (1.0 - r)
    dx = dpre * (p.alpha * d_rec + p.beta2) + dr
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
    out = np.empty_like(x_z)
    for t in range(len(x_z)):
        z = tz.logistic(x_z[t] + tz.dot_t(h, p.V_z))
        r = tz.logistic(x_r[t] + tz.dot_t(h, p.V_r))
        rh = r * h
        cand = np.tanh(x_h[t] + tz.dot_t(rh, p.V_h))
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
    V_zr = np.concatenate([p.V_z, p.V_r])
    d_out = np.empty_like(G)
    d_zr = np.empty(G.shape[:2] + (2 * hidden,), G.dtype)
    d_cand = np.empty_like(G)
    dh = np.zeros_like(G[0])
    for t in reversed(range(len(G))):
        dnew = np.add(G[t], dh, out=d_out[t])
        if g is not None:
            dnew = dnew * g
        np.multiply(dnew, dz_dpre[t], out=d_zr[t, :, :hidden])
        drh = np.multiply(dnew, dcand_dpre[t], out=d_cand[t]) @ p.V_h
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
    phi = lstm_activation(p.activation)[0]
    out = np.empty_like(x_z)
    for t in range(len(x_z)):
        z = phi(x_z[t] + tz.dot_t(h, p.V_z))
        i = tz.logistic(x_i[t] + tz.dot_t(h, p.V_i) + c * p.U_i)
        f = tz.logistic(x_f[t] + tz.dot_t(h, p.V_f) + c * p.U_f)
        c = f * c + i * z
        o = tz.logistic(x_r[t] + tz.dot_t(h, p.V_r) + c * p.U_r)
        phi_c = phi(c)
        y = o * phi_c
        if kept is not None:
            kept.append((z, i, f, c, o, phi_c, y))
        h = out[t] = y if g is None else y * g
    return out, c


def _lstm_backward(p, xs, g, hprev, c0, acts, G):
    z, i, f, c, o, phi_c, y = acts
    hidden = G.shape[-1]
    dphi = lstm_activation(p.activation)[1]
    cprev = np.concatenate([c0[None], c[:-1]])
    do_dpre = phi_c * o * (1.0 - o)
    dc_dy = o * dphi(phi_c)
    di_dpre = z * i * (1.0 - i)
    df_dpre = cprev * f * (1.0 - f)
    dz_dpre = i * dphi(z)
    V_all = np.concatenate([p.V_z, p.V_i, p.V_f, p.V_r])
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
        dc = dc_next + dy * dc_dy[t] + dpo * p.U_r
        dpi = np.multiply(dc, di_dpre[t], out=di[t])
        dpf = np.multiply(dc, df_dpre[t], out=df[t])
        np.multiply(dc, dz_dpre[t], out=dz[t])
        dc_next = dc * f[t] + dpi * p.U_i + dpf * p.U_f
        dh = d_pre[t] @ V_all
    dV = _rows(d_pre).T @ _rows(hprev)
    grads = {name: dV[k * hidden:(k + 1) * hidden]
             for k, name in enumerate(("V_z", "V_i", "V_f", "V_r"))}
    grads.update(U_i=_rowsum(di * cprev), U_f=_rowsum(df * cprev), U_r=_rowsum(do * c))
    dgain = None if g is None else (d_out * y).sum(axis=0)
    return (dz, di, df, do), grads, dgain


# W* are input matrices, V* recurrences. The delta-RNN mixes through alpha,
# beta1 and beta2 and gates by rate b_r; the GRU's gates are z (update), r
# (reset) and h (candidate); the LSTM's are z (block input), i, f and r
# (output), with diagonal peepholes U_i, U_f (to c_{t-1}) and U_r (to c_t).
SPECS = {
    "delta-rnn": CellSpec(
        params=(("W", "uniform"), ("V", "uniform"), ("b_r", "zeros"), ("alpha", "ones"),
                ("beta1", "ones"), ("beta2", "ones")),
        embedding="W", fusions=("inner", "outer"),
        forward=_delta_forward, backward=_delta_backward),
    "gru": CellSpec(
        params=tuple((name, "uniform") for name in ("W_z", "V_z", "W_r", "V_r", "W_h", "V_h")),
        embedding="W_h", fusions=("outer",),
        forward=_gru_forward, backward=_gru_backward),
    "lstm": CellSpec(
        params=tuple((name, "uniform") for name in ("W_z", "V_z", "W_i", "V_i", "U_i", "W_f",
                                                     "V_f", "U_f", "W_r", "V_r", "U_r")),
        embedding="W_i", fusions=("outer",),
        forward=_lstm_forward, backward=_lstm_backward),
}
ARCHITECTURES = tuple(SPECS)
