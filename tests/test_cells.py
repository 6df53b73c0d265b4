import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.cells as C
import mmlm.data as D
import tape_ops as O
from mmlm.errors import ConfigError, DataError, DimensionError, UsageError
from mmlm.model import ModelConfig, build_model
from mmlm.tensor import seed_stream


from oracles import np_sigmoid, delta_step_np as delta_oracle, gru_step_np as gru_oracle, lstm_step_np as lstm_oracle
from oracles import delta_rnn_step, finite_diff_check, gru_step, logits, lstm_step, step as oracle_step
from tape_ops import add, embed_columns, hadamard, log_softmax_rows, put_rows, sum_all


@dataclass
class NodeCell(C.Cell):
    """A cell of tape leaves, plus the leaves of the context projection,
    which the model holds beside its cell: "fusion.M" and "fusion.b_M",
    none for a text-only cell."""

    projection: dict = field(default_factory=dict)


def init_cell(arch, hidden, vocab, rng, dtype=np.float32, mode=None, cdim=3,
              lstm_activation="tanh"):
    """A fresh NodeCell of a wiring the model accepts: with a fusion mode,
    M (H x cdim) is drawn from rng first and b_M is ones; then the cell's
    parameters in the spec table's order."""
    fusion = mode or "none"
    C.check_fusion(arch, fusion)
    projection = {}
    if mode is not None:
        projection["fusion.M"] = O.param(C.draw("uniform", rng, np.empty((hidden, cdim), dtype)))
        projection["fusion.b_M"] = O.param(np.ones((1, hidden), dtype=dtype))
    params = {name: O.param(C.draw(init, rng, np.empty(shape, dtype)))
              for name, (shape, init) in C.param_table(arch, hidden, vocab).items()}
    return NodeCell(arch, params, fusion, lstm_activation, projection)


def leaves_of(p):
    """The leaves of a NodeCell, by their model.parameter_table names."""
    return {**{f"cell.{name}": t for name, t in p.params.items()}, **p.projection}


def arrays_of(p):
    """The cell of the arrays under a cell of nodes, as the package runs it."""
    return C.Cell(p.arch, {name: t.data for name, t in p.params.items()}, p.fusion,
                  p.activation)


def test_delta_rnn_zero_weights_halves_state():
    rng = seed_stream(0, "t")
    p = init_cell("delta-rnn", 4, 6, rng, dtype=np.float64)
    for name in ("W", "V", "b_r"):
        getattr(p, name).data[:] = 0.0
    v = np.array([[1.0, -2.0, 0.5, 0.0]])
    st = delta_rnn_step(p, O.const(np.zeros((1, 4))), O.const(v))
    # z = tanh(0) = 0, r = 1/2, so h = relu(v / 2)
    npt.assert_array_equal(st.h.data, [[0.5, 0.0, 0.25, 0.0]])


def test_gru_zero_weights_halves_state():
    rng = seed_stream(0, "t")
    p = init_cell("gru", 3, 6, rng, dtype=np.float64)
    for t in p.params.values():
        t.data[:] = 0.0
    v = np.array([[1.0, -2.0, 0.5]])
    e = tuple(O.const(np.zeros((1, 3))) for _ in range(3))
    st = gru_step(p, e, O.const(v))
    # z = 1/2 keeps half the old state; candidate is tanh(0) = 0
    npt.assert_array_equal(st.h.data, v / 2.0)


def test_lstm_zero_weights_closed_form():
    rng = seed_stream(0, "t")
    p = init_cell("lstm", 3, 6, rng, dtype=np.float64)
    for t in p.params.values():
        t.data[:] = 0.0
    v = np.array([[1.0, -2.0, 0.5]])
    e = tuple(O.const(np.zeros((1, 3))) for _ in range(4))
    st = lstm_step(p, e, C.StepState(h=O.const(np.zeros((1, 3))), cell=O.const(v)))
    # i = f = r = 1/2, z = 0: c = v/2, h = tanh(v/2) / 2
    npt.assert_allclose(st.cell.data, v / 2.0, rtol=1e-15)
    npt.assert_allclose(st.h.data, 0.5 * np.tanh(v / 2.0), rtol=1e-15)


def test_delta_rnn_hand_computed_step():
    rng = seed_stream(0, "t")
    p = init_cell("delta-rnn", 2, 2, rng, dtype=np.float64)
    p.V.data[:] = [[0.5, 0.0], [0.0, 0.5]]
    p.W.data[:] = [[0.2, 0.0], [0.4, 0.0]]  # token 0 embeds to (0.2, 0.4)
    p.b_r.data[:] = 0.0
    h_prev = np.array([[1.0, -1.0]])
    emb = embed_columns(p.W, np.array([0]))
    st = delta_rnn_step(p, emb, O.const(h_prev))
    # d_rec=(0.5,-0.5), d_dat=(0.2,0.4), pre=d_rec*d_dat+d_rec+d_dat=(0.8,-0.3)
    z = np.tanh([0.8, -0.3])
    r = np_sigmoid(np.array([0.2, 0.4]))
    mixed = (1 - r) * z + r * np.array([1.0, -1.0])
    npt.assert_allclose(st.h.data, np.maximum(mixed, 0.0)[None, :], rtol=1e-15)
    assert st.h.data[0, 1] == 0.0  # second unit is rectified away


@pytest.mark.parametrize("mode,arch", [(mode, arch) for arch, sp in C.SPECS.items()
                                       for mode in (None,) + sp.fusions])
def test_steps_match_numpy_oracle(arch, mode):
    hidden, vocab, cdim, batch = 5, 9, 3, 4
    for seed in range(5):
        rng = seed_stream(seed, "oracle")
        p = init_cell(arch, hidden, vocab, rng, dtype=np.float64, mode=mode, cdim=cdim)
        c = arrays_of(p)
        ids = rng.integers(0, vocab, size=batch)
        h_prev = rng.uniform(-1, 1, (batch, hidden))
        ctx = rng.uniform(-1, 1, (batch, cdim)) if mode else None
        gain = O.project_context(p.projection, ctx) if mode else None
        gain_np = None if gain is None else gain.data
        if arch == "delta-rnn":
            emb = embed_columns(p.W, ids)
            got = delta_rnn_step(p, emb, O.const(h_prev), gain).h.data
            want = delta_oracle(c, c.W[:, ids].T, h_prev, gain_np)
        elif arch == "gru":
            embs = tuple(embed_columns(getattr(p, n), ids) for n in ("W_z", "W_r", "W_h"))
            got = gru_step(p, embs, O.const(h_prev), gain).h.data
            embs_np = tuple(getattr(c, n)[:, ids].T for n in ("W_z", "W_r", "W_h"))
            want = gru_oracle(c, embs_np, h_prev, gain_np)
        else:
            c_prev = rng.uniform(-1, 1, (batch, hidden))
            names = ("W_z", "W_i", "W_f", "W_r")
            embs = tuple(embed_columns(getattr(p, n), ids) for n in names)
            st = lstm_step(p, embs, C.StepState(h=O.const(h_prev), cell=O.const(c_prev)), gain)
            embs_np = tuple(getattr(c, n)[:, ids].T for n in names)
            want, want_c = lstm_oracle(c, embs_np, h_prev, c_prev, gain_np)
            npt.assert_allclose(st.cell.data, want_c, atol=1e-14)
            got = st.h.data
        npt.assert_allclose(got, want, atol=1e-14)


def fused_model(hidden, cdim, bias=True):
    cfg = ModelConfig(hidden=hidden, vocab=4, context_dim=cdim, fusion="outer", fusion_bias=bias)
    return build_model(cfg, seed=0, dtype=np.float64)


def test_project_context_hand_value_and_null():
    m = fused_model(2, 2)
    m.params["fusion.M"][:] = [[1.0, 2.0], [3.0, 4.0]]
    out = m._gain(np.array([1.0, 1.0]), 1)
    npt.assert_array_equal(out, [[4.0, 8.0]])
    # null context behaves exactly like an explicit zero vector
    null = m._gain(None, 3)
    explicit = m._gain(np.zeros((3, 2)), 3)
    npt.assert_array_equal(null, explicit)
    npt.assert_array_equal(null, np.ones((3, 2)))
    # without the bias the null gain is all zeros and annihilates outer cells
    npt.assert_array_equal(fused_model(2, 2, bias=False)._gain(None, 2), np.zeros((2, 2)))


def test_project_context_rejects_wrong_width():
    m = fused_model(4, 3)
    with pytest.raises(DimensionError):
        m._gain(np.zeros((2, 5)), 2)
    with pytest.raises(DimensionError):
        m._gain(np.zeros((2, 3)), 4)


@pytest.mark.parametrize("arch", ["delta-rnn", "gru", "lstm"])
def test_outer_ones_gain_reproduces_text_only(arch):
    """Gain forced to all ones must leave the fused step bit-identical."""
    hidden, vocab, batch = 6, 8, 3
    rng = seed_stream(3, "gate")
    fused = init_cell(arch, hidden, vocab, rng, dtype=np.float64, mode="outer", cdim=4)
    plain = init_cell(arch, hidden, vocab, seed_stream(99, "x"), dtype=np.float64)
    for name, t in plain.params.items():
        t.data[:] = fused.params[name].data
    ids = np.arange(batch)
    h_prev = seed_stream(4, "h").uniform(-1, 1, (batch, hidden))
    ones = O.const(np.ones((batch, hidden)))
    if arch == "delta-rnn":
        a = delta_rnn_step(fused, embed_columns(fused.W, ids), O.const(h_prev), ones).h.data
        b = delta_rnn_step(plain, embed_columns(plain.W, ids), O.const(h_prev)).h.data
    elif arch == "gru":
        e = tuple(embed_columns(getattr(fused, n), ids) for n in ("W_z", "W_r", "W_h"))
        a = gru_step(fused, e, O.const(h_prev), ones).h.data
        b = gru_step(plain, e, O.const(h_prev)).h.data
    else:
        c_prev = seed_stream(5, "c").uniform(-1, 1, (batch, hidden))
        e = tuple(embed_columns(getattr(fused, n), ids) for n in ("W_z", "W_i", "W_f", "W_r"))
        a = lstm_step(fused, e, C.StepState(O.const(h_prev), O.const(c_prev)), ones).h.data
        b = lstm_step(plain, e, C.StepState(O.const(h_prev), O.const(c_prev))).h.data
    npt.assert_array_equal(a, b)


def test_inner_zero_gain_reproduces_text_only():
    hidden, vocab, batch = 6, 8, 3
    rng = seed_stream(3, "gate")
    fused = init_cell("delta-rnn", hidden, vocab, rng, dtype=np.float64, mode="inner", cdim=4)
    plain = init_cell("delta-rnn", hidden, vocab, seed_stream(99, "x"), dtype=np.float64)
    for name, t in plain.params.items():
        t.data[:] = fused.params[name].data
    ids = np.arange(batch)
    h_prev = seed_stream(4, "h").uniform(-1, 1, (batch, hidden))
    zeros = O.const(np.zeros((batch, hidden)))
    a = delta_rnn_step(fused, embed_columns(fused.W, ids), O.const(h_prev), zeros).h.data
    b = delta_rnn_step(plain, embed_columns(plain.W, ids), O.const(h_prev)).h.data
    npt.assert_array_equal(a, b)


def test_outer_zero_gain_annihilates_state():
    # this is why b_M starts at one: a zero projection would erase the state
    p = init_cell("gru", 4, 5, seed_stream(1, "z"), dtype=np.float64, mode="outer")
    e = tuple(embed_columns(getattr(p, n), np.array([1, 2])) for n in ("W_z", "W_r", "W_h"))
    st = gru_step(p, e, O.const(np.ones((2, 4))), O.const(np.zeros((2, 4))))
    npt.assert_array_equal(st.h.data, np.zeros((2, 4)))


def test_fusion_usage_errors():
    rng = seed_stream(0, "u")
    plain = init_cell("delta-rnn", 3, 4, rng, dtype=np.float64)
    fused = init_cell("delta-rnn", 3, 4, rng, dtype=np.float64, mode="outer", cdim=2)
    emb = embed_columns(plain.W, np.array([0]))
    h = O.const(np.zeros((1, 3)))
    gain = O.const(np.ones((1, 3)))
    with pytest.raises(UsageError):
        delta_rnn_step(plain, emb, h, gain)
    with pytest.raises(UsageError):
        delta_rnn_step(fused, embed_columns(fused.W, np.array([0])), h)


def test_inner_fusion_rejected_for_gated_cells():
    rng = seed_stream(0, "u")
    for arch in ("gru", "lstm"):
        with pytest.raises(ConfigError):
            init_cell(arch, 3, 4, rng, dtype=np.float64, mode="inner", cdim=2)


def test_init_ranges_and_determinism():
    p1 = init_cell("lstm", 8, 12, seed_stream(11, "init"), mode="outer", cdim=5)
    p2 = init_cell("lstm", 8, 12, seed_stream(11, "init"), mode="outer", cdim=5)
    for name, t in leaves_of(p1).items():
        other = leaves_of(p2)[name]
        npt.assert_array_equal(t.data, other.data)
        assert t.data.dtype == np.float32
        if name != "fusion.b_M":  # ones by design, everything else is uniform
            assert np.abs(t.data).max() <= 0.1
    assert not np.array_equal(p1.W_z.data, p1.W_i.data)  # separate draws
    d = init_cell("delta-rnn", 4, 4, seed_stream(0, "i"), dtype=np.float64)
    npt.assert_array_equal(d.b_r.data, np.zeros((1, 4)))
    npt.assert_array_equal(d.alpha.data, np.ones((1, 4)))
    npt.assert_array_equal(d.beta1.data, np.ones((1, 4)))
    npt.assert_array_equal(d.beta2.data, np.ones((1, 4)))
    f = init_cell("delta-rnn", 4, 4, seed_stream(0, "i"), dtype=np.float64, mode="outer")
    npt.assert_array_equal(f.projection["fusion.b_M"].data, np.ones((1, 4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_draw_equals_one_uniform_call_bit_for_bit(dtype):
    # sizes below, at and past the block, and not a multiple of it; the
    # draws of one shape go on from where the previous shape's stopped; a
    # given buffer of another size gives the same values
    block = C.DRAW_BLOCK
    shapes = [(1, 1), (3, 5), (1, block - 1), (1, block), (1, block + 1), (7, 2 * block // 7 + 3)]
    for buf in (None, np.empty(1000)):
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        for shape in shapes:
            out = np.empty(shape, dtype)
            got = C.draw("uniform", got_rng, out, buf)
            want = want_rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
            assert got is out
            assert got.tobytes() == want.tobytes(), shape


def test_cell_validates_its_wiring():
    rng = seed_stream(0, "v")
    with pytest.raises(ConfigError):
        C.spec("elman")
    with pytest.raises(ConfigError):
        init_cell("elman", 4, 4, rng)


def test_lstm_unknown_activation_rejected():
    rng = seed_stream(0, "a")
    p = init_cell("lstm", 3, 4, rng, dtype=np.float64, lstm_activation="softsign")
    e = tuple(embed_columns(getattr(p, n), np.array([0])) for n in ("W_z", "W_i", "W_f", "W_r"))
    st = C.StepState(h=O.const(np.zeros((1, 3))), cell=O.const(np.zeros((1, 3))))
    with pytest.raises(ConfigError):
        lstm_step(p, e, st)


def test_lstm_peepholes_are_wired():
    rng = seed_stream(2, "p")
    p = init_cell("lstm", 3, 4, rng, dtype=np.float64)
    c_prev = O.const(np.array([[1.0, -1.0, 2.0]]))
    h_prev = O.const(np.zeros((1, 3)))
    e = tuple(embed_columns(getattr(p, n), np.array([1])) for n in ("W_z", "W_i", "W_f", "W_r"))
    base = lstm_step(p, e, C.StepState(h_prev, c_prev)).h.data.copy()
    p.U_r.data[:] += 3.0
    bumped = lstm_step(p, e, C.StepState(h_prev, c_prev)).h.data
    assert not np.array_equal(base, bumped)


@pytest.mark.parametrize("arch,mode", [
    ("delta-rnn", None), ("delta-rnn", "inner"), ("delta-rnn", "outer"),
    ("gru", None), ("gru", "outer"),
    ("lstm", None), ("lstm", "outer"),
])
def test_single_step_gradients(arch, mode):
    hidden, vocab, cdim, batch = 4, 6, 3, 2
    rng = seed_stream(17, "fd")
    p = init_cell(arch, hidden, vocab, rng, dtype=np.float64, mode=mode, cdim=cdim)
    ids = np.array([1, 4])
    h0 = rng.uniform(-1, 1, (batch, hidden))
    c0 = rng.uniform(-1, 1, (batch, hidden))
    ctx = rng.uniform(-1, 1, (batch, cdim)) if mode else None
    probe = O.const(rng.uniform(-1, 1, (batch, hidden)))

    def loss():
        gain = O.project_context(p.projection, ctx) if mode else None
        if arch == "delta-rnn":
            st = delta_rnn_step(p, embed_columns(p.W, ids), O.const(h0), gain)
        elif arch == "gru":
            e = tuple(embed_columns(getattr(p, n), ids) for n in ("W_z", "W_r", "W_h"))
            st = gru_step(p, e, O.const(h0), gain)
        else:
            e = tuple(embed_columns(getattr(p, n), ids) for n in ("W_z", "W_i", "W_f", "W_r"))
            st = lstm_step(p, e, C.StepState(O.const(h0), O.const(c0)), gain)
        return sum_all(hadamard(st.h, probe))

    err = finite_diff_check(loss, list(leaves_of(p).values()), eps=1e-5)
    assert err < 1e-4, err


# -- the recurrence op against the per-op step chain ---------------------------

OP_WIRINGS = [("delta-rnn", None, "tanh"), ("delta-rnn", "inner", "tanh"),
              ("delta-rnn", "outer", "tanh"), ("gru", None, "tanh"), ("gru", "outer", "tanh")]
OP_WIRINGS += [("lstm", mode, act) for mode in (None, "outer")
               for act in ("tanh", "sigmoid", "relu", "identity")]


def op_setup(arch, mode, act, seed=0, hidden=5, vocab=9, cdim=3):
    """Float64 cell, a ragged batch plus an all-padding column, and a
    nonzero start state."""
    rng = seed_stream(seed, "op")
    p = init_cell(arch, hidden, vocab, rng, dtype=np.float64, mode=mode, cdim=cdim,
                  lstm_activation=act)
    for t in leaves_of(p).values():  # a generic point, away from init symmetries
        t.data[:] = rng.uniform(-0.6, 0.6, t.shape)
    tokens = D.encode_sequences([[4, 5, 6, 7, 8], [5], [8, 6, 4]], 8).tokens
    tokens = np.hstack([tokens, np.zeros((tokens.shape[0], 1), np.int64)])[:-1]
    batch = tokens.shape[1]
    ctx = rng.uniform(-1, 1, (batch, cdim)) if mode else None
    state = C.StepState(h=O.const(rng.uniform(-1, 1, (batch, hidden))),
                        cell=O.const(rng.uniform(-1, 1, (batch, hidden))) if arch == "lstm" else None)
    return p, tokens, ctx, state


def per_op_outputs(p, tokens, gain, state):
    """The recurrence through oracles' per-op steps, outputs stacked like the op's."""
    names = C.spec(p.arch).inputs
    steps, batch = tokens.shape
    hs = None
    for t, ids in enumerate(tokens):
        embs = tuple(embed_columns(p.params[n], ids) for n in names)
        if len(embs) == 1:
            state = delta_rnn_step(p, embs[0], state.h, gain)
        elif len(embs) == 3:
            state = gru_step(p, embs, state.h, gain)
        else:
            state = lstm_step(p, embs, state, gain)
        placed = put_rows(state.h, np.arange(t * batch, (t + 1) * batch), steps * batch)
        hs = placed if hs is None else add(hs, placed)
    return hs, state


@pytest.mark.parametrize("arch,mode,act", OP_WIRINGS)
def test_recurrence_gradients_match_per_op_chain(arch, mode, act):
    p, tokens, ctx, state = op_setup(arch, mode, act)
    params = leaves_of(p)
    probe = O.const(seed_stream(1, "probe").uniform(-1, 1, (tokens.size, state.h.cols)))

    def run(recur):
        O.zero_grad(params.values())
        gain = O.project_context(p.projection, ctx) if mode else None
        hs, final = recur(p, tokens, gain, state)
        loss = sum_all(hadamard(hs, probe))
        O.backward(loss)
        grads = {k: t.grad.copy() for k, t in params.items()}
        return loss.item(), hs.data, final, grads, None if gain is None else gain.grad.copy()

    got, got_hs, got_final, got_g, got_dgain = run(
        lambda p, *args: O.recurrence(arrays_of(p), p, *args))
    want, want_hs, want_final, want_g, want_dgain = run(per_op_outputs)
    npt.assert_allclose(got, want, rtol=1e-10, atol=0)
    npt.assert_array_equal(got_hs, want_hs)  # the forward keeps the per-op arithmetic
    npt.assert_array_equal(got_final.h.data, want_final.h.data)
    if arch == "lstm":
        npt.assert_array_equal(got_final.cell.data, want_final.cell.data)
    if mode:
        want_g["gain"], got_g["gain"] = want_dgain, got_dgain
    for name, g in want_g.items():
        assert np.abs(g).max() > 0, name  # every parameter is exercised
        npt.assert_allclose(got_g[name], g, rtol=1e-10, atol=1e-10 * np.abs(g).max(),
                            err_msg=name)


@pytest.mark.parametrize("arch,mode,act", OP_WIRINGS)
def test_advance_matches_one_per_op_step(arch, mode, act):
    cfg = ModelConfig(arch=arch, hidden=5, vocab=9, context_dim=3, fusion=mode or "none",
                      lstm_activation=act, unroll=8)
    m = build_model(cfg, seed=3, dtype=np.float64)
    _, _, ctx, state = op_setup(arch, mode, act, seed=4)
    gain = m._gain(ctx, state.h.rows)
    ids = np.array([1, 4, 8, 4])
    got, logp = m.advance(O.array_state(state), gain, ids)
    leaves = O.taped(m)
    want = oracle_step(O.cell_nodes(m, leaves), ids, state, None if gain is None else O.const(gain))
    want_logp = log_softmax_rows(logits(leaves, want.h)).data
    npt.assert_allclose(got.h, want.h.data, rtol=1e-12, atol=1e-12)
    if arch == "lstm":
        npt.assert_allclose(got.cell, want.cell.data, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(logp, want_logp, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("arch,mode", [("delta-rnn", "inner"), ("gru", "outer"), ("lstm", "outer")])
def test_recurrence_under_no_grad_keeps_nothing(arch, mode):
    # a recurrence run for no gradient, without keep, keeps no activations
    p, _, ctx, _ = op_setup(arch, mode, "tanh", hidden=16)
    gain = O.project_context(p.projection, ctx[:1].repeat(8, axis=0)).data
    p = arrays_of(p)
    tokens = seed_stream(2, "ids").integers(0, 9, (40, 8))
    state = C.init_state(arch, 8, 16, np.float64)

    def retained(keep):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = C.recurrence(p, tokens, gain, state, keep)
            return tracemalloc.get_traced_memory()[0] - before, out
        finally:
            tracemalloc.stop()

    held, (hs, _, kept) = retained(keep=False)
    assert kept is None
    # the output and an LSTM's final cell, plus object headers: no activations
    assert held < 2 * hs.nbytes, (held, hs.nbytes)
    held, (hs, _, kept) = retained(keep=True)
    assert kept is not None
    assert held > 3 * hs.nbytes, (held, hs.nbytes)


def test_recurrence_validates_its_inputs():
    p, tokens, ctx, state = op_setup("lstm", "outer", "tanh")
    gain = O.project_context(p.projection, ctx).data
    p, state = arrays_of(p), O.array_state(state)
    with pytest.raises(UsageError):
        C.recurrence(p, tokens, None, state)
    with pytest.raises(DataError):
        C.recurrence(p, np.where(tokens == 4, 9, tokens), gain, state)
    with pytest.raises(DimensionError):
        C.recurrence(p, tokens[:, :2], gain, state)
    p.activation = "softsign"
    with pytest.raises(ConfigError):
        C.recurrence(p, tokens, gain, state)
