import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.cells as C
import mmlm.data as D
import mmlm.tensor as T
import tape_ops as O
from mmlm.errors import ConfigError, DataError, DimensionError, UsageError
from mmlm.model import ModelConfig, SequenceModel, build_model, parameter_shapes
from oracles import (finite_diff_check, forward_np, forward_sequence, predict_next,
                     sequence_nll_np, sequence_nll_per_step)


def tiny_config(**kw):
    base = dict(arch="delta-rnn", hidden=6, vocab=11, context_dim=3,
                fusion="none", unroll=8)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(id_lists, unroll=8, contexts=None):
    return D.encode_sequences(id_lists, unroll, contexts=contexts)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(arch="transformer", hidden=4, vocab=10).validate()
    with pytest.raises(ConfigError):
        ModelConfig(hidden=0, vocab=10).validate()
    with pytest.raises(ConfigError):
        ModelConfig(hidden=4, vocab=10, unroll=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(hidden=4, vocab=10, fusion="both").validate()
    with pytest.raises(ConfigError):
        ModelConfig(arch="gru", hidden=4, vocab=10, fusion="inner").validate()
    with pytest.raises(ConfigError, match="<pad> <unk> <bos> <eos>"):
        ModelConfig(hidden=4, vocab=3).validate()
    with pytest.raises(ConfigError):
        build_model(ModelConfig(hidden=4, vocab=3), seed=0)
    ModelConfig(hidden=4, vocab=4).validate()
    tiny_config().validate()


def test_config_rejects_unknown_lstm_activation():
    for act in ("tanh", "sigmoid", "relu", "identity"):
        ModelConfig(arch="lstm", hidden=4, vocab=10, lstm_activation=act).validate()
    with pytest.raises(ConfigError, match="softsign"):
        ModelConfig(arch="lstm", hidden=4, vocab=10, lstm_activation="softsign").validate()
    with pytest.raises(ConfigError):
        build_model(ModelConfig(arch="lstm", hidden=4, vocab=10, lstm_activation="gelu"), seed=0)


def test_build_model_deterministic():
    cfg = tiny_config(fusion="outer")
    a = build_model(cfg, seed=5, dtype=np.float64)
    b = build_model(cfg, seed=5, dtype=np.float64)
    for name, t in a.named_parameters().items():
        npt.assert_array_equal(t, b.named_parameters()[name])
    c = build_model(cfg, seed=6, dtype=np.float64)
    assert not np.array_equal(a.params["decoder.U"], c.params["decoder.U"])
    assert set(a.named_parameters()) == {
        "cell.W", "cell.V", "cell.b_r", "cell.alpha", "cell.beta1", "cell.beta2",
        "fusion.M", "fusion.b_M", "decoder.U", "decoder.b_U",
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_equals_one_full_shape_draw(dtype):
    # 700 x 100 spans two draw blocks, so the block seam is covered
    cfg = tiny_config(hidden=100, vocab=700, fusion="outer")
    m = build_model(cfg, seed=5, dtype=dtype)
    cell_rng = T.seed_stream(5, "init/cell")
    for name, shape in (("W", (100, 700)), ("V", (100, 100))):
        want = cell_rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
        npt.assert_array_equal(getattr(m.cell, name), want)
    want = T.seed_stream(5, "init/decoder").uniform(-0.1, 0.1, size=(700, 100)).astype(dtype)
    npt.assert_array_equal(m.params["decoder.U"], want)
    want = T.seed_stream(5, "init/fusion").uniform(-0.1, 0.1, size=(100, 3)).astype(dtype)
    npt.assert_array_equal(m.params["fusion.M"], want)


def test_decoder_bias_flag():
    m = build_model(tiny_config(decoder_bias=False), seed=0)
    assert "decoder.b_U" not in m.named_parameters()


def test_uniform_model_distributions():
    m = build_model(tiny_config(), seed=1, dtype=np.float64)
    m.params["decoder.U"][:] = 0.0
    m.params["decoder.b_U"][:] = 0.0
    batch = make_batch([[4, 5, 6], [7, 8, 9]])
    for dist in forward_sequence(m, batch):
        npt.assert_allclose(dist.data, np.full((2, 11), 1.0 / 11.0), rtol=1e-12)
    loss, count, _ = m.sequence_nll(batch)
    assert count == 8  # two sentences, 3 words + EOS each
    npt.assert_allclose(loss.item(), 8 * math.log(11.0), rtol=1e-12)


def test_distributions_sum_to_one():
    for arch in ("delta-rnn", "gru", "lstm"):
        m = build_model(tiny_config(arch=arch, fusion="outer"), seed=2, dtype=np.float64)
        ctx = np.tile(np.array([0.3, -0.2, 0.5]), (2, 1))
        batch = make_batch([[4, 5], [6, 7, 8, 9]], contexts=ctx)
        for dist in forward_sequence(m, batch):
            npt.assert_allclose(dist.data.sum(axis=1), np.ones(2), atol=1e-6)
            assert dist.data.min() >= 0.0


@pytest.mark.parametrize("arch", ["delta-rnn", "gru", "lstm"])
@pytest.mark.parametrize("fusion", ["none", "outer"])
def test_forward_matches_naive_oracle(arch, fusion):
    cfg = tiny_config(arch=arch, fusion=fusion)
    m = build_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(0)
    ctx = rng.uniform(-1, 1, (3, 3)) if fusion == "outer" else None
    batch = make_batch([[4, 5, 6, 7], [8, 9], [10, 4, 5]], contexts=ctx)
    got = forward_sequence(m, batch)
    want = forward_np(m, batch.tokens, batch.contexts)
    assert len(got) == len(want) == batch.tokens.shape[0]
    for g, w in zip(got, want):
        npt.assert_allclose(g.data, w, atol=1e-12)
    loss, count, _ = m.sequence_nll(batch)
    w_loss, w_count = sequence_nll_np(m, batch)
    assert count == w_count == 3 + 4 + 2 + 3  # words + EOS each
    npt.assert_allclose(loss.item(), w_loss, atol=1e-10)


WIRINGS = [(arch, fusion) for arch in ("delta-rnn", "gru", "lstm")
           for fusion in ("none", "outer")] + [("delta-rnn", "inner")]


@pytest.mark.parametrize("arch,fusion", WIRINGS)
def test_batched_decoder_matches_per_step_loop(arch, fusion):
    m = build_model(tiny_config(arch=arch, fusion=fusion), seed=16, dtype=np.float64)
    leaves = O.taped(m)
    rng = np.random.default_rng(1)
    ctx = None if fusion == "none" else rng.uniform(-1, 1, (3, 3))
    batch = make_batch([[4, 5, 6, 7, 8], [9, 10], [6, 4, 5]], contexts=ctx)
    # a fourth, all-padding column: scored nowhere, but run through the recurrence
    batch.tokens = np.hstack([batch.tokens, np.zeros((batch.tokens.shape[0], 1), np.int64)])
    batch.mask = np.hstack([batch.mask, np.zeros((batch.mask.shape[0], 1), np.float32)])
    batch.image_ids = batch.image_ids + [""]
    if ctx is not None:
        batch.contexts = np.vstack([batch.contexts, rng.uniform(-1, 1, (1, 3))])

    def loss_and_grads(nll):
        O.zero_grad(leaves.values())
        loss, count = nll(m, leaves, batch)
        O.backward(loss)
        return loss.item(), count, {k: p.grad.copy() for k, p in leaves.items()}

    got, got_n, got_g = loss_and_grads(O.sequence_nll)
    want, want_n, want_g = loss_and_grads(sequence_nll_per_step)
    assert got_n == want_n == 5 + 1 + 2 + 1 + 3 + 1
    npt.assert_allclose(got, want, rtol=1e-10, atol=0)
    for name, g in want_g.items():
        assert np.abs(g).max() > 0, name  # every parameter is exercised
        npt.assert_allclose(got_g[name], g, rtol=1e-10, atol=1e-10 * np.abs(g).max(),
                            err_msg=name)


def test_only_masked_targets_reach_the_decoder(monkeypatch):
    m = build_model(tiny_config(), seed=17, dtype=np.float64)
    batch = make_batch([[4, 5, 6, 7, 8], [9], [6, 4, 5]])
    batch.tokens = np.hstack([batch.tokens, np.zeros((batch.tokens.shape[0], 1), np.int64)])
    batch.mask = np.hstack([batch.mask, np.zeros((batch.mask.shape[0], 1), np.float32)])
    batch.image_ids = batch.image_ids + [""]
    seen = []
    nll, decode = T.masked_nll, T._shifted_logits

    def spy_nll(hs, w, b, targets, mask, keep=False):
        seen.append(list(np.asarray(targets)[np.asarray(mask) > 0]))
        return nll(hs, w, b, targets, mask, keep)

    def spy_decode(h, w, b):
        seen.append(h.shape[0])
        return decode(h, w, b)

    monkeypatch.setattr(T, "masked_nll", spy_nll)
    monkeypatch.setattr(T, "_shifted_logits", spy_decode)
    loss, count, _ = m.sequence_nll(batch)
    # 6 steps x 4 columns are stacked; 6 + 2 + 4 of them are targets
    assert seen == [[4, 9, 6, 5, 3, 4, 6, 5, 7, 3, 8, 3], int(batch.mask.sum())]
    assert count == 12
    assert m.sequence_nll(batch, keep=True)[0] == loss


def test_hand_computed_two_token_nll():
    # zero cell weights keep h at zero, so every step's logits equal b_U
    m = build_model(tiny_config(vocab=4 + 2), seed=4, dtype=np.float64)
    for t in m.named_parameters().values():
        t[:] = 0.0
    m.params["decoder.b_U"][:] = np.log([1.0, 1.0, 1.0, 2.0, 4.0, 8.0])
    batch = make_batch([[4, 5]])  # targets: 4, 5, EOS(3)
    loss, count, _ = m.sequence_nll(batch)
    assert count == 3
    z = 1.0 + 1.0 + 1.0 + 2.0 + 4.0 + 8.0
    want = -(math.log(4.0 / z) + math.log(8.0 / z) + math.log(2.0 / z))
    npt.assert_allclose(loss.item(), want, rtol=1e-12)


def test_batch_invariance():
    cfg = tiny_config(arch="gru")
    m = build_model(cfg, seed=5, dtype=np.float64)
    seqs = [[4, 5, 6], [7], [8, 9, 10, 4, 5]]
    joint, jn, _ = m.sequence_nll(make_batch(seqs))
    singles = [m.sequence_nll(make_batch([s])) for s in seqs]
    total = sum(loss.item() for loss, _, _ in singles)
    assert jn == sum(n for _, n, _ in singles)
    npt.assert_allclose(joint.item(), total, atol=1e-9)


def test_padding_rows_and_columns_leave_loss_unchanged():
    m = build_model(tiny_config(), seed=6, dtype=np.float64)
    batch = make_batch([[4, 5], [6]])
    base_loss, base_count, _ = m.sequence_nll(batch)
    # extra all-pad rows below the framed content
    padded = D.SequenceBatch(
        tokens=np.vstack([batch.tokens, np.zeros((3, 2), dtype=np.int64)]),
        mask=np.vstack([batch.mask, np.zeros((3, 2), dtype=np.float32)]),
        contexts=None, image_ids=batch.image_ids,
    )
    loss2, count2, _ = m.sequence_nll(padded)
    assert (loss2.item(), count2) == (base_loss.item(), base_count)
    # extra all-pad column (a sequence with no targets at all)
    widened = D.SequenceBatch(
        tokens=np.hstack([batch.tokens, np.zeros((batch.tokens.shape[0], 1), dtype=np.int64)]),
        mask=np.hstack([batch.mask, np.zeros((batch.mask.shape[0], 1), dtype=np.float32)]),
        contexts=None, image_ids=batch.image_ids + ["pad"],
    )
    loss3, count3, _ = m.sequence_nll(widened)
    assert (loss3.item(), count3) == (base_loss.item(), base_count)


def test_all_masked_batch_flagged_as_empty():
    m = build_model(tiny_config(), seed=7, dtype=np.float64)
    batch = make_batch([[4, 5]])
    batch.mask[:] = 0.0
    loss, count, _ = m.sequence_nll(batch)
    assert count == 0
    assert loss.item() == 0.0


def test_null_context_equals_explicit_zeros():
    cfg = tiny_config(fusion="outer")
    m = build_model(cfg, seed=8, dtype=np.float64)
    seqs = [[4, 5, 6], [7, 8]]
    with_zeros = make_batch(seqs, contexts=np.zeros((2, 3)))
    with_null = make_batch(seqs)
    loss_a, _, _ = m.sequence_nll(with_zeros)
    loss_b, _, _ = m.sequence_nll(with_null)
    assert loss_a.item() == loss_b.item()  # bit-exact
    for da, db in zip(forward_sequence(m, with_zeros), forward_sequence(m, with_null)):
        npt.assert_array_equal(da.data, db.data)


def test_text_only_model_rejects_contexts():
    m = build_model(tiny_config(), seed=9)
    batch = make_batch([[4]], contexts=np.zeros((1, 3)))
    with pytest.raises(UsageError):
        m.sequence_nll(batch)


def test_out_of_range_token_reports_position():
    m = build_model(tiny_config(), seed=10)
    batch = make_batch([[4, 5], [6, 7]])
    batch.tokens[2, 1] = 99
    with pytest.raises(DataError) as ei:
        forward_sequence(m, batch)
    msg = str(ei.value)
    assert "99" in msg and "step 2" in msg and "sequence 1" in msg


def test_predict_next_matches_forward_bit_exactly():
    for fusion, ctx in (("none", None), ("outer", np.array([0.1, 0.2, -0.3]))):
        m = build_model(tiny_config(arch="lstm", fusion=fusion), seed=11, dtype=np.float64)
        prefix = [D.BOS_ID, 4, 5, 6]
        got = predict_next(m, prefix, context=ctx)
        batch_ctx = None if ctx is None else ctx.reshape(1, -1)
        batch = D.SequenceBatch(
            tokens=np.array(prefix, dtype=np.int64).reshape(-1, 1),
            mask=np.ones((len(prefix), 1), dtype=np.float32),
            contexts=batch_ctx, image_ids=[""],
        )
        last = forward_sequence(m, batch)[-1]
        npt.assert_array_equal(got, last.data[0])


def test_predict_next_validates_prefix():
    m = build_model(tiny_config(), seed=12)
    with pytest.raises(UsageError):
        predict_next(m, [])
    with pytest.raises(UsageError):
        predict_next(m, [4, 5])  # must start at BOS
    with pytest.raises(DataError):
        predict_next(m, [D.BOS_ID, 11])


def test_advance_is_consistent_with_forward():
    m = build_model(tiny_config(arch="gru", fusion="outer"), seed=13, dtype=np.float64)
    ctx = np.array([[0.4, -0.1, 0.2]])
    tokens = [D.BOS_ID, 4, 9]
    state, gain = m.start_state(1, ctx)
    logps = []
    for tok in tokens:
        state, logp = m.advance(state, gain, tok)
        logps.append(logp[0])
    batch = D.SequenceBatch(
        tokens=np.array(tokens, dtype=np.int64).reshape(-1, 1),
        mask=np.ones((3, 1), dtype=np.float32), contexts=ctx, image_ids=[""],
    )
    dists = forward_sequence(m, batch)
    for lp, dist in zip(logps, dists):
        npt.assert_allclose(np.exp(lp), dist.data[0], atol=1e-12)


def test_advance_builds_no_tape(monkeypatch):
    # advance keeps nothing for a backward, and its state is plain arrays
    m = build_model(tiny_config(arch="lstm", fusion="outer"), seed=13, dtype=np.float64)
    kept = []
    recurrence = C.recurrence

    def spy(*args, **kwargs):
        out = recurrence(*args, **kwargs)
        kept.append(out[2])
        return out

    monkeypatch.setattr(C, "recurrence", spy)
    state, gain = m.start_state(1, np.array([[0.4, -0.1, 0.2]]))
    for tok in (D.BOS_ID, 4):
        state, logp = m.advance(state, gain, tok)
        assert type(state.h) is np.ndarray and type(state.cell) is np.ndarray
    assert kept == [None, None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch,fusion", WIRINGS)
def test_advance_rows_are_independent(arch, fusion, dtype):
    """advance on k rows == k one-row calls, and a one-row call == row 0 of
    a two-row call, bit for bit, at test sizes (H = 6).

    Batched beam search matches its one-hypothesis-at-a-time oracle with ==
    only because of this, and it rests on the BLAS. At one row numpy takes
    a matrix-vector path, which advance avoids by padding to two rows. For
    two rows or more, the rows of the V x H decoder product h @ U.T are
    bit-identical at every row count on OpenBLAS 0.3.31 (one thread). The
    square H x H recurrence product h @ V.T is not: its rows differ once
    the row count reaches 5 at H = 256 and 19 at H = 64, in both dtypes.
    So at benchmark sizes a batched sample can differ in the last bits from
    a one-at-a-time search. A BLAS that breaks the property at test sizes
    fails here."""
    m = build_model(tiny_config(arch=arch, fusion=fusion), seed=17, dtype=dtype)
    rng = np.random.default_rng(3)
    k = 13  # the default beam width
    rows = lambda: rng.uniform(-1, 1, (k, 6)).astype(dtype)  # noqa: E731
    state = C.StepState(h=rows(), cell=rows() if arch == "lstm" else None)
    gain = None if fusion == "none" else m._gain(rng.uniform(-1, 1, (k, 3)), k)
    ids = rng.integers(0, 11, k)

    def run(index):
        g = None if gain is None else gain[index]
        st, logp = m.advance(state.take(index), g, ids[index])
        return [st.h, logp] + ([st.cell] if arch == "lstm" else [])

    for n in (2, 5, k):
        batched = run(np.arange(n))
        for i in range(n):
            for got, want in zip(run(np.array([i])), batched):
                assert got.dtype == dtype
                npt.assert_array_equal(got[0], want[i], err_msg=f"{n} rows, row {i}")


def test_single_row_batch_runs():
    m = build_model(tiny_config(), seed=14, dtype=np.float64)
    batch = D.SequenceBatch(
        tokens=np.array([[D.BOS_ID]], dtype=np.int64),
        mask=np.zeros((1, 1), dtype=np.float32), contexts=None, image_ids=[""],
    )
    dists = forward_sequence(m, batch)
    assert len(dists) == 1
    npt.assert_allclose(dists[0].data.sum(), 1.0, atol=1e-12)


def test_end_to_end_gradcheck_smoke():
    cfg = tiny_config(arch="delta-rnn", fusion="outer", hidden=4, vocab=8)
    m = build_model(cfg, seed=15, dtype=np.float64)
    leaves = O.taped(m)
    rng = np.random.default_rng(3)
    ctx = rng.uniform(-1, 1, (2, 3))
    batch = make_batch([[4, 5, 6], [7, 5]], contexts=ctx)

    def loss():
        return O.sequence_nll(m, leaves, batch)[0]

    err = finite_diff_check(loss, leaves.values(), eps=1e-5)
    assert err < 1e-4, err


def test_decoder_shape_mismatch_rejected():
    cfg = tiny_config()
    arrays = dict(build_model(cfg, seed=0).named_parameters())
    with pytest.raises(DimensionError, match="'decoder.U' has shape"):
        SequenceModel(cfg, {**arrays, "decoder.U": np.zeros((3, 3), np.float32)})
    missing = {k: a for k, a in arrays.items() if k != "cell.V"}
    with pytest.raises(DimensionError, match=r"missing \['cell.V'\], extra \[\]"):
        SequenceModel(cfg, missing)
    with pytest.raises(DimensionError, match=r"missing \[\], extra \['fusion.M'\]"):
        SequenceModel(cfg, {**arrays, "fusion.M": np.zeros((6, 3), np.float32)})


def test_the_model_holds_the_given_arrays_in_table_order():
    cfg = tiny_config(fusion="outer")
    arrays = dict(reversed(build_model(cfg, seed=0).named_parameters().items()))
    m = SequenceModel(cfg, arrays)
    assert list(m.named_parameters()) == list(parameter_shapes(cfg))
    assert all(m.named_parameters()[k] is a for k, a in arrays.items())
    assert m.cell.W is arrays["cell.W"] and m.cell.fusion == "outer"
    assert m.dtype == np.float32
    bias_free = SequenceModel(replace(cfg, fusion_bias=False),
                              {k: a for k, a in arrays.items() if k != "fusion.b_M"})
    assert "fusion.b_M" not in bias_free.params
    npt.assert_array_equal(bias_free._gain(None, 2), np.zeros((2, 6), np.float32))


def test_the_model_refuses_mixed_precision():
    # float32 and float64 never meet in one model; float16 is neither
    cfg = tiny_config(arch="gru", hidden=4, vocab=10)
    arrays = dict(build_model(cfg, seed=0).named_parameters())
    with pytest.raises(ConfigError, match="'cell.V_z' is float64, decoder.U float32"):
        SequenceModel(cfg, {**arrays, "cell.V_z": arrays["cell.V_z"].astype(np.float64)})
    with pytest.raises(ConfigError, match="'cell.W_z' is float16"):
        SequenceModel(cfg, {k: a.astype(np.float16) for k, a in arrays.items()})
    double = SequenceModel(cfg, {k: a.astype(np.float64) for k, a in arrays.items()})
    assert double.dtype == np.float64


# criterion 1's nine wirings: (arch, fusion, fusion bias)
NINE = [("delta-rnn", "none", True), ("delta-rnn", "inner", True), ("delta-rnn", "outer", True),
        ("gru", "none", True), ("gru", "outer", False), ("gru", "outer", True),
        ("lstm", "none", True), ("lstm", "outer", False), ("lstm", "outer", True)]


def dense_column_blocks(ids, grads, vocab):
    """tensor.column_blocks as a dense scatter: all vocab columns, with the
    rows of each id added in order by np.add.at."""
    blocks = [np.zeros((g.shape[1], vocab), g.dtype) for g in grads]
    for block, g in zip(blocks, grads):
        np.add.at(block.T, ids, g)
    return np.arange(vocab), blocks


@pytest.mark.parametrize("hidden,vocab", [(6, 11), (256, 4104)])
@pytest.mark.parametrize("arch,fusion,bias", NINE)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_equal_the_layer_graph_bit_for_bit(monkeypatch, hidden, vocab, arch, fusion,
                                                     bias, dtype):
    # SequenceModel.gradients against the graph a batch was before it: the
    # projection as matmul_t and add_row nodes, one recurrence node and one
    # masked_nll node, with every input matrix's gradient a dense scatter.
    # A 4104 x 256 decoder is above the size where its softmax splits by rows.
    cfg = ModelConfig(arch=arch, hidden=hidden, vocab=vocab, context_dim=3, fusion=fusion,
                      fusion_bias=bias, unroll=30)
    m = build_model(cfg, seed=18, dtype=dtype)
    named = O.taped(m)
    rng = np.random.default_rng(2)
    seqs = [list(rng.integers(4, vocab, n)) for n in (29, 3, 17, 24, 11, 20)]
    batches = [make_batch(seqs, unroll=30)]
    if fusion != "none":  # a given context and the null one
        batches.insert(0, make_batch(seqs, unroll=30, contexts=rng.uniform(-1, 1, (6, 3))))
    for batch in batches:
        if vocab * hidden > T._SPLIT_MIN_SIZE:  # split wherever the probe lets it
            cut = T._row_cut(batch.target_count(), m.params["decoder.U"])
            assert (cut > 0) == T._row_split_agrees(np.dtype(dtype))
        loss, count, kept = m.sequence_nll(batch, keep=True)
        grads, cols = m.gradients(kept)
        O.zero_grad(named.values())
        with monkeypatch.context() as patch:
            patch.setattr(T, "column_blocks",
                          lambda ids, grads: dense_column_blocks(ids, grads, vocab))
            want_loss, want_count = O.layer_nll(m, named, batch)
            O.backward(want_loss)
        assert np.asarray(loss).tobytes() == want_loss.data.tobytes() and count == want_count
        assert list(grads) == [name for name, p in named.items() if p._grad is not None]
        last = np.flatnonzero(batch.mask.any(axis=1))[-1]
        assert sorted(cols) == [f"cell.{n}" for n in sorted(C.spec(arch).inputs)]
        for name, g in grads.items():
            want = named[name].grad
            if name in cols:
                npt.assert_array_equal(cols[name], np.unique(batch.tokens[:last]))
                assert not np.delete(want, cols[name], axis=1).any(), name
                want = want[:, cols[name]]
            assert g.dtype == dtype and g.tobytes() == np.ascontiguousarray(want).tobytes(), name
