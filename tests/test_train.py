import math

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.cells as CL
import mmlm.checkpoint as CK
import mmlm.data as D
import mmlm.tensor as T
import mmlm.train as TR
import tape_ops as O
from mmlm.errors import ConfigError, DimensionError, TrainingAbort
from mmlm.model import ModelConfig, build_model
from snapshots import restore_params, snapshot_params


def make_records(sentences, split="train"):
    return [D.CaptionRecord(f"img{i}", "en", split, s.split()) for i, s in enumerate(sentences)]


CORPUS = ["a b c", "b c d", "c d e", "d e a", "e a b"]


def small_setup(seed=0, hidden=8, dtype=np.float64):
    recs = make_records(CORPUS)
    vocab = D.build_vocab(recs, min_count=1)
    cfg = ModelConfig(arch="delta-rnn", hidden=hidden, vocab=len(vocab), unroll=8)
    model = build_model(cfg, seed=seed, dtype=dtype)
    return recs, vocab, model


def test_train_config_validation():
    TR.TrainConfig(max_epochs=0).validate()
    for bad in (
        dict(lr=0.0), dict(clip=0.0), dict(batch_size=0),
        dict(max_epochs=-1), dict(patience=0), dict(schedule="plateau"),
    ):
        with pytest.raises(ConfigError):
            TR.TrainConfig(**bad).validate()


def run_schedule(ppls, patience=3, mode="cumulative", lr=1.0):
    state = TR.TrainState(lr=lr)
    trace = []
    for p in ppls:
        TR.update_schedule(state, p, patience=patience, mode=mode)
        trace.append(state.lr)
    return trace


def test_schedule_monotone_decrease_never_halves():
    assert run_schedule([10, 9, 8, 7, 6, 5]) == [1.0] * 6


def test_schedule_three_straight_increases():
    # 10 -> 11 -> 12 -> 13: third increase lands after the fourth epoch
    assert run_schedule([10, 11, 12, 13]) == [1.0, 1.0, 1.0, 0.5]


def test_schedule_cumulative_counts_nonconsecutive():
    # 10 -> 11 -> 9 -> 12 -> 13: increases at 11, 12, 13; halve at the 13
    assert run_schedule([10, 11, 9, 12, 13]) == [1.0, 1.0, 1.0, 1.0, 0.5]


def test_schedule_consecutive_resets_on_improvement():
    assert run_schedule([10, 11, 9, 12, 13], mode="consecutive") == [1.0] * 5
    # but three in a row still halve
    assert run_schedule([10, 11, 12, 13], mode="consecutive")[-1] == 0.5


def test_schedule_counter_resets_after_halving():
    # six straight increases after the baseline: halve at the 4th and 7th calls
    assert run_schedule([1, 2, 3, 4, 5, 6, 7]) == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25]


def test_schedule_halving_is_exact_power_of_two():
    trace = run_schedule(list(range(1, 32)), lr=1.0)
    # 30 increases -> 10 halvings; the final rate is exactly 2^-10
    assert trace[-1] == 2.0 ** -10


def test_sgd_step_known_values():
    p = {"w": np.array([[1.0]]), "b": np.array([[5.0]])}
    TR.sgd_step(p, {"w": np.array([[0.25]]), "b": np.array([[0.0]])}, 1.0)
    assert p["w"][0, 0] == 0.75
    assert p["b"][0, 0] == 5.0  # zero gradient leaves it alone
    with pytest.raises(DimensionError):
        TR.sgd_step(p, {"w": np.zeros((2, 2)), "b": np.zeros((1, 1))}, 1.0)
    # a gradient block of the given columns steps only those columns
    m = {"m": np.ones((2, 4))}
    TR.sgd_step(m, {"m": np.array([[1.0, 2.0], [3.0, 4.0]])}, 0.5, {"m": np.array([1, 3])})
    npt.assert_array_equal(m["m"], [[1.0, 0.5, 1.0, 0.0], [1.0, -0.5, 1.0, -1.0]])
    with pytest.raises(DimensionError):
        TR.sgd_step(m, {"m": np.zeros((2, 4))}, 0.5, {"m": np.array([1, 3])})


def test_sgd_step_bits_and_consumed_grads():
    rng = np.random.default_rng(8)
    for dtype in (np.float32, np.float64):
        w = rng.uniform(-1, 1, (40, 30)).astype(dtype)
        g = rng.uniform(-2, 2, (40, 30)).astype(dtype)
        want = w - dtype(0.37) * g
        p = {"w": w.copy()}
        grads = {"w": g.copy()}
        TR.sgd_step(p, grads, 0.37)
        npt.assert_array_equal(p["w"], want)
        npt.assert_array_equal(grads["w"], dtype(0.37) * g)  # scaled in place


def test_clip_then_update_rule():
    # the realized float32 parameter change stays within lr * clip, and
    # the margin below it is small
    rng = np.random.default_rng(9)
    shapes = {"W": (300, 500), "V": (40, 40), "b": (1, 500)}
    for lr in (1.0, 0.37):
        for trial in range(5):
            p = {k: rng.uniform(-0.5, 0.5, s).astype(np.float32) for k, s in shapes.items()}
            grads = {k: (rng.standard_normal(s) * 10.0 ** trial).astype(np.float32)
                     for k, s in shapes.items()}
            before = {k: t.astype(np.float64) for k, t in p.items()}
            TR.sgd_step(p, T.clip_gradients(grads, 2.0), lr)
            step = math.sqrt(sum(float(np.sum((p[k] - before[k]) ** 2)) for k in p))
            assert lr * 2.0 * (1 - 1e-4) <= step <= lr * 2.0, (lr, trial, step)


def _dense_reference_step(model, batch, lr, clip):
    """p - lr * g from the full-shape gradients of the batch's graph of
    nodes, clipped to the global norm; returns (parameters after the step,
    gradient norm)."""
    leaves = O.taped(model)
    O.backward(O.layer_nll(model, leaves, batch)[0])
    grads = {k: p.grad for k, p in leaves.items()}
    norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    factor = clip / norm * (1.0 - 1e-5) if norm > clip else None
    out = {}
    for k, p in model.named_parameters().items():
        g = grads[k] if factor is None else grads[k] * p.dtype.type(factor)
        out[k] = p - p.dtype.type(lr) * g
    return out, norm


def test_train_step_keeps_compact_input_gradients_and_no_idle_buffers(tmp_path):
    recs = make_records(CORPUS)
    vocab = D.build_vocab(recs, min_count=1)
    cfg = ModelConfig(arch="lstm", hidden=8, vocab=len(vocab), unroll=8)
    fresh = build_model(cfg, seed=5)
    path = str(tmp_path / "m.mmlm")
    CK.save_checkpoint(path, fresh, vocab, TR.TrainConfig(), TR.TrainState())
    # a parameter is its array and nothing else: no wrapper, no gradient buffer
    ckpt = CK.load_checkpoint(path)
    loaded = CK.model_from_checkpoint(ckpt)
    for model in (fresh, loaded):
        assert all(type(p) is np.ndarray for p in model.named_parameters().values())
    # a loaded model trains the checkpoint's own arrays
    assert all(p is ckpt.tensors[k] for k, p in loaded.named_parameters().items())
    saved = {k: a.copy() for k, a in ckpt.tensors.items()}

    batch = D.encode_batches(recs, vocab, 8, 2)[0]
    last = int(np.flatnonzero(batch.mask.any(axis=1))[-1])
    looked_up = np.unique(batch.tokens[:last])
    assert looked_up.size < len(vocab)
    grads, cols = fresh.gradients(fresh.sequence_nll(batch, keep=True)[2])
    assert sorted(cols) == sorted(f"cell.{name}" for name in CL.spec("lstm").inputs)
    for name, ids in cols.items():
        npt.assert_array_equal(ids, looked_up)
        assert grads[name].shape == (cfg.hidden, looked_up.size)
    TR.train_epoch(loaded, [batch], 0.5, 2.0)
    assert all(not np.array_equal(ckpt.tensors[k], a) for k, a in saved.items())
    lr = 0.5
    _, norm = _dense_reference_step(build_model(cfg, seed=5), batch, lr, math.inf)
    # below the bound, at it (up to the float64 summation order of the
    # norm) and above it
    for clip in (norm * 10.0, norm * (1.0 + 1e-9), norm / 10.0):
        want, _ = _dense_reference_step(build_model(cfg, seed=5), batch, lr, clip)
        model = build_model(cfg, seed=5)
        TR.train_epoch(model, [batch], lr, clip)
        for k, p in model.named_parameters().items():
            if clip >= norm:
                npt.assert_array_equal(p, want[k], err_msg=k)
            else:
                npt.assert_allclose(p, want[k], rtol=1e-6, err_msg=k)


def test_zero_lr_epoch_leaves_params_bit_identical():
    recs, vocab, model = small_setup()
    before = snapshot_params(model)
    batches = D.encode_batches(recs, vocab, 8, 2)
    TR.train_epoch(model, batches, lr=0.0, clip=2.0)
    for k, v in snapshot_params(model).items():
        npt.assert_array_equal(v, before[k])


def test_single_batch_epoch_loss_is_pre_update_nll():
    recs, vocab, model = small_setup(seed=3)
    batches = D.encode_batches(recs, vocab, 8, len(recs))
    assert len(batches) == 1
    want_loss, want_count, _ = model.sequence_nll(batches[0])
    total, tokens = TR.train_epoch(model, batches, lr=1.0, clip=2.0)
    assert tokens == want_count
    assert total == want_loss.item()


def test_epoch_improves_memorizable_corpus_for_most_seeds():
    wins = 0
    for seed in range(10):
        recs, vocab, model = small_setup(seed=seed)
        batches = D.encode_batches(recs, vocab, 8, 2)
        before, _ = TR.dataset_nll(model, batches)
        TR.train_epoch(model, batches, lr=1.0, clip=2.0)
        after, _ = TR.dataset_nll(model, batches)
        wins += after <= before
    assert wins >= 9, f"only {wins}/10 seeds improved"


def test_non_finite_loss_aborts_with_diagnostics():
    recs, vocab, model = small_setup()
    model.params["decoder.U"][0, 0] = np.nan
    batches = D.encode_batches(recs, vocab, 8, 2)
    with pytest.raises(TrainingAbort) as ei:
        TR.train_epoch(model, batches, lr=0.25, clip=2.0, epoch=7)
    assert ei.value.batch_index == 0
    assert ei.value.lr == 0.25
    assert "epoch 7" in str(ei.value)


def test_dataset_nll_equals_the_taped_loss_and_builds_no_tape(monkeypatch):
    recs, vocab, model = small_setup(seed=4)
    batches = D.encode_batches(recs, vocab, 8, 2)
    losses = [model.sequence_nll(b, keep=True) for b in batches]
    assert all(kept is not None for _, _, kept in losses)
    total = sum(loss.item() for loss, _, _ in losses)
    tokens = sum(count for _, count, _ in losses)
    nll = model.sequence_nll
    scored = []
    monkeypatch.setattr(model, "sequence_nll", lambda b: scored.append(nll(b)) or scored[-1])
    assert TR.dataset_nll(model, batches) == (total / tokens, math.exp(total / tokens))
    assert len(scored) == len(batches)
    assert all(kept is None for _, _, kept in scored)


def test_dataset_nll_uniform_model():
    recs, vocab, model = small_setup()
    for t in model.named_parameters().values():
        t[:] = 0.0
    batches = D.encode_batches(recs, vocab, 8, 2)
    nll, ppl = TR.dataset_nll(model, batches)
    npt.assert_allclose(nll, math.log(len(vocab)), rtol=1e-12)
    npt.assert_allclose(ppl, len(vocab), rtol=1e-12)


def _fit_once(max_epochs, seed=1, state=None, model=None, on_epoch=None):
    recs, vocab, fresh = small_setup(seed=11)
    model = model if model is not None else fresh
    valid = make_records(["a b", "c d e"], split="valid")
    cfg = TR.TrainConfig(lr=0.5, clip=2.0, batch_size=2,
                         max_epochs=max_epochs, seed=seed)
    st = TR.fit(model, recs, valid, vocab, cfg, state=state, on_epoch=on_epoch)
    return model, st


def test_fit_zero_epochs_is_a_no_op():
    recs, vocab, model = small_setup(seed=11)
    before = snapshot_params(model)
    _, state = _fit_once(0, model=model)
    assert state.epoch == 0 and state.curve == []
    for k, v in snapshot_params(model).items():
        npt.assert_array_equal(v, before[k])


def test_fit_curve_and_determinism():
    m1, s1 = _fit_once(5)
    m2, s2 = _fit_once(5)
    assert [r[0] for r in s1.curve] == [1, 2, 3, 4, 5]
    assert s1.curve == s2.curve  # float-identical rows
    for k, v in snapshot_params(m1).items():
        npt.assert_array_equal(v, snapshot_params(m2)[k])
    assert s1.best_epoch >= 1
    assert s1.best_valid_ppl == min(r[3] for r in s1.curve)


def test_fit_resume_matches_uninterrupted_run():
    straight_model, straight = _fit_once(6)
    part_model, part_state = _fit_once(3)
    _, resumed = _fit_once(6, model=part_model, state=part_state)
    assert resumed.curve == straight.curve
    assert resumed.best_epoch == straight.best_epoch
    for k, v in snapshot_params(part_model).items():
        npt.assert_array_equal(v, snapshot_params(straight_model)[k])


def test_fit_tracks_best_snapshot():
    # fit keeps no parameters; a caller snapshots the best epoch in on_epoch
    _, vocab, model = small_setup(seed=11)
    best = {}

    def keep_best(st):
        if st.best_epoch == st.epoch:
            best.update(snapshot_params(model))

    _, state = _fit_once(4, model=model, on_epoch=keep_best)
    assert best
    restore_params(model, best)
    valid = make_records(["a b", "c d e"], split="valid")
    batches = D.encode_batches(valid, vocab, 8, 2)
    _, ppl = TR.dataset_nll(model, batches)
    npt.assert_allclose(ppl, state.best_valid_ppl, rtol=1e-12)


def test_fit_on_epoch_callback():
    seen = []
    _fit_once(3, on_epoch=lambda st: seen.append(st.epoch))
    assert seen == [1, 2, 3]


def test_format_curve_roundtrips_floats():
    rows = [(1, 2.302585092994046, 2.1, 8.16616991256765, 1.0),
            (2, 1.5, 1.25, 3.4903429574597902, 0.5)]
    text = TR.format_curve(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_nll,valid_nll,valid_ppl,lr"
    cells = lines[1].split(",")
    assert int(cells[0]) == 1
    assert float(cells[1]) == rows[0][1]  # repr round-trip is exact
    assert float(cells[3]) == rows[0][3]
