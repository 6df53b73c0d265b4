import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.data as D
import mmlm.evaluate as E
from mmlm.errors import ConfigError, DataError, UsageError
from mmlm.model import ModelConfig, SequenceModel, build_model
from oracles import beam_search_per_candidate, predict_next
from snapshots import snapshot_params


def build(vocab_size, fusion="none", seed=0, hidden=6, cdim=3, unroll=8):
    cfg = ModelConfig(arch="delta-rnn", hidden=hidden, vocab=vocab_size,
                      context_dim=cdim, fusion=fusion, unroll=unroll)
    return build_model(cfg, seed=seed, dtype=np.float64)


def batches_for(vocab_size, n=4, ctx_dim=None, seed=0, unroll=8):
    rng = np.random.default_rng(seed)
    seqs = [list(rng.integers(4, vocab_size, size=rng.integers(1, 6))) for _ in range(n)]
    ctx = rng.uniform(-1, 1, (n, ctx_dim)).astype(np.float32) if ctx_dim else None
    return [D.encode_sequences(seqs, unroll, contexts=ctx)]


def test_condition_compatibility():
    text = build(10)
    fused = build(10, fusion="outer")
    b_plain = batches_for(10)
    b_ctx = batches_for(10, ctx_dim=3)
    with pytest.raises(UsageError):
        E.evaluate(text, b_plain, "LV-LV")
    with pytest.raises(UsageError):
        E.evaluate(text, b_plain, "LV-L")
    with pytest.raises(UsageError):
        E.evaluate(text, b_plain, "V-V")
    with pytest.raises(UsageError):
        E.evaluate(fused, b_plain, "LV-LV")  # stored contexts required
    E.evaluate(text, b_plain, "L-L")
    E.evaluate(fused, b_ctx, "LV-LV")
    E.evaluate(fused, b_ctx, "LV-L")
    E.evaluate(fused, b_plain, "LV-L")  # null condition needs no stored contexts
    # a fused model under L-L sees no contexts at all, which is the null
    # condition by definition: the two rows must agree bit-exactly
    assert E.evaluate(fused, b_ctx, "L-L") == E.evaluate(fused, b_ctx, "LV-L")


def count_passes(monkeypatch) -> list:
    """A list that grows by one per SequenceModel.sequence_nll call."""
    calls, sequence_nll = [], SequenceModel.sequence_nll

    def counted(model, batch, *args, **kwargs):
        calls.append(batch)
        return sequence_nll(model, batch, *args, **kwargs)

    monkeypatch.setattr(SequenceModel, "sequence_nll", counted)
    return calls


def two_batches_with_contexts():
    return batches_for(10, ctx_dim=3, seed=1) + batches_for(10, ctx_dim=3, seed=2)


def test_scored_runs_each_pass_once(monkeypatch):
    m = build(10, fusion="outer")
    batches = two_batches_with_contexts()
    conditions = ["LV-L", "LV-LV", "L-L", "LV-L"]
    alone = [E.evaluate(m, batches, c) for c in conditions]
    passes = count_passes(monkeypatch)
    scored = {}
    assert [E.evaluate(m, batches, c, scored=scored) for c in conditions] == alone
    assert len(passes) == 2 * len(batches) and len(scored) == 2


def test_scored_passes_are_keyed_by_what_they_score(monkeypatch):
    # were LV-L to score some other contexts, it would get a pass of its
    # own, not L-L's row
    m = build(10, fusion="outer")
    batches = two_batches_with_contexts()
    condition_batch = E._condition_batch

    def ones_for_lv_l(batch, condition):
        if condition == "LV-L":
            return replace(batch, contexts=np.ones_like(batch.contexts))
        return condition_batch(batch, condition)

    monkeypatch.setattr(E, "_condition_batch", ones_for_lv_l)
    conditions = ["L-L", "LV-LV", "LV-L", "LV-L"]
    alone = [E.evaluate(m, batches, c) for c in conditions]
    assert alone[2] != alone[0]
    passes = count_passes(monkeypatch)
    scored = {}
    assert [E.evaluate(m, batches, c, scored=scored) for c in conditions] == alone
    assert len(passes) == 4 * len(batches) and len(scored) == 2


def test_scored_checks_the_condition_first():
    text, fused = build(10), build(10, fusion="outer")
    plain = batches_for(10)
    scored = {}
    E.evaluate(text, plain, "L-L", scored=scored)
    for condition in ("LV-L", "LV-LV", "V-V"):
        with pytest.raises(UsageError):
            E.evaluate(text, plain, condition, scored=scored)
    scored = {}
    E.evaluate(fused, plain, "L-L", scored=scored)
    with pytest.raises(UsageError, match="LV-LV needs stored context vectors"):
        E.evaluate(fused, plain, "LV-LV", scored=scored)


def test_uniform_model_ppl_equals_vocab_size():
    for v in (10, 100):
        m = build(v)
        for t in m.named_parameters().values():
            t[:] = 0.0
        nll, ppl = E.evaluate(m, batches_for(v), "L-L")
        npt.assert_allclose(ppl, v, atol=1e-6)
        npt.assert_allclose(nll, math.log(v), rtol=1e-12)


def test_l_l_strips_stored_contexts():
    m = build(10)
    with_ctx = batches_for(10, ctx_dim=3)
    stripped = [D.SequenceBatch(b.tokens, b.mask, None, b.image_ids) for b in with_ctx]
    assert E.evaluate(m, with_ctx, "L-L") == E.evaluate(m, stripped, "L-L")


def test_lv_l_equals_lv_lv_under_zero_contexts():
    m = build(12, fusion="outer")
    rng = np.random.default_rng(1)
    seqs = [list(rng.integers(4, 12, size=4)) for _ in range(3)]
    zero_ctx = [D.encode_sequences(seqs, 8, contexts=np.zeros((3, 3)))]
    real_ctx = [D.encode_sequences(seqs, 8, contexts=rng.uniform(-1, 1, (3, 3)))]
    a = E.evaluate(m, zero_ctx, "LV-LV")
    b = E.evaluate(m, zero_ctx, "LV-L")
    c = E.evaluate(m, real_ctx, "LV-L")
    assert a == b == c  # bit-exact definitional identity
    assert E.evaluate(m, real_ctx, "LV-LV") != a


def test_evaluate_is_pure():
    m = build(10, fusion="outer")
    batches = batches_for(10, ctx_dim=3)
    before = snapshot_params(m)
    r1 = E.evaluate(m, batches, "LV-LV")
    r2 = E.evaluate(m, batches, "LV-LV")
    assert r1 == r2
    for k, v in snapshot_params(m).items():
        npt.assert_array_equal(v, before[k])


def test_evaluate_equals_the_taped_loss_and_builds_no_tape(monkeypatch):
    m = build(12, fusion="outer")
    rng = np.random.default_rng(2)
    seqs = [list(rng.integers(4, 12, size=rng.integers(0, 7))) for _ in range(9)]
    ctx = rng.uniform(-1, 1, (9, 3))
    batches = [D.encode_sequences(seqs[i:i + 4], 8, contexts=ctx[i:i + 4]) for i in (0, 4, 8)]
    nll = m.sequence_nll
    scored = []

    def spy(batch):
        out = nll(batch)
        scored.append(out[2])
        return out

    monkeypatch.setattr(m, "sequence_nll", spy)
    for condition, contexts in (("LV-LV", lambda b: b.contexts),
                                ("LV-L", lambda b: np.zeros_like(b.contexts)),
                                ("L-L", lambda b: None)):
        total = tokens = 0
        for b in batches:
            loss, count, kept = nll(D.SequenceBatch(b.tokens, b.mask, contexts(b), b.image_ids),
                                    keep=True)
            assert kept is not None
            total += loss.item()
            tokens += count
        scored.clear()
        assert E.evaluate(m, batches, condition) == (total / tokens, math.exp(total / tokens))
        assert len(scored) == 3
        assert scored == [None] * 3  # nothing kept for a backward


def test_eval_report_renders_table_one_shape():
    rows = [
        E.EvalRow("delta-rnn", "L-L", "english", 2.714, 15.086),
        E.EvalRow("mm-delta-rnn", "LV-L", "english", 2.694, 14.786),
    ]
    csv = E.render_eval_csv(rows)
    assert csv.splitlines()[0] == "model,condition,language,nll,ppl"
    assert "delta-rnn,L-L,english,2.714,15.086" in csv
    text = E.render_eval_text(rows)
    assert "15.086" in text and "14.786" in text
    # the two renderings carry identical numbers
    for r in rows:
        assert f"{r.ppl:.3f}" in csv and f"{r.ppl:.3f}" in text


def crafted_decoder():
    rows = np.zeros((7, 2))
    rows[4] = [1.0, 0.0]
    rows[5] = [0.9, 0.1]
    rows[6] = [0.0, 1.0]
    return rows


def test_nearest_neighbors_hand_cosines():
    vocab = D.Vocabulary(["w0", "w1", "w2"])
    rep = E.nearest_neighbors(crafted_decoder(), "w0", vocab, k=2)
    assert [w for w, _ in rep.neighbors] == ["w1", "w2"]
    want = 0.9 / math.sqrt(0.9 ** 2 + 0.1 ** 2)
    npt.assert_allclose(rep.neighbors[0][1], want, rtol=1e-12)
    npt.assert_allclose(rep.neighbors[1][1], 0.0, atol=1e-12)
    assert all(-1.0 <= c <= 1.0 for _, c in rep.neighbors)


def test_nearest_neighbors_excludes_self_and_specials():
    vocab = D.Vocabulary(["w0", "w1", "w2"])
    rep = E.nearest_neighbors(crafted_decoder(), "w0", vocab, k=10)
    words = [w for w, _ in rep.neighbors]
    assert "w0" not in words
    assert not any(w.startswith("<") for w in words)
    assert len(words) == 2  # k beyond the vocabulary returns all, no padding


def test_nearest_neighbors_ties_break_by_id():
    rows = np.zeros((7, 2))
    rows[4] = [2.0, 0.0]
    rows[5] = [1.0, 0.0]  # same direction as w2, different norm
    rows[6] = [3.0, 0.0]
    vocab = D.Vocabulary(["a", "b", "c"])
    rep = E.nearest_neighbors(rows, "a", vocab, k=2)
    assert [w for w, _ in rep.neighbors] == ["b", "c"]  # cosine 1.0 both; id order
    npt.assert_allclose([c for _, c in rep.neighbors], [1.0, 1.0], rtol=1e-9)


def test_nearest_neighbors_rejects_bad_queries():
    vocab = D.Vocabulary(["w0"])
    dec = crafted_decoder()
    with pytest.raises(DataError):
        E.nearest_neighbors(dec, "missing", vocab)
    with pytest.raises(DataError):
        E.nearest_neighbors(dec, "<eos>", vocab)
    with pytest.raises(ConfigError):
        E.nearest_neighbors(dec, "w0", vocab, k=0)


def test_neighbor_renderings():
    rep = E.NeighborReport("cat", [("dog", 0.9), ("kitten", 0.8)])
    text = E.render_neighbors_text([rep])
    assert text.startswith("cat\n  dog  0.900")
    csv = E.render_neighbors_csv([rep])
    assert "cat,1,dog,0.900" in csv and "cat,2,kitten,0.800" in csv


def constant_dist_model(probs, unroll=6):
    """Zero-weight model whose every step emits softmax(log probs) = probs."""
    m = build(len(probs), unroll=unroll)
    for t in m.named_parameters().values():
        t[:] = 0.0
    m.params["decoder.b_U"][:] = np.log(probs)
    return m


def test_beam_prefers_immediate_eos_when_it_dominates():
    # EOS carries 60% at every step: the empty sentence is the mode
    probs = [0.02, 0.02, 0.02, 0.60, 0.20, 0.14]
    m = constant_dist_model(probs)
    hyps = E.beam_search(m, width=1, max_len=5)
    assert hyps[0].ids == ()
    npt.assert_allclose(hyps[0].logprob, math.log(0.60), rtol=1e-12)
    # width 1 explores the greedy word path: runner-up is (w4,) then (w4, w4)
    assert hyps[1].ids == (4,)
    npt.assert_allclose(hyps[1].logprob, math.log(0.20) + math.log(0.60), rtol=1e-12)


def test_beam_exactness_small_case():
    rng = np.random.default_rng(7)
    m = build(6, seed=5)  # two real words
    m.params["decoder.U"][:] = rng.uniform(-1, 1, m.params["decoder.U"].shape)
    got = E.beam_search(m, width=16, max_len=2)
    # brute force over word sequences of length < max_len via predict_next
    def chain_logprob(words):
        prefix = [D.BOS_ID]
        total = 0.0
        for w in list(words) + [D.EOS_ID]:
            dist = predict_next(m, prefix)
            total += math.log(dist[w])
            prefix.append(w)
        return total
    want = [((), chain_logprob(()))] + [((w,), chain_logprob((w,))) for w in (4, 5)]
    want.sort(key=lambda x: (-x[1], len(x[0]), x[0]))
    assert [h.ids for h in got] == [w[0] for w in want]
    npt.assert_allclose([h.logprob for h in got], [w[1] for w in want], rtol=1e-9)


def test_beam_max_len_bounds_generated_tokens():
    probs = [0.01, 0.01, 0.01, 0.05, 0.46, 0.46]
    m = constant_dist_model(probs)
    for h in E.beam_search(m, width=8, max_len=4):
        assert len(h.ids) + 1 <= 4


def test_beam_returns_only_completed_sentences():
    # even with EOS starved to ~nothing, every hypothesis still closes on EOS
    m = constant_dist_model([0.1, 0.1, 0.1, 0.2, 0.25, 0.25])
    m.params["decoder.b_U"][0, D.EOS_ID] = -30.0
    hyps = E.beam_search(m, width=2, max_len=3)
    assert all(len(h.ids) <= 2 for h in hyps)
    assert all(h.logprob < -25.0 for h in hyps)  # every score pays the EOS term


def test_beam_validates_and_is_deterministic():
    m = constant_dist_model([0.1, 0.1, 0.1, 0.3, 0.2, 0.2])
    with pytest.raises(ConfigError):
        E.beam_search(m, width=0)
    with pytest.raises(ConfigError):
        E.beam_search(m, width=2, max_len=0)
    a = E.beam_search(m, width=3, max_len=4)
    b = E.beam_search(m, width=3, max_len=4)
    assert [(h.ids, h.logprob) for h in a] == [(h.ids, h.logprob) for h in b]


def test_beam_length_normalization_reranks():
    m = constant_dist_model([0.1, 0.1, 0.1, 0.35, 0.2, 0.15])
    out = E.beam_search(m, width=4, max_len=4, length_normalize=True)
    per_tok = [h.logprob / (len(h.ids) + 1) for h in out]
    assert per_tok == sorted(per_tok, reverse=True)


def test_fused_beam_uses_context():
    m = build(8, fusion="outer", seed=9)
    a = E.beam_search(m, context=np.array([1.0, 0.5, -0.5]), width=3, max_len=3)
    b = E.beam_search(m, context=None, width=3, max_len=3)
    assert [(h.ids, h.logprob) for h in a] != [(h.ids, h.logprob) for h in b]


def beam_pairs(hyps):
    return [(h.ids, h.logprob) for h in hyps]


def assert_beam_matches_per_candidate(m, context=None, max_len=4, widths=(1, 3, 13, 10_000)):
    # the last width exceeds every step's candidate count, so nothing is cut
    for width in widths:
        for length_normalize in (False, True):
            kw = dict(context=context, width=width, max_len=max_len,
                      length_normalize=length_normalize)
            assert beam_pairs(E.beam_search(m, **kw)) == \
                beam_pairs(beam_search_per_candidate(m, **kw)), kw


BEAM_WIRINGS = [("delta-rnn", "none"), ("delta-rnn", "outer"), ("delta-rnn", "inner"),
                ("gru", "none"), ("gru", "outer"), ("lstm", "none"), ("lstm", "outer")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch,fusion", BEAM_WIRINGS)
def test_beam_equals_per_candidate_loop(arch, fusion, dtype):
    cfg = ModelConfig(arch=arch, hidden=6, vocab=12, context_dim=3, fusion=fusion, unroll=8)
    m = build_model(cfg, seed=3, dtype=dtype)
    rng = np.random.default_rng(11)
    m.params["decoder.U"][:] = rng.uniform(-2, 2, m.params["decoder.U"].shape)  # peaked distributions
    context = None if fusion == "none" else np.array([0.8, -0.3, 0.5])
    assert_beam_matches_per_candidate(m, context)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_beam_equals_per_candidate_loop_on_ties(dtype):
    # constant distribution: equal word probabilities tie bit-exactly across
    # parents and at the width boundary, and a zero-probability word scores -inf.
    # Word 4 is less likely than 5, so the beam holds (5,) ahead of (4,) while
    # the tie (4, 5) = (5, 4) must keep (4, 5).
    probs = [0.01, 0.01, 0.01, 0.12, 0.1, 0.15, 0.15, 0.15, 0.1, 0.0, 0.1, 0.1]
    m = build_model(ModelConfig(hidden=6, vocab=len(probs), unroll=6), seed=0, dtype=dtype)
    for t in m.named_parameters().values():
        t[:] = 0.0
    with np.errstate(divide="ignore"):
        m.params["decoder.b_U"][:] = np.log(probs)
    assert_beam_matches_per_candidate(m, widths=(1, 2, 3, 4, 13, 10_000))


def test_beam_with_specials_only_vocabulary():
    m = build(4)  # PAD, UNK, BOS, EOS and no word: only the empty sentence exists
    for width in (1, 13):
        hyps = E.beam_search(m, width=width, max_len=5)
        assert [h.ids for h in hyps] == [()]
        assert beam_pairs(hyps) == beam_pairs(beam_search_per_candidate(m, width=width, max_len=5))


class ScriptedState:
    """One tuple of the ids fed so far per row."""

    def __init__(self, fed):
        self.fed = fed

    def take(self, rows):
        return ScriptedState([self.fed[r] for r in rows])


class ScriptedModel:
    """Stands in for SequenceModel with its batched interface: k ids in, one
    state row and one log-prob row out per id, and every row is the same."""

    def __init__(self, row):
        self.config = ModelConfig(vocab=len(row), unroll=4)
        self.dtype = np.dtype(np.float64)
        self.row = np.asarray(row, dtype=np.float64).reshape(1, -1)

    def start_state(self, batch_size, contexts):
        return ScriptedState([()] * batch_size), None

    def advance(self, state, gain, ids):
        ids = np.atleast_1d(ids).tolist()
        assert len(ids) == len(state.fed)
        return (ScriptedState([fed + (i,) for fed, i in zip(state.fed, ids)]),
                np.repeat(self.row, len(ids), axis=0))


def test_beam_ranks_nan_after_every_number_and_breaks_ties_by_ids():
    nan, inf = math.nan, math.inf
    # specials, EOS, then words 4..8
    m = ScriptedModel([-9.0, -9.0, -9.0, -1.0, nan, -0.5, nan, -0.5, -inf])
    # step one ranks 5 and 7 (tied, by id), 8 (-inf), then 4 and 6 (NaN, by id)
    expected = [((), -1.0), ((5,), -1.5), ((7,), -1.5), ((8,), -inf), ((4,), nan), ((6,), nan)]
    for width in range(1, 7):
        got = E.beam_search(m, width=width, max_len=2)
        want = expected[:1 + width]
        assert [h.ids for h in got] == [ids for ids, _ in want]
        npt.assert_array_equal([h.logprob for h in got], [lp for _, lp in want])
    got = E.beam_search(m, width=6, max_len=2, length_normalize=True)
    assert [h.ids for h in got] == [(5,), (7,), (), (8,), (4,), (6,)]
    # a NaN prefix keeps extending; its completions rank last, by length then ids
    got = E.beam_search(m, width=6, max_len=3)
    nan_ids = [h.ids for h in got if math.isnan(h.logprob)]
    assert nan_ids == sorted(nan_ids, key=lambda ids: (len(ids), ids))
    assert all(not math.isnan(h.logprob) for h in got[:-len(nan_ids)])


def test_beam_advances_once_per_step_over_every_kept_hypothesis():
    m = build(17, unroll=12)
    calls = []
    advance = m.advance

    def counted(state, gain, ids):
        ids = np.atleast_1d(ids)
        calls.append(ids.size)
        assert state.h.shape[0] == ids.size
        new_state, lp = advance(state, gain, ids)
        assert new_state.h.shape[0] == lp.shape[0] == ids.size
        return new_state, lp

    m.advance = counted
    E.beam_search(m, width=13, max_len=12)
    # BOS, then one call per non-final step over the 13 kept hypotheses
    assert calls == [1] + [13] * 11


def test_render_samples():
    vocab = D.Vocabulary(["dog", "runs"])
    hyps = [E.Hypothesis((4, 5), -1.5), E.Hypothesis((4,), -2.0)]
    text = E.render_samples_text(hyps, vocab, "image img42")
    assert text.startswith("image img42\n")
    assert "dog runs" in text
    assert "-1.500" in text and "-2.000" in text
