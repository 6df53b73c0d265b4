"""End-to-end acceptance checks, one test per shipped guarantee.

Covers: analytic gradients against finite differences across every cell and
fusion wiring; calibrated perplexity of a zeroed decoder; the gating
identities that make fused and text-only models comparable; memorization of
a tiny corpus under the stock recipe; the held-out advantage of context
fusion on a clustered corpus; beam-search exactness against brute-force
enumeration; the learning-rate schedule and padding invariance; checkpoint
round-trip fidelity; and pretrained-subword initialization.

The corpus-level tests print one line per seed so a failure names the seed
that broke.
"""

import time

import numpy as np
import pytest

import mmlm.checkpoint as C
import mmlm.data as D
import mmlm.evaluate as E
import mmlm.train as TR
from mmlm.data import BOS_ID, EOS_ID, PAD_ID
from mmlm.errors import ConfigError
from mmlm.model import ModelConfig, build_model
from mmlm.tensor import seed_stream
from oracles import finite_diff_check, forward_sequence
from tape_ops import sequence_nll, taped


# -- 1. gradient correctness -------------------------------------------------

# (arch, fusion, fusion bias, parameter seed); the seed redraws every
# parameter from U(-0.6, 0.6) so the check runs at a generic point where no
# gate saturates and no gradient component sits in the sub-1e-6 dead band
# where the finite-difference quotient is all roundoff.
GRAD_CONFIGS = [
    ("delta-rnn", "none", True, 500),
    ("delta-rnn", "inner", True, 501),
    ("delta-rnn", "outer", True, 502),
    ("gru", "none", True, 503),
    ("gru", "outer", False, 504),
    ("gru", "outer", True, 514),
    ("lstm", "none", True, 506),
    ("lstm", "outer", False, 516),
    ("lstm", "outer", True, 526),
]


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_overall = 0.0
    for i, (arch, fusion, bias, param_seed) in enumerate(GRAD_CONFIGS):
        cfg = ModelConfig(arch=arch, hidden=8, vocab=20, context_dim=6,
                          fusion=fusion, fusion_bias=bias, unroll=5)
        model = build_model(cfg, seed=100 + i, dtype=np.float64)
        leaves = taped(model)
        prng = np.random.default_rng(param_seed)
        for p in model.named_parameters().values():
            p[:] = prng.uniform(-0.6, 0.6, p.shape)
        ctx = rng.uniform(-1.0, 1.0, (2, 6)) if fusion != "none" else None
        batch = D.encode_sequences([[4, 7, 9, 12], [5, 6, 8]], 5, contexts=ctx)

        def loss():
            return sequence_nll(model, leaves, batch)[0]

        err = finite_diff_check(loss, leaves.values(), eps=1e-4)
        print(f"{arch}/{fusion}/bias={bias}: max rel err {err:.3e}", flush=True)
        assert err <= 1e-4, (arch, fusion, bias, err)
        worst_overall = max(worst_overall, err)
    elapsed = time.time() - t0
    print(f"worst over 9 configurations: {worst_overall:.3e} in {elapsed:.1f}s")
    assert elapsed < 60.0


# -- 2. uniform-model perplexity ----------------------------------------------


def test_criterion_2_zeroed_decoder_gives_uniform_perplexity():
    rng = np.random.default_rng(11)
    for vocab_size in (10, 100, 1000):
        cfg = ModelConfig(arch="delta-rnn", hidden=8, vocab=vocab_size, unroll=10)
        model = build_model(cfg, seed=vocab_size, dtype=np.float64)
        model.params["decoder.U"][:] = 0.0
        model.params["decoder.b_U"][:] = 0.0
        id_lists = [list(rng.integers(4, vocab_size, size=8)) for _ in range(6)]
        batch = D.encode_sequences(id_lists, 10)
        nll, ppl = TR.dataset_nll(model, [batch])
        assert abs(ppl - vocab_size) < 1e-6, (vocab_size, ppl)


# -- 3. identity gating --------------------------------------------------------


def test_criterion_3_identity_gating_reproduces_text_only():
    rng = np.random.default_rng(23)
    for arch in ("delta-rnn", "gru", "lstm"):
        fused_cfg = ModelConfig(arch=arch, hidden=8, vocab=14, context_dim=5,
                                fusion="outer", unroll=6)
        plain_cfg = ModelConfig(arch=arch, hidden=8, vocab=14, unroll=6)
        fused = build_model(fused_cfg, seed=21, dtype=np.float64)
        plain = build_model(plain_cfg, seed=22, dtype=np.float64)
        fused_params = fused.named_parameters()
        for name, p in plain.named_parameters().items():
            p[:] = fused_params[name]
        fused_params["fusion.M"][:] = 0.0
        fused_params["fusion.b_M"][:] = 1.0

        ids = [[4, 6, 9, 11], [5, 13, 7], [10, 8, 12, 6]]
        ctx = rng.uniform(-2.0, 2.0, (3, 5))
        batch_ctx = D.encode_sequences(ids, 6, contexts=ctx)
        batch_plain = D.encode_sequences(ids, 6)

        loss_f, count_f, _ = fused.sequence_nll(batch_ctx)
        loss_p, count_p, _ = plain.sequence_nll(batch_plain)
        assert loss_f.item() == loss_p.item() and count_f == count_p
        dists_f = forward_sequence(fused, batch_ctx)
        dists_p = forward_sequence(plain, batch_plain)
        assert np.array_equal(dists_f[-1].data, dists_p[-1].data)

        # definitional identity: all-zero stored contexts make the two
        # fused evaluation conditions the same computation
        natural = build_model(fused_cfg, seed=31, dtype=np.float64)
        batch_zero = D.encode_sequences(ids, 6, contexts=np.zeros((3, 5)))
        nll_both, ppl_both = E.evaluate(natural, [batch_zero], "LV-LV")
        nll_null, ppl_null = E.evaluate(natural, [batch_zero], "LV-L")
        assert nll_both == nll_null and ppl_both == ppl_null


# -- 4. memorization -----------------------------------------------------------


def test_criterion_4_memorizes_toy_corpus():
    n_distinct, copies, sent_len = 5, 10, 9
    words = [f"w{i:02d}" for i in range(n_distinct * sent_len)]
    vocab = D.Vocabulary(words)
    sentences = [words[i * sent_len:(i + 1) * sent_len] for i in range(n_distinct)]
    records = [D.CaptionRecord(f"img{i}", "english", "train", sentences[i])
               for i in range(n_distinct) for _ in range(copies)]
    assert len(records) == 50 and len(vocab) <= 60

    t0 = time.time()
    wins = 0
    for seed in range(10):
        cfg = ModelConfig(arch="delta-rnn", hidden=32, vocab=len(vocab), unroll=12)
        model = build_model(cfg, seed=seed)
        eval_batches = D.encode_batches(records, vocab, 12, 32)
        hit = None
        for epoch in range(1, 201):
            rng = seed_stream(seed, f"shuffle/epoch{epoch}")
            batches = D.encode_batches(records, vocab, 12, 32, rng=rng)
            TR.train_epoch(model, batches, 1.0, 2.0, epoch=epoch)
            nll, ppl = TR.dataset_nll(model, eval_batches)
            if ppl < 1.5:
                hit = (epoch, ppl)
                break
        wins += hit is not None
        detail = (f"PPL {hit[1]:.4f} at epoch {hit[0]}" if hit
                  else f"no hit; final PPL {ppl:.3f}")
        print(f"seed {seed}: {detail}", flush=True)
    elapsed = time.time() - t0
    print(f"{wins}/10 seeds reached PPL < 1.5 in {elapsed:.1f}s")
    assert wins >= 9
    assert elapsed < 300.0


# -- 5. context advantage on clustered grammars ---------------------------------


def two_cluster_corpus(corpus_seed=1234, n_sentences=2000, sent_len=10,
                       branch=2, starters=6, scale=0.06, noise=0.1):
    """Two disjoint 30-word Markov sub-grammars; each sentence carries a
    16-dim context vector clustered by sub-grammar (opposite centers, so
    the zero vector is the midpoint between clusters)."""
    rng = np.random.default_rng(corpus_seed)
    grammars = []
    for g in range(2):
        words = [f"g{g}w{i:02d}" for i in range(30)]
        starts = list(rng.choice(30, size=starters, replace=False))
        succ = {i: list(rng.choice(30, size=branch, replace=False)) for i in range(30)}
        grammars.append((words, starts, succ))
    vocab = D.Vocabulary(grammars[0][0] + grammars[1][0])
    centers = np.vstack([np.full(16, scale), np.full(16, -scale)])
    records, store = [], D.ContextStore(16)
    for n in range(n_sentences):
        g = int(rng.integers(2))
        words, starts, succ = grammars[g]
        w = int(rng.choice(starts))
        sent = [words[w]]
        for _ in range(sent_len - 1):
            w = int(rng.choice(succ[w]))
            sent.append(words[w])
        split = "train" if n < 1600 else ("valid" if n < 1800 else "test")
        image_id = f"s{n}"
        records.append(D.CaptionRecord(image_id, "english", split, sent))
        store.add(image_id, centers[g] + noise * rng.standard_normal(16))
    return vocab, records, store


def test_criterion_5_context_advantage_on_clustered_grammars():
    vocab, records, store = two_cluster_corpus()
    train_r = [r for r in records if r.split == "train"]
    valid_r = [r for r in records if r.split == "valid"]
    test_r = [r for r in records if r.split == "test"]
    unroll = 12

    t0 = time.time()
    ok = 0
    for seed in range(5):
        results = {}
        for fusion in ("none", "outer"):
            cfg = ModelConfig(arch="delta-rnn", hidden=20, vocab=len(vocab),
                              context_dim=16, fusion=fusion, unroll=unroll)
            model = build_model(cfg, seed=seed)
            tc = TR.TrainConfig(lr=0.5, clip=2.0, batch_size=32,
                                max_epochs=20, seed=seed)
            contexts = store if fusion != "none" else None
            TR.fit(model, train_r, valid_r, vocab, tc, contexts=contexts)
            test_batches = D.encode_batches(test_r, vocab, unroll, 32,
                                            contexts=contexts)
            if fusion == "none":
                results["L-L"] = E.evaluate(model, test_batches, "L-L")[1]
            else:
                results["LV-LV"] = E.evaluate(model, test_batches, "LV-LV")[1]
                results["LV-L"] = E.evaluate(model, test_batches, "LV-L")[1]
        ordered = results["LV-LV"] < results["LV-L"] < results["L-L"]
        margin = results["LV-L"] <= 0.98 * results["L-L"]
        ok += ordered and margin
        print(f"seed {seed}: LV-LV {results['LV-LV']:.3f}  LV-L {results['LV-L']:.3f}"
              f"  L-L {results['L-L']:.3f}  {'OK' if ordered and margin else 'MISS'}",
              flush=True)
    elapsed = time.time() - t0
    print(f"{ok}/5 seeds ordered with margin in {elapsed:.1f}s")
    assert ok >= 4
    assert elapsed < 900.0


# -- 6. beam-search exactness ----------------------------------------------------


def enumerate_hypotheses(model, max_len):
    """Brute-force oracle: walk every word sequence the beam could emit,
    chaining the same incremental-decoding calls the beam uses."""
    state, gain = model.start_state(1, None)
    state, lp = model.advance(state, gain, BOS_ID)
    out = []

    def walk(ids, score, st, lp_row, depth):
        out.append(E.Hypothesis(ids, score + float(lp_row[EOS_ID])))
        if depth == max_len:
            return
        for w in range(4, model.config.vocab):
            st2, lp2 = model.advance(st, gain, w)
            walk(ids + (w,), score + float(lp_row[w]), st2, lp2[0], depth + 1)

    walk((), 0.0, state, lp[0], 1)
    return sorted(out, key=lambda h: (-h.logprob, len(h.ids), h.ids))


def test_criterion_6_beam_matches_brute_force():
    cfg = ModelConfig(arch="delta-rnn", hidden=6, vocab=8, unroll=8)
    model = build_model(cfg, seed=5, dtype=np.float64)
    beam = E.beam_search(model, width=64, max_len=3)
    oracle = enumerate_hypotheses(model, 3)
    assert len(oracle) == 21  # empty + 4 one-word + 16 two-word sentences
    assert [(h.ids, h.logprob) for h in beam] == [(h.ids, h.logprob) for h in oracle]


# -- 7. schedule and masking -------------------------------------------------------


def lr_trace(ppls, patience, mode):
    state = TR.TrainState(lr=1.0)
    return [TR.update_schedule(state, p, patience=patience, mode=mode).lr for p in ppls]


def pad_rows(batch, extra):
    cols = batch.tokens.shape[1]
    return D.SequenceBatch(
        tokens=np.vstack([batch.tokens, np.full((extra, cols), PAD_ID, dtype=np.int64)]),
        mask=np.vstack([batch.mask, np.zeros((extra, cols), dtype=np.float32)]),
        contexts=batch.contexts, image_ids=batch.image_ids)


def pad_column(batch):
    rows = batch.tokens.shape[0]
    ctx = batch.contexts
    if ctx is not None:
        ctx = np.vstack([ctx, np.zeros((1, ctx.shape[1]), dtype=ctx.dtype)])
    return D.SequenceBatch(
        tokens=np.hstack([batch.tokens, np.full((rows, 1), PAD_ID, dtype=np.int64)]),
        mask=np.hstack([batch.mask, np.zeros((rows, 1), dtype=np.float32)]),
        contexts=ctx, image_ids=batch.image_ids + [""])


def test_criterion_7_schedule_and_padding_invariance():
    script = [10.0, 11.0, 9.0, 12.0, 13.0]
    assert lr_trace(script, 1, "cumulative") == [1.0, 0.5, 0.5, 0.25, 0.125]
    assert lr_trace(script, 2, "cumulative") == [1.0, 1.0, 1.0, 0.5, 0.5]
    assert lr_trace(script, 3, "cumulative") == [1.0, 1.0, 1.0, 1.0, 0.5]
    assert lr_trace(script, 2, "consecutive") == [1.0, 1.0, 1.0, 1.0, 0.5]
    assert lr_trace([10.0, 10.0, 10.0], 1, "cumulative") == [1.0, 1.0, 1.0]
    assert lr_trace([10.0, 9.0, 8.0], 1, "cumulative") == [1.0, 1.0, 1.0]

    rng = np.random.default_rng(41)
    for fusion in ("none", "outer"):
        cfg = ModelConfig(arch="delta-rnn", hidden=7, vocab=12, context_dim=3,
                          fusion=fusion, unroll=6)
        model = build_model(cfg, seed=13, dtype=np.float64)
        ctx = rng.uniform(-1.0, 1.0, (2, 3)) if fusion != "none" else None
        batch = D.encode_sequences([[4, 6, 9, 11], [5, 7]], 6, contexts=ctx)
        loss, count, _ = model.sequence_nll(batch)
        for padded in (pad_rows(batch, 3), pad_column(batch)):
            loss_p, count_p, _ = model.sequence_nll(padded)
            assert loss_p.item() == loss.item()
            assert count_p == count


# -- 8. checkpoint round-trip --------------------------------------------------------


def test_criterion_8_checkpoint_round_trip(tmp_path):
    words = [f"tok{i}" for i in range(8)]
    vocab = D.Vocabulary(words)
    cfg = ModelConfig(arch="delta-rnn", hidden=7, vocab=len(vocab),
                      context_dim=4, fusion="outer", unroll=6)
    model = build_model(cfg, seed=3)
    rng = np.random.default_rng(17)
    batch = D.encode_sequences([[4, 6, 9, 10], [5, 8, 11]], 6,
                               contexts=rng.uniform(-1.0, 1.0, (2, 4)))
    before = model.sequence_nll(batch)[0].item()

    path = tmp_path / "model.mmlm"
    tc = TR.TrainConfig(lr=0.5, max_epochs=4, seed=3)
    state = TR.TrainState(epoch=4, lr=0.5, best_valid_ppl=9.25, best_epoch=2)
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    restored = C.model_from_checkpoint(ckpt)
    after = restored.sequence_nll(batch)[0].item()
    assert after == before

    manifest = C.render_manifest(ckpt)
    for name, p in model.named_parameters().items():
        rows, cols = p.shape
        assert f"  {name}  {rows} x {cols}" in manifest, name


# -- 9. pretrained-embedding initialization --------------------------------------------


TOY_SUBWORDS = """3
dog 1.0 2.0 3.0
c 9.0 9.0 9.0
ca 0.25 0.5 -1.0
##t 0.75 1.5 -3.0
ru 0.5 0.25 0.125
##ns -0.5 0.75 0.375
[UNK] 8.0 8.0 8.0
"""


def test_criterion_9_pretrained_initialization(tmp_path):
    path = tmp_path / "subwords.txt"
    path.write_text(TOY_SUBWORDS, encoding="utf-8")
    pre = D.PretrainedEmbeddings.load(path)
    vocab = D.Vocabulary(["cat", "dog", "runs", "qx"])

    w = np.zeros((3, len(vocab)))
    coverage = D.init_embeddings_from_pretrained(w, vocab, pre)
    # hand-computed piece means: cat = (ca + ##t)/2, runs = (ru + ##ns)/2;
    # "ca" beats the shorter match "c"; "qx" falls back to [UNK]
    assert np.array_equal(w[:, vocab.lookup("cat")], [0.5, 1.0, -2.0])
    assert np.array_equal(w[:, vocab.lookup("dog")], [1.0, 2.0, 3.0])
    assert np.array_equal(w[:, vocab.lookup("runs")], [0.0, 0.5, 0.25])
    assert np.array_equal(w[:, vocab.lookup("qx")], [8.0, 8.0, 8.0])
    assert coverage == 3 / 4  # qx is the one [UNK] fallback among 4 words
    assert np.array_equal(w[:, :4], np.zeros((3, 4)))  # specials untouched

    with pytest.raises(ConfigError):
        D.init_embeddings_from_pretrained(
            np.zeros((5, len(vocab))), vocab, pre)
    a = np.zeros((5, len(vocab)))
    b = np.zeros((5, len(vocab)))
    cov_a = D.init_embeddings_from_pretrained(a, vocab, pre, project=True, seed=7)
    cov_b = D.init_embeddings_from_pretrained(b, vocab, pre, project=True, seed=7)
    assert np.array_equal(a, b)
    assert cov_a == cov_b == 3 / 4
