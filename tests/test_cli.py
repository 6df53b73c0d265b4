import os
import pathlib
import struct

import numpy as np
import pytest

import mmlm.cli as cli
import mmlm.data as D
import mmlm.evaluate as E
from mmlm.checkpoint import load_checkpoint
from mmlm.model import ModelConfig, SequenceModel
from mmlm.train import TrainState

TOY_RAW = """\
img1\tenglish\ttrain\tThe dog runs
img1\tenglish\ttrain\ta dog sleeps
img2\tenglish\ttrain\tthe cat sleeps
img2\tenglish\tvalid\ta cat runs
img3\tenglish\ttest\tthe dog runs
"""


def write_features(path, image_ids, dim=3):
    with open(path, "w", encoding="utf-8") as fh:
        for i, image_id in enumerate(image_ids):
            vals = " ".join(repr(float(v)) for v in np.linspace(i, i + 1, dim))
            fh.write(f"{image_id}\t{vals}\n")


def write_corpus(path, words, n_images=6, langs=("english",)):
    """Deterministic round-robin corpus with every split populated."""
    lines = []
    splits = ["train"] * 4 + ["valid", "test"]
    k = 0
    for lang in langs:
        for i in range(n_images * 3):
            toks = [words[(k + j) % len(words)] for j in range(3 + i % 3)]
            lines.append(f"img{i % n_images}\t{lang}\t{splits[i % 6]}\t{' '.join(toks)}")
            k += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


WORDS = ["dog", "cat", "ball", "tree", "runs", "sleeps",
         "plays", "jumps", "red", "blue", "big", "small"]


@pytest.fixture
def prep(tmp_path):
    """A prepared dataset plus a trained text-only and fused checkpoint."""
    raw = tmp_path / "raw.tsv"
    write_corpus(raw, WORDS)
    feats = tmp_path / "feats.tsv"
    write_features(feats, [f"img{i}" for i in range(6)])
    out = tmp_path / "prep"
    assert cli.main(["prepare", "--captions", str(raw), "--features", str(feats),
                     "--out", str(out), "--min-count", "1"]) == 0
    return tmp_path


def train_args(prep, out, extra=()):
    return ["train", "--captions", str(prep / "prep/captions.tsv"),
            "--vocab", str(prep / "prep/vocab.txt"),
            "--out", str(out), "--hidden", "6", "--unroll", "8",
            "--batch-size", "4", "--max-epochs", "2", "--seed", "3",
            "--lr", "0.25", *extra]


def test_prepare_toy_counts(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text(TOY_RAW)
    feats = tmp_path / "feats.tsv"
    write_features(feats, ["img1", "img2", "img3"])
    out = tmp_path / "out"
    assert cli.main(["prepare", "--captions", str(raw), "--features", str(feats),
                     "--out", str(out), "--min-count", "1"]) == 0
    summary = capsys.readouterr().out
    assert "records kept: 5" in summary
    assert "train,english,3,9" in summary
    assert "valid,english,1,3" in summary
    assert "test,english,1,3" in summary
    # hand count: dog/sleeps/the x2, a/cat/runs x1 in the train split
    assert "vocabulary: 6 words (min_count 1)" in summary
    vocab = D.load_vocab(out / "vocab.txt")
    assert vocab.words == ["dog", "sleeps", "the", "a", "cat", "runs"]
    records = D.read_captions(out / "captions.tsv")
    assert records[0].tokens == ["the", "dog", "runs"]  # lowercased


def test_prepare_is_idempotent(tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text(TOY_RAW)
    feats = tmp_path / "feats.tsv"
    write_features(feats, ["img1", "img2", "img3"])
    for out in ("a", "b"):
        assert cli.main(["prepare", "--captions", str(raw), "--features",
                         str(feats), "--out", str(tmp_path / out),
                         "--min-count", "1"]) == 0
    for name in ("captions.tsv", "vocab.txt", "contexts.mmcv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_prepare_excludes_caption_without_features(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text(TOY_RAW)
    feats = tmp_path / "feats.tsv"
    write_features(feats, ["img1", "img2"])  # img3 missing
    out = tmp_path / "out"
    assert cli.main(["prepare", "--captions", str(raw), "--features", str(feats),
                     "--out", str(out), "--min-count", "1"]) == 0
    captured = capsys.readouterr()
    assert "excluded 1 caption(s)" in captured.err
    assert "img3 (english, test)" in captured.out
    assert all(r.image_id != "img3" for r in D.read_captions(out / "captions.tsv"))
    assert D.load_contexts(out / "contexts.mmcv").ids() == ["img1", "img2"]


def test_prepare_malformed_line_names_lineno(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("img1\tenglish\ttrain\ta dog\nimg2\tenglish\ttrain\n")
    assert cli.main(["prepare", "--captions", str(raw),
                     "--out", str(tmp_path / "out")]) == 2
    assert ":2:" in capsys.readouterr().err


def test_prepare_without_features_skips_context_store(tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text(TOY_RAW)
    out = tmp_path / "out"
    assert cli.main(["prepare", "--captions", str(raw), "--out", str(out),
                     "--min-count", "1"]) == 0
    assert not (out / "contexts.mmcv").exists()
    assert (out / "captions.tsv").exists()


def test_train_writes_artifacts(prep, capsys):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    assert "trained to epoch 2" in capsys.readouterr().out
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_nll,valid_nll,valid_ppl,lr"
    assert len(curve) == 3  # header + one row per epoch
    for name in ("model_last.mmlm", "model_best.mmlm"):
        assert (out / name).exists()
    ckpt = load_checkpoint(out / "model_last.mmlm")
    assert ckpt.state.epoch == 2
    assert len(ckpt.state.curve) == 2


def test_checkpoint_curve_rows_equal_curve_csv(prep):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    raw = (out / "model_last.mmlm").read_bytes()
    (text_len,) = struct.unpack_from("<I", raw, 6)
    text = raw[10:10 + text_len].decode("utf-8")
    rows = [line[len("curve = "):] for line in text.splitlines() if line.startswith("curve = ")]
    body = (out / "curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and rows == body


def test_train_resume_is_bit_exact(prep):
    full, half = prep / "full", prep / "half"
    assert cli.main(train_args(prep, full, ["--max-epochs", "3"])) == 0
    assert cli.main(train_args(prep, half, ["--max-epochs", "1"])) == 0
    assert cli.main(train_args(prep, half, ["--max-epochs", "3", "--resume",
                                            str(half / "model_last.mmlm")])) == 0
    assert (full / "curve.csv").read_bytes() == (half / "curve.csv").read_bytes()
    assert (full / "model_last.mmlm").read_bytes() == (half / "model_last.mmlm").read_bytes()


def test_train_resume_without_new_epochs_still_writes_artifacts(prep):
    first, again = prep / "first", prep / "again"
    assert cli.main(train_args(prep, first, ["--max-epochs", "1"])) == 0
    assert cli.main(train_args(prep, again, ["--max-epochs", "1", "--resume",
                                             str(first / "model_last.mmlm")])) == 0
    for name in ("model_last.mmlm", "curve.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    assert not (again / "model_best.mmlm").exists()


def test_text_only_run_with_contexts_resumes_without_them(prep):
    # a text-only model never reads the contexts, so --contexts leaves its
    # config, and the hash that guards --resume, as they are
    with_ctx, without = prep / "with", prep / "without"
    contexts = ["--contexts", str(prep / "prep/contexts.mmcv")]
    assert cli.main(train_args(prep, with_ctx, ["--max-epochs", "1", *contexts])) == 0
    assert load_checkpoint(with_ctx / "model_last.mmlm").model_config.context_dim \
        == ModelConfig.context_dim
    assert cli.main(train_args(prep, with_ctx, ["--max-epochs", "2", "--resume",
                                                str(with_ctx / "model_last.mmlm")])) == 0
    assert cli.main(train_args(prep, without, ["--max-epochs", "2"])) == 0
    for name in ("model_last.mmlm", "curve.csv"):
        assert (with_ctx / name).read_bytes() == (without / name).read_bytes()


def refuse_contexts(monkeypatch):
    def refuse(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(D, "load_contexts", refuse)


def test_text_only_run_never_loads_the_contexts(prep, monkeypatch):
    refuse_contexts(monkeypatch)
    contexts = ["--contexts", str(prep / "prep/contexts.mmcv")]
    assert cli.main(train_args(prep, prep / "run", ["--max-epochs", "1", *contexts])) == 0
    with pytest.raises(AssertionError, match="loaded .*contexts.mmcv"):
        cli.main(train_args(prep, prep / "fused", ["--fusion", "outer", *contexts]))


def train_with_bests(monkeypatch, prep, out, bests):
    """Run `mmlm train` with a fit that calls on_epoch once per entry of
    bests, the best epoch after that epoch, changing the parameters before
    each call; the bytes of model_last.mmlm after each epoch."""
    saved = []

    def fake_fit(model, *args, on_epoch, **kwargs):
        for epoch, best in enumerate(bests, start=1):
            for p in model.named_parameters().values():
                p += 1
            state = TrainState(epoch=epoch, best_epoch=best, best_valid_ppl=2.0,
                               curve=[(e, 1.0, 1.0, 2.0, 1.0) for e in range(1, epoch + 1)])
            on_epoch(state)
            saved.append((out / "model_last.mmlm").read_bytes())
        return state

    monkeypatch.setattr(cli, "fit", fake_fit)
    assert cli.main(train_args(prep, out, ["--max-epochs", str(len(bests))])) == 0
    return saved


def test_model_best_is_model_last_of_its_epoch_and_outlives_later_saves(prep, monkeypatch):
    out = prep / "run"
    saved = train_with_bests(monkeypatch, prep, out, [1, 1, 1, 4, 4])
    assert len(set(saved)) == 5
    best = out / "model_best.mmlm"
    # epoch 4 was the last best: model_best is that epoch's model_last file,
    # which epoch 5's save of model_last left alone for a new file
    assert best.read_bytes() == saved[3]
    assert (out / "model_last.mmlm").read_bytes() == saved[4]
    assert not os.path.samefile(best, out / "model_last.mmlm")
    assert load_checkpoint(best).state.best_epoch == load_checkpoint(best).state.epoch == 4
    assert sorted(os.listdir(out)) == ["curve.csv", "model_best.mmlm", "model_last.mmlm"]


def test_model_best_links_model_last_at_a_best_epoch(prep, monkeypatch):
    out = prep / "run"
    saved = train_with_bests(monkeypatch, prep, out, [1, 2])
    assert os.path.samefile(out / "model_best.mmlm", out / "model_last.mmlm")
    assert (out / "model_best.mmlm").read_bytes() == saved[1]


def test_model_best_is_saved_in_full_where_links_fail(prep, monkeypatch):
    def no_link(src, dst):
        raise OSError(1, "Operation not permitted")

    linked, unlinked = prep / "linked", prep / "unlinked"
    with_links = train_with_bests(monkeypatch, prep, linked, [1, 2, 2])
    monkeypatch.setattr(os, "link", no_link)
    without = train_with_bests(monkeypatch, prep, unlinked, [1, 2, 2])
    assert without == with_links
    best = unlinked / "model_best.mmlm"
    assert best.read_bytes() == (linked / "model_best.mmlm").read_bytes() == without[1]
    assert sorted(os.listdir(unlinked)) == ["curve.csv", "model_best.mmlm", "model_last.mmlm"]


def test_train_renames_onto_no_existing_name(prep, monkeypatch):
    # every file a run writes goes through a temp and an aside name, so an
    # earlier file that another name links to is never written through
    out = prep / "run"
    assert cli.main(train_args(prep, out, ["--max-epochs", "1"])) == 0
    earlier = {name: (out / name).read_bytes() for name in os.listdir(out)}
    for name in earlier:
        os.link(out / name, prep / f"kept-{name}")
    rename = os.rename
    renamed = []

    def checked_rename(src, dst):
        assert not os.path.lexists(dst), dst
        renamed.append(os.path.basename(dst))
        rename(src, dst)

    monkeypatch.setattr(os, "rename", checked_rename)
    assert cli.main(train_args(prep, out, ["--max-epochs", "4", "--resume",
                                           str(out / "model_last.mmlm")])) == 0
    assert {"model_last.mmlm", "curve.csv"} <= set(renamed)
    for name, raw in earlier.items():
        assert (prep / f"kept-{name}").read_bytes() == raw
    assert sorted(os.listdir(out)) == ["curve.csv", "model_best.mmlm", "model_last.mmlm"]


def test_train_resume_refuses_config_drift(prep, capsys):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    rc = cli.main(train_args(prep, out, ["--lr", "0.5", "--max-epochs", "4",
                                         "--resume", str(out / "model_last.mmlm")]))
    assert rc == 2
    assert "refusing to resume" in capsys.readouterr().err


def test_train_config_file_with_flag_override(prep, capsys):
    cfg = prep / "run.cfg"
    cfg.write_text(
        "# toy run\n"
        f"captions = {prep / 'prep/captions.tsv'}\n"
        f"vocab = {prep / 'prep/vocab.txt'}\n"
        "hidden = 4\n"
        "unroll = 8\n"
        "lr = 0.25\n"
        "batch_size = 4\n"
        "max_epochs = 1\n"
        "seed = 3\n")
    out = prep / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                     "--hidden", "6"]) == 0
    ckpt = load_checkpoint(out / "model_last.mmlm")
    assert ckpt.model_config.hidden == 6  # flag beats file
    assert ckpt.train_config.lr == 0.25  # file beats default


def test_train_unknown_config_key_exits_2(prep, capsys):
    cfg = prep / "run.cfg"
    cfg.write_text("hiden = 4\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(prep / "x")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_train_context_dim_is_not_an_option(prep, capsys):
    # the dim comes from the context store; a text-only model keeps the default
    cfg = prep / "run.cfg"
    cfg.write_text("context_dim = 7\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(prep / "x")]) == 2
    assert "unknown config key 'context_dim'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(train_args(prep, prep / "x", ["--context-dim", "7"]))
    assert exc.value.code == 2
    assert cli.main(train_args(prep, prep / "run", ["--max-epochs", "1"])) == 0
    config = load_checkpoint(prep / "run/model_last.mmlm").model_config
    assert config.context_dim == ModelConfig.context_dim


def test_train_seed_from_environment(prep, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "9")
    out = prep / "run"
    args = train_args(prep, out)
    seed_at = args.index("--seed")
    del args[seed_at:seed_at + 2]
    assert cli.main(args) == 0
    assert load_checkpoint(out / "model_last.mmlm").train_config.seed == 9
    # explicit flag wins over the environment
    assert cli.main(train_args(prep, out, ["--max-epochs", "2"])) == 0
    assert load_checkpoint(out / "model_last.mmlm").train_config.seed == 3


def test_train_needs_validation_split(prep, capsys):
    records = [r for r in D.read_captions(prep / "prep/captions.tsv")
               if r.split != "valid"]
    path = prep / "novalid.tsv"
    D.write_captions(path, records)
    args = train_args(prep, prep / "x")
    args[args.index("--captions") + 1] = str(path)
    assert cli.main(args) == 2
    assert "validation" in capsys.readouterr().err


def test_train_abort_exits_3(prep, capsys):
    with np.errstate(all="ignore"):
        rc = cli.main(train_args(prep, prep / "x", ["--lr", "1e38"]))
    assert rc == 3
    assert "non-finite loss" in capsys.readouterr().err


def test_train_pretrained_coverage_printed(prep, capsys):
    table = prep / "sub.vec"
    lines = ["6"]
    for w in WORDS[:8] + ["[UNK]"]:
        vals = " ".join(repr(float(v)) for v in np.linspace(0.1, 0.2, 6))
        lines.append(f"{w} {vals}")
    table.write_text("\n".join(lines) + "\n")
    assert cli.main(train_args(prep, prep / "run",
                               ["--pretrained", str(table),
                                "--max-epochs", "1"])) == 0
    out = capsys.readouterr().out
    assert "pretrained coverage:" in out


def test_eval_text_only_single_row(prep, capsys):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    capsys.readouterr()
    evald = prep / "ev"
    assert cli.main(["eval", str(out / "model_last.mmlm"),
                     "--captions", str(prep / "prep/captions.tsv"),
                     "--out", str(evald)]) == 0
    csv = (evald / "eval.csv").read_text().splitlines()
    assert csv[0] == "model,condition,language,nll,ppl"
    assert len(csv) == 2
    assert csv[1].startswith("delta-rnn,L-L,english,")
    text = (evald / "eval.txt").read_text()
    nll, ppl = csv[1].split(",")[3:]
    assert nll in text and ppl in text  # same numbers in both renderings


def fused_run(prep):
    out = prep / "fused"
    if not (out / "model_last.mmlm").exists():
        assert cli.main(train_args(prep, out, [
            "--fusion", "outer",
            "--contexts", str(prep / "prep/contexts.mmcv")])) == 0
    return out / "model_last.mmlm"


def test_eval_fused_three_conditions(prep, capsys):
    ckpt = fused_run(prep)
    evald = prep / "ev"
    assert cli.main(["eval", str(ckpt),
                     "--captions", str(prep / "prep/captions.tsv"),
                     "--contexts", str(prep / "prep/contexts.mmcv"),
                     "--conditions", "L-L,LV-LV,LV-L",
                     "--out", str(evald)]) == 0
    rows = (evald / "eval.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert [r.split(",")[1] for r in rows] == ["L-L", "LV-LV", "LV-L"]
    assert all(r.startswith("mm-delta-rnn,") for r in rows)
    # with no contexts supplied the fused model sees the null vector: L-L == LV-L
    assert rows[0].split(",")[3:] == rows[2].split(",")[3:]


def eval_rows(prep, ckpt, out, extra):
    assert cli.main(["eval", str(ckpt), "--captions", str(prep / "prep/captions.tsv"),
                     "--out", str(prep / out), *extra]) == 0
    return (prep / out / "eval.csv").read_text().splitlines()[1:]


def test_eval_reads_contexts_only_for_lv_lv(prep, monkeypatch):
    # L-L strips the contexts and LV-L zeroes them, so neither reads the file
    fused = fused_run(prep)
    assert cli.main(train_args(prep, prep / "run")) == 0
    contexts = ["--contexts", str(prep / "prep/contexts.mmcv")]
    loaded = eval_rows(prep, fused, "all", [*contexts, "--conditions", "L-L,LV-LV,LV-L"])
    text_only = eval_rows(prep, prep / "run/model_last.mmlm", "text", [])
    refuse_contexts(monkeypatch)
    assert eval_rows(prep, fused, "part", [*contexts, "--conditions", "L-L,LV-L"]) \
        == [loaded[0], loaded[2]]
    assert eval_rows(prep, fused, "lv-l", [*contexts, "--conditions", "LV-L"]) \
        == [loaded[2]]
    assert eval_rows(prep, prep / "run/model_last.mmlm", "text2", contexts) == text_only


def test_eval_without_lv_lv_needs_no_vector_per_image(prep, capsys):
    fused = fused_run(prep)
    partial = prep / "partial.tsv"
    write_features(partial, ["img0", "img1"])  # the test split is img5's
    contexts = ["--contexts", str(partial)]
    assert len(eval_rows(prep, fused, "ev", [*contexts, "--conditions", "L-L,LV-L"])) == 2
    capsys.readouterr()
    assert cli.main(["eval", str(fused), "--captions", str(prep / "prep/captions.tsv"),
                     *contexts, "--out", str(prep / "ev")]) == 2
    assert "img5" in capsys.readouterr().err


def test_eval_rejects_bad_condition(prep, capsys):
    ckpt = fused_run(prep)
    rc = cli.main(["eval", str(ckpt),
                   "--captions", str(prep / "prep/captions.tsv"),
                   "--conditions", "L-V", "--out", str(prep / "ev")])
    assert rc == 2
    assert "condition" in capsys.readouterr().err


def spy_on_eval(monkeypatch):
    """(calls, passes): each evaluate.evaluate call of an `mmlm eval` as
    (condition, model, batches, result), and each batch that
    SequenceModel.sequence_nll scored, in order."""
    calls, passes = [], []
    evaluate, sequence_nll = E.evaluate, SequenceModel.sequence_nll

    def evaluate_spy(model, batches, condition, **kwargs):
        out = evaluate(model, batches, condition, **kwargs)
        calls.append((condition, model, batches, out))
        return out

    def sequence_nll_spy(model, batch, *args, **kwargs):
        passes.append(batch)
        return sequence_nll(model, batch, *args, **kwargs)

    monkeypatch.setattr(E, "evaluate", evaluate_spy)
    monkeypatch.setattr(SequenceModel, "sequence_nll", sequence_nll_spy)
    return calls, passes


@pytest.mark.parametrize("conditions", ["L-L,LV-LV,LV-L", "LV-L,LV-LV,L-L,LV-L"])
def test_eval_scores_each_distinct_pass_once(prep, monkeypatch, conditions):
    # on a fused model L-L and LV-L are one null-context pass, scored once;
    # every row is still one evaluate call, in the order asked
    fused = fused_run(prep)
    evaluate = E.evaluate
    calls, passes = spy_on_eval(monkeypatch)
    eval_rows(prep, fused, "ev", ["--split", "train", "--conditions", conditions,
                                  "--contexts", str(prep / "prep/contexts.mmcv")])
    assert [c for c, *_ in calls] == conditions.split(",")
    n = len(calls[0][2])
    assert n == 3 and len(passes) == 2 * n
    rows = [E.EvalRow("mm-delta-rnn", c, "english", *evaluate(m, b, c)) for c, m, b, _ in calls]
    assert [repr(out) for *_, out in calls] == [repr((r.nll, r.ppl)) for r in rows]
    assert (prep / "ev/eval.csv").read_text() == E.render_eval_csv(rows)
    assert (prep / "ev/eval.txt").read_text() == E.render_eval_text(rows)


def test_text_only_eval_runs_one_pass(prep, monkeypatch):
    assert cli.main(train_args(prep, prep / "run")) == 0
    calls, passes = spy_on_eval(monkeypatch)
    eval_rows(prep, prep / "run/model_last.mmlm", "ev", ["--split", "train"])
    assert [c for c, *_ in calls] == ["L-L"]
    assert len(passes) == len(calls[0][2]) == 3


def test_eval_two_languages_need_flag(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    write_corpus(raw, WORDS, langs=("english", "german"))
    out = tmp_path / "prep"
    assert cli.main(["prepare", "--captions", str(raw), "--out", str(out),
                     "--min-count", "1"]) == 0
    run = tmp_path / "run"
    assert cli.main(["train", "--captions", str(out / "captions.tsv"),
                     "--out", str(run), "--hidden", "4", "--unroll", "8",
                     "--batch-size", "4", "--max-epochs", "1", "--seed", "0",
                     "--lr", "0.25"]) == 0
    capsys.readouterr()
    base = ["eval", str(run / "model_last.mmlm"),
            "--captions", str(out / "captions.tsv"), "--out", str(tmp_path / "ev")]
    assert cli.main(base) == 2
    assert "pass --language" in capsys.readouterr().err
    assert cli.main(base + ["--language", "german"]) == 0
    assert ",german," in (tmp_path / "ev/eval.csv").read_text()


def test_neighbors_default_k_and_unknown_query(prep, capsys):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    capsys.readouterr()
    nbd = prep / "nb"
    assert cli.main(["neighbors", str(out / "model_last.mmlm"), "dog", "ball",
                     "--out", str(nbd)]) == 0
    csv = (nbd / "neighbors.csv").read_text().splitlines()
    assert csv[0] == "query,rank,word,cosine"
    assert sum(r.startswith("dog,") for r in csv) == 10  # k defaults to 10
    assert sum(r.startswith("ball,") for r in csv) == 10
    assert cli.main(["neighbors", str(out / "model_last.mmlm"), "zebra",
                     "--out", str(nbd)]) == 2
    assert "zebra" in capsys.readouterr().err


def test_sample_null_and_image_context(prep, capsys):
    ckpt = fused_run(prep)
    smp = prep / "sm"
    capsys.readouterr()
    assert cli.main(["sample", str(ckpt), "--width", "3", "--max-len", "4",
                     "--out", str(smp)]) == 0
    assert capsys.readouterr().out.startswith("null-context\n")
    assert cli.main(["sample", str(ckpt), "--image-id", "img2",
                     "--contexts", str(prep / "prep/contexts.mmcv"),
                     "--width", "3", "--max-len", "4", "--out", str(smp)]) == 0
    text = (smp / "samples.txt").read_text()
    assert text.startswith("image img2\n")
    assert len(text.splitlines()) == 4  # label + width hypotheses


def test_sample_unknown_image_names_id(prep, capsys):
    ckpt = fused_run(prep)
    rc = cli.main(["sample", str(ckpt), "--image-id", "img99",
                   "--contexts", str(prep / "prep/contexts.mmcv"),
                   "--out", str(prep / "sm")])
    assert rc == 2
    assert "img99" in capsys.readouterr().err


def test_sample_image_on_text_only_model_exits_2(prep, capsys, monkeypatch):
    out = prep / "run"
    assert cli.main(train_args(prep, out)) == 0
    capsys.readouterr()
    refuse_contexts(monkeypatch)  # refused before the file is read
    rc = cli.main(["sample", str(out / "model_last.mmlm"), "--image-id", "img2",
                   "--contexts", str(prep / "prep/contexts.mmcv"),
                   "--out", str(prep / "sm")])
    assert rc == 2
    assert "text-only model cannot condition on an image" in capsys.readouterr().err


def test_inspect_lists_tensors(prep, capsys):
    ckpt = fused_run(prep)
    capsys.readouterr()
    assert cli.main(["inspect", str(ckpt)]) == 0
    out = capsys.readouterr().out
    for name in ("cell.W  6 x 16", "fusion.M  6 x 3", "decoder.U  16 x 6"):
        assert name in out
    assert "state: epoch 2" in out


def test_a_version_1_checkpoint_exits_2_and_names_the_converter(capsys):
    v1 = pathlib.Path(__file__).resolve().parent / "data" / "v1_lstm.mmlm"
    assert cli.main(["inspect", str(v1)]) == 2
    err = capsys.readouterr().err
    assert "unsupported checkpoint version 1" in err
    assert "tools/checkpoint_v1_to_v2.py" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["inspect", str(tmp_path / "nope.mmlm")]) == 2
    assert "nope.mmlm" in capsys.readouterr().err


# `main` builds only the invoked command's parser; every argv must parse,
# and every help text and usage error must read, as under the full parser.
COMMANDS = ["prepare", "train", "eval", "neighbors", "sample", "inspect"]


def help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_holds_one_command_with_the_full_help(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert f"usage: mmlm [-h] {{{command}}} ..." in cli.build_parser(command).format_usage()
    full = help_text(cli.build_parser(), [command, "--help"], capsys)
    assert full.startswith(f"usage: mmlm {command} ")
    assert help_text(cli.build_parser(command), [command, "--help"], capsys) == full


def test_unknown_names_get_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser().format_help()
    for name in ("bogus", "-h", "Train"):
        assert cli.build_parser(name).format_help() == full


def representative_argvs():
    argvs = [["prepare", "--captions", "c", "--out", "o"],
             ["prepare", "--captions", "c", "--features", "f", "--out", "o", "--min-count", "2"],
             ["train"], ["train", "--config", "x"],
             ["eval", "ck", "--captions", "c"],
             ["eval", "ck", "--captions", "c", "--split", "valid", "--contexts", "x",
              "--conditions", "L-L,LV-L", "--language", "en", "--model-id", "m", "--out", "o"],
             ["neighbors", "ck", "dog"],
             ["neighbors", "ck", "dog", "cat", "ball", "--k", "3", "--out", "o"],
             ["sample", "ck"],
             ["sample", "ck", "--image-id", "i", "--contexts", "x", "--width", "3",
              "--max-len", "4", "--length-normalize", "--out", "o"],
             ["inspect", "ck"]]
    every = ["train"]
    for key, (kind, _) in cli._TRAIN_KEYS.items():
        flag = f"--{key.replace('_', '-')}"
        if kind is bool:
            argvs += [["train", flag], ["train", f"--no-{flag[2:]}"]]
            every.append(flag)
        else:
            value = {str: "x", int: "3", float: "0.5"}[kind]
            argvs.append(["train", flag, value])
            every += [flag, value]
    return argvs + [every]


@pytest.mark.parametrize("argv", representative_argvs(), ids=" ".join)
def test_command_parser_gives_the_full_parsers_namespace(argv):
    got = cli.build_parser(argv[0]).parse_args(argv)
    assert got == cli.build_parser().parse_args(argv)
    if argv[0] == "train" and len(argv) > 1:  # each given flag arrives typed
        flag = argv[1].removeprefix("--").removeprefix("no-").replace("-", "_")
        assert getattr(got, flag) is not None


@pytest.mark.parametrize("argv, err", [
    ([], "usage: mmlm [-h] {prepare,train,eval,neighbors,sample,inspect} ...\n"
         "mmlm: error: the following arguments are required: command\n"),
    (["bogus"], "usage: mmlm [-h] {prepare,train,eval,neighbors,sample,inspect} ...\n"
                "mmlm: error: argument command: invalid choice: 'bogus' (choose from "
                "'prepare', 'train', 'eval', 'neighbors', 'sample', 'inspect')\n"),
    (["sample"], "usage: mmlm sample [-h] [--image-id IMAGE_ID] [--contexts CONTEXTS]\n"
                 "                   [--width WIDTH] [--max-len MAX_LEN] [--length-normalize]\n"
                 "                   [--out OUT]\n"
                 "                   checkpoint\n"
                 "mmlm sample: error: the following arguments are required: checkpoint\n"),
    # an argument left over by a command is the top-level parser's error
    (["inspect", "a", "b"], "usage: mmlm [-h] {prepare,train,eval,neighbors,sample,inspect} ...\n"
                            "mmlm: error: unrecognized arguments: b\n"),
])
def test_usage_errors_read_as_before(argv, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{prepare,train,eval,neighbors,sample,inspect}" in out
    for command in COMMANDS:
        assert f"\n    {command} " in out


def test_main_builds_only_the_invoked_commands_parser(prep, monkeypatch):
    ckpt = fused_run(prep)
    built = []
    build = cli.build_parser

    def spy(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["inspect", str(ckpt)]) == 0
    assert built == ["inspect"]
