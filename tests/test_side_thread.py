"""The second thread: the decoder softmax's two row parts, the decoder
backward's two products and the init streams run side by side, and change
no byte."""

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import mmlm.cells as C
import mmlm.cli as cli
import mmlm.data as D
import mmlm.tensor as T
from mmlm.evaluate import CONDITIONS, evaluate
from mmlm.model import ModelConfig, build_model
from mmlm.train import train_epoch
from oracles import beside_serial, build_model_serial

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def fused_setup(arch, fusion, captions_per_batch=10):
    """A fused config and 40 captions over 60 words, in batches."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(60)]
    recs = [D.CaptionRecord(f"img{i % 6}", "en", "train",
                            list(rng.choice(words, rng.integers(3, 9))))
            for i in range(40)]
    vocab = D.build_vocab(recs, min_count=1)
    store = D.ContextStore(12)
    for i in range(6):
        vec = rng.random(12)
        store.add(f"img{i}", vec / np.linalg.norm(vec))
    cfg = ModelConfig(arch=arch, hidden=16, vocab=len(vocab), context_dim=12,
                      fusion=fusion, unroll=8)
    return cfg, D.encode_batches(recs, vocab, 8, captions_per_batch, contexts=store)


def param_bytes(model) -> dict:
    return {name: p.tobytes() for name, p in model.named_parameters().items()}


@pytest.fixture
def fast_switching():
    """Hand the interpreter lock between threads as often as it allows, so
    the Python-level parts of the two threads interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("arch,fusion", [("lstm", "outer"), ("delta-rnn", "inner")])
def test_training_on_two_threads_equals_the_serial_reference(arch, fusion, monkeypatch,
                                                             fast_switching):
    cfg, batches = fused_setup(arch, fusion)
    assert len(batches) == 4
    model = build_model(cfg, seed=3)
    ref = build_model_serial(cfg, seed=3)
    assert param_bytes(model) == param_bytes(ref)
    train_epoch(model, batches, lr=1.0, clip=2.0)
    monkeypatch.setattr(T, "beside", beside_serial)
    train_epoch(ref, batches, lr=1.0, clip=2.0)
    got, want = param_bytes(model), param_bytes(ref)
    assert got == want
    assert got != param_bytes(build_model(cfg, seed=3))  # training moved them


def split_setup(monkeypatch):
    """fused_setup's LSTM in two batches of 20 captions, with no size floor
    on the decoder, so each batch's softmax splits by rows."""
    monkeypatch.setattr(T, "_SPLIT_MIN_SIZE", 0)
    cfg, batches = fused_setup("lstm", "outer", captions_per_batch=20)
    assert len(batches) == 2 and all(b.mask.sum() >= 2 * T._SPLIT_ALIGN for b in batches)
    return cfg, batches


def eval_nlls(model, batches) -> list:
    return [evaluate(model, batches, condition) for condition in CONDITIONS]


def test_split_softmax_on_two_threads_equals_the_serial_reference(monkeypatch, fast_switching):
    cfg, batches = split_setup(monkeypatch)
    model, ref = build_model(cfg, seed=3), build_model(cfg, seed=3)
    sides, beside = [], T.beside

    def recording(fn, *args, **kwargs):
        sides.append(fn.__name__)
        return beside(fn, *args, **kwargs)

    monkeypatch.setattr(T, "beside", recording)
    got = eval_nlls(model, batches)
    assert sides == ["_logit_rows"] * len(CONDITIONS) * len(batches)
    train_epoch(model, batches, lr=1.0, clip=2.0)
    assert sides.count("_softmax_in_place") == len(batches)
    monkeypatch.setattr(T, "beside", beside_serial)
    assert eval_nlls(ref, batches) == got
    train_epoch(ref, batches, lr=1.0, clip=2.0)
    assert param_bytes(model) == param_bytes(ref)


@pytest.mark.parametrize("gate", ["probe", "size floor"])
def test_a_whole_softmax_starts_no_thread_and_gives_the_same_bytes(gate, monkeypatch):
    cfg, batches = split_setup(monkeypatch)
    model = build_model(cfg, seed=3)
    split = eval_nlls(model, batches)
    if gate == "probe":
        monkeypatch.setattr(T, "_row_split_agrees", lambda dtype: False)
    else:
        monkeypatch.setattr(T, "_SPLIT_MIN_SIZE", model.params["decoder.U"].size + 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a second thread started")

    monkeypatch.setattr(T, "beside", no_thread)
    assert eval_nlls(model, batches) == split


def raise_in(thread_is_main: bool, when=lambda *a, **k: True, then=None):
    """A stand-in that raises MemoryError on the chosen thread where `when`
    holds, and otherwise calls `then`."""
    def stand_in(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == thread_is_main \
                and when(*args, **kwargs):
            raise MemoryError(f"on the {'main' if thread_is_main else 'side'} thread")
        return then(*args, **kwargs)
    return stand_in


def test_a_failed_side_product_surfaces_from_backward(monkeypatch):
    cfg, batches = fused_setup("lstm", "outer")
    model = build_model(cfg, seed=3)
    _, _, kept = model.sequence_nll(batches[0], keep=True)
    before = threading.active_count()
    monkeypatch.setattr(np, "matmul", raise_in(False, then=np.matmul))
    with pytest.raises(MemoryError, match="side thread"):
        model.gradients(kept)
    assert threading.active_count() == before


@pytest.mark.parametrize("on_main", [False, True])
def test_a_failed_draw_surfaces_from_build_model(on_main, monkeypatch):
    cfg, _ = fused_setup("lstm", "outer")
    before = threading.active_count()
    uniform = lambda init, *rest: init == "uniform"
    monkeypatch.setattr(C, "draw", raise_in(on_main, uniform, then=C.draw))
    with pytest.raises(MemoryError, match="main" if on_main else "side"):
        build_model(cfg, seed=3)
    assert threading.active_count() == before


def test_beside_joins_before_the_block_raises_and_the_block_wins():
    before = threading.active_count()
    done = threading.Event()

    def side():
        done.wait(0.05)
        done.set()
        raise RuntimeError("side")

    with pytest.raises(ValueError, match="main"):
        with T.beside(side):
            raise ValueError("main")
    assert done.is_set() and threading.active_count() == before


def write_prepared(tmp_path) -> pathlib.Path:
    """A prepared corpus for a fused LSTM: 2 training batches of 16
    captions over 300 words, with 32-dim image features."""
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(300)]
    lines = []
    for i in range(44):
        split = "train" if i < 32 else "valid" if i < 40 else "test"
        caption = " ".join(rng.choice(words, rng.integers(6, 12)))
        lines.append(f"img{i % 8}\tenglish\t{split}\t{caption}")
    raw, feats = tmp_path / "raw.tsv", tmp_path / "feats.tsv"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    feats.write_text("".join(f"img{i}\t{' '.join(repr(float(v)) for v in rng.random(32))}\n"
                             for i in range(8)), encoding="utf-8")
    out = tmp_path / "prep"
    assert cli.main(["prepare", "--captions", str(raw), "--features", str(feats),
                     "--out", str(out), "--min-count", "1"]) == 0
    return out


def train_in_subprocess(prep, out, blas_threads: int) -> tuple:
    """(model_last.mmlm, curve.csv) bytes of a 2-batch fused LSTM `mmlm
    train` run in a fresh interpreter with the given BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "mmlm.cli", "train",
                    "--captions", str(prep / "captions.tsv"), "--vocab", str(prep / "vocab.txt"),
                    "--contexts", str(prep / "contexts.mmcv"), "--out", str(out),
                    "--arch", "lstm", "--fusion", "outer", "--hidden", "64", "--unroll", "16",
                    "--batch-size", "16", "--max-epochs", "1", "--seed", "5"],
                   env=env, check=True, capture_output=True)
    return (out / "model_last.mmlm").read_bytes(), (out / "curve.csv").read_bytes()


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_train_is_byte_equal_from_run_to_run(blas_threads, tmp_path):
    prep = write_prepared(tmp_path)
    first = train_in_subprocess(prep, tmp_path / "a", blas_threads)
    again = train_in_subprocess(prep, tmp_path / "b", blas_threads)
    assert first == again
