import errno
import json
import math
import os
import pathlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.checkpoint as C
import mmlm.data as D
from mmlm.errors import ConfigError, DataError, FormatError, MmlmError
from mmlm.model import ModelConfig, build_model, parameter_shapes
from mmlm.train import TrainConfig, TrainState


def small_setup(fusion="outer", decoder_bias=True):
    vocab = D.Vocabulary(["dog", "cat", "runs", "sleeps"], min_count=2)
    cfg = ModelConfig(arch="delta-rnn", hidden=5, vocab=len(vocab),
                      context_dim=3, fusion=fusion, unroll=6,
                      decoder_bias=decoder_bias)
    model = build_model(cfg, seed=11)
    tc = TrainConfig(lr=1.0, clip=2.0, batch_size=4, max_epochs=3, seed=11)
    state = TrainState(epoch=2, lr=0.5, best_valid_ppl=8.25, best_epoch=1,
                       increase_count=1, prev_valid_ppl=8.5,
                       curve=[(1, 2.0, 2.1, math.exp(2.1), 1.0),
                              (2, 1.9, 2.2, math.exp(2.2), 1.0)])
    return model, vocab, tc, state


DATA = pathlib.Path(__file__).resolve().parent / "data"


def vocab_block_at(blob):
    """(start, end) of a version-2 file's vocabulary block, header included."""
    (text_len,) = struct.unpack_from("<I", blob, 6)
    start = 10 + text_len
    return start, start + 8 + struct.unpack_from("<I", blob, start + 4)[0]


def as_version_1(blob):
    """A version-2 checkpoint's bytes in the version-1 layout, whose
    vocabulary block is a u32 count and then a u16 length + UTF-8 per word."""
    start, end = vocab_block_at(blob)
    (count,) = struct.unpack_from("<I", blob, start)
    words = blob[start + 8:end].split(b"\n") if count else []
    v1 = struct.pack("<I", count) + b"".join(struct.pack("<H", len(w)) + w for w in words)
    return blob[:4] + struct.pack("<H", 1) + blob[6:start] + v1 + blob[end:]


def fixed_batch(vocab_size, ctx_dim=3, seed=3):
    rng = np.random.default_rng(seed)
    seqs = [list(rng.integers(4, vocab_size, size=3)) for _ in range(2)]
    ctx = rng.uniform(-1, 1, (2, ctx_dim))
    return D.encode_sequences(seqs, 6, contexts=ctx)


def test_round_trip_is_bit_exact(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    assert ckpt.version == C.CHECKPOINT_VERSION
    assert ckpt.model_config == model.config
    assert ckpt.train_config == tc
    assert ckpt.vocab.id_to_token == vocab.id_to_token
    assert ckpt.vocab.min_count == 2
    for name, arr in model.named_parameters().items():
        npt.assert_array_equal(ckpt.tensors[name], arr)
    loaded = C.model_from_checkpoint(ckpt)
    batch = fixed_batch(len(vocab))
    a, na, _ = model.sequence_nll(batch)
    b, nb, _ = loaded.sequence_nll(batch)
    assert na == nb
    assert a.item() == b.item()  # bit-exact


def test_save_replaces_an_existing_file(tmp_path):
    model, vocab, tc, state = small_setup()
    other, _, _, _ = small_setup(fusion="none")
    path, fresh, link = tmp_path / "m.mmlm", tmp_path / "fresh.mmlm", tmp_path / "old.mmlm"
    C.save_checkpoint(path, other, vocab, tc, state)
    old = path.read_bytes()
    link.hardlink_to(path)
    C.save_checkpoint(path, model, vocab, tc, state)
    C.save_checkpoint(fresh, model, vocab, tc, state)
    assert path.read_bytes() == fresh.read_bytes()
    # a new file takes the name; the old one is not rewritten in place
    assert link.read_bytes() == old


def test_state_round_trip_including_inf(tmp_path):
    model, vocab, tc, _ = small_setup()
    state = TrainState()  # fresh: inf sentinels, empty curve
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    st = C.load_checkpoint(path).state
    assert st.epoch == 0 and st.curve == []
    assert math.isinf(st.best_valid_ppl) and math.isinf(st.prev_valid_ppl)


def test_curve_floats_survive_exactly(tmp_path):
    model, vocab, tc, state = small_setup()
    state.curve.append((3, 1.0 / 3.0, 2.0 / 7.0, math.exp(2.0 / 7.0), 0.125))
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    got = C.load_checkpoint(path).state.curve
    assert got == state.curve  # repr round-trip, no precision loss


def test_checkpoint_with_a_train_unroll_line_still_loads(tmp_path):
    # checkpoints written while TrainConfig had an unroll field carry a
    # train.unroll line; the key is ignored
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    raw = path.read_bytes()
    (text_len,) = struct.unpack_from("<I", raw, 6)
    text = raw[10:10 + text_len].replace(b"train.clip", b"train.unroll = 6\ntrain.clip")
    old = tmp_path / "old.mmlm"
    old.write_bytes(raw[:6] + struct.pack("<I", len(text)) + text + raw[10 + text_len:])
    ckpt, want = C.load_checkpoint(old), C.load_checkpoint(path)
    assert ckpt.train_config == tc and ckpt.model_config == model.config
    assert ckpt.state == want.state and ckpt.config_hash == want.config_hash
    for name, arr in want.tensors.items():
        assert ckpt.tensors[name].tobytes() == arr.tobytes()


def test_config_hash_ignores_max_epochs_only():
    _, _, tc, _ = small_setup()
    mc = ModelConfig(arch="gru", hidden=4, vocab=8, context_dim=2, unroll=6)
    base = C.compute_config_hash(mc, tc)
    import dataclasses
    assert C.compute_config_hash(mc, dataclasses.replace(tc, max_epochs=99)) == base
    assert C.compute_config_hash(mc, dataclasses.replace(tc, lr=0.5)) != base
    assert C.compute_config_hash(mc, dataclasses.replace(tc, seed=12)) != base
    assert C.compute_config_hash(dataclasses.replace(mc, hidden=5), tc) != base


def test_saved_hash_matches_recomputation(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    assert ckpt.config_hash == C.compute_config_hash(ckpt.model_config, ckpt.train_config)


def test_bias_free_decoder_round_trips(tmp_path):
    model, vocab, tc, state = small_setup(fusion="none", decoder_bias=False)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    assert "decoder.b_U" not in ckpt.tensors
    assert "fusion.M" not in ckpt.tensors
    loaded = C.model_from_checkpoint(ckpt)
    assert "decoder.b_U" not in loaded.named_parameters()


def test_lstm_checkpoint_round_trips(tmp_path):
    vocab = D.Vocabulary(["a", "b"])
    cfg = ModelConfig(arch="lstm", hidden=4, vocab=len(vocab), context_dim=2,
                      fusion="outer", unroll=5)
    model = build_model(cfg, seed=2)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, TrainConfig(), TrainState())
    loaded = C.model_from_checkpoint(C.load_checkpoint(path))
    batch = fixed_batch(len(vocab), ctx_dim=2)
    assert model.sequence_nll(batch)[0].item() == loaded.sequence_nll(batch)[0].item()


@pytest.mark.parametrize("arch,fusion,fusion_bias", [
    ("delta-rnn", "inner", True), ("gru", "none", True), ("lstm", "outer", False),
])
def test_loaded_parameters_are_owned_aligned_float32(tmp_path, arch, fusion, fusion_bias):
    # numpy hands unaligned operands of @ to its own loops instead of BLAS
    vocab = D.Vocabulary(["a", "b", "c"])
    cfg = ModelConfig(arch=arch, hidden=5, vocab=len(vocab), context_dim=3,
                      fusion=fusion, fusion_bias=fusion_bias, unroll=6)
    model = build_model(cfg, seed=4)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, TrainConfig(), TrainState())
    loaded = C.model_from_checkpoint(C.load_checkpoint(path))
    want = model.named_parameters()
    got = loaded.named_parameters()
    assert list(got) == list(want)
    for name, p in got.items():
        flags = p.flags
        assert flags.owndata and flags.aligned and flags.c_contiguous and flags.writeable, name
        assert p.dtype == np.float32, name
        assert p.tobytes() == want[name].tobytes(), name
    batch = fixed_batch(len(vocab))
    if fusion == "none":
        batch.contexts = None
    assert model.sequence_nll(batch)[0].item() == loaded.sequence_nll(batch)[0].item()


def test_save_writes_the_documented_layout(tmp_path):
    model, vocab, tc, state = small_setup(fusion="none", decoder_bias=False)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    blob = path.read_bytes()
    assert blob[:6] == b"MMLM" + struct.pack("<H", C.CHECKPOINT_VERSION)
    block = "\n".join(vocab.words).encode("utf-8")
    start, end = vocab_block_at(blob)
    assert blob[start:end] == struct.pack("<II", len(vocab.words), len(block)) + block
    tail = b""
    named = model.named_parameters()
    for name, p in named.items():
        rows, cols = p.shape
        tail += struct.pack("<H", len(name)) + name.encode() + struct.pack("<II", rows, cols)
        tail += p.astype("<f4").tobytes()
    assert blob[end:] == struct.pack("<I", len(named)) + tail


def test_truncated_and_corrupt_files(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    blob = path.read_bytes()

    bad = tmp_path / "bad.mmlm"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        C.load_checkpoint(bad)

    bad.write_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:])
    with pytest.raises(FormatError, match="version"):
        C.load_checkpoint(bad)

    bad.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        C.load_checkpoint(bad)

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        C.load_checkpoint(bad)


@pytest.mark.parametrize("read_ahead", [1, 7, None])
def test_vocabulary_reads_across_read_ahead_chunks(tmp_path, monkeypatch, read_ahead):
    if read_ahead is not None:
        monkeypatch.setattr(C, "_READ_AHEAD", read_ahead)
    # 3,000 words of 2 to 86 UTF-8 bytes make a version-1 block of about
    # 140 KB, so fields cross the read-ahead chunks' ends at every size
    vocab = D.Vocabulary([f"w{i}" + "é" * (i % 41) for i in range(3000)])
    model = build_model(ModelConfig(hidden=2, vocab=len(vocab), unroll=4), seed=0)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, TrainConfig(), TrainState())
    v2 = path.read_bytes()
    blob = as_version_1(v2)
    for raw in (v2, blob):
        path.write_bytes(raw)
        ckpt = C.load_checkpoint(path)
        assert ckpt.vocab.id_to_token == vocab.id_to_token
        for name, arr in model.named_parameters().items():
            npt.assert_array_equal(ckpt.tensors[name], arr)
    # a version-1 file cut inside the block, or just past it, is truncated
    start = blob.index(struct.pack("<H", 2) + b"w0")
    end = start + sum(2 + len(w.encode()) for w in vocab.words)
    bad = tmp_path / "bad.mmlm"
    for cut in [*range(start, start + 40), end - 1, end, end + 3]:
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="truncated"):
            C.load_checkpoint(bad)


def test_tensor_mismatch_is_refused(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    del ckpt.tensors["decoder.U"]
    with pytest.raises(FormatError, match="missing"):
        C.model_from_checkpoint(ckpt)
    ckpt = C.load_checkpoint(path)
    ckpt.tensors["decoder.U"] = ckpt.tensors["decoder.U"][:, :-1]
    with pytest.raises(FormatError, match="shape"):
        C.model_from_checkpoint(ckpt)
    ckpt = C.load_checkpoint(path)
    ckpt.tensors["decoder.W"] = np.zeros((1, 1), np.float32)
    with pytest.raises(FormatError, match=r"extra \['decoder.W'\]"):
        C.model_from_checkpoint(ckpt)


def test_manifest_lists_every_tensor(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    ckpt = C.load_checkpoint(path)
    text = C.render_manifest(ckpt)
    assert text.startswith(f"checkpoint version {C.CHECKPOINT_VERSION}\n")
    for name, tensor in model.named_parameters().items():
        rows, cols = tensor.shape
        assert f"{name}  {rows} x {cols}" in text
    assert "4 words" in text
    assert "epoch 2" in text and "8.250" in text


def mutation_outcomes(blob, tmp_path):
    """{"loaded": k, "refused": m} over 2,000 seeded one-byte mutations of blob:
    every one loads or raises a package error, never a traceback."""
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.mmlm"
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(2000):
        mutated = bytearray(blob)
        at = int(rng.integers(len(blob)))
        mutated[at] = (mutated[at] + int(rng.integers(1, 256))) % 256
        bad.write_bytes(bytes(mutated))
        try:
            C.model_from_checkpoint(C.load_checkpoint(bad))
            outcomes["loaded"] += 1
        except MmlmError:
            outcomes["refused"] += 1
    return outcomes


def test_every_mutated_byte_loads_or_raises_a_package_error(tmp_path):
    # one byte of a small fused-LSTM checkpoint changed at a time, over the
    # whole file: bad UTF-8 or a number that does not parse is a FormatError,
    # never a traceback
    vocab = D.Vocabulary(["dog", "cat", "runs", "sleeps"], min_count=2)
    cfg = ModelConfig(arch="lstm", hidden=3, vocab=len(vocab), context_dim=2,
                      fusion="outer", unroll=6)
    state = TrainState(epoch=1, lr=0.5, best_valid_ppl=8.25, best_epoch=1,
                       curve=[(1, 2.0, 2.1, math.exp(2.1), 1.0)])
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, build_model(cfg, seed=1), vocab, TrainConfig(), state)
    outcomes = mutation_outcomes(path.read_bytes(), tmp_path)
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes


def test_every_mutated_byte_of_the_version_1_file_loads_or_raises_a_package_error(tmp_path):
    outcomes = mutation_outcomes((DATA / "v1_lstm.mmlm").read_bytes(), tmp_path)
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes


def test_version_1_file_loads_with_its_recorded_values():
    # tests/data/v1_lstm.mmlm was written by save_checkpoint before format
    # version 2; v1_lstm.json records what went into it
    want = json.loads((DATA / "v1_lstm.json").read_text(encoding="utf-8"))
    ckpt = C.load_checkpoint(DATA / "v1_lstm.mmlm")
    assert ckpt.version == want["version"] == 1
    assert ckpt.model_config == ModelConfig(**want["model_config"])
    assert ckpt.train_config == TrainConfig(**want["train_config"])
    state = dict(want["state"], curve=[tuple(row) for row in want["state"]["curve"]])
    assert ckpt.state == TrainState(**state)
    assert ckpt.vocab.words == want["words"]
    assert ckpt.vocab.min_count == want["vocab_min_count"]
    assert ckpt.config_hash == want["config_hash"]
    assert ckpt.config_hash == C.compute_config_hash(ckpt.model_config, ckpt.train_config)
    assert list(ckpt.tensors) == list(want["tensors"])
    for name, rec in want["tensors"].items():
        expect = np.array(rec["values"], dtype=np.float32).reshape(rec["shape"])
        assert ckpt.tensors[name].tobytes() == expect.tobytes(), name
    model = C.model_from_checkpoint(ckpt)
    assert list(model.named_parameters()) == list(want["tensors"])


def test_a_version_1_file_saves_again_as_version_2_with_the_same_contents(tmp_path):
    ckpt = C.load_checkpoint(DATA / "v1_lstm.mmlm")
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, C.model_from_checkpoint(ckpt), ckpt.vocab, ckpt.train_config,
                      ckpt.state)
    assert as_version_1(path.read_bytes()) == (DATA / "v1_lstm.mmlm").read_bytes()
    again = C.load_checkpoint(path)
    assert again.version == C.CHECKPOINT_VERSION == 2
    assert again.vocab.id_to_token == ckpt.vocab.id_to_token
    assert again.state == ckpt.state and again.config_hash == ckpt.config_hash


@pytest.mark.parametrize("words", [[], [""], ["a", ""], ["", "b"], ["x y", "\r", "é"]])
def test_version_2_vocabulary_edge_cases_round_trip(tmp_path, words):
    vocab = D.Vocabulary(words)
    model = build_model(ModelConfig(hidden=2, vocab=len(vocab), unroll=4), seed=0)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, TrainConfig(), TrainState())
    assert C.load_checkpoint(path).vocab.id_to_token == vocab.id_to_token


def test_version_2_vocabulary_faults_are_format_errors(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    blob = path.read_bytes()
    start, end = vocab_block_at(blob)
    count, length = struct.unpack_from("<II", blob, start)
    block = blob[start + 8:end]
    assert block == b"dog\ncat\nruns\nsleeps" and count == 4

    def with_block(count, length, block):
        bad = tmp_path / "bad.mmlm"
        bad.write_bytes(blob[:start] + struct.pack("<II", count, length) + block + blob[end:])
        return bad

    for wrong in (0, 3, 5, 1 << 31):
        with pytest.raises(FormatError, match="vocabulary block holds 4 words"):
            C.load_checkpoint(with_block(wrong, length, block))
    # a length that ends the block early or late takes bytes from its
    # neighbours: the word count, the UTF-8 or the tensor block no longer reads
    for wrong in (0, length - 1, length + 1, length + 4, 1 << 31):
        with pytest.raises(FormatError):
            C.load_checkpoint(with_block(count, wrong, block))
    for bad_block, match in [(b"dog\ncat\nru\xffs\nsleeps", "corrupt"),
                             (b"dog\ncat\nrunss\nrunss", "duplicate"),
                             (b"dog\ncat\n<eos>\nsleep", "duplicate")]:
        assert len(bad_block) == length
        with pytest.raises(FormatError, match=match):
            C.load_checkpoint(with_block(count, length, bad_block))


def test_a_word_with_a_newline_is_refused_on_save(tmp_path):
    model, _, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    vocab = D.Vocabulary(["dog", "cat", "ru\nns", "sleeps"])
    with pytest.raises(DataError, match="newline"):
        C.save_checkpoint(path, model, vocab, tc, state)
    assert sorted(os.listdir(tmp_path)) == []


class _Interrupted(BaseException):
    pass


@pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, "No space left on device"),
                                   _Interrupted()])
def test_a_save_that_fails_midway_leaves_the_old_file_under_its_name(tmp_path, monkeypatch,
                                                                     fault):
    model, vocab, tc, state = small_setup()
    other, _, _, _ = small_setup(fusion="none")
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, other, vocab, tc, state)
    old = path.read_bytes()
    written = []

    def fail_on_the_third_tensor(arr, dtype=None):
        written.append(arr)
        if len(written) == 3:
            raise fault
        return np.asarray(arr, dtype=dtype, order="C")

    monkeypatch.setattr(C.np, "ascontiguousarray", fail_on_the_third_tensor)
    with pytest.raises(type(fault)):
        C.save_checkpoint(path, model, vocab, tc, state)
    assert len(written) == 3
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["m.mmlm"]  # the partial file is gone


@pytest.mark.parametrize("killed_between_renames", [False, True])
def test_a_save_never_leaves_the_old_bytes_incomplete(tmp_path, monkeypatch,
                                                      killed_between_renames):
    # before each rename and unlink of a save, the previous checkpoint is
    # complete under its name or under <name>.old, and no rename lands on an
    # existing name; also when an earlier save was killed between its renames
    model, vocab, tc, state = small_setup()
    other, _, _, _ = small_setup(fusion="none")
    path, fresh = tmp_path / "m.mmlm", tmp_path / "fresh.mmlm"
    C.save_checkpoint(path, other, vocab, tc, state)
    C.save_checkpoint(fresh, model, vocab, tc, state)
    old, new = path.read_bytes(), fresh.read_bytes()
    aside = tmp_path / "m.mmlm.old"
    if killed_between_renames:
        path.rename(aside)
    steps = []

    def check(what):
        at_name = path.read_bytes() if path.exists() else None
        at_aside = aside.read_bytes() if aside.exists() else None
        assert at_name == new or old in (at_name, at_aside), what
        steps.append(what)

    rename, unlink = os.rename, os.unlink

    def checked_rename(src, dst):
        check(f"rename {src} -> {dst}")
        assert not os.path.lexists(dst), dst
        rename(src, dst)

    def checked_unlink(p):
        check(f"unlink {p}")
        unlink(p)

    monkeypatch.setattr(C.os, "rename", checked_rename)
    monkeypatch.setattr(C.os, "unlink", checked_unlink)
    C.save_checkpoint(path, model, vocab, tc, state)
    monkeypatch.undo()
    assert [s for s in steps if s.startswith("rename")] == [
        f"rename {path} -> {aside}"] * (not killed_between_renames) + [
        f"rename {path}.tmp -> {path}"]
    assert path.read_bytes() == new
    assert sorted(os.listdir(tmp_path)) == ["fresh.mmlm", "m.mmlm"]


def test_a_killed_save_s_leftovers_are_cleared_and_never_written_through(tmp_path):
    model, vocab, tc, state = small_setup()
    other, _, _, _ = small_setup(fusion="none")
    path, fresh, keep = tmp_path / "m.mmlm", tmp_path / "fresh.mmlm", tmp_path / "keep.mmlm"
    C.save_checkpoint(fresh, model, vocab, tc, state)
    C.save_checkpoint(keep, other, vocab, tc, state)
    kept = keep.read_bytes()
    # a temp left as a link to another checkpoint, and the name missing with
    # the previous file aside: killed between the two renames
    (tmp_path / "m.mmlm.tmp").hardlink_to(keep)
    (tmp_path / "m.mmlm.old").write_bytes(b"previous")
    C.save_checkpoint(path, model, vocab, tc, state)
    assert path.read_bytes() == fresh.read_bytes()
    assert keep.read_bytes() == kept
    assert sorted(os.listdir(tmp_path)) == ["fresh.mmlm", "keep.mmlm", "m.mmlm"]
    # a stale <name>.old beside a complete file is cleared too
    (tmp_path / "m.mmlm.old").write_bytes(b"stale")
    C.save_checkpoint(path, other, vocab, tc, state)
    assert path.read_bytes() == kept
    assert sorted(os.listdir(tmp_path)) == ["fresh.mmlm", "keep.mmlm", "m.mmlm"]


def test_a_temp_that_cannot_be_made_fails_the_save_and_keeps_the_old_file(tmp_path):
    model, vocab, tc, state = small_setup()
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, tc, state)
    old = path.read_bytes()
    (tmp_path / "m.mmlm.tmp").mkdir()
    other, _, _, _ = small_setup(fusion="none")
    with pytest.raises(OSError):
        C.save_checkpoint(path, other, vocab, tc, state)
    assert path.read_bytes() == old


def test_unknown_lstm_activation_in_a_checkpoint_is_refused(tmp_path):
    vocab = D.Vocabulary(["a", "b"])
    cfg = ModelConfig(arch="lstm", hidden=4, vocab=len(vocab), unroll=5)
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, build_model(cfg, seed=2), vocab, TrainConfig(), TrainState())
    blob = path.read_bytes()
    key = b"model.lstm_activation = tanh\n"
    assert key in blob
    path.write_bytes(blob.replace(key, b"model.lstm_activation = tanx\n"))
    ckpt = C.load_checkpoint(path)
    with pytest.raises(ConfigError, match="tanx"):
        C.model_from_checkpoint(ckpt)


WIRINGS = [("delta-rnn", "none"), ("delta-rnn", "inner"), ("delta-rnn", "outer"),
           ("gru", "none"), ("gru", "outer"), ("lstm", "none"), ("lstm", "outer")]


@pytest.mark.parametrize("arch,fusion", WIRINGS)
@pytest.mark.parametrize("fusion_bias,decoder_bias", [(True, True), (False, False),
                                                      (True, False), (False, True)])
def test_parameter_table_model_and_checkpoint_agree(tmp_path, arch, fusion, fusion_bias,
                                                    decoder_bias):
    vocab = D.Vocabulary(["a", "b", "c"])
    cfg = ModelConfig(arch=arch, hidden=5, vocab=len(vocab), context_dim=3, fusion=fusion,
                      fusion_bias=fusion_bias, decoder_bias=decoder_bias, unroll=6)
    model = build_model(cfg, seed=6)
    table = parameter_shapes(cfg)
    named = model.named_parameters()
    assert [(k, t.shape) for k, t in named.items()] == list(table.items())
    path = tmp_path / "m.mmlm"
    C.save_checkpoint(path, model, vocab, TrainConfig(), TrainState())
    ckpt = C.load_checkpoint(path)
    assert [(k, a.shape) for k, a in ckpt.tensors.items()] == list(table.items())
    loaded = C.model_from_checkpoint(ckpt).named_parameters()
    assert list(loaded) == list(table)
    for name, t in named.items():
        assert loaded[name].tobytes() == t.tobytes(), name
