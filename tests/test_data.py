import struct

import numpy as np
import numpy.testing as npt
import pytest

import mmlm.data as D
import mmlm.tensor as T
from mmlm.cli import read_config_file
from mmlm.errors import ConfigError, DataError, DimensionError, FormatError, MmlmError


def save_contexts_text(path, store: D.ContextStore) -> None:
    """The text form of a context store: one `id TAB values` line per image."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in store.ids():
            vec = store.get(image_id)
            fh.write(image_id + "\t" + " ".join(repr(float(x)) for x in vec) + "\n")


def test_specials_fixed():
    assert (D.PAD_ID, D.UNK_ID, D.BOS_ID, D.EOS_ID) == (0, 1, 2, 3)
    v = D.build_vocab([["a", "a", "b"]], min_count=1)
    assert [v.word(i) for i in [0, 1, 2, 3]] == ["<pad>", "<unk>", "<bos>", "<eos>"]


def test_build_vocab_threshold_and_order():
    v1 = D.build_vocab([["a", "a", "b"]], min_count=1)
    assert v1.words == ["a", "b"]  # a has frequency 2, b has 1
    v2 = D.build_vocab([["a", "a", "b"]], min_count=2)
    assert v2.words == ["a"]
    assert v2.lookup("b") == D.UNK_ID
    # lexicographic tie-break at equal frequency
    v3 = D.build_vocab([["z", "m", "c"]], min_count=1)
    assert v3.words == ["c", "m", "z"]


def test_build_vocab_deterministic_and_errors():
    corpus = [["the", "cat"], ["the", "dog"], ["a", "cat"]]
    a = D.build_vocab(corpus, min_count=1)
    b = D.build_vocab(corpus, min_count=1)
    assert a.id_to_token == b.id_to_token
    assert a.words == ["cat", "the", "a", "dog"]
    with pytest.raises(DataError):
        D.build_vocab([], min_count=1)
    with pytest.raises(ConfigError):
        D.build_vocab(corpus, min_count=0)


def test_vocab_lookup_roundtrip_and_bounds():
    v = D.build_vocab([["x", "y", "x"]], min_count=1)
    assert v.encode(["x", "y", "zzz"]) == [4, 5, D.UNK_ID]
    assert v.word(4) == "x"
    with pytest.raises(DataError):
        v.word(len(v))


def test_vocab_file_roundtrip(tmp_path):
    v = D.build_vocab([["b", "b", "a", "c"]], min_count=2)
    p = tmp_path / "vocab.txt"
    D.save_vocab(p, v)
    back = D.load_vocab(p)
    assert back.id_to_token == v.id_to_token
    assert back.min_count == 2


def test_vocab_file_keeps_words_that_start_with_a_hash(tmp_path):
    v = D.build_vocab([["a", "#tag", "b", "#tag", "a", "#", "##x"]], min_count=1)
    assert v.words == ["#tag", "a", "#", "##x", "b"]
    p = tmp_path / "vocab.txt"
    D.save_vocab(p, v)
    back = D.load_vocab(p)
    assert back.id_to_token == v.id_to_token
    assert back.min_count == 1
    # only the header lines of the documented form are headers
    p.write_text("# min_count = 2\n#\n# mmlm vocabulary v1\n")
    assert D.load_vocab(p).words == ["#", "# mmlm vocabulary v1"]
    assert D.load_vocab(p).min_count == 2
    p.write_text("# mmlm vocabulary v1\n# min_count = two\n")
    with pytest.raises(FormatError):
        D.load_vocab(p)


def test_frame_and_single_word_example():
    framed = D.frame_ids([7], 49)
    assert framed == [D.BOS_ID, 7, D.EOS_ID]
    batch = D.encode_sequences([[7]], 49)
    npt.assert_array_equal(batch.tokens[:, 0], [2, 7, 3])
    npt.assert_array_equal(batch.mask[:, 0], [0.0, 1.0, 1.0])
    assert batch.target_count() == 2


def test_truncation_drops_eos():
    ids = list(range(10, 10 + 8))
    framed = D.frame_ids(ids, 5)
    assert framed == [D.BOS_ID, 10, 11, 12, 13, 14]  # 6 tokens, no EOS
    batch = D.encode_sequences([ids], 5)
    assert batch.tokens.shape[0] == 6
    assert batch.target_count() == 5  # = unroll


def test_padding_and_identical_rows():
    batch = D.encode_sequences([[5, 6], [5, 6]], 49)
    npt.assert_array_equal(batch.tokens[:, 0], batch.tokens[:, 1])
    b2 = D.encode_sequences([[5], [6, 7, 8]], 49)
    # short sequence is PAD-filled below its EOS
    npt.assert_array_equal(b2.tokens[:, 0], [2, 5, 3, 0, 0])
    npt.assert_array_equal(b2.mask[:, 0], [0, 1, 1, 0, 0])


def test_mask_count_matches_naive_reference():
    rng = np.random.default_rng(123)
    unroll = 12
    for _ in range(1000):
        length = int(rng.integers(0, 30))
        ids = list(rng.integers(4, 50, size=length))
        batch = D.encode_sequences([ids], unroll)
        # naive reference: walk the framed sequence and count non-BOS tokens kept
        framed = ([D.BOS_ID] + ids + [D.EOS_ID])[: unroll + 1]
        want = len(framed) - 1
        assert want == min(length + 1, unroll)
        assert batch.target_count() == want
        npt.assert_array_equal(batch.tokens[: len(framed), 0], framed)


def test_encode_decode_roundtrip():
    v = D.build_vocab([["red", "green", "blue"]], min_count=1)
    ids = v.encode(["blue", "red"])
    batch = D.encode_sequences([ids], 49)
    framed = [int(x) for x in batch.tokens[:4, 0]]
    assert [v.word(i) for i in framed] == ["<bos>", "blue", "red", "<eos>"]


def test_encode_sequences_validates():
    with pytest.raises(DataError):
        D.encode_sequences([], 10)
    with pytest.raises(ConfigError):
        D.frame_ids([1], 0)
    with pytest.raises(DimensionError):
        D.encode_sequences([[4], [5]], 10, contexts=np.zeros((3, 2)))


def test_captions_roundtrip_and_errors(tmp_path):
    recs = [
        D.CaptionRecord("img1", "en", "train", ["a", "dog"]),
        D.CaptionRecord("img2", "de", "valid", ["ein", "hund"]),
    ]
    p = tmp_path / "caps.tsv"
    D.write_captions(p, recs)
    back = D.read_captions(p)
    assert back == recs

    bad = tmp_path / "bad.tsv"
    bad.write_text("img1\ten\ttrain\n")  # only 3 fields
    with pytest.raises(FormatError) as ei:
        D.read_captions(bad)
    assert ":1:" in str(ei.value)

    bad.write_text("img1\ten\ttrain\tok tokens\nimg2\ten\tnosplit\tx\n")
    with pytest.raises(FormatError) as ei:
        D.read_captions(bad)
    assert ":2:" in str(ei.value)

    bad.write_text("img1\ten\ttrain\t   \n")
    with pytest.raises(FormatError):
        D.read_captions(bad)


def test_context_store_basics():
    s = D.ContextStore(3)
    s.add("a", [1, 2, 3])
    npt.assert_array_equal(s.get("a"), np.array([1, 2, 3], dtype=np.float32))
    assert "a" in s and "b" not in s
    with pytest.raises(DataError):
        s.get("b")
    with pytest.raises(DataError):
        s.add("a", [4, 5, 6])
    with pytest.raises(DimensionError):
        s.add("c", [1, 2])


def test_context_text_parsing_and_dim_enforcement(tmp_path):
    p = tmp_path / "ctx.txt"
    p.write_text("a\t1.0 2.0 3.0 4.0\nb\t5 6 7 8\n")
    s = D.load_contexts_text(p)
    assert s.dim == 4 and len(s) == 2
    p.write_text("a\t1.0 2.0 3.0 4.0\nb\t5 6 7\n")
    with pytest.raises(FormatError) as ei:
        D.load_contexts_text(p)
    assert ":2:" in str(ei.value)
    p.write_text("a\t1.0 2.0\na\t3.0 4.0\n")
    with pytest.raises(FormatError):
        D.load_contexts_text(p)
    p.write_text("a\t1.0 oops\n")
    with pytest.raises(FormatError):
        D.load_contexts_text(p)


def test_context_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    s = D.ContextStore(6)
    for i in range(10):
        s.add(f"img{i:03d}", rng.standard_normal(6).astype(np.float32))
    binp = tmp_path / "ctx.mmcv"
    D.save_contexts_binary(binp, s)
    back = D.load_contexts_binary(binp)
    assert back.dim == 6 and back.ids() == s.ids()
    for i in s.ids():
        npt.assert_array_equal(back.get(i), s.get(i))
    # text and binary forms decode to identical float32 stores
    txtp = tmp_path / "ctx.txt"
    save_contexts_text(txtp, s)
    from_text = D.load_contexts_text(txtp)
    for i in s.ids():
        npt.assert_array_equal(from_text.get(i), s.get(i))
    # sniffing dispatches on the magic
    assert D.load_contexts(binp).ids() == s.ids()
    assert D.load_contexts(txtp).ids() == s.ids()


def test_context_binary_corruption(tmp_path):
    p = tmp_path / "ctx.mmcv"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        D.load_contexts_binary(p)
    s = D.ContextStore(2)
    s.add("x", [1.0, 2.0])
    D.save_contexts_binary(p, s)
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])  # cut into the vector payload
    with pytest.raises(FormatError) as ei:
        D.load_contexts_binary(p)
    assert "truncated" in str(ei.value)
    p.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        D.load_contexts_binary(p)


def _toy_store():
    s = D.ContextStore(3)
    for i, image_id in enumerate(("img1", "bild-ä", "img3")):
        s.add(image_id, np.linspace(-i, i + 0.5, 3))
    return s


def _write_each_format(tmp_path) -> dict:
    """format -> (a small valid file of it, its loader)."""
    words = ["dog", "café", "runs", "#tag", "naïve", "sleeps"]
    paths = {name: tmp_path / f"toy.{name}" for name in
             ("vocab", "captions", "contexts-text", "contexts-binary", "pretrained")}
    D.save_vocab(paths["vocab"], D.Vocabulary(words, min_count=2))
    D.write_captions(paths["captions"], [
        D.CaptionRecord("img1", "english", "train", ["the", "dog", "runs"]),
        D.CaptionRecord("bild-ä", "deutsch", "valid", ["ein", "café"]),
        D.CaptionRecord("img3", "english", "test", ["a", "naïve", "cat", "sleeps"])])
    save_contexts_text(paths["contexts-text"], _toy_store())
    D.save_contexts_binary(paths["contexts-binary"], _toy_store())
    paths["pretrained"].write_text("2\n[UNK] 0.0 0.0\ncaf 1.0 0.5\n##é -1.0 2.0\n",
                                   encoding="utf-8")
    loaders = {"vocab": D.load_vocab, "captions": D.read_captions,
               "contexts-text": D.load_contexts, "contexts-binary": D.load_contexts,
               "pretrained": D.PretrainedEmbeddings.load}
    return {name: (path, loaders[name]) for name, path in paths.items()}


@pytest.mark.parametrize("fmt", ["vocab", "captions", "contexts-text", "contexts-binary",
                                 "pretrained"])
def test_every_mutated_byte_of_a_data_file_loads_or_raises_a_package_error(tmp_path, fmt):
    # one byte changed at a time, 2,000 times: bad UTF-8, a field that does
    # not parse or a length past the end of the file is a package error
    # (exit 2), never a traceback or a request for gigabytes
    path, load = _write_each_format(tmp_path)[fmt]
    blob = path.read_bytes()
    load(path)
    rng = np.random.default_rng(1)
    bad = tmp_path / f"bad.{fmt}"
    outcomes = {"loaded": 0, "refused": 0, "decode": 0}
    for _ in range(2000):
        mutated = bytearray(blob)
        at = int(rng.integers(len(blob)))
        mutated[at] = (mutated[at] + int(rng.integers(1, 256))) % 256
        bad.write_bytes(bytes(mutated))
        try:
            load(bad)
            outcomes["loaded"] += 1
        except MmlmError as exc:
            outcomes["refused"] += 1
            outcomes["decode"] += "UTF-8" in str(exc)
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes
    assert outcomes["decode"] > 0, outcomes


@pytest.mark.parametrize("fmt", ["vocab", "captions", "contexts-text", "pretrained", "config"])
def test_bytes_that_are_not_utf8_are_a_format_error_naming_the_line(tmp_path, fmt):
    if fmt == "config":
        path, load = tmp_path / "run.cfg", read_config_file
        path.write_text("# toy run\nseed = 3\nhidden = 4\n", encoding="utf-8")
    else:
        path, load = _write_each_format(tmp_path)[fmt]
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]  # 0xff never occurs in UTF-8
    path.write_bytes(b"\r\n".join(lines))  # CRLF ends a line as LF does
    with pytest.raises(FormatError, match=f"{path}:3: not UTF-8"):
        load(path)


def test_a_binary_context_length_past_the_end_is_refused_before_reading(tmp_path):
    path = tmp_path / "ctx.mmcv"
    D.save_contexts_binary(path, _toy_store())
    blob = path.read_bytes()
    # the header is magic, u16 version, u32 dim, u64 count
    huge_dim = blob[:6] + struct.pack("<I", 2**31) + blob[10:]
    path.write_bytes(huge_dim)
    with pytest.raises(FormatError, match="truncated while reading record 1 vector"):
        D.load_contexts_binary(path)
    path.write_bytes(blob[:6] + struct.pack("<I", 0) + blob[10:])
    with pytest.raises(FormatError, match="dimension must be positive"):
        D.load_contexts_binary(path)
    path.write_bytes(blob[:18] + struct.pack("<H", 60000) + blob[20:])
    with pytest.raises(FormatError, match="truncated while reading record 1 id"):
        D.load_contexts_binary(path)


def test_encode_batches_contexts_and_shuffle():
    recs = [D.CaptionRecord(f"i{k}", "en", "train", ["w", f"t{k}"]) for k in range(7)]
    vocab = D.build_vocab(recs, min_count=1)
    store = D.ContextStore(2)
    for k in range(7):
        store.add(f"i{k}", [k, -k])
    batches = D.encode_batches(recs, vocab, 10, 3, contexts=store)
    assert [b.batch_size for b in batches] == [3, 3, 1]
    assert batches[0].image_ids == ["i0", "i1", "i2"]
    npt.assert_array_equal(batches[0].contexts, [[0, 0], [1, -1], [2, -2]])
    # same shuffle seed -> same order; different seed -> different order
    a = D.encode_batches(recs, vocab, 10, 3, rng=T.seed_stream(1, "shuffle"))
    b = D.encode_batches(recs, vocab, 10, 3, rng=T.seed_stream(1, "shuffle"))
    c = D.encode_batches(recs, vocab, 10, 3, rng=T.seed_stream(2, "shuffle"))
    assert [x.image_ids for x in a] == [x.image_ids for x in b]
    assert [x.image_ids for x in a] != [x.image_ids for x in c]

    store2 = D.ContextStore(2)
    store2.add("i0", [0, 0])
    with pytest.raises(DataError) as ei:
        D.encode_batches(recs, vocab, 10, 3, contexts=store2)
    assert "i1" in str(ei.value)
    with pytest.raises(ConfigError):
        D.encode_batches(recs, vocab, 10, 0)
    with pytest.raises(DataError):
        D.encode_batches([], vocab, 10, 3)


def _toy_pretrained(tmp_path):
    lines = [
        "2",
        "[UNK] 0.0 0.0",
        "sun 1.0 0.0",
        "flower 0.0 1.0",
        "##flower 0.0 2.0",
        "##s 4.0 4.0",
        "a 8.0 8.0",
    ]
    p = tmp_path / "subwords.txt"
    p.write_text("\n".join(lines) + "\n")
    return D.PretrainedEmbeddings.load(p)


def test_pretrained_load_and_segment(tmp_path):
    pre = _toy_pretrained(tmp_path)
    assert pre.dim == 2
    assert pre.segment("sun") == ["sun"]
    assert pre.segment("sunflower") == ["sun", "##flower"]
    assert pre.segment("sunflowers") == ["sun", "##flower", "##s"]
    assert pre.segment("flower") == ["flower"]  # whole word beats pieces
    assert pre.segment("moon") is None
    with pytest.raises(DataError):
        pre.segment("")


def test_pretrained_compose_mean_rule(tmp_path):
    pre = _toy_pretrained(tmp_path)
    vec, ok = pre.compose("sun")
    npt.assert_array_equal(vec, [1.0, 0.0])
    assert ok
    vec, ok = pre.compose("sunflower")  # mean of (1,0) and (0,2)
    npt.assert_array_equal(vec, [0.5, 1.0])
    vec, ok = pre.compose("moon")
    npt.assert_array_equal(vec, [0.0, 0.0])
    assert not ok


def test_pretrained_format_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("notanumber\n")
    with pytest.raises(FormatError):
        D.PretrainedEmbeddings.load(p)
    p.write_text("2\nfoo 1.0\n")
    with pytest.raises(FormatError) as ei:
        D.PretrainedEmbeddings.load(p)
    assert ":2:" in str(ei.value)
    p.write_text("2\nfoo 1.0 2.0\nfoo 3.0 4.0\n")
    with pytest.raises(FormatError):
        D.PretrainedEmbeddings.load(p)


def test_init_embeddings_exact_case(tmp_path):
    pre = _toy_pretrained(tmp_path)
    vocab = D.Vocabulary(["sun", "sunflower", "moon"])
    w = np.full((2, len(vocab)), 9.0)
    coverage = D.init_embeddings_from_pretrained(w, vocab, pre)
    npt.assert_array_equal(w[:, 4], [1.0, 0.0])
    npt.assert_array_equal(w[:, 5], [0.5, 1.0])
    npt.assert_array_equal(w[:, 6], [0.0, 0.0])  # [UNK] fallback
    npt.assert_array_equal(w[:, :4], np.full((2, 4), 9.0))  # specials untouched
    assert coverage == pytest.approx(2 / 3)


def test_init_embeddings_projection(tmp_path):
    pre = _toy_pretrained(tmp_path)
    vocab = D.Vocabulary(["sun", "a"])
    w1 = np.zeros((5, len(vocab)))
    with pytest.raises(ConfigError):
        D.init_embeddings_from_pretrained(w1, vocab, pre)  # 2 != 5, no projection
    D.init_embeddings_from_pretrained(w1, vocab, pre, project=True, seed=3)
    w2 = np.zeros((5, len(vocab)))
    D.init_embeddings_from_pretrained(w2, vocab, pre, project=True, seed=3)
    npt.assert_array_equal(w1, w2)
    w3 = np.zeros((5, len(vocab)))
    D.init_embeddings_from_pretrained(w3, vocab, pre, project=True, seed=4)
    assert not np.array_equal(w1, w3)
    # the projection of a known vector is linear in that vector
    rng = T.seed_stream(3, "pretrained-projection")
    proj = rng.standard_normal((5, 2)) / np.sqrt(2)
    npt.assert_allclose(w1[:, 4], proj @ np.array([1.0, 0.0]), rtol=1e-12)

    wbad = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        D.init_embeddings_from_pretrained(wbad, vocab, pre)
