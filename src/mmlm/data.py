"""Corpus ingestion, vocabulary construction, batch encoding, context-vector
stores, and pretrained-subword embedding composition.

External formats:
  captions   one record per line: image_id TAB language TAB split TAB tokens
  contexts   text:  image_id TAB v1 SPACE v2 ...
             binary: magic "MMCV", version u16, dim u32, count u64, then per
             record id-length u16 + UTF-8 id + dim little-endian float32
  pretrained first line E, then: subword SPACE v1 ... vE, continuations "##"
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError
from .tensor import seed_stream

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")
SPLITS = ("train", "valid", "test")

CONTEXT_MAGIC = b"MMCV"
CONTEXT_VERSION = 1
UNK_SUBWORD = "[UNK]"


def read_text(path) -> str:
    """A UTF-8 text file's contents with its newlines translated, as
    open(path, encoding="utf-8").read() gives them; bytes that are not UTF-8
    are a FormatError naming the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _universal_newlines(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        line = _universal_newlines(raw[:e.start].decode("utf-8")).count("\n") + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text ({e.reason})") from None


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Vocabulary:
    """Token/id bijection with reserved specials at ids 0..3."""

    def __init__(self, words, min_count: int = 1):
        self.id_to_token = list(SPECIAL_TOKENS) + list(words)
        self.token_to_id = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in self.token_to_id:
                raise DataError(f"duplicate vocabulary token {tok!r}")
            self.token_to_id[tok] = i
        self.min_count = int(min_count)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def word(self, wid: int) -> str:
        if not 0 <= wid < len(self.id_to_token):
            raise DataError(f"token id {wid} outside vocabulary of size {len(self)}")
        return self.id_to_token[wid]

    def encode(self, tokens) -> list:
        return [self.lookup(t) for t in tokens]

    @property
    def words(self) -> list:
        """Non-special tokens in id order."""
        return self.id_to_token[len(SPECIAL_TOKENS):]

    @staticmethod
    def is_special(wid: int) -> bool:
        return 0 <= wid < len(SPECIAL_TOKENS)


def build_vocab(records, min_count: int = 5) -> Vocabulary:
    """Count tokens across records (or raw token lists) and keep those seen
    at least min_count times, ids by descending frequency then lexicographic."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter = Counter()
    for rec in records:
        tokens = rec.tokens if isinstance(rec, CaptionRecord) else rec
        counts.update(tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)  # corpus text can never claim a reserved id
    if not counts:
        raise DataError("empty corpus: no tokens to build a vocabulary from")
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary(kept, min_count=min_count)


VOCAB_HEADER = "# mmlm vocabulary v1"
MIN_COUNT_HEADER = "# min_count ="


def save_vocab(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_HEADER}\n{MIN_COUNT_HEADER} {vocab.min_count}\n")
        for tok in vocab.words:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    """Words in id order, one per non-empty line. Before the first word,
    the header lines `# mmlm vocabulary v1` and `# min_count = N` are read
    as such; every other line is a word, also one that starts with #."""
    min_count = 1
    words = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not words and line == VOCAB_HEADER:
            continue
        if not words and line.startswith(MIN_COUNT_HEADER):
            try:
                min_count = int(line[len(MIN_COUNT_HEADER):])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad min_count header") from None
            continue
        if line:
            words.append(line)
    return Vocabulary(words, min_count=min_count)


@dataclass
class CaptionRecord:
    image_id: str
    language: str
    split: str
    tokens: list


def read_captions(path) -> list:
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        image_id, language, split, text = parts
        if not image_id:
            raise FormatError(f"{path}:{lineno}: empty image id")
        if split not in SPLITS:
            raise FormatError(f"{path}:{lineno}: split must be one of {SPLITS}, got {split!r}")
        tokens = text.split()
        if not tokens:
            raise FormatError(f"{path}:{lineno}: caption has no tokens")
        records.append(CaptionRecord(image_id, language, split, tokens))
    return records


def write_captions(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(f"{r.image_id}\t{r.language}\t{r.split}\t{' '.join(r.tokens)}\n")


class ContextStore:
    """Image id -> context vector, all of one declared dimension."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError(f"context dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._vectors: dict = {}

    def add(self, image_id: str, vec) -> None:
        v = np.asarray(vec, dtype=np.float32).reshape(-1)
        if v.size != self.dim:
            raise DimensionError(f"vector for {image_id!r} has dim {v.size}, store wants {self.dim}")
        if image_id in self._vectors:
            raise DataError(f"duplicate context id {image_id!r}")
        self._vectors[image_id] = v

    def get(self, image_id: str) -> np.ndarray:
        try:
            return self._vectors[image_id]
        except KeyError:
            raise DataError(f"no context vector for image id {image_id!r}") from None

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def ids(self) -> list:
        return list(self._vectors)


def load_contexts_text(path) -> ContextStore:
    store = None
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected `id TAB values`")
        image_id, values = parts
        try:
            vec = np.array([float(x) for x in values.split()], dtype=np.float32)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unparseable float") from None
        if vec.size == 0:
            raise FormatError(f"{path}:{lineno}: no values")
        if store is None:
            store = ContextStore(vec.size)
        try:
            store.add(image_id, vec)
        except (DimensionError, DataError) as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
    if store is None:
        raise FormatError(f"{path}: no context records")
    return store


def save_contexts_binary(path, store: ContextStore) -> None:
    with open(path, "wb") as fh:
        fh.write(CONTEXT_MAGIC)
        fh.write(struct.pack("<HIQ", CONTEXT_VERSION, store.dim, len(store)))
        for image_id in store.ids():
            raw = image_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(store.get(image_id).astype("<f4").tobytes())


def read_exact(fh, n: int, size: int, path, what: str) -> bytes:
    """The next n bytes of a file of `size` bytes. The bytes left are
    checked first, so a corrupt length cannot ask for gigabytes."""
    if n > size - fh.tell() or len(out := fh.read(n)) != n:  # or it shrank
        raise FormatError(f"{path}: truncated while reading {what}")
    return out


def load_contexts_binary(path) -> ContextStore:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = read_exact(fh, 4, size, path, "magic")
        if magic != CONTEXT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CONTEXT_MAGIC!r}")
        version, dim, count = struct.unpack("<HIQ", read_exact(fh, 14, size, path, "header"))
        if version != CONTEXT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim < 1:
            raise FormatError(f"{path}: context dimension must be positive, got {dim}")
        store = ContextStore(dim)
        for i in range(count):
            what = f"record {i + 1}"
            (id_len,) = struct.unpack("<H", read_exact(fh, 2, size, path, f"{what} id length"))
            try:
                image_id = read_exact(fh, id_len, size, path, f"{what} id").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: {what}: id is not UTF-8") from None
            vec = np.frombuffer(read_exact(fh, 4 * dim, size, path, f"{what} vector"),
                                dtype="<f4")
            try:
                store.add(image_id, vec)
            except DataError as e:
                raise FormatError(f"{path}: {what}: {e}") from None
        if fh.tell() != size:
            raise FormatError(f"{path}: trailing bytes after {count} records")
    return store


def load_contexts(path) -> ContextStore:
    """Sniff binary vs text form by the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == CONTEXT_MAGIC:
        return load_contexts_binary(path)
    return load_contexts_text(path)


@dataclass
class SequenceBatch:
    """Zero-padded, masked batch of framed sentences.

    tokens has steps+1 rows and one column per sequence: row 0 is always BOS
    and never a target; the model consumes rows 0..R-2 and is scored on rows
    1..R-1 where mask is 1. A sentence of length L contributes
    min(L + 1, unroll) targets (its words plus EOS, unless truncation
    dropped the EOS).
    """

    tokens: np.ndarray  # (steps+1) x B, int64
    mask: np.ndarray  # same shape, float32, row 0 all zero
    contexts: np.ndarray | None  # B x D float32, or None for text-only
    image_ids: list

    @property
    def batch_size(self) -> int:
        return self.tokens.shape[1]

    def target_count(self) -> int:
        return int(self.mask.sum())


def frame_ids(ids, unroll_len: int) -> list:
    """BOS + ids + EOS, truncated to unroll_len + 1 tokens (EOS dropped
    when the sentence is too long)."""
    if unroll_len < 1:
        raise ConfigError(f"unroll length must be >= 1, got {unroll_len}")
    framed = [BOS_ID] + list(ids) + [EOS_ID]
    return framed[: unroll_len + 1]


def encode_sequences(id_lists, unroll_len: int, contexts=None, image_ids=None) -> SequenceBatch:
    """Pack already-encoded sentences into one padded, masked batch."""
    if not id_lists:
        raise DataError("cannot encode an empty batch")
    framed = [frame_ids(ids, unroll_len) for ids in id_lists]
    rows = max(len(f) for f in framed)
    batch = len(framed)
    tokens = np.full((rows, batch), PAD_ID, dtype=np.int64)
    mask = np.zeros((rows, batch), dtype=np.float32)
    for j, f in enumerate(framed):
        tokens[: len(f), j] = f
        mask[1: len(f), j] = 1.0
    ctx = None
    if contexts is not None:
        ctx = np.asarray(contexts, dtype=np.float32)
        if ctx.ndim != 2 or ctx.shape[0] != batch:
            raise DimensionError(f"contexts shape {ctx.shape} does not fit batch of {batch}")
    return SequenceBatch(tokens=tokens, mask=mask, contexts=ctx,
                         image_ids=list(image_ids) if image_ids else [""] * batch)


def encode_batches(records, vocab: Vocabulary, unroll_len: int, batch_size: int,
                   contexts: ContextStore | None = None, rng=None) -> list:
    """Deterministic batch stream over caption records.

    With an rng, record order is shuffled once up front; batches then chunk
    that order. With contexts, every record's image id must resolve.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    records = list(records)
    if not records:
        raise DataError("no records to encode")
    order = np.arange(len(records))
    if rng is not None:
        order = rng.permutation(len(records))
    batches = []
    for start in range(0, len(records), batch_size):
        chunk = [records[i] for i in order[start: start + batch_size]]
        ids_lists = [vocab.encode(r.tokens) for r in chunk]
        ctx = None
        if contexts is not None:
            ctx = np.stack([contexts.get(r.image_id) for r in chunk])
        batches.append(encode_sequences(
            ids_lists, unroll_len, contexts=ctx, image_ids=[r.image_id for r in chunk]
        ))
    return batches


class PretrainedEmbeddings:
    """Subword token -> vector table with greedy longest-match segmentation.

    Continuation pieces carry the "##" prefix; words no piece sequence can
    cover fall back to the [UNK] vector.
    """

    def __init__(self, vectors: dict, dim: int):
        self.vectors = vectors
        self.dim = int(dim)

    @classmethod
    def load(cls, path) -> "PretrainedEmbeddings":
        vectors: dict = {}
        first, *lines = read_text(path).split("\n")
        try:
            dim = int(first.strip())
        except ValueError:
            raise FormatError(f"{path}:1: first line must be the vector dimension") from None
        if dim < 1:
            raise FormatError(f"{path}:1: dimension must be positive, got {dim}")
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise FormatError(f"{path}:{lineno}: expected token + {dim} floats, got {len(parts) - 1}")
            token = parts[0]
            if token in vectors:
                raise FormatError(f"{path}:{lineno}: duplicate subword {token!r}")
            try:
                vectors[token] = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: unparseable float") from None
        if not vectors:
            raise FormatError(f"{path}: no subword vectors")
        return cls(vectors, dim)

    def segment(self, word: str) -> list | None:
        """Greedy longest-match pieces, or None if the word is not coverable."""
        if not word:
            raise DataError("cannot segment an empty word")
        pieces = []
        start = 0
        while start < len(word):
            end = len(word)
            match = None
            while end > start:
                piece = word[start:end] if start == 0 else "##" + word[start:end]
                if piece in self.vectors:
                    match = piece
                    break
                end -= 1
            if match is None:
                return None
            pieces.append(match)
            start = end
        return pieces

    def compose(self, word: str):
        """(mean-of-pieces vector, covered flag); uncoverable words use [UNK]."""
        pieces = self.segment(word)
        if pieces is None:
            if UNK_SUBWORD not in self.vectors:
                raise DataError(
                    f"cannot segment {word!r} and the table has no {UNK_SUBWORD} fallback"
                )
            return self.vectors[UNK_SUBWORD].copy(), False
        return np.mean([self.vectors[p] for p in pieces], axis=0), True


def init_embeddings_from_pretrained(w: np.ndarray, vocab: Vocabulary,
                                    pre: PretrainedEmbeddings,
                                    project: bool = False, seed: int = 0) -> float:
    """Overwrite the non-special columns of the input matrix w, in place,
    with composed subword vectors; specials keep their random init.

    When the table dimension E differs from the hidden width, a fixed seeded
    Gaussian projection (scaled by 1/sqrt(E)) maps E to H; without the
    project flag that mismatch is a ConfigError. Returns the fraction of
    words covered without the [UNK] fallback.
    """
    hidden, words = w.shape
    if words != len(vocab):
        raise DimensionError(f"matrix has {words} columns, vocabulary has {len(vocab)}")
    proj = None
    if pre.dim != hidden:
        if not project:
            raise ConfigError(
                f"pretrained dim {pre.dim} != hidden {hidden}; enable the projection to bridge"
            )
        rng = seed_stream(seed, "pretrained-projection")
        proj = rng.standard_normal((hidden, pre.dim)) / np.sqrt(pre.dim)
    covered = 0
    total = 0
    for wid in range(len(SPECIAL_TOKENS), len(vocab)):
        vec, ok = pre.compose(vocab.word(wid))
        if proj is not None:
            vec = proj @ vec
        w[:, wid] = vec.astype(w.dtype)
        covered += int(ok)
        total += 1
    return covered / total if total else 1.0
