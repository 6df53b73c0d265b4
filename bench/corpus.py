"""Seeded synthetic caption corpora for the benchmark workloads.

A corpus is generated from one integer seed and written in the formats
`mmlm prepare` produces (captions.tsv, vocab.txt, contexts.mmcv). The files
are written here from the documented formats, not through the package, so
the program under test only ever sees finished inputs.

Make-up of every corpus:
  * word types: ranks 1..T with T = 1.25 x the listed vocabulary; the
    vocabulary file lists the V - 4 most frequent ranks (ids 0..3 are the
    specials), so the tail ranks are out-of-vocabulary and read as <unk>;
  * unigram law: Zipf with exponent ZIPF_EXPONENT over the T ranks;
  * topical words: each image owns TOPIC_WORDS ranks drawn from the same law,
    and a caption draws each token from its image's topic with probability
    TOPIC_SHARE, so captions of one image share words;
  * lengths: the n quantiles of round(Normal(mean, sd)) clipped to
    [min, max] words for a split of n captions, dealt out in seeded order, so
    every seed has the same length histogram and the batch padding, not the
    token count, is what varies;
  * images: CAPTIONS_PER_IMAGE captions each, all of one image in one split;
  * contexts: CONTEXT_DIM non-negative float32 values per image, drawn from
    Gamma(0.5, 1) and L2-normalised, like pooled ReLU CNN features.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

N_SPECIAL = 4  # <pad> <unk> <bos> <eos>
ZIPF_EXPONENT = 1.0
TYPE_SURPLUS = 1.25
TOPIC_WORDS = 24
TOPIC_SHARE = 0.3
CAPTIONS_PER_IMAGE = 5
CONTEXT_DIM = 2048
SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class CorpusShape:
    vocab: int  # vocabulary size including the 4 specials
    mean_len: float
    sd_len: float
    min_len: int
    max_len: int
    images: tuple  # images per split, in SPLITS order
    fused: bool  # write context vectors


@dataclass
class Caption:
    image_id: str
    split: str
    words: list


@dataclass
class Corpus:
    shape: CorpusShape
    captions: list
    contexts: dict  # image id -> float32 vector (fused corpora only)

    def split(self, name: str) -> list:
        return [c for c in self.captions if c.split == name]

    def ids(self, caption: Caption) -> list:
        """Vocabulary ids of a caption, <unk> (1) for the tail ranks."""
        listed = self.shape.vocab - N_SPECIAL
        return [N_SPECIAL - 1 + r if r <= listed else 1 for r in map(_rank, caption.words)]


def _word(rank: int) -> str:
    return f"w{rank}"


def _rank(word: str) -> int:
    return int(word[1:])


def generate(shape: CorpusShape, seed: int) -> Corpus:
    rng = np.random.default_rng([int(seed), shape.vocab, shape.max_len])
    types = int(round((shape.vocab - N_SPECIAL) * TYPE_SURPLUS))
    weights = np.arange(1, types + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())

    def draw(n):
        return np.minimum(np.searchsorted(cdf, rng.random(n)), types - 1) + 1

    captions, contexts = [], {}
    serial = 0
    law = NormalDist(shape.mean_len, shape.sd_len)
    for split, n_images in zip(SPLITS, shape.images):
        n = n_images * CAPTIONS_PER_IMAGE
        lengths = iter(rng.permutation(np.clip(
            [round(law.inv_cdf((i + 0.5) / n)) for i in range(n)],
            shape.min_len, shape.max_len)))
        for _ in range(n_images):
            image_id = f"img{serial:05d}"
            serial += 1
            topic = draw(TOPIC_WORDS)
            if shape.fused:
                v = rng.gamma(0.5, 1.0, CONTEXT_DIM)
                contexts[image_id] = (v / np.sqrt(v @ v)).astype(np.float32)
            for _ in range(CAPTIONS_PER_IMAGE):
                length = int(next(lengths))
                ranks = draw(length)
                from_topic = rng.random(length) < TOPIC_SHARE
                ranks[from_topic] = topic[rng.integers(0, TOPIC_WORDS, int(from_topic.sum()))]
                captions.append(Caption(image_id, split, [_word(int(r)) for r in ranks]))
    return Corpus(shape, captions, contexts)


def write(corpus: Corpus, out_dir: str) -> dict:
    """Write the corpus files; returns {'captions','vocab','contexts'} paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"captions": os.path.join(out_dir, "captions.tsv"),
             "vocab": os.path.join(out_dir, "vocab.txt"),
             "contexts": None}
    with open(paths["captions"], "w", encoding="utf-8") as fh:
        for c in corpus.captions:
            fh.write(f"{c.image_id}\ten\t{c.split}\t{' '.join(c.words)}\n")
    with open(paths["vocab"], "w", encoding="utf-8") as fh:
        fh.write("# mmlm vocabulary v1\n# min_count = 5\n")
        for rank in range(1, corpus.shape.vocab - N_SPECIAL + 1):
            fh.write(_word(rank) + "\n")
    if corpus.contexts:
        paths["contexts"] = os.path.join(out_dir, "contexts.mmcv")
        with open(paths["contexts"], "wb") as fh:
            fh.write(b"MMCV" + struct.pack("<HIQ", 1, CONTEXT_DIM, len(corpus.contexts)))
            for image_id, vec in corpus.contexts.items():
                raw = image_id.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)) + raw + vec.astype("<f4").tobytes())
    return paths


def target_count(captions, unroll: int) -> int:
    """Targets a model scores on these captions: sum of min(L + 1, unroll)."""
    return sum(min(len(c.words) + 1, unroll) for c in captions)
