"""Perplexity evaluation under the three train/test conditions, decoder-row
nearest-neighbor analysis, and beam-search sampling.

Conditions: L-L is a text-only model on text; LV-LV is a fused model with
its stored context vectors; LV-L is the same fused model scored with the
null context, which equals the zero vector (evaluating without the visual
channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import BOS_ID, EOS_ID, SequenceBatch, Vocabulary
from .errors import ConfigError, DataError, UsageError
from .model import SequenceModel

CONDITIONS = ("L-L", "LV-LV", "LV-L")


def _condition_batch(batch: SequenceBatch, condition: str) -> SequenceBatch:
    if condition != "LV-LV":
        return replace(batch, contexts=None) if batch.contexts is not None else batch
    if batch.contexts is None:
        raise UsageError("LV-LV needs stored context vectors; use LV-L for the null condition")
    return batch


def dataset_nll(model: SequenceModel, batches):
    """(mean per-token NLL, PPL) over the batches as they are; no mutation,
    and nothing kept for a backward."""
    total = 0.0
    tokens = 0
    for batch in batches:
        loss, count, _ = model.sequence_nll(batch)
        total += loss.item()
        tokens += count
    if tokens == 0:
        return 0.0, 1.0
    nll = total / tokens
    # exp overflows float64 past ~709; a diverged model's PPL is honestly inf
    return nll, math.exp(nll) if nll < 709.0 else math.inf


def evaluate(model: SequenceModel, batches, condition: str):
    """(mean per-token NLL, PPL) on the batches under one condition.

    Pure: parameters are read, never written, and nothing is kept for a
    backward; repeated calls are bit-identical. L-L and LV-L strip any stored
    contexts, so a fused model sees the null context, which equals the zero
    vector; LV-LV requires stored contexts.
    """
    if condition not in CONDITIONS:
        raise UsageError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    if condition != "L-L" and model.config.fusion == "none":
        raise UsageError(f"{condition} needs a fused model; this one has fusion=none")
    return dataset_nll(model, (_condition_batch(b, condition) for b in batches))


@dataclass
class EvalRow:
    model_id: str
    condition: str
    language: str
    nll: float
    ppl: float


EVAL_CSV_HEADER = "model,condition,language,nll,ppl"


def render_eval_csv(rows) -> str:
    lines = [EVAL_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.model_id},{r.condition},{r.language},{r.nll:.3f},{r.ppl:.3f}")
    return "\n".join(lines) + "\n"


def render_eval_text(rows) -> str:
    """Aligned table with the same 3-decimal numbers as the CSV form."""
    header = ("Model", "Condition", "Language", "NLL", "PPL")
    body = [(r.model_id, r.condition, r.language, f"{r.nll:.3f}", f"{r.ppl:.3f}") for r in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(header)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines += [fmt(b) for b in body]
    return "\n".join(lines) + "\n"


@dataclass
class NeighborReport:
    query: str
    neighbors: list  # (word, cosine), cosine non-increasing


def nearest_neighbors(U: np.ndarray, query: str, vocab: Vocabulary,
                      k: int = 10) -> NeighborReport:
    """Top-k non-special words by cosine between rows of the decoder U.

    Ties break toward the lower vocabulary id; the query row itself is
    excluded; asking for more neighbors than exist returns them all.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    qid = vocab.token_to_id.get(query)
    if qid is None or Vocabulary.is_special(qid):
        raise DataError(f"query {query!r} is not a vocabulary word")
    rows = U.astype(np.float64)
    q = rows[qid]
    norms = np.sqrt((rows * rows).sum(axis=1))
    qn = max(float(np.sqrt(q @ q)), 1e-12)
    cos = rows @ q / (np.maximum(norms, 1e-12) * qn)
    order = sorted(
        (wid for wid in range(len(vocab)) if wid != qid and not Vocabulary.is_special(wid)),
        key=lambda wid: (-cos[wid], wid),
    )
    return NeighborReport(query, [(vocab.word(w), float(cos[w])) for w in order[:k]])


def render_neighbors_text(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(rep.query)
        for word, c in rep.neighbors:
            lines.append(f"  {word}  {c:.3f}")
        lines.append("")
    return "\n".join(lines)


def render_neighbors_csv(reports) -> str:
    lines = ["query,rank,word,cosine"]
    for rep in reports:
        for rank, (word, c) in enumerate(rep.neighbors, start=1):
            lines.append(f"{rep.query},{rank},{word},{c:.3f}")
    return "\n".join(lines) + "\n"


@dataclass
class Hypothesis:
    ids: tuple  # word ids only, no BOS/EOS
    logprob: float


def beam_search(model: SequenceModel, context=None, width: int = 13,
                max_len: int | None = None, length_normalize: bool = False) -> list:
    """Length-bounded beam search from BOS; hypotheses complete on EOS.

    max_len bounds generated tokens including the closing EOS. Candidate
    tokens are the non-special words plus EOS (PAD/UNK/BOS are never
    proposed). Scores are total log probabilities, unnormalized unless
    length_normalize is set (which divides by token count for ranking).
    Each step keeps the `width` best extensions, ranked by score; a NaN
    score ranks after every number, and equal scores (NaN included) break
    toward the lexicographically smaller ids. Only completed hypotheses
    are returned, best-first under the same rule with shorter ids first
    among equal scores; EOS is a live candidate from the very first step,
    so the pool is never empty.

    The live hypotheses' recurrent states are the rows of one stacked
    state, so each step is one model.advance over every kept hypothesis:
    parent rows are gathered by index and the context gain is repeated
    to the row count. A default sample makes 1 + (max_len - 1) calls.
    """
    if width < 1:
        raise ConfigError(f"beam width must be >= 1, got {width}")
    if max_len is None:
        max_len = model.config.unroll
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    ctx = None
    if context is not None:
        ctx = np.atleast_2d(np.asarray(context, dtype=model.dtype))
    state, gain = model.start_state(1, ctx)
    state, lp = model.advance(state, gain, BOS_ID)
    n_words = model.config.vocab - 4  # candidate words are ids 4..V-1
    # live hypothesis i: word ids live[i], score scores[i], state row i,
    # next-token log-probs lp[i]
    live, scores = [()], np.zeros(1)
    completed = []
    for step in range(1, max_len + 1):
        ends = scores + lp[:, EOS_ID]  # scores are float64, so are the sums
        completed += [Hypothesis(ids, float(s)) for ids, s in zip(live, ends)]
        if step == max_len or n_words == 0:
            break
        # candidate k = parent * n_words + (word - 4) scores the parent's
        # score + log P(word | parent)
        cand = (scores[:, None] + lp[:, 4:]).ravel()
        neg = -cand
        kth = min(width, neg.size) - 1
        cut = np.partition(neg, kth)[kth]
        # every candidate tied with the width-th best survives to the exact
        # sort; a NaN cut (fewer numbers than width) keeps everything
        keep = np.flatnonzero(~(neg > cut))
        parent, word = np.divmod(keep, n_words)
        id_rank = np.empty(len(live), dtype=np.int64)
        id_rank[sorted(range(len(live)), key=live.__getitem__)] = np.arange(len(live))
        # all live ids have one length, so (id rank of parent, word) orders
        # parent ids + (w,) lexicographically; lexsort puts NaN last
        best = np.lexsort((word, id_rank[parent], neg[keep]))[:width]
        parents, words = parent[best], word[best] + 4
        # one advance feeds every kept hypothesis its word, from its parent's row
        gains = None if gain is None else np.repeat(gain, parents.size, axis=0)
        state, lp = model.advance(state.take(parents), gains, words)
        live = [live[p] + (w,) for p, w in zip(parents.tolist(), words.tolist())]
        scores = cand[keep[best]]

    def rank_key(h: Hypothesis):
        score = h.logprob / max(len(h.ids) + 1, 1) if length_normalize else h.logprob
        nan = math.isnan(score)
        return (nan, 0.0 if nan else -score, len(h.ids), h.ids)

    return sorted(completed, key=rank_key)


def render_samples_text(hypotheses, vocab: Vocabulary, label: str) -> str:
    lines = [label]
    for h in hypotheses:
        words = " ".join(vocab.word(i) for i in h.ids)
        lines.append(f"  {h.logprob:9.3f}  {words}")
    return "\n".join(lines) + "\n"
