"""The three workloads and why each is there (see README.md).

Each round of a workload runs every user-facing operation, so every workload
reports every end-to-end metric; the counts per round set where the time
goes. A round lasts about 9 s on train-lstm-v8k and about 15 s on
infer-delta-v8k, so a 30 s run holds three and two of them: short enough
that the run's budget does not cut off a large share of one.
"""

from corpus import CorpusShape
from session import Workload

CAPTION = dict(mean_len=11.0, sd_len=2.5, min_len=5, max_len=20)

WORKLOADS = {w.name: w for w in (
    # Dense V x H gradient buffers, four input matrices plus the decoder:
    # gradient accumulation, embedding scatter and clip+SGD dominate.
    Workload("train-lstm-v8k", "lstm", 256,
             CorpusShape(8000, images=(12, 3, 19), fused=True, **CAPTION),
             trains=1, evals=1, images=1, null_samples=0, ckpt_pairs=5),
    # Small matrices and long recurrences: per-step tape overhead and small
    # backward matmuls dominate, gradient buffers hardly matter.
    Workload("train-gru-long", "gru", 64,
             CorpusShape(1000, 38.0, 5.0, 24, 52, images=(12, 4, 16), fused=False),
             trains=4, evals=2, images=0, null_samples=2, ckpt_pairs=10),
    # Inference: scoring without backward, batch-of-1 beam search over
    # width x V candidates, checkpoint I/O. Its `mmlm train` is one batch
    # long, so the command always ends before a NaN loss can abort it.
    Workload("infer-delta-v8k", "delta-rnn", 256,
             CorpusShape(8000, images=(6, 2, 10), fused=True, **CAPTION),
             trains=2, evals=8, images=1, null_samples=1, ckpt_pairs=16),
)}
