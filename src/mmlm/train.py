"""SGD training with truncated BPTT, gradient clipping to a global L2 norm,
and the validation-perplexity learning-rate halving schedule.

The schedule counts epochs whose validation PPL rose above the previous
epoch's value; at the configured count (default 3) the rate is halved and
the counter cleared. The default counter is cumulative (an improvement does
not clear it); the consecutive variant is available via TrainConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data import encode_batches
from .errors import ConfigError, DimensionError, TrainingAbort
from .evaluate import dataset_nll
from .tensor import clip_gradients, seed_stream

SCHEDULES = ("cumulative", "consecutive")


@dataclass
class TrainConfig:
    lr: float = 1.0
    clip: float = 2.0
    batch_size: int = 32
    max_epochs: int = 1
    patience: int = 3
    seed: int = 0
    schedule: str = "cumulative"

    def validate(self) -> None:
        if not self.lr > 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if not self.clip > 0:
            raise ConfigError(f"clip bound must be positive, got {self.clip}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


@dataclass
class TrainState:
    """Progress of one fit run; epoch counts completed epochs."""

    epoch: int = 0
    lr: float = 1.0
    best_valid_ppl: float = math.inf
    best_epoch: int = 0
    increase_count: int = 0
    prev_valid_ppl: float = math.inf
    curve: list = field(default_factory=list)  # (epoch, train_nll, valid_nll, valid_ppl, lr)


CURVE_HEADER = "epoch,train_nll,valid_nll,valid_ppl,lr"


def format_curve_row(row) -> str:
    """One curve row, (epoch, train_nll, valid_nll, valid_ppl, lr), as
    comma-separated text; floats in full precision."""
    epoch, *values = row
    return ",".join([str(int(epoch))] + [repr(float(x)) for x in values])


def format_curve(rows) -> str:
    return "\n".join([CURVE_HEADER] + [format_curve_row(row) for row in rows]) + "\n"


def update_schedule(state: TrainState, new_valid_ppl: float, patience: int = 3,
                    mode: str = "cumulative") -> TrainState:
    """Apply the end-of-epoch rate rule and remember the PPL for next time."""
    if mode not in SCHEDULES:
        raise ConfigError(f"schedule must be one of {SCHEDULES}, got {mode!r}")
    if new_valid_ppl > state.prev_valid_ppl:
        state.increase_count += 1
    elif mode == "consecutive":
        state.increase_count = 0
    if state.increase_count >= patience:
        state.lr = state.lr / 2.0  # exact in binary floating point
        state.increase_count = 0
    state.prev_valid_ppl = new_valid_ppl
    return state


def sgd_step(named_params: dict, grads: dict, lr: float, cols: dict | None = None) -> None:
    """theta <- theta - lr * grad, in place; grads are already clipped.

    A gradient named in cols is the block of those sorted columns of its
    parameter, and steps only them; a parameter without a gradient is left
    alone. Consumes grads: each is scaled by lr in place, so the step makes
    no parameter-sized temporary.
    """
    cols = cols or {}
    for name, g in grads.items():
        p = named_params[name]
        ids = cols.get(name)
        if g.shape != (p.shape if ids is None else (p.shape[0], ids.size)):
            raise DimensionError(f"gradient for {name} is {g.shape}, parameter is {p.shape}")
        g *= p.dtype.type(lr)
        if ids is None:
            p -= g
        else:
            p.T[ids] -= g.T


def train_epoch(model, batches, lr: float, clip: float, epoch: int = 0):
    """One pass over the batches; returns (summed NLL, counted tokens).

    The reported loss is the pre-update value per batch, clipping happens
    before every update, and a non-finite loss aborts with diagnostics.
    """
    named = model.named_parameters()
    total = 0.0
    tokens = 0
    for index, batch in enumerate(batches):
        loss, count, kept = model.sequence_nll(batch, keep=True)
        if count == 0:
            continue
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingAbort(
                f"non-finite loss {value} at epoch {epoch}, batch {index} (lr={lr})",
                batch_index=index, lr=lr,
            )
        grads, cols = model.gradients(kept)
        sgd_step(named, clip_gradients(grads, clip), lr, cols)
        total += value
        tokens += count
    return total, tokens


def fit(model, train_records, valid_records, vocab, config: TrainConfig,
        contexts=None, state: TrainState | None = None, on_epoch=None) -> TrainState:
    """Run up to config.max_epochs epochs. The state records the best
    validation perplexity and its epoch but no parameters; to keep the best
    model, copy it in on_epoch when state.best_epoch == state.epoch, as
    `mmlm train` does.

    Batch order reshuffles every epoch from a seed derived from
    (config.seed, epoch number), so a resumed run replays the identical
    stream without carrying RNG state. Passing the state of a finished
    epoch continues the numbering (resume).
    """
    config.validate()
    if state is None:
        state = TrainState(lr=config.lr)
    ctx_store = contexts if model.config.fusion != "none" else None
    unroll = model.config.unroll
    valid_batches = encode_batches(valid_records, vocab, unroll, config.batch_size,
                                   contexts=ctx_store)
    while state.epoch < config.max_epochs:
        epoch = state.epoch + 1
        rng = seed_stream(config.seed, f"shuffle/epoch{epoch}")
        batches = encode_batches(train_records, vocab, unroll, config.batch_size,
                                 contexts=ctx_store, rng=rng)
        lr_used = state.lr
        total, tokens = train_epoch(model, batches, lr_used, config.clip, epoch=epoch)
        train_nll = total / tokens if tokens else 0.0
        valid_nll, valid_ppl = dataset_nll(model, valid_batches)
        state.epoch = epoch
        if valid_ppl < state.best_valid_ppl:
            state.best_valid_ppl = valid_ppl
            state.best_epoch = epoch
        update_schedule(state, valid_ppl, patience=config.patience, mode=config.schedule)
        state.curve.append((epoch, train_nll, valid_nll, valid_ppl, lr_used))
        if on_epoch is not None:
            on_epoch(state)
    return state
