"""Binary model checkpoints: config text + vocabulary + named tensors.

Layout: magic "MMLM", version u16, u32-length-prefixed UTF-8 config text,
vocabulary block (u32 count, then u16 length + UTF-8 per word, id order),
tensor block (u32 count, then u16 name length + name + u32 rows + u32 cols
+ row-major little-endian f32 data per tensor). Parameters are stored as
32-bit floats; saving a 64-bit model truncates.
"""

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import Vocabulary
from .errors import FormatError
from .model import ModelConfig, SequenceModel, model_from_arrays, parameter_shapes
from .train import TrainConfig, TrainState

CHECKPOINT_MAGIC = b"MMLM"
CHECKPOINT_VERSION = 1

_MODEL_FIELDS = ("arch", "hidden", "vocab", "context_dim", "fusion",
                 "fusion_bias", "unroll", "decoder_bias", "lstm_activation")
_TRAIN_FIELDS = ("lr", "clip", "batch_size", "unroll", "max_epochs",
                 "patience", "seed", "schedule")
_HASH_EXEMPT = ("max_epochs",)  # resuming with a longer budget is fine


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def compute_config_hash(model_config: ModelConfig, train_config: TrainConfig) -> str:
    """Hash of everything a resumed run must agree on (max_epochs exempt)."""
    lines = [f"model.{k}={_fmt(getattr(model_config, k))}" for k in _MODEL_FIELDS]
    lines += [f"train.{k}={_fmt(getattr(train_config, k))}"
              for k in _TRAIN_FIELDS if k not in _HASH_EXEMPT]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    version: int
    model_config: ModelConfig
    train_config: TrainConfig
    vocab: Vocabulary
    state: TrainState
    tensors: dict  # name -> float32 ndarray
    config_hash: str


def _render_config_text(model_config, train_config, vocab_min_count, state, chash):
    lines = [f"model.{k} = {_fmt(getattr(model_config, k))}" for k in _MODEL_FIELDS]
    lines += [f"train.{k} = {_fmt(getattr(train_config, k))}" for k in _TRAIN_FIELDS]
    lines.append(f"vocab_min_count = {vocab_min_count}")
    lines.append(f"config_hash = {chash}")
    lines.append(f"state.epoch = {state.epoch}")
    lines.append(f"state.lr = {repr(state.lr)}")
    lines.append(f"state.best_valid_ppl = {repr(state.best_valid_ppl)}")
    lines.append(f"state.best_epoch = {state.best_epoch}")
    lines.append(f"state.increase_count = {state.increase_count}")
    lines.append(f"state.prev_valid_ppl = {repr(state.prev_valid_ppl)}")
    for epoch, train_nll, valid_nll, valid_ppl, lr in state.curve:
        row = ",".join([str(epoch)] + [repr(float(v))
                                       for v in (train_nll, valid_nll, valid_ppl, lr)])
        lines.append(f"curve = {row}")
    return "\n".join(lines) + "\n"


def _parse_config_text(text: str, path: str):
    """Return ({key: value-string}, [curve rows]); duplicate keys are an error."""
    values, curve = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: config line {lineno} is not key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "curve":
            parts = val.split(",")
            if len(parts) != 5:
                raise FormatError(f"{path}: config line {lineno}: bad curve row")
            curve.append((int(parts[0]), float(parts[1]), float(parts[2]),
                          float(parts[3]), float(parts[4])))
        elif key in values:
            raise FormatError(f"{path}: duplicate config key {key!r}")
        else:
            values[key] = val
    return values, curve


def _parse_bool(val: str, key: str, path: str) -> bool:
    if val == "true":
        return True
    if val == "false":
        return False
    raise FormatError(f"{path}: {key} must be true or false, got {val!r}")


def save_checkpoint(path, model: SequenceModel, vocab: Vocabulary,
                    train_config: TrainConfig, state: TrainState) -> None:
    chash = compute_config_hash(model.config, train_config)
    text = _render_config_text(model.config, train_config, vocab.min_count,
                               state, chash).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION),
              struct.pack("<I", len(text)), text]
    words = vocab.words
    chunks.append(struct.pack("<I", len(words)))
    for word in words:
        raw = word.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
    named = model.named_parameters()
    chunks.append(struct.pack("<I", len(named)))
    # A new file, not the old one truncated: ext4 flushes a file rewritten
    # after truncation when it is closed, which made an overwrite about four
    # times slower than a fresh write and its time uneven. Where the name
    # cannot be removed, open() rewrites the old file or reports why not.
    with contextlib.suppress(OSError):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))
        for name, tensor in named.items():
            raw = name.encode("utf-8")
            rows, cols = tensor.shape
            fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<II", rows, cols))
            # the tensor's own buffer; a copy only for a 64-bit model
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4"))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint; each tensor is read straight into its own array."""
    with open(path, "rb") as fh:
        return _read_checkpoint(fh, str(path), os.fstat(fh.fileno()).st_size)


def _read_checkpoint(fh, spath: str, size: int) -> Checkpoint:
    offset = 0

    def take_bytes(n):
        nonlocal offset
        out = fh.read(n) if offset + n <= size else b""  # no allocation past the end
        if len(out) != n:
            raise FormatError(f"{spath}: truncated checkpoint")
        offset += n
        return out

    def take(fmt):
        return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

    if take_bytes(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"{spath}: not a checkpoint file (bad magic)")
    (version,) = take("<H")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{spath}: unsupported checkpoint version {version}")
    (text_len,) = take("<I")
    text = take_bytes(text_len).decode("utf-8")
    values, curve = _parse_config_text(text, spath)

    def need(key):
        if key not in values:
            raise FormatError(f"{spath}: checkpoint config missing {key!r}")
        return values[key]

    model_config = ModelConfig(
        arch=need("model.arch"),
        hidden=int(need("model.hidden")),
        vocab=int(need("model.vocab")),
        context_dim=int(need("model.context_dim")),
        fusion=need("model.fusion"),
        fusion_bias=_parse_bool(need("model.fusion_bias"), "model.fusion_bias", spath),
        unroll=int(need("model.unroll")),
        decoder_bias=_parse_bool(need("model.decoder_bias"), "model.decoder_bias", spath),
        lstm_activation=need("model.lstm_activation"),
    )
    train_config = TrainConfig(
        lr=float(need("train.lr")),
        clip=float(need("train.clip")),
        batch_size=int(need("train.batch_size")),
        unroll=int(need("train.unroll")),
        max_epochs=int(need("train.max_epochs")),
        patience=int(need("train.patience")),
        seed=int(need("train.seed")),
        schedule=need("train.schedule"),
    )
    state = TrainState(
        epoch=int(need("state.epoch")),
        lr=float(need("state.lr")),
        best_valid_ppl=float(need("state.best_valid_ppl")),
        best_epoch=int(need("state.best_epoch")),
        increase_count=int(need("state.increase_count")),
        prev_valid_ppl=float(need("state.prev_valid_ppl")),
        curve=curve,
    )

    (word_count,) = take("<I")
    words = []
    for _ in range(word_count):  # one call per field: this loop runs once per word
        words.append(take_bytes(int.from_bytes(take_bytes(2), "little")).decode("utf-8"))
    vocab = Vocabulary(words, min_count=int(need("vocab_min_count")))

    (tensor_count,) = take("<I")
    tensors = {}
    for _ in range(tensor_count):
        (nlen,) = take("<H")
        name = take_bytes(nlen).decode("utf-8")
        if name in tensors:
            raise FormatError(f"{spath}: duplicate tensor {name!r}")
        rows, cols = take("<II")
        if offset + rows * cols * 4 > size:
            raise FormatError(f"{spath}: truncated checkpoint")
        # the bytes land in the tensor's only allocation: owned, aligned, writable
        arr = np.empty((rows, cols), dtype="<f4")
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise FormatError(f"{spath}: truncated checkpoint")
        offset += arr.nbytes
        tensors[name] = arr
    rest = fh.read()
    if rest:
        raise FormatError(f"{spath}: {len(rest)} trailing bytes")
    return Checkpoint(version, model_config, train_config, vocab, state,
                      tensors, need("config_hash"))


def model_from_checkpoint(ckpt: Checkpoint) -> SequenceModel:
    """The model with saved parameters (always 32-bit).

    The model's parameters are the arrays in ckpt.tensors themselves, so
    training the model updates them too.
    """
    shapes = parameter_shapes(ckpt.model_config)
    missing = sorted(set(shapes) - set(ckpt.tensors))
    extra = sorted(set(ckpt.tensors) - set(shapes))
    if missing or extra:
        raise FormatError(
            f"checkpoint tensors do not match config: missing {missing}, extra {extra}")
    for name, shape in shapes.items():
        saved = ckpt.tensors[name]
        if saved.shape != shape:
            raise FormatError(f"checkpoint tensor {name!r} has shape "
                              f"{saved.shape}, expected {shape}")
    return model_from_arrays(ckpt.model_config, ckpt.tensors)


def render_manifest(ckpt: Checkpoint) -> str:
    lines = [f"checkpoint version {ckpt.version}",
             f"config hash {ckpt.config_hash}"]
    for key in _MODEL_FIELDS:
        lines.append(f"model.{key} = {_fmt(getattr(ckpt.model_config, key))}")
    for key in _TRAIN_FIELDS:
        lines.append(f"train.{key} = {_fmt(getattr(ckpt.train_config, key))}")
    lines.append(f"vocabulary: {len(ckpt.vocab.words)} words "
                 f"(min_count {ckpt.vocab.min_count}, {len(ckpt.vocab)} ids with specials)")
    lines.append("tensors:")
    for name, arr in ckpt.tensors.items():
        lines.append(f"  {name}  {arr.shape[0]} x {arr.shape[1]}")
    st = ckpt.state
    best = "none" if math.isinf(st.best_valid_ppl) else f"{st.best_valid_ppl:.3f}"
    lines.append(f"state: epoch {st.epoch}, lr {st.lr}, best valid ppl {best} "
                 f"(epoch {st.best_epoch}), curve rows {len(st.curve)}")
    return "\n".join(lines) + "\n"
