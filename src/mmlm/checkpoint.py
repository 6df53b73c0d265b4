"""Binary model checkpoints: config text + vocabulary + named tensors.

Layout: magic "MMLM", version u16, u32-length-prefixed UTF-8 config text,
vocabulary block (u32 count, u32 byte length, then the words in id order
joined by "\n" in UTF-8), tensor block (u32 count, then u16 name length +
name + u32 rows + u32 cols + row-major little-endian f32 data per tensor).
Parameters are stored as 32-bit floats; saving a 64-bit model truncates.
Version 1 files, whose vocabulary block is a u32 count and then a u16
length + UTF-8 per word, still load.
"""

import contextlib
import functools
import hashlib
import math
import os
import struct
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .data import Vocabulary
from .errors import DataError, DimensionError, FormatError
from .model import ModelConfig, SequenceModel
from .train import TrainConfig, TrainState, format_curve_row

CHECKPOINT_MAGIC = b"MMLM"
CHECKPOINT_VERSION = 2
_READ_AHEAD = 1 << 16  # bytes of a version-1 vocabulary block read per call


def parse_value(kind: type, text: str):
    """A config value of type kind from its text; bools are true or false.
    Raises ValueError."""
    if kind is not bool:
        return kind(text)
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def read_key_values(text: str, where, error, keys=None, repeated=()) -> dict:
    """{key: value text} from `key = value` lines; blank lines and full-line
    # comments are skipped. A key in `repeated` maps to the list of its
    values in order; any other key given twice, a line without "=", or a
    key outside `keys` (when given) raises `error`."""
    values = {key: [] for key in repeated}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise error(f"{where}:{lineno}: expected key = value")
        if keys is not None and key not in keys:
            raise error(f"{where}:{lineno}: unknown config key {key!r}")
        if key in repeated:
            values[key].append(val)
        elif key in values:
            raise error(f"{where}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = val
    return values


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@functools.cache
def _saved_fields(cls) -> tuple:
    """The fields of a config or state class that a checkpoint stores, in
    order: those with a scalar default, whose type parses the saved text."""
    return tuple(f for f in fields(cls) if f.default is not MISSING)


def _field_lines(prefix: str, obj, sep: str = " = ") -> list:
    return [f"{prefix}.{f.name}{sep}{_fmt(getattr(obj, f.name))}"
            for f in _saved_fields(type(obj))]


def _from_fields(cls, prefix: str, values: dict, path: str, **given):
    kwargs = {}
    for f in _saved_fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in values:
            raise FormatError(f"{path}: checkpoint config missing {key!r}")
        try:
            kwargs[f.name] = parse_value(type(f.default), values[key])
        except ValueError:
            raise FormatError(f"{path}: bad value for {key}: {values[key]!r}") from None
    return cls(**kwargs, **given)


def compute_config_hash(model_config: ModelConfig, train_config: TrainConfig) -> str:
    """Hash of everything a resumed run must agree on (max_epochs exempt:
    resuming with a longer budget is fine)."""
    lines = _field_lines("model", model_config, "=") + [
        line for line in _field_lines("train", train_config, "=")
        if not line.startswith("train.max_epochs=")]
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
    lines = _field_lines("model", model_config) + _field_lines("train", train_config)
    lines.append(f"vocab_min_count = {vocab_min_count}")
    lines.append(f"config_hash = {chash}")
    lines += _field_lines("state", state)
    lines += [f"curve = {format_curve_row(row)}" for row in state.curve]
    return "\n".join(lines) + "\n"


def _parse_curve(rows: list, path: str) -> list:
    curve = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 5:
            raise FormatError(f"{path}: bad curve row {row!r}")
        curve.append((int(parts[0]), *(float(x) for x in parts[1:])))
    return curve


def _discard(path) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def replace_file(path, fill) -> None:
    """Put a new file at path while the previous one stays complete on disk.

    fill(tmp) creates `<path>.tmp`; then the previous file is renamed to
    `<path>.old`, the new one is renamed into place and the old one is
    unlinked. No rename lands on an existing name: renaming over a file
    makes ext4 start writing the new one back (auto_da_alloc), which took
    three times as long for an 18 MB checkpoint. A process killed midway
    leaves the previous file under its name, or between the two renames
    under `<path>.old`, which the next call clears up. Nothing is fsynced,
    so this survives a crashed process, not a power loss. An existing file
    is never written through, so another name may link to it."""
    path = os.fspath(path)
    tmp, old = path + ".tmp", path + ".old"
    _discard(tmp)  # a killed call's leftover, possibly a link to another file
    try:
        fill(tmp)
    except BaseException:
        _discard(tmp)
        raise
    if os.path.lexists(path):
        _discard(old)
        os.rename(path, old)
    os.rename(tmp, path)
    _discard(old)


def save_checkpoint(path, model: SequenceModel, vocab: Vocabulary,
                    train_config: TrainConfig, state: TrainState) -> None:
    """Write a version-2 checkpoint at path through `replace_file`."""
    chash = compute_config_hash(model.config, train_config)
    text = _render_config_text(model.config, train_config, vocab.min_count,
                               state, chash).encode("utf-8")
    words = vocab.words
    block = "\n".join(words)
    if words and block.count("\n") != len(words) - 1:
        bad = next(w for w in words if "\n" in w)
        raise DataError(f"vocabulary word {bad!r} holds a newline; a checkpoint cannot store it")
    block = block.encode("utf-8")
    named = model.named_parameters()
    head = b"".join([CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(text)),
                     text, struct.pack("<II", len(words), len(block)), block,
                     struct.pack("<I", len(named))])

    def write(tmp):
        with open(tmp, "xb") as fh:
            fh.write(head)
            for name, arr in named.items():
                raw = name.encode("utf-8")
                rows, cols = arr.shape
                fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<II", rows, cols))
                # the parameter's own buffer; a copy only for a 64-bit model
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))

    replace_file(path, write)


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint; each tensor is read straight into its own array.

    Bytes that do not parse raise FormatError: bad UTF-8, a number or a
    word list that does not read, as well as a bad layout."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh, str(path), os.fstat(fh.fileno()).st_size)
        except FormatError:
            raise
        except ValueError as exc:  # UnicodeDecodeError, int(), a repeated word
            raise FormatError(f"{path}: corrupt checkpoint: {exc}") from None


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
    if version not in (1, CHECKPOINT_VERSION):
        raise FormatError(f"{spath}: unsupported checkpoint version {version}")
    (text_len,) = take("<I")
    values = read_key_values(take_bytes(text_len).decode("utf-8"), spath, FormatError,
                             repeated=("curve",))

    def need(key):
        if key not in values:
            raise FormatError(f"{spath}: checkpoint config missing {key!r}")
        return values[key]

    model_config = _from_fields(ModelConfig, "model", values, spath)
    train_config = _from_fields(TrainConfig, "train", values, spath)
    state = _from_fields(TrainState, "state", values, spath,
                         curve=_parse_curve(values["curve"], spath))

    if version == 1:
        (word_count,) = take("<I")
        words = []
        buf, pos = b"", 0  # read-ahead bytes of the block, and the next field's start in buf
        while len(words) < word_count:
            # u16 little-endian length, then the word
            end = pos + 2 + (buf[pos] | buf[pos + 1] << 8) if pos + 2 <= len(buf) else pos + 2
            if end > len(buf):
                # read on: a chunk, or what the field lacks if that is more;
                # take_bytes refuses to read past the end of the file
                buf = buf[pos:] + take_bytes(max(end - len(buf),
                                                 min(_READ_AHEAD, size - offset)))
                pos = 0
                continue
            words.append(buf[pos + 2:end].decode("utf-8"))
            pos = end
        offset -= len(buf) - pos  # the block ends at the first unwalked byte
        fh.seek(offset)
    else:
        word_count, block_len = take("<II")
        block = take_bytes(block_len).decode("utf-8")
        words = block.split("\n") if block or word_count else []
        if len(words) != word_count:
            raise FormatError(f"{spath}: vocabulary block holds {len(words)} words, "
                              f"its count says {word_count}")
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
    try:
        return SequenceModel(ckpt.model_config, ckpt.tensors)
    except DimensionError as exc:
        raise FormatError(f"checkpoint tensors do not match config: {exc}") from None


def render_manifest(ckpt: Checkpoint) -> str:
    lines = [f"checkpoint version {ckpt.version}",
             f"config hash {ckpt.config_hash}"]
    lines += _field_lines("model", ckpt.model_config) + _field_lines("train", ckpt.train_config)
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
