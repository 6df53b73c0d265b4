"""Wrappers installed from outside the package, for spans and checks.

A function is replaced wherever a caller looks it up: in its own module and
in every loaded `mmlm` module that imported it by name (``train`` imports
``backward`` and ``clip_gradients`` from ``tensor``, ``cli`` imports ``fit``
and the checkpoint functions). Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

perf = time.perf_counter


def swap(owner, attr: str, make):
    """Replace owner.attr by make(original) at every lookup site; returns a
    function that puts the original back."""
    orig = getattr(owner, attr)
    new = make(orig)
    sites = [(owner, attr)]
    if not isinstance(owner, type):
        for name, mod in list(sys.modules.items()):
            if (name == "mmlm" or name.startswith("mmlm.")) and mod is not owner:
                sites += [(mod, a) for a, v in vars(mod).items() if v is orig]
    for obj, a in sites:
        setattr(obj, a, new)

    def restore():
        for obj, a in sites:
            setattr(obj, a, orig)
    return restore


class Tracer:
    """In-memory spans: name, start, end and the enclosing span."""

    def __init__(self):
        self.names: list = []
        self.name_of: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.counts: dict = {}
        self._open: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str):
        """Decorator factory: every call of the wrapped function is a span."""
        nid = self._name_id(name)
        name_of, parent, start, end, open_ = (self.name_of, self.parent,
                                             self.start, self.end, self._open)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(start)
                name_of.append(nid)
                parent.append(open_[-1] if open_ else -1)
                end.append(0.0)
                open_.append(idx)
                start.append(perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = perf()
                    open_.pop()
            return traced
        return make

    def counter(self, name: str):
        """Decorator factory: count calls without a span."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def summary(self) -> dict:
        """name -> [calls, total_s, self_s]; self time is a span's duration
        minus the part covered by its child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i},{self.parent[i]},{self.names[nid]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


# (module, function or Class.method, span name). The three cell step
# functions share one name; `tensor._result` builds every tape node, so its
# call count is the number of tape op calls.
LAYERS = (
    ("mmlm.cli", "main", "cli.main"),
    ("mmlm.data", "read_captions", "data.read_captions"),
    ("mmlm.data", "load_vocab", "data.load_vocab"),
    ("mmlm.data", "encode_batches", "data.encode_batches"),
    ("mmlm.tensor", "embed_columns", "tensor.embed_columns"),
    ("mmlm.tensor", "matmul", "tensor.matmul"),
    ("mmlm.tensor", "log_softmax_rows", "tensor.log_softmax_rows"),
    ("mmlm.tensor", "backward", "tensor.backward"),
    ("mmlm.tensor", "clip_gradients", "tensor.clip_gradients"),
    ("mmlm.cells", "delta_rnn_step", "cells.step"),
    ("mmlm.cells", "gru_step", "cells.step"),
    ("mmlm.cells", "lstm_step", "cells.step"),
    ("mmlm.model", "build_model", "model.build_model"),
    ("mmlm.model", "SequenceModel.sequence_nll", "model.sequence_nll"),
    ("mmlm.model", "SequenceModel.advance", "model.advance"),
    ("mmlm.train", "fit", "train.fit"),
    ("mmlm.train", "train_epoch", "train.train_epoch"),
    ("mmlm.train", "sgd_step", "train.sgd_step"),
    ("mmlm.train", "dataset_nll", "train.dataset_nll"),
    ("mmlm.evaluate", "evaluate", "evaluate.evaluate"),
    ("mmlm.evaluate", "beam_search", "evaluate.beam_search"),
    ("mmlm.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("mmlm.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("mmlm.checkpoint", "model_from_checkpoint", "checkpoint.model_from_checkpoint"),
)
OPS_COUNTER = ("mmlm.tensor", "_result", "tensor.ops")


def layer_names() -> list:
    return list(dict.fromkeys(name for _, _, name in LAYERS))


def install_layers(tracer: Tracer) -> list:
    """Wrap every layer function that exists; returns the restore functions.
    A function missing from this version of the package keeps zero calls."""
    restores = []
    for module, attr, name in LAYERS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        tracer._name_id(name)
        if hasattr(owner, attr):
            restores.append(swap(owner, attr, tracer.span(name)))
    module, attr, name = OPS_COUNTER
    owner = importlib.import_module(module)
    tracer.counts.setdefault(name, 0)
    if hasattr(owner, attr):
        restores.append(swap(owner, attr, tracer.counter(name)))
    return restores
