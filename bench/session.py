"""One benchmark workload: set-up, timed rounds, and the checks.

A round is a fixed list of operations run through the package's public entry
points, the way a user runs them: `mmlm train`, `mmlm eval` and
`mmlm sample` through ``mmlm.cli.main``, and ``save_checkpoint`` /
``load_checkpoint`` + ``model_from_checkpoint``. Rounds only time and
capture; ``verify`` checks every captured output afterwards, against the
float64 oracle and against properties the method must have, so no check
runs on the clock. Every round attempts the same operations, so the share of
failed operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import corpus as C
from hostspeed import REFERENCE_S, probe_s
from oracle import Oracle
from spans import swap

import mmlm.checkpoint as mcheckpoint
import mmlm.cli as mcli
import mmlm.evaluate as mevaluate
import mmlm.model as mmodel
import mmlm.train as mtrain
# Imported by name, so the check code below keeps the untraced originals.
from mmlm.checkpoint import load_checkpoint
from mmlm.data import load_vocab
from mmlm.model import ModelConfig, build_model
from mmlm.train import TrainConfig, TrainState

perf = time.perf_counter

UNROLL = 49
BATCH = 32
LR, CLIP = 1.0, 2.0  # the stock recipe, passed as the train defaults
WIDTH, MAX_LEN = 13, 12
NLL_RTOL = 1e-5  # float32 tape against the float64 oracle, relative
BEAM_ATOL = 1e-3  # per hypothesis, nats
CLIP_FAULT = ("tensor.clip_gradients clamps each gradient component to +-clip;"
              " the README promises global-norm clipping")
KNOWN_FAULT_KINDS = ("step", "epoch")


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    hidden: int
    shape: C.CorpusShape
    trains: int  # `mmlm train` commands per round
    evals: int  # `mmlm eval` commands per round
    images: int  # `mmlm sample` commands per round on test images
    null_samples: int  # `mmlm sample` commands per round with the null context
    ckpt_pairs: int  # save + load pairs per round


@dataclass
class Record:
    kind: str
    data: dict


class Probe:
    """Check wrappers: capture what a command computed, with their own cost
    kept apart so it can be taken off the command's wall time."""

    def __init__(self):
        self.check_s = 0.0
        self.reset()

    def reset(self):
        self.step_norms, self.trained, self.evals, self.samples = [], [], [], []
        self.first = None
        self._armed = False

    def take_check_s(self) -> float:
        out, self.check_s = self.check_s, 0.0
        return out

    def install(self):
        self._restore = [
            swap(mtrain, "train_epoch", self._train_epoch),
            swap(mtrain, "sgd_step", self._sgd_step),
            swap(mmodel.SequenceModel, "sequence_nll", self._sequence_nll),
            swap(mevaluate, "evaluate", self._evaluate),
            swap(mevaluate, "beam_search", self._beam_search),
        ]

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()

    def _train_epoch(self, fn):
        def wrapped(model, batches, *args, **kwargs):
            self._armed = True
            total, tokens = fn(model, batches, *args, **kwargs)
            self.trained.append(tokens)
            return total, tokens
        return wrapped

    def _sequence_nll(self, fn):
        def wrapped(model, batch, *args, **kwargs):
            out = fn(model, batch, *args, **kwargs)
            if self._armed:
                self._armed = False
                self.first = (out[0].item(), batch)
            return out
        return wrapped

    def _sgd_step(self, fn):
        def wrapped(named, grads, lr, *args, **kwargs):
            t = perf()
            sq = sum(float(np.vdot(g, g)) for g in grads.values())
            self.step_norms.append(lr * math.sqrt(sq))
            self.check_s += perf() - t
            return fn(named, grads, lr, *args, **kwargs)
        return wrapped

    def _evaluate(self, fn):
        def wrapped(model, batches, condition, *args, **kwargs):
            nll, ppl = fn(model, batches, condition, *args, **kwargs)
            t = perf()
            self.evals.append((condition, nll, ppl, int(sum(b.mask.sum() for b in batches))))
            self.check_s += perf() - t
            return nll, ppl
        return wrapped

    def _beam_search(self, fn):
        def wrapped(*args, **kwargs):
            hyps = fn(*args, **kwargs)
            self.samples.append(hyps)
            return hyps
        return wrapped


def expected_shapes(arch: str, hidden: int, vocab: int, fused: bool) -> dict:
    """Tensor shapes a checkpoint of this configuration must hold."""
    H, V = hidden, vocab
    cell = {"delta-rnn": {"W": (H, V), "V": (H, H), "b_r": (1, H), "alpha": (1, H),
                          "beta1": (1, H), "beta2": (1, H)},
            "gru": {"W_z": (H, V), "V_z": (H, H), "W_r": (H, V), "V_r": (H, H),
                    "W_h": (H, V), "V_h": (H, H)},
            "lstm": {"W_z": (H, V), "V_z": (H, H), "W_i": (H, V), "V_i": (H, H),
                     "U_i": (1, H), "W_f": (H, V), "V_f": (H, H), "U_f": (1, H),
                     "W_r": (H, V), "V_r": (H, H), "U_r": (1, H)}}[arch]
    out = {f"cell.{k}": v for k, v in cell.items()}
    if fused:
        out["fusion.M"] = (H, C.CONTEXT_DIM)
        out["fusion.b_M"] = (1, H)
    out["decoder.U"] = (V, H)
    out["decoder.b_U"] = (1, V)
    return out


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Session:
    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.probe = Probe()
        self.records: list = []
        # wall seconds of each timed operation, untraced and traced, and the
        # untraced ones scaled to the reference host speed (hostspeed.py)
        self.times = {k: [] for k in ("train", "eval", "beam", "ckpt_save", "ckpt_load")}
        self.traced_times = {k: [] for k in self.times}
        self.scaled = {k: [] for k in self.times}
        self.host_probes: list = []  # host-speed probe times, one between operations
        self._sink = self.times
        self.rounds = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Generate the corpus and its files, build and save the workload
        model, and warm up with a one-batch `mmlm train`."""
        d = self.dir
        wl = self.wl
        self.corpus = C.generate(wl.shape, self.seed)
        self.paths = C.write(self.corpus, d)
        self.vocab = load_vocab(self.paths["vocab"])
        self.config = ModelConfig(arch=wl.arch, hidden=wl.hidden, vocab=len(self.vocab),
                                  context_dim=C.CONTEXT_DIM, unroll=UNROLL,
                                  fusion="outer" if wl.shape.fused else "none")
        self.model = build_model(self.config, seed=self.seed)
        self.train_config = TrainConfig(seed=self.seed)
        self.ckpt = os.path.join(d, "model.mmlm")
        mcheckpoint.save_checkpoint(self.ckpt, self.model, self.vocab,
                                    self.train_config, TrainState())
        self.out = os.path.join(d, "out")
        # warm-up: one batch through `mmlm train`, so the timed rounds do not
        # pay the process's first-allocation costs
        warm = os.path.join(d, "warm.tsv")
        with open(self.paths["captions"], encoding="utf-8") as src, \
                open(warm, "w", encoding="utf-8") as dst:
            lines = src.readlines()
            dst.writelines([x for x in lines if "\ttrain\t" in x][:BATCH])
            dst.writelines([x for x in lines if "\tvalid\t" in x][:BATCH])
        rc, _ = self._cli(self._train_args(warm))
        if rc != 0:
            raise RuntimeError(f"warm-up `mmlm train` exited with {rc}")

        train = self.corpus.split("train")
        test = self.corpus.split("test")
        self.train_targets = C.target_count(train, UNROLL)
        self.test_targets = C.target_count(test, UNROLL)
        self.steps_per_epoch = -(-len(train) // BATCH)
        self.conditions = ["L-L", "LV-LV", "LV-L"] if wl.shape.fused else ["L-L"]
        image_ids = list(dict.fromkeys(c.image_id for c in test))[:wl.images]
        self.sample_ids = image_ids + [None] * wl.null_samples
        self.ckpt_digest = _file_digest(self.ckpt)
        self.param_digests = {k: _digest(p.data)
                              for k, p in self.model.named_parameters().items()}

    # -- timed rounds ----------------------------------------------------------

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mcli.main(argv)
        return rc, out.getvalue() + err.getvalue()

    def _train_args(self, captions: str) -> list:
        args = ["train", "--captions", captions, "--vocab", self.paths["vocab"],
                "--out", os.path.join(self.out, "train"), "--arch", self.wl.arch,
                "--hidden", str(self.wl.hidden), "--unroll", str(UNROLL),
                "--seed", str(self.seed)]
        if self.wl.shape.fused:
            args += ["--contexts", self.paths["contexts"], "--fusion", "outer"]
        return args

    def run_rounds(self, budget_s: float, tracing=None) -> None:
        """Whole rounds, at least one, until the next one would end more than
        half a round past the budget."""
        start, n = perf(), 0
        while True:
            self.round(tracing)
            n += 1
            elapsed = perf() - start
            if elapsed + 0.5 * elapsed / n > budget_s:
                return

    def round(self, tracing=None) -> None:
        """The operations of one round, each kind spread evenly over it, so
        every metric samples the whole run rather than a few seconds of it.
        With `tracing`, a context manager factory, each operation runs twice
        back to back, once inside it; which of the two goes first alternates,
        so a drift in the host's speed favours neither. The host-speed probe
        runs between operations; each untraced time is also kept scaled by
        the probes just before and after it."""
        wl = self.wl
        kinds = ([self._train] * wl.trains, [self._eval] * wl.evals,
                 [functools.partial(self._sample, i) for i in self.sample_ids],
                 [functools.partial(self._save_load, i) for i in range(wl.ckpt_pairs)])
        ops = [op for _, _, op in sorted(((j + 0.5) / len(group), k, op)
                                         for k, group in enumerate(kinds)
                                         for j, op in enumerate(group))]
        if not self.host_probes:
            self.host_probes.append(probe_s())
        for i, op in enumerate(ops):
            marks = {k: len(v) for k, v in self.times.items()}
            if tracing is None:
                op()
            else:
                traced_first = (self.rounds + i) % 2 == 1
                for traced in (traced_first, not traced_first):
                    if not traced:
                        op()
                        continue
                    self._sink = self.traced_times
                    try:
                        with tracing():
                            op()
                    finally:
                        self._sink = self.times
            self.host_probes.append(probe_s())
            scale = 2 * REFERENCE_S / (self.host_probes[-2] + self.host_probes[-1])
            for k, v in self.times.items():
                self.scaled[k] += [x * scale for x in v[marks[k]:]]
        self.rounds += 1

    def _timed_cli(self, argv):
        self.probe.reset()
        self.probe.take_check_s()
        t = perf()
        rc, text = self._cli(argv)
        return rc, text, perf() - t - self.probe.take_check_s()

    def _train(self):
        rc, text, dt = self._timed_cli(self._train_args(self.paths["captions"]))
        self._sink["train"].append(dt)
        run = os.path.join(self.out, "train")
        try:
            with open(os.path.join(run, "curve.csv"), encoding="utf-8") as fh:
                curve = list(csv.DictReader(fh))
        except OSError:
            curve = []
        try:
            shapes = {k: v.shape for k, v in
                      load_checkpoint(os.path.join(run, "model_last.mmlm")).tensors.items()}
        except Exception as exc:  # reported by verify as a failed train op
            shapes = {"error": repr(exc)}
        p = self.probe
        self.records.append(Record("train", dict(
            rc=rc, text=text, curve=curve, shapes=shapes, trained=list(p.trained),
            norms=list(p.step_norms), first=p.first)))

    def _eval(self):
        argv = ["eval", self.ckpt, "--captions", self.paths["captions"], "--split", "test",
                "--conditions", ",".join(self.conditions),
                "--out", os.path.join(self.out, "eval")]
        if self.wl.shape.fused:
            argv += ["--contexts", self.paths["contexts"]]
        rc, text, dt = self._timed_cli(argv)
        self._sink["eval"].append(dt)
        with open(os.path.join(self.out, "eval", "eval.csv"), encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        self.records.append(Record("eval", dict(rc=rc, text=text, rows=list(self.probe.evals),
                                                table=table)))

    def _sample(self, image_id):
        argv = ["sample", self.ckpt, "--width", str(WIDTH), "--max-len", str(MAX_LEN),
                "--out", os.path.join(self.out, "sample")]
        if image_id is not None:
            argv += ["--contexts", self.paths["contexts"], "--image-id", image_id]
        rc, text, dt = self._timed_cli(argv)
        self._sink["beam"].append(dt)
        self.records.append(Record("sample", dict(
            rc=rc, text=text, image_id=image_id,
            hyps=[(tuple(h.ids), h.logprob) for s in self.probe.samples for h in s],
            calls=len(self.probe.samples))))

    def _save_load(self, i: int):
        path = os.path.join(self.dir, f"save{i % 2}.mmlm")
        t = perf()
        mcheckpoint.save_checkpoint(path, self.model, self.vocab, self.train_config,
                                    TrainState())
        self._sink["ckpt_save"].append(perf() - t)
        self.records.append(Record("save", dict(digest=_file_digest(path))))
        t = perf()
        loaded = mcheckpoint.model_from_checkpoint(mcheckpoint.load_checkpoint(path))
        self._sink["ckpt_load"].append(perf() - t)
        self.records.append(Record("load", dict(
            digests={k: _digest(p.data) for k, p in loaded.named_parameters().items()})))

    # -- checks ----------------------------------------------------------------

    def oracle(self) -> Oracle:
        return Oracle(self.wl.arch, {k: p.data for k, p in
                                     self.model.named_parameters().items()})

    def verify(self, oracle: Oracle) -> list:
        """(kind, problem or None) for every operation attempted, in order."""
        wl, V = self.wl, len(self.vocab)
        ops = []
        shapes = expected_shapes(wl.arch, wl.hidden, V, wl.shape.fused)
        test = self.corpus.split("test")
        ids = [self.corpus.ids(c) for c in test]
        oracle_nll = {}
        for cond in self.conditions:
            ctx = (np.stack([self.corpus.contexts[c.image_id] for c in test])
                   if cond == "LV-LV" else None)
            oracle_nll[cond] = -oracle.sentence_scores(ids, ctx, UNROLL).sum() / self.test_targets
        beam_ref = {}
        eval_ref = None

        for rec in self.records:
            d = rec.data
            if rec.kind == "train":
                ops.append(("train", self._check_train(d, shapes, oracle)))
                ops += self._fault_ops(d)
            elif rec.kind == "eval":
                problem = self._check_eval(d, oracle_nll if eval_ref is None else None, eval_ref)
                if problem is None and eval_ref is None:
                    eval_ref = d["rows"]
                ops.append(("eval", problem))
            elif rec.kind == "sample":
                ref = beam_ref.get(d["image_id"])
                problem = self._check_sample(d, oracle if ref is None else None, ref)
                if problem is None and ref is None:
                    beam_ref[d["image_id"]] = d["hyps"]
                ops.append(("sample", problem))
            elif rec.kind == "save":
                ops.append(("save", None if d["digest"] == self.ckpt_digest else
                            "saved bytes differ from an earlier save of the same model"))
            elif rec.kind == "load":
                bad = [k for k in self.param_digests if d["digests"].get(k) != self.param_digests[k]]
                if set(d["digests"]) != set(self.param_digests):
                    bad.append("tensor names")
                ops.append(("load", f"loaded tensors differ from the saved model: {bad}"
                            if bad else None))
        return ops

    def _check_train(self, d, shapes, oracle):
        if d["rc"] != 0:
            return f"`mmlm train` exited with {d['rc']}: {d['text'].strip()[-200:]}"
        if len(d["curve"]) != 1:
            return f"curve.csv has {len(d['curve'])} rows for 1 epoch"
        if d["shapes"] != shapes:
            return f"model_last.mmlm tensors {d['shapes']} are not {shapes}"
        if sum(d["trained"]) != self.train_targets:
            return (f"trained {sum(d['trained'])} targets; the corpus has "
                    f"{self.train_targets}")
        if d["first"] is None:
            return "no first batch was scored"
        value, batch = d["first"]
        frames = [batch.tokens[:int(batch.mask[:, j].sum()) + 1, j].tolist()
                  for j in range(batch.batch_size)]
        want = -oracle.frame_scores(frames, batch.contexts).sum()
        if not abs(value - want) <= NLL_RTOL * abs(want):
            return f"first batch NLL {value!r}, oracle {want!r}"
        return None

    def _fault_ops(self, d):
        """The counted step and epoch operations of one train command."""
        ops = []
        bound = LR * CLIP * (1 + 1e-6)
        for i in range(self.steps_per_epoch):
            if i >= len(d["norms"]):
                ops.append(("step", "not run: training aborted"))
            elif not d["norms"][i] <= bound:
                ops.append(("step", f"parameter change {d['norms'][i]:.4g} > lr x clip"
                            f" = {LR * CLIP:g} ({CLIP_FAULT})"))
            else:
                ops.append(("step", None))
        V = len(self.vocab)
        ppl = float(d["curve"][-1]["valid_ppl"]) if d["curve"] and d["rc"] == 0 else math.nan
        ops.append(("epoch", None if ppl < V else
                    f"valid ppl {ppl:.4g} is not below |V| = {V}, the uniform model"
                    f" ({CLIP_FAULT})"))
        return ops

    def _check_eval(self, d, oracle_nll, ref):
        if d["rc"] != 0:
            return f"`mmlm eval` exited with {d['rc']}: {d['text'].strip()[-200:]}"
        rows = d["rows"]
        if [r[0] for r in rows] != self.conditions:
            return f"conditions {[r[0] for r in rows]}, asked for {self.conditions}"
        for cond, nll, ppl, targets in rows:
            if targets != self.test_targets:
                return f"{cond} scored {targets} targets; the corpus has {self.test_targets}"
        table = [(t["condition"], t["nll"]) for t in d["table"]]
        if table != [(r[0], f"{r[1]:.3f}") for r in rows]:
            return f"eval.csv rows {table} do not match the computed NLLs"
        nll = {r[0]: r[1] for r in rows}
        if "LV-L" in nll and nll["LV-L"] != nll["L-L"]:
            return f"L-L NLL {nll['L-L']!r} and LV-L NLL {nll['LV-L']!r} differ"
        if ref is not None:
            return None if rows == ref else f"eval gave {rows}, an earlier run gave {ref}"
        for cond, want in oracle_nll.items():
            if not abs(nll[cond] - want) <= NLL_RTOL * abs(want):
                return f"{cond} NLL {nll[cond]!r}, oracle {want!r}"
        return None

    def _check_sample(self, d, oracle, ref):
        if d["rc"] != 0:
            return f"`mmlm sample` exited with {d['rc']}: {d['text'].strip()[-200:]}"
        hyps = d["hyps"]
        if d["calls"] != 1:
            return f"{d['calls']} beam searches for one sample command"
        want = 1 + WIDTH * (MAX_LEN - 1)
        if len(hyps) != want:
            return f"{len(hyps)} hypotheses, expected 1 + width x (max_len - 1) = {want}"
        V = len(self.vocab)
        if any(not 4 <= w < V for ids, _ in hyps for w in ids):
            return "a hypothesis holds a special or out-of-range id"
        if hyps != sorted(hyps, key=lambda h: (-h[1], len(h[0]), h[0])):
            return "hypotheses are not sorted by (-score, length, ids)"
        if len(d["text"].splitlines()) != 1 + WIDTH:
            return f"printed {len(d['text'].splitlines())} lines, expected 1 + {WIDTH}"
        if ref is not None:
            return None if hyps == ref else "beam output differs from an earlier identical run"
        ctx = None
        if d["image_id"] is not None:
            ctx = np.repeat(self.corpus.contexts[d["image_id"]][None, :], len(hyps), axis=0)
        frames = [[2, *ids, 3] for ids, _ in hyps]
        scores = oracle.frame_scores(frames, ctx)
        worst = max(range(len(hyps)), key=lambda i: abs(hyps[i][1] - scores[i]))
        if not abs(hyps[worst][1] - scores[worst]) <= BEAM_ATOL:
            return (f"hypothesis {hyps[worst][0]} logprob {hyps[worst][1]!r},"
                    f" oracle {scores[worst]!r}")
        return None

    # -- metrics ---------------------------------------------------------------

    def medians(self, times=None) -> dict:
        """The end-to-end metrics of the untraced operations, from their
        host-speed-scaled times unless `times` is given: a rate is the work
        of one command over the median time of the command."""
        t = {k: statistics.median(v) for k, v in (times or self.scaled).items()}
        return {"train_tok_per_s": self.train_targets / t["train"],
                "eval_tok_per_s": self.test_targets * len(self.conditions) / t["eval"],
                "beam_samples_per_s": 1.0 / t["beam"],
                "ckpt_save_s": t["ckpt_save"],
                "ckpt_load_s": t["ckpt_load"]}

    def overheads(self) -> dict:
        """Traced over untraced wall time of each operation: the median over
        the pairs run back to back."""
        return {k: statistics.median(b / a for a, b in zip(v, self.traced_times[k]))
                for k, v in self.times.items()}
