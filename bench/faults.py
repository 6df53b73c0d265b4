"""Show that every check of the benchmark reports a fault.

    python3 bench/faults.py

Runs one round of a small fused model for each cell, checks it, then checks
it again once per injected fault: a nudged oracle weight, a changed count,
a reordered or rescored beam, a changed byte of a checkpoint, and so on.
Prints one line per case and exits 1 if any check misbehaved.
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import session as S  # noqa: E402
from corpus import CorpusShape  # noqa: E402


def _records(sess, kind):
    return [r for r in sess.records if r.kind == kind]


def _nudge_oracle(sess, oracle):
    oracle.p["decoder.b_U"][0, 3] += 0.01  # the EOS logit


def _fewer_targets(sess, oracle):
    _records(sess, "train")[0].data["trained"][0] -= 1


def _extra_curve_row(sess, oracle):
    curve = _records(sess, "train")[0].data["curve"]
    curve.append(dict(curve[0]))


def _wrong_shape(sess, oracle):
    _records(sess, "train")[0].data["shapes"]["decoder.U"] = (1, 1)


def _ll_differs(sess, oracle):
    rows = _records(sess, "eval")[0].data["rows"]
    i = [r[0] for r in rows].index("LV-L")
    cond, nll, ppl, n = rows[i]
    rows[i] = (cond, float(np.nextafter(nll, np.inf)), ppl, n)


def _eval_targets(sess, oracle):
    rows = _records(sess, "eval")[0].data["rows"]
    rows[0] = rows[0][:3] + (rows[0][3] - 1,)


def _eval_csv(sess, oracle):
    _records(sess, "eval")[0].data["table"][0]["nll"] = "0.000"


def _eval_repeat(sess, oracle):
    rows = _records(sess, "eval")[1].data["rows"]
    rows[1] = (rows[1][0], rows[1][1] + 1e-9) + rows[1][2:]


def _beam_score(sess, oracle):
    hyps = _records(sess, "sample")[0].data["hyps"]
    ids, lp = hyps[-1]
    hyps[-1] = (ids, lp - 0.01)


def _beam_count(sess, oracle):
    _records(sess, "sample")[0].data["hyps"].pop()


def _beam_order(sess, oracle):
    hyps = _records(sess, "sample")[0].data["hyps"]
    hyps[0], hyps[1] = hyps[1], hyps[0]


def _beam_special(sess, oracle):
    hyps = _records(sess, "sample")[0].data["hyps"]
    ids, lp = hyps[-1]
    hyps[-1] = ((1,) + ids[1:], lp)


def _beam_repeat(sess, oracle):
    hyps = _records(sess, "sample")[2].data["hyps"]
    ids, lp = hyps[5]
    hyps[5] = (ids, lp + 1e-9)


def _save_bytes(sess, oracle):
    _records(sess, "save")[0].data["digest"] = "0" * 64


def _load_tensor(sess, oracle):
    digests = _records(sess, "load")[0].data["digests"]
    digests["decoder.U"] = "0" * 64


def _step_norms(value):
    def fault(sess, oracle):
        norms = _records(sess, "train")[0].data["norms"]
        norms[:] = [value] * len(norms)
    fault.__name__ = f"_step_change_{value:g}"
    return fault


def _epoch_ppl(value):
    def fault(sess, oracle):
        _records(sess, "train")[0].data["curve"][0]["valid_ppl"] = repr(value)
    fault.__name__ = f"_valid_ppl_{value:g}"
    return fault


# (injected case, op kind, whether the check must report it). The step and
# epoch checks fail today because of the clipping fault, so they are shown
# both ways: a case within the rule passes and one outside it fails.
FAULTS = (
    (_nudge_oracle, "train", True), (_nudge_oracle, "eval", True),
    (_nudge_oracle, "sample", True), (_fewer_targets, "train", True),
    (_extra_curve_row, "train", True), (_wrong_shape, "train", True),
    (_ll_differs, "eval", True), (_eval_targets, "eval", True), (_eval_csv, "eval", True),
    (_eval_repeat, "eval", True), (_beam_score, "sample", True),
    (_beam_count, "sample", True), (_beam_order, "sample", True),
    (_beam_special, "sample", True), (_beam_repeat, "sample", True),
    (_save_bytes, "save", True), (_load_tensor, "load", True),
    (_step_norms(1.99), "step", False), (_step_norms(2.01), "step", True),
    (_epoch_ppl(299.0), "epoch", False), (_epoch_ppl(300.0), "epoch", True),
)


def failures(ops, kind):
    return [p for k, p in ops if k == kind and p is not None]


def main() -> int:
    missed = 0
    for arch in ("delta-rnn", "gru", "lstm"):
        wl = S.Workload(f"faults-{arch}", arch, 16,
                        CorpusShape(300, 11.0, 2.5, 5, 20, images=(4, 2, 3), fused=True),
                        trains=1, evals=2, images=1, null_samples=2, ckpt_pairs=1)
        workdir = os.path.join(ROOT, ".bench_work", f"faults-{arch}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            sess = S.Session(wl, 7, workdir)
            sess.setup()
            sess.probe.install()
            sess.round()
            sess.probe.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        clean = sess.verify(sess.oracle())
        for kind in ("train", "eval", "sample", "save", "load"):
            if failures(clean, kind):
                print(f"{arch}: unexpected failure before any fault: {failures(clean, kind)[0]}")
                missed += 1
        pristine = sess.records
        for fault, kind, must_fail in FAULTS:
            sess.records = copy.deepcopy(pristine)
            oracle = sess.oracle()
            fault(sess, oracle)
            found = failures(sess.verify(oracle), kind)
            ok = bool(found) == must_fail
            seen = (found[0][:90] if found else "passes") + ("" if ok else "  <- WRONG")
            missed += not ok
            print(f"{arch:9s} {fault.__name__[1:]:20s} {kind:6s} {seen}")
        sess.records = pristine
    print("every check behaved" if not missed else f"{missed} check(s) misbehaved")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
