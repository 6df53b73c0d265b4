"""Write every output of one benchmark round as exact values, to compare two
checkouts bit for bit.

    python3 tools/dump_outputs.py <checkout> <workload> <seed> <out.json>

Runs one round of the workload from `bench/` of the given checkout, with
that checkout's `src/`, and writes as JSON: each eval row's NLL and
perplexity, every beam hypothesis with its score, each `mmlm train`'s first
batch NLL, per-step update norms, `curve.csv`, the vocabulary of its
`model_last.mmlm` as loaded, the sha256 of every tensor of its
`model_last.mmlm` and `model_best.mmlm` as loaded, and the sha256 of
`model_last.mmlm`'s file. Two checkouts give the same outputs when their
JSON files are byte-equal; floats are written with repr, so they round-trip
exactly. A checkpoint file's sha256 (`file`, and each save record's
`digest`) changes by design with the checkpoint format version, so between
checkouts that write different versions every other output should be equal.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py runs it


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tensor_shas(ckpt) -> dict:
    import numpy as np
    return {k: _sha(np.ascontiguousarray(v).tobytes()) for k, v in ckpt.tensors.items()}


def main(root, workload, seed, out_path) -> None:
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import numpy as np
    import session
    import workloads
    from mmlm.checkpoint import load_checkpoint

    workdir = tempfile.mkdtemp()
    try:
        sess = session.Session(workloads.WORKLOADS[workload], int(seed), workdir)
        sess.setup()
        sess.probe.install()
        sess.round()
        records = []
        for rec in sess.records:
            d = dict(rec.data)
            d.pop("text", None)
            if rec.kind == "train":
                run = os.path.join(sess.out, "train")
                ckpt = os.path.join(run, "model_last.mmlm")
                d["first"] = repr(d["first"][0]) if d.get("first") else None
                d["norms"] = [repr(x) for x in d["norms"]]
                d["shapes"] = {k: list(v) for k, v in d["shapes"].items()}
                last = load_checkpoint(ckpt)
                d["vocab"] = last.vocab.id_to_token
                d["tensors"] = _tensor_shas(last)
                d["best_tensors"] = _tensor_shas(
                    load_checkpoint(os.path.join(run, "model_best.mmlm")))
                with open(ckpt, "rb") as fh:
                    d["file"] = _sha(fh.read())
                with open(os.path.join(run, "curve.csv"), encoding="utf-8") as fh:
                    d["curve_csv"] = fh.read()
            elif rec.kind == "eval":
                d["rows"] = [[c, repr(nll), repr(ppl), n] for c, nll, ppl, n in d["rows"]]
            elif rec.kind == "sample":
                d["hyps"] = [[list(ids), repr(lp)] for ids, lp in d["hyps"]]
            records.append([rec.kind, d])
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": int(seed), "records": records}, fh,
                      sort_keys=True, default=str)
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
