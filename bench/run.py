"""mmlm benchmark: train, eval, beam and checkpoint throughput.

    python3 bench/run.py --workload train-lstm-v8k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, each in its own process

Run from the root of a source checkout; the package is imported from its
`src/`. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics and the tracing overhead with
`--trace 1`. See bench/README.md.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]
# One BLAS thread: on a small shared machine a second thread made the run
# to run spread several times wider, and the tape's matrices are small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("train-lstm-v8k", "train-gru-long", "infer-delta-v8k")
UNITS = {"setup_s": "s", "train_tok_per_s": "tokens/s", "eval_tok_per_s": "tokens/s",
         "beam_samples_per_s": "samples/s", "ckpt_save_s": "s", "ckpt_load_s": "s",
         "peak_rss_mib": "MiB"}
SETUP_PROCS = 3  # fresh processes whose set-up is timed; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; all of them, each in a fresh process, when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def blas_info() -> str:
    """BLAS library and thread count, read from the OpenBLAS numpy loaded."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                return f"{config().decode()}; BLAS threads {threads()}"
    return "BLAS library and thread count unknown"


def setup_times(args) -> tuple:
    """Set-up times of fresh processes, each from spawning `run.py
    --setup-only` to the end of its set-up, so they include the interpreter
    start, the imports and the cold first batch. The child reports that
    moment on the monotonic clock both processes share. Returns the wall
    times and the same scaled to the reference host speed by the probes
    timed just before and after each process."""
    from hostspeed import REFERENCE_S, probe_s
    took, scaled = [], []
    before = probe_s()
    for _ in range(SETUP_PROCS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        t = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        took.append(float(proc.stdout.split()[-1]) - t)
        after = probe_s()
        scaled.append(took[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return took, scaled


@contextlib.contextmanager
def layers_traced(tracer, probe):
    """Span wrappers on every layer, inside the check wrappers, so the
    checks' own work is not in any span."""
    from spans import install_layers
    probe.uninstall()
    restores = install_layers(tracer)
    probe.install()
    try:
        yield
    finally:
        probe.uninstall()
        for restore in reversed(restores):
            restore()
        probe.install()


def run_all(args) -> int:
    """Every workload in its own process; prints a summary table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        import mmlm
    except ImportError as exc:
        print(f"error: cannot import mmlm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(mmlm.__file__).startswith(SRC + os.sep):
        print(f"error: mmlm was imported from {mmlm.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np

    import session as S
    from hostspeed import REFERENCE_S
    from spans import Tracer, layer_names
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    if args.setup_only:
        os.makedirs(workdir)
        try:
            S.Session(wl, args.seed, workdir).setup()
            print(time.perf_counter())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas_info()},"
          f" CPUs {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    if not args.trace:
        setups, scaled_setups = setup_times(args)
        print("set-up s per fresh process: " + ", ".join(f"{x:.3f}" for x in setups))
    os.makedirs(workdir)
    try:
        sess = S.Session(wl, args.seed, workdir)
        sess.setup()
        sess.probe.install()
        if args.trace:
            tracer = Tracer()
            sess.run_rounds(args.seconds, lambda: layers_traced(tracer, sess.probe))
        else:
            sess.run_rounds(args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t = time.perf_counter()
        ops = sess.verify(sess.oracle())
        print(f"checks took {time.perf_counter() - t:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if args.trace:
        spans_path = os.path.join(ROOT, ".bench_work",
                                  f"spans-{wl.name}-seed{args.seed}.csv")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
        summary = tracer.summary()
        for name in layer_names():
            calls, total, self_s = summary.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls"] = (calls / sess.rounds, "count")
            metrics[f"{name}.total_s"] = (total / sess.rounds, "s")
            metrics[f"{name}.self_s"] = (self_s / sess.rounds, "s")
        for name, count in tracer.counts.items():
            metrics[f"{name}.calls"] = (count / sess.rounds, "count")
        for op, ratio in sess.overheads().items():
            metrics[f"trace.overhead.{op}"] = (ratio, "ratio")
    else:
        values = dict(sess.medians(), setup_s=statistics.median(scaled_setups),
                      peak_rss_mib=peak_mib)
        metrics = {m: (values[m], unit) for m, unit in UNITS.items()}
        raw = dict(sess.medians(sess.times), setup_s=statistics.median(setups))
        print(f"host-speed probe: median {statistics.median(sess.host_probes) * 1e3:.2f} ms"
              f" over {len(sess.host_probes)}, reference {REFERENCE_S * 1e3:.2f} ms;"
              " unscaled wall-time figures:")
        for name, value in raw.items():
            print(f"  {name:40s} {value:14.6g} {UNITS[name]}")

    print(f"rounds {sess.rounds}; metrics"
          + ("" if args.trace else ", scaled to the reference host speed") + ":")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    failed = [op for op in ops if op[1] is not None]
    correct = all(kind in S.KNOWN_FAULT_KINDS for kind, _ in failed)
    print("operations (kind: attempted, failed):")
    for kind in dict.fromkeys(k for k, _ in ops):
        mine = [p for k, p in ops if k == kind]
        bad = [p for p in mine if p is not None]
        print(f"  {kind}: {len(mine)}, {len(bad)}" + (f"; first failure: {bad[0]}" if bad else ""))
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
