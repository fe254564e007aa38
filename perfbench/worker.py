"""One benchmark process: set up a workload, time whole rounds, check outputs.

Started by ``run.py`` in a fresh interpreter.  Set-up covers imports, input
generation from the seed and one warm-up call per operation; it ends at the
``setup_end`` stamp (CLOCK_MONOTONIC, comparable with the parent's clock).
Then whole rounds run while another round is expected to end within
``--seconds`` (at least one round runs), each after a garbage collection
outside the timer, and the outputs of the last round are checked outside the
timed region.  With ``--trace 1`` the layer wrappers are installed for the
rounds and the per-round layer metrics are reported instead of being left
out.  The last line of standard
output is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    from levyminmax import _kernels

    return {
        "backend": "numba" if _kernels.JIT_ENABLED else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import levyminmax

    if Path(levyminmax.__file__).resolve().parent != ROOT / "src" / "levyminmax":
        print(f"levyminmax imported from {levyminmax.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        for op in ops:
            op.warm()
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        round_s, cpu_s, layers, errors = [], [], [], {}
        op_s = {op.name: [] for op in ops}
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer:
                tracer.reset()
            gc.collect()
            outs = {}
            c0, t0 = time.process_time(), time.perf_counter()
            for op in ops:
                attempted += 1
                o0 = time.perf_counter()
                try:
                    outs[op.name] = op.call()
                except Exception as err:  # counted as a failed operation
                    failed += 1
                    errors[op.name] = repr(err)
                op_s[op.name].append(time.perf_counter() - o0)
            t1, c1 = time.perf_counter(), time.process_time()
            round_s.append(t1 - t0)
            cpu_s.append(c1 - c0)
            if tracer:
                layers.append(tracer.round_metrics())
            # whole rounds only: stop when the next one would pass the deadline
            if t1 + round_s[-1] > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()

        problems = []
        for op in ops:
            if op.name in outs:
                problems += [f"{op.name}: {p}" for p in op.check(outs[op.name])]
        layer = {}
        if layers:
            layer = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
            layer["process.cpu_s"] = statistics.median(cpu_s)
        print(json.dumps({
            "setup_end": setup_end,
            "round_s": round_s,
            "op_s": op_s,
            "cpu_s": cpu_s,
            "ops_per_round": len(ops),
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "problems": problems,
            "peak_rss_mb": peak_rss_mb,
            "layers": layer,
            "provenance": provenance(args.seed),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
