"""Benchmark of levyminmax: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload envelope --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

Each run starts fresh worker processes (``worker.py``).  With ``--trace 0``
it reports the end-to-end metrics: ``setup_s`` is the median over
SETUP_SAMPLES fresh processes of the time from spawning the process to its
first timed operation, ``run_s`` the mean wall time of one round of the
workload's fixed operations, and ``peak_rss_mb`` the worker's peak resident
set size.  Workers run with one BLAS thread and a fixed hash seed, so that a
run measures the program rather than the scheduler of a small shared host.
With ``--trace 1`` a separate traced worker reports the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the run's provenance, and both are also written to
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("extension", "envelope", "surrogate", "cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# one BLAS/OpenMP thread: the hosts this runs on have few cores, and a second
# thread mostly measures what else the host is running
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; the direction of each is in BENCHMARK.json
PER_LAYER = {
    "cubes.partition_raw_sums.calls": "count",
    "cubes.partition_raw_sums.points": "count",
    "cubes.partition_raw_sums.self_s": "s",
    "cubes.cubes_at.calls": "count",
    "cubes.cubes_at.self_s": "s",
    "cubes.cover_size": "count",
    "whitney.values.calls": "count",
    "whitney.values.points": "count",
    "whitney.values.self_s": "s",
    "whitney.points_per_call": "count",
    "calculus.stencil.calls": "count",
    "calculus.stencil.self_s": "s",
    "approx.surrogate.calls": "count",
    "approx.surrogate.self_s": "s",
    "approx.source.calls": "count",
    "approx.source.self_s": "s",
    "approx.study.self_s": "s",
    "approx.probe.self_s": "s",
    "clarke.jacobian.calls": "count",
    "clarke.jacobian.self_s": "s",
    "clarke.op_evals_per_column": "count",
    "clarke.jacobian_mb": "MB",
    "clarke.minmax.self_s": "s",
    "clarke.fields.self_s": "s",
    "clarke.residual.self_s": "s",
    "courrege.decompose.calls": "count",
    "courrege.decompose.self_s": "s",
    "courrege.rows_distinct": "count",
    "courrege.atoms": "count",
    "courrege.reconstruct.self_s": "s",
    "operators.op.calls": "count",
    "operators.op.self_s": "s",
    "operators.dtn.self_s": "s",
    "cli.decompose_s": "s",
    "cli.minmax_s": "s",
    "cli.converge_s": "s",
    "cli.dtn_s": "s",
    "process.cpu_s": "s",
}


class BenchError(RuntimeError):
    """A worker process failed; the run prints no result."""


def _worker(workload: str, seed: int, seconds: float, trace: int,
            setup_only: bool = False) -> tuple[dict, float]:
    """Run one worker to its end; returns its result and its set-up time."""
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res, res["setup_end"] - t0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(workload, seed, seconds, trace, setup_only=True)[1])
    res, setup = _worker(workload, seed, seconds, trace)
    setups.append(setup)
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.fmean(res["round_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": dict(res["provenance"], workload=workload,
                           attempted=res["attempted"], failed=res["failed"]),
        "rounds": len(res["round_s"]),
        "ops_per_round": res["ops_per_round"],
        "round_s": res["round_s"],
        "op_s": res["op_s"],
        "setup_samples_s": setups,
        "problems": res["problems"],
        "errors": res["errors"],
        "result": result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levyminmax" / "__init__.py").is_file():
        print(f"error: no levyminmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        for p in record["problems"] + [f"{k}: {v}" for k, v in record["errors"].items()]:
            print(f"{name}: {p}", file=sys.stderr)
        ok = ok and record["result"]["correct"]
        res = record["result"]
        shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name}: {shown}  attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        print(json.dumps({"provenance": record["provenance"]}))
        print(json.dumps(res))
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
