"""Benchmark entry point for the enfcapon package.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons and the metrics are defined in ``BENCHMARK.json``;
``perfbench/predictions.json`` says which layer metric should move which
end-to-end metric on which workload.

One run:

1. generates the seeded inputs in a separate process (``fixtures.py``);
2. with ``--trace 0``, starts the measured process (``measure.py``)
   SETUP_REPEATS times, one after another, each measuring for an equal
   share of ``--seconds``, and reports the end-to-end metrics: median
   set-up time, mean op time in reference-kernel units over the pooled
   ops, median peak RSS, and the correlation of the output with ground
   truth;
3. with ``--trace 1``, starts one measured process that alternates
   untraced ops and ops traced with timing wrappers, and reports the
   per-layer metrics;
4. prints a JSON line with the full record (fixture parameters, versions,
   CPU, thread pins seen by the measured process, commit, raw op times,
   tail percentile, errors), writes it to
   ``perfbench/.work/results/``, and prints the result as the last line.

It exits with 2 when the directory holds no ``src/enfcapon`` package and
with 1 when a step fails or an op gives a wrong answer.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# A run must end within 180 s; child processes are killed at this deadline.
RUN_DEADLINE_S = 170.0
PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(times):
    """Value at the highest percentile with at least TAIL_BEYOND samples
    beyond it, but never below the median (with fewer than 2*TAIL_BEYOND
    samples the tail is not resolved and the median is reported).

    Returns (value, percentile, samples beyond it)."""
    ordered = sorted(times)
    n = len(ordered)
    if n - TAIL_BEYOND < (n + 1) // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(root):
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ,
                             "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "enfcapon")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def call(argv, deadline):
    """Run one child process to completion (killed at the deadline)."""
    subprocess.run(argv, check=True, timeout=max(1.0, deadline - now()),
                   env={**os.environ, **PINS})


def measure(args, fixture, deadline, trace, seconds, index):
    out = os.path.join(fixture, f"measure-{index}.json")
    argv = [sys.executable, os.path.join(HERE, "measure.py"),
            "--workload", args.workload, "--fixture", fixture,
            "--seconds", repr(seconds), "--trace", str(trace), "--out", out]
    if trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        argv += ["--spans", os.path.join(WORK, "spans", f"{args.workload}.npz")]
    argv += ["--spawned-at", repr(now())]
    call(argv, deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(runs):
    """End-to-end metrics of the pooled ops, plus the record's op statistics.

    Op time is gated as mean op time over mean reference-kernel time of the
    same processes (measure.ReferenceKernel); raw seconds go to the record."""
    op_s = [t for run in runs for t in run["op_s"] if t is not None]
    if not op_s:
        return {}, {"op_samples": 0}
    reference_s = [t for run in runs for t in run["reference_s"]]
    quality = [q for run in runs for q in run["quality"] if math.isfinite(q)]
    tail_s, percentile, beyond = tail(op_s)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "op_mean_ref": (statistics.fmean(op_s) / statistics.fmean(reference_s), "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "track_corr": (statistics.median(quality), "ratio"),
    }
    detail = {"op_samples": len(op_s), "op_mean_s": statistics.fmean(op_s),
              "op_p50_s": statistics.median(op_s), "op_min_s": min(op_s),
              "op_tail_s": tail_s, "op_tail_percentile": percentile,
              "op_tail_beyond": beyond,
              "reference_mean_s": statistics.fmean(reference_s),
              "setups_s": [r["setup_s"] for r in runs],
              "ops_s": [r["op_s"] for r in runs],
              "references_s": [r["reference_s"] for r in runs]}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description="enfcapon benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    start = now()
    deadline = start + RUN_DEADLINE_S
    root = os.getcwd()

    if not os.path.isfile(os.path.join(root, "src", "enfcapon", "__init__.py")):
        print(f"no enfcapon package under {root}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    fixture = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        call([sys.executable, os.path.join(HERE, "fixtures.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--out", fixture, "--size", args.size], deadline)
        with open(os.path.join(fixture, "params.json"), encoding="utf-8") as fh:
            params = json.load(fh)
        if args.trace:
            runs = [measure(args, fixture, deadline, 1, args.seconds, 0)]
            metrics = {k: tuple(v) for k, v in runs[0]["layer_metrics"].items()}
            detail = {"absent": runs[0]["absent"],
                      "traced_ops": len(runs[0]["traced_op_s"])}
        else:
            runs = [measure(args, fixture, deadline, 0,
                            args.seconds / SETUP_REPEATS, i)
                    for i in range(SETUP_REPEATS)]
            metrics, detail = end_to_end(runs)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(fixture, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fixture": params, "environment": environment(root),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "errors": [e for r in runs for e in r["errors"]],
        "package": runs[0]["package"], "thread_pins": runs[0]["pins"],
        "wall_s": now() - start, **detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if math.isfinite(value)},
    }
    record["result"] = result
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
