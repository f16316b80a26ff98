"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --launched UNIX_TIME [--setup-only] [--traced]

Imports numpy, scipy and qweyl, generates the workload's inputs from the
seed, runs every job once (timed), then checks every output outside the
timed region and writes its figures to DIR/result.json.  On a
pure-Python workload a fixed probe routine is timed between jobs, and
job times are scaled to the probe's nominal speed.  --launched is the
parent's clock when it started this process, so setup_s runs from
interpreter start to the first timed job.  run.py starts this script;
PYTHONPATH must name the checkout's src directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads the BLAS scipy links)

import qweyl
import tracing
import workloads


def blas_threads() -> dict:
    """Thread count in effect for each OpenBLAS this process loaded."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


# The interpreter speed of a small shared host switches between levels
# about 30% apart, for seconds to minutes at a time, as other tenants load
# its cores; pure-Python jobs follow it and BLAS-bound ones do not.  On a
# pure-Python workload the probe runs PROBE_REPEATS times back to back
# before a job whenever PROBE_INTERVAL_S of jobs have run since it last
# did, and once after the last job.  Each job is scaled by PROBE_NOMINAL_S
# over the probe's fastest time, averaged over the probes on either side
# of it: seconds at a fixed interpreter speed, the one at which the probe
# takes PROBE_NOMINAL_S.
PROBE_INTERVAL_S = 0.1
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 2e-3


def probe() -> dict:
    """Tuple-keyed dict updates with some rational arithmetic, like the
    rewriting code but sharing none of it, so no qweyl change moves it."""
    acc = {}
    for i in range(3000):
        key = (i % 17, i % 5)
        step = Fraction(i, 7) if i % 50 == 0 else i
        acc[key] = acc.get(key, 0) + step
    return acc


def probe_scale() -> float:
    fastest = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        probe()
        fastest = min(fastest, time.perf_counter() - t0)
    return PROBE_NOMINAL_S / fastest


def wake_blas() -> None:
    """Wake the BLAS threads before timing.  On a busy machine the first
    threaded LAPACK call of a process now and then stalls for about a
    second; this is numpy alone, not a qweyl warm-up."""
    m = np.random.default_rng(0).standard_normal((128, 128))
    np.linalg.eigvals(m + 0j)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qweyl": qweyl.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0])
    if not os.path.abspath(qweyl.__file__).startswith(src + os.sep):
        print(f"error: imported qweyl from {qweyl.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wake_blas()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    except workloads.RefusedSize as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {"setup_s": time.time() - args.launched}
    if args.setup_only:
        return _write(args.out, result)

    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    outcomes = []
    wall = []
    probes = []  # the scale each probe measured, in order
    before = []  # index of the last probe before each job
    since_probe = PROBE_INTERVAL_S
    for job_id, job in enumerate(workload.jobs):
        if workload.pure_python and since_probe >= PROBE_INTERVAL_S:
            probes.append(probe_scale())
            since_probe = 0.0
        if tracer is not None:
            tracer.job = job_id
        t0 = time.perf_counter()
        try:
            outcome = job.run()
        except Exception:  # a job that raises is a failed job
            outcome = traceback.format_exc()
        wall.append(time.perf_counter() - t0)
        since_probe += wall[-1]
        before.append(len(probes) - 1)
        outcomes.append(outcome)
    if workload.pure_python:
        probes.append(probe_scale())
        scales = [(probes[k] + probes[k + 1]) / 2 for k in before]
    else:
        scales = [1.0] * len(wall)
    result["wall_s"] = sum(wall)
    result["job_s"] = [t * k for t, k in zip(wall, scales)]
    result["total_s"] = sum(result["job_s"])
    result["probe_scale"] = statistics.median(scales)
    # on symbolic a job's latency is one word normalization's
    result["latency_jobs"] = ([i for i, job in enumerate(workload.jobs) if job.word]
                              or list(range(len(workload.jobs))))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(os.path.join(args.out, "spans.json"))

    failures = []
    for job, outcome in zip(workload.jobs, outcomes):
        if isinstance(outcome, str):
            failures.append([f"{job.name}: raised\n{outcome}"])
            continue
        try:
            failures.append(job.check(outcome))
        except Exception:  # e.g. a report the job should have written is missing
            failures.append([f"{job.name}: check raised\n{traceback.format_exc()}"])
    rerun = workload.jobs[workload.rerun]
    if not failures[workload.rerun] and not workloads.rerun_identical(rerun):
        failures[workload.rerun].append(f"{rerun.name}: rerun output differs")
    result["rerun_identical"] = not failures[workload.rerun]
    try:
        result["control_caught"] = workload.control(outcomes)
    except Exception:  # the control reads outputs a failed job may lack
        traceback.print_exc()
        result["control_caught"] = False
    result["attempted"] = len(workload.jobs)
    result["failed"] = sum(1 for msgs in failures if msgs)
    result["failures"] = [m for msgs in failures for m in msgs][:20]
    result["sizes"] = workload.sizes
    result["env"] = environment()
    return _write(args.out, result)


def _write(out, result) -> int:
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
