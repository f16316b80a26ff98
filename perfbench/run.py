"""Benchmark of the qweyl verification pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it benchmarks the qweyl under src/.
Workloads (closed loop: one client, the next job starts when the last
one returns; BLAS limited to nproc threads):

  symbolic        1,000 seeded words over X1..d3, length 4..10, each
                  normalized as one job, then the CLI verify-algebra
                  --degree 8, expand-scan and effective.
  spectrum-sweep  CLI spectrum and mixing at n_max 6, 8, 10, 12 (theta
                  0.01, paper mode); at n_max 10 also the H1 elements at
                  quanta <= 3, cross-checked by Gauss-Hermite quadrature.
  evolve-long     CLI evolve at its defaults (n_max 10, T 5, dt 1e-3,
                  5,000 steps), then evolve --decay-oracle.

Each pass runs in a fresh process (worker.py): imports, generates the
inputs from the seed, runs every job once under the clock, then checks
every output against an oracle outside the timed region.  Passes repeat
until --seconds have been measured and at least MIN_PASSES have run, so
that each job's median has three samples even on spectrum-sweep, whose
pass takes about 17 s; extra set-up-only processes give more set-up
samples.  Each job's time is its median over the passes, and the
metrics are taken from these medians:

  setup_s      interpreter start to the first timed job (imports of
               numpy, scipy and qweyl, input generation); median over
               set-up-only processes and passes
  total_s      one pass over the workload's jobs: the sum of their times
  job_p50_s    single-job latency: a word normalization on symbolic
  job_p99_s    (1,000 samples); elsewhere a job is spectrum plus mixing
               at one n_max (with the quadrature check at n_max 10) or
               one evolve command (4 and 2 samples, so p50 there is the
               mean of the middle two and p99 nears the slowest)
  peak_rss_mb  ru_maxrss of the pass process after its timed jobs,
               median over passes

symbolic is pure Python, and on a small shared host pure-Python speed
switches between levels about 30% apart for seconds to minutes at a
time, which no affordable run length averages out.  There the worker
times a fixed probe routine between jobs and scales the jobs around it
to the probe's nominal speed (worker.PROBE_NOMINAL_S), so its times are
seconds at a fixed interpreter speed; the summary line gives the
unscaled wall times too.  The dense workloads do not follow the probe
and are unscaled.

Failed jobs (a wrong output, exit code or rerun) are the result's
"failed" out of "attempted"; the summary line gives their fraction.
Each workload also feeds one check a deliberately wrong expectation; if
that check passes, the result is not correct.  With --trace 1 one more
pass runs with every public qweyl function wrapped (tracing.py) and the
metrics are per layer, with trace.overhead_s the traced minus the
median untraced total_s.

The last line of stdout is the JSON result; the lines before it stamp
the environment and summarize the run.  Outputs go to a temporary
directory under .perfbench_runs/ that is removed at the end; a traced
run leaves its spans there as <workload>-seed<N>.spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("symbolic", "spectrum-sweep", "evolve-long")
SETUP_ONLY_RUNS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("job_p50_s", "s"),
              ("job_p99_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def run_worker(args, run_dir: Path, tag: str, deadline: float, *flags) -> dict:
    out = run_dir / tag
    out.mkdir()
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ,
               PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=nproc,
               OMP_NUM_THREADS=nproc)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before pass {tag}")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out), *flags, "--launched", repr(time.time())]
    with subprocess.Popen(cmd, env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL) as proc:
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {tag} did not finish in time") from None
        finally:
            if proc.poll() is None:  # timed out, interrupted or terminated
                proc.kill()
                proc.wait()
    if code != 0:
        raise BenchError(f"pass {tag} exited with code {code}")
    with open(out / "result.json") as fh:
        return json.load(fh)


def measure(args, run_dir: Path) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_worker(args, run_dir, f"setup{k}", deadline, "--setup-only")
              for k in range(SETUP_ONLY_RUNS)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(run_worker(args, run_dir, f"pass{len(passes)}", deadline))
    traced = None
    if args.trace:
        traced = run_worker(args, run_dir, "traced", deadline, "--traced")
        spans = f"{args.workload}-seed{args.seed}.spans.json"
        shutil.copyfile(run_dir / "traced" / "spans.json", run_dir.parent / spans)
    return setups, passes, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qweyl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running pass is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qweyl" / "cli.py").is_file():
        print(f"error: no qweyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        setups, passes, traced = measure(args, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    controls = all(p["control_caught"] for p in checked)
    job_s = [statistics.median(times) for times in zip(*(p["job_s"] for p in passes))]
    latencies = [job_s[i] for i in passes[0]["latency_jobs"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    median = {
        "setup_s": statistics.median([s["setup_s"] for s in setups]
                                     + [p["setup_s"] for p in passes]),
        "total_s": sum(job_s),
        "job_p50_s": cuts[49],
        "job_p99_s": cuts[98],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    if traced:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.total_s"] = {"value": traced["total_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced["total_s"] - median["total_s"], "unit": "s"}
    else:
        metrics = {name: {"value": median[name], "unit": unit}
                   for name, unit in END_TO_END}

    print("env " + json.dumps(passes[0]["env"], sort_keys=True))
    print("summary " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "sizes": passes[0]["sizes"],
        "passes": len(passes),
        "setup_samples": len(setups) + len(passes),
        "jobs_per_pass": passes[0]["attempted"],
        "latency_samples": len(latencies),
        "total_s_per_pass": [p["total_s"] for p in passes],
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "probe_scale_per_pass": [p["probe_scale"] for p in passes],
        "failed_frac": failed / attempted,
        "failures": [m for p in checked for m in p["failures"]][:20],
        "negative_controls_caught": controls,
        "rerun_identical": all(p["rerun_identical"] for p in checked),
    }))
    print(json.dumps({"correct": failed == 0 and controls,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
