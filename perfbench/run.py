"""finslerlab benchmark: one workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, geodesics, quadrature, cli (see workloads.py); ``--workload
all`` runs the four in turn, each in its own child process.  The run
builds nothing: it imports finslerlab from the checkout's ``src`` directory
and exits with code 2 if that is missing.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median of
three child processes that each start, import finslerlab and build the
workload's models.  After the workload's warm-up rounds, jobs run in rounds,
one caller, each job after the previous one returns, until ``--seconds`` have
passed and enough jobs have run for the workload's tail percentile.
``--trace 1`` runs half the time untraced, replays the same jobs with every
layer wrapped (tracing.py), and reports the per-layer metrics per job plus the
tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full record
(host, per-job times, errors) goes to perfbench/out/, with the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 3            # set-up samples per untraced run
MAX_LOOP_S = 150.0    # no round starts later than this after process start
LADDER = (50, 75, 90, 95, 99)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "FINSLERLAB_THREADS")
LOAD_SHAPE = ("single process, closed loop, one caller; library defaults, so at most "
              "nproc BLAS threads and no worker pool; the cli workload runs one child "
              "process at a time")
# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("work_per_s", "items/s", "higher"),
    ("job_s.p50", "s", "lower"),
    ("job_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
T0 = time.perf_counter()


def use_checkout_source():
    """Import finslerlab from <checkout>/src, or return None if it is not there."""
    if not (SRC / "finslerlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import finslerlab

    if Path(finslerlab.__file__).resolve().parent != SRC / "finslerlab":
        return None
    return finslerlab


def tail(times, max_pct):
    """(percentile, value): the highest ladder percentile <= max_pct with >= 10 jobs beyond it.

    Nearest-rank percentile.  Falls back to (50, median) when even p50 lacks
    ten jobs beyond it.
    """
    xs = sorted(times)
    n = len(xs)
    for pct in sorted((p for p in LADDER if p <= max_pct), reverse=True):
        k = max(math.ceil(pct * n / 100) - 1, 0)
        if n - 1 - k >= 10:
            return pct, xs[k]
    return 50, statistics.median(xs)


def min_jobs(pct):
    """Jobs needed so that the pct percentile has ten jobs beyond it."""
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


def measure(wl, state, rng, seconds, tracer=None, plan=None):
    """Run rounds of jobs; returns (plan, jobs) with jobs as dicts.

    Without ``plan``, rounds come from the workload until ``seconds`` have
    passed and the tail percentile has its jobs.  With ``plan``, exactly those
    rounds are replayed.
    """
    made = []
    jobs = []
    t_end = time.perf_counter() + seconds if seconds is not None else None
    index = 0
    while True:
        if plan is not None:
            if index >= len(plan):
                break
            specs = plan[index]
        else:
            now = time.perf_counter()
            if (now >= t_end and len(jobs) >= min_jobs(wl.tail_pct)) or now - T0 >= MAX_LOOP_S:
                break
            specs = wl.round(state, rng, index)
        made.append(specs)
        outputs = []
        for spec in specs:
            if tracer is not None:
                tracer.job = len(jobs)
            error = None
            out = None
            t0 = time.perf_counter()
            try:
                out = wl.run(state, spec)
            except Exception as exc:  # a job that raises is a failed job, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.job = -1
            outputs.append(out)
            work = 0
            if error is None:
                try:
                    work = wl.check(spec, out, outputs)
                except Exception as exc:
                    error = f"check: {type(exc).__name__}: {exc}"
            jobs.append({"round": index, "seconds": dt, "work": work, "error": error})
        index += 1
    return made, jobs


def warm_up(wl, state, rng, rounds):
    """Run ``rounds`` rounds before timing, so first-call costs stay out of the metrics.

    Their jobs are checked and counted as attempted like any other, but their
    times enter no metric.
    """
    jobs = []
    for index in range(rounds):
        jobs += measure(wl, state, rng, None, plan=[wl.round(state, rng, index)])[1]
    for j in jobs:
        j["warm_up"] = True
    return jobs


def rate(jobs, key):
    """Work (or jobs) done per second of job time, over the whole run."""
    total = sum(j["seconds"] for j in jobs)
    return (sum(j["work"] for j in jobs) if key == "work" else len(jobs)) / total


def setup_probe_s(workload):
    """Wall time from starting a child process until it has set the workload up."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe",
                           "--workload", workload], stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return dt


def import_probe_s():
    """Wall time of a bare ``python -c 'import finslerlab.cli'``."""
    from workloads import child_env

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import finslerlab.cli"], env=child_env(), check=True,
                   timeout=120)
    return time.perf_counter() - t0


def host_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "load_shape": LOAD_SHAPE,
    }


def untraced(wl, rng, seconds):
    setups = [setup_probe_s(wl.name) for _ in range(PROBES)]
    state = wl.setup(in_process=False)
    warm = warm_up(wl, state, rng, wl.warm_rounds)
    _, jobs = measure(wl, state, rng, seconds)
    times = [j["seconds"] for j in jobs]
    pct, tail_s = tail(times, wl.tail_pct)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": rate(jobs, "jobs"),
        "work_per_s": rate(jobs, "work"),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples_s": setups, "tail_percentile": pct}
    return metrics, warm + jobs, extra, None


def traced(wl, rng, seconds):
    from tracing import Tracer

    state = wl.setup(in_process=True)
    warm = warm_up(wl, state, rng, 1)  # in-process, so cli's commands warm up too
    plan, plain = measure(wl, state, rng, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(in_process=True)
        _, jobs = measure(wl, state, None, None, tracer=tracer, plan=plan)
    finally:
        tracer.uninstall()
    overhead = sum(j["seconds"] for j in jobs) / sum(j["seconds"] for j in plain)
    import_s = statistics.median(import_probe_s() for _ in range(PROBES)) if wl.name == "cli" else 0.0
    metrics = tracer.layer_metrics(len(jobs), overhead, import_s)
    return metrics, warm + plain + jobs, {"untraced_jobs": len(plain)}, tracer


def run_all(names, args):
    """Each workload in turn, each in its own child process; one summary line at the end."""
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="sweep, geodesics, quadrature, cli or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if use_checkout_source() is None:
        print(f"error: finslerlab sources not found under {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    from workloads import WORKLOADS

    if args.workload == "all" and not args.probe:
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    if args.probe:
        wl.setup(in_process=False)
        print("ready", flush=True)
        return 0

    names = list(WORKLOADS)
    rng = np.random.default_rng([args.seed, names.index(wl.name)])
    run = traced if args.trace else untraced
    metrics, jobs, extra, tracer = run(wl, rng, args.seconds)
    failed = [j for j in jobs if j["error"] is not None]
    if args.trace:
        from tracing import PER_LAYER as defs
    else:
        defs = END_TO_END
    units = {name: unit for name, unit, _ in defs}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host_record(), "work_unit": wl.unit, "tail_limit_pct": wl.tail_pct, **extra,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(jobs), "failed": len(failed),
        "failed_ratio": len(failed) / len(jobs), "jobs": jobs,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_name(stem.name + "-spans.csv.gz"))

    print(f"host {json.dumps(record['host'], sort_keys=True)}")
    for j in failed[:5]:
        print(f"failed job (round {j['round']}): {j['error']}")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    if not args.trace:
        throughput = {"samples": "samples_per_s", "steps": "steps_per_s", "jobs": "jobs_per_s"}
        print(f"{wl.name} {throughput[wl.unit]} {metrics['work_per_s']:.6g} {wl.unit}/s "
              f"(= work_per_s)")
        print(f"{wl.name} job_s.tail is p{extra['tail_percentile']} of {len(jobs)} jobs")
    print(f"{wl.name} failed_ratio {len(failed) / len(jobs):.6g} ratio "
          f"({len(failed)} of {len(jobs)} jobs)")
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
