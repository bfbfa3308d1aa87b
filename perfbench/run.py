#!/usr/bin/env python3
"""catpoly benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gf-dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with the
library untouched.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, each a total over one pass of
the workload's jobs.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment, goes to ``.bench_out/BENCH_<workload>_seed<n>_trace<t>.json``
and a traced run's spans to ``.bench_out/spans_<workload>_seed<n>.tsv.gz``.
The exit code is 0 when every job's output was right, 1 when some job
failed, and 2 on a usage error or when the sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("gf-dense", "gf-master", "verify-cli")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed):
    """Interpreter, backend, machine and code the result was measured on."""
    import catpoly

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "catpoly").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": catpoly.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


def fresh_import_seconds(workloads):
    """Median time, at the reference host speed, of a fresh interpreter
    importing the package and the CLI."""
    cmd = [sys.executable, "-c", "import catpoly, catpoly.cli"]
    env = workloads.child_env()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)  # writes the bytecode caches
    times = []
    before = workloads.host_slowness()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        elapsed = perf_counter() - start
        after = workloads.host_slowness()
        times.append(elapsed / ((before + after) / 2))
        before = after
    return statistics.median(times)


def end_to_end(workloads, tally, setup_s, peak_rss_kib):
    mix = tally.mix_medians()
    return {
        "jobs_per_s": (tally.jobs_per_s(), "1/s"),
        "job_s.p50": (workloads.quantile(mix, 0.5), "s"),
        "job_s.p90": (workloads.quantile(mix, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kib * 1024 / 1e6, "MB"),
    }


def as_measured(workloads, tally):
    """Wall-clock figures over every job, unscaled, for the record."""
    return {
        "jobs_per_s": tally.passed / sum(tally.seconds),
        "job_s.p50": workloads.quantile(tally.seconds, 0.5),
        "job_s.p90": workloads.quantile(tally.seconds, 0.9),
        "host_slowness.p50": workloads.quantile(tally.slowness, 0.5),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "catpoly" / "__init__.py").is_file():
        print(f"error: no catpoly sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: both need the library on sys.path
    import spans
    import workloads

    env = environment(args.seed)
    setup_start = perf_counter()
    batches = workloads.passes(args.workload, args.seed)
    if args.workload == "verify-cli":
        execute = workloads.run_verify_in_process if args.trace else workloads.run_verify_child
        check = workloads.check_verify
    else:
        execute = workloads.run_constructor
        check = workloads.SeriesChecker(workloads.load_reference())
    setup_s = perf_counter() - setup_start + fresh_import_seconds(workloads)

    if args.trace:
        tracer = spans.Tracer()
        plain, traced = workloads.measure_traced(batches, execute, check, args.seconds, tracer)
        constructors = [n for names in workloads.CONSTRUCTORS.values() for n in names]
        metrics = tracer.metrics(traced.passes, constructors)
        metrics["trace.overhead_ratio"] = (traced.jobs_per_s() / plain.jobs_per_s(), "ratio")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        samples = {"untraced_passes": plain.passes, "traced_passes": traced.passes,
                   "spans": len(tracer.start)}
    else:
        tally = workloads.measure(
            batches, execute, check, args.seconds, workloads.MIN_JOBS[args.workload]
        )
        who = resource.RUSAGE_CHILDREN if args.workload == "verify-cli" else resource.RUSAGE_SELF
        metrics = end_to_end(workloads, tally, setup_s, resource.getrusage(who).ru_maxrss)
        attempted, failed = tally.attempted, tally.failed
        samples = {"passes": tally.passes, "jobs": tally.attempted,
                   "distinct_jobs": len(set(tally.jobs)),
                   "wall_clock": as_measured(workloads, tally)}

    fail_ratio = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  {json.dumps(samples)}")
    print(f"environment {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {fail_ratio} ratio")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    if args.trace:
        tracer.write(OUT / f"spans_{stem}.tsv.gz")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["jobs"] = [
            {"job": list(job), "wall_s": s, "host_slowness": h}
            for job, s, h in zip(tally.jobs, tally.seconds, tally.slowness)
        ]
    (OUT / f"BENCH_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
