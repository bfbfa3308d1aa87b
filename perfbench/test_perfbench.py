"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (needs the library on sys.path)
import workloads  # noqa: E402
from catpoly import backend, gfs, words  # noqa: E402
from catpoly.mpoly import MPoly  # noqa: E402
from catpoly.series import Series  # noqa: E402

EXACT_COUNTS = (
    "kernel.calls",
    "kernel.pair_visits",
    "kernel.new_terms",
    "mpoly.subst_v_to_q.calls",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def traced_metrics(seed):
    proc = run_bench("--workload", "gf-master", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_traced_counts_repeat_exactly():
    first, second = traced_metrics(7), traced_metrics(7)
    for name in EXACT_COUNTS:
        assert first[name]["value"] > 0
        assert first[name] == second[name], name


def corrupted(series):
    out = series.copy()
    out.coeffs[5] = out.coeffs[5] + MPoly.monomial(1, 0, 3, 0)
    return out


def test_corrupted_coefficient_fails_the_check():
    checker = workloads.SeriesChecker(workloads.load_reference())
    job = ("sum_B", 12)
    good = gfs.sum_B(12)
    assert checker(job, good) is None
    assert checker(job, corrupted(good)) is not None
    # the independent route alone also catches it
    assert workloads.independent_route("sum_B", 12, corrupted(good)) is not None


def test_corrupted_output_raises_fail_ratio():
    checker = workloads.SeriesChecker(workloads.load_reference())
    jobs = [("sum_B", 12), ("sum_H", 12)]

    honest = workloads.Tally()
    workloads.run_pass(jobs, workloads.run_constructor, checker, honest)
    assert (honest.attempted, honest.failed) == (2, 0)

    def corrupting(job):
        series = workloads.run_constructor(job)
        return corrupted(series) if job[0] == "sum_H" else series

    broken = workloads.Tally()
    workloads.run_pass(jobs, corrupting, checker, broken)
    assert broken.failed / broken.attempted == 0.5


def test_tracer_restores_the_library():
    originals = (backend.mul_into, gfs.sum_B, words.enumerate_words, MPoly.mul, Series.__mul__)
    tracer = spans.Tracer()
    with tracer.installed():
        assert backend.mul_into is not originals[0]
        assert gfs.sum_B is not originals[1]
        gfs.sum_B(6)
        list(words.enumerate_words(4))
    assert (backend.mul_into, gfs.sum_B, words.enumerate_words, MPoly.mul, Series.__mul__) == originals
    metrics = tracer.metrics(1, ["sum_B"])
    assert metrics["gfs.sum_B.calls"] == (1, "count")
    assert metrics["words.enumerated"] == (9, "count")
    assert metrics["kernel.calls"][0] > 0


def test_scaling_and_per_job_medians():
    tally = workloads.Tally(
        jobs=[("a", 1), ("b", 1), ("a", 1), ("b", 1)],
        seconds=[1.0, 3.0, 2.0, 5.0],
        slowness=[0.5] * 4,  # the host ran twice as fast as the reference
        passed=4,
    )
    assert tally.job_seconds() == [2.0, 6.0, 4.0, 10.0]
    assert tally.mix_medians() == [3.0, 8.0]
    assert tally.jobs_per_s() == 4 / 22
    assert workloads.quantile(tally.mix_medians(), 0.5) == 5.5


def test_fails_without_the_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "gf-dense", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
