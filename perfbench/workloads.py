"""Workloads, job checks and the closed measuring loop of the benchmark.

Every workload is a closed loop with one client and no threads: the next
job starts only after the previous one has finished.  A pass is one
seeded permutation of every job of the workload, and a run is a whole
number of passes.  Every seed therefore runs the same multiset of jobs and
only their order changes, which keeps the latency percentiles of runs
with different seeds comparable.

gf-dense    ``sum_B``, ``sum_H``, ``prod_area``, ``prod_interior`` at
            orders 12-20.  Dense q-polynomials; the term kernel does
            about 95% of the work.
gf-master   ``master_pqv``, ``master_interior_qv`` at orders 12-20.  Sparse
            trivariate polynomials; ``MPoly`` substitutions, adds and
            compares in the fixed-point solver do most of the work.
verify-cli  ``python -m catpoly.cli verify`` with default flags, each job
            a fresh child process, which is what a user pays.  It has no
            random input: the seed is recorded but changes nothing.

Each job's output is checked after its timed region: a ``gf-*`` output
must match the digest in ``reference.json`` and pass one independent
route, and a ``verify-cli`` job must exit 0 with at least 18 checks
passed and none failed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from catpoly import cli, closedforms, gfs, words
from catpoly.mpoly import MPoly
from catpoly.words import WordClass

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")

ORDERS = range(12, 21)
CONSTRUCTORS = {
    "gf-dense": ("sum_B", "sum_H", "prod_area", "prod_interior"),
    "gf-master": ("master_pqv", "master_interior_qv"),
}
#: Jobs a run needs at least: every gf-* job is then timed three (gf-dense)
#: or six (gf-master) times.  A verify-cli job takes about 1.5 s, so 100
#: of them would not fit in a run; the count is reported.
MIN_JOBS = {"gf-dense": 100, "gf-master": 100, "verify-cli": 1}

VERIFY_ARGV = ["verify"]
MIN_VERIFY_PASSED = 18
CHILD_TIMEOUT_S = 120
_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) skipped$", re.MULTILINE)

#: The q-derivative at q=1 of the product forms equals these totals.
_Q_DERIVATIVE_TOTALS = {
    "prod_area": closedforms.u_closed,
    "prod_interior": closedforms.p_closed,
}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def passes(workload, seed):
    """Endless stream of passes, each a seeded permutation of the jobs."""
    if workload == "verify-cli":
        jobs = [("verify", None)]
    else:
        jobs = [(name, order) for name in CONSTRUCTORS[workload] for order in ORDERS]
    rng = random.Random(seed)
    while True:
        batch = list(jobs)
        rng.shuffle(batch)
        yield batch


# -- executing jobs -------------------------------------------------------------


def run_constructor(job):
    name, order = job
    # looked up at call time, so a traced install takes effect
    return getattr(gfs, name)(order)


def run_verify_child(job):
    proc = subprocess.run(
        [sys.executable, "-m", "catpoly.cli", *VERIFY_ARGV],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_verify_in_process(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(VERIFY_ARGV))
    return code, out.getvalue(), err.getvalue()


# -- checking outputs -------------------------------------------------------------


def check_verify(job, result):
    code, out, err = result
    summaries = _SUMMARY.findall(out)
    if code != 0 or not summaries:
        return f"exit {code}: {err.strip()[-500:]}"
    passed, failed, _skipped = map(int, summaries[-1])
    if passed < MIN_VERIFY_PASSED or failed:
        return f"summary {summaries[-1]}"
    return None


class SeriesChecker:
    """Checks a constructor's output against the reference digest and one
    independent route.  Returns None when the output is right, else why not."""

    def __init__(self, reference):
        self.reference = reference
        self._exponents = {}

    def exponents(self, key):
        """(p, q, v) exponents of a term key, decoded through public methods."""
        exps = self._exponents.get(key)
        if exps is None:
            single = MPoly({key: 1})
            exps = self._exponents[key] = tuple(single.degree(var) for var in "pqv")
        return exps

    def digest(self, series):
        """SHA-256 of every coefficient, terms sorted by their exponents."""
        h = hashlib.sha256(f"order {series.order}\n".encode())
        for n in range(series.order):
            terms = sorted(
                (self.exponents(key), c) for key, c in series.coeff(n).terms.items()
            )
            body = " ".join(f"{p},{q},{v}={c}" for (p, q, v), c in terms)
            h.update(f"{n}:{body}\n".encode())
        return h.hexdigest()

    def __call__(self, job, series):
        name, order = job
        if self.digest(series) != self.reference[name][str(order)]:
            return "digest differs from reference.json"
        return independent_route(name, order, series)


def independent_route(name, order, series):
    """All-ones specialisation against the counts, and for the product
    forms the q-derivative at q=1 against the closed-form totals."""
    if name in ("sum_B", "sum_H"):
        expected = lambda n: words.count_words(n, WordClass.CLASS_B)  # noqa: E731
    else:
        expected = closedforms.motzkin
    ones = series.eval_one("p").eval_one("q").eval_one("v")
    for n in range(1, order):
        if ones.coeff(n).as_scalar() != expected(n):
            return f"all-ones coefficient {n} differs from the count"
    closed = _Q_DERIVATIVE_TOTALS.get(name)
    if closed is not None:
        dq = series.derivative("q").eval_one("q")
        for n in range(1, order):
            if dq.coeff(n).as_scalar() != closed(n):
                return f"q-derivative at q=1, coefficient {n}, differs from the total"
    return None


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["digests"]


# -- the measuring loop --------------------------------------------------------------


#: Median time of ``host_slowness``'s task on the reference host, a
#: 2-core Intel Xeon running Python 3.11.7.
CALIBRATION_REF_S = 0.018

#: A job's slowness is the median over it and this many jobs on each side:
#: it follows the host's drift without chasing the noise of a single
#: calibration.
HOST_WINDOW = 2

_cal_rng = random.Random(20261017)
_CAL_A = {_cal_rng.randrange(1 << 40): _cal_rng.randrange(1, 1000) for _ in range(240)}
_CAL_B = {_cal_rng.randrange(1 << 40): _cal_rng.randrange(1, 1000) for _ in range(250)}


def host_slowness():
    """How many times slower than the reference host Python runs now.

    Times a fixed pure-Python sparse-dict multiply that uses nothing from
    catpoly, so no change to the library can move it.  The shared host
    this benchmark was built on changed speed by up to 4x within seconds,
    and by a third between runs a minute apart, for jobs and calibration
    alike.  Dividing a job's time by the slowness next to it cancels that,
    so runs minutes apart stay comparable.
    """
    start = perf_counter()
    acc = {}
    get = acc.get
    for k1, c1 in _CAL_A.items():
        for k2, c2 in _CAL_B.items():
            k = (k1 + k2) & 0x3FF
            cur = get(k)
            acc[k] = c1 * c2 if cur is None else cur + c1 * c2
    return (perf_counter() - start) / CALIBRATION_REF_S


@dataclass
class Tally:
    """Timings and outcomes of the jobs of one run (or one half of it)."""

    jobs: list = field(default_factory=list)  # each job run, in order
    seconds: list = field(default_factory=list)  # wall time of each job
    slowness: list = field(default_factory=list)  # host slowness around each job
    passed: int = 0
    failed: int = 0
    passes: int = 0

    @property
    def attempted(self):
        return self.passed + self.failed

    def job_seconds(self):
        """Job times at the reference host speed."""
        h, w = self.slowness, HOST_WINDOW
        return [s / statistics.median(h[max(0, i - w) : i + w + 1]) for i, s in enumerate(self.seconds)]

    def mix_medians(self):
        """Each distinct job's median time at the reference host speed."""
        by_job = {}
        for job, t in zip(self.jobs, self.job_seconds()):
            by_job.setdefault(job, []).append(t)
        return [statistics.median(ts) for ts in by_job.values()]

    def jobs_per_s(self):
        return self.passed / sum(self.job_seconds())


def quantile(times, fraction):
    """Inclusive quantile; the median for 0.5."""
    xs = sorted(times)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(fraction * 100) - 1]


def run_pass(batch, execute, check, tally, tracer=None):
    # each job is bracketed by calibrations and records their mean
    before = host_slowness()
    for job in batch:
        if tracer is not None:
            tracer.current_job = tally.attempted
        error = None
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            start = perf_counter()
            try:
                result = execute(job)
            except Exception:
                error = traceback.format_exc()
            elapsed = perf_counter() - start
        after = host_slowness()
        tally.jobs.append(job)
        tally.seconds.append(elapsed)
        tally.slowness.append((before + after) / 2)
        before = after
        if error is None:
            try:
                error = check(job, result)
            except Exception:
                error = traceback.format_exc()
        if error is None:
            tally.passed += 1
        else:
            tally.failed += 1
            print(f"job {job} failed: {error}", file=sys.stderr)
    tally.passes += 1


def measure(batches, execute, check, seconds, min_jobs):
    """Whole passes until ``seconds`` have gone and ``min_jobs`` are done."""
    tally = Tally()
    start = perf_counter()
    for batch in batches:
        run_pass(batch, execute, check, tally)
        if perf_counter() - start >= seconds and tally.attempted >= min_jobs:
            return tally


def measure_traced(batches, execute, check, seconds, tracer):
    """Alternating untraced and traced passes until ``seconds`` have gone.

    Every job runs in this process, so that it can be traced.  Returns
    (untraced tally, traced tally); their throughput ratio is the tracing
    overhead.
    """
    plain, traced = Tally(), Tally()
    start = perf_counter()
    while plain.passes == 0 or perf_counter() - start < seconds:
        run_pass(next(batches), execute, check, plain)
        run_pass(next(batches), execute, check, traced, tracer)
    return plain, traced
