"""Cross-verification suite tying every module against every other.

Each check recomputes one family of results along two independent routes
(closed form vs series, DP vs enumeration, bijection vs generating
function, ...) and reports pass/fail/skipped.  A check whose range of n
or orders is empty under the flags reports skipped, never a vacuous pass.
The suite is deterministic: same flags, same statuses and details; only
each check's wall time (``CheckResult.seconds``) varies.

Every check reads its series and its words from one ``_Context`` per run.
Each series is built once, at the largest order any check reads it, and a
check that needs a lower order reads its leading coefficients.  The word
census holds each (length, class) of one ``enumerate_words`` call as
letter tuples, and the ``StatRecord``s of one length come from one map
over each statistic's formula.  The census is checked a whole length at a
time: the grid oracles, the Dyck roundtrip and the bijections' images
are computed as lists and compared with the formulas' lists, histograms
are counted by statistic value, and only a length whose lists differ is
walked word by word, to name its first failing word.  The bijection check
memoizes each bijection once for all lengths.  The statistic tables are
built once, at the largest n any check reads.  Nothing outlives the run.

The run builds the whole census and the tables first, then forks once.
The child runs ``CHILD_CHECKS``: the checks of the words, the bijections,
the tables and the closed forms.  They read no series, so each series is
built in the parent alone, and their seconds are about half the checks'
total (19 of 39 ms at the default flags; 2 cores, Python 3.11).  The
child sends its ``CheckResult``s back over a pipe with ``marshal`` and
leaves through ``os._exit``, flushing nothing it inherited.  The parent
runs the other checks, reads the pipe, reaps the child before
``run_verify`` returns or raises, and merges the results in
``_build_checks`` order.  A child that dies fails each of its checks,
with its exit status in the detail.  Without ``os.fork``, with one CPU to
run on, or with another thread alive (a fork copies no thread but its
own), every check runs in this process, in order.  Each check's
``seconds`` is wall time in the process that ran it.

A ``max_n`` above ``MAX_N_LIMIT`` is refused before any check runs.  A
check that raises fails, except for ``ResourceLimit``: a run that asks
for more than a limit allows stops there, and ``run_verify`` raises it,
the first in check order if both processes hit one.
"""

import marshal
import os
import threading
from collections import Counter
from functools import partial
from itertools import repeat
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable, List, NamedTuple, Tuple

from . import bijections, closedforms, gfs, tables, words
from .backend import pack
from .errors import ResourceLimit
from .mpoly import MPoly
from .series import Series
from .words import StatRecord, WordClass, _word_text


#: Length past which the enumeration halves of the totals, the tables
#: and the bijections stop
ENUM_TOP = 12

#: Size of the run's tables: the largest n any check reads them at
TABLE_TOP = 30

#: The checks the forked child runs, in check order (see the docstring)
CHILD_CHECKS = (
    "counts_match_closed_form", "enumeration_cardinalities", "dyck_roundtrip",
    "trinomial_forms", "table_c_checks", "stat_tables", "recurrence_audit",
    "bijection_checks", "asymptotic_diagnostics",
)

#: Largest ``max_n`` accepted: the largest whose whole ``catpoly verify
#: --max-n N`` process, at the default order, took under 1 s (0.68 s at 13,
#: 1.65 s at 14; 2 cores, Python 3.11)
MAX_N_LIMIT = 13


class CheckResult(NamedTuple):
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""
    seconds: float = 0.0  # wall time of the check


class VerifyReport:
    """The flags of one run and its checks, appended as they finish."""

    __slots__ = ("max_n", "max_order", "checks")

    def __init__(self, max_n: int, max_order: int):
        self.max_n = max_n
        self.max_order = max_order
        self.checks: List[CheckResult] = []

    @property
    def exit_code(self):
        return 1 if any(c.status == "fail" for c in self.checks) else 0

    def counts(self):
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out


class _Context:
    """One run's shared state: its series, its word census and its tables,
    each built once.

    ``series`` builds every series once, at the largest order any check of
    the run reads it (``orders``, set by ``_build_checks``); a check that
    needs a lower order reads a slice of its leading coefficients.  Series
    equality ignores the caps, and every cap is one that cuts no genuine
    term, so a slice equals the series built at its own order.

    The census holds the words of each (length, class) as letter tuples,
    from one ``enumerate_words`` call.  The ``StatRecord``s of the avoiding
    words of one length are built together, by one map over each
    statistic's formula; the rising-tail words are avoiding words, so
    theirs are looked up.  ``record`` answers for any census word.
    ``build_census`` builds the whole census and the run's tables before
    any check runs, so that both processes of a split run read them.
    """

    def __init__(self, max_n, max_order):
        self.max_n = max_n
        self.max_order = max_order
        self.orders = {}
        self._cache = {}
        self._records = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def series(self, name, order):
        """``gfs.<name>(order)``, read off the run's one build of it."""
        top = self.orders[name]
        if name == "cf_C_last":  # built on the run's Motzkin series
            build = lambda: gfs._last_letter_form(self.series("gf_motzkin", top))
        else:
            build = partial(getattr(gfs, name), top)
        return _leading(self.get(name, build), order)

    def paper_form(self, name, order):
        """``gfs.paper_form(name, order)``, built at the order of its DP twin."""
        build = partial(gfs.paper_form, name, self.orders[name])
        return _leading(self.get(("paper_form", name), build), order)

    def build_census(self):
        """Build the words, records and unequal-adjacent sets the checks
        read, and the run's tables (the length-4 words of a run below
        max_n 4 are left to length4_catalog, their one reader)."""
        for n in range(self.max_n + 1):
            self.words_of(n)
            self.words_of(n, WordClass.CLASS_B)
            if n:  # the empty word has no statistics
                self.records_of(n, WordClass.CLASS_B)  # and the avoiding words' records
        for n in range(min(self.max_n, ENUM_TOP) + 2):
            self.unequal_adjacent(n)
        self.run_tables()

    def run_tables(self):
        """The c table and the statistic tables, by name, at ``TABLE_TOP``."""
        return self.get("tables", lambda: {
            "c": tables.table_c(TABLE_TOP),
            **{stat: tables.table_stat(TABLE_TOP, stat) for stat in tables.STATS},
        })

    def words_of(self, n, cls=WordClass.AVOID_GEQ_GEQ):
        """The words of length n in the class, as letter tuples, in order."""
        return self.get(
            ("words", n, cls),
            lambda: [w.letters for w in words.enumerate_words(n, cls)],
        )

    def unequal_adjacent(self, n):
        """Every unequal-adjacent word of length n, as a set of letter tuples."""
        return self.get(
            ("unequal", n),
            lambda: frozenset(
                w.letters for w in words.enumerate_words(n, WordClass.AVOID_NEQ_ADJACENT)
            ),
        )

    def record(self, letters):
        """The ``StatRecord`` of an avoiding word of the census."""
        if letters not in self._records:
            self.records_of(len(letters))
        return self._records[letters]

    def records_of(self, n, cls=WordClass.AVOID_GEQ_GEQ):
        """Statistics of ``words_of(n, cls)``, in the same order."""
        return self.get(("records", n, cls), lambda: self._build_records(n, cls))

    def _build_records(self, n, cls):
        if cls is WordClass.CLASS_B:  # rising-tail words are avoiding words
            self.records_of(n)
            return list(map(self._records.__getitem__, self.words_of(n, cls)))
        ws = self.words_of(n, cls)
        # the formulas are looked up now, so a patched one reaches the checks
        recs = list(map(
            StatRecord, repeat(n), map(words.stat_area, ws), map(words.stat_sper, ws),
            map(words.stat_inter, ws), map(itemgetter(-1), ws),
        ))
        self._records.update(zip(ws, recs))
        return recs


def _leading(s, order):
    """The series s cut to its coefficients below x^order."""
    return s if s.order == order else Series(order, s.coeffs[:order], s.caps)


def _q_histogram(records, stat):
    """``records`` counted by ``stat``, as a polynomial in q."""
    counts = Counter(map(attrgetter(stat), records))
    return MPoly({pack(0, value, 0): k for value, k in counts.items()})


def run_verify(max_n: int = 10, max_order: int = 20) -> VerifyReport:
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if max_n > MAX_N_LIMIT:
        raise ResourceLimit(f"max_n {max_n} exceeds the verify limit {MAX_N_LIMIT} (about 1 s of work)")
    ctx = _Context(max_n, max_order)
    checks = _build_checks(ctx)
    try:
        ctx.build_census()
    except ResourceLimit:
        raise
    except Exception:  # a broken census fails, below, each check that reads it
        pass
    results = _run_split(checks) if _can_split() else _run_checks(checks)
    report = VerifyReport(max_n, max_order)
    by_name = {r[0]: r for r in results}
    for name, _fn in checks:
        # a check missing from the results comes after a limit in its process
        result = by_name[name]
        if len(result) == 2:
            raise ResourceLimit(result[1])
        report.checks.append(CheckResult(*result))
    return report


def _run_checks(checks):
    """The results of the checks, in order.  A ``ResourceLimit`` ends the
    list with (name, message) of the check that raised it."""
    out = []
    for name, fn in checks:
        start = perf_counter()
        try:
            status, detail = fn()
        except ResourceLimit as exc:
            out.append((name, str(exc)))
            break
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", f"exception: {type(exc).__name__}: {exc}"
        out.append(CheckResult(name, status, detail, perf_counter() - start))
    return out


def _can_split():
    """Whether a forked process would run beside this one: there is a
    second CPU to run it on, and no other thread whose state a fork would
    copy half-done."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _run_split(checks):
    """``_run_checks`` over the checks, those of ``CHILD_CHECKS`` in a forked
    child, which sends its results back through a pipe and is reaped here."""
    mine = [c for c in checks if c[0] not in CHILD_CHECKS]
    theirs = [c for c in checks if c[0] in CHILD_CHECKS]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns, nor flushes what it inherited
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps([tuple(r) for r in _run_checks(theirs)]))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        results = _run_checks(mine)
        data = pipe.read()
    finally:
        pipe.close()  # a child still writing stops on the closed pipe
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        died = (
            f"the check process ended with exit status {code}" if code > 0
            else f"the check process was killed by signal {-code}"
        )
        return results + [CheckResult(name, "fail", died) for name, _fn in theirs]
    return results + marshal.loads(data)


def _build_checks(ctx) -> List[Tuple[str, Callable]]:
    max_n = ctx.max_n
    max_order = ctx.max_order
    # the orders the checks read series at; each series is built once, at
    # the largest order it is read at (``_Context.series``)
    top = min(max_order, 30)  # the totals and their derivative identities
    dense = min(max_order, 13)  # the area and interior series
    low = min(max_order, 12)  # the closed forms against the masters
    enum_top = min(max_n, ENUM_TOP)
    ctx.orders = {
        "gf_motzkin": max(max_order, top + 1),
        "gf_trinomial": max_order,
        **dict.fromkeys(("gf_h", "gf_s", "gf_u", "gf_p", "cf_S", "cf_C_last"), top + 1),
        **dict.fromkeys(("sum_B", "sum_H", "prod_area", "prod_interior"), dense),
        **dict.fromkeys(("cf_C_sper_v", "cf_B_contfrac", "master_interior_qv"), low),
        "master_pqv": max(max_n + 1, low),
        "kernel_root_v0": max_order,
    }

    def counts_match_closed_form():
        counts = words.word_counts(30, WordClass.AVOID_GEQ_GEQ)
        for n in range(31):
            if counts[n] != closedforms.motzkin(n):
                return "fail", f"count({n}) != motzkin({n})"
        counts = words.word_counts(14, WordClass.AVOID_NEQ_ADJACENT)
        for n in range(1, 15):
            if counts[n] != closedforms.motzkin(n - 1):
                return "fail", f"unequal-adjacent count({n}) != motzkin({n - 1})"
        return "pass", "counts match Motzkin numbers for n <= 30 (and shifted for n <= 14)"

    def enumeration_cardinalities():
        b_counts = words.word_counts(max_n, WordClass.CLASS_B)
        for n in range(max_n + 1):
            ws = ctx.words_of(n)
            if len(ws) != closedforms.motzkin(n):
                return "fail", f"|enumerate({n})| = {len(ws)} != m_{n}"
            if len(set(ws)) != len(ws):
                return "fail", f"duplicates at n={n}"
            if ws != sorted(ws):
                return "fail", f"not lexicographic at n={n}"
            b = ctx.words_of(n, WordClass.CLASS_B)
            if len(b) != b_counts[n]:
                return "fail", f"B-count mismatch at n={n}"
            if set(b) != {w for w in ws if len(w) < 2 or w[-2] < w[-1]}:
                return "fail", f"B-membership mismatch at n={n}"
        return "pass", f"cardinalities and order agree for n <= {max_n}"

    def length4_catalog():
        expected = ["0010", "0011", "0012", "0101", "0112", "0120", "0121", "0122", "0123"]
        got = list(map(_word_text, ctx.words_of(4)))
        if got != expected:
            return "fail", f"got {got}"
        return "pass", "the 9 length-4 words are reproduced exactly"

    def statistic_oracles():
        if max_n < 1:
            return "skipped", "needs max_n >= 1"
        flagship = words.CatalanWord.parse("00123223401011")
        rec = words.stat_record(flagship)
        if (rec.area, rec.sper, rec.inter) != (34, 22, 13):
            return "fail", f"flagship statistics {rec}"
        for n in range(1, max_n + 1):
            ws, recs = ctx.words_of(n), ctx.records_of(n)
            oracles = list(map(words.grid_oracles, ws))
            if oracles == list(map(attrgetter("sper", "inter"), recs)):
                continue
            for w, rec, (sper, inter) in zip(ws, recs, oracles):
                if rec.sper != sper:
                    return "fail", f"sper mismatch at {_word_text(w)}"
                if rec.inter != inter:
                    return "fail", f"inter mismatch at {_word_text(w)}"
        return "pass", f"formulas agree with geometric oracles for all n <= {max_n}"

    def dyck_roundtrip():
        if max_n < 1:
            return "skipped", "needs max_n >= 1"
        for n in range(1, max_n + 1):
            ws = ctx.words_of(n)
            paths = list(map(words.to_dyck, ws))
            if len(set(paths)) == len(paths) and set(map(len, paths)) == {2 * n}:
                try:
                    if [w.letters for w in map(words.from_dyck, paths)] == ws:
                        continue
                except ValueError:  # a path from_dyck refuses: found below
                    pass
            seen = set()
            for w, path in zip(ws, paths):
                if len(path) != 2 * n or path in seen:
                    return "fail", f"bad path for {_word_text(w)}"
                seen.add(path)
                if words.from_dyck(path).letters != w:
                    return "fail", f"roundtrip failed for {_word_text(w)}"
        return "pass", f"Dyck conversion is injective and invertible for n <= {max_n}"

    def base_series():
        if max_order < 2:
            return "skipped", "needs max_order >= 2"
        m = ctx.series("gf_motzkin", max_order)
        t = ctx.series("gf_trinomial", max_order)
        for n in range(max_order):
            if m.coeff(n).as_scalar() != closedforms.motzkin(n):
                return "fail", f"Motzkin series at {n}"
            if t.coeff(n).as_scalar() != closedforms.trinomial(n):
                return "fail", f"trinomial series at {n}"
        return "pass", f"Motzkin/trinomial series match closed forms below order {max_order}"

    def totals_series_match():
        # below max_order 2 the series and DP would compare n = 1 only
        series_top = top if max_order >= 2 else 0
        if not series_top and not enum_top:
            return "skipped", "needs max_order >= 2 or max_n >= 1"
        if series_top:
            for key in "hsup":
                ser = ctx.series(f"gf_{key}", top + 1)
                if ser.coeff(0).as_scalar() != 0:
                    return "fail", f"{key}-series has nonzero constant term"
                for n in range(1, top + 1):
                    if ser.coeff(n).as_scalar() != closedforms.closed_total(key, n):
                        return "fail", f"{key}({n}) series != closed form"
            dp = tables.totals(top, ctx.run_tables())
            for key, seq in (("h", dp.h), ("s", dp.s), ("u", dp.u), ("p", dp.p)):
                for n in range(1, top + 1):
                    if seq[n] != closedforms.closed_total(key, n):
                        return "fail", f"{key}({n}) DP != closed form"
        stat_fields = {"h": "last", "s": "sper", "u": "area", "p": "inter"}
        for n in range(1, enum_top + 1):
            records = ctx.records_of(n)
            for key, stat in stat_fields.items():
                if sum(map(attrgetter(stat), records)) != closedforms.closed_total(key, n):
                    return "fail", f"{key}({n}) enumeration != closed form"
        halves = f"series/DP to n <= {top}" if series_top else "series/DP skipped, needs max_order >= 2"
        return "pass", f"four totals agree ({halves}, enumeration to n <= {enum_top})"

    def trinomial_forms():
        # the printed rows and the derived ones share nothing but the
        # trinomials; the series route shares the table, so the DP and
        # enumeration halves of totals_series_match stay its independent check
        for name, printed in closedforms.TRINOMIAL_FORMS.items():
            derived = gfs.trinomial_form(name)
            if derived != (*printed, 0):
                return "fail", f"{name}: derived row {derived} != printed {printed} and no (-1)^n"
        a, b, d = gfs.trinomial_form("M")
        for n in range(301):
            if closedforms.trinomial_sum((a, b), n) + d * (-1) ** n != 2 * closedforms.motzkin(n):
                return "fail", f"M: derived row {a}, {b}, {d} gives 2 m_{n} wrong"
        return "pass", "derived rows equal the printed h, s, u, p forms; M's row gives m_n for n <= 300"

    def master_histograms():
        if max_n < 1:
            return "skipped", "needs max_n >= 1"
        master = ctx.series("master_pqv", max_n + 1)
        for n in range(1, max_n + 1):
            hist = Counter(map(attrgetter("sper", "area", "last"), ctx.records_of(n)))
            if master.coeff(n) != MPoly({pack(*key): k for key, k in hist.items()}):
                return "fail", f"histogram mismatch at n={n}"
        return "pass", f"master series equals the (sper, area, last) histograms for n <= {max_n}"

    def master_specializations():
        if max_order < 2:
            return "skipped", "needs max_order >= 2"
        order = low
        at_q1 = ctx.series("master_pqv", order).eval_one("q")
        if at_q1 != ctx.series("cf_C_sper_v", order):
            return "fail", "master at q=1 != closed semiperimeter/last form"
        if at_q1.eval_one("v") != ctx.series("cf_S", order):
            return "fail", "master at q=v=1 != closed semiperimeter form"
        if at_q1.eval_one("p") != ctx.series("cf_C_last", order):
            return "fail", "master at p=q=1 != closed last-letter form"
        plain = at_q1.eval_one("p").eval_one("v")
        for n in range(1, order):
            if plain.coeff(n).as_scalar() != closedforms.motzkin(n):
                return "fail", f"master at p=q=v=1 != m_{n}"
        if order > 4:
            if ctx.series("cf_C_last", 5).coeff(4) != MPoly({0: 2, 1: 3, 2: 3, 3: 1}):
                return "fail", "last-letter x^4 coefficient != v^3+3v^2+3v+2"
            expected_s = (
                MPoly.monomial(2, 6, 0, 0)
                + MPoly.monomial(6, 7, 0, 0)
                + MPoly.monomial(1, 8, 0, 0)
            )
            if ctx.series("cf_S", 5).coeff(4) != expected_s:
                return "fail", "semiperimeter x^4 coefficient != 2p^6+6p^7+p^8"
        return "pass", f"closed forms equal master specializations to order {order}"

    def area_series():
        order = dense
        top_n = min(max_n, order - 1)
        if top_n < 1:
            return "skipped", "needs max_n >= 1 and max_order >= 2"
        b = ctx.series("sum_B", order)
        for n in range(1, top_n + 1):
            if b.coeff(n) != _q_histogram(ctx.records_of(n, WordClass.CLASS_B), "area"):
                return "fail", f"rising-tail area mismatch at n={n}"
        if b != ctx.paper_form("sum_B", order):
            return "fail", "rising-tail area DP != ratio of sums"
        if ctx.series("cf_B_contfrac", low) != ctx.paper_form("sum_B", low):
            return "fail", "continued fraction != sum form"
        pa = ctx.series("prod_area", order)
        if pa != ctx.paper_form("prod_area", order):
            return "fail", "area DP != product form"
        for n in range(1, top_n + 1):
            if pa.coeff(n) != _q_histogram(ctx.records_of(n), "area"):
                return "fail", f"area histogram mismatch at n={n}"
        at_one = pa.eval_one("q")
        for n in range(1, order):
            if at_one.coeff(n).as_scalar() != closedforms.motzkin(n):
                return "fail", f"area series at q=1 != m_{n}"
        if order > 5 and pa.coeff(5).coefficient(0, 9, 0) != 5:
            return "fail", "x^5 area coefficient lacks 5q^9"
        return "pass", f"area generating functions cross-check to n <= {top_n}"

    def interior_series():
        order = dense
        top_n = min(max_n, order - 1)
        if top_n < 1:
            return "skipped", "needs max_n >= 1 and max_order >= 2"
        h = ctx.series("sum_H", order)
        for n in range(1, top_n + 1):
            if h.coeff(n) != _q_histogram(ctx.records_of(n, WordClass.CLASS_B), "inter"):
                return "fail", f"rising-tail interior mismatch at n={n}"
        if h != ctx.paper_form("sum_H", order):
            return "fail", "rising-tail interior DP != ratio of sums"
        pi = ctx.series("prod_interior", order)
        if pi != ctx.paper_form("prod_interior", order):
            return "fail", "interior DP != product form"
        for n in range(1, top_n + 1):
            if pi.coeff(n) != _q_histogram(ctx.records_of(n), "inter"):
                return "fail", f"interior histogram mismatch at n={n}"
        at_v1 = ctx.series("master_interior_qv", low).eval_one("v")
        if at_v1 != ctx.series("prod_interior", low):
            return "fail", "interior master at v=1 != product form"
        plain = at_v1.eval_one("q")
        for n in range(1, low):
            if plain.coeff(n).as_scalar() != closedforms.motzkin(n):
                return "fail", f"interior master at q=v=1 != m_{n}"
        if order > 5 and pi.coeff(5).coefficient(0, 3, 0) != 5:
            return "fail", "x^5 interior coefficient lacks 5q^3"
        return "pass", f"interior generating functions cross-check to n <= {top_n}"

    def derivative_identities():
        if max_order < 2:
            return "skipped", "needs max_order >= 2"
        ds = ctx.series("cf_S", top + 1).derivative("p").eval_one("p")
        gs = ctx.series("gf_s", top + 1)
        for n in range(1, top + 1):
            if ds.coeff(n) != gs.coeff(n):
                return "fail", f"semiperimeter derivative identity fails at n={n}"
        dh = ctx.series("cf_C_last", top + 1).derivative("v").eval_one("v")
        gh = ctx.series("gf_h", top + 1)
        for n in range(1, top + 1):
            if dh.coeff(n) != gh.coeff(n):
                return "fail", f"last-letter derivative identity fails at n={n}"
        order = dense
        du = ctx.series("prod_area", order).derivative("q").eval_one("q")
        gu = ctx.series("gf_u", order)
        dp_ = ctx.series("prod_interior", order).derivative("q").eval_one("q")
        gp = ctx.series("gf_p", order)
        for n in range(1, order):
            if du.coeff(n) != gu.coeff(n):
                return "fail", f"area derivative identity fails at n={n}"
            if dp_.coeff(n) != gp.coeff(n):
                return "fail", f"interior derivative identity fails at n={n}"
        return "pass", f"all four derivative identities hold (n <= {top} / {order - 1})"

    def kernel_annihilation():
        if max_order < 2:
            return "skipped", "needs max_order >= 2"
        root = ctx.series("kernel_root_v0", max_order)
        if not gfs._kernel_residual(root).is_zero():
            return "fail", "kernel residual is not the zero series"
        v0 = root.eval_one("p")
        motz = ctx.series("gf_motzkin", max_order)
        caps = motz.caps
        one_plus_x = Series.from_x_polynomial(max_order, [1, 1], caps)
        expected = (
            Series.from_x_polynomial(max_order, [1], caps)
            + motz.mul_monomial(1, x_shift=1)
        ).div(one_plus_x)
        if v0 != expected:
            return "fail", "root at p=1 != (1 + x M(x)) / (1 + x)"
        return "pass", f"kernel root annihilates the kernel mod x^{max_order}"

    def table_c_checks():
        top = TABLE_TOP
        c = ctx.run_tables()["c"]
        oracle = tables.tabulate_by_last("c", 0, (
            [(rec.last, 1) for rec in ctx.records_of(n)] for n in range(1, enum_top + 1)
        ))
        for n in range(1, enum_top + 1):
            if c.row(n) != oracle.row(n):
                return "fail", f"c row {n} != enumeration"
        for n in range(1, top + 1):
            if sum(c.row(n)) != closedforms.motzkin(n):
                return "fail", f"c row {n} sum != m_{n}"
        for n in range(1, top - 1):
            if c.entry(n + 2, 0) != closedforms.motzkin(n):
                return "fail", f"c({n + 2},0) != m_{n}"
        if c.row(6) != [9, 13, 13, 10, 5, 1] or c.row(7) != [21, 30, 30, 24, 15, 6, 1]:
            return "fail", "printed c rows 6/7 not reproduced"
        return "pass", "c table matches enumeration, row sums and the printed matrix"

    def stat_tables():
        top = TABLE_TOP
        printed = {
            "sper": [[2], [3, 4], [5, 10, 6], [13, 20, 21, 8], [33, 50, 51, 36, 10], [89, 130, 132, 104, 55, 12]],
            "area": [[1], [2, 3], [4, 9, 6], [12, 20, 24, 10], [35, 55, 63, 50, 15]],
            "inter": [[0], [0, 0], [0, 1, 1], [1, 3, 6, 3], [6, 11, 18, 18, 6]],
        }
        closed = {"sper": "s", "area": "u", "inter": "p"}
        for stat in tables.STATS:
            t = ctx.run_tables()[stat]
            oracle = tables.tabulate_by_last(stat, 1, (
                [(rec.last, getattr(rec, stat)) for rec in ctx.records_of(n)]
                for n in range(1, enum_top + 1)
            ))
            for n in range(1, enum_top + 1):
                if t.row(n) != oracle.row(n):
                    return "fail", f"{stat} table row {n} != enumeration"
            for n, row in enumerate(printed[stat], start=1):
                if t.row(n) != row:
                    return "fail", f"{stat} table row {n} != printed matrix"
            sums = t.row_sums()
            for n in range(1, top + 1):
                if sums[n - 1] != closedforms.closed_total(closed[stat], n):
                    return "fail", f"{stat} row sum at n={n} != closed form"
        return "pass", "statistic tables match enumeration, printed matrices and closed forms"

    def recurrence_audit():
        if max_n < 1:
            return "skipped", "needs max_n >= 1"
        lines = []
        for which in tables.RECURRENCES:
            rep = tables.check_recurrences(min(max_n, 10), which, ctx.run_tables())
            again = tables.check_recurrences(min(max_n, 10), which, ctx.run_tables())
            if rep.mismatches != again.mismatches:
                return "fail", f"{which}: nondeterministic report"
            lines.append(rep.summary())
        return "pass", "; ".join(lines)

    def bijection_checks():
        # one memo per bijection for every length: length n reuses the
        # sub-word images built for the shorter ones
        maps = bijections.memoized_maps()
        for n in range(enum_top + 1):
            rep = bijections.bijectivity_report(
                n,
                ctx.words_of(n),
                ctx.words_of(n, WordClass.CLASS_B),
                ctx.unequal_adjacent(n),
                ctx.unequal_adjacent(n + 1),
                ctx.record,
                maps,
            )
            if not rep.ok:
                return "fail", f"n={n}: {rep.violations[0]}"
        w = words.CatalanWord.parse("011201123011")
        img = bijections.chi(w)
        if str(img) != "0121012310121":
            return "fail", f"worked example image {img}"
        if (words.stat_sper(w), words.stat_sper(img)) != (19, 21):
            return "fail", "worked example semiperimeters"
        if words.stat_area(img) == words.stat_area(w):
            return "fail", "area unexpectedly preserved on the worked example"
        return "pass", f"bijections verified exhaustively for n <= {enum_top}"

    def asymptotic_diagnostics():
        pairs = [
            ("h", closedforms.h_closed, closedforms.asym_h),
            ("s", closedforms.s_closed, closedforms.asym_s),
            ("u", closedforms.u_closed, closedforms.asym_up),
            ("p", closedforms.p_closed, closedforms.asym_up),
        ]
        for name, exact, approx in pairs:
            near = exact(300) / approx(300)
            far = exact(50) / approx(50)
            if not 0.85 <= near <= 1.15:
                return "fail", f"{name} ratio at n=300 is {near:.4f}"
            if abs(near - 1) >= abs(far - 1):
                return "fail", f"{name} ratio not improving ({far:.4f} -> {near:.4f})"
        e200 = float(closedforms.expected_last(200))
        if not 3.8 <= e200 <= 4.0:
            return "fail", f"expected last letter at n=200 is {e200:.4f}"
        ratio = float(closedforms.expected_sper(300)) / (5 * 300 / 3)
        if not 0.95 <= ratio <= 1.05:
            return "fail", f"expected semiperimeter ratio {ratio:.4f}"
        return "pass", "asymptotic and expected-value diagnostics within tolerance"

    return [
        ("counts_match_closed_form", counts_match_closed_form),
        ("enumeration_cardinalities", enumeration_cardinalities),
        ("length4_catalog", length4_catalog),
        ("statistic_oracles", statistic_oracles),
        ("dyck_roundtrip", dyck_roundtrip),
        ("base_series", base_series),
        ("totals_series_match", totals_series_match),
        ("trinomial_forms", trinomial_forms),
        ("master_histograms", master_histograms),
        ("master_specializations", master_specializations),
        ("area_series", area_series),
        ("interior_series", interior_series),
        ("derivative_identities", derivative_identities),
        ("kernel_annihilation", kernel_annihilation),
        ("table_c_checks", table_c_checks),
        ("stat_tables", stat_tables),
        ("recurrence_audit", recurrence_audit),
        ("bijection_checks", bijection_checks),
        ("asymptotic_diagnostics", asymptotic_diagnostics),
    ]
