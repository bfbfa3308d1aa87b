"""The verify suite reads its words from one census per run, and each
check rewired onto that census still catches the faults it is there for.
A run split over two processes reports what a run in one process does,
faults included, and leaves no process behind."""

import ast
import os
import threading
from collections import Counter

import pytest

from catpoly import bijections, cli, closedforms, gfs, tables, verify, words
from catpoly.errors import ResourceLimit
from catpoly.words import WordClass

# small flags keep each run short; every fault below shows by n = 4
MAX_N, MAX_ORDER = 6, 8


def run_checks():
    report = verify.run_verify(max_n=MAX_N, max_order=MAX_ORDER)
    return {c.name: c for c in report.checks}


def off_by_one_on(real, target):
    def wrong(w):
        return real(w) + (tuple(w) == target)

    return wrong


def test_unmodified_run_passes():
    checks = run_checks()
    assert [c.name for c in checks.values() if c.status != "pass"] == []


class CallLog:
    """Calls counted in every process of a run: each call appends one line,
    the repr of its key, to a file, so the calls of a forked child count."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, key):
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(repr(key) + "\n")

    def keys(self):
        return [ast.literal_eval(line) for line in self.path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.txt")


def test_run_enumerates_each_length_and_class_once(monkeypatch, call_log):
    real = words.enumerate_words

    def spy(n, word_class=WordClass.AVOID_GEQ_GEQ, limit=words.DEFAULT_ENUM_LIMIT):
        call_log.add((n, word_class.name))
        return real(n, word_class, limit)

    for module in (words, tables, bijections):
        monkeypatch.setattr(module, "enumerate_words", spy)
    assert verify.run_verify().exit_code == 0
    calls = Counter((n, WordClass[name]) for n, name in call_log.keys())
    assert calls and max(calls.values()) == 1
    # every class the checks read is enumerated: avoiding and rising-tail
    # words to max_n, unequal-adjacent words to one past the bijection top
    assert {cls for _n, cls in calls} == {
        WordClass.AVOID_GEQ_GEQ, WordClass.CLASS_B, WordClass.AVOID_NEQ_ADJACENT,
    }
    assert max(n for n, cls in calls if cls is WordClass.AVOID_GEQ_GEQ) == 10
    assert max(n for n, cls in calls if cls is WordClass.AVOID_NEQ_ADJACENT) == 11


def test_census_holds_one_record_per_avoiding_word(monkeypatch, call_log):
    # the bijection images get no record: only the 3,561 avoiding words of
    # lengths 1-10 (the rising-tail words among them) are held
    contexts = []

    class LoggedRecords(dict):
        def update(self, pairs):
            pairs = list(pairs)
            for letters, _rec in pairs:
                call_log.add(letters)
            super().update(pairs)

    class Spy(verify._Context):
        def __init__(self, *args):
            super().__init__(*args)
            self._records = LoggedRecords()
            contexts.append(self)

    monkeypatch.setattr(verify, "_Context", Spy)
    assert verify.run_verify().exit_code == 0
    [ctx] = contexts
    census = {w.letters for n in range(1, 11) for w in words.enumerate_words(n)}
    assert len(census) == 3561
    assert set(ctx._records) == census
    # and in both processes: a record the child made is logged too
    assert set(call_log.keys()) == census


def test_run_builds_each_series_once(monkeypatch, call_log):
    # every public constructor is spied on, nested calls included: the
    # closed last-letter form is built on the run's own Motzkin series,
    # through a private helper, and the kernel check reads the run's own
    # kernel root; both are logged by the order of the series they take
    def spy(name, real, order_of=None):
        def wrapped(*args):
            call_log.add((name, order_of(*args) if order_of else args))
            return real(*args)

        return wrapped

    def order_of(s):
        return (s.order,)

    for name, fn in list(vars(gfs).items()):
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == gfs.__name__:
            monkeypatch.setattr(
                gfs, name, spy(name, fn, order_of if name == "kernel_root_annihilates" else None)
            )
    monkeypatch.setattr(gfs, "_last_letter_form", spy("cf_C_last", gfs._last_letter_form, order_of))
    assert verify.run_verify().exit_code == 0
    calls = Counter(call_log.keys())
    assert [key for key, k in calls.items() if k > 1] == []
    for name in ("cf_S", "cf_C_last", "master_pqv", "gf_motzkin"):
        assert len([args for called, args in calls if called == name]) == 1, name
    # the kernel check reads the run's one kernel root
    assert [args for name, args in calls if name == "kernel_root_annihilates"] == [(20,)]
    # one build of each paper form, at the order of its DP twin
    assert sorted(args for name, args in calls if name == "paper_form") == [
        ("prod_area", 13), ("prod_interior", 13), ("sum_B", 13), ("sum_H", 13),
    ]


def test_run_builds_each_table_once(monkeypatch, call_log):
    # the totals, the table checks and the twelve recurrence reports all
    # read one c table and one table per statistic, at the largest n read
    real_c, real_stat = tables.table_c, tables.table_stat
    monkeypatch.setattr(tables, "table_c", lambda n: call_log.add(("c", n)) or real_c(n))
    monkeypatch.setattr(
        tables, "table_stat", lambda n, stat: call_log.add((stat, n)) or real_stat(n, stat),
    )
    assert verify.run_verify().exit_code == 0
    assert sorted(call_log.keys()) == [("area", 30), ("c", 30), ("inter", 30), ("sper", 30)]


# the two-process path ------------------------------------------------------------

two_processes = pytest.mark.skipif(
    not verify._can_split(), reason="the run forks only with fork and a second CPU",
)


def in_one_process(monkeypatch):
    monkeypatch.setattr(verify, "_can_split", lambda: False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def check_names():
    return [name for name, _fn in verify._build_checks(verify._Context(0, 1))]


@two_processes
def test_a_child_check_that_raises_fails_as_it_does_in_one_process(monkeypatch, call_log):
    def broken(top, which, built):
        call_log.add(os.getpid())
        raise ValueError(f"no recurrence to {top}")

    assert "recurrence_audit" in verify.CHILD_CHECKS
    monkeypatch.setattr(tables, "check_recurrences", broken)
    split = run_checks()["recurrence_audit"]
    assert_no_child_left()
    assert os.getpid() not in call_log.keys()  # the check ran in the child
    in_one_process(monkeypatch)
    alone = run_checks()["recurrence_audit"]
    assert (split.status, split.detail) == (alone.status, alone.detail) == (
        "fail", f"exception: ValueError: no recurrence to {MAX_N}",
    )


def cli_runs_on_both_paths(monkeypatch, capsys, *argv):
    """(exit code, stdout, stderr) of ``catpoly verify``, split then in one process."""
    out = []
    for split in (True, False):
        if not split:
            in_one_process(monkeypatch)
        code = cli.main(["verify", *argv])
        assert_no_child_left()
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


@two_processes
def test_a_resource_limit_in_a_child_check_stops_the_run(monkeypatch, capsys):
    message = "bijection census exceeds limit"

    def too_big(n, *args):
        raise ResourceLimit(message)

    monkeypatch.setattr(bijections, "bijectivity_report", too_big)
    with pytest.raises(ResourceLimit, match=f"^{message}$"):
        verify.run_verify(max_n=MAX_N, max_order=MAX_ORDER)
    assert_no_child_left()
    split, alone = cli_runs_on_both_paths(monkeypatch, capsys)
    assert split == alone == (3, "", f"error: {message}\n")


@two_processes
def test_a_resource_limit_in_a_parent_check_exits_3_on_both_paths(monkeypatch, capsys):
    message = "master series exceeds limit"

    def too_big(order):
        raise ResourceLimit(message)

    monkeypatch.setattr(gfs, "master_pqv", too_big)
    split, alone = cli_runs_on_both_paths(monkeypatch, capsys)
    assert split == alone == (3, "", f"error: {message}\n")


@two_processes
def test_a_child_that_dies_fails_each_of_its_checks(monkeypatch, capsys):
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(7)
        raise AssertionError("the bijection check ran in the parent")

    monkeypatch.setattr(bijections, "bijectivity_report", dying)
    report = verify.run_verify()
    assert_no_child_left()
    assert report.exit_code == 1
    assert [c.name for c in report.checks] == check_names()
    for c in report.checks:
        if c.name in verify.CHILD_CHECKS:
            assert (c.status, c.detail) == ("fail", "the check process ended with exit status 7")
        else:
            assert c.status == "pass", c.name
    assert cli.main(["verify"]) == 1
    assert_no_child_left()
    assert "[FAIL   ] bijection_checks: the check process ended with exit status 7\n" in capsys.readouterr().out


def test_a_census_that_raises_fails_each_check_that_reads_it(monkeypatch):
    # the census is built before the checks run; its fault reaches each
    # check that reads it, in either process, as it did when read lazily
    real = words.stat_inter

    def broken(w):
        if len(w) == 4:
            raise ValueError("no interior points")
        return real(w)

    monkeypatch.setattr(words, "stat_inter", broken)
    checks = run_checks()
    assert_no_child_left()
    failed = {name for name, c in checks.items() if c.status == "fail"}
    assert {"statistic_oracles", "master_histograms", "table_c_checks", "bijection_checks"} <= failed
    assert {checks[name].detail for name in failed} == {"exception: ValueError: no interior points"}
    assert checks["length4_catalog"].status == "pass"


@two_processes
def test_unequal_adjacent_words_that_raise_fail_the_bijection_check_alone(monkeypatch):
    # the unequal-adjacent words are enumerated by their one reader, the
    # bijection check, after the census: its fault fails that check alone,
    # split or not
    real = words.enumerate_words

    def broken(n, word_class=WordClass.AVOID_GEQ_GEQ, limit=words.DEFAULT_ENUM_LIMIT):
        if word_class is WordClass.AVOID_NEQ_ADJACENT:
            raise ValueError(f"no unequal-adjacent words of length {n}")
        return real(n, word_class, limit)

    monkeypatch.setattr(words, "enumerate_words", broken)
    failed = []
    for split in (True, False):
        if not split:
            in_one_process(monkeypatch)
        checks = run_checks()
        assert_no_child_left()
        failed.append({name: (c.status, c.detail) for name, c in checks.items() if c.status != "pass"})
    assert failed[0] == failed[1] == {
        "bijection_checks": ("fail", "exception: ValueError: no unequal-adjacent words of length 0"),
    }


@pytest.mark.parametrize("cause", ["no fork", "one CPU", "another thread"])
def test_run_stays_in_one_process(monkeypatch, cause):
    def fork():
        raise AssertionError("forked")

    if cause == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", fork, raising=False)
    if cause == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    if cause == "another thread":
        other.start()
    try:
        report = verify.run_verify(max_n=MAX_N, max_order=MAX_ORDER)
    finally:
        done.set()
        if other.is_alive():
            other.join(60)
    assert not other.is_alive()
    assert [c.name for c in report.checks] == check_names()
    assert report.exit_code == 0


def bijection_check_at_max_n_10():
    checks = verify.run_verify(max_n=10, max_order=MAX_ORDER).checks
    c = next(c for c in checks if c.name == "bijection_checks")
    return c.status, c.detail


def test_image_semiperimeter_is_computed_by_the_formula(monkeypatch):
    # chi(0123456789) = 0..10 is longer than every census word, so only
    # the image side of the bijection check reads its semiperimeter
    domain, image = tuple(range(10)), tuple(range(11))
    assert bijections.memoized_maps()[0](domain) == image
    monkeypatch.setattr(words, "stat_sper", off_by_one_on(words.stat_sper, image))
    assert bijection_check_at_max_n_10() == (
        "fail", "n=10: chi(0123456789) semiperimeter 23 != 20 + 2",
    )


def test_image_area_is_computed_by_the_formula(monkeypatch):
    # psi(0123455667) = 0123456765 holds the falls 7, 6, 5, so it is no
    # census word and only the image side of the bijection check reads it
    image = (0, 1, 2, 3, 4, 5, 6, 7, 6, 5)
    assert bijections.memoized_maps()[1]((0, 1, 2, 3, 4, 5, 5, 6, 6, 7)) == image
    monkeypatch.setattr(words, "stat_area", off_by_one_on(words.stat_area, image))
    assert bijection_check_at_max_n_10() == (
        "fail", "n=10: psi(0123455667) = 0123456765 does not preserve area/interior",
    )


def test_wrong_semiperimeter_formula_on_one_word(monkeypatch):
    monkeypatch.setattr(words, "stat_sper", off_by_one_on(words.stat_sper, (0, 1, 0, 1)))
    checks = run_checks()
    assert (checks["statistic_oracles"].status, checks["statistic_oracles"].detail) == (
        "fail", "sper mismatch at 0101",
    )
    assert (checks["master_histograms"].status, checks["master_histograms"].detail) == (
        "fail", "histogram mismatch at n=4",
    )


@pytest.mark.parametrize("oracle, label", [("sper_oracle", "sper"), ("inter_oracle", "inter")])
def test_wrong_oracle_on_one_word(monkeypatch, oracle, label):
    # verify reads both oracles off one grid per word: the fault goes into
    # the coordinate of grid_oracles that the named oracle views
    real = words.grid_oracles
    index = ("sper_oracle", "inter_oracle").index(oracle)

    def wrong(w):
        out = list(real(w))
        out[index] += tuple(w) == (0, 1, 2, 2)
        return tuple(out)

    monkeypatch.setattr(words, "grid_oracles", wrong)
    assert getattr(words, oracle)((0, 1, 2, 2)) == {"sper": 7, "inter": 3}[label] + 1
    c = run_checks()["statistic_oracles"]
    assert (c.status, c.detail) == ("fail", f"{label} mismatch at 0122")


@pytest.mark.parametrize("target, fault, detail", [
    ((0, 1, 0, 1), lambda real, w: real((0, 0, 1, 0)), "bad path for 0101"),
    ((0, 0, 1, 1), lambda real, w: real(w) + "UD", "bad path for 0011"),
], ids=["repeated", "too long"])
def test_dyck_roundtrip_names_the_word_of_a_bad_path(monkeypatch, target, fault, detail):
    real = words.to_dyck
    monkeypatch.setattr(words, "to_dyck", lambda w: fault(real, w) if tuple(w) == target else real(w))
    c = run_checks()["dyck_roundtrip"]
    assert (c.status, c.detail) == ("fail", detail)


def test_dyck_roundtrip_names_the_word_that_does_not_come_back(monkeypatch):
    real, path = words.from_dyck, words.to_dyck((0, 0, 1, 2))
    monkeypatch.setattr(
        words, "from_dyck", lambda p: real(words.to_dyck((0, 0, 1, 1))) if p == path else real(p),
    )
    c = run_checks()["dyck_roundtrip"]
    assert (c.status, c.detail) == ("fail", "roundtrip failed for 0012")


def test_chi_collision(monkeypatch):
    # 0123, the last avoiding word of length 4, is sent to the image of
    # 0010, the first; shorter words never recurse into either
    real = bijections._chi

    def colliding(letters, image=None):
        return real((0, 0, 1, 0) if letters == (0, 1, 2, 3) else letters, image)

    monkeypatch.setattr(bijections, "_chi", colliding)
    image = "".join(map(str, bijections.memoized_maps()[0]((0, 0, 1, 0))))
    c = run_checks()["bijection_checks"]
    assert (c.status, c.detail) == ("fail", f"n=4: chi collision at 0123 -> {image}")


@pytest.mark.parametrize(
    "image, message",
    [
        ((0, 0, 1, 0), "has equal adjacent letters"),
        ((0, 2, 1, 2), "is not a Catalan word"),
    ],
)
def test_psi_image_outside_the_unequal_adjacent_words(monkeypatch, image, message):
    real = bijections._psi

    def stray(letters, recurse=None):
        return image if letters == (0, 0, 1, 2) else real(letters, recurse)

    monkeypatch.setattr(bijections, "_psi", stray)
    text = "".join(map(str, image))
    c = run_checks()["bijection_checks"]
    assert (c.status, c.detail) == ("fail", f"n=4: psi(0012) = {text} {message}")


def test_chi_image_outside_the_unequal_adjacent_words(monkeypatch):
    real = bijections._chi

    def stray(letters, image=None):
        return (0, 1, 0, 2, 1) if letters == (0, 0, 1, 0) else real(letters, image)

    monkeypatch.setattr(bijections, "_chi", stray)
    c = run_checks()["bijection_checks"]
    assert (c.status, c.detail) == (
        "fail", "n=4: chi(0010) = 01021 not unequal-adjacent of length 5",
    )


def _totals_at_order_1():
    checks = verify.run_verify(max_n=MAX_N, max_order=1).checks
    c = next(c for c in checks if c.name == "totals_series_match")
    return c.status, c.detail


def test_totals_skip_series_and_dp_below_order_2(monkeypatch):
    # at max_order 1 the series and DP halves would compare n = 1 only; the
    # enumeration half still runs and still catches a wrong total
    assert _totals_at_order_1() == (
        "pass", f"four totals agree (series/DP skipped, needs max_order >= 2, enumeration to n <= {MAX_N})",
    )
    monkeypatch.setattr(words, "stat_area", off_by_one_on(words.stat_area, (0, 1, 0, 1)))
    assert _totals_at_order_1() == ("fail", "u(4) enumeration != closed form")


@pytest.mark.parametrize("name, check, detail", [
    ("sum_B", "area_series", "rising-tail area DP != ratio of sums"),
    ("prod_area", "area_series", "area DP != product form"),
    ("sum_H", "interior_series", "rising-tail interior DP != ratio of sums"),
    ("prod_interior", "interior_series", "interior DP != product form"),
])
def test_paper_form_off_at_the_top_order(monkeypatch, name, check, detail):
    # past max_n no histogram reads the last coefficient, so only the
    # paper's form checks it against the DP
    real = gfs._PAPER_FORMS[name]

    def wrong(order, w):
        out = real(order, w)
        out[-1] += 1
        return out

    monkeypatch.setitem(gfs._PAPER_FORMS, name, wrong)
    checks = run_checks()
    assert (checks[check].status, checks[check].detail) == ("fail", detail)


def test_trinomial_forms_catch_a_slip_in_the_algebraic_table(monkeypatch):
    # the series and the derived row share the table; the DP totals and
    # enumeration in totals_series_match share nothing with it
    c, P, Q, k, e = gfs.ALGEBRAIC_FORMS["u"]
    monkeypatch.setitem(gfs.ALGEBRAIC_FORMS, "u", (c, P, Q[:-1] + [Q[-1] + 1], k, e))
    checks = run_checks()
    assert checks["trinomial_forms"].status == "fail"
    assert checks["trinomial_forms"].detail.startswith("u: derived row")
    assert checks["totals_series_match"].status == "fail"


def test_trinomial_forms_catch_a_slip_in_a_printed_row(monkeypatch):
    a, b = closedforms.TRINOMIAL_FORMS["p"]
    monkeypatch.setitem(closedforms.TRINOMIAL_FORMS, "p", ([a[0] + 2] + a[1:], b))
    checks = run_checks()
    assert checks["trinomial_forms"].status == "fail"
    assert checks["trinomial_forms"].detail.startswith("p: derived row")


@pytest.mark.parametrize("make, other, field", [
    (lambda: words.stat_record((0, 1, 2, 2)), words.StatRecord(4, 9, 7, 3, 2), "sper"),
    (lambda: bijections.decompose((0, 1, 2, 0)), bijections.FirstReturnDecomp((1, 2), (0,)), "remainder"),
    (lambda: verify.CheckResult("c", "pass", "ok", 0.5), verify.CheckResult("c", "pass", "ok", 0.5), "status"),
], ids=["StatRecord", "FirstReturnDecomp", "CheckResult"])
def test_records_are_immutable_values(make, other, field):
    rec = make()
    assert rec == other and hash(rec) == hash(other) and rec is not other
    assert rec != other._replace(**{field: None})
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    assert rec == other
