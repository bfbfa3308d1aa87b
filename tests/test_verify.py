"""The verify suite reads its words from one census per run, and each
check rewired onto that census still catches the faults it is there for."""

from collections import Counter

import pytest

from catpoly import bijections, closedforms, gfs, tables, verify, words
from catpoly.words import WordClass

# small flags keep each run short; every fault below shows by n = 4
MAX_N, MAX_ORDER = 6, 8


def run_checks():
    report = verify.run_verify(max_n=MAX_N, max_order=MAX_ORDER)
    return {c.name: c for c in report.checks}


def off_by_one_on(real, target):
    def wrong(w):
        return real(w) + (words._tuple_of(w) == target)

    return wrong


def test_unmodified_run_passes():
    checks = run_checks()
    assert [c.name for c in checks.values() if c.status != "pass"] == []


def test_run_enumerates_each_length_and_class_once(monkeypatch):
    calls = Counter()
    real = words.enumerate_words

    def spy(n, word_class=WordClass.AVOID_GEQ_GEQ, limit=words.DEFAULT_ENUM_LIMIT):
        calls[n, word_class] += 1
        return real(n, word_class, limit)

    for module in (words, tables, bijections):
        monkeypatch.setattr(module, "enumerate_words", spy)
    assert verify.run_verify().exit_code == 0
    assert calls and max(calls.values()) == 1
    # every class the checks read is enumerated: avoiding and rising-tail
    # words to max_n, unequal-adjacent words to one past the bijection top
    assert {cls for _n, cls in calls} == {
        WordClass.AVOID_GEQ_GEQ, WordClass.CLASS_B, WordClass.AVOID_NEQ_ADJACENT,
    }
    assert max(n for n, cls in calls if cls is WordClass.AVOID_GEQ_GEQ) == 10
    assert max(n for n, cls in calls if cls is WordClass.AVOID_NEQ_ADJACENT) == 11


def test_census_holds_one_record_per_avoiding_word(monkeypatch):
    # the bijection images get no record: only the 3,561 avoiding words of
    # lengths 1-10 (the rising-tail words among them) are held
    contexts = []

    class Spy(verify._Context):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(verify, "_Context", Spy)
    assert verify.run_verify().exit_code == 0
    [ctx] = contexts
    census = {w.letters for n in range(1, 11) for w in words.enumerate_words(n)}
    assert len(census) == 3561
    assert set(ctx._records) == census


def test_run_builds_each_series_once(monkeypatch):
    # every public constructor is spied on, nested calls included: the
    # closed last-letter form and the kernel residual are built on the
    # run's own Motzkin series and kernel root, through private helpers
    calls = Counter()

    def spy(name, real, order_of=None):
        def wrapped(*args):
            calls[name, order_of(*args) if order_of else args] += 1
            return real(*args)

        return wrapped

    for name, fn in list(vars(gfs).items()):
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == gfs.__name__:
            monkeypatch.setattr(gfs, name, spy(name, fn))
    for name, helper in (("cf_C_last", "_last_letter_form"), ("kernel_residual", "_kernel_residual")):
        monkeypatch.setattr(gfs, helper, spy(name, getattr(gfs, helper), lambda s: (s.order,)))
    assert verify.run_verify().exit_code == 0
    assert [key for key, k in calls.items() if k > 1] == []
    for name in ("cf_S", "cf_C_last", "master_pqv", "gf_motzkin"):
        assert len([args for called, args in calls if called == name]) == 1, name
    # one build of each paper form, at the order of its DP twin
    assert sorted(args for name, args in calls if name == "paper_form") == [
        ("prod_area", 13), ("prod_interior", 13), ("sum_B", 13), ("sum_H", 13),
    ]


def bijection_check_at_max_n_10():
    checks = verify.run_verify(max_n=10, max_order=MAX_ORDER).checks
    c = next(c for c in checks if c.name == "bijection_checks")
    return c.status, c.detail


def test_image_semiperimeter_is_computed_by_the_formula(monkeypatch):
    # chi(0123456789) = 0..10 is longer than every census word, so only
    # the image side of the bijection check reads its semiperimeter
    domain, image = tuple(range(10)), tuple(range(11))
    assert bijections._chi(domain) == image
    monkeypatch.setattr(words, "stat_sper", off_by_one_on(words.stat_sper, image))
    assert bijection_check_at_max_n_10() == (
        "fail", "n=10: chi(0123456789) semiperimeter 23 != 20 + 2",
    )


def test_image_area_is_computed_by_the_formula(monkeypatch):
    # psi(0123455667) = 0123456765 holds the falls 7, 6, 5, so it is no
    # census word and only the image side of the bijection check reads it
    image = (0, 1, 2, 3, 4, 5, 6, 7, 6, 5)
    assert bijections._psi((0, 1, 2, 3, 4, 5, 5, 6, 6, 7)) == image
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
        out[index] += words._tuple_of(w) == (0, 1, 2, 2)
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
    monkeypatch.setattr(words, "to_dyck", lambda w: fault(real, w) if words._tuple_of(w) == target else real(w))
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
    image = "".join(map(str, real((0, 0, 1, 0))))
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
