"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; every expected value is exact unless the criterion itself states a
tolerance.
"""

import time
from contextlib import contextmanager

import pytest

from catpoly import bijections, cli, closedforms, gfs, tables, words
from catpoly.mpoly import MPoly
from catpoly.words import WordClass


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def enum(n, cls=WordClass.AVOID_GEQ_GEQ):
    return list(words.enumerate_words(n, cls))


def test_01_counting():
    with criterion(1, "counting"):
        start = time.perf_counter()
        for n in range(31):
            assert words.count_words(n, WordClass.AVOID_GEQ_GEQ) == closedforms.motzkin(n)
        assert time.perf_counter() - start < 1.0
        for n in range(15):
            assert len(enum(n)) == closedforms.motzkin(n)


def test_02_length4_catalog():
    with criterion(2, "length-4 catalog"):
        assert [str(w) for w in enum(4)] == [
            "0010", "0011", "0012", "0101", "0112", "0120", "0121", "0122", "0123",
        ]


def test_03_statistics():
    with criterion(3, "statistics and oracles"):
        w = words.CatalanWord.parse("00123223401011")
        assert words.stat_area(w) == 34
        assert words.stat_sper(w) == 22
        assert words.stat_inter(w) == 13
        start = time.perf_counter()
        for n in range(1, 11):
            for word in words.enumerate_words(n, WordClass.ALL_CATALAN):
                assert words.stat_sper(word) == words.sper_oracle(word)
                assert words.stat_inter(word) == words.inter_oracle(word)
        assert time.perf_counter() - start < 30.0


def test_04_sequences():
    with criterion(4, "printed value lists"):
        expected = {
            gfs.gf_h: [0, 1, 4, 12, 34, 94, 258, 707, 1940, 5337],
            gfs.gf_s: [2, 7, 21, 62, 180, 522, 1512, 4384, 12726, 36995],
            gfs.gf_u: [1, 5, 19, 66, 218, 701, 2215, 6919, 21438, 66034],
            gfs.gf_p: [0, 0, 2, 13, 59, 230, 830, 2858, 9547, 31227],
        }
        for builder, values in expected.items():
            series = builder(11)
            assert [series.coeff(n).as_scalar() for n in range(1, 11)] == values


def test_05_trinomial_closed_forms():
    with criterion(5, "trinomial closed forms"):
        closed = {
            "h": (closedforms.h_closed, gfs.gf_h, words.stat_last),
            "s": (closedforms.s_closed, gfs.gf_s, words.stat_sper),
            "u": (closedforms.u_closed, gfs.gf_u, words.stat_area),
            "p": (closedforms.p_closed, gfs.gf_p, words.stat_inter),
        }
        series = {k: fns[1](31) for k, fns in closed.items()}
        for k, (fn, _, _) in closed.items():
            for n in range(1, 31):
                assert fn(n) == series[k].coeff(n).as_scalar()
        for n in range(1, 13):
            ws = enum(n)
            for k, (fn, _, stat) in closed.items():
                assert fn(n) == sum(stat(w) for w in ws)


def test_06_multivariate_masters():
    with criterion(6, "multivariate masters"):
        master = gfs.master_pqv(11)
        for n in range(1, 11):
            hist = MPoly.zero()
            for w in enum(n):
                hist = hist + MPoly.monomial(
                    1, words.stat_sper(w), words.stat_area(w), words.stat_last(w)
                )
            assert master.coeff(n) == hist
        assert gfs.cf_C_last(5).coeff(4).coefficient(0, 0, 2) == 3
        assert gfs.cf_S(5).coeff(4).coefficient(7, 0, 0) == 6
        assert gfs.prod_area(6).coeff(5).coefficient(0, 9, 0) == 5
        assert gfs.prod_interior(6).coeff(5).coefficient(0, 3, 0) == 5


def test_07_closed_form_vs_fixed_point():
    with criterion(7, "closed forms vs fixed point"):
        master = gfs.master_pqv(12)
        assert master.eval_one("q") == gfs.cf_C_sper_v(12)
        assert master.eval_one("q").eval_one("v") == gfs.cf_S(12)
        assert master.eval_one("p").eval_one("q") == gfs.cf_C_last(12)
        pa = gfs.prod_area(11)
        pi = gfs.prod_interior(11)
        for n in range(1, 11):
            area_hist = MPoly.zero()
            inter_hist = MPoly.zero()
            for w in enum(n):
                area_hist = area_hist + MPoly.monomial(1, 0, words.stat_area(w), 0)
                inter_hist = inter_hist + MPoly.monomial(1, 0, words.stat_inter(w), 0)
            assert pa.coeff(n) == area_hist
            assert pi.coeff(n) == inter_hist


def test_08_kernel():
    with criterion(8, "kernel annihilation"):
        assert gfs.kernel_root_annihilates(gfs.kernel_root_v0(20))


def test_09_continued_fraction():
    with criterion(9, "continued fraction"):
        for order in range(1, 13):
            assert gfs.cf_B_contfrac(order) == gfs.sum_B(order)


def test_10_tables():
    with criterion(10, "tables"):
        c = tables.table_c(30)
        printed_c = {
            1: [1], 2: [1, 1], 3: [1, 2, 1], 4: [2, 3, 3, 1],
            5: [4, 6, 6, 4, 1], 6: [9, 13, 13, 10, 5, 1],
            7: [21, 30, 30, 24, 15, 6, 1],
        }
        for n, row in printed_c.items():
            assert c.row(n) == row
        printed = {
            "sper": [[2], [3, 4], [5, 10, 6], [13, 20, 21, 8],
                     [33, 50, 51, 36, 10], [89, 130, 132, 104, 55, 12]],
            "area": [[1], [2, 3], [4, 9, 6], [12, 20, 24, 10], [35, 55, 63, 50, 15]],
            "inter": [[0], [0, 0], [0, 1, 1], [1, 3, 6, 3], [6, 11, 18, 18, 6]],
        }
        closed = {
            "sper": closedforms.s_closed,
            "area": closedforms.u_closed,
            "inter": closedforms.p_closed,
        }
        for stat, rows in printed.items():
            t = tables.table_stat(30, stat)
            for n, row in enumerate(rows, start=1):
                assert t.row(n) == row
            for n in range(1, 31):
                assert sum(t.row(n)) == closed[stat](n)
        for n in range(1, 31):
            assert sum(c.row(n)) == closedforms.motzkin(n)


def test_11_bijections():
    with criterion(11, "bijections"):
        for n in range(13):
            report = bijections.verify_bijectivity(n)
            assert report.ok, report.violations[:3]
        w = words.CatalanWord.parse("011201123011")
        img = bijections.chi(w)
        assert str(img) == "0121012310121"
        assert words.stat_sper(w) == 19
        assert words.stat_sper(img) == 21


def test_12_recurrence_audit():
    with criterion(12, "recurrence audit"):
        for which in tables.RECURRENCES:
            first = tables.check_recurrences(10, which)
            second = tables.check_recurrences(10, which)
            assert first.mismatches == second.mismatches
            # either outcome passes; a mismatch must be fully documented
            for (n, i, lhs, rhs) in first.mismatches:
                assert lhs != rhs
                assert 1 <= n <= 10 and 1 <= i <= n
            assert first.summary()


def test_13_asymptotics():
    with criterion(13, "asymptotic diagnostics"):
        pairs = [
            (closedforms.h_closed, closedforms.asym_h),
            (closedforms.s_closed, closedforms.asym_s),
            (closedforms.u_closed, closedforms.asym_up),
            (closedforms.p_closed, closedforms.asym_up),
        ]
        for exact, approx in pairs:
            at_300 = exact(300) / approx(300)
            at_50 = exact(50) / approx(50)
            assert 0.85 <= at_300 <= 1.15
            assert abs(at_300 - 1) < abs(at_50 - 1)


def test_14_end_to_end(capsys):
    with criterion(14, "end-to-end verify"):
        start = time.perf_counter()
        code = cli.main(["verify", "--max-n", "10", "--max-order", "20"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out
        assert elapsed < 120.0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
