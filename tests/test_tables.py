import pytest

from catpoly import closedforms as cf
from catpoly import tables
from catpoly.errors import ResourceLimit
from catpoly.words import WordClass, enumerate_words, stat_last, stat_sper


def test_table_c_printed_matrix():
    c = tables.table_c(7)
    assert c.row(1) == [1]
    assert c.row(2) == [1, 1]
    assert c.row(3) == [1, 2, 1]
    assert c.row(4) == [2, 3, 3, 1]
    assert c.row(5) == [4, 6, 6, 4, 1]
    assert c.row(6) == [9, 13, 13, 10, 5, 1]
    assert c.row(7) == [21, 30, 30, 24, 15, 6, 1]


def test_table_c_row_sums_and_first_column():
    c = tables.table_c(25)
    for n in range(1, 26):
        assert sum(c.row(n)) == cf.motzkin(n)
    for n in range(1, 24):
        assert c.entry(n + 2, 0) == cf.motzkin(n)


def test_table_c_matches_enumeration():
    c = tables.table_c(12)
    oracle = tables.table_c_enumerated(12)
    assert c.rows == oracle.rows


def test_table_c_row5_from_enumeration():
    row = [0] * 5
    for w in enumerate_words(5, WordClass.AVOID_GEQ_GEQ):
        row[w[-1]] += 1
    assert row == [4, 6, 6, 4, 1]
    assert tables.table_c(5).row(5) == row


PRINTED = {
    "sper": [[2], [3, 4], [5, 10, 6], [13, 20, 21, 8], [33, 50, 51, 36, 10],
             [89, 130, 132, 104, 55, 12]],
    "area": [[1], [2, 3], [4, 9, 6], [12, 20, 24, 10], [35, 55, 63, 50, 15]],
    "inter": [[0], [0, 0], [0, 1, 1], [1, 3, 6, 3], [6, 11, 18, 18, 6]],
}


@pytest.mark.parametrize("stat", tables.STATS)
def test_stat_tables_printed_matrices(stat):
    t = tables.table_stat(6, stat)
    for n, row in enumerate(PRINTED[stat], start=1):
        assert t.row(n) == row


def test_stat_table_row4_sums():
    assert sum(tables.table_stat(4, "sper").row(4)) == 62
    assert sum(tables.table_stat(4, "area").row(4)) == 66
    assert sum(tables.table_stat(4, "inter").row(4)) == 13


@pytest.mark.parametrize("stat", tables.STATS)
def test_stat_tables_match_enumeration(stat):
    t = tables.table_stat(10, stat)
    oracle = tables.table_stat_enumerated(10, stat)
    assert t.rows == oracle.rows


def test_stat_table_index_convention():
    # entry (n, i) totals the words whose last letter is i - 1
    t = tables.table_stat(8, "sper")
    for n in range(1, 9):
        for i in range(1, n + 1):
            expected = sum(
                stat_sper(w)
                for w in enumerate_words(n)
                if stat_last(w) == i - 1
            )
            assert t.entry(n, i) == expected


def test_table_resource_limit():
    with pytest.raises(ResourceLimit):
        tables.table_stat(tables.DEFAULT_TABLE_LIMIT + 1, "sper")
    tables.table_stat(61, "sper")
    tables.table_stat(20, "sper", limit=20)


def test_guarded_entry_out_of_triangle():
    c = tables.table_c(5)
    assert c.entry(0, 0) == 0
    assert c.entry(3, -1) == 0
    assert c.entry(3, 3) == 0
    assert c.entry(99, 0) == 0
    t = tables.table_stat(5, "area")
    assert t.entry(3, 0) == 0
    assert t.entry(3, 4) == 0


def test_totals_match_closed_forms():
    tot = tables.totals(tables.DEFAULT_TABLE_LIMIT)
    for n in range(1, tables.DEFAULT_TABLE_LIMIT + 1):
        assert tot.h[n] == cf.h_closed(n)
        assert tot.s[n] == cf.s_closed(n)
        assert tot.u[n] == cf.u_closed(n)
        assert tot.p[n] == cf.p_closed(n)


def test_totals_printed_lists():
    tot = tables.totals(10)
    assert tot.h[1:] == [0, 1, 4, 12, 34, 94, 258, 707, 1940, 5337]
    assert tot.s[1:5] == [2, 7, 21, 62]
    assert tot.p[1:7] == [0, 0, 2, 13, 59, 230]


# recurrence audit ------------------------------------------------------------------


@pytest.mark.parametrize("which", tables.RECURRENCES)
def test_check_recurrences_deterministic(which):
    a = tables.check_recurrences(9, which)
    b = tables.check_recurrences(9, which)
    assert a.mismatches == b.mismatches
    assert a.cells_checked == b.cells_checked
    assert a.cells_checked > 0


@pytest.mark.parametrize("which", tables.RECURRENCES)
def test_check_recurrences_lhs_is_table_value(which):
    stat = {"s": "sper", "u": "area", "p": "inter"}[which[0]]
    t = tables.table_stat(9, stat)
    rep = tables.check_recurrences(9, which)
    for (n, i, lhs, _rhs) in rep.mismatches:
        assert lhs == t.entry(n, i)
        assert _rhs != lhs


def test_larger_built_tables_give_the_same_reports_and_totals():
    # verify builds the tables once, at n = 30, and reads them at n = 10
    # and 20: no report or total reads a row past its own max_n
    built = {"c": tables.table_c(30), **{stat: tables.table_stat(30, stat) for stat in tables.STATS}}
    for which in tables.RECURRENCES:
        assert tables.check_recurrences(10, which, built) == tables.check_recurrences(10, which)
    assert tables.totals(20, built) == tables.totals(20)


def test_check_recurrences_documents_discrepancies():
    # the printed s-recurrence excludes the k = i term of its sum; the first
    # cell where that term is nonzero must therefore be reported
    rep = tables.check_recurrences(6, "s_base")
    assert not rep.ok
    cells = {(n, i) for (n, i, _, _) in rep.mismatches}
    assert (4, 2) in cells
    assert "disagree" in rep.summary()


def test_check_recurrences_reports_both_sides():
    # the area recurrence disagrees at (4, 3); the report must carry the
    # table value and the formula value explicitly
    rep = tables.check_recurrences(6, "u_base")
    hits = [(n, i, lhs, rhs) for (n, i, lhs, rhs) in rep.mismatches if (n, i) == (4, 3)]
    assert len(hits) == 1
    _, _, lhs, rhs = hits[0]
    assert lhs == 24  # total area of 0012, 0112, 0122
    assert isinstance(rhs, int) and rhs != lhs


def test_check_recurrences_range_guard():
    # n = 1 rows are outside every stated range, so a size-1 audit checks nothing
    for which in tables.RECURRENCES:
        rep = tables.check_recurrences(1, which)
        assert rep.cells_checked == 0
        assert rep.ok


def test_check_recurrence_unknown_name():
    with pytest.raises(ValueError):
        tables.check_recurrences(5, "nope")
