"""Triangular tables of counts and statistic totals.

Four tables: c(n, k) counts words of length n with last letter k
(0-based); the s/u/p tables hold the total semiperimeter/area/interior
points of words of length n whose last column has height i (1-based,
i = last letter + 1).  The c table follows the published recurrences;
the statistic tables are the transfer DP of ``words.transfer`` on dual
numbers (count, total), whose ground truth is full enumeration at small
sizes.  The printed recurrences for s/u/p are evaluated verbatim by
check_recurrences and any disagreement is reported, never silently
patched.
"""

from typing import Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .closedforms import motzkin
from .errors import ResourceLimit
from .words import (
    INCREMENTS,
    WordClass,
    enumerate_words,
    increments,
    stat_area,
    stat_inter,
    stat_sper,
    transfer,
)

#: Largest table size the DP builders accept unless overridden.  It guards
#: output size, which grows as n^3: 3.1 MB of text at n = 300, in 0.08 s.
DEFAULT_TABLE_LIMIT = 300

STATS = ("sper", "area", "inter")


class TriTable(NamedTuple):
    """Lower-triangular integer table; row n has entries at indices
    first_index .. first_index + n - 1."""

    name: str
    first_index: int
    rows: List[List[int]]

    @property
    def size(self):
        return len(self.rows)

    def row(self, n):
        return self.rows[n - 1]

    def entry(self, n, j):
        """Guarded lookup: 0 outside the triangle."""
        if not 1 <= n <= len(self.rows):
            return 0
        row = self.rows[n - 1]
        idx = j - self.first_index
        if not 0 <= idx < len(row):
            return 0
        return row[idx]

    def row_sums(self):
        return [sum(row) for row in self.rows]


def table_c(max_n: int) -> TriTable:
    """Last-letter counts from the two-step recurrences.

    Row m: entry 0 is the full sum of row m-2; entry k+1 adds the row-(m-1)
    entry k to the tail sum of row m-2 from k on.  Bases: rows [1], [1, 1].
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    rows = [[1]]
    if max_n >= 2:
        rows.append([1, 1])
    for m in range(3, max_n + 1):
        prev, prev2 = rows[m - 2], rows[m - 3]
        tail = list(prev2)
        for j in range(len(tail) - 2, -1, -1):
            tail[j] += tail[j + 1]
        row = [sum(prev2)]
        for k in range(m - 1):
            row.append(prev[k] + (tail[k] if k < len(tail) else 0))
        rows.append(row)
    return TriTable("c", 0, rows)


def tabulate_by_last(name: str, first_index: int, rows: Iterable[Iterable[Tuple[int, int]]]) -> TriTable:
    """Table whose row n sums the values of the (last letter, value) pairs
    of its words; the n-th item of ``rows`` holds the pairs of length n.

    The enumerated twins feed it from ``enumerate_words``; ``verify``
    feeds it from the statistics it has already computed.
    """
    out = []
    for n, pairs in enumerate(rows, start=1):
        row = [0] * n
        for last, value in pairs:
            row[last] += value
        out.append(row)
    return TriTable(name, first_index, out)


def table_c_enumerated(max_n: int, limit: int = 16) -> TriTable:
    """Oracle twin of table_c built by full enumeration."""
    return tabulate_by_last("c", 0, (
        ((w[-1], 1) for w in enumerate_words(n, WordClass.AVOID_GEQ_GEQ, limit))
        for n in range(1, max_n + 1)
    ))


def table_stat(max_n: int, stat: str, limit: int = DEFAULT_TABLE_LIMIT) -> TriTable:
    """Statistic totals by ``words.transfer`` on dual numbers.

    Each state holds count + total 2^W: q = 1 + e with e = 2^W and e^2 = 0,
    so appending a letter that adds k maps x to x + k (x mod 2^W) 2^W.
    Every count, and every sum of counts read out, is at most
    M(max_n) < 2^W (M = Motzkin), so no count carries into the totals,
    which sit above them unbounded.
    """
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > limit:
        raise ResourceLimit(f"table size {max_n} exceeds limit {limit}")
    width = motzkin(max_n).bit_length()
    low = (1 << width) - 1

    def times(layer, rise):
        return [x + ((x & low) * k << width) for x, k in zip(layer, increments(stat, rise))]

    states = transfer(max_n, WordClass.AVOID_GEQ_GEQ, 1 + (INCREMENTS[stat][0] << width), times)
    return TriTable(stat, 1, [[(a + b) >> width for a, b in zip(u, f)] for u, f in states])


def table_stat_enumerated(max_n: int, stat: str, limit: int = 16) -> TriTable:
    """Oracle twin of table_stat built by full enumeration."""
    fn = {"sper": stat_sper, "area": stat_area, "inter": stat_inter}[stat]
    return tabulate_by_last(stat, 1, (
        ((w[-1], fn(w)) for w in enumerate_words(n, WordClass.AVOID_GEQ_GEQ, limit))
        for n in range(1, max_n + 1)
    ))


class Totals(NamedTuple):
    """Sequences indexed by length n (index 0 is unused padding)."""

    h: List[int]
    s: List[int]
    u: List[int]
    p: List[int]


def totals(max_n: int, built: Optional[Mapping[str, TriTable]] = None) -> Totals:
    """h(n) from the c table, s/u/p(n) as row sums of the statistic tables.

    ``built`` maps "c" and each of ``STATS`` to a table of at least max_n
    rows, which is read instead of building the tables at max_n.
    """
    if built is None:
        built = {"c": table_c(max_n), **{stat: table_stat(max_n, stat) for stat in STATS}}
    h = [0] + [sum(k * v for k, v in enumerate(row)) for row in built["c"].rows[:max_n]]
    out = {stat: [0] + built[stat].row_sums()[:max_n] for stat in STATS}
    return Totals(h=h, s=out["sper"], u=out["area"], p=out["inter"])


# -- verbatim evaluation of the published recurrences ---------------------------


class RecurrenceReport(NamedTuple):
    which: str
    max_n: int
    cells_checked: int
    mismatches: List[Tuple[int, int, int, int]]  # (n, i, table_value, recurrence_value)

    @property
    def ok(self):
        return not self.mismatches

    def summary(self):
        if self.ok:
            return f"{self.which}: {self.cells_checked} cells agree (n <= {self.max_n})"
        head = ", ".join(
            f"(n={n},i={i}) table={lhs} formula={rhs}"
            for n, i, lhs, rhs in self.mismatches[:4]
        )
        more = "" if len(self.mismatches) <= 4 else f", ... ({len(self.mismatches)} total)"
        return (
            f"{self.which}: {len(self.mismatches)}/{self.cells_checked} cells disagree "
            f"with the printed recurrence: {head}{more}"
        )


RECURRENCES = ("s_base", "s_diff", "u_base", "u_diff", "p_base", "p_diff")


def check_recurrences(
    max_n: int, which: str, built: Optional[Mapping[str, TriTable]] = None
) -> RecurrenceReport:
    """Evaluate one printed recurrence cell-by-cell against the DP tables.

    Out-of-triangle references count as 0.  The s_diff formula is printed
    with unbalanced parentheses; it is evaluated with each multiplier
    applied to its own group, i.e. 2*(...) + 3*(...).  ``built`` is read
    as in ``totals``: no cell of a row past max_n is referenced.
    """
    if which not in RECURRENCES:
        raise ValueError(f"unknown recurrence {which!r}")
    stat = {"s": "sper", "u": "area", "p": "inter"}[which[0]]
    if built is None:
        built = {"c": table_c(max_n), stat: table_stat(max_n, stat)}
    c, t = built["c"], built[stat]

    def C(n, k):
        return c.entry(n, k)

    def T(n, i):
        return t.entry(n, i)

    mismatches = []
    checked = 0

    if which == "s_base":
        for n in range(3, max_n + 1):
            for i in range(2, n):
                rhs = T(n - 1, i - 1) + 2 * C(n - 1, i - 2)
                rhs += sum(
                    T(n - 2, k) + 3 * C(n - 2, k - 1)
                    for k in range(i - 1, n - 1)
                    if k != i
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))
    elif which == "s_diff":
        for n in range(3, max_n + 1):
            for i in range(2, n):
                rhs = (
                    T(n, i - 1)
                    + T(n - 1, i - 1)
                    + T(n - 2, i - 1)
                    - T(n - 1, i - 2)
                    - T(n - 2, i)
                    - T(n - 2, i - 2)
                    + 2 * (C(n - 1, i - 2) - C(n - 1, i - 3))
                    + 3 * (C(n - 2, i - 2) - C(n - 2, i - 1) - C(n - 2, i - 2))
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))
    elif which == "u_base":
        for n in range(2, max_n + 1):
            for i in range(2, n + 1):
                rhs = T(n - 1, i - 1) + (i + 1) * C(n - 1, i - 2)
                rhs += sum(
                    T(n - 2, k - 1) + (i + k + 2) * C(n - 2, k - 2)
                    for k in range(i, n - 1)
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))
    elif which == "u_diff":
        for n in range(2, max_n + 1):
            for i in range(3, n + 1):
                rhs = (
                    T(n, i - 1)
                    + T(n - 1, i - 1)
                    - T(n - 1, i - 2)
                    + T(n - 2, n - 3)
                    - T(n - 2, i - 2)
                    + (n + i) * C(n - 2, n - 4)
                    - (2 * i + 1) * C(n - 2, i - 3)
                    + (i + 1) * C(n - 1, i - 2)
                    - i * C(n - 1, i - 3)
                    + sum(C(n - 2, k - 2) for k in range(i - 1, n - 1))
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))
    elif which == "p_base":
        for n in range(2, max_n + 1):
            for i in range(2, n + 1):
                rhs = T(n - 1, i - 1) + (i - 2) * C(n - 1, i - 2)
                rhs += sum(
                    T(n - 2, k - 1) + (i + k - 3) * C(n - 2, k - 2)
                    for k in range(i, n - 1)
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))
    else:  # p_diff
        for n in range(2, max_n + 1):
            for i in range(3, n + 1):
                rhs = (
                    T(n, i - 1)
                    + T(n - 1, i - 1)
                    - T(n - 1, i - 2)
                    + (i - 2) * C(n - 1, i - 2)
                    - (i - 3) * C(n - 1, i - 3)
                    + T(n - 2, n - 3)
                    - T(n - 2, i - 2)
                    + (n + i - 5) * C(n - 2, n - 4)
                    - (2 * i - 4) * C(n - 2, i - 3)
                    + sum(C(n - 2, k - 2) for k in range(i - 2, n - 1))
                )
                checked += 1
                if rhs != T(n, i):
                    mismatches.append((n, i, T(n, i), rhs))

    return RecurrenceReport(which, max_n, checked, mismatches)
