"""Pick's theorem ties the interior points to the other statistics.

A polyomino's area A, interior lattice points I and boundary lattice
points B satisfy A = I + B/2 - 1, and a bargraph's boundary has
B = 2 * semiperimeter points, so for every word
    area - interior points = semiperimeter - 1.
Each test reads the identity off a different layer: the statistic
formulas word by word, the closed totals, and the two master series,
which solve different functional equations.
"""

from collections import Counter

import pytest

from catpoly import closedforms, gfs, words
from catpoly.backend import pack, unpack
from catpoly.mpoly import MPoly


def test_every_avoiding_word_to_length_12():
    seen = 0
    for n in range(1, 13):
        for w in words.enumerate_words(n):
            rec = words.stat_record(w)
            assert rec.area - rec.inter == rec.sper - 1, w
            seen += 1
    assert seen == sum(closedforms.motzkin(n) for n in range(1, 13)) == 24870


def test_closed_totals_to_300():
    # summed over the m_n words of length n
    for n in range(1, 301):
        assert (
            closedforms.u_closed(n) - closedforms.p_closed(n)
            == closedforms.s_closed(n) - closedforms.motzkin(n)
        ), n


# 28 is the order at which tests/test_gfs.py pins both masters' digests
@pytest.mark.parametrize("order", [16, 28])
def test_interior_master_is_the_substituted_pqv_master(order):
    # p^a q^b v^c -> q^(b - a + 1) v^c takes (sper, area, last) to
    # (interior points, last)
    pqv, interior = gfs.master_pqv(order), gfs.master_interior_qv(order)
    for n in range(order):
        moved = Counter()
        for key, count in pqv.coeff(n).terms.items():
            a, b, c = unpack(key)
            moved[pack(0, b - a + 1, c)] += count
        assert MPoly(moved) == interior.coeff(n), n
    assert interior.coeff(order - 1)
