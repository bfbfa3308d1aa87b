import math
from fractions import Fraction

import pytest

from catpoly import closedforms as cf
from catpoly import gfs
from catpoly.cli import _GF_BUILDERS
from catpoly.errors import InternalInconsistency, ResourceLimit
from catpoly.words import (
    enumerate_words,
    stat_area,
    stat_inter,
    stat_last,
    stat_sper,
)

# independent oracles ------------------------------------------------------------


def trinomial_by_power(n):
    poly = [1]
    for _ in range(n):
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i] += c
            out[i + 1] += c
            out[i + 2] += c
        poly = out
    return poly[n]


def motzkin_by_recurrence(n):
    m = [1, 1]
    while len(m) <= n:
        k = len(m)
        m.append(m[k - 1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


# trinomial / motzkin --------------------------------------------------------------


def test_trinomial_small_values():
    assert [cf.trinomial(n) for n in range(6)] == [1, 1, 3, 7, 19, 51]
    assert cf.trinomial(0) == 1


def test_trinomial_against_power_oracle():
    for n in range(51):
        assert cf.trinomial(n) == trinomial_by_power(n)


def test_trinomial_matches_series():
    t = gfs.gf_trinomial(51)
    for n in range(51):
        assert cf.trinomial(n) == t.coeff(n).as_scalar()


def test_motzkin_values():
    assert [cf.motzkin(n) for n in range(6)] == [1, 1, 2, 4, 9, 21]
    assert cf.motzkin(4) == 9
    assert cf.motzkin(14) == 113634


def test_motzkin_against_recurrence_oracle():
    for n in range(60):
        assert cf.motzkin(n) == motzkin_by_recurrence(n)


def trinomial_by_binomial_sum(n):
    return sum(math.comb(n, k) * math.comb(n - k, k) for k in range(n // 2 + 1))


def motzkin_by_binomial_sum(n):
    total = sum(math.comb(n + 1, i) * math.comb(n + 1 - i, i + 1) for i in range(n // 2 + 1))
    assert total % (n + 1) == 0
    return total // (n + 1)


def test_p_recurrences_match_binomial_sums():
    for n in range(200):
        assert cf.trinomial(n) == trinomial_by_binomial_sum(n)
        assert cf.motzkin(n) == motzkin_by_binomial_sum(n)


@pytest.mark.parametrize("name, slipped", [("trinomial", [1, 1, 4]), ("motzkin", [1, 1, 3])])
def test_p_recurrence_division_guard(monkeypatch, name, slipped):
    # a wrong earlier term makes the next division inexact, and that fails loudly
    monkeypatch.setattr(cf, f"_{name.upper()}S", slipped)
    with pytest.raises(InternalInconsistency):
        getattr(cf, name)(3)
    with pytest.raises(ValueError):
        getattr(cf, name)(-1)


# the four totals -----------------------------------------------------------------


def test_values_at_3():
    assert cf.h_closed(3) == 4
    assert cf.s_closed(3) == 21
    assert cf.u_closed(3) == 19
    assert cf.p_closed(3) == 2


def test_h_closed_starts_at_zero():
    assert cf.h_closed(1) == 0
    assert cf.h_closed(2) == 1


@pytest.mark.parametrize("closed,series", [
    (cf.h_closed, gfs.gf_h),
    (cf.s_closed, gfs.gf_s),
    (cf.u_closed, gfs.gf_u),
    (cf.p_closed, gfs.gf_p),
])
def test_closed_forms_match_series(closed, series):
    # to the default limit of ``catpoly gf``, so every total it prints has
    # this second route, which shares no code with the series
    limit = _GF_BUILDERS[series.__name__.removeprefix("gf_")][2]
    ser = series(limit + 1)
    for n in range(1, limit + 1):
        assert closed(n) == ser.coeff(n).as_scalar()


@pytest.mark.parametrize("which, closed", [("M", cf.motzkin), ("T", cf.trinomial)])
def test_motzkin_and_trinomial_match_series(which, closed):
    # to the default limit of ``catpoly gf``: the numbers by their own
    # P-recurrences, the series from the root of Delta
    builder, _start, limit = _GF_BUILDERS[which]
    assert getattr(gfs, builder)(limit).scalar_coeffs() == [closed(n) for n in range(limit)]


def test_halving_guard_catches_a_slipped_row(monkeypatch):
    # 2 h(n) = T(n) would make h(1) = 1/2: the odd numerator fails loudly
    monkeypatch.setitem(cf.TRINOMIAL_FORMS, "h", ([1], 0))
    with pytest.raises(InternalInconsistency, match=r"^h_closed\(1\): odd numerator 1$"):
        cf.h_closed(1)


def test_closed_forms_match_enumeration():
    for n in range(1, 11):
        words = list(enumerate_words(n))
        assert cf.h_closed(n) == sum(stat_last(w) for w in words)
        assert cf.s_closed(n) == sum(stat_sper(w) for w in words)
        assert cf.u_closed(n) == sum(stat_area(w) for w in words)
        assert cf.p_closed(n) == sum(stat_inter(w) for w in words)


def test_exactness_guards_hold_to_500():
    for n in range(1, 501):
        cf.h_closed(n)
        cf.s_closed(n)
        cf.u_closed(n)
        cf.p_closed(n)
        cf.motzkin(n)


# asymptotics and expected values ---------------------------------------------------


def test_asym_up_trivial_value():
    assert cf.asym_up(1) == 4.5


def test_asym_ratios_approach_one():
    assert abs(cf.h_closed(400) / cf.asym_h(400) - 1) < abs(cf.h_closed(100) / cf.asym_h(100) - 1)
    assert 0.9 <= cf.u_closed(200) / cf.asym_up(200) <= 1.1


# recorded while the helpers still returned inf or raised OverflowError
# past the float range: every value that fits, as float.hex
ASYM_VALUES = {
    "asym_h": {50: "0x1.42b26fcc6accep+73", 300: "0x1.9f126fca2f66cp+465",
               640: "0x1.ecc80a1fe81a4p+1002"},
    "asym_s": {50: "0x1.a42dac3cd5babp+77", 300: "0x1.9558012b724a3p+472",
               640: "0x1.00a82ff09e385p+1011", 645: "0x1.e55ae1dce0ae5p+1018"},
    "asym_up": {50: "0x1.c80ffbd2918f7p+79", 300: "0x1.0d6b7feec878dp+476",
                640: "0x1.f254f3dad2460p+1014", 645: "0x1.d906a378b5987p+1022"},
}


@pytest.mark.parametrize("name", sorted(ASYM_VALUES))
def test_asymptotics_fail_one_way_past_the_float_range(name):
    # a value past the largest float raises ResourceLimit, whether the
    # power overflows (asym_h(646)) or only the product does (asym_h(645))
    for n in (50, 300, 640, 645, 646, 700):
        if n in ASYM_VALUES[name]:
            assert getattr(cf, name)(n).hex() == ASYM_VALUES[name][n]
        else:
            with pytest.raises(ResourceLimit, match="float range"):
                getattr(cf, name)(n)


def test_expected_last():
    assert 3.8 <= float(cf.expected_last(200)) <= 4.0


def test_expected_sper_exact_value():
    assert cf.expected_sper(4) == Fraction(62, 9)


def test_expected_sper_linear_growth():
    ratio = float(cf.expected_sper(300)) / (5 * 300 / 3)
    assert 0.95 <= ratio <= 1.05
