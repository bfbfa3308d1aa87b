"""The packed key layout, the term kernel and the loud field limit."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catpoly import backend
from catpoly.backend import GUARDS, MAXCAP, cap_key, pack, unpack
from catpoly.errors import ResourceLimit
from catpoly.mpoly import Caps, MPoly

exponent = st.integers(min_value=0, max_value=MAXCAP)
triple = st.tuples(exponent, exponent, exponent)


@given(triple)
def test_pack_unpack_round_trip(exps):
    assert unpack(pack(*exps)) == exps


def test_cap_key_accepts_field_bounds():
    for caps in product((0, MAXCAP), repeat=3):
        assert unpack(cap_key(*caps)) == caps


def test_pack_rejects_out_of_field_exponents():
    for bad in ((MAXCAP + 1, 0, 0), (0, MAXCAP + 1, 0), (0, 0, MAXCAP + 1), (-1, 0, 0)):
        with pytest.raises(ValueError):
            pack(*bad)
        with pytest.raises(ValueError):
            cap_key(*bad)


@given(triple, triple, triple)
def test_guard_test_matches_per_field_comparison(a, b, caps):
    inside = all(x + y <= c for x, y, c in zip(a, b, caps))
    assert ((cap_key(*caps) - pack(*a) - pack(*b)) & GUARDS == GUARDS) == inside


def test_cap_filtering_drops_out_of_range_products():
    caps = Caps(2, 2, 2)
    a = {pack(2, 0, 0): 1}
    b = {pack(1, 0, 0): 1, pack(0, 1, 0): 1}
    acc = {}
    backend.mul_into(acc, a, b, caps.key)
    # p^3 exceeds the cap; p^2 q survives
    assert acc == {pack(2, 1, 0): 1}


def test_cap_filtering_keeps_products_on_the_cap():
    caps = Caps(3, 4, 5)
    a = {pack(1, 2, 3): 1}
    on_cap = pack(2, 2, 2)
    past_cap = [pack(3, 2, 2), pack(2, 3, 2), pack(2, 2, 3)]
    acc = {}
    backend.mul_into(acc, a, {k: 1 for k in [on_cap, *past_cap]}, caps.key)
    assert acc == {pack(3, 4, 5): 1}


def test_unbounded_product_is_exact_above_the_old_p_field():
    p300 = MPoly.monomial(1, dp=300)
    assert p300 * p300 == MPoly.monomial(1, dp=600)


@pytest.mark.parametrize("var", range(3))
def test_unbounded_product_past_field_raises(var):
    top = [0, 0, 0]
    top[var] = MAXCAP
    one = [0, 0, 0]
    one[var] = 1
    with pytest.raises(ResourceLimit):
        MPoly.monomial(1, *top) * MPoly.monomial(1, *one)
    with pytest.raises(ResourceLimit):
        MPoly.monomial(1, *top).mul_monomial(1, *one)
    # on the field maximum itself nothing is dropped
    half = MAXCAP // 2
    lo = [0, 0, 0]
    lo[var] = half
    hi = [0, 0, 0]
    hi[var] = MAXCAP - half
    assert MPoly.monomial(1, *lo) * MPoly.monomial(1, *hi) == MPoly.monomial(1, *top)


def test_capped_product_still_truncates():
    caps = Caps(2, 2, 2)
    p2 = MPoly.monomial(1, dp=2)
    assert p2.mul(p2, caps.key) == MPoly.zero()
    assert p2.mul_monomial(1, dp=1, capkey=caps.key) == MPoly.zero()


def test_caps_for_order_field_limit():
    assert Caps.for_order(1023) == Caps(2046, 1023 * 1024 // 2, 1023)
    with pytest.raises(ResourceLimit):
        Caps.for_order(1024)
