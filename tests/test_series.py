from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpoly import backend, closedforms, gfs, mpoly
from catpoly.backend import FIELD_KEY, MAXCAP, cap_key, pack, unpack
from catpoly.errors import (
    InternalInconsistency,
    NonUnitDivisor,
    OrderMismatch,
    ResourceLimit,
)
from catpoly.mpoly import MPoly
from catpoly.series import Series

def series_from_terms(spec, order=5):
    """spec: list per x-order of (coeff, dp, dq, dv) tuples."""
    coeffs = []
    for terms in spec:
        acc = MPoly.zero()
        for (c, dp, dq, dv) in terms:
            acc = acc + MPoly.monomial(c, dp, dq, dv)
        coeffs.append(acc)
    while len(coeffs) < order:
        coeffs.append(MPoly.zero())
    return Series(order, coeffs[:order])


term = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
series_strategy = st.lists(st.lists(term, max_size=3), min_size=1, max_size=5).map(
    series_from_terms
)


# MPoly basics ------------------------------------------------------------------


def test_mpoly_zero_fraction_normalization():
    # a zero coefficient is dropped; every coefficient counts polyominoes, so
    # each constructor refuses a Fraction, even a whole or zero one, and a float
    assert MPoly.scalar(6 // 3).terms == {0: 2}
    assert MPoly.scalar(0).terms == {}
    assert MPoly({pack(1, 0, 0): 1, 0: 0}).terms == {pack(1, 0, 0): 1}
    for c in (Fraction(6, 3), Fraction(0, 5), Fraction(1, 2), 2.0):
        for make in (
            lambda: MPoly({pack(1, 0, 0): 1, 0: c}),
            lambda: MPoly.scalar(c),
            lambda: MPoly.monomial(c, 1, 0, 0),
        ):
            with pytest.raises(TypeError):
                make()


def test_mpoly_addition_cancels():
    a = MPoly.monomial(2, 1, 0, 0)
    b = MPoly.monomial(-2, 1, 0, 0)
    assert (a + b).terms == {}


def mpoly_product(a, b, capkey=FIELD_KEY):
    """a * b through the term kernel, without its terms past the caps of
    ``capkey``: none under the key of the whole fields."""
    acc = {}
    backend.mul_into(acc, a.terms, b.terms, capkey)
    return MPoly(acc)


def test_mpoly_mul_and_str():
    a = MPoly.monomial(1, 0, 1, 0) + MPoly.scalar(1)  # 1 + q
    b = MPoly.monomial(1, 0, 0, 1)  # v
    assert str(mpoly_product(a, b)) == "v+qv"
    # the caps cut the product: q^1 v^1 passes a q cap of 0
    assert str(mpoly_product(a, b, cap_key(1, 0, 1))) == "v"


def test_mpoly_derivative():
    m = MPoly.monomial(3, 0, 4, 0)  # 3q^4
    assert m.derivative("q") == MPoly.monomial(12, 0, 3, 0)
    assert m.derivative("p").terms == {}


def test_mpoly_eval_one_merges():
    m = MPoly.monomial(1, 0, 2, 1) + MPoly.monomial(1, 0, 2, 0)  # q^2 v + q^2
    assert m.eval_one("v") == MPoly.monomial(2, 0, 2, 0)


def test_mpoly_mul_monomial_normalises_once():
    # an int multiplier keeps int coefficients and a zero one gives zero;
    # scale and mul_monomial refuse a Fraction, even a whole one, and a float
    m = MPoly.monomial(3, 1, 0, 0)
    c = m.mul_monomial(2, 0, 1, 0).coefficient(1, 1, 0)
    assert c == 6 and type(c) is int
    assert not m.mul_monomial(0, 0, 1, 0) and not m.scale(0)
    for c in (Fraction(6, 3), Fraction(1, 2), 2.0):
        for make in (lambda: m.scale(c), lambda: m.mul_monomial(c, 0, 1, 0)):
            with pytest.raises(TypeError):
                make()


# arithmetic properties -----------------------------------------------------------


def pairwise_product(a, b):
    """The coefficients of the product of the series a and b, each x^k
    coefficient the sum of the MPoly products under the key of the whole
    fields, which cuts none of them."""
    return [
        sum((mpoly_product(a.coeff(i), b.coeff(k - i)) for i in range(k + 1)), MPoly.zero())
        for k in range(a.order)
    ]


@settings(max_examples=25, deadline=None)
@given(series_strategy)
def test_divide_one_minus_v_roundtrip(a):
    # every coefficient times 1 - v divides back exactly
    for c in a.coeffs:
        assert (c - c.mul_monomial(1, dv=1)).divide_one_minus_v() == c


def test_square_roots_square_back():
    # each root by its recurrence squares back: that of Delta = 1 - 2x - 3x^2
    # on ints, and that of the semiperimeter kernel 1 - 2p^2 x + (p^4 - 4p^3) x^2
    x2 = MPoly.monomial(1, 4, 0, 0) + MPoly.monomial(-4, 3, 0, 0)
    for order in range(2, 41):
        delta = Series.from_x_polynomial(order, gfs._sqrt_delta(order))
        root = gfs._sqrt_sper_kernel(order)
        kernel = Series.from_x_polynomial(order, [1, MPoly.monomial(-2, 2, 0, 0), x2])
        assert pairwise_product(delta, delta) == Series.from_x_polynomial(order, [1, -2, -3]).coeffs
        assert pairwise_product(root, root) == kernel.coeffs


@pytest.mark.parametrize("constant", [
    MPoly.scalar(2),
    MPoly.scalar(3),
    MPoly.scalar(2) - MPoly.monomial(2, 0, 0, 1),  # 2 (1 - v)
])
def test_invert_refuses_a_constant_term_other_than_one_or_minus_one(constant):
    # the inverse of any other scalar part is no integer series
    with pytest.raises(NonUnitDivisor):
        mpoly.invert(constant, cap_key(8, 10, 4))


# exact exponents ----------------------------------------------------------------


def test_a_term_past_the_caps_of_the_order_is_kept():
    # q^9 lies past the area cap 3 of order 2; mul_monomial keeps it, as
    # +, - and == do
    a = Series(2, [MPoly.monomial(1, 0, 9, 0), MPoly.scalar(1)])
    assert a == a.mul_monomial(1)


@pytest.mark.parametrize("dp, dq, dv", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_an_exponent_past_the_key_fields_raises_where_it_is_formed(dp, dq, dv):
    top = MPoly.monomial(1, MAXCAP * dp, MAXCAP * dq, MAXCAP * dv)
    below = MPoly.monomial(1, (MAXCAP - 1) * dp, (MAXCAP - 1) * dq, (MAXCAP - 1) * dv)
    assert below.mul_monomial(1, dp, dq, dv) == top
    with pytest.raises(ResourceLimit, match="passes the key fields"):
        top.mul_monomial(1, dp, dq, dv)
    s = Series.from_x_polynomial(2, [top])
    with pytest.raises(ResourceLimit, match="passes the key fields"):
        s.mul_monomial(1, dp, dq, dv)


def test_a_series_past_order_1023_takes_monomial_shifts():
    # no order refuses a series: only the key fields bound an exponent
    m = gfs.gf_motzkin(2000)
    shifted = m.mul_monomial(1, x_shift=2)
    assert shifted.coeffs == [MPoly.zero()] * 2 + m.coeffs[:-2]
    counts = m.scalar_coeffs()
    assert [c.coefficient(dv=2) for c in m.mul_monomial(1, dv=2).coeffs] == counts


def test_divide_one_minus_v_is_exact_or_raises():
    # the division by 1 - v is exact or raises: 1 / (1 - v) is no
    # polynomial, and a truncated geometric series would hide the remainder
    one_minus_v = MPoly.scalar(1) - MPoly.monomial(1, 0, 0, 1)
    with pytest.raises(InternalInconsistency):
        MPoly.scalar(1).divide_one_minus_v()
    with pytest.raises(InternalInconsistency):
        (one_minus_v + MPoly.monomial(1, 2, 1, 3)).divide_one_minus_v()
    assert one_minus_v.divide_one_minus_v() == MPoly.scalar(1)
    assert MPoly.zero().divide_one_minus_v() == MPoly.zero()


def test_order_mismatch_raises():
    a = Series.from_x_polynomial(4, [1])
    b = Series.from_x_polynomial(5, [1])
    with pytest.raises(OrderMismatch):
        a + b


def test_coeff_out_of_range():
    a = Series.from_x_polynomial(4, [1])
    with pytest.raises(OrderMismatch):
        a.coeff(4)


# marker operations ------------------------------------------------------------


def test_derivative_term_by_term():
    v2 = MPoly.monomial(1, 0, 0, 2)
    s = Series.from_x_polynomial(3, [0, v2])
    d = s.derivative("v")
    assert d.coeff(1) == MPoly.monomial(2, 0, 0, 1)


# exactness guards ----------------------------------------------------------------


def test_divide_by_x_power_guard():
    s = Series.from_x_polynomial(4, [0, 1, 1])
    shifted = s.divide_by_x_power(1)
    assert shifted.order == 3
    assert shifted.scalar_coeffs() == [1, 1, 0]
    with pytest.raises(InternalInconsistency):
        s.divide_by_x_power(2)


def test_divide_coeffs_monomial_guard():
    p3 = MPoly.monomial(4, 3, 0, 0)
    s = Series.from_x_polynomial(3, [p3])
    q = s.divide_coeffs_monomial(2, 3, 0, 0)
    assert q.coeff(0) == MPoly.scalar(2)
    for c, dp in ((2, 4), (3, 3)):  # a missing power of p, a remainder
        with pytest.raises(InternalInconsistency):
            s.divide_coeffs_monomial(c, dp, 0, 0)


def test_monomial_divide_refuses_a_remainder():
    m = MPoly.monomial(6, 2, 0, 0) + MPoly.monomial(-4, 3, 1, 0)
    assert m.divide_monomial(-2, 2, 0, 0) == MPoly.scalar(-3) + MPoly.monomial(2, 1, 1, 0)
    for c in (3, 4):
        with pytest.raises(InternalInconsistency):
            m.divide_monomial(c, 2, 0, 0)


# mpoly.invert against a term-by-term oracle ----------------------------------------


def within(e, caps):
    return all(x <= c for x, c in zip(e, caps))


def naive_mul(a, b, caps):
    """Series product on {(p, q, v): c} dicts, one term pair at a time."""
    out = [{} for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            for (ea, ca), (eb, cb) in product(ai.items(), b[j].items()):
                e = tuple(x + y for x, y in zip(ea, eb))
                if within(e, caps):
                    out[i + j][e] = out[i + j].get(e, 0) + ca * cb
    return [{e: c for e, c in d.items() if c} for d in out]


def naive_inverse(u, caps):
    """Inverse of u = s (1 - t), s = +-1, in the capped ring: s sum_m t^m."""
    s = u[(0, 0, 0)]
    t = {e: -c * s for e, c in u.items() if e != (0, 0, 0)}
    out, power = {(0, 0, 0): 1}, {(0, 0, 0): 1}
    while power:
        power = naive_mul([power], [t], caps)[0]
        for e, c in power.items():
            out[e] = out.get(e, 0) + c
    return {e: c * s for e, c in out.items() if c}


def to_series(spec):
    return Series(len(spec), [MPoly({pack(*e): c for e, c in d.items()}) for d in spec])


UNITS = [
    {(0, 0, 0): 1},
    {(0, 0, 0): -1},
    {(0, 0, 0): 1, (0, 1, 0): 1},  # 1 + q
    {(0, 0, 0): 1, (1, 0, 0): 1},  # 1 + p
    {(0, 0, 0): 1, (0, 0, 1): -1},  # 1 - v
]


def inverse_terms(unit, caps):
    """``mpoly.invert`` of a unit given as {(p, q, v): c}, back on exponent
    triples."""
    inv = mpoly.invert(to_series([unit]).coeffs[0], cap_key(*caps))
    return {unpack(k): c for k, c in inv.terms.items()}


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("unit", UNITS)
def test_invert_sizes_its_loop_from_the_caps(unit, order):
    # invert takes no bound: the loop it derives from the caps reaches the
    # inverse of every unit at every order
    caps = (2 * order, order * (order + 1) // 2, order)  # semiperimeter, area, last letter
    inv = inverse_terms(unit, caps)
    assert naive_mul([inv], [unit], caps) == [{(0, 0, 0): 1}]
    assert inv == naive_inverse(unit, caps)


@pytest.mark.parametrize("order", range(1, 5))
def test_invert_bound_is_tight(order):
    # for 1 - (p + q + v), t = p + q + v and t^k stays nonzero up to k =
    # cap_p + cap_q + cap_v, where p^cap_p q^cap_q v^cap_v appears, so the
    # inverse needs every pass of the derived loop
    caps = (2 * order, order * (order + 1) // 2, order)  # semiperimeter, area, last letter
    unit = {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1}
    inv = inverse_terms(unit, caps)
    assert naive_mul([inv], [unit], caps) == [{(0, 0, 0): 1}]
    assert inv[tuple(caps)] != 0


def test_trinomial_quotient_past_64_bits():
    # 1/sqrt(1 - 2x - 3x^2), built as Q sqrt(Delta) over Delta: integer
    # scalar coefficients that pass 2^64, which times sqrt(Delta) give 1
    t = gfs.gf_trinomial(60).scalar_coeffs()
    root = gfs._sqrt_delta(60)
    assert t == [closedforms.trinomial(n) for n in range(60)]
    assert t[59] > 2**64
    assert [sum(t[i] * root[n - i] for i in range(n + 1)) for n in range(60)] == [1] + [0] * 59
