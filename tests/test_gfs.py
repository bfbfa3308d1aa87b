import hashlib
from itertools import groupby, product
from operator import add, lshift

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catpoly import backend, closedforms, gfs, tables, verify
from catpoly.errors import InternalInconsistency
from catpoly.backend import unpack
from catpoly.mpoly import Caps, MPoly, pack
from catpoly.series import Series
from catpoly.words import (
    INCREMENTS,
    WordClass,
    enumerate_words,
    increments,
    stat_area,
    stat_inter,
    stat_last,
    stat_sper,
    transfer,
)

# independent oracles ----------------------------------------------------------


def motzkin_by_recurrence(n):
    m = [1, 1]
    while len(m) <= n:
        k = len(m)
        m.append(m[k - 1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


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


def histogram_poly(n, cls, stat):
    out = MPoly.zero()
    for w in enumerate_words(n, cls):
        out = out + MPoly.monomial(1, 0, stat(w), 0)
    return out


def triple_histogram(n):
    out = MPoly.zero()
    for w in enumerate_words(n, WordClass.AVOID_GEQ_GEQ):
        out = out + MPoly.monomial(1, stat_sper(w), stat_area(w), stat_last(w))
    return out


def mono(c, dp=0, dq=0, dv=0):
    return MPoly.monomial(c, dp, dq, dv)


# base series --------------------------------------------------------------------


def test_gf_motzkin_values():
    assert gfs.gf_motzkin(6).scalar_coeffs() == [1, 1, 2, 4, 9, 21]
    m = gfs.gf_motzkin(25)
    for n in range(25):
        assert m.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def test_gf_trinomial_values():
    assert gfs.gf_trinomial(6).scalar_coeffs() == [1, 1, 3, 7, 19, 51]
    t = gfs.gf_trinomial(25)
    for n in range(25):
        assert t.coeff(n).as_scalar() == trinomial_by_power(n)


# total sequences -----------------------------------------------------------------

H_VALUES = [0, 1, 4, 12, 34, 94, 258, 707, 1940, 5337]
S_VALUES = [2, 7, 21, 62, 180, 522, 1512, 4384, 12726, 36995]
U_VALUES = [1, 5, 19, 66, 218, 701, 2215, 6919, 21438, 66034]
P_VALUES = [0, 0, 2, 13, 59, 230, 830, 2858, 9547, 31227]


@pytest.mark.parametrize("builder,expected", [
    (gfs.gf_h, H_VALUES),
    (gfs.gf_s, S_VALUES),
    (gfs.gf_u, U_VALUES),
    (gfs.gf_p, P_VALUES),
])
def test_total_series_printed_values(builder, expected):
    series = builder(11)
    assert series.coeff(0).as_scalar() == 0
    assert [series.coeff(n).as_scalar() for n in range(1, 11)] == expected


def test_totals_match_brute_force_sums():
    for n in range(1, 10):
        words = list(enumerate_words(n))
        assert gfs.gf_h(n + 1).coeff(n).as_scalar() == sum(stat_last(w) for w in words)
        assert gfs.gf_s(n + 1).coeff(n).as_scalar() == sum(stat_sper(w) for w in words)
        assert gfs.gf_u(n + 1).coeff(n).as_scalar() == sum(stat_area(w) for w in words)
        assert gfs.gf_p(n + 1).coeff(n).as_scalar() == sum(stat_inter(w) for w in words)


# multivariate master --------------------------------------------------------------


def test_master_pqv_bold_coefficients():
    m = gfs.master_pqv(6)
    last = m.eval_one("p").eval_one("q")
    assert last.coeff(4) == mono(2) + mono(3, 0, 0, 1) + mono(3, 0, 0, 2) + mono(1, 0, 0, 3)
    sper = m.eval_one("q").eval_one("v")
    assert sper.coeff(4) == mono(2, 6) + mono(6, 7) + mono(1, 8)


def test_master_pqv_counts():
    plain = gfs.master_pqv(10).eval_one("p").eval_one("q").eval_one("v")
    for n in range(1, 10):
        assert plain.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def test_master_pqv_equals_triple_histograms():
    m = gfs.master_pqv(8)
    for n in range(1, 8):
        assert m.coeff(n) == triple_histogram(n)


def test_master_specializations_match_closed_forms():
    m = gfs.master_pqv(9)
    assert m.eval_one("q") == gfs.cf_C_sper_v(9)
    assert m.eval_one("q").eval_one("v") == gfs.cf_S(9)
    assert m.eval_one("p").eval_one("q") == gfs.cf_C_last(9)


# closed forms from the kernel method ----------------------------------------------


def test_cf_S_series():
    s = gfs.cf_S(6)
    assert s.coeff(1) == mono(1, 2)
    assert s.coeff(2) == mono(1, 3) + mono(1, 4)
    assert s.coeff(3) == mono(3, 5) + mono(1, 6)
    assert s.coeff(4) == mono(2, 6) + mono(6, 7) + mono(1, 8)
    assert s.coeff(5) == mono(10, 8) + mono(10, 9) + mono(1, 10)


def test_cf_S_row_sums_are_motzkin():
    s = gfs.cf_S(12).eval_one("p")
    for n in range(1, 12):
        assert s.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def test_cf_C_sper_v_series():
    c = gfs.cf_C_sper_v(5)
    assert c.coeff(3) == mono(1, 5) + mono(2, 5, 0, 1) + mono(1, 6, 0, 2)
    assert c.coeff(4) == (
        mono(1, 6) + mono(1, 6, 0, 1) + mono(1, 7) + mono(2, 7, 0, 1)
        + mono(3, 7, 0, 2) + mono(1, 8, 0, 3)
    )
    assert c.eval_one("v") == gfs.cf_S(5)


def test_cf_C_last_series():
    c = gfs.cf_C_last(6)
    assert c.coeff(1) == mono(1)
    assert c.coeff(4) == mono(2) + mono(3, 0, 0, 1) + mono(3, 0, 0, 2) + mono(1, 0, 0, 3)
    assert c.coeff(5) == (
        mono(4) + mono(6, 0, 0, 1) + mono(6, 0, 0, 2) + mono(4, 0, 0, 3) + mono(1, 0, 0, 4)
    )
    plain = c.eval_one("v")
    for n in range(1, 6):
        assert plain.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def test_cf_C_last_histogram():
    c = gfs.cf_C_last(9)
    for n in range(1, 9):
        hist = MPoly.zero()
        for w in enumerate_words(n):
            hist = hist + mono(1, 0, 0, stat_last(w))
        assert c.coeff(n) == hist


# kernel root ----------------------------------------------------------------------


def test_kernel_root_annihilates():
    assert gfs.kernel_root_annihilates(gfs.kernel_root_v0(14))


def test_kernel_root_annihilates_at_every_order_2_to_30():
    for order in range(2, 31):
        assert gfs.kernel_root_annihilates(gfs.kernel_root_v0(order)), order


def test_kernel_root_annihilates_at_order_120():
    # the root's slots are about 180 bits wide here
    assert gfs.kernel_root_annihilates(gfs.kernel_root_v0(120))


@pytest.mark.parametrize("order, n, term", [
    (21, 10, mono(1, 1)),  # p added to the middle coefficient, 42p^15 + ... + p^19
    (3, 2, mono(-1, 3)),  # p^3 taken from the last one, p^3
    (21, 20, mono(-1, 30)),  # one taken from the last one's lowest term, 16796p^30
])
def test_kernel_check_sees_one_changed_term(monkeypatch, order, n, term):
    root = gfs.kernel_root_v0(order)
    root.coeffs[n] = root.coeffs[n] + term
    assert not gfs.kernel_root_annihilates(root)
    # and the verify check that reads it fails
    monkeypatch.setattr(gfs, "kernel_root_v0", lambda _order: root)
    [check] = [c for c in verify.run_verify(0, order).checks if c.name == "kernel_annihilation"]
    assert (check.status, check.detail) == ("fail", "kernel root does not annihilate the kernel")


@pytest.mark.parametrize("term", [mono(-1, 3), mono(1, 3, 0, 1), mono(1, 3, 1)])
def test_kernel_check_refuses_a_term_it_cannot_pack(term):
    # a negative term, or one in v or q, has no faithful packing in p alone
    root = gfs.kernel_root_v0(12)
    root.coeffs[5] = root.coeffs[5] + term
    with pytest.raises(InternalInconsistency, match=r"not in N\[p\]"):
        gfs.kernel_root_annihilates(root)


def test_kernel_root_at_p1():
    order = 12
    v0 = gfs.kernel_root_v0(order).eval_one("p")
    motz = gfs.gf_motzkin(order)
    # v0 (1 + x) = 1 + x M(x)
    numerator = Series.from_x_polynomial(order, [1]) + motz.mul_monomial(1, x_shift=1)
    assert v0 + v0.mul_monomial(1, x_shift=1) == numerator
    assert v0.coeff(0).as_scalar() == 1


# the master's equation at q = 1: a second route at the Cpv and Clast limits ----------


def master_residual_at_q1(f, p=1):
    """The master's equation at q = 1 with all terms on one side,
      [(1 - v) + (p^2 v^2 - p^2 v) x + p^3 v^2 x^2] f(v)
          - (1 - v)(p^2 x + p^3 x^2) - p^3 x^2 f(1),
    taken at p = 1 if p is 0.  Each x^n coefficient of the zero series fixes
    (1 - v) f_n from earlier ones, so f is the only series that zeroes it."""
    def term(g, c, dp, dv, x_shift):
        return g.mul_monomial(c, p * dp, 0, dv, x_shift=x_shift)

    one = Series.from_x_polynomial(f.order, [1])
    left = term(f, 1, 0, 0, 0) - term(f, 1, 0, 1, 0) + term(f, 1, 2, 2, 1) - term(f, 1, 2, 1, 1)
    left = left + term(f, 1, 3, 2, 2)
    right = term(one, 1, 2, 0, 1) - term(one, 1, 2, 1, 1) + term(one, 1, 3, 0, 2) - term(one, 1, 3, 1, 2)
    return left - right - term(f.eval_one("v"), 1, 3, 0, 2)


def test_master_equation_at_q1_is_the_masters():
    # the equation above, from master_pqv's arguments at q = 1
    m = gfs.master_pqv(12).eval_one("q")
    assert master_residual_at_q1(m).is_zero()
    assert master_residual_at_q1(m.eval_one("p"), p=0).is_zero()


@pytest.mark.parametrize("name, order, p", [("cf_C_sper_v", 101, 1), ("cf_C_last", 501, 0)])
def test_master_equation_at_q1_holds_at_the_cli_limits(name, order, p):
    assert master_residual_at_q1(getattr(gfs, name)(order), p).is_zero()


def test_master_equation_at_q1_sees_one_added_term():
    f = gfs.cf_C_sper_v(21)
    f.coeffs[10] = f.coeffs[10] + mono(1, 0, 0, 1)
    assert not master_residual_at_q1(f).is_zero()


def test_cf_S_is_cf_C_sper_v_at_v1_at_the_cpv_limit():
    assert gfs.cf_S(101) == gfs.cf_C_sper_v(101).eval_one("v")


# the transfer DP of the words: a second route at the S and Cpv limits -------------
#
# It shares nothing with the square root or the bracket of the closed forms.


def rows_in_p(c, n, w):
    """The v^0 .. v^(n-1) rows of the x^n coefficient c, each packed at
    p = 2^w; every term must lie in a row, carry no q and fit its slot."""
    rows = [0] * n
    for key, m in c.terms.items():
        dp, dq, dv = unpack(key)
        assert dq == 0 and dv < n and 0 < m < 1 << w, (n, dp, dq, dv, m)
        rows[dv] += m << dp * w
    return rows


def assert_cf_S_is_the_transfer_dp(order):
    # each slot counts words of one length n < order, so at most M(order - 1)
    w = closedforms.motzkin(order - 1).bit_length()
    packed = [sum(rows_in_p(c, n, w)) for n, c in enumerate(gfs.cf_S(order).coeffs)]
    assert packed == gfs._transfer_packed("sper", WordClass.AVOID_GEQ_GEQ, order, w)


def assert_cf_C_sper_v_rows_are_the_transfer_states(order):
    # the words of length n ending in c are U[c] + F[c] of the DP's states
    w = closedforms.motzkin(order - 1).bit_length()
    rise, fall = increments("sper", order, w)
    start = 1 << INCREMENTS["sper"][0] * w
    states = transfer(order - 1, WordClass.AVOID_GEQ_GEQ, start, lshift, rise, fall)
    cpv = gfs.cf_C_sper_v(order)
    assert not cpv.coeff(0)
    for n, (u, f, _total) in enumerate(states, 1):
        assert rows_in_p(cpv.coeff(n), n, w) == list(map(add, u, f)), n


def test_cf_S_is_the_transfer_dp_at_the_s_limit():
    # gf --which S --order 200 prints x^1 .. x^200
    assert_cf_S_is_the_transfer_dp(201)


def test_cf_C_sper_v_rows_are_the_transfer_states_at_the_cpv_limit():
    assert_cf_C_sper_v_rows_are_the_transfer_states(101)


def test_a_slip_in_the_kernel_bracket_fails_the_transfer_route(monkeypatch):
    monkeypatch.setattr(gfs, "_KERNEL_BRACKET", (((1, 2, 2), (-1, 2, 1)), ((1, 3, 1),)))
    with pytest.raises((AssertionError, InternalInconsistency)):
        assert_cf_C_sper_v_rows_are_the_transfer_states(30)


def test_a_slip_in_the_square_root_recurrence_fails_the_transfer_route(monkeypatch):
    # the recurrence of gfs._sqrt_sper_kernel with 8 (n - 3) for 4 (n - 3):
    # every division by n stays exact, so only a second route sees it
    def slipped(order):
        y = [MPoly.scalar(1), MPoly.monomial(-1, 2, 0, 0)][:order]
        for n in range(2, order):
            a, b = y[n - 1], y[n - 2]
            t = a.mul_monomial(2 * n - 3, 2) + b.mul_monomial(3 - n, 4)
            y.append((t + b.mul_monomial(8 * (n - 3), 3)).divide_monomial(n))
        return Series(order, y)

    monkeypatch.setattr(gfs, "_sqrt_sper_kernel", slipped)
    with pytest.raises(AssertionError):
        assert_cf_S_is_the_transfer_dp(30)


def test_cf_C_last_matches_table_c_at_the_clast_limit():
    # kernel-method closed form against the two-step recurrences of the
    # table, row by row: row n holds the counts by last letter 0 .. n - 1
    c, table = gfs.cf_C_last(301), tables.table_c(300)
    for n in range(1, 301):
        assert c.coeff(n) == MPoly({pack(0, 0, k): e for k, e in enumerate(table.rows[n - 1])}), n


@pytest.mark.parametrize("bracket", [
    (((1, 2, 2), (-1, 2, 1)), ((1, 3, 1),)),  # p^3 v instead of p^3 v^2
    (((1, 2, 2), (-2, 2, 1)), ((1, 3, 2),)),  # -2 p^2 v instead of -p^2 v
    (((1, 2, 2), (-1, 1, 1)), ((1, 3, 2),)),  # -p v instead of -p^2 v
    (((1, 2, 2),), ((1, 3, 2),)),  # -p^2 v dropped
])
def test_a_slip_in_the_kernel_bracket_fails_loudly(monkeypatch, bracket):
    # the divisions by 1 - v are exact, so a wrong divisor leaves a
    # remainder instead of a series in v cut at the caps
    monkeypatch.setattr(gfs, "_KERNEL_BRACKET", bracket)
    with pytest.raises(InternalInconsistency, match="not divisible by 1 - v"):
        gfs.cf_C_sper_v(12)


# rising-tail series (B and H flavours) ----------------------------------------------


def test_sum_B_low_coefficients():
    b = gfs.sum_B(6)
    assert b.coeff(1) == mono(1, 0, 1, 0)
    assert b.coeff(2) == mono(1, 0, 3, 0)
    assert b.coeff(3) == mono(1, 0, 4, 0) + mono(1, 0, 6, 0)
    assert b.coeff(4) == mono(1, 0, 6, 0) + mono(1, 0, 7, 0) + mono(1, 0, 8, 0) + mono(1, 0, 10, 0)


def test_sum_B_matches_enumeration():
    b = gfs.sum_B(10)
    for n in range(1, 10):
        assert b.coeff(n) == histogram_poly(n, WordClass.CLASS_B, stat_area)


def test_contfrac_equals_sum():
    # the convergents N/D carry every level, so one quotient ends the
    # evaluation at any order
    for order in range(1, 31):
        assert gfs.cf_B_contfrac(order) == gfs.sum_B(order), order


def test_prod_area_series():
    pa = gfs.prod_area(7)
    assert pa.coeff(3) == mono(2, 0, 4, 0) + mono(1, 0, 5, 0) + mono(1, 0, 6, 0)
    assert pa.coeff(5).coefficient(0, 9, 0) == 5
    at_one = pa.eval_one("q")
    for n in range(1, 7):
        assert at_one.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def test_prod_area_matches_enumeration():
    pa = gfs.prod_area(10)
    for n in range(1, 10):
        assert pa.coeff(n) == histogram_poly(n, WordClass.AVOID_GEQ_GEQ, stat_area)


def test_sum_H_low_coefficients():
    h = gfs.sum_H(6)
    assert h.coeff(1) == mono(1)
    assert h.coeff(2) == mono(1)
    assert h.coeff(3) == mono(1) + mono(1, 0, 1, 0)
    assert h.coeff(4) == mono(1) + mono(1, 0, 1, 0) + mono(1, 0, 2, 0) + mono(1, 0, 3, 0)


def test_sum_H_matches_enumeration():
    h = gfs.sum_H(10)
    for n in range(1, 10):
        assert h.coeff(n) == histogram_poly(n, WordClass.CLASS_B, stat_inter)


def test_prod_interior_series():
    pi = gfs.prod_interior(7)
    assert pi.coeff(5).coefficient(0, 3, 0) == 5
    assert pi.coeff(2) == mono(2)


def test_prod_interior_matches_enumeration():
    pi = gfs.prod_interior(10)
    for n in range(1, 10):
        assert pi.coeff(n) == histogram_poly(n, WordClass.AVOID_GEQ_GEQ, stat_inter)


def test_master_interior():
    m = gfs.master_interior_qv(9)
    assert m.eval_one("v") == gfs.prod_interior(9)
    plain = m.eval_one("v").eval_one("q")
    for n in range(1, 9):
        assert plain.coeff(n).as_scalar() == motzkin_by_recurrence(n)


def _digest(series):
    """SHA-256 of every coefficient, terms sorted by their exponents."""
    h = hashlib.sha256(f"order {series.order}\n".encode())
    for n, c in enumerate(series.coeffs):
        terms = sorted((unpack(k), v) for k, v in c.terms.items())
        body = " ".join(f"{p},{q},{v}={x}" for (p, q, v), x in terms)
        h.update(f"{n}:{body}\n".encode())
    return h.hexdigest()


# recorded before the series layer packed whole q-only series; at order 28
# the coefficients reach 30 bits, so product slots pass 64 bits
ORDER_28_DIGESTS = {
    "sum_B": "e3c8d663cf579563ca19a0ce5b3a033caf56bb104d8be02481e10ebcb7d7df6c",
    "sum_H": "3a1799c44b4aa5bbe31186bff50b901de49f01baeb9aab775d985598e1cbf494",
    "prod_area": "4b1610e0b695edc4afa61ce97230aac6dda119118a650baa045b8f3881a854c3",
    "prod_interior": "9728864da16216751618659fe85b90fd730b32027cb3eca9b0faf54d3d7fce76",
}


# recorded while the sums still multiplied by 1/(1 - q^j) as MPoly products;
# order 40 lies past every benchmark order, and each sum takes about 0.6 s
ORDER_40_DIGESTS = {
    "sum_B": "d0efff46d89fd3a7f3c62a50abe0c38902e1f7386baf546932b3b6b748ca77dc",
    "sum_H": "ed1b8cd8d44daefaf1b36275c7ca3742c8a12695ef0c3f3797f6e4a5ba6904cf",
    # recorded while the product forms still telescoped through Series products
    "prod_area": "c6ebbba9222e115d007fb7a2aca9724d7d175c93ff588bd2898fc82b2913e315",
    "prod_interior": "f782bc879eac5b26b76e1493f63da5117c3f84691aecbc7953d09d89f600cbd7",
}


# recorded while the masters were still built on MPoly term dicts
MASTER_DIGESTS = {
    ("master_pqv", 28): "85f17f73883a5db57c9beadecc96fe5668a137a5e1d0345a444dc790751b8aac",
    ("master_interior_qv", 28): "52f451a4730a3d8ba534797b4bcaad8399fba054fc64695f8a25e94ac74dbddb",
    ("master_pqv", 40): "214566a70d8abf505afdf5f92ca552d2df6e98c3302aef505a38498ae14b4be9",
    # recorded while each slot was still read back with its own int.from_bytes;
    # order 39 is the last with 8-byte slots (one 64-bit limb), order 40 the
    # first with 9-byte slots (two limbs)
    ("master_pqv", 39): "0bb7e7aa53d36b5995479e053923dd355c196819da78c978867c107c72bed773",
    ("master_interior_qv", 39): "06399d815a5a99c1af04e2357fc294904aaf4840536bbe4ab6ea410307a9fefc",
    ("master_interior_qv", 40): "c785343ca93cfa0b61fb7ffe9f0a49c48f54260fbd7a82670e04fa79d78f68c2",
}


# recorded while every slot was still sized from 3^order; with slots sized
# from M(order - 1) and two spare bits, order 44 was the last with 8-byte
# slots (one 64-bit limb) and order 45 the first with 9-byte slots (two limbs)
LIMB_BOUNDARY_DIGESTS = {
    ("sum_H", 44): "418311866fb643b19d6486fe0c530a2eda4d5e2c1e1e7c27a7b1b8db15980867",
    ("sum_H", 45): "d83b31501056bed1a0eefb24cd2371a43e217c1cdeb71a0c601c22319e34ea75",
    ("master_interior_qv", 44): "08eeccce6bb99e317873a4600c5e415f0ed478e37cba8def38de5d8d0fb0722f",
    ("master_interior_qv", 45): "7ff9d037283cdfa0280dc5eb2f001e8e99f2d72a2ef8b9ac4b20805235ec8d86",
    # recorded while the slots still kept two spare bits; with one, order 45
    # was the last with 8-byte slots and order 46 the first with 9-byte slots
    ("sum_H", 46): "c43224c165df325aef8aef6fed1aa7c5d266736f7964662db4bac141d2a7bb41",
    ("master_interior_qv", 46): "d1cebdf77d6b6d9a3ae5c7ed3bb021bf91103ead0ce02fb0de4ec748f868c7a2",
    # recorded while the slots still kept a sign bit; with unsigned slots,
    # order 46 is the last with 8-byte slots and order 47 the first with 9
    ("sum_H", 47): "c148c2756b10ef7ccae258e8adc110e08269df7bba9f63b0c155f5fe25c91896",
    ("master_interior_qv", 47): "5167c211bcfd767cec0b373c73aab381946e482b6218f29d079dfbdd33e32dc6",
}


# recorded while the four series were still built from the paper's forms,
# which took 2-16 s each at this order
ORDER_60_DIGESTS = {
    "sum_B": "a66e15cf01d67d4a5d4e77db86d46bf6f3c1955a3f2ca81527b14ff7c1c40c1e",
    "sum_H": "f430ab108b4149adc164d2bdf0e16a2b516b6e8beeada2bfb10f8e90ddcd640f",
    "prod_area": "c2721b7cf8d3519387b0651f8ad7de813cc45f0686e20d7f71b12482f8706e37",
    "prod_interior": "5599eee4e57f8c5228ff19827972591ad05e4a6030585bda52708d06ed2dbe2f",
}


# recorded while the six scalar series were still built by hand, one body
# each, and re-recorded over the coefficients alone: SHA-256 over the
# digest of every order 1..60
SCALAR_DIGESTS = {
    "gf_motzkin": "d783f40c44b481a97ed5e915213350d309897a867c3c977369b6e4184ee62d64",
    "gf_trinomial": "6402085777dffb511e04eb8865c1e822ef67a1a9806a5ff9097e61f69779319c",
    "gf_h": "5ea8193fecdd5e1566a8ec4870ce5e39809677235d4b7e764d88984b6410ecf5",
    "gf_s": "ef5e3f0514b7447394735282a5a3b7a09969162a1e784f339552033534ee9486",
    "gf_u": "2d32b6a61b033d7a8438e76be915017a5a93fc28d1a83f2fd46ecd9bf0203cb3",
    "gf_p": "e7abe8142117057cd90d737355c8df04d0980e6232dc018ec3c794317759b832",
}


# recorded while the coefficients were still exact rationals, every one of
# them whole: SHA-256 over the digest of every order 1..30
ROUTE_DIGESTS = {
    "cf_S": "596491a6343f9df749fc6b81ce455548f1f0b70fc163aad0158775ae82948f72",
    "cf_C_sper_v": "f4ee6bb8ca5e8f14b573abca26f255fb7e4627076d2bd5ed5a908c9197e2d2fd",
    "cf_C_last": "a129f368ad1125441e0704e5501bf8f791ea99e1e67d09c046eb9fe24cd3c330",
    "kernel_root_v0": "c360edc53901edafcf0323fd7f57189e66a537aed422a8b9473974c77bf95887",
    "cf_B_contfrac": "7936e98829408c6a0f52f7b2764ec90859d633ca3e5dbd13098bbe755ed86373",
    "kernel_residual": "1520edd3491ce71ffe6cf779fbfee19f120654e74c238c2c793088401133518a",
}


# recorded while the six scalar series and the semiperimeter kernel's root
# were still built by ``Series.sqrt``, at the ``gf`` limits (the totals
# print from x^1, so they are built one order higher) and at the order of
# ``kernel_root_v0`` that the S limit reaches; slots pass 8 bytes here
LIMIT_DIGESTS = {
    ("gf_motzkin", 1000): "a11fa40dc63c05206cc8cf437d0ccfc2d0282042cf9e011b4d5dba03ea114c1e",
    ("gf_trinomial", 1000): "e19a20b941e37a4385b5371012209a378cf8a37c893a0a862b17112bdbe53dad",
    ("gf_h", 1001): "996652961b465cc45c550bee242184f35e877e24715a706e4236e89842ed0d58",
    ("gf_s", 1001): "52601d0942d2d9ec9bb3e89974d1e4257878093ab0ac45e0b81e6e7035bc8ff0",
    ("gf_u", 1001): "8e2aee43700ca33303fa5f2db5db64e10b38a19bcfd0b5a8e03e6e55e9f74983",
    ("gf_p", 1001): "674794fafb3fbb5b33fdb65b734bbfcee7fb359cc94cb43b10ea2243c23c8e61",
    ("cf_S", 201): "f17de9da909dfd22e49df0c72e956096e2e8a3b643eb23e0003dbbcc14c9bdd3",
    ("kernel_root_v0", 100): "86fd13133a538cc2b7b677e8b70349b7cfd6f65e649e8e5d57b4ecf847c8fade",
    # recorded while the two kernel-method quotients still ran through the
    # packed ``Series.div``, at their ``gf`` limits (printed from x^1)
    ("cf_C_sper_v", 61): "5048d1ec8123432ef49e89cfaf4b09cc1ffab1b89bae7584999220480d06571e",
    ("cf_C_last", 301): "a41516ca3a4088702a34b94d44e0e9f39900010e47da9c81db9047e61106408e",
}


def series_product(a, b):
    """The product of the series a and b, each x^k coefficient the sum of
    the MPoly products under the key of the whole fields."""
    return Series(a.order, [
        sum((a.coeff(i).mul(b.coeff(k - i), backend.FIELD_KEY) for i in range(k + 1)), MPoly.zero())
        for k in range(a.order)
    ])


def kernel_residual(order):
    """(1 - v0)(1 - p^2 x v0) + p^3 x^2 v0^2 of the kernel's root, which
    must vanish mod x^order: the series form of what
    ``gfs.kernel_root_annihilates`` checks on packed ints."""
    v0 = gfs.kernel_root_v0(order)
    one = Series.from_x_polynomial(order, [1])
    p2xv0 = v0.mul_monomial(1, 2, 0, 0, x_shift=1)
    return series_product(one - v0, one - p2xv0) + series_product(v0, v0).mul_monomial(1, 3, 0, 0, x_shift=2)


def constructor(name):
    """The library constructor ``name``, or the residual built above."""
    return kernel_residual if name == "kernel_residual" else getattr(gfs, name)


#: Every public constructor of the library, and the kernel residual
CONSTRUCTORS = [
    "gf_motzkin", "gf_trinomial", "gf_h", "gf_s", "gf_u", "gf_p",
    "master_pqv", "master_interior_qv",
    "cf_S", "cf_C_sper_v", "cf_C_last", "kernel_root_v0", "kernel_residual",
    "sum_B", "cf_B_contfrac", "sum_H", "prod_area", "prod_interior",
]


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_every_constructor_lies_within_the_caps_of_its_order(name):
    # no statistic of a word shorter than the order passes the caps of that
    # order, so no constructor holds a term past them, padded orders and
    # divisions by x^k included
    for order in range(1, 25):
        s = constructor(name)(order)
        caps = Caps.for_order(order)
        assert s.order == order
        for c in s.coeffs:
            assert all(all(e <= cap for e, cap in zip(unpack(k), caps)) for k in c.terms)
            assert all(type(x) is int for x in c.terms.values())


def _orders_digest(name, orders):
    """SHA-256 over the digest of the constructor ``name`` at each order."""
    h = hashlib.sha256()
    for order in orders:
        h.update(f"{_digest(constructor(name)(order))}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCALAR_DIGESTS))
def test_scalar_series_bit_identical_at_orders_1_to_60(name):
    assert _orders_digest(name, range(1, 61)) == SCALAR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROUTE_DIGESTS))
def test_closed_forms_and_continued_fraction_bit_identical_at_orders_1_to_30(name):
    assert _orders_digest(name, range(1, 31)) == ROUTE_DIGESTS[name]


@pytest.mark.parametrize("name, order", sorted(LIMIT_DIGESTS))
def test_square_root_series_bit_identical_at_the_cli_limits(name, order):
    assert _digest(getattr(gfs, name)(order)) == LIMIT_DIGESTS[name, order]


@pytest.mark.parametrize("name, printed", [
    ("h", ([-6, -7, 3, 3, -1], 0, 0)),
    ("s", ([-5, -4, 3], 0, 0)),
    ("u", ([0, 2, -1, -3, 1], 1, 0)),
    ("p", ([8, 8, -5, -3, 1], 1, 0)),
    ("M", ([3, 2, -1], 0, 0)),
    ("T", ([2], 0, 0)),
])
def test_trinomial_form_of_each_algebraic_series(name, printed):
    # the rows the paper prints for h, s, u, p, with no (-1)^n part, and
    # 2 M(n) = 3 T(n) + 2 T(n + 1) - T(n + 2)
    assert gfs.trinomial_form(name) == printed


@pytest.mark.parametrize("name", sorted(gfs.ALGEBRAIC_FORMS))
def test_trinomial_form_gives_the_series(name):
    a, b, d = gfs.trinomial_form(name)
    c, P, Q, k, e = gfs.ALGEBRAIC_FORMS[name]
    series = gfs._algebraic_series(name, 40)
    first = max(0, len(P) - k - e)
    for n in range(first, 35):
        want = sum(ai * trinomial_by_power(n + i) for i, ai in enumerate(a))
        want += b * 3 ** (n + 1) + d * (-1) ** n
        assert 2 * series.coeff(n).as_scalar() == want, n


@pytest.mark.parametrize("name", sorted(ORDER_28_DIGESTS))
def test_dense_constructors_bit_identical_at_order_28(name):
    assert _digest(getattr(gfs, name)(28)) == ORDER_28_DIGESTS[name]
    if name in ORDER_40_DIGESTS:
        assert _digest(getattr(gfs, name)(40)) == ORDER_40_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ORDER_60_DIGESTS))
def test_dense_constructors_bit_identical_at_order_60(name):
    assert _digest(getattr(gfs, name)(60)) == ORDER_60_DIGESTS[name]


def test_motzkin_series_past_order_1023():
    # the scalar series carry no caps, so the key fields do not refuse them
    assert gfs.gf_motzkin(1500).scalar_coeffs() == [closedforms.motzkin(n) for n in range(1500)]


def test_a_slip_in_the_algebraic_table_fails_loudly(monkeypatch):
    # the last entry of P one too large leaves odd numerators, which the
    # exact division by -2 refuses
    c, P, Q, k, e = gfs.ALGEBRAIC_FORMS["u"]
    monkeypatch.setitem(gfs.ALGEBRAIC_FORMS, "u", (c, P[:-1] + [P[-1] + 1], Q, k, e))
    with pytest.raises(InternalInconsistency):
        gfs.gf_u(5)


def test_sums_make_no_kernel_call(monkeypatch):
    # sum_B/sum_H run on packed q-integers, so the term kernel never runs
    def refuse(*args):
        raise AssertionError("term kernel called")

    monkeypatch.setattr(backend, "mul_into", refuse)
    gfs.sum_B(12)
    gfs.sum_H(12)


@pytest.mark.parametrize("name, order", sorted(MASTER_DIGESTS))
def test_masters_bit_identical(name, order):
    assert _digest(getattr(gfs, name)(order)) == MASTER_DIGESTS[name, order]


@pytest.mark.parametrize("name, order", sorted(LIMB_BOUNDARY_DIGESTS))
def test_two_limb_readback_boundary_bit_identical(name, order):
    assert gfs._slot_bytes(order) == (9 if order == 47 else 8)
    assert _digest(getattr(gfs, name)(order)) == LIMB_BOUNDARY_DIGESTS[name, order]


def test_masters_make_no_mpoly_arithmetic(monkeypatch):
    # the masters run on packed q-rows and build each MPoly once, at readback
    def refuse(*args, **kwargs):
        raise AssertionError("MPoly arithmetic in a master")

    for name in ("__add__", "__sub__", "mul_monomial"):
        monkeypatch.setattr(MPoly, name, refuse)
    gfs.master_pqv(12)
    gfs.master_interior_qv(12)


DENSE = ("sum_B", "sum_H", "prod_area", "prod_interior")


def test_dense_constructors_make_no_mpoly_or_series_arithmetic(monkeypatch):
    # the sums and the product forms run on packed q-integers, pack nothing
    # from an MPoly and build each MPoly once, at readback
    def refuse(*args, **kwargs):
        raise AssertionError("MPoly or Series arithmetic in a dense constructor")

    for name in ("__add__", "__sub__", "mul_monomial"):
        monkeypatch.setattr(MPoly, name, refuse)
    for name in DENSE:
        getattr(gfs, name)(12)


def interior_histogram(n):
    out = MPoly.zero()
    for w in enumerate_words(n):
        out = out + MPoly.monomial(1, 0, stat_inter(w), stat_last(w))
    return out


@pytest.mark.parametrize("order", [7, 9])
@pytest.mark.parametrize("name, histogram", [
    ("master_pqv", triple_histogram),
    ("master_interior_qv", interior_histogram),
])
def test_masters_equal_the_histograms(name, histogram, order):
    hist = [MPoly.zero()] + [histogram(n) for n in range(1, order)]
    assert getattr(gfs, name)(order).coeffs == hist


def dense_histograms(name, order):
    """Enumeration histograms of a dense constructor at x^0 .. x^(order-1)."""
    cls = WordClass.CLASS_B if name.startswith("sum") else WordClass.AVOID_GEQ_GEQ
    stat = stat_area if name in ("sum_B", "prod_area") else stat_inter
    return [MPoly.zero()] + [histogram_poly(n, cls, stat) for n in range(1, order)]


@pytest.mark.parametrize("order", [7, 9])
@pytest.mark.parametrize("name", DENSE)
def test_dense_constructors_equal_the_histograms(name, order):
    assert getattr(gfs, name)(order).coeffs == dense_histograms(name, order)


@pytest.mark.parametrize("name", DENSE)
def test_dense_constructors_equal_the_paper_forms(name):
    # the transfer DP against the paper's ratio and product forms
    for order in range(1, 41):
        assert getattr(gfs, name)(order) == gfs.paper_form(name, order), order


def test_dense_constructors_form_no_quotient(monkeypatch):
    # the DP counts words by shifts and adds; only the paper's form of the
    # sums divides
    def refuse(*args):
        raise AssertionError("gfs._ratio called")

    monkeypatch.setattr(gfs, "_ratio", refuse)
    for name in DENSE:
        getattr(gfs, name)(12)
    with pytest.raises(AssertionError, match="_ratio"):
        gfs.paper_form("sum_B", 12)


def _telescope(order, w, b, qexp):
    """Packed coefficients of the sum over i >= 1 of
    x^i q^qexp(i) prod_{k < i} (1 + B(x q^k)), for B packed in ``b``.

    The paper's telescoped sum, evaluated term by term with about
    order^3/6 products: the i-th partial product is multiplied by x^i, so
    only its first order - i coefficients reach the result, and only mod
    q^(N - qexp(i)).
    """
    top = gfs._slots(order - 1)
    out = [0] * order
    partial = [1] + [0] * (order - 1)
    for i in range(1, order):
        bits = w * (top - qexp(i))
        if bits <= 0:
            break
        mask = (1 << bits) - 1
        # times 1 + B(x q^(i-1)), whose x^t coefficient is b[t] shifted (i - 1) t slots
        for n in range(order - i - 1, 0, -1):
            c = partial[n]
            for t in range(1, n + 1):
                s = (i - 1) * t * w
                if s >= bits:
                    break
                c += partial[n - t] * b[t] << s
            partial[n] = c & mask
        shift = qexp(i) * w
        for n in range(order - i):
            out[n + i] += partial[n] << shift
    mask = (1 << (w * top)) - 1
    return [c & mask for c in out]


TELESCOPED = {
    "prod_area": (gfs._sum_B_packed, lambda i: i * (i + 1) // 2),
    "prod_interior": (gfs._sum_H_packed, lambda i: (i - 2) * (i - 1) // 2),
}


def telescoped_sum(name, order):
    """A product form evaluated from its telescoped sum, on the packed sum."""
    packed, qexp = TELESCOPED[name]
    return gfs._dense_series(order, lambda order, w: _telescope(order, w, packed(order, w), qexp))


@pytest.mark.parametrize("name", sorted(TELESCOPED))
def test_product_forms_equal_the_telescoped_sum(name):
    for order in range(1, 17):
        assert getattr(gfs, name)(order).coeffs == telescoped_sum(name, order).coeffs, order


PACKED = DENSE + ("master_pqv", "master_interior_qv")


def test_dense_constructors_decode_each_series_once(monkeypatch):
    # every coefficient of a dense series or a master is read back by one decode
    calls = []
    real = backend.read_slots

    def spy(raw, nbytes, keys):
        calls.append(len(keys))
        return real(raw, nbytes, keys)

    monkeypatch.setattr(backend, "read_slots", spy)
    for name in PACKED:
        calls.clear()
        getattr(gfs, name)(12)
        assert calls == [12], name


@pytest.mark.parametrize("name", PACKED)
def test_packed_series_read_back_in_bounded_batches(monkeypatch, name):
    # a bound far below one series' slot bytes splits the decode into
    # batches of whole coefficients, with the same terms
    calls = []
    real = backend.read_slots

    def spy(raw, nbytes, keys):
        calls.append(len(keys))
        return real(raw, nbytes, keys)

    monkeypatch.setattr(backend, "read_slots", spy)
    monkeypatch.setattr(gfs, "_READ_BATCH_BYTES", 1024)
    digest = ORDER_28_DIGESTS[name] if name in DENSE else MASTER_DIGESTS[name, 28]
    assert _digest(getattr(gfs, name)(28)) == digest
    assert len(calls) > 2 and sum(calls) == 28


@pytest.mark.parametrize("name", ["master_pqv", "master_interior_qv"])
def test_master_rows_read_back_from_their_lowest_nonzero_slot(monkeypatch, name):
    # each nonzero (p, v) row hands over its slots from its lowest nonzero
    # one to its top one, so no leading or trailing zero slot of a row
    # reaches the dict build, and a zero row hands over none
    runs = []
    real = backend.read_slots

    def spy(raw, nbytes, keys):
        keys = [list(k) for k in keys]
        slots = [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
        assert len(slots) == sum(map(len, keys))
        it = iter(slots)
        for k in keys:
            for _, run in groupby(k, lambda key: unpack(key)[::2]):
                qs = [unpack(key)[1] for key in run]
                assert qs == list(range(qs[0], qs[-1] + 1))
                runs.append((qs[0], [next(it) for _ in qs]))
        return real(raw, nbytes, keys)

    monkeypatch.setattr(backend, "read_slots", spy)
    assert _digest(getattr(gfs, name)(28)) == MASTER_DIGESTS[name, 28]
    assert runs and all(run[0] and run[-1] for _, run in runs)
    # the trim is real: many rows start above q^0
    assert sum(q0 > 0 for q0, _ in runs) > len(runs) // 2


def assert_slots_within_motzkin(series):
    """Every stored coefficient of the x^n coefficient lies in [0, M(n)]."""
    for n, c in enumerate(series.coeffs):
        top = motzkin_by_recurrence(n)
        assert all(0 <= v <= top for v in c.terms.values()), n


@pytest.mark.parametrize("name", PACKED)
def test_packed_slots_lie_within_motzkin(name):
    # the premise of the slot width: each slot read back counts avoiding
    # words of one length n, so it lies in [0, M(n)]
    assert_slots_within_motzkin(getattr(gfs, name)(40 if name in DENSE else 24))


def test_slot_width_holds_motzkin_unsigned():
    # M(13) = 41835 takes 16 bits: 2 bytes unsigned, where a sign bit took 3
    assert gfs._slot_bytes(14) == 2


def test_packed_slots_sized_from_motzkin(monkeypatch):
    # M(11) = 5798 needs 2 bytes; 3^12 would need 3
    widths = []
    real = backend.read_slots

    def spy(raw, nbytes, keys):
        widths.append(nbytes)
        return real(raw, nbytes, keys)

    monkeypatch.setattr(backend, "read_slots", spy)
    for name in PACKED:
        widths.clear()
        getattr(gfs, name)(12)
        assert widths and set(widths) == {2}, name


@pytest.mark.parametrize("name", PACKED)
def test_packed_constructors_reject_order_zero(name):
    with pytest.raises(ValueError, match="^series order must be >= 1$"):
        getattr(gfs, name)(0)


def test_product_forms_equal_masters_at_order_24():
    assert gfs.prod_area(24) == gfs.master_pqv(24).eval_one("p").eval_one("v")
    assert gfs.prod_interior(24) == gfs.master_interior_qv(24).eval_one("v")


def test_master_interior_last_letter_histogram():
    m = gfs.master_interior_qv(8)
    for n in range(1, 8):
        assert m.coeff(n) == interior_histogram(n)


# derivative identities ----------------------------------------------------------


# forward recurrence and the geometric product ---------------------------------


def test_forward_solver_one_evaluation_per_order():
    calls = []

    def contributions(prefix, n):
        assert len(prefix) == n
        calls.append(n)
        return prefix[n - 1].mul_monomial(1, 1, 0, 0) if n else MPoly.scalar(1)

    coeffs = gfs._solve_forward(6, contributions)
    assert calls == list(range(6))
    assert coeffs == [MPoly.monomial(1, n, 0, 0) for n in range(6)]


def test_forward_solver_rejects_reading_ahead():
    # a right-hand side that reads its own order is not a forward
    # recurrence; the solver must refuse instead of returning a non-fixed point
    def contributions(prefix, n):
        return prefix[n]

    read_ahead = r"^contribution to x\^0 read a coefficient of order >= 0$"
    with pytest.raises(InternalInconsistency, match=read_ahead):
        gfs._solve_forward(4, contributions)


# master_pqv's monomials with one exponent off: the minus term q^4 v^2 where
# the equation has q^5 v^2, and v^3 where it has v^2
_PQV = ((2, 1), (3, 2)), (2, 2, 1), (3, 3)


def test_master_with_a_wrong_minus_term_raises():
    # the 1/(1 - qv) sum leaves a remainder past the last letter n - 1;
    # with every row kept to order + 1 entries, this master came back with
    # 309 terms at v >= n and 551 negative coefficients
    remainder = r"^the 1/\(1 - qv\) sum of x\^3 p\^5 runs past v = 2$"
    with pytest.raises(InternalInconsistency, match=remainder):
        gfs._master(8, *_PQV, (3, 4, 2))


@pytest.mark.parametrize(
    "step, minus",
    [
        ((2, 2, 1), (3, 5, 3)),
        ((2, 2, 1), (3, 5, 0)),
        ((2, 2, 2), (3, 5, 2)),
        ((2, 2, -1), (3, 5, 2)),
    ],
    ids=["minus-v3", "minus-v0", "step-v2", "step-v-1"],
)
def test_master_refuses_steps_that_leave_the_rows(step, minus):
    # a step past v^1 or a minus term past v^2 writes past the rows v < n
    # of x^n, and a minus term at v^0 would overwrite the plus term
    shape = rf"^step v\^{step[2]} or minus v\^{minus[2]} leaves the rows v < n of x\^n "
    with pytest.raises(InternalInconsistency, match=shape):
        gfs._master(8, _PQV[0], step, _PQV[2], minus)


def _geom_oracle(dq, caps):
    """The truncated 1/(1 - q^dq) as an explicit MPoly, for the dense product."""
    return MPoly({pack(0, t * dq, 0): 1 for t in range(caps.q // dq + 1)})


def _naive_capped_product(a, b, caps):
    """a*b term by term on exponent triples, without the terms past the caps."""
    out = {}
    for (ka, ca), (kb, cb) in product(a.terms.items(), b.terms.items()):
        e = tuple(x + y for x, y in zip(unpack(ka), unpack(kb)))
        if all(x <= c for x, c in zip(e, caps)):
            out[e] = out.get(e, 0) + ca * cb
    return MPoly({pack(*e): c for e, c in out.items()})


def signed_slots(value, nslots, nbytes):
    """Slots 0..nslots-1 of value in two's complement, w = 8 * nbytes bits
    each: the signed w-bit digit peeled off the bottom, one at a time."""
    w = 8 * nbytes
    out = []
    for _ in range(nslots):
        c = int.from_bytes((value & ((1 << w) - 1)).to_bytes(nbytes, "little"), "little", signed=True)
        out.append(c)
        value = (value - c) >> w
    return out


@st.composite
def capped_q_poly(draw):
    """A q cap and a q-only integer MPoly whose exponents reach one past it."""
    cap_q = draw(st.integers(min_value=0, max_value=12))
    m = MPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        c = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        m = m + MPoly.monomial(c, 0, draw(st.integers(min_value=0, max_value=cap_q + 1)), 0)
    return Caps(0, cap_q, 0), m


@settings(max_examples=300, deadline=None)
@given(capped_q_poly(), st.integers(min_value=1, max_value=4))
@example((Caps(0, 0, 0), MPoly.monomial(-2, 0, 0, 0)), 1)
@example((Caps(0, 8, 0), MPoly.monomial(1, 0, 7, 0) + MPoly.monomial(-1, 0, 1, 0)), 3)
@example((Caps(0, 5, 0), MPoly.monomial(3, 0, 5, 0) + MPoly.monomial(-3, 0, 0, 0)), 6)
def test_packed_geom_matches_dense_product(case, dq):
    # the doubling steps of gfs._geom against a naive capped product,
    # signed slots included
    caps, m = case
    nbytes = 8
    w = 8 * nbytes
    mask = (1 << (w * (caps.q + 1))) - 1
    packed = sum(c << (w * (k >> backend.QSHIFT)) for k, c in m.terms.items()) & mask
    slots = signed_slots(gfs._geom(packed, dq, w, mask), caps.q + 1, nbytes)
    got = MPoly({pack(0, k, 0): c for k, c in enumerate(slots) if c})
    assert got == _naive_capped_product(m, _geom_oracle(dq, caps), caps)


def test_derivative_identity_semiperimeter():
    d = gfs.cf_S(31).derivative("p").eval_one("p")
    g = gfs.gf_s(31)
    for n in range(1, 31):
        assert d.coeff(n) == g.coeff(n)


def test_derivative_identity_last_letter():
    d = gfs.cf_C_last(31).derivative("v").eval_one("v")
    g = gfs.gf_h(31)
    for n in range(1, 31):
        assert d.coeff(n) == g.coeff(n)


def test_derivative_identity_area_and_interior():
    du = gfs.prod_area(10).derivative("q").eval_one("q")
    gu = gfs.gf_u(10)
    dp = gfs.prod_interior(10).derivative("q").eval_one("q")
    gp = gfs.gf_p(10)
    for n in range(1, 10):
        assert du.coeff(n) == gu.coeff(n)
        assert dp.coeff(n) == gp.coeff(n)
