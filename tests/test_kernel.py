"""The packed key layout, the term kernel, the loud field limit and the slot readback."""

import sys
from array import array
from functools import partial
from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catpoly import backend, gfs
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
    backend.mul_into(acc, a, b, cap_key(*caps))
    # p^3 exceeds the cap; p^2 q survives
    assert acc == {pack(2, 1, 0): 1}


def test_cap_filtering_keeps_products_on_the_cap():
    caps = Caps(3, 4, 5)
    a = {pack(1, 2, 3): 1}
    on_cap = pack(2, 2, 2)
    past_cap = [pack(3, 2, 2), pack(2, 3, 2), pack(2, 2, 3)]
    acc = {}
    backend.mul_into(acc, a, {k: 1 for k in [on_cap, *past_cap]}, cap_key(*caps))
    assert acc == {pack(3, 4, 5): 1}


def test_capped_product_still_truncates():
    caps = Caps(2, 2, 2)
    p2 = MPoly.monomial(1, dp=2)
    assert p2.mul(p2, cap_key(*caps)) == MPoly.zero()


def test_caps_for_order_field_limit():
    assert Caps.for_order(1023) == Caps(2046, 1023 * 1024 // 2, 1023)
    with pytest.raises(ResourceLimit):
        Caps.for_order(1024)


def test_constructors_raise_past_the_key_fields_before_any_work(monkeypatch):
    # a constructor that carries q reaches the area order(order + 1)/2, so
    # order 1024 raises ResourceLimit before the DP, the recurrence, the
    # paper's quotient or a continued-fraction level starts; gfs binds
    # ``transfer`` by name, so it is refused there
    def refuse(*args, **kwargs):
        raise AssertionError("work started past the key fields")

    monkeypatch.setattr(gfs, "transfer", refuse)
    monkeypatch.setattr(gfs, "_solve_forward", refuse)
    monkeypatch.setattr(gfs, "_ratio", refuse)
    monkeypatch.setattr(gfs, "_contfrac_packed", refuse)
    dense = ("sum_B", "sum_H", "prod_area", "prod_interior")
    builders = [getattr(gfs, name) for name in dense + ("master_pqv", "master_interior_qv")]
    builders += [partial(gfs.paper_form, name) for name in dense] + [gfs.cf_B_contfrac]
    for build in builders:
        with pytest.raises(ResourceLimit, match="order 1024 needs caps"):
            build(1024)


# -- the kernel against a naive exponent-tuple product -------------------------


def naive_product(acc, a, b, caps):
    """acc + a*b over {(p, q, v): coefficient} dicts, without the zeros."""
    out = dict(acc)
    for (ea, ca), (eb, cb) in product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        if all(x <= c for x, c in zip(e, caps)):
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def kernel_product(acc, a, b, caps):
    """The same through ``mul_into`` on packed keys."""
    packed = {pack(*e): c for e, c in acc.items()}
    backend.mul_into(
        packed,
        {pack(*e): c for e, c in a.items()},
        {pack(*e): c for e, c in b.items()},
        cap_key(*caps),
    )
    return {unpack(k): c for k, c in packed.items() if c != 0}


def q_poly(coeffs):
    """{(0, e, 0): c} for the nonzero coefficients of a q-polynomial."""
    return {(0, e, 0): c for e, c in enumerate(coeffs) if c}


def assert_kernel_matches(acc, a, b, caps):
    """The kernel agrees with the oracle."""
    assert kernel_product(acc, a, b, caps) == naive_product(acc, a, b, caps)


big = st.integers(min_value=-(2**100), max_value=2**100).filter(bool)
dense_q = st.lists(big, min_size=2, max_size=12).map(q_poly)
small_triple = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


@settings(max_examples=200, deadline=None)
@given(dense_q, dense_q, st.integers(min_value=0, max_value=25), st.lists(big, max_size=25))
@example(q_poly([2**70, -(2**70)]), q_poly([2**70, 2**70, 3]), 0, [])
def test_dense_q_product_matches_oracle(a, b, cap_q, acc):
    assert_kernel_matches(q_poly(acc), a, b, (0, cap_q, 0))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", range(0, 140, 3))
def test_dense_q_product_at_the_slot_bound(bits, sign):
    # every coefficient at one magnitude and sign: the middle slot of the
    # product reaches min(len) * max|a| * max|b| exactly
    c = (1 << bits) - 1 or 1
    a = q_poly([c] * 9)
    b = q_poly([sign * c] * 7)
    assert_kernel_matches({}, a, b, (0, MAXCAP, 0))
    assert kernel_product({}, a, b, (0, MAXCAP, 0))[(0, 6, 0)] == sign * 7 * c * c


def test_dense_q_product_cancels_to_zero():
    a = q_poly([1, -1])
    b = q_poly([1] * 10)
    # (1 - q)(1 + ... + q^9) = 1 - q^10: every middle slot cancels
    assert_kernel_matches({}, a, b, (0, 50, 0))
    assert kernel_product({}, a, b, (0, 50, 0)) == {(0, 0, 0): 1, (0, 10, 0): -1}
    # and a product added onto its own negation leaves nothing
    minus = {e: -c for e, c in naive_product({}, a, b, (0, 50, 0)).items()}
    assert kernel_product(minus, a, b, (0, 50, 0)) == {}
    big_a = q_poly([2**90, 2**90])
    big_b = q_poly([2**80, -(2**80), 2**80])
    minus = {e: -c for e, c in naive_product({}, big_a, big_b, (0, 50, 0)).items()}
    assert kernel_product(minus, big_a, big_b, (0, 50, 0)) == {}


@pytest.mark.parametrize("cap_q", [0, 1, 5, 9, 10, 11])
def test_dense_q_product_under_q_cap(cap_q):
    a = q_poly([3, -5, 7, 1, 2])
    b = q_poly([-(2**65), 11, 13, 2, -1, 4, 6])
    # product degree 10
    assert_kernel_matches({(0, 1, 0): 5}, a, b, (0, cap_q, 0))


def test_one_term_operands_match_oracle():
    caps = (0, MAXCAP, 0)
    assert_kernel_matches({}, q_poly([5]), q_poly([1, 2]), caps)
    assert_kernel_matches({}, q_poly([0, 0, 5]), q_poly([7]), caps)


def test_pv_bearing_and_wide_inputs_match_oracle():
    caps = (3, 20, 3)
    dense = q_poly([1, 2, 3, 4, 5, 6])
    with_big = q_poly([1, 2**65 + 1, 3, 4, 5, 6])
    with_p = {**dense, (1, 2, 0): 7}
    with_v = {**dense, (0, 2, 1): -7}
    for other in (with_big, with_p, with_v):
        assert_kernel_matches({(0, 3, 0): 1}, dense, other, caps)
        assert_kernel_matches({}, other, dense, caps)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(small_triple, big, max_size=8),
    st.dictionaries(small_triple, big, max_size=8),
    st.tuples(*[st.integers(min_value=0, max_value=6)] * 3),
)
def test_trivariate_product_matches_oracle(a, b, caps):
    assert kernel_product({}, a, b, caps) == naive_product({}, a, b, caps)


def signed_slots_oracle(value, nslots, nbytes):
    """Slots 0..nslots-1 of value, one at a time: peel the signed w-bit
    digit off the bottom with ``int.from_bytes``."""
    w = 8 * nbytes
    out = []
    for _ in range(nslots):
        c = int.from_bytes((value & ((1 << w) - 1)).to_bytes(nbytes, "little"), "little", signed=True)
        out.append(c)
        value = (value - c) >> w
    return out


def run_keys(base, nslots):
    """The keys of a run of nslots slots: base + q^j for slot j."""
    step = 1 << backend.QSHIFT
    return range(base, base + nslots * step, step)


def decode_oracle(coeffs, nbytes):
    """Each coefficient of ``backend.read_slots``, one slot at a time with
    ``signed_slots_oracle``: the nonzero slots of its runs by their keys."""
    return [
        {
            key: c
            for value, nslots, base in runs
            for key, c in zip(run_keys(base, nslots), signed_slots_oracle(value, nslots, nbytes))
            if c
        }
        for runs in coeffs
    ]


def decoded(coeffs, nbytes):
    """``backend.read_slots`` of coeffs: the slots of each run ``(value,
    nslots, base)`` written out one at a time in two's complement, and
    each coefficient's key runs chained."""
    raw = b"".join(
        c.to_bytes(nbytes, "little", signed=True)
        for runs in coeffs
        for value, n, _ in runs
        for c in signed_slots_oracle(value, n, nbytes)
    )
    keys = [chain.from_iterable(run_keys(base, n) for _, n, base in runs) for runs in coeffs]
    return backend.read_slots(raw, nbytes, keys)


@st.composite
def slot_coeffs(draw):
    """A slot width and up to four coefficients, each up to four runs of
    signed slots at most 2^(w-1) - 1 in magnitude, with arbitrary slots
    above the run."""
    nbytes = draw(st.integers(min_value=1, max_value=17))
    w = 8 * nbytes
    edge = (1 << (w - 1)) - 1
    slot = st.one_of(st.sampled_from([0, edge, -edge]), st.integers(min_value=-edge, max_value=edge))
    coeffs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        runs = []
        for i in range(draw(st.integers(min_value=0, max_value=4))):
            slots = draw(st.lists(slot, min_size=1, max_size=12))
            above = draw(st.integers(min_value=-(1 << 3 * w), max_value=1 << 3 * w))
            value = sum(c << (w * j) for j, c in enumerate(slots)) + (above << (w * len(slots)))
            runs.append((value, len(slots), pack(i, 0, draw(st.integers(0, 3)))))
        coeffs.append(runs)
    return nbytes, coeffs


def _edge_run(nbytes):
    # slots 0, 1 and 2 hold -edge, +edge and -edge, and a large negative
    # value above them must be masked off
    w = 8 * nbytes
    edge = (1 << (w - 1)) - 1
    value = -edge + (edge << w) - (edge << 2 * w) - (7 << 6 * w)
    return (value, 3, pack(0, 0, 1))


def _mixed_coeffs(nbytes):
    """Several coefficients in one call: the edge run beside a second row,
    no run at all, a value that is zero in its run, a value whose lowest
    nonzero slot lies above the run (above the q cap), and a single
    negative slot."""
    w = 8 * nbytes
    return [
        [_edge_run(nbytes), (12345, 3, pack(1, 0, 0))],
        [],
        [(0, 2, pack(0, 0, 0))],
        [(5 << (4 * w), 4, pack(0, 0, 0))],
        [(-1, 1, pack(0, 0, 0))],
    ]


@settings(max_examples=300, deadline=None)
@given(slot_coeffs())
@example((1, [[_edge_run(1), (-1, 5, pack(1, 0, 0))]]))
@example((8, [[_edge_run(8), (3 << 64, 2, pack(1, 0, 0))]]))
@example((9, [[_edge_run(9), (-(1 << 71) + 1, 1, pack(1, 0, 0))]]))
@example((16, [[_edge_run(16)]]))
@example((17, [[_edge_run(17), ((1 << 135) - 1, 4, pack(2, 0, 0))]]))
@example((1, _mixed_coeffs(1)))
@example((3, _mixed_coeffs(3)))
@example((6, _mixed_coeffs(6)))
@example((9, _mixed_coeffs(9)))
@example((17, _mixed_coeffs(17)))
@example((3, []))
def test_read_slots_matches_per_slot_decode(case):
    # widths of 1-17 bytes take every cast width, a widening to the next
    # one, and two and three 64-bit limbs per slot; one call decodes every
    # coefficient, each into its own term dict
    nbytes, coeffs = case
    assert decoded(coeffs, nbytes) == decode_oracle(coeffs, nbytes)


def _as_big_endian_host(typecode, data):
    """An array built from data as a big-endian host reads it."""
    a = array(typecode, data)
    if sys.byteorder == "little":
        a.byteswap()
    return a


@pytest.mark.parametrize("nbytes", [3, 8, 9, 17])
def test_read_slots_swaps_limbs_on_a_big_endian_host(monkeypatch, nbytes):
    # Forces the byte-swap branch by monkeypatching, whatever the byte order
    # of the host running the test: backend.array is replaced by one that
    # reads its bytes as a big-endian host does, and backend is told that
    # it runs on such a host.
    coeffs = _mixed_coeffs(nbytes)
    want = decode_oracle(coeffs, nbytes)
    monkeypatch.setattr(backend, "array", _as_big_endian_host)
    monkeypatch.setattr(backend, "_BIG_ENDIAN", True)
    assert decoded(coeffs, nbytes) == want
    # without the swap the slots read back in the wrong byte order
    monkeypatch.setattr(backend, "_BIG_ENDIAN", False)
    assert decoded(coeffs, nbytes) != want
