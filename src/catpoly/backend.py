"""The packed exponent key and the term-merge kernel.

Sparse polynomials in the markers (p, q, v) are dicts mapping a packed
exponent key to a nonzero coefficient (int or Fraction).  This module owns
the key layout: p, q and v each get a field of ``FIELD`` bits topped by one
guard bit, 63 bits in all:

    bits  0..19  v exponent      bit 20  guard
    bits 21..40  q exponent      bit 41  guard
    bits 42..61  p exponent      bit 62  guard

Guard bits let a single subtraction test all three per-variable caps at
once: for a product key ``k`` and a cap key carrying the guard bits set,
``(capkey - k) & GUARDS == GUARDS`` iff every exponent of ``k`` is within
its cap.  Exponents and caps are at most ``MAXCAP``, below half the field,
so the sum of two in-range keys never carries across fields.

``mul_into`` is the term kernel: a double loop over two term dicts that
drops every product outside the caps.  The slot helpers (``slot_bytes``,
``to_slots``, ``add_slots``) serve ``series``, which evaluates each
coefficient of a q-only integer series at q = 2^w once per product or
quotient and reads each output coefficient back from its w-bit slots,
and ``gfs``, whose masters keep each (p, v) row of a coefficient as one
such integer and whose area and interior-point constructors keep each
coefficient as one; both read only the occupied slots back, once.
"""

from functools import reduce
from operator import or_

FIELD = 20

VSHIFT = 0
QSHIFT = FIELD + 1
PSHIFT = 2 * (FIELD + 1)

MASK = (1 << FIELD) - 1
GUARDS = (1 << (VSHIFT + FIELD)) | (1 << (QSHIFT + FIELD)) | (1 << (PSHIFT + FIELD))

MAXCAP = (1 << FIELD) // 2 - 1

_NOT_Q = ~(MASK << QSHIFT)

BACKEND = "python"


def pack(dp=0, dq=0, dv=0):
    """Pack an exponent triple into a single integer key."""
    if not (0 <= dp <= MAXCAP and 0 <= dq <= MAXCAP and 0 <= dv <= MAXCAP):
        raise ValueError(f"exponents out of range: {(dp, dq, dv)}")
    return (dp << PSHIFT) | (dq << QSHIFT) | dv


def unpack(key):
    return (key >> PSHIFT) & MASK, (key >> QSHIFT) & MASK, key & MASK


def cap_key(cap_p, cap_q, cap_v):
    """Pack per-variable caps together with the guard bits."""
    if not (0 <= cap_p <= MAXCAP and 0 <= cap_q <= MAXCAP and 0 <= cap_v <= MAXCAP):
        raise ValueError(f"caps out of range: {(cap_p, cap_q, cap_v)}")
    return GUARDS | (cap_p << PSHIFT) | (cap_q << QSHIFT) | cap_v


def q_only_int(terms):
    """True when every key of a term dict is a power of q alone and every
    coefficient an int: the coefficients ``series`` packs into slots."""
    return not reduce(or_, terms, 0) & _NOT_Q and set(map(type, terms.values())) <= {int}


def mul_into(acc, a, b, capkey):
    """acc += a*b, dropping products whose exponents exceed the caps.

    ``acc``, ``a``, ``b`` are packed-key term dicts; ``acc`` is mutated.
    Zero coefficients may be left behind; callers clean them up.
    """
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    guards = GUARDS
    get = acc.get
    for k1, c1 in a.items():
        head = capkey - k1
        for k2, c2 in b.items():
            if (head - k2) & guards != guards:
                continue
            k = k1 + k2
            cur = get(k)
            if cur is None:
                acc[k] = c1 * c2
            else:
                acc[k] = cur + c1 * c2


def slot_bytes(bound):
    """Bytes per q-slot that hold any coefficient of magnitude <= bound.

    A slot of w bits, two more than the bound needs, holds the coefficient
    with its sign, so ``add_slots`` can read it back.
    """
    return (bound.bit_length() + 2 + 7) // 8


def to_slots(terms, deg, nbytes):
    """Evaluate a q-only integer term dict of q-degree deg at q = 2^(8 * nbytes)."""
    pos = bytearray(nbytes * (deg + 1))
    neg = bytearray(nbytes * (deg + 1))
    for k, c in terms.items():
        i = (k >> QSHIFT) * nbytes
        if c > 0:
            pos[i : i + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[i : i + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def add_slots(acc, value, nslots, nbytes, base=0, first=0):
    """Store in acc the terms of the q-polynomial held in slots
    first..nslots-1 of a packed value: slot j becomes the term of key
    base + q^j, which acc must not hold yet.

    ``value`` equals sum_j c_j 2^(w j) with w = 8 * nbytes, for any sum of
    products or shifts of packed values.  Every c_j below slot nslots
    must have magnitude below 2^(w-1): adding 2^(w-1) to each such slot
    makes it non-negative, so the slots read back independently with no
    borrow between them, and whatever lies above is a multiple of
    2^(w * nslots) that the mask drops, however large its slots are.
    """
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    low = (1 << (8 * nbytes * nslots)) - 1
    raw = (((value + bias) & low) >> (8 * nbytes * first)).to_bytes(
        nbytes * (nslots - first), "little"
    )
    from_bytes = int.from_bytes
    step = 1 << QSHIFT
    keys = range(base + first * step, base + nslots * step, step)
    for k, i in zip(keys, range(0, len(raw), nbytes)):
        c = from_bytes(raw[i : i + nbytes], "little") - half
        if c:
            acc[k] = c
