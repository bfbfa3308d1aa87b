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

``mul_into`` multiplies dense integer polynomials in q alone by Kronecker
substitution: each operand is evaluated at q = 2^w as one big integer, the
two integers are multiplied once, and the product's coefficients are read
back from its w-bit slots (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).  Every
other operand pair, sparse or rational or carrying p or v, takes the dict
double loop.
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


def mul_into(acc, a, b, capkey):
    """acc += a*b, dropping products whose exponents exceed the caps.

    ``acc``, ``a``, ``b`` are packed-key term dicts; ``acc`` is mutated.
    Zero coefficients may be left behind; callers clean them up.
    """
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    if not (reduce(or_, a) | reduce(or_, b)) & _NOT_Q:
        deg_a = max(a) >> QSHIFT
        deg_b = max(b) >> QSHIFT
        if len(a) * len(b) > deg_a + deg_b + 1 and {
            *map(type, a.values()),
            *map(type, b.values()),
        } == {int}:
            _kronecker_into(acc, a, b, deg_a, deg_b, (capkey >> QSHIFT) & MASK)
            return
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


def _to_slots(terms, deg, nbytes):
    """Evaluate a q-only integer term dict at q = 2^(8 * nbytes)."""
    pos = bytearray(nbytes * (deg + 1))
    neg = bytearray(nbytes * (deg + 1))
    for k, c in terms.items():
        i = (k >> QSHIFT) * nbytes
        if c > 0:
            pos[i : i + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[i : i + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_into(acc, a, b, deg_a, deg_b, cap_q):
    """acc += a*b for q-only integer term dicts, keeping q-degrees <= cap_q.

    Every product coefficient is bounded by min(len) * max|a| * max|b|, so
    a slot of w bits, two more than that bound needs, holds it with its
    sign; adding 2^(w-1) to each slot makes every slot non-negative, so the
    slots read back independently with no borrow between them.
    """
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    nbytes = (bound.bit_length() + 2 + 7) // 8
    w = 8 * nbytes
    top = min(cap_q, deg_a + deg_b)
    nslots = top + 1
    half = 1 << (w - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    low = (1 << (w * nslots)) - 1
    prod = _to_slots(a, deg_a, nbytes) * _to_slots(b, deg_b, nbytes)
    raw = ((prod + bias) & low).to_bytes(nbytes * nslots, "little")
    from_bytes = int.from_bytes
    get = acc.get
    for j in range(nslots):
        c = from_bytes(raw[j * nbytes : (j + 1) * nbytes], "little") - half
        if c:
            k = j << QSHIFT
            cur = get(k)
            acc[k] = c if cur is None else cur + c
