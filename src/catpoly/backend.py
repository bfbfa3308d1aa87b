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
"""

FIELD = 20

VSHIFT = 0
QSHIFT = FIELD + 1
PSHIFT = 2 * (FIELD + 1)

MASK = (1 << FIELD) - 1
GUARDS = (1 << (VSHIFT + FIELD)) | (1 << (QSHIFT + FIELD)) | (1 << (PSHIFT + FIELD))

MAXCAP = (1 << FIELD) // 2 - 1

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
