"""The packed exponent key and the term-merge kernel.

Sparse polynomials in the markers (p, q, v) are dicts mapping a packed
exponent key to a nonzero int coefficient.  This module owns
the key layout: p, q and v each get a field of ``FIELD`` bits topped by one
guard bit, 63 bits in all:

    bits  0..19  q exponent      bit 20  guard
    bits 21..40  v exponent      bit 41  guard
    bits 42..61  p exponent      bit 62  guard

q takes the low field because the dense series carry q alone: the keys of
such a coefficient are its q-exponents 0, 1, 2, ..., small ints that spread
over a dict's table (an exponent below 257 is a cached int), where a key
with empty low bits would start every probe at the same slot.

Guard bits let a single subtraction test all three per-variable caps at
once: for a product key ``k`` and a cap key carrying the guard bits set,
``(capkey - k) & GUARDS == GUARDS`` iff every exponent of ``k`` is within
its cap.  Exponents and caps are at most ``MAXCAP``, below half the field,
so the sum of two in-range keys never carries across fields.

``mul_into`` is the term kernel: a double loop over two term dicts that
drops every product outside the caps of its key.  Its one library caller
is ``MPoly.mul``, which only ``mpoly.invert`` calls; ``MPoly.mul_monomial``
tests its shifted keys against ``FIELD_KEY``.  The slot
helpers serve ``gfs``, whose masters keep each (p, v) row of a coefficient
as one integer in q and whose area and interior-point constructors keep
each coefficient as one.  ``read_slots`` is a pure decoder: it takes one
byte string holding the unsigned slots of several coefficients and, for
each coefficient, the keys of its slots in order; the slots are cast to
ints in bulk at their own width (``_unsigned_slots``), and one dict build
per coefficient keeps its nonzero slots, with no Python-level step per
slot (the inverse of Kronecker substitution; D. Harvey, J. Symbolic
Comput. 44, 2009).  Every ``gfs`` slot is a count, so each packed value
is written out as it is, and each ``gfs`` series is decoded in bounded
batches of whole coefficients.
"""

import sys
from array import array
from itertools import compress, repeat
from operator import add, lshift

FIELD = 20

QSHIFT = 0
VSHIFT = FIELD + 1
PSHIFT = 2 * (FIELD + 1)

MASK = (1 << FIELD) - 1
GUARDS = (1 << (VSHIFT + FIELD)) | (1 << (QSHIFT + FIELD)) | (1 << (PSHIFT + FIELD))

MAXCAP = (1 << FIELD) // 2 - 1

#: The cap key of the whole fields: a key past it has an exponent above MAXCAP
FIELD_KEY = GUARDS | (MAXCAP << PSHIFT) | (MAXCAP << VSHIFT) | MAXCAP

BACKEND = "python"

_BIG_ENDIAN = sys.byteorder == "big"

#: the unsigned array typecode of each item size among 1, 2, 4 and 8 bytes,
#: found by size, since the size of a typecode varies by host
_UNSIGNED = {array(code).itemsize: code for code in "BHILQ"}


def pack(dp=0, dq=0, dv=0):
    """Pack an exponent triple into a single integer key."""
    if not (0 <= dp <= MAXCAP and 0 <= dq <= MAXCAP and 0 <= dv <= MAXCAP):
        raise ValueError(f"exponents out of range: {(dp, dq, dv)}")
    return (dp << PSHIFT) | (dv << VSHIFT) | dq


def unpack(key):
    return (key >> PSHIFT) & MASK, key & MASK, (key >> VSHIFT) & MASK


def cap_key(cap_p, cap_q, cap_v):
    """Pack per-variable caps together with the guard bits."""
    if not (0 <= cap_p <= MAXCAP and 0 <= cap_q <= MAXCAP and 0 <= cap_v <= MAXCAP):
        raise ValueError(f"caps out of range: {(cap_p, cap_q, cap_v)}")
    return GUARDS | (cap_p << PSHIFT) | (cap_v << VSHIFT) | cap_q


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


def read_slots(raw, nbytes, keys):
    """One term dict for each coefficient whose slots ``raw`` holds.

    ``raw`` is the little-endian unsigned slots of every coefficient in
    turn, nbytes each.  ``keys`` gives, for each coefficient, the keys of
    its slots in order, as many as it has bytes in ``raw`` over nbytes.
    The slots are cast to ints in bulk by ``_unsigned_slots``, and one
    dict build per coefficient keeps its nonzero slots, with no
    Python-level step per slot.
    """
    vals = _unsigned_slots(raw, nbytes)
    # zip stops on its exhausted keys and compress on its exhausted data,
    # so both iterators stop at the first slot of the next coefficient
    data, selectors = iter(vals), iter(vals)
    return [dict(compress(zip(k, data), selectors)) for k in keys]


def _unsigned_slots(raw, nbytes):
    """The ints held by the little-endian unsigned slots of raw, nbytes each.

    A slot of 1, 2, 4 or 8 bytes is cast as it is, by the unsigned array
    typecode of its size.  A slot of 3, 5, 6 or 7 bytes is widened to the
    next of those sizes, and a wider one to m = ceil(nbytes / 8) limbs of
    64 bits: byte b of every slot moves by one strided copy into a zeroed
    buffer, whose upper bytes stay zero.  For m >= 2 each slot's limbs are
    combined with ``map``.
    """
    size = _cast_size(nbytes)
    if size != nbytes:
        wide = bytearray(len(raw) // nbytes * size)
        for b in range(nbytes):
            wide[b::size] = raw[b::nbytes]
        raw = wide
    limbs = array(_UNSIGNED[min(size, 8)], raw)
    if _BIG_ENDIAN:
        limbs.byteswap()
    if size <= 8:
        return limbs.tolist()
    m = size // 8
    vals = limbs[m - 1 :: m]
    for i in range(m - 2, -1, -1):
        vals = map(add, map(lshift, vals, repeat(64)), limbs[i::m])
    return list(vals)


def _cast_size(nbytes):
    """Bytes per slot once widened: the least cast width that holds nbytes,
    or whole 64-bit limbs past 8 bytes."""
    if nbytes > 8:
        return 8 * -(-nbytes // 8)
    return min(size for size in _UNSIGNED if size >= nbytes)
