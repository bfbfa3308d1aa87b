"""Power series in x truncated at a fixed order, with MPoly coefficients.

A series of order N carries the coefficients of x^0 .. x^(N-1).  All
operations truncate at that order and at the per-variable caps of that
order, ``Caps.for_order(N)``, both of which commute with ring arithmetic.
Operands of binary operations must share their order.

``*`` and ``div`` share one packed path (Kronecker substitution;
D. Harvey, J. Symbolic Comput. 44, 2009).  Each operand coefficient is
packed once per operation into one big integer: its term p^a q^b v^c goes
to slot (c * rp + a) * rq + b, with radices rq and rp past every degree
the operation reaches.  Each output order sums its big-integer
products and is read back once, cut at the caps.  The w-bit slots widen,
with a repack, whenever an order's bound passes them.  Coefficients are
integers throughout: ``div`` takes only a divisor whose constant term has
scalar part 1 or -1.
"""

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain, compress, islice, product
from operator import mul, or_

from . import backend, mpoly
from .backend import GUARDS, MASK, PSHIFT, QSHIFT, VSHIFT, pack, unpack
from .errors import InternalInconsistency, OrderMismatch
from .mpoly import Caps, MPoly

_ONE = MPoly.scalar(1)

#: ``Caps.for_order``, built once per order; it raises past the key fields
_caps = lru_cache(maxsize=None)(Caps.for_order)

#: Packed coefficients: per coefficient its slots, sum and largest of the
#: slots' absolute values, and packed value
_Coeffs = namedtuple("_Coeffs", "slots size peak value")


def _degrees(coeffs, caps):
    """Bounds on the (p, q, v) degrees of a list of coefficients, cut at the
    caps: the fields of the OR of their keys, below twice each degree."""
    return list(map(min, unpack(reduce(or_, chain.from_iterable(c.terms for c in coeffs), 0)), caps))


def _last(coeffs):
    """Index of the last nonzero coefficient, or -1."""
    return max((i for i, c in enumerate(coeffs) if c), default=-1)


@lru_cache(maxsize=32)
def _live(caps, rq, rp, nslots):
    """(selectors or None if all are live, indices, keys) of the slots below
    nslots that lie within the caps."""
    keys = [
        pack(p, q, v) if p <= caps.p and q <= caps.q else -1
        for v, p, q in islice(product(range(caps.v + 1), range(rp), range(rq)), nslots)
    ]
    sel = [k >= 0 for k in keys]
    return None if all(sel) else sel, list(compress(range(nslots), sel)), list(compress(keys, sel))


class _Packing:
    """The slot layout and width of one operation, and its packed lists.

    ``reach`` bounds the (p, q, v) degree of every value packed or formed;
    a layout of one slot (a scalar series) needs no width.
    """

    def __init__(self, caps, reach):
        (ep, eq, ev), self.capkey = reach, caps.key
        # the outermost variable present needs no radix past its cap
        if not ev:
            ep = min(ep, caps.p)
            eq = eq if ep else min(eq, caps.q)
        self.rq, self.rp = eq + 1, ep + 1
        top = (min(ev, caps.v) * self.rp + min(ep, caps.p)) * self.rq + min(eq, caps.q)
        self.nslots, self.single = top + 1, top == 0
        self.live = _live(caps, self.rq, self.rp, top + 1)
        self.nbytes, self.seqs = 1, []
        self.one = self.coeffs([_ONE])

    def _pack(self, slots):
        return slots.get(0, 0) if self.single else backend.to_slots(slots, self.nbytes)

    def coeffs(self, ms=()):
        """A packed list of the MPolys ms, cut at the caps."""
        seq = _Coeffs([], [], [], [])
        self.seqs.append(seq)
        rq, rp, capkey = self.rq, self.rp, self.capkey
        items = [
            {
                (((k >> VSHIFT) & MASK) * rp + ((k >> PSHIFT) & MASK)) * rq
                + ((k >> QSHIFT) & MASK): c
                for k, c in m.terms.items()
                if (capkey - k) & GUARDS == GUARDS
            }
            for m in ms
        ]
        # one widening for the whole list, not one per coefficient
        self.fit(max((abs(c) for slots in items for c in slots.values()), default=0))
        for slots in items:
            self.put(seq, slots)
        return seq

    def put(self, seq, slots):
        """Pack the slots as the next coefficient of seq."""
        mags = list(map(abs, slots.values()))
        peak = max(mags, default=0)
        self.fit(peak)
        for field, item in zip(seq, (slots, sum(mags), peak, self._pack(slots))):
            field.append(item)

    def fit(self, bound):
        """Widen the slots to hold |c| <= bound, repacking every coefficient."""
        need = backend.slot_bytes(bound)
        if not self.single and need > self.nbytes:
            self.nbytes = need
            for seq in self.seqs:
                seq.value[:] = map(self._pack, seq.slots)

    def combine(self, parts, factor=1):
        """The sum over parts (w, x, y, k, lo, hi) of
        w * sum_{lo <= i < hi} x_i y_(k-i), the slots first widened to hold
        it times a multiplier of absolute sum ``factor``.  A product's slots
        are at most min(peak x_i * size y_j, size x_i * peak y_j)."""
        spans = [(w, x, y, slice(lo, hi), slice(k - hi + 1, k - lo + 1)) for w, x, y, k, lo, hi in parts]
        if not self.single:
            bound = 0
            for w, x, y, i, j in spans:
                sizes = map(min, map(mul, x.peak[i], y.size[j][::-1]), map(mul, x.size[i], y.peak[j][::-1]))
                bound += abs(w) * sum(sizes)
            self.fit(bound * factor)
        return sum(w * sum(map(mul, x.value[i], y.value[j][::-1])) for w, x, y, i, j in spans)

    def read(self, value, seq=None):
        """The MPoly packed in value, cut at the caps; its slots join seq if
        given."""
        sel, index, keys = self.live
        vals = [value]
        if not self.single:
            # no slot at or past bit_length // w + 1 holds anything
            n = min(self.nslots, abs(value).bit_length() // (8 * self.nbytes) + 1)
            vals = backend.read_signed(value, n, self.nbytes)
            vals = vals if sel is None else list(compress(vals, sel))
        if seq is not None:
            self.put(seq, dict(compress(zip(index, vals), vals)))
        return MPoly._raw(dict(compress(zip(keys, vals), vals)))


class Series:
    __slots__ = ("order", "coeffs", "caps")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("series order must be >= 1")
        self.order = order
        self.caps = _caps(order)
        if coeffs is None:
            self.coeffs = [MPoly.zero() for _ in range(order)]
        else:
            if len(coeffs) != order:
                raise ValueError("coefficient count must equal order")
            self.coeffs = list(coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_x_polynomial(cls, order, poly_coeffs):
        """Series whose x^n coefficient is poly_coeffs[n] (scalar or MPoly)."""
        s = cls(order)
        for n, c in enumerate(poly_coeffs):
            if n >= order:
                break
            s.coeffs[n] = c if isinstance(c, MPoly) else MPoly.scalar(c)
        return s

    def copy(self):
        return Series(self.order, list(self.coeffs))

    # -- basics ----------------------------------------------------------

    def coeff(self, n):
        """The MPoly coefficient of x^n."""
        if not 0 <= n < self.order:
            raise OrderMismatch(f"coefficient {n} outside order {self.order}")
        return self.coeffs[n]

    def scalar_coeffs(self):
        return [c.as_scalar() for c in self.coeffs]

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        inner = " + ".join(f"({c})x^{n}" for n, c in enumerate(self.coeffs) if c)
        return f"Series[{self.order}]({inner or '0'})"

    def is_zero(self):
        return not any(self.coeffs)

    def _check_compatible(self, other):
        if self.order != other.order:
            raise OrderMismatch(f"operands disagree: order {self.order} vs {other.order}")

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_compatible(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series(self.order, [-c for c in self.coeffs])

    # -- multiplicative operations ------------------------------------------

    def __mul__(self, other):
        self._check_compatible(other)
        a, b, caps = self.coeffs, other.coeffs, self.caps
        pk = _Packing(caps, [i + j for i, j in zip(_degrees(a, caps), _degrees(b, caps))])
        x, y = pk.coeffs(a), pk.coeffs(b)
        hx, hy = _last(a), _last(b)
        out = []
        for k in range(self.order):
            part = (1, x, y, k, max(0, k - hy), max(0, min(k, hx) + 1))
            out.append(pk.read(pk.combine([part])))
        return Series(self.order, out)

    def mul_monomial(self, c, dp=0, dq=0, dv=0, x_shift=0):
        """Multiply by c * x^x_shift * p^dp q^dq v^dv."""
        capkey = self.caps.key
        out = [MPoly.zero()] * min(x_shift, self.order)
        for n in range(self.order - x_shift):
            out.append(self.coeffs[n].mul_monomial(c, dp, dq, dv, capkey=capkey))
        return Series(self.order, out)

    def div(self, other):
        """Series division by a divisor whose constant term b_0 has scalar
        part 1 or -1; any other raises NonUnitDivisor.

        out_k = (num_k - sum_{i<k} out_i b_(k-i)) * inv, for the inverse inv
        of b_0 in the capped ring: +-1 itself, or one ``mpoly.invert`` of a
        non-scalar unit such as 1 - v, which sizes its loop from the caps.
        A quotient may fill the caps in each variable its operands carry.
        """
        self._check_compatible(other)
        caps, n, b = self.caps, self.order, other.coeffs
        inv = mpoly.invert(b[0], caps.key)
        dn, db, di = _degrees(self.coeffs, caps), _degrees(b, caps), _degrees([inv], caps)
        reach = [max(t, (c if t or d else 0) + d) + i for t, d, i, c in zip(dn, db, di, caps)]
        pk = _Packing(caps, reach)
        num, den, unit, out = pk.coeffs(self.coeffs), pk.coeffs(b), pk.coeffs([inv]), pk.coeffs()
        hb, result = _last(b), []
        for k in range(n):
            parts = [(1, num, pk.one, k, k, k + 1), (-1, out, den, k, max(0, k - hb), k)]
            result.append(pk.read(pk.combine(parts, unit.size[0]) * unit.value[0], out))
        return Series(n, result)

    # -- marker operations ----------------------------------------------------

    def derivative(self, var):
        return Series(self.order, [c.derivative(var) for c in self.coeffs])

    def eval_one(self, var):
        return Series(self.order, [c.eval_one(var) for c in self.coeffs])

    # -- exactness-guarded divisions ----------------------------------------

    def divide_by_x_power(self, k):
        """Divide by x^k; the k lowest coefficients must vanish.

        The result is honest about what is known: its order drops by k.
        """
        for n in range(k):
            if self.coeffs[n]:
                raise InternalInconsistency(
                    f"x^{n} coefficient {self.coeffs[n]} nonzero; cannot divide by x^{k}"
                )
        return Series(self.order - k, self.coeffs[k:])

    def divide_coeffs_monomial(self, c, dp=0, dq=0, dv=0):
        """Divide every coefficient by c * p^dp q^dq v^dv, exactly."""
        return Series(self.order, [co.divide_monomial(c, dp, dq, dv) for co in self.coeffs])
