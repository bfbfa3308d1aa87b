"""Power series in x truncated at a fixed order, with MPoly coefficients.

A series of order N carries the coefficients of x^0 .. x^(N-1).  All
operations truncate at that order and at the per-variable caps, both of
which commute with ring arithmetic.  Operands of binary operations must
share order and caps.

When every coefficient of both operands is an integer polynomial in q
alone, ``*`` and ``div`` (the latter for a divisor with constant term +-1)
work on Kronecker-packed coefficients: each coefficient is evaluated once
at q = 2^w as a big integer, with one slot width w for the whole
operation, each output order sums its big-integer products, and its
slots are read back once through the ``backend`` slot helpers (Kronecker
substitution; D. Harvey, J. Symbolic Comput. 44, 2009).  The scalar
series and the continued fraction of ``gfs`` take this path; the area
and interior-point sums and product forms do not use ``Series``
arithmetic at all.  Every other operand pair multiplies coefficient by
coefficient through the term kernel ``backend.mul_into``.
"""

from fractions import Fraction

from . import backend, mpoly
from .errors import (
    BadSqrtConstantTerm,
    InternalInconsistency,
    OrderMismatch,
)
from .mpoly import Caps, MPoly

_HALF = Fraction(1, 2)
_UNITS = ({0: 1}, {0: -1})


def _q_only_int(coeffs):
    return all(backend.q_only_int(c.terms) for c in coeffs)


def _shape(c):
    """(q-degree, term count, largest |coefficient|) of a q-only coefficient."""
    return c.degree("q"), len(c.terms), max(map(abs, c.terms.values()))


def _pack(coeffs, shapes, nbytes):
    return [
        backend.to_slots(c.terms, shape[0], nbytes) if shape else 0
        for c, shape in zip(coeffs, shapes)
    ]


def _pairs_bound(pairs, sa, sb):
    """Bound on every slot of sum over (i, j) in pairs of A[i] * B[j]."""
    return sum(sa[i][2] * sb[j][2] * min(sa[i][1], sb[j][1]) for i, j in pairs)


def _read(value, nslots, nbytes):
    window = (backend.twos_complement(value, nslots, nbytes), 0, nslots, 0)
    return MPoly._raw(backend.read_slots([[window]], nbytes)[0])


def _dense_q_mul(a, b, cap_q):
    """Coefficients of a * b, packing each coefficient once."""
    sa = [_shape(c) if c else None for c in a]
    sb = [_shape(c) if c else None for c in b]
    pairs = [[(i, k - i) for i in range(k + 1) if sa[i] and sb[k - i]] for k in range(len(a))]
    bound = max(
        max(_pairs_bound(p, sa, sb) for p in pairs),
        max((s[2] for s in sa + sb if s), default=0),
    )
    nbytes = backend.slot_bytes(bound)
    pa, pb = _pack(a, sa, nbytes), _pack(b, sb, nbytes)
    out = []
    for p in pairs:
        if not p:
            out.append(MPoly.zero())
            continue
        top = min(cap_q, max(sa[i][0] + sb[j][0] for i, j in p))
        out.append(_read(sum(pa[i] * pb[j] for i, j in p), top + 1, nbytes))
    return out


def _dense_q_div(num, b, u, cap_q):
    """Coefficients of num / b for a divisor with constant term u = +-1.

    out[k] = u * (num[k] - sum_{i<k} out[i] * b[k-i]) stays integral.  The
    slot width must hold every packed coefficient of b and of the quotient
    and every sum; a quotient can outgrow it, so each order first bounds
    its sum and, if that no longer fits, widens the slots and repacks.
    """
    sb = [_shape(c) if c else None for c in b]
    nbytes = backend.slot_bytes(max(s[2] for s in sb if s))
    pb = _pack(b, sb, nbytes)
    out, sq, pq = [], [], []
    for k, c in enumerate(num):
        sc = _shape(c) if c else None
        pairs = [(i, k - i) for i in range(k) if sq[i] and sb[k - i]]
        degs = [sq[i][0] + sb[j][0] for i, j in pairs] + ([sc[0]] if sc else [])
        q = MPoly.zero()
        if degs:
            need = backend.slot_bytes((sc[2] if sc else 0) + _pairs_bound(pairs, sq, sb))
            if need > nbytes:
                nbytes = need
                pb, pq = _pack(b, sb, nbytes), _pack(out, sq, nbytes)
            value = sum(pq[i] * pb[j] for i, j in pairs)
            if sc:
                value -= backend.to_slots(c.terms, sc[0], nbytes)
            q = _read(value if u < 0 else -value, min(cap_q, max(degs)) + 1, nbytes)
        out.append(q)
        sq.append(_shape(q) if q else None)
        pq.append(backend.to_slots(q.terms, sq[-1][0], nbytes) if q else 0)
    return out


class Series:
    __slots__ = ("order", "coeffs", "caps")

    def __init__(self, order, coeffs=None, caps=None):
        if order < 1:
            raise ValueError("series order must be >= 1")
        self.order = order
        self.caps = caps if caps is not None else Caps.for_order(order)
        if coeffs is None:
            self.coeffs = [MPoly.zero() for _ in range(order)]
        else:
            if len(coeffs) != order:
                raise ValueError("coefficient count must equal order")
            self.coeffs = list(coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order, caps=None):
        return cls(order, None, caps)

    @classmethod
    def from_x_polynomial(cls, order, poly_coeffs, caps=None):
        """Series whose x^n coefficient is poly_coeffs[n] (scalar or MPoly)."""
        s = cls.zero(order, caps)
        for n, c in enumerate(poly_coeffs):
            if n >= order:
                break
            s.coeffs[n] = c if isinstance(c, MPoly) else MPoly.scalar(c)
        return s

    def copy(self):
        return Series(self.order, list(self.coeffs), self.caps)

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
        if self.order != other.order or self.caps != other.caps:
            raise OrderMismatch(
                f"operands disagree: order {self.order} vs {other.order}, "
                f"caps {self.caps} vs {other.caps}"
            )

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.caps)

    def __sub__(self, other):
        self._check_compatible(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)], self.caps)

    def __neg__(self):
        return Series(self.order, [-c for c in self.coeffs], self.caps)

    def scale(self, r):
        return Series(self.order, [c.scale(r) for c in self.coeffs], self.caps)

    # -- multiplicative operations ------------------------------------------

    def __mul__(self, other):
        self._check_compatible(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        if _q_only_int(a) and _q_only_int(b):
            return Series(n, _dense_q_mul(a, b, self.caps.q), self.caps)
        capkey = self.caps.key
        out = []
        for k in range(n):
            acc = {}
            for i in range(k + 1):
                ai = a[i].terms
                if ai:
                    backend.mul_into(acc, ai, b[k - i].terms, capkey)
            out.append(MPoly(acc))
        return Series(n, out, self.caps)

    def mul_monomial(self, c, dp=0, dq=0, dv=0, x_shift=0):
        """Multiply by c * x^x_shift * p^dp q^dq v^dv."""
        capkey = self.caps.key
        out = [MPoly.zero()] * min(x_shift, self.order)
        for n in range(self.order - x_shift):
            out.append(self.coeffs[n].mul_monomial(c, dp, dq, dv, capkey))
        return Series(self.order, out, self.caps)

    def div(self, other):
        """Series division; the divisor's constant term must be invertible."""
        self._check_compatible(other)
        unit = other.coeffs[0].terms
        if unit in _UNITS and _q_only_int(self.coeffs) and _q_only_int(other.coeffs):
            return Series(
                self.order, _dense_q_div(self.coeffs, other.coeffs, unit[0], self.caps.q), self.caps
            )
        capkey = self.caps.key
        bound = self.caps.p + self.caps.q + self.caps.v + 2
        inv0 = mpoly.invert(other.coeffs[0], capkey, bound)
        n = self.order
        b = other.coeffs
        out = []
        for k in range(n):
            acc = {}
            for i in range(k):
                qi = out[i].terms
                if qi:
                    backend.mul_into(acc, qi, b[k - i].terms, capkey)
            residue = self.coeffs[k] - MPoly(acc)
            out.append(residue.mul(inv0, capkey))
        return Series(n, out, self.caps)

    def sqrt(self):
        """Square root of a series with constant term exactly 1."""
        if self.coeffs[0] != MPoly.scalar(1):
            raise BadSqrtConstantTerm(f"constant term is {self.coeffs[0]}, not 1")
        capkey = self.caps.key
        out = [MPoly.scalar(1)]
        for k in range(1, self.order):
            acc = {}
            for i in range(1, k):
                backend.mul_into(acc, out[i].terms, out[k - i].terms, capkey)
            out.append((self.coeffs[k] - MPoly(acc)).scale(_HALF))
        return Series(self.order, out, self.caps)

    # -- marker operations ----------------------------------------------------

    def derivative(self, var):
        return Series(self.order, [c.derivative(var) for c in self.coeffs], self.caps)

    def eval_one(self, var):
        return Series(self.order, [c.eval_one(var) for c in self.coeffs], self.caps)

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
        return Series(self.order - k, self.coeffs[k:], self.caps)

    def divide_coeffs_monomial(self, c, dp=0, dq=0, dv=0):
        """Divide every coefficient by c * p^dp q^dq v^dv, exactly."""
        return Series(
            self.order,
            [co.divide_monomial(c, dp, dq, dv) for co in self.coeffs],
            self.caps,
        )
