"""Sparse polynomials in the three markers p, q, v with integer coefficients.

p marks the semiperimeter, q the area (or the interior points, depending
on the series being built) and v the value of the last letter.  Terms are
stored as a dict from a packed exponent key (see ``backend`` for the
layout) to a nonzero int coefficient, so equality is plain dict equality
and the multiply kernel tests all three caps with one integer subtraction
per product.  ``MPoly.mul`` runs under the caps of a key; a shift past the
key fields raises ResourceLimit.  Every coefficient counts polyominoes,
so the entry points refuse anything but an int (TypeError), and every
division is exact or raises: a remainder is a transcription slip, not a
rational.
"""

from operator import index
from typing import NamedTuple

from . import backend
from .backend import FIELD_KEY, GUARDS, MASK, MAXCAP, PSHIFT, QSHIFT, VSHIFT, pack, unpack
from .errors import InternalInconsistency, NonUnitDivisor, ResourceLimit

_SHIFTS = {"p": PSHIFT, "q": QSHIFT, "v": VSHIFT}


class Caps(NamedTuple):
    """Per-variable degree bounds, the caps of a product (``backend.cap_key``).

    Truncating every exponent above its cap is a quotient-ring map, so it
    commutes with ring operations.  ``for_order`` gives the bounds of the
    statistics below length N (semiperimeter 2N, area N(N+1)/2, last letter
    N); the constructors that carry q call it to refuse, before any work, an
    order whose area cap passes the key fields (above 1023).
    """

    p: int
    q: int
    v: int

    @classmethod
    def for_order(cls, order):
        caps = cls(p=2 * order, q=order * (order + 1) // 2, v=order)
        if max(caps) > MAXCAP:
            raise ResourceLimit(
                f"order {order} needs caps {tuple(caps)} above the key field maximum {MAXCAP}"
            )
        return caps


def _degree(terms, shift):
    return max(((k >> shift) & MASK for k in terms), default=0)


def _cleaned(d):
    return {k: c for k, c in d.items() if c}


def _merged(out, pairs):
    """The MPoly of the term dict ``out`` plus the (key, coefficient) pairs;
    ``out`` is mutated."""
    get = out.get
    for k, c in pairs:
        cur = get(k)
        s = c if cur is None else cur + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return MPoly._raw(out)


class MPoly:
    """Immutable-by-convention sparse polynomial in p, q, v."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _cleaned({k: index(c) for k, c in terms.items()}) if terms else {}

    @classmethod
    def _raw(cls, terms):
        # internal: terms already cleaned
        m = object.__new__(cls)
        m.terms = terms
        return m

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def scalar(cls, c):
        return cls.monomial(c)

    @classmethod
    def monomial(cls, c, dp=0, dq=0, dv=0):
        c = index(c)
        return cls._raw({pack(dp, dq, dv): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        return _merged(dict(self.terms), other.terms.items())

    def __sub__(self, other):
        return _merged(dict(self.terms), ((k, -c) for k, c in other.terms.items()))

    def __neg__(self):
        return MPoly._raw({k: -c for k, c in self.terms.items()})

    def mul(self, other, capkey):
        """Product, dropping terms beyond the caps."""
        acc = {}
        backend.mul_into(acc, self.terms, other.terms, capkey)
        return MPoly._raw(_cleaned(acc))

    def scale(self, c):
        c = index(c)
        if c == 0:
            return MPoly.zero()
        if c == 1:
            return self
        return MPoly._raw({k: v * c for k, v in self.terms.items()})

    def mul_monomial(self, c, dp=0, dq=0, dv=0):
        """Multiply by c * p^dp q^dq v^dv, raising ResourceLimit past the key fields."""
        c = index(c)
        if c == 0:
            return MPoly.zero()
        shift = pack(dp, dq, dv)
        out = {}
        for k, v in self.terms.items():
            nk = k + shift
            if (FIELD_KEY - nk) & GUARDS != GUARDS:
                raise ResourceLimit(f"the term {MPoly._raw({nk: v})} passes the key fields")
            out[nk] = v * c
        return MPoly._raw(out)

    def divide_monomial(self, c, dp=0, dq=0, dv=0):
        """Exact division by c * p^dp q^dq v^dv.

        Raises InternalInconsistency when some term lacks the required
        exponents or leaves a remainder by c; this is the loud-failure
        guard for transcription slips.
        """
        c, shift = index(c), pack(dp, dq, dv)
        out = {}
        for k, v in self.terms.items():
            ep, eq, ev = unpack(k)
            quot, rem = divmod(v, c)
            if ep < dp or eq < dq or ev < dv or rem:
                raise InternalInconsistency(
                    f"term {MPoly._raw({k: v})} not divisible by {MPoly._raw({shift: c})}"
                )
            out[k - shift] = quot
        return MPoly._raw(out)

    def divide_one_minus_v(self):
        """Exact division by 1 - v: within each (p, q), the quotient's
        coefficient of v^j is the running sum of this one's up to v^j.

        Raises InternalInconsistency when a running sum does not end at 0,
        a remainder, which would leave an infinite series in v.
        """
        rows = {}
        for k, c in self.terms.items():
            rows.setdefault(k & ~(MASK << VSHIFT), {})[(k >> VSHIFT) & MASK] = c
        out = {}
        for base, row in rows.items():
            run = 0
            for v in range(min(row), max(row) + 1):
                run += row.get(v, 0)
                if run:
                    out[base | v << VSHIFT] = run
            if run:
                ep, eq, _ = unpack(base)
                raise InternalInconsistency(
                    f"the coefficients of p^{ep} q^{eq} v^j sum to {run}, not 0: not divisible by 1 - v"
                )
        return MPoly._raw(out)

    def eval_one(self, var):
        """Set the given marker to 1 (merging terms)."""
        keep = ~(MASK << _SHIFTS[var])
        return _merged({}, ((k & keep, c) for k, c in self.terms.items()))

    def derivative(self, var):
        """Formal derivative with respect to one marker."""
        shift = _SHIFTS[var]
        out = {}
        get = out.get
        for k, c in self.terms.items():
            e = (k >> shift) & MASK
            if e == 0:
                continue
            nk = k - (1 << shift)
            cur = get(nk)
            out[nk] = c * e if cur is None else cur + c * e
        return MPoly._raw(_cleaned(out))

    def degree(self, var):
        return _degree(self.terms, _SHIFTS[var])

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def as_scalar(self):
        if not self.is_scalar():
            raise ValueError(f"not a scalar polynomial: {self}")
        return self.terms.get(0, 0)

    def coefficient(self, dp=0, dq=0, dv=0):
        return self.terms.get(pack(dp, dq, dv), 0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # by exponents (p, q, v), whatever the order of the key's fields
        for (ep, eq, ev), c in sorted((unpack(k), c) for k, c in self.terms.items()):
            factors = "".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in (("p", ep), ("q", eq), ("v", ev))
                if e
            )
            if not factors:
                body = str(c)
            elif c == 1:
                body = factors
            elif c == -1:
                body = "-" + factors
            else:
                body = f"{c}{factors}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def invert(m, capkey):
    """Multiplicative inverse of an MPoly whose scalar part s is 1 or -1.

    Works in the capped quotient ring: every term of t = 1 - m/s has a
    positive total degree, so t^k vanishes under the caps once k passes
    their sum, and the Neumann series 1 + t + t^2 + ... stops at its first
    zero power.  Any other scalar part has no integer inverse and raises
    NonUnitDivisor.
    """
    s = m.coefficient()
    if s not in (1, -1):
        raise NonUnitDivisor(f"scalar term {s} of {m} is not 1 or -1")
    rest = m - MPoly.scalar(s)
    if not rest:
        return MPoly.scalar(s)
    t = rest.scale(-s)  # m = s(1 - t), and 1/s = s
    result = MPoly.scalar(1)
    power = MPoly.scalar(1)
    for _ in range(sum(unpack(capkey)) + 1):
        power = power.mul(t, capkey)
        if not power:
            return result.scale(s)
        result = result + power
    raise InternalInconsistency(f"inverse of {m} did not terminate under caps")
