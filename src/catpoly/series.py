"""Power series in x truncated at a fixed order, with MPoly coefficients.

A series of order N is its order and the coefficients of x^0 .. x^(N-1).
Operations truncate at that order and cut nothing else: an exponent past
the key fields (``backend.MAXCAP``) raises ResourceLimit where it is
formed.  Operands of binary operations must share their order.

The layer is linear operations, monomial shifts, the marker operations
and exact divisions by x^k or by a monomial, each of which raises on a
remainder.  It has no product and no general quotient: each divisor the
library meets is a known polynomial in x, and its constructor in ``gfs``
divides by that divisor's recurrence; the one square, that of the kernel
root, is formed on packed ints by ``gfs.kernel_root_annihilates``.
"""

from .errors import InternalInconsistency, OrderMismatch
from .mpoly import MPoly


class Series:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("series order must be >= 1")
        self.order = order
        if coeffs is None:
            coeffs = [MPoly.zero()] * order
        elif len(coeffs) != order:
            raise ValueError("coefficient count must equal order")
        self.coeffs = list(coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_x_polynomial(cls, order, poly_coeffs):
        """Series whose x^n coefficient is poly_coeffs[n] (scalar or MPoly)."""
        s = cls(order)
        for n, c in enumerate(poly_coeffs[:order]):
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

    # -- monomial shifts ------------------------------------------------------

    def mul_monomial(self, c, dp=0, dq=0, dv=0, x_shift=0):
        """Multiply by c * x^x_shift * p^dp q^dq v^dv."""
        out = [MPoly.zero()] * min(x_shift, self.order)
        for n in range(self.order - x_shift):
            out.append(self.coeffs[n].mul_monomial(c, dp, dq, dv))
        return Series(self.order, out)

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
