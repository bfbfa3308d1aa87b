"""Integer closed forms and asymptotic/expected-value diagnostics.

Every total here is a linear combination of central trinomial
coefficients (plus a power of 3 for the area and interior-point totals),
halved, held as a row of ``TRINOMIAL_FORMS``; the halving is guarded so
that a transcription slip fails loudly instead of corrupting output.
"""

import math
import sys

from .errors import InternalInconsistency, ResourceLimit


def _p_recursive(cache, name, n, lead, prev, prev2):
    """Term n of the sequence with lead(k) c(k) = prev(k) c(k-1) + prev2(k) c(k-2),
    whose computed terms ``cache`` holds: the missing ones are built in one
    pass, and each division must be exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for k in range(len(cache), n + 1):
        total = prev(k) * cache[k - 1] + prev2(k) * cache[k - 2]
        q, r = divmod(total, lead(k))
        if r:
            raise InternalInconsistency(f"{name}({k}): {total} not divisible by {lead(k)}")
        cache.append(q)
    return cache[n]


_TRINOMIALS = [1, 1]
_MOTZKINS = [1, 1]


def trinomial(n: int) -> int:
    """Central trinomial coefficient: [x^n] (1 + x + x^2)^n.

    From n T(n) = (2n - 1) T(n-1) + 3(n - 1) T(n-2); the division is exact.
    """
    return _p_recursive(
        _TRINOMIALS, "trinomial", n, lambda k: k, lambda k: 2 * k - 1, lambda k: 3 * (k - 1)
    )


def motzkin(n: int) -> int:
    """n-th Motzkin number.

    From (n + 2) M(n) = (2n + 1) M(n-1) + 3(n - 1) M(n-2); the division is exact.
    """
    return _p_recursive(
        _MOTZKINS, "motzkin", n, lambda k: k + 2, lambda k: 2 * k + 1, lambda k: 3 * (k - 1)
    )


#: The paper's closed form of each total t as a row (a, b) of
#: 2 t(n) = sum_i a_i T(n + i) + b 3^(n+1), n >= 1, T = ``trinomial``;
#: ``verify`` checks each against the row ``gfs.trinomial_form`` derives
TRINOMIAL_FORMS = {
    "h": ([-6, -7, 3, 3, -1], 0),
    "s": ([-5, -4, 3], 0),
    "u": ([0, 2, -1, -3, 1], 1),
    "p": ([8, 8, -5, -3, 1], 1),
}


def trinomial_sum(row, n):
    """sum_i a_i T(n + i) + b 3^(n+1) for a row (a, b)."""
    a, b = row
    return sum(ai * trinomial(n + i) for i, ai in enumerate(a)) + b * 3 ** (n + 1)


def closed_total(name, n):
    """The total ``name`` (h, s, u or p) at length n >= 1 from its row in
    ``TRINOMIAL_FORMS``, halved with a guard."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = trinomial_sum(TRINOMIAL_FORMS[name], n)
    q, r = divmod(value, 2)
    if r:
        raise InternalInconsistency(f"{name}_closed({n}): odd numerator {value}")
    return q


def h_closed(n: int) -> int:
    """Total of the last letter over all avoiding words of length n."""
    return closed_total("h", n)


def s_closed(n: int) -> int:
    """Total semiperimeter over all avoiding words of length n."""
    return closed_total("s", n)


def u_closed(n: int) -> int:
    """Total area over all avoiding words of length n."""
    return closed_total("u", n)


def p_closed(n: int) -> int:
    """Total number of interior points over all avoiding words of length n."""
    return closed_total("p", n)


# -- diagnostics (floating point; no exactness claimed) ------------------------


def _in_float_range(name, n, approx):
    """approx(), or ResourceLimit when it passes the largest float: a power
    that overflows raises, a product that does gives inf."""
    try:
        value = approx()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ResourceLimit(f"{name}({n}) exceeds the float range (at most {sys.float_info.max:.4g})")
    return value


def asym_h(n: int) -> float:
    """Leading-order approximation of h_closed(n)."""
    return _in_float_range("asym_h", n, lambda: 2.0 * math.sqrt(3.0 / math.pi) * 3.0 ** (n + 1) / n**1.5)


def asym_s(n: int) -> float:
    """Leading-order approximation of s_closed(n)."""
    return _in_float_range("asym_s", n, lambda: 2.5 * math.sqrt(3.0 / math.pi) * 3.0**n / math.sqrt(n))


def asym_up(n: int) -> float:
    """Leading-order approximation of both u_closed(n) and p_closed(n)."""
    return _in_float_range("asym_up", n, lambda: 3.0 ** (n + 1) / 2.0)


def expected_last(n: int) -> "Fraction":
    """Mean last letter over the avoiding words of length n (exact)."""
    from fractions import Fraction  # it loads decimal: only the exact means pay for it

    return Fraction(h_closed(n), motzkin(n))


def expected_sper(n: int) -> "Fraction":
    """Mean semiperimeter over the avoiding words of length n (exact)."""
    from fractions import Fraction

    return Fraction(s_closed(n), motzkin(n))
