"""Constructors for every generating function of the library.

Conventions: x marks the length, p the semiperimeter, v the last letter;
q marks the area in the area-flavoured series and the number of interior
points in the interior-flavoured ones (the two families never mix).
Internally each constructor may work at a padded order so that guarded
divisions by powers of x lose nothing.
"""

from fractions import Fraction

from .errors import DepthTooShallow, InternalInconsistency
from .mpoly import Caps, MPoly
from .series import Series

_HALF = Fraction(1, 2)


def _sqrt_base(order, caps):
    """sqrt(1 - 2x - 3x^2)."""
    return Series.from_x_polynomial(order, [1, -2, -3], caps).sqrt()


def gf_motzkin(order, caps=None):
    """Motzkin number series (1 - x - sqrt(1-2x-3x^2)) / (2x^2)."""
    work = order + 2
    caps = caps or Caps.for_order(work)
    num = Series.from_x_polynomial(work, [1, -1], caps) - _sqrt_base(work, caps)
    return num.divide_by_x_power(2).scale(_HALF)


def gf_trinomial(order, caps=None):
    """Central trinomial series 1 / sqrt(1-2x-3x^2)."""
    caps = caps or Caps.for_order(order)
    return _sqrt_base(order, caps).inverse()


def gf_h(order, caps=None):
    """Series of the last-letter totals h(n)."""
    work = order + 4
    caps = caps or Caps.for_order(work)
    s = _sqrt_base(work, caps)
    left = Series.from_x_polynomial(work, [-1, 2], caps) * s
    num = left + Series.from_x_polynomial(work, [1, -3, 0, 2], caps)
    num = num * Series.from_x_polynomial(work, [1, 1], caps)
    return num.divide_by_x_power(4).scale(_HALF)


def gf_s(order, caps=None):
    """Series of the semiperimeter totals s(n)."""
    work = order + 2
    caps = caps or Caps.for_order(work)
    trino = gf_trinomial(work, caps)
    num = Series.from_x_polynomial(work, [3, -4, -5], caps) * trino
    num = num + Series.from_x_polynomial(work, [-3, 1], caps)
    return num.divide_by_x_power(2).scale(_HALF)


def _total_over_shifted_kernel(order, caps, sqrt_factor, plain_part):
    # common tail of gf_u / gf_p: divide by 2x^4(3x^2 + 2x - 1)
    work = order + 4
    s = _sqrt_base(work, caps)
    num = Series.from_x_polynomial(work, sqrt_factor, caps) * s
    num = num + Series.from_x_polynomial(work, plain_part, caps)
    unit = Series.from_x_polynomial(work, [-1, 2, 3], caps)
    return num.div(unit).divide_by_x_power(4).scale(_HALF)


def gf_u(order, caps=None):
    """Series of the area totals u(n)."""
    caps = caps or Caps.for_order(order + 4)
    return _total_over_shifted_kernel(
        order, caps, [-1, 3, 1, -2], [1, -4, 0, 7, 2]
    )


def gf_p(order, caps=None):
    """Series of the interior-point totals p(n)."""
    caps = caps or Caps.for_order(order + 4)
    return _total_over_shifted_kernel(
        order, caps, [-1, 3, 5, -8, -8], [1, -4, -4, 17, 12, -10, -6]
    )


# -- multivariate masters (forward recurrence on the functional equations) ----


def _solve_forward(order, caps, base, contributions):
    """Build the series coefficient by coefficient from its recurrence.

    ``contributions(prefix, n)`` returns the x^n coefficient of the
    non-constant right-hand side, where ``prefix`` holds the coefficients
    of x^0 .. x^(n-1) only.  The right-hand sides read orders n-1 and n-2,
    so each coefficient is final as soon as it is built and one evaluation
    per order yields the fixed point.  A contribution that reads order n or
    later finds no such entry and fails loudly.
    """
    coeffs = []
    for n in range(order):
        head = base[n] if n < len(base) else MPoly.zero()
        try:
            tail = contributions(coeffs, n)
        except IndexError as exc:
            raise InternalInconsistency(
                f"contribution to x^{n} read a coefficient of order >= {n}"
            ) from exc
        coeffs.append(head + tail)
    return Series(order, coeffs, caps)


def master_pqv(order, caps=None):
    """Length/semiperimeter/area/last-letter master series.

    Built by forward recurrence from the self-substitution equation whose
    right side feeds the series back at v:=q, v:=qv and v:=q^2 v with the
    prefactors p^2 q x, p^3 q^2 x^2, p^3q^3x^2/(1-qv), p^2q^2xv and
    -p^3q^5x^2v^2/(1-qv).
    """
    caps = caps or Caps.for_order(order)
    capkey = caps.key
    base = [MPoly.zero(), MPoly.monomial(1, 2, 1, 0), MPoly.monomial(1, 3, 2, 0)]

    def contributions(prefix, n):
        out = MPoly.zero()
        if n >= 1:
            out = out + prefix[n - 1].subst_v_monomial(1, capkey).mul_monomial(
                1, 2, 2, 1, capkey
            )
        if n >= 2:
            prev = prefix[n - 2]
            plus = prev.subst_v_to_q(capkey).mul_monomial(1, 3, 3, 0, capkey)
            minus = prev.subst_v_monomial(2, capkey).mul_monomial(1, 3, 5, 2, capkey)
            out = out + (plus - minus).mul_geom(1, 1, capkey)
        return out

    return _solve_forward(order, caps, base, contributions)


def master_interior_qv(order, caps=None):
    """Length/interior-points/last-letter master series (q marks interior points).

    Built by forward recurrence, like ``master_pqv``, from the equation
    with the terms x and x^2 and the prefactors xv (at v:=qv), x^2/(1-qv)
    (at v:=q) and -q^2x^2v^2/(1-qv) (at v:=q^2 v).
    """
    caps = caps or Caps.for_order(order)
    capkey = caps.key
    base = [MPoly.zero(), MPoly.scalar(1), MPoly.scalar(1)]

    def contributions(prefix, n):
        out = MPoly.zero()
        if n >= 1:
            out = out + prefix[n - 1].subst_v_monomial(1, capkey).mul_monomial(
                1, 0, 0, 1, capkey
            )
        if n >= 2:
            prev = prefix[n - 2]
            plus = prev.subst_v_to_q(capkey)
            minus = prev.subst_v_monomial(2, capkey).mul_monomial(1, 0, 2, 2, capkey)
            out = out + (plus - minus).mul_geom(1, 1, capkey)
        return out

    return _solve_forward(order, caps, base, contributions)


# -- closed forms from the kernel method ---------------------------------------


def _sqrt_sper_kernel(order, caps):
    """sqrt(1 - 2p^2 x + (p^4 - 4p^3) x^2)."""
    x2 = MPoly.monomial(1, 4, 0, 0) + MPoly.monomial(-4, 3, 0, 0)
    base = Series.from_x_polynomial(order, [1, MPoly.monomial(-2, 2, 0, 0), x2], caps)
    return base.sqrt()


def cf_S(order, caps=None):
    """Length/semiperimeter series in closed form."""
    work = order + 2
    caps = caps or Caps.for_order(work)
    poly = Series.from_x_polynomial(
        work, [1, MPoly.monomial(-1, 2, 0, 0), MPoly.monomial(-2, 3, 0, 0)], caps
    )
    num = poly - _sqrt_sper_kernel(work, caps)
    return num.divide_by_x_power(2).divide_coeffs_monomial(2, 3, 0, 0)


def cf_C_sper_v(order, caps=None):
    """Length/semiperimeter/last-letter series in closed form."""
    caps = caps or Caps.for_order(order)
    p2 = MPoly.monomial(1, 2, 0, 0)
    p2v = MPoly.monomial(1, 2, 0, 1)
    p3v = MPoly.monomial(1, 3, 0, 1)
    num = Series.from_x_polynomial(
        order, [1, p2 - p2v.scale(2), p3v.scale(-2)], caps
    ) - _sqrt_sper_kernel(order, caps)
    one_minus_v = MPoly.scalar(1) - MPoly.monomial(1, 0, 0, 1)
    den = Series.from_x_polynomial(
        order,
        [
            one_minus_v.scale(2),
            MPoly.monomial(-2, 2, 0, 1) + MPoly.monomial(2, 2, 0, 2),
            MPoly.monomial(2, 3, 0, 2),
        ],
        caps,
    )
    return num.div(den)


def cf_C_last(order, caps=None):
    """Length/last-letter series in closed form (built on the Motzkin series)."""
    caps = caps or Caps.for_order(order + 2)
    motz = gf_motzkin(order, caps)
    v = MPoly.monomial(1, 0, 0, 1)
    one_minus_v = MPoly.scalar(1) - v
    num = Series.from_x_polynomial(order, [0, one_minus_v, -v], caps)
    num = num + motz.mul_monomial(1, x_shift=2)
    den = Series.from_x_polynomial(
        order,
        [one_minus_v, (-v).mul(one_minus_v), v.mul(v)],
        caps,
    )
    return num.div(den)


def kernel_root_v0(order, caps=None):
    """Small root of the semiperimeter kernel, as a series in x.

    Substituting it for v annihilates the kernel (checked via
    kernel_residual, in denominator-cleared form).
    """
    work = order + 1
    caps = caps or Caps.for_order(work)
    num = Series.from_x_polynomial(
        work, [1, MPoly.monomial(1, 2, 0, 0)], caps
    ) - _sqrt_sper_kernel(work, caps)
    root = num.divide_by_x_power(1).divide_coeffs_monomial(2, 2, 0, 0)
    unit = Series.from_x_polynomial(order, [1, MPoly.monomial(1, 1, 0, 0)], caps)
    return root.div(unit)


def kernel_residual(order, caps=None):
    """(1 - v0)(1 - p^2 x v0) + p^3 x^2 v0^2, which must vanish mod x^order.

    This is the kernel 1 - p^2 x v + p^3 x^2 v^2/(1-v) multiplied through
    by (1 - v): the root has constant term 1, so 1/(1 - v0) is not itself
    a power series and the cleared form is the faithful annihilation test.
    """
    v0 = kernel_root_v0(order, caps)
    caps = v0.caps
    one = Series.from_x_polynomial(order, [1], caps)
    p2xv0 = v0.mul_monomial(1, 2, 0, 0, x_shift=1)
    p3x2v0sq = (v0 * v0).mul_monomial(1, 3, 0, 0, x_shift=2)
    return (one - v0) * (one - p2xv0) + p3x2v0sq


# -- area flavour ---------------------------------------------------------------


def sum_B(order, caps=None):
    """Length/area series of the words whose last two letters strictly rise.

    Ratio of two alternating sums whose j-th terms carry x^j and the
    partial products of (1 - q^i + q^(2i)) / (1 - q^i).  Each partial
    product takes two shifted adds and one running sum (``mul_geom``),
    and 1/(1 - q^j) in the denominator terms one more running sum, so no
    polynomial product is needed.
    """
    caps = caps or Caps.for_order(order)
    capkey = caps.key
    num = Series.zero(order, caps)
    den = Series.zero(order, caps)
    prod = MPoly.scalar(1)
    for j in range(1, order):
        if j > 1:
            i = j - 1
            shifted = prod.mul_monomial(1, 0, i, 0, capkey)
            twice = prod.mul_monomial(1, 0, 2 * i, 0, capkey)
            prod = (prod - shifted + twice).mul_geom(i, 0, capkey)
        sign = 1 if j % 2 == 1 else -1
        num.coeffs[j] = prod.mul_monomial(sign, 0, j, 0, capkey)
        den.coeffs[j] = num.coeffs[j].mul_geom(j, 0, capkey)
    one = Series.from_x_polynomial(order, [1], caps)
    return num.div(one - den)


def cf_B_contfrac(order, depth, caps=None):
    """The same series evaluated from its continued fraction, bottom-up.

    Level j carries q^j x, so any depth >= order reproduces sum_B exactly.
    """
    if depth < order:
        raise DepthTooShallow(f"depth {depth} < order {order}")
    caps = caps or Caps.for_order(order)
    one = Series.from_x_polynomial(order, [1], caps)

    def level(j):
        return Series.from_x_polynomial(order, [1, MPoly.monomial(1, 0, j, 0)], caps)

    d = level(depth)
    for j in range(depth - 1, 0, -1):
        # (1 + q^j x) - (1 + q^j x) q^(j+1) x / d
        lvl = level(j)
        d = lvl - lvl.mul_monomial(1, 0, j + 1, 0, x_shift=1).div(d)
    result = one.div(one - Series.from_x_polynomial(order, [0, MPoly.monomial(1, 0, 1, 0)], caps).div(d))
    return result - one


def _telescope(order, caps, b, qexp):
    """sum over i >= 1 of x^i q^qexp(i) prod_{k < i} (1 + b(x q^k)).

    The i-th partial product is multiplied by x^i, so only its first
    order - i coefficients reach the result: it is built at that order,
    from the previous partial product truncated to it.
    """
    capkey = caps.key
    coeffs = [MPoly.zero()] * order
    partial = Series.from_x_polynomial(order, [1], caps)
    for i in range(1, order):
        m = order - i
        one = Series.from_x_polynomial(m, [1], caps)
        partial = partial.truncate(m) * (one + b.truncate(m).subst_x_scale(i - 1))
        shift = qexp(i)
        for n, c in enumerate(partial.coeffs, start=i):
            coeffs[n] = coeffs[n] + c.mul_monomial(1, 0, shift, 0, capkey)
    return Series(order, coeffs, caps)


def prod_area(order, caps=None):
    """Length/area series of all avoiding words: the telescoped product form.

    The sum over i of x^i q^(i(i+1)/2) prod_{k < i} (1 + B(x q^k)), with
    each partial product kept only to the order its x^i shift leaves.
    """
    caps = caps or Caps.for_order(order)
    return _telescope(order, caps, sum_B(order, caps), lambda i: i * (i + 1) // 2)


# -- interior-point flavour ------------------------------------------------------


def sum_H(order, caps=None):
    """Length/interior-points series of the strictly-rising-tail words.

    Ratio of two sums whose j-th terms carry x^j and the partial products
    of q^(i-1) - 1/(1 - q^i), times 1/(1 - q^j) in the denominator terms.
    Each factor is a shift minus a running sum (``mul_geom``), so no
    polynomial product is needed.
    """
    caps = caps or Caps.for_order(order)
    capkey = caps.key
    num = Series.zero(order, caps)
    den = Series.zero(order, caps)
    prod = MPoly.scalar(1)
    for j in range(1, order):
        if j > 1:
            i = j - 1
            prod = prod.mul_monomial(1, 0, i - 1, 0, capkey) - prod.mul_geom(i, 0, capkey)
        num.coeffs[j] = prod
        den.coeffs[j] = prod.mul_geom(j, 0, capkey)
    one = Series.from_x_polynomial(order, [1], caps)
    return num.div(one - den)


def prod_interior(order, caps=None):
    """Length/interior-points series of all avoiding words.

    The sum over i of x^i q^((i-2)(i-1)/2) prod_{k < i} (1 + H(x q^k)),
    truncated like ``prod_area``.
    """
    caps = caps or Caps.for_order(order)
    return _telescope(order, caps, sum_H(order, caps), lambda i: (i - 2) * (i - 1) // 2)
