"""Constructors for every generating function of the library.

Conventions: x marks the length, p the semiperimeter, v the last letter;
q marks the area in the area-flavoured series and the number of interior
points in the interior-flavoured ones (the two families never mix).
Every constructor takes only its order.  Internally it may work at a padded
order so that guarded divisions by powers of x lose nothing; no step cuts a
term, and the constructors that carry q refuse orders past the key fields.

The two masters are built by forward recurrence on packed q-rows: each
(p, v) row of an x^n coefficient is one big integer, the row's
q-polynomial evaluated at q = 2^w, so their substitutions, sums and
1/(1 - qv) factors are shifts and integer additions.  The sums B and H and
the product forms count the words by area or by interior points with the
transfer DP of ``words.transfer``, weighted by shifts of single packed
q-integers: shifts and adds, no product.  The paper's forms of the
same four series stay as the second route (``paper_form``), checked
against the DP by ``verify`` and the tests: B and H as ratios of sums,
the product forms, defined as telescoped sums, through the q-shift
equations those sums satisfy (x -> x q), all mod 2^(w N) with doubling
steps for 1/(1 - q^j) and big-integer products.  Every x^n coefficient of
a packed series is read back at the end as one byte string and one run of
slot keys, in batches of whole coefficients (``_read_back``); each slot is
a count, so each packed value is written out as it is, in unsigned slots.
The six scalar series, the rows of one table of algebraic forms
``ALGEBRAIC_FORMS`` that ``trinomial_form`` also reads as the paper's
trinomial forms, are built on ints from the three-term recurrence of
sqrt(Delta).  The kernel-method closed forms run on ``Series``, on the
root of their kernel by its own recurrence, and divide by their known
divisors by the recurrence of each: 1 + p x for the root, and the bracket
of the master's equation at q = 1 for the last-letter forms, each step an
exact division by 1 - v; ``kernel_root_annihilates`` checks the root on
ints.  The continued fraction runs on the packed q-integers of the paper's
forms.
"""

from functools import partial
from itertools import chain, count
from operator import lshift, neg

from . import backend, closedforms
from .backend import PSHIFT, pack, unpack
from .errors import InternalInconsistency
from .mpoly import Caps, MPoly
from .series import Series
from .words import INCREMENTS, WordClass, increments, transfer

#: Delta = 1 - 2x - 3x^2 = (1 - 3x)(1 + x), as x-coefficients
_DELTA = [1, -2, -3]

#: The Motzkin and central trinomial series and those of the totals h, s,
#: u, p, each (P + Q sqrt(Delta)) / (c x^k Delta^e), as (c, P, Q, k, e)
#: with P and Q given by their x-coefficients
ALGEBRAIC_FORMS = {
    "M": (2, [1, -1], [-1], 2, 0),
    "T": (1, [], [1], 0, 1),
    "h": (2, [1, -2, -3, 2, 2], [-1, 1, 2], 4, 0),
    "s": (2, [-3, 7, 7, -3], [3, -4, -5], 2, 1),
    "u": (-2, [1, -4, 0, 7, 2], [-1, 3, 1, -2], 4, 1),
    "p": (-2, [1, -4, -4, 17, 12, -10, -6], [-1, 3, 5, -8, -8], 4, 1),
}


def _sqrt_delta(order):
    """The x^0 .. x^(order-1) coefficients of sqrt(Delta), from its
    recurrence n y_n = (2n - 3) y_(n-1) + 3(n - 3) y_(n-2), y_0 = 1 and
    y_1 = -1; each division is exact or raises."""
    y = [1, -1][:order]
    for n in range(2, order):
        q, r = divmod((2 * n - 3) * y[n - 1] + 3 * (n - 3) * y[n - 2], n)
        if r:
            raise InternalInconsistency(f"sqrt(Delta): x^{n} coefficient is not whole")
        y.append(q)
    return y


def _algebraic_series(name, order):
    """The series ``ALGEBRAIC_FORMS[name]`` on ints: Q sqrt(Delta) + P to
    x^(order + k - 1), e passes of g_n += 2 g_(n-1) + 3 g_(n-2) (the division
    by Delta), the k lowest coefficients checked to vanish and dropped, and
    an exact division by c, so a slip in the table fails loudly."""
    c, P, Q, k, e = ALGEBRAIC_FORMS[name]
    work = order + k
    y = _sqrt_delta(work)
    g = [sum(qi * y[n - i] for i, qi in enumerate(Q[: n + 1])) for n in range(work)]
    for n, pn in enumerate(P[:work]):
        g[n] += pn
    for _ in range(e):
        for n in range(1, work):
            g[n] += 2 * g[n - 1] + (3 * g[n - 2] if n > 1 else 0)
    if any(g[:k]):
        raise InternalInconsistency(f"{name}: x^0 .. x^{k - 1} coefficients {g[:k]} do not vanish")
    return Series(order, [MPoly.scalar(gn).divide_monomial(c) for gn in g[k:]])


def trinomial_form(name):
    """The exact row (a, b, d) of ``ALGEBRAIC_FORMS[name]``: its x^n coefficient
    t(n) has 2 t(n) = sum_i a_i T(n + i) + b 3^(n+1) + d (-1)^n for
    n > deg P - k (n >= deg P - k - 1 if e = 1).  With R = Q Delta^(1-e) and
    1/sqrt(Delta) = sum T(n) x^n, T(n + k - j) carries R_j; for e = 1,
    [x^m] P/Delta = sum_j P_j (3^(m-j+1) + (-1)^(m-j)) / 4, also at m - j = -1.
    """
    c, P, Q, k, e = ALGEBRAIC_FORMS[name]

    def exact(num, den):  # a remainder is a slip in the table
        quot, rem = divmod(num, den)
        if rem:
            raise InternalInconsistency(f"{name}: the row entry {num}/{den} is not whole")
        return quot

    R = Q
    if not e:
        R = [sum(q * _DELTA[m - i] for i, q in enumerate(Q) if 0 <= m - i < 3)
             for m in range(len(Q) + 2)]
    if len(R) > k + 1:
        raise InternalInconsistency(f"{name}: deg R = {len(R) - 1} > k, so T(n - 1) enters")
    a = [exact(2 * r, c) for r in reversed(R + [0] * (k + 1 - len(R)))]
    # for e = 0, P / x^k is a polynomial: no 3^n or (-1)^n part; 3^(k - j)
    # is taken over 3^t, so that it is whole for j > k too
    t = max(len(P) - 1 - k, 0)
    b = exact(e * sum(pj * 3 ** (k - j + t) for j, pj in enumerate(P)), 2 * c * 3**t)
    # by parity, since (-1) ** -1 is a float
    d = exact(e * sum(pj if (k - j) % 2 == 0 else -pj for j, pj in enumerate(P)), 2 * c)
    return a, b, d


def gf_motzkin(order):
    """Motzkin number series (1 - x - sqrt(1-2x-3x^2)) / (2x^2)."""
    return _algebraic_series("M", order)


def gf_trinomial(order):
    """Central trinomial series 1 / sqrt(1-2x-3x^2)."""
    return _algebraic_series("T", order)


def gf_h(order):
    """Series of the last-letter totals h(n)."""
    return _algebraic_series("h", order)


def gf_s(order):
    """Series of the semiperimeter totals s(n)."""
    return _algebraic_series("s", order)


def gf_u(order):
    """Series of the area totals u(n)."""
    return _algebraic_series("u", order)


def gf_p(order):
    """Series of the interior-point totals p(n)."""
    return _algebraic_series("p", order)


# -- multivariate masters (forward recurrence on packed q-rows) ------------------
#
# Each master solves F = B + x S F(qv) + x^2 (P F(q) - M F(q^2 v)) / (1 - qv)
# for monomials S, P, M in p, q, v and a base B of one monomial at x and one
# at x^2.  The x^n coefficient is held as rows {a: [r_0, ..., r_(n-1)]}: r_v
# is the q-polynomial that multiplies p^a v^v, evaluated at q = 2^w as one
# big integer.  Every step is then integer arithmetic on rows:
#   F(q^j v) times p^a q^b v^c  moves r_v to (p + a, v + c), shifted left by
#                               (j v + b) slots;
#   F(q) times p^a q^b          sums r_v shifted by (v + b) slots into (p + a, 0);
#   / (1 - qv)                  is the running sum out_v = (out_(v-1) << w) + in_v
#                               within one p.
# Evaluation at q = 2^w is a ring map and no row is ever masked, so every
# row is the exact integer f(2^w) whatever the slot width: only the read-back
# needs a bound on the slots, and ``_slot_bytes`` gives it.
#
# The last letter of a length-n word is below n, so the rows v < n hold the
# whole x^n coefficient.  The two substitutions at v move each row of
# x^(n-1) and x^(n-2) onto its own row of x^n (one-to-one), so they set
# fresh entries; and the running sum must be exactly 0 past v = n - 1,
# which ``_master`` checks, so a wrong monomial fails loudly instead of
# leaving terms with v >= n.  Each nonzero (p, v) row is written out from
# its lowest nonzero slot to its top one, with the keys of those slots;
# the rows of a coefficient are joined, and ``_read_back`` decodes the
# coefficients, a bounded batch per call.


def _solve_forward(order, contributions):
    """Build the coefficients of x^0 .. x^(order-1) from their recurrence.

    ``contributions(prefix, n)`` returns the x^n coefficient, where
    ``prefix`` holds the coefficients of x^0 .. x^(n-1) only.  The masters'
    right-hand sides read orders n-1 and n-2, so each coefficient is final
    as soon as it is built and one evaluation per order yields the fixed
    point.  A contribution that reads order n or later finds no such entry
    and fails loudly.
    """
    coeffs = []
    for n in range(order):
        try:
            coeffs.append(contributions(coeffs, n))
        except IndexError as exc:
            raise InternalInconsistency(
                f"contribution to x^{n} read a coefficient of order >= {n}"
            ) from exc
    return coeffs


def _slot_bytes(order):
    """Bytes per q-slot of a packed series with coefficients x^0 .. x^(order-1).

    Every stored slot counts avoiding words of one length n < order, so it
    lies in [0, M(n)] with M(n) <= M(order - 1) (M = Motzkin): the slot is
    the least number of bytes that holds M(order - 1), unsigned, as
    ``backend.read_slots`` takes it.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    return (closedforms.motzkin(order - 1).bit_length() + 7) // 8


def _master(order, base, step, plus, minus):
    """The master series for the base monomials ``base`` = ((dp, dq) at x,
    (dp, dq) at x^2), S = ``step`` and M = ``minus`` as (dp, dq, dv) and
    P = ``plus`` as (dp, dq).

    The x^n coefficient holds the rows v = 0 .. n - 1 of each p.  The step
    (v -> v + sv) and the minus term (v -> v + mv) set the entries they
    write, each once; the plus term and the base add at v = 0.  A step
    outside v^0..v^1, or a minus term outside v^1..v^2, raises before any
    work.  A 1/(1 - qv) sum that does not end at 0 by v = n - 1 would leave
    terms with v >= n, and raises too.  The rows are exact integers at any
    slot width, so the slots are sized from M(order - 1) by ``_slot_bytes``,
    the bound of the slots read back.
    """
    sp, sq, sv = step
    pp, pq = plus
    mp, mq, mv = minus
    if not (0 <= sv <= 1 and 1 <= mv <= 2):
        raise InternalInconsistency(
            f"step v^{sv} or minus v^{mv} leaves the rows v < n of x^n "
            "(the step needs v^0 or v^1, the minus term v^1 or v^2)"
        )
    Caps.for_order(order)  # an order past the key fields raises before any work
    nbytes = _slot_bytes(order)
    w = 8 * nbytes

    def row(rows, p, n):
        r = rows.get(p)
        if r is None:
            r = rows[p] = [0] * n
        return r

    def contributions(prefix, n):
        out = {}
        if n >= 1:
            # each row of x^(n-1) moves to a row of its own, shifted by v + sq slots
            for p, rs in prefix[n - 1].items():
                dst = out[p + sp] = [0] * n
                dst[sv : sv + n - 1] = map(lshift, rs, count(sq * w, w))
        if 1 <= n <= 2:
            bp, bq = base[n - 1]
            row(out, bp, n)[0] += 1 << (bq * w)
        if n >= 2:
            geom = {}
            for p, rs in prefix[n - 2].items():
                merged = 0
                for r in reversed(rs):
                    merged = (merged << w) + r
                row(geom, p + pp, n)[0] += merged << (pq * w)
                minus_rs = map(lshift, rs, count(mq * w, 2 * w))
                row(geom, p + mp, n)[mv : mv + n - 2] = map(neg, minus_rs)
            for p, ins in geom.items():
                dst = row(out, p, n)
                run = 0
                for v in range(n):
                    run = (run << w) + ins[v]
                    dst[v] += run
                if run:
                    raise InternalInconsistency(
                        f"the 1/(1 - qv) sum of x^{n} p^{p} runs past v = {n - 1}"
                    )
        return out

    def slots(rows):
        chunks, keys = [], []
        for p, rs in rows.items():
            key = p << PSHIFT
            for r in rs:
                if r:
                    first = ((r & -r).bit_length() - 1) // w
                    top = r.bit_length() // w + 1
                    chunks.append((r >> first * w).to_bytes(nbytes * (top - first), "little"))
                    keys.append(range(key + first * _QSTEP, key + top * _QSTEP, _QSTEP))
                key += _VSTEP
        return b"".join(chunks), chain.from_iterable(keys)

    rows = _solve_forward(order, contributions)
    return _read_back(order, nbytes, map(slots, rows))


#: The key of q, the step between the keys of consecutive q-slots
_QSTEP = pack(0, 1, 0)

#: The key of v, the step between the keys of consecutive (p, v) rows
_VSTEP = pack(0, 0, 1)

#: Most slot bytes per ``backend.read_slots`` call, whose bytes, limbs and
#: ints are alive at once; every series below order 21 is one batch
_READ_BATCH_BYTES = 1 << 20


def _read_back(order, nbytes, coeffs):
    """The series whose x^n coefficients ``coeffs`` yields as the bytes of
    their slots and the keys of those slots, decoded in batches of at most
    ``_READ_BATCH_BYTES`` slot bytes (or one coefficient, if it is larger)."""
    terms, raws, keys, size = [], [], [], 0
    for raw, key in coeffs:
        if raws and size + len(raw) > _READ_BATCH_BYTES:
            terms += backend.read_slots(b"".join(raws), nbytes, keys)
            raws, keys, size = [], [], 0
        raws.append(raw)
        keys.append(key)
        size += len(raw)
    terms += backend.read_slots(b"".join(raws), nbytes, keys)
    return Series(order, [MPoly._raw(t) for t in terms])


def master_pqv(order):
    """Length/semiperimeter/area/last-letter master series.

    Built by forward recurrence on packed q-rows from the self-substitution
    equation whose right side feeds the series back at v:=q, v:=qv and
    v:=q^2 v with the prefactors p^2 q x, p^3 q^2 x^2, p^3q^3x^2/(1-qv),
    p^2q^2xv and -p^3q^5x^2v^2/(1-qv).  The x^n coefficient keeps the
    last letters v < n, the only ones a word of length n can end on.
    """
    return _master(order, ((2, 1), (3, 2)), (2, 2, 1), (3, 3), (3, 5, 2))


def master_interior_qv(order):
    """Length/interior-points/last-letter master series (q marks interior points).

    Built by forward recurrence on packed q-rows, like ``master_pqv``, from
    the equation with the terms x and x^2 and the prefactors xv (at v:=qv),
    x^2/(1-qv) (at v:=q) and -q^2x^2v^2/(1-qv) (at v:=q^2 v).
    """
    return _master(order, ((0, 0), (0, 0)), (0, 0, 1), (0, 0), (0, 2, 2))


# -- closed forms from the kernel method ---------------------------------------


def _sqrt_sper_kernel(order):
    """sqrt(1 - 2p^2 x + (p^4 - 4p^3) x^2), from its recurrence
    n y_n = p^2 (2n - 3) y_(n-1) - (n - 3)(p^4 - 4p^3) y_(n-2), with y_0 = 1
    and y_1 = -p^2; each division is exact or raises."""
    y = [MPoly.scalar(1), MPoly.monomial(-1, 2, 0, 0)][:order]
    for n in range(2, order):
        a, b = y[n - 1], y[n - 2]
        t = a.mul_monomial(2 * n - 3, 2) + b.mul_monomial(3 - n, 4)
        y.append((t + b.mul_monomial(4 * (n - 3), 3)).divide_monomial(n))
    return Series(order, y)


def cf_S(order):
    """Length/semiperimeter series in closed form."""
    work = order + 2
    poly = Series.from_x_polynomial(
        work, [1, MPoly.monomial(-1, 2, 0, 0), MPoly.monomial(-2, 3, 0, 0)]
    )
    num = poly - _sqrt_sper_kernel(work)
    return num.divide_by_x_power(2).divide_coeffs_monomial(2, 3, 0, 0)


#: The bracket (1 - v) + b_1 x + b_2 x^2 of the master's equation at q = 1,
#: the divisor of the kernel-method forms: b_1 = p^2 v^2 - p^2 v and
#: b_2 = p^3 v^2, each a tuple of monomials (c, dp, dv)
_KERNEL_BRACKET = (((1, 2, 2), (-1, 2, 1)), ((1, 3, 2),))


def _over_bracket(num, p=1):
    """num / ``_KERNEL_BRACKET``, the bracket taken at p = 1 if p is 0, by
    its recurrence out_k = (num_k - b_1 out_(k-1) - b_2 out_(k-2)) / (1 - v).

    Each division by 1 - v is exact or raises, so a slip in the bracket or
    in the numerator fails loudly instead of leaving a series in v.
    """
    out = []
    for k, c in enumerate(num.coeffs):
        for back, b in enumerate(_KERNEL_BRACKET[:k], 1):
            for m, dp, dv in b:
                c = c - out[k - back].mul_monomial(m, p * dp, 0, dv)
        out.append(c.divide_one_minus_v())
    return Series(num.order, out)


def cf_C_sper_v(order):
    """Length/semiperimeter/last-letter series in closed form: its even
    numerator, halved, over the bracket of the master's equation at q = 1
    (``_over_bracket``)."""
    p2 = MPoly.monomial(1, 2, 0, 0)
    p2v = MPoly.monomial(1, 2, 0, 1)
    p3v = MPoly.monomial(1, 3, 0, 1)
    num = Series.from_x_polynomial(
        order, [1, p2 - p2v.scale(2), p3v.scale(-2)]
    ) - _sqrt_sper_kernel(order)
    return _over_bracket(num.divide_coeffs_monomial(2))


def cf_C_last(order):
    """Length/last-letter series in closed form (built on the Motzkin series)."""
    return _last_letter_form(gf_motzkin(order))


def _last_letter_form(motz):
    """``cf_C_last`` at the order of ``motz``, built on that Motzkin series:
    (1 - v) x - v x^2 + x^2 M(x) over the bracket at p = 1,
    (1 - v) - v (1 - v) x + v^2 x^2."""
    v = MPoly.monomial(1, 0, 0, 1)
    num = Series.from_x_polynomial(motz.order, [0, MPoly.scalar(1) - v, -v])
    return _over_bracket(num + motz.mul_monomial(1, x_shift=2), p=0)


def kernel_root_v0(order):
    """Small root of the semiperimeter kernel, as a series in x.

    The root times 1 + p x comes from the square root; the division by
    1 + p x is its recurrence out_k = root_k - p out_(k-1).  Substituting
    the root for v annihilates the kernel (checked by
    ``kernel_root_annihilates``).
    """
    work = order + 1
    num = Series.from_x_polynomial(work, [1, MPoly.monomial(1, 2, 0, 0)]) - _sqrt_sper_kernel(work)
    root = num.divide_by_x_power(1).divide_coeffs_monomial(2, 2, 0, 0)
    out = []
    for c in root.coeffs:
        out.append(c - out[-1].mul_monomial(1, 1) if out else c)
    return Series(order, out)


def kernel_root_annihilates(v0):
    """Whether v0 + p^2 x v0 = 1 + p^2 x v0^2 + p^3 x^2 v0^2 mod x^order: the
    kernel 1 - p^2 x v + p^3 x^2 v^2 / (1 - v) times 1 - v at v = v0, its
    negative terms moved across (v0 has constant term 1, so 1/(1 - v0) is
    no power series).

    Each x^n coefficient of the root, a polynomial in p with nonnegative
    coefficients, is packed at p = 2^w as one int, and the square is a
    convolution of ints (D. Harvey, J. Symbolic Comput. 44, 2009).  No slot
    of either side passes its value at p = 1, so for w the bit length of the
    largest such value no slot carries, and the sides are equal exactly when
    their ints are.  A root term that is negative or carries q or v has no
    such packing and raises.
    """
    for n, c in enumerate(v0.coeffs):
        for key, m in c.terms.items():
            dp, dq, dv = unpack(key)
            if m < 0 or dq or dv:
                raise InternalInconsistency(f"root term {m} p^{dp} q^{dq} v^{dv} at x^{n} not in N[p]")
    order = v0.order

    def sides(w):  # the x^n coefficients of both sides at p = 2^w (at p = 1 for w = 0)
        v = [sum(m << (key >> PSHIFT) * w for key, m in c.terms.items()) for c in v0.coeffs]
        sq = [0]  # sq[k + 1] is the x^k coefficient of v^2
        for k in range(order - 1):
            pairs = sum(v[i] * v[k - i] for i in range((k + 1) // 2))  # each i < j once
            sq.append(2 * pairs + (0 if k % 2 else v[k // 2] ** 2))
        left = [v[0]] + [v[n] + (v[n - 1] << 2 * w) for n in range(1, order)]
        return left, [1] + [(sq[n] << 2 * w) + (sq[n - 1] << 3 * w) for n in range(1, order)]

    left, right = sides(max(chain(*sides(0))).bit_length())
    return left == right


# -- area and interior-point flavours (packed q-integers) ------------------------
#
# sum_B, sum_H and the product forms prod_area/prod_interior work on integer
# polynomials in q alone, each held as one integer: the polynomial evaluated
# at q = 2^w.  Their x^n coefficient counts avoiding words of length n < order
# (the sums a subset of them) by area or by interior points, never more than
# the area, which is at most n (n + 1) / 2.  So its q-degree is below
#   slots(n) = n (n + 1) / 2 + 1,
# and its slots lie in [0, M(n)], which ``_slot_bytes`` sizes the slots for.
# The x^n coefficients of a dense series are read back by ``_read_back`` as
# they are, in unsigned slots, every slot up to the top one written out;
# the decode drops the few zero slots among them.  The key of slot k is that
# of q^k, which is k itself, since q has the low field of the key
# (``backend``): the keys are the slot indices, small ints that spread over
# the table of each coefficient's dict.
#
# The constructors count the words directly, by the transfer DP over the
# word automaton, ``words.transfer`` (see ``_transfer_packed``): each step is
# shifts and adds of packed states, each state a count of words of one
# length, so no slot ever carries and no product is formed.
#
# The paper's forms stay as the second route (``paper_form``), on the same
# packed q-integers reduced mod 2^(w N), N = slots(order - 1): B and H as the
# ratio of two sums (``_ratio``), the product forms through the q-shift
# equations of their telescoped sums.  B's continued fraction
# (``cf_B_contfrac``) runs there too.  q -> 2^w maps Z[q]/(q^N) onto
# Z/2^(w N) as a ring map, so a multiply by q^k is a left shift by k slots,
# +- is an integer add, a product an integer product, and
#   1/(1 - q^d) = (1 + q^d)(1 + q^(2d))(1 + q^(4d)) ...   mod q^N
# takes log2(N/d) doubling steps r = (r + (r << s)) & mask.  Each image is
# exact mod 2^(w N) whatever its slots hold, so no intermediate needs a bound
# and nothing is repacked.  The residue of a result mod 2^(w slots(n)) then
# reads back slot by slot, and each stored x^n coefficient is exact: the
# integer f(2^w), usable as is at any larger precision.  That allows two
# truncations:
#   the quotient's x^k coefficient is needed only mod q^slots(k), so each of
#     its products cuts the denominator term to slots(k) slots and
#     multiplies it by a short earlier coefficient;
#   the product forms are built from their q-shift equations (see
#     ``_area_packed`` and ``_interior_packed``), whose x^n coefficient is a
#     sum of products of earlier coefficients, each shifted by a power of q;
#     it is cut to slots(n) slots, and a product whose shift leaves no slot
#     is not formed.


def _dense_series(order, packed):
    """The series of a dense constructor whose x^n coefficients
    ``packed(order, w)`` returns, read back by ``_read_back``.

    The slots are sized from M(order - 1) by ``_slot_bytes``, the bound of
    every slot read back and of every slot of the transfer DP's states.
    """
    Caps.for_order(order)  # an order past the key fields raises before any work
    nbytes = _slot_bytes(order)
    w = 8 * nbytes

    def slots(c):
        n = c.bit_length() // w + 1
        return c.to_bytes(nbytes * n, "little"), range(0, n * _QSTEP, _QSTEP)

    return _read_back(order, nbytes, map(slots, packed(order, w)))


def _slots(n):
    """Slots that hold the x^n coefficient of a dense series."""
    return n * (n + 1) // 2 + 1


def _transfer_packed(stat, word_class, order, w):
    """Packed x^n coefficients, n < order, of the words of ``word_class``
    by ``stat``: the totals of ``words.transfer`` at q = 2^w, where an
    increment k is a shift by k slots, so ``weigh`` is a left shift by a
    weight of k w bits.  Every state counts words of one length n, so its
    slots lie in [0, M(n)] and never carry.
    """
    rise, fall = increments(stat, order, w)
    states = transfer(order - 1, word_class, 1 << INCREMENTS[stat][0] * w, lshift, rise, fall)
    return [0] + [total for _u, _f, total in states]


def _geom(r, d, w, mask):
    """r / (1 - q^d) mod q^N, for a packed r and mask = 2^(w N) - 1."""
    s, top = d * w, mask.bit_length()
    while s < top:
        r = (r + (r << s)) & mask
        s <<= 1
    return r


def _over_one_minus(num, den, w):
    """Packed coefficients of num / (1 - sum_(j >= 1) den_j x^j), for
    num_0 = 0 (den_0 is not read): out_k = num_k + sum_(1 <= j < k)
    den_j out_(k-j), cut to slots(k), where the x^k coefficient is exact."""
    out = [0] * len(num)
    for k in range(1, len(num)):
        cut = (1 << (w * _slots(k))) - 1
        out[k] = (num[k] + sum((den[j] & cut) * out[k - j] for j in range(1, k))) & cut
    return out


def _ratio(order, w, step, term):
    """Packed coefficients of sum_j x^j t_j / (1 - sum_j x^j t_j / (1 - q^j)).

    t_j = ``term(P_j, j)``, linear in the partial product P_j, for P_1 = 1
    and P_(j+1) = ``step(P_j, P_j / (1 - q^j), j)``, all mod q^N: one
    division by 1 - q^j gives both the denominator term
    t_j / (1 - q^j) = term(P_j / (1 - q^j), j) and the next partial product.
    """
    mask = (1 << (w * _slots(order - 1))) - 1
    num = [0] * order
    den = [0] * order
    prod = 1
    for k in range(1, order):
        quot = _geom(prod, k, w, mask)
        num[k] = term(prod, k) & mask
        den[k] = term(quot, k) & mask
        prod = step(prod, quot, k) & mask
    return _over_one_minus(num, den, w)


def _sum_B_packed(order, w):
    # P_(i+1) = P_i (1 - q^i + q^(2i)) / (1 - q^i), t_j = (-1)^(j+1) q^j P_j
    def step(prod, quot, i):
        return quot - (quot << i * w) + (quot << 2 * i * w)

    return _ratio(order, w, step, lambda prod, j: (prod if j % 2 else -prod) << j * w)


def _sum_H_packed(order, w):
    # P_(i+1) = P_i (q^(i-1) - 1/(1 - q^i)), t_j = P_j
    def step(prod, quot, i):
        return (prod << (i - 1) * w) - quot

    return _ratio(order, w, step, lambda prod, j: prod)


def _area_packed(order, w):
    """Packed coefficients of prod_area, built on the packed sum_B.

    G(x) = sum_(i >= 0) x^i q^(i(i+1)/2) prod_(k < i) (1 + B(x q^k)) obeys
    the q-shift equation G(x) = 1 + x q (1 + B(x)) G(x q): term i of the
    right side is term i + 1 of the left.  So, with b_0 = 1, b_t = B_t and
    G_0 = 1,
      G_n = sum_(m < n) b_(n-1-m) G_m q^(m+1),
    about order^2/2 products in all, and prod_area = G - 1.  G_n is needed
    only mod q^slots(n), so a term with m + 1 >= slots(n) is not formed,
    and the others need b_(n-1-m) and G_m only mod q^(slots(n) - m - 1).
    Each stored b_t and G_m is cut to its own slots, where it is exact.
    """
    b = [1] + _sum_B_packed(order, w)[1:]
    g = [1] * order
    for n in range(1, order):
        top = _slots(n)
        c = sum(b[n - 1 - m] * g[m] << (m + 1) * w for m in range(min(n, top - 1)))
        g[n] = c & ((1 << (w * top)) - 1)
    return [0] + g[1:]


def _interior_packed(order, w):
    """Packed coefficients of prod_interior, built on the packed sum_H.

    With m = i - 1 the paper's sum is x (1 + H(x)) K(x), where
      K(x) = sum_(m >= 0) x^m q^(m(m-1)/2) prod_(1 <= k <= m) (1 + H(x q^k))
    obeys K(x) = 1 + x (1 + H(x q)) K(x q).  Its right side is P(x q) / q
    for P = prod_interior, so K_0 = 1 and K_m = P_m q^(m-1) for m >= 1.
    With h_0 = 1 and h_t = H_t, P_n = sum_(t < n) h_t K_(n-1-t), that is
      P_n = h_(n-1) + sum_(1 <= m < n) h_(n-1-m) P_m q^(m-1).
    As in ``_area_packed``, a term with m - 1 >= slots(n) is not formed,
    and every stored h_t and P_m is exact within its own slots.
    """
    h = [1] + _sum_H_packed(order, w)[1:]
    p = [0] * order
    for n in range(1, order):
        top = _slots(n)
        c = sum(h[n - 1 - m] * p[m] << (m - 1) * w for m in range(1, min(n, top + 1)))
        p[n] = (h[n - 1] + c) & ((1 << (w * top)) - 1)
    return p


#: The paper's form of each dense constructor: the second route, which
#: ``verify`` and the tests check the transfer DP against
_PAPER_FORMS = {
    "sum_B": _sum_B_packed,
    "sum_H": _sum_H_packed,
    "prod_area": _area_packed,
    "prod_interior": _interior_packed,
}


def paper_form(name, order):
    """The dense series ``name`` (``sum_B``, ``sum_H``, ``prod_area`` or
    ``prod_interior``) built from the paper's form instead of the DP."""
    return _dense_series(order, _PAPER_FORMS[name])


def sum_B(order):
    """Length/area series of the words whose last two letters strictly rise.

    Built by the transfer DP over the word automaton (``_transfer_packed``)
    and read back once.  The paper's form, the ratio of two alternating sums
    whose j-th terms carry x^j and the partial products of
    (1 - q^i + q^(2i)) / (1 - q^i), is ``paper_form("sum_B", ...)``.
    """
    return _dense_series(order, partial(_transfer_packed, "area", WordClass.CLASS_B))


def cf_B_contfrac(order):
    """The same series evaluated from its continued fraction, bottom-up.

    Level j carries q^j x: d_j = (1 + q^j x)(1 - q^(j+1) x / d_(j+1)), from
    d_order = 1 + q^order x, which reproduces sum_B exactly, and the series
    is 1 / (1 - q x / d_1) - 1.  Each d_j is kept as a fraction N / D by the
    Euler-Wallis recurrences N <- (1 + q^j x)(N - q^(j+1) x D), D <- N, so a
    level is two monomial shifts and adds, and the only quotient is the
    last one, q x D / (N - q x D) = t / (1 - (t - N + 1)) for t = q x D.
    All of it runs on packed q-integers mod 2^(w N), as the paper forms do
    (``_over_one_minus``), and is read back by ``_dense_series``.
    """
    return _dense_series(order, _contfrac_packed)


def _contfrac_packed(order, w):
    """Packed x^n coefficients, n < order, of ``cf_B_contfrac``."""
    mask = (1 << (w * _slots(order - 1))) - 1

    def qx(s, j):
        # s times q^j x, mod x^order
        return [0] + [c << j * w for c in s[:-1]]

    num = den = [1] + [0] * (order - 1)
    num = [a + b for a, b in zip(num, qx(num, order))]
    for j in range(order - 1, 0, -1):
        cut = [(a - b) & mask for a, b in zip(num, qx(den, j + 1))]
        num, den = [(a + b) & mask for a, b in zip(cut, qx(cut, j))], num
    top = qx(den, 1)
    return _over_one_minus(top, [t - n for t, n in zip(top, num)], w)


def prod_area(order):
    """Length/area series of all avoiding words.

    Built by the transfer DP, like ``sum_B``.  The paper's form, the sum
    over i >= 1 of x^i q^(i(i+1)/2) prod_{k < i} (1 + B(x q^k)), evaluated
    through its q-shift equation (``_area_packed``), is
    ``paper_form("prod_area", ...)``.
    """
    return _dense_series(order, partial(_transfer_packed, "area", WordClass.AVOID_GEQ_GEQ))


def sum_H(order):
    """Length/interior-points series of the strictly-rising-tail words.

    Built by the transfer DP, like ``sum_B``.  The paper's form, the ratio
    of two sums whose j-th terms carry x^j and the partial products of
    q^(i-1) - 1/(1 - q^i), times 1/(1 - q^j) in the denominator terms, is
    ``paper_form("sum_H", ...)``.
    """
    return _dense_series(order, partial(_transfer_packed, "inter", WordClass.CLASS_B))


def prod_interior(order):
    """Length/interior-points series of all avoiding words.

    Built by the transfer DP, like ``sum_B``.  The paper's form, the sum
    over i >= 1 of x^i q^((i-2)(i-1)/2) prod_{k < i} (1 + H(x q^k)),
    evaluated through its q-shift equation (``_interior_packed``), is
    ``paper_form("prod_interior", ...)``.
    """
    return _dense_series(order, partial(_transfer_packed, "inter", WordClass.AVOID_GEQ_GEQ))
