"""Exact determinants of polynomial matrices and Sylvester resultants.

``expand_by_minors`` is the division-free expansion by minors (Gentleman &
Johnson, ACM TOMS 2(3), 1976) that the determinant template uses.  Each
minor it adds is a signed sum of (old minor) * (entry) products, which
``poly._product_sum`` sums on the integers, packed or by the dict loop by
the rule stated in ``poly``'s docstring.
``det_polymatrix``, which the Wronskian uses, brings each row's numerators
over one common denominator, packs each entry into one integer, as
``poly._product_sum`` does, runs one fraction-free Bareiss elimination
(``_bareiss``) on the integers and unpacks the determinant once, over the
product of the row denominators.  ``resultant`` packs its inputs'
coefficients the same way, in the box ``_box`` gives their Sylvester
matrix, and runs Collins' subresultant remainder sequence on them
(Collins, JACM 14, 1967; Brown & Traub, JACM 18, 1971; Cohen, Alg. 3.3.7)
with no content removal: each pseudo-remainder only multiplies, and each
step divides it exactly by g h^delta.

Both are exact for one reason.  Every value that is tested for zero or
unpacked is a minor of the cleared matrix: a Bareiss intermediate (of the
row-permuted matrix after swaps), or a subresultant coefficient, read only
after its division.  So the packing box need only hold every minor.
``_box``, which ``resultant`` uses, bounds a minor's degree in each variable
by the sum of the rows' largest entry degrees, which fixes the radices, and
its coefficients by prod_rows sum_entries ||a_ij||_1, which fixes the slot
width with a sign bit to spare.  ``det_polymatrix`` shrinks that box by
row and column potentials (``_minor_box``).  With v_j the least degree in
column j and u_i = max_j (deg a_ij - v_j), a minor on rows R and columns C
has degree at most sum_R u + sum_C v <= sum u + sum v, all being >= 0.
With c_j the least norm ||a_ij||_1 in column j and r_i = max_j
ceil(||a_ij||_1 / c_j), its coefficients are at most the permanent of its
norms, <= |R|! prod_R r prod_C c <= n! prod r prod c, all being >= 1.
Least and largest run over nonzero entries, a zero row or column having
given zero, and the box is the lesser of these bounds and ``_box``'s.

Evaluation at the packing point is a ring homomorphism, so a division that
is exact on polynomials is exact on the packed integers, however large the
dividend; and since the encoding is injective on polynomials within those
bounds, a packed zero is a zero minor: pivots, row swaps and remainder
degrees are read correctly, and the result unpacks exactly.  Past
``DIVISION_CUTOFF`` divisor bits, each exact division recurses on halves
(Burnikel & Ziegler, "Fast Recursive Division", MPI-I-98-1-022, 1998), as
CPython 3.12+ ``divmod`` does itself and 3.11's does not.
"""

from __future__ import annotations

import math

from .poly import SparsePoly, _cleared, _pack, _product_sum, _slot_width, _unpack


def _check_square(rows):
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    variables = rows[0][0].vars
    for r in rows:
        for entry in r:
            if not isinstance(entry, SparsePoly) or entry.vars != variables:
                raise ValueError("matrix entries must share one variable tuple")
    return n, variables


def det_polymatrix(rows) -> SparsePoly:
    """Fraction-free Bareiss determinant of a square polynomial matrix, exact
    as the module docstring shows.  Zero pivots are handled by row swaps with
    sign tracking; a fully zero pivot column short-circuits to zero."""
    _, variables = _check_square(rows)
    cleared, radices, width, den = _box(rows)
    if not all(map(any, cleared)) or not all(map(any, zip(*cleared))):
        return SparsePoly.zero(variables)  # a zero row or column
    radices, width = _minor_box(cleared, radices, width)
    det = _bareiss([[_pack(ints, radices, width) for ints in row] for row in cleared])
    return SparsePoly._make(variables, _unpack(det, radices, width) if det else {}, den)


def _box(rows):
    """Each row's integer numerators over its least common denominator, the
    radices and slot width that hold every minor of the cleared matrix (the
    degree box and coefficient bound of the module docstring), and the
    product of the row denominators."""
    radices = [1] * len(rows[0][0].vars)
    cleared, bound, den = [], 1, 1
    for row in rows:
        ints, row_den = _cleared(row)
        exponents = [e for terms in ints for e in terms]
        if exponents:
            radices = [d + max(column) for d, column in zip(radices, zip(*exponents))]
        bound *= sum(abs(c) for terms in ints for c in terms.values())
        den *= row_den
        cleared.append(ints)
    return cleared, radices, _slot_width(bound), den


def _minor_box(cleared, radices, width):
    """``_box``'s radices and slot width, shrunk to the potential bounds of
    the module docstring; ``cleared`` has no zero row or column."""
    def fit(grid, excess, total):  # zero entries are None
        cols = [min(a for a in col if a is not None) for col in zip(*grid)]
        rows = [max(excess(a, c) for a, c in zip(row, cols) if a is not None) for row in grid]
        return total(rows + cols)

    norms = [[sum(map(abs, t.values())) or None for t in row] for row in cleared]
    n_fact = math.factorial(len(cleared))
    bound = fit(norms, lambda a, c: -(-a // c), lambda p: n_fact * math.prod(p))
    return [1 + min(r - 1, fit([[max(e[v] for e in t) if t else None for t in row]
                                for row in cleared], int.__sub__, sum))
            for v, r in enumerate(radices)], min(width, _slot_width(bound))


def expand_by_minors(m):
    """Determinant of the square matrix ``m``: row i extends each minor on
    rows < i, keyed by its columns' bitmask, by a column j, signed by the
    parity of its columns right of j.  That is n * 2^(n-1) entry products
    for n rows, and no division.  Each new minor is one ``_product_sum`` of
    its products, over the product of the row's and the old minors' least
    common denominators."""
    variables = m[0][0].vars
    n = len(m)
    minors = {1 << j: entry for j, entry in enumerate(m[0])}
    for row in m[1:]:
        a, a_den = _cleared(list(minors.values()))
        b, b_den = _cleared(row)
        a = dict(zip(minors, a))
        grown = {}
        for key in dict.fromkeys(mask | 1 << j for mask in minors for j in range(n)
                                 if not mask >> j & 1):
            # (minor, entry, sign) of each product
            products = [(a[key ^ 1 << j], y, (key >> j + 1).bit_count() & 1)
                        for j, y in enumerate(b) if key >> j & 1]
            grown[key] = SparsePoly._make(variables, _product_sum(products), a_den * b_den)
        minors = grown
    return minors[(1 << n) - 1]


def _bareiss(m) -> int:
    """Determinant of the square integer matrix ``m``, whose rows it overwrites."""
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                entry = pivot * row_i[j] - head * row_k[j]
                row_i[j] = entry if prev is None else _divide_packed(entry, prev)
        prev = pivot
    return sign * m[n - 1][n - 1]


# Divisor bits up to which the builtin divmod beats the recursion on 3.11.
DIVISION_CUTOFF = 4000


def _divide_packed(dividend: int, divisor: int) -> int:
    """The exact quotient, by ``_divmod`` on the magnitudes, signed by the
    signs of the operands."""
    quotient, remainder = _divmod(abs(dividend), abs(divisor))
    if remainder:
        raise RuntimeError("internal fault: inexact division of packed minors")
    return -quotient if (dividend < 0) != (divisor < 0) else quotient


def _divmod(a: int, b: int):
    """``divmod(a, b)`` for a >= 0 and b > 0; past DIVISION_CUTOFF, by
    ``_div2n1n`` per b-sized digit."""
    n = b.bit_length()
    if n <= DIVISION_CUTOFF:
        return divmod(a, b)
    q, r, mask = 0, 0, (1 << n) - 1
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int):
    """divmod(a, b) for b of n bits and 0 <= a < b << n: two 3-by-2-halves steps."""
    if n <= DIVISION_CUTOFF:
        return divmod(a, b)
    pad = n & 1  # make n even
    a, b, half = a << pad, b << pad, (n + pad) >> 1
    mask = (1 << half) - 1
    b_hi, b_lo = b >> half, b & mask
    q, r = 0, a >> 2 * half
    for a_lo in (a >> half & mask, a & mask):
        if r >> half == b_hi:  # the estimate saturates at 2^half - 1
            digit, r = mask, r - (b_hi << half) + b_hi
        else:
            digit, r = _div2n1n(r, b_hi, half)
        r = (r << half | a_lo) - digit * b_lo
        while r < 0:  # at most twice, since b_hi has its top bit set
            digit -= 1
            r += b
        q = q << half | digit
    return q, r >> pad


def sylvester_matrix(a: SparsePoly, b: SparsePoly, name: str):
    """Sylvester matrix of ``a`` and ``b`` with respect to one variable.

    Rows are the deg(b) shifted coefficient rows of ``a`` (descending powers)
    followed by the deg(a) shifted rows of ``b``; entries live in the
    remaining variables.
    """
    if a.vars != b.vars:
        raise ValueError(f"variable tuple mismatch: {a.vars!r} vs {b.vars!r}")
    da = a.degree(name)
    db = b.degree(name)
    if da < 1 and db < 1:
        raise ValueError("neither input involves the eliminated variable")
    idx = a.vars.index(name)
    rest = a.vars[:idx] + a.vars[idx + 1:]
    zero = SparsePoly.zero(rest)
    ca = a.coefficients_in(name)
    cb = b.coefficients_in(name)
    arow = [ca.get(da - i, zero) for i in range(da + 1)]
    brow = [cb.get(db - i, zero) for i in range(db + 1)]
    size = da + db
    rows = []
    for shift in range(db):
        rows.append([zero] * shift + arow + [zero] * (size - shift - da - 1))
    for shift in range(da):
        rows.append([zero] * shift + brow + [zero] * (size - shift - db - 1))
    return rows


def resultant(a: SparsePoly, b: SparsePoly, name: str) -> SparsePoly:
    """Sylvester resultant of ``a`` and ``b``, eliminating ``name``.

    Sign convention follows the classical row order (a-rows above b-rows):
    resultant(x - a, x - b, "x") equals a - b.  Degenerate degrees collapse
    to the usual conventions: with one input constant c in the eliminated
    variable the result is c**deg(other); two nonzero constants give 1; a
    zero input gives 0 unless both are zero, which is an error.
    """
    if a.vars != b.vars:
        raise ValueError(f"variable tuple mismatch: {a.vars!r} vs {b.vars!r}")
    idx = a.vars.index(name)
    rest = a.vars[:idx] + a.vars[idx + 1:]
    if a.is_zero and b.is_zero:
        raise ValueError("resultant of two zero polynomials")
    if a.is_zero or b.is_zero:
        return SparsePoly.zero(rest)
    da = a.degree(name)
    db = b.degree(name)
    if da < 1 and db < 1:
        return SparsePoly.constant(rest, 1)
    if da < 1:
        return a.coefficients_in(name)[0] ** db
    if db < 1:
        return b.coefficients_in(name)[0] ** da
    cleared, radices, width, den = _box(sylvester_matrix(a, b, name))
    # row 0 leads with a's coefficients and row deg(b) with b's, descending
    res = _subresultant([_pack(t, radices, width) for t in cleared[0][da::-1]],
                        [_pack(t, radices, width) for t in cleared[db][db::-1]])
    return SparsePoly._make(rest, _unpack(res, radices, width) if res else {}, den)


def _subresultant(a, b) -> int:
    """Resultant of two packed ascending coefficient lists of degree >= 1 by
    the subresultant remainder sequence (Cohen, Alg. 3.3.7, with no content
    removal).  Every value tested for zero or returned is a Sylvester minor
    and is read only after its exact division."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        divisor = g * h ** delta
        r = [_divide_packed(c, divisor) for c in _prem(a, b)]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
        g = a[-1]
        if delta:
            h = _divide_packed(g ** delta, h ** (delta - 1))
    if not b:
        return 0
    return s * _divide_packed(b[0] ** (len(a) - 1), h ** (len(a) - 2))


def _prem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b for ascending integer lists, by
    all deg a - deg b + 1 reduction steps: it only multiplies and subtracts."""
    lead, n = b[-1], len(b) - 1
    r = list(a)
    for top in range(len(a) - 1, n - 1, -1):
        c = r.pop()
        low = top - n
        r[:low] = [lead * v for v in r[:low]]
        r[low:] = [lead * v - c * w for v, w in zip(r[low:], b)]
    return r
