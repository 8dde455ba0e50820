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
coefficients the same way, in the box of their Sylvester matrix, and runs
Collins' subresultant remainder sequence on them (Collins, JACM 14, 1967;
Brown & Traub, JACM 18, 1971; Cohen, Alg. 3.3.7) with no content removal:
each pseudo-remainder only multiplies, and each step divides it exactly by
g h^delta.

Both determinants take the smallest rows first, by a rule read off the
input.  The Bareiss pivots at each step on the column's entry with the
fewest bits, and the expansion takes the rows in ascending order of their
term counts, negating the result for an odd order.  Neither order changes
the determinant: a row permutation only signs it, and fraction-free
elimination is exact for any choice of pivot row (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968).  Both matrices the routes build hold their largest entries
in row 0 and shrink down the rows, so the minors carried through most
steps stay small.

Both are exact for one reason.  Every value that is tested for zero or
unpacked is a minor of the cleared matrix: a Bareiss intermediate (of the
row-permuted matrix after swaps), or a subresultant coefficient, read only
after its division.  So a packing box need only hold every minor, and each
kernel sizes its own once, from its operands.  Any matrix's minors fit the
row-sum bound: a minor's degree in each variable is at most the sum of the
rows' largest entry degrees (the radices), and its coefficients at most
prod_rows sum_entries ||a_ij||_1 (the slot width, with a sign bit to spare).

``det_polymatrix`` (``_minor_box``) takes the lesser of that bound and the
potential bound, per variable and for the width.  With v_j the least degree
in column j and u_i = max_j (deg a_ij - v_j), a minor on rows R and columns
C has degree at most sum_R u + sum_C v <= sum u + sum v, all being >= 0.
With c_j the least norm ||a_ij||_1 in column j and r_i = max_j
ceil(||a_ij||_1 / c_j), its coefficients are at most the permanent of its
norms, <= |R|! prod_R r prod_C c <= n! prod r prod c, all being >= 1.
Least and largest run over nonzero entries, a zero row or column having
given zero.

``resultant`` takes the Sylvester matrix's row-sum bound, to which its zero
padding adds nothing.  With a of degree m and b of degree n in the
eliminated variable, each of its n a-rows over its least common denominator
is a's numerators over a.den, and likewise its m b-rows: the radices are
1 + n deg_v a + m deg_v b per remaining variable v, the slot holds
||a||_1^n ||b||_1^m, and the denominator is a.den^n b.den^m.

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

import itertools
import math

from .poly import SparsePoly, _cleared, _degrees, _pack, _product_sum, _slot_width, _unpack


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
    as the module docstring shows.  Each step pivots on its column's packed
    entry with the fewest bits, by a row swap that flips the sign (see
    ``_bareiss``); a zero row or column, or a pivot column that turns zero,
    gives zero."""
    _, variables = _check_square(rows)
    cleared, dens = zip(*map(_cleared, rows))
    if not all(map(any, cleared)) or not all(map(any, zip(*cleared))):
        return SparsePoly.zero(variables)  # a zero row or column
    radices, width = _minor_box(cleared, len(variables))
    det = _bareiss([[_pack(ints, radices, width) for ints in row] for row in cleared])
    return SparsePoly._make(variables, _unpack(det, radices, width) if det else {},
                            math.prod(dens))


def _minor_box(cleared, arity):
    """The radices and slot width that hold every minor of ``cleared``, a
    matrix of integer terms in ``arity`` variables with no zero row or
    column: per variable and for the coefficients, the lesser of the
    row-sum and potential bounds of the module docstring."""
    # each entry's degree in each variable, then its norm; None for a zero entry
    entries = [[(*_degrees(t), sum(map(abs, t.values()))) if t else None for t in row]
               for row in cleared]

    def least(k, row_sum, excess, total):
        grid = [[e and e[k] for e in row] for row in entries]
        cols = [min(a for a in col if a is not None) for col in zip(*grid)]
        rows = [max(excess(a, c) for a, c in zip(row, cols) if a is not None) for row in grid]
        return min(row_sum([[a for a in row if a is not None] for row in grid]),
                   total(rows + cols))

    n_fact = math.factorial(len(cleared))
    bound = least(arity, lambda g: math.prod(map(sum, g)), lambda a, c: -(-a // c),
                  lambda p: n_fact * math.prod(p))
    return [1 + least(v, lambda g: sum(map(max, g)), int.__sub__, sum)
            for v in range(arity)], _slot_width(bound)


def expand_by_minors(m):
    """Determinant of the square matrix ``m``: each row extends each minor on
    the rows before it, keyed by its columns' bitmask, by a column j, signed
    by the parity of its columns right of j.  That is n * 2^(n-1) entry
    products for n rows, and no division.  Each new minor is one
    ``_product_sum`` of its products, over the product of the row's and the
    old minors' least common denominators.

    The rows are taken in ascending order of their term counts (a stable
    sort), so the minors carried longest are the smallest.  When that order
    is an odd permutation of ``m``'s rows, the first row taken is negated,
    which negates the result at the cost of the smallest entries."""
    variables = m[0][0].vars
    n = len(m)
    order = sorted(range(n), key=lambda i: sum(len(e.nums) for e in m[i]))
    odd = sum(a > b for a, b in itertools.combinations(order, 2)) & 1
    rows = [m[i] for i in order]
    minors = {1 << j: -entry if odd else entry for j, entry in enumerate(rows[0])}
    for row in rows[1:]:
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
    """Determinant of the square integer matrix ``m``, whose rows it overwrites.

    Step k pivots on the nonzero entry of column k, over rows k..n-1, with
    the fewest bits (the lowest such row on a tie), swapped into row k with
    a sign flip; a column with no nonzero entry there gives 0.  Any pivot
    row keeps the elimination exact (module docstring), and the smallest
    keeps the intermediate minors small."""
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        i = min((i for i in range(k, n) if m[i][k]), key=lambda i: m[i][k].bit_length(),
                default=None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
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
    zero = SparsePoly.zero(a.vars[:idx] + a.vars[idx + 1:])
    size = da + db
    rows = []
    for p, degree, shifts in ((a, da, db), (b, db, da)):
        coefficients = p.coefficients_in(name)
        row = [coefficients.get(degree - i, zero) for i in range(degree + 1)]
        rows += ([zero] * shift + row + [zero] * (size - shift - degree - 1)
                 for shift in range(shifts))
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
    # a's and b's numerators in the other variables, by ascending power of name
    arow, brow = ([{} for _ in range(p.degree(name) + 1)] for p in (a, b))
    for p, row in ((a, arow), (b, brow)):
        for e, c in p.nums.items():
            row[e[idx]][e[:idx] + e[idx + 1:]] = c
    da, db = len(arow) - 1, len(brow) - 1
    if da < 1 and db < 1:
        return SparsePoly.constant(rest, 1)
    if da < 1:
        return SparsePoly._make(rest, arow[0], a.den) ** db
    if db < 1:
        return SparsePoly._make(rest, brow[0], b.den) ** da
    # the Sylvester matrix's box: db rows of a's coefficients and da of b's
    radices = [1 + db * x + da * y for x, y in zip(_degrees(a.nums), _degrees(b.nums))]
    del radices[idx]
    width = _slot_width(sum(map(abs, a.nums.values())) ** db
                        * sum(map(abs, b.nums.values())) ** da)
    res = _subresultant([_pack(t, radices, width) for t in arow],
                        [_pack(t, radices, width) for t in brow])
    return SparsePoly._make(rest, _unpack(res, radices, width) if res else {},
                            a.den ** db * b.den ** da)


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
