"""Exact determinants of polynomial matrices and Sylvester resultants."""

from __future__ import annotations

from .poly import SparsePoly, divexact


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
    """Fraction-free Bareiss determinant of a square polynomial matrix.

    Every intermediate division is exact (the divisor is the previous pivot,
    a leading minor), so the result is computed without leaving the
    polynomial ring.  Zero pivots are handled by row swaps with sign
    tracking; a fully zero pivot column short-circuits to zero.
    """
    n, variables = _check_square(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = SparsePoly.constant(variables, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SparsePoly.zero(variables)
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = divexact(pivot * row_i[j] - head * m[k][j], prev)
            row_i[k] = SparsePoly.zero(variables)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


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
    return det_polymatrix(sylvester_matrix(a, b, name))
