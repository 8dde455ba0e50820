"""Fraction-free determinants and resultants on polynomial matrices."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_poly import dict_route, oracle_divexact

from inflectionary import conjectures, matrices
from inflectionary.inflection import basic_inflection, derivative_oracle, q_template
from inflectionary.matrices import (
    DIVISION_CUTOFF,
    _divide_packed,
    _divmod,
    det_polymatrix,
    expand_by_minors,
    resultant,
    sylvester_matrix,
)
from inflectionary.poly import SparsePoly, _cleared, _slot_width

XL = ("x", "lambda")
X = SparsePoly.variable(XL, "x")
L = SparsePoly.variable(XL, "lambda")
T = SparsePoly.variable(("t",), "t")


@dict_route()
def det_cofactor(rows) -> SparsePoly:
    """Determinant by cofactor expansion along the first row.

    Exponential, but obviously right: the oracle for the Bareiss route.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = SparsePoly.zero(rows[0][0].vars)
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def const(v):
    return SparsePoly.constant(XL, v)


def _random_matrix(rng, n):
    return [[const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
             for _ in range(n)] for _ in range(n)]


class TestDeterminant:
    def test_identity_and_diagonal(self):
        eye = [[const(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert det_polymatrix(eye) == const(1)
        diag = [[const(2 if i == j else 0) for j in range(3)] for i in range(3)]
        assert det_polymatrix(diag) == const(8)

    def test_two_by_two_symbolic(self):
        m = [[const(1), X], [const(1), L]]
        assert det_polymatrix(m) == L - X

    def test_singular_matrix(self):
        m = [[X, L], [2 * X, 2 * L]]
        assert det_polymatrix(m).is_zero

    def test_row_swap_flips_sign(self):
        m = [[X, const(1)], [L, const(3)]]
        swapped = [m[1], m[0]]
        assert det_polymatrix(swapped) == -det_polymatrix(m)

    def test_pivot_column_with_leading_zero(self):
        m = [[const(0), X], [L, const(1)]]
        assert det_polymatrix(m) == -X * L

    def test_zero_column_gives_zero(self):
        m = [[const(0), X, L],
             [const(0), const(1), const(2)],
             [const(0), L, X]]
        assert det_polymatrix(m).is_zero

    def test_matches_cofactor_expansion_on_random_input(self):
        rng = random.Random(42)
        for n in (2, 3, 4):
            for _ in range(8):
                m = _random_matrix(rng, n)
                assert det_polymatrix(m) == det_cofactor(m)

    def test_polynomial_entries_match_cofactor(self):
        rng = random.Random(17)
        entries = [X, L, X * L, X + L, const(2), X * X, L - 1, const(0)]
        for _ in range(6):
            m = [[rng.choice(entries) for _ in range(3)] for _ in range(3)]
            assert det_polymatrix(m) == det_cofactor(m)

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            det_polymatrix([[const(1)], [const(1), const(2)]])
        with pytest.raises(ValueError):
            det_polymatrix([])


class TestSylvester:
    def test_layout(self):
        # a = x^2 + lambda, b = x - 1: one a-row then two b-rows
        a = X * X + L
        b = X - 1
        m = sylvester_matrix(a, b, "x")
        assert len(m) == 3
        lam = SparsePoly.variable(("lambda",), "lambda")
        one = SparsePoly.constant(("lambda",), 1)
        assert m[0] == [one, SparsePoly.zero(("lambda",)), lam]
        assert m[1] == [one, -one, SparsePoly.zero(("lambda",))]
        assert m[2] == [SparsePoly.zero(("lambda",)), one, -one]


class TestResultant:
    def test_linear_pair(self):
        a = T - 3
        b = T - 5
        r = resultant(a, b, "t")
        assert r == SparsePoly.constant((), -2)

    def test_symbolic_linear_pair(self):
        # res(x - a, x - b) = a - b with a, b in a parameter ring
        a = X - L
        b = X - (L + 1)
        assert resultant(a, b, "x") == SparsePoly.constant(("lambda",), -1)

    def test_quadratic_against_linear(self):
        a = X * X - L
        b = X - 1
        assert resultant(a, b, "x") == SparsePoly(("lambda",), {(0,): 1, (1,): -1})

    def test_common_root_vanishes(self):
        a = (T - 1) * (T - 2)
        b = (T - 1) * (T - 3)
        assert resultant(a, b, "t").is_zero

    def test_constant_cases(self):
        c = SparsePoly.constant(("t",), 4)
        assert resultant(c, T * T + 1, "t") == SparsePoly.constant((), 16)
        assert resultant(c, SparsePoly.constant(("t",), 7), "t") == SparsePoly.constant((), 1)
        with pytest.raises(ValueError):
            resultant(SparsePoly.zero(("t",)), SparsePoly.zero(("t",)), "t")

    def test_zero_argument(self):
        assert resultant(SparsePoly.zero(("t",)), T - 1, "t").is_zero

    def test_constant_second_argument(self):
        # res(a, c) = c^deg(a) for a c free of the eliminated variable
        lam = SparsePoly.variable(("lambda",), "lambda")
        a = X ** 3 - Fraction(1, 2) * L * X + 2
        assert resultant(a, L + 1, "x") == (lam + 1) ** 3
        assert resultant(X - L, L + 1, "x") == lam + 1
        assert resultant(T - 3, SparsePoly.constant(("t",), 5), "t") == SparsePoly.constant((), 5)

    def test_linear_pair_in_both_orders(self):
        # res(x - a, x - b) = a - b, so swapping the arguments flips the sign
        lam = SparsePoly.variable(("lambda",), "lambda")
        assert resultant(X - L, X - 2, "x") == lam - 2
        assert resultant(X - 2, X - L, "x") == 2 - lam
        assert resultant(X - Fraction(1, 3) * L, X + L, "x") == Fraction(4, 3) * lam

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(23)
        for _ in range(6):
            r1 = Fraction(rng.randint(-4, 4))
            r2 = Fraction(rng.randint(-4, 4))
            r3 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            a1, a2, b = T - r1, T - r2, T - r3
            lhs = resultant(a1 * a2, b, "t")
            rhs = resultant(a1, b, "t") * resultant(a2, b, "t")
            assert lhs == rhs

    def test_product_of_root_differences(self):
        # res(f, g) = lc(f)^deg(g) * prod g(root_i) for monic f
        f = (T - 1) * (T + 2)
        g = T * T - 3
        expected = (1 - 3) * (4 - 3)
        assert resultant(f, g, "t") == SparsePoly.constant((), expected)


# -- packed Bareiss against the SparsePoly Bareiss and the cofactor oracle ------

@dict_route()
def oracle_bareiss(rows):
    """Fraction-free Bareiss on ``SparsePoly`` entries, dividing by the dict
    loop: the oracle for the packed determinant."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return SparsePoly.zero(m[0][0].vars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                entry = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                if prev is not None:
                    entry = oracle_divexact(entry, prev)
                    assert entry is not None, "inexact Bareiss division"
                m[i][j] = entry
        prev = m[k][k]
    return sign * m[-1][-1]


def _rational_row(n):
    # n dense bilinear entries sharing the row denominator 1..6, except every
    # third coefficient, whose denominator is twice it
    coeffs = st.lists(st.integers(-9, 9), min_size=4 * n, max_size=4 * n)
    return st.tuples(coeffs, st.integers(1, 6)).map(lambda drawn: [
        SparsePoly(XL, {(i % 2, i // 2): Fraction(c, drawn[1] * (1 + (i % 3 == 0)))
                        for i, c in enumerate(drawn[0][4 * j:4 * j + 4])})
        for j in range(n)])


square_matrices = st.one_of(*(st.lists(_rational_row(n), min_size=n, max_size=n)
                              for n in (1, 2, 3, 4)))


@settings(max_examples=30)
@given(square_matrices, st.sampled_from(["as drawn", "zero pivot", "zero column"]))
@example([[const(0), X, L], [L, const(1), X * L], [X + 1, L, const(2)]], "as drawn")
@example([[X * 200 + L, L * 300 - 1], [const(0), const(0)]], "as drawn")
def test_packed_det_matches_dict_bareiss_and_cofactor(rows, shape):
    rows = [list(r) for r in rows]
    zero = SparsePoly.zero(XL)
    if shape != "as drawn":
        rows[0][0] = zero
    if shape == "zero column":
        for r in rows:
            r[0] = zero
    det = det_polymatrix(rows)
    assert det == oracle_bareiss(rows) == det_cofactor(rows)
    assert expand_by_minors(rows) == det


# -- expansion by minors: packed minor sums against the per-product expansion --

@dict_route()
def oracle_expand_by_minors(m):
    """The expansion by minors on ``SparsePoly`` arithmetic, one product and
    one sum at a time, each product on the dict loop: the oracle for the
    packed minor sums."""
    minors = {0: None}
    for row in m:
        grown = {}
        for mask, minor in minors.items():
            for j, entry in enumerate(row):
                if not mask >> j & 1:
                    term = entry if minor is None else entry * minor
                    if (mask >> j).bit_count() & 1:
                        term = -term
                    key = mask | 1 << j
                    grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors[(1 << len(m)) - 1]


@st.composite
def bivariate_matrices(draw):
    """Up to 4 by 4 matrices over (x, lambda) with mixed denominators, zero
    entries, and at times a zero row or a zero column."""
    n = draw(st.integers(1, 4))
    coefficient = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9]))
    degree = draw(st.integers(1, 3))
    entry = st.dictionaries(st.tuples(*[st.integers(0, degree)] * 2), coefficient,
                            max_size=9).map(lambda t: SparsePoly(XL, t))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    zero, k = SparsePoly.zero(XL), draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["as drawn", "zero row", "zero column"]))
    if shape == "zero row":
        rows[k] = [zero] * n
    elif shape == "zero column":
        for r in rows:
            r[k] = zero
    return rows


@settings(max_examples=60)
@given(bivariate_matrices())
@example([[const(Fraction(-3, 4))]])
@example([[(X + L + 1) ** 2 * Fraction(1, 3), X - L, const(0)],
          [L ** 3 - Fraction(1, 2), (X - 1) ** 3, X * L * Fraction(5, 6)],
          [X ** 2 + L, const(7), (L + 2) ** 2 * Fraction(1, 4)]])
# both products of the 2 by 2 determinant reach their own bound 4 * 90^2 =
# 32400 at x^3, in 15 bits, and their sum 64800 needs the next byte
@example([[90 * (1 + X + X ** 2 + X ** 3)] * 2, [-90 * (1 + X + X ** 2 + X ** 3),
                                                 90 * (1 + X + X ** 2 + X ** 3)]])
def test_expand_by_minors_matches_the_per_product_oracle(rows):
    assert expand_by_minors(rows) == oracle_expand_by_minors(rows)


# -- row order: the size-ordered routes against the oracles on permuted rows ------

def _sign(order):
    """The sign of the permutation ``order``, by its inversions."""
    return -1 if sum(a > b for a, b in itertools.combinations(order, 2)) & 1 else 1


@st.composite
def permuted_matrices(draw):
    """A ``bivariate_matrices`` draw and an order of its rows, reversed or shuffled."""
    rows = draw(bivariate_matrices())
    n = len(rows)
    return rows, draw(st.just(list(range(n - 1, -1, -1))) | st.permutations(range(n)))


@settings(max_examples=60)
@given(permuted_matrices())
# column 0's smallest packed entry, 3 in row 2, is not its first nonzero one
@example(([[X ** 2 + 50 * X * L, L, const(1)], [const(0), X, L], [const(3), X + L, const(2)]],
          [0, 1, 2]))
@example(([[X ** 2 + 50 * X * L, L, const(1)], [const(0), X, L], [const(3), X + L, const(2)]],
          [2, 0, 1]))
# 2 and -3 tie at two bits below 5's three
@example(([[const(5), X, L], [const(2), const(1), X * L], [const(-3), L, const(1)]], [0, 2, 1]))
# column 1 is twice column 0, so it turns zero after the first step
@example(([[X, 2 * X, L], [L, 2 * L, const(1)], [const(1), const(2), X]], [1, 0, 2]))
def test_permuted_rows_only_sign_the_determinant(drawn):
    rows, order = drawn
    permuted = [rows[i] for i in order]
    sign = _sign(order)
    expected = sign * oracle_bareiss(rows)
    assert expected == sign * det_cofactor(rows)
    assert det_polymatrix(permuted) == expected
    assert expand_by_minors(permuted) == expected


# -- the minor box: every square submatrix fits, in the lesser of two bounds -----

def row_sum_box(rows):
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


def potential_box(cleared, arity):
    """The radices and slot width of the potential bounds of ``matrices``'
    docstring, by loops over the nonzero entries of ``cleared``, which has
    no zero row or column: per variable 1 + sum u + sum v, and a slot for
    n! prod r prod c."""
    n = len(cleared)
    cells = [(i, j) for i in range(n) for j in range(n) if cleared[i][j]]

    def potentials(value, excess):
        v = [min(value(i, j) for i, j in cells if j == col) for col in range(n)]
        u = [max(excess(value(i, j), v[j]) for i, j in cells if i == row) for row in range(n)]
        return u, v

    radices = []
    for k in range(arity):
        u, v = potentials(lambda i, j: max(e[k] for e in cleared[i][j]), int.__sub__)
        radices.append(1 + sum(u) + sum(v))
    r, c = potentials(lambda i, j: sum(map(abs, cleared[i][j].values())),
                      lambda a, b: math.ceil(Fraction(a, b)))
    return radices, _slot_width(math.factorial(n) * math.prod(r) * math.prod(c))


def fitted_box(rows):
    """``_minor_box`` of the cleared ``rows``, asserted to be the elementwise
    minimum of the row-sum and potential boxes, with both of those."""
    arity = len(rows[0][0].vars)
    cleared, radices, width, _ = row_sum_box(rows)
    potentials, potential_width = potential_box(cleared, arity)
    fitted = matrices._minor_box(cleared, arity)
    assert fitted == ([*map(min, radices, potentials)], min(width, potential_width))
    return fitted, (radices, width), (potentials, potential_width)


VARIABLE_TUPLES = [("x",), XL, ("x", "lambda", "y")]


@st.composite
def graded_matrices(draw):
    """Up to 4 by 4 matrices whose entry (i, j) has degree a_i + b_j or one
    less in each variable, from one to three terms whose coefficients may
    all be zero."""
    variables = draw(st.sampled_from(VARIABLE_TUPLES))
    n = draw(st.integers(1, 4))
    offsets = st.lists(st.tuples(*[st.integers(0, 3)] * len(variables)),
                       min_size=n, max_size=n)
    a, b = draw(offsets), draw(offsets)
    term = st.tuples(st.tuples(*[st.integers(0, 1)] * len(variables)),
                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    return [[SparsePoly(variables, {
        tuple(max(0, x + y - d) for x, y, d in zip(a[i], b[j], drop)): c
        for drop, c in draw(st.lists(term, min_size=1, max_size=3))}) for j in range(n)]
        for i in range(n)]


# the row sums give radices [16, 7] and 2-byte slots here; the minor box is
# [10, 4] with 1-byte slots
GRADED = [[X ** (i + 2 * j) + L ** j for j in range(3)] for i in range(3)]


def _square_submatrices(m):
    n = len(m)
    for size in range(1, n + 1):
        for rs in itertools.combinations(range(n), size):
            for cs in itertools.combinations(range(n), size):
                yield [[m[i][j] for j in cs] for i in rs]


@settings(max_examples=40)
@given(graded_matrices(), st.sampled_from(["as drawn", "zero pivot", "zero column"]))
@example(GRADED, "as drawn")
@example(GRADED, "zero pivot")
@example([[X * X, X], [L, const(0)]], "as drawn")
# determinants equal to the permanent of their norms, just past a slot's
# half: r_i rounded down, or a product of column maxima, would not hold them
@example([[const(100), const(199)], [const(-199), const(100)]], "as drawn")
@example([[const(128), const(128)], [const(-128), const(128)]], "as drawn")
def test_minor_box_holds_every_minor(rows, shape):
    rows = [list(r) for r in rows]
    variables = rows[0][0].vars
    zero = SparsePoly.zero(variables)
    if shape != "as drawn":
        rows[0][0] = zero
    if shape == "zero column":
        for r in rows:
            r[-1] = zero
    det = det_polymatrix(rows)
    assert det == oracle_bareiss(rows) == det_cofactor(rows)
    cleared = row_sum_box(rows)[0]
    if not all(map(any, cleared)) or not all(map(any, zip(*cleared))):
        assert det.is_zero
        return
    (fitted, fitted_width), _, _ = fitted_box(rows)
    half = 1 << (8 * fitted_width - 1)
    for minor in _square_submatrices([[SparsePoly(variables, t) for t in row]
                                      for row in cleared]):
        value = det_cofactor(minor)
        assert value.den == 1
        for e, c in value.nums.items():
            assert all(map(int.__lt__, e, fitted)) and abs(c) < half


def test_minor_box_is_strictly_smaller_on_graded_entries():
    assert fitted_box(GRADED) == (([10, 4], 1), ([16, 7], 2), ([10, 4], 1))


def test_minor_box_is_sharp_on_the_wronskian():
    # P(4, 5): deg_x of entry (i, j) is 2 (6 + j - i), so the minors reach
    # x degree 48 and lambda degree 24 exactly; the row sums give [61, 31]
    # and 17
    rows = [[math.perm(6 + j, i) * derivative_oracle(6 + j - i) for j in range(4)]
            for i in range(4)]
    fitted, row_sums, _ = fitted_box(rows)
    assert (fitted, row_sums) == (([49, 25], 14), ([61, 31], 17))
    det = det_polymatrix(rows)
    assert (det.degree("x"), det.degree("lambda")) == (48, 24)


def test_minor_box_takes_the_row_sums_where_they_bind():
    # two rows reach degree 10 in column 0 over a zero-degree entry below:
    # the row sums give 26, the potentials 1 + (10 + 10 + 0) + (0 + 5 + 5)
    rows = [[T ** d for d in degrees] for degrees in ([10, 5, 5], [10, 5, 5], [0, 5, 5])]
    fitted, row_sums, potentials = fitted_box(rows)
    assert (fitted[0], row_sums[0], potentials[0]) == ([26], [26], [31])


# -- the subresultant resultant against the Sylvester determinant -----------------

XLY = ("x", "lambda", "y")


def oracle_resultant(a, b, name):
    """The Bareiss determinant of the Sylvester matrix, the resultant's
    former route."""
    return det_polymatrix(sylvester_matrix(a, b, name))


def _poly_in(variables, name, coefficients, lead_root):
    """sum_i c_i name^i over ``variables`` from the terms c_i in the other
    variables, plus (lambda - lead_root) name^len(coefficients) when
    ``lead_root`` is not None, a leading coefficient that vanishes there."""
    idx = variables.index(name)
    terms = {}
    for power, coefficient in enumerate(coefficients):
        for rest, c in coefficient.items():
            terms[rest[:idx] + (power,) + rest[idx:]] = c
    p = SparsePoly(variables, terms)
    if lead_root is not None:
        p += (SparsePoly.variable(variables, "lambda") - lead_root) * (
            SparsePoly.variable(variables, name) ** len(coefficients))
    return p


@st.composite
def resultant_inputs(draw):
    variables = draw(st.sampled_from([XL, XLY]))
    name = draw(st.sampled_from([v for v in variables if v != "lambda"]))
    coefficient = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * (len(variables) - 1)),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), max_size=3)
    a, b = (_poly_in(variables, name, draw(st.lists(coefficient, max_size=7)),
                     draw(st.none() | st.integers(-2, 2))) for _ in "ab")
    assume(not a.is_zero and not b.is_zero and max(a.degree(name), b.degree(name)) >= 1)
    return a, b, name


@settings(max_examples=80)
@given(resultant_inputs())
# the remainders drop two degrees in the middle, 3 x^4 + 3 x^2 to
# 27 (x^2 + lambda x + 1), where g h^2 = 3 * 9^2 divides
@example((X ** 6 + L * X + 1, 3 * X ** 4 + 3 * X ** 2, "x"))
# a remainder of degree 0 after a gap of 3, where h = 4 divides the last lead
@example((X ** 5 + L + 1, 2 * X ** 3, "x"))
@example((const(3) + L, X ** 3 - L * X, "x"))
@example((X ** 2 - Fraction(1, 3) * L, L * L - 2, "x"))
@example(((L - 1) * X ** 3 + X - L, (L - 1) * X ** 2 + 2, "x"))
@example(((X - L) ** 2 * (X + 1), (X - L) * (X - 2), "x"))
def test_resultant_matches_sylvester_determinant(inputs):
    a, b, name = inputs
    assert resultant(a, b, name) == oracle_resultant(a, b, name)
    assert resultant(b, a, name) == oracle_resultant(b, a, name)


@settings(max_examples=40)
@given(resultant_inputs())
def test_resultant_packs_in_the_row_sum_box_of_the_sylvester_rows(inputs):
    a, b, name = inputs
    boxes = []
    pack = matrices._pack

    def spy(ints, radices, width):
        boxes.append((list(radices), width))
        return pack(ints, radices, width)

    for a, b in ((a, b), (b, a)):
        boxes.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrices, "_pack", spy)
            resultant(a, b, name)
        da, db = a.degree(name), b.degree(name)
        if min(da, db) < 1:
            assert boxes == []
            continue
        rows = sylvester_matrix(a, b, name)
        arow, brow = rows[0][:da + 1], rows[db][:db + 1]
        _, radices, width, _ = row_sum_box([arow] * db + [brow] * da)
        assert boxes == [(radices, width)] * (da + db + 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_singular_probe_resultants_match_sylvester_determinant(k, monkeypatch):
    seen = []

    def spy(a, b, name):
        seen.append((a, b, name, resultant(a, b, name)))
        return seen[-1][-1]

    monkeypatch.setattr(conjectures, "resultant", spy)
    conjectures.singular_probe(k)
    assert len(seen) == 9
    for a, b, name, r in seen:
        assert r == oracle_resultant(a, b, name)


def test_inexact_packed_division_is_an_internal_fault():
    with pytest.raises(RuntimeError, match="internal fault"):
        _divide_packed(7, 2)


def test_inexact_packed_division_above_the_cutoff_is_an_internal_fault():
    b = random.Random(5).getrandbits(50_000) | 1 << 49_999
    q = random.Random(6).getrandbits(100_000)
    assert _divide_packed(b * q, b) == q
    with pytest.raises(RuntimeError, match="internal fault"):
        _divide_packed(b * q + 1, b)


# -- recursive division against the builtin divmod ------------------------------

def _magnitude(bits, seed):
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


def _operand_pair(b_kbits, a_kbits, jitter, seed):
    # b_kbits = 4 straddles the cutoff; a has up to 60k bits more than b
    b_bits = max(1, 1000 * b_kbits + jitter)
    a_bits = max(1, b_bits + 1000 * a_kbits + jitter)
    return _magnitude(a_bits, seed), _magnitude(b_bits, seed + 1)


operands = st.builds(_operand_pair, st.integers(0, 60), st.integers(-1, 60),
                     st.integers(-8, 8), st.integers(0, 2**32))
_B = _magnitude(3 * DIVISION_CUTOFF, 7)
_A = _magnitude(9 * DIVISION_CUTOFF, 8)


@settings(max_examples=60)
@given(operands)
@example((_A, _magnitude(DIVISION_CUTOFF, 9)))  # the builtin's largest divisor
@example((_A, _magnitude(DIVISION_CUTOFF + 1, 9)))  # the recursion's smallest
@example((0, _B))
@example((_A, 1))
@example((_A * _B, _B))
@example((_A >> 1, _B))  # one bit short of three digits of b
@example(((_B << _B.bit_length()) - 1, _B))  # the top quotient estimate saturates
def test_recursive_division_matches_builtin_divmod(operands):
    a, b = operands
    assert _divmod(a, b) == divmod(a, b)


@settings(max_examples=30)
@given(operands)
@example((_A, _magnitude(DIVISION_CUTOFF, 9)))
@example((_A, _magnitude(DIVISION_CUTOFF + 1, 9)))
@example((0, _B))
@example((_A, 1))
def test_packed_division_signs_the_quotient(operands):
    # every sign pair of an exact product, on both sides of the cutoff
    q, b = operands
    for q_sign, b_sign in itertools.product((1, -1), repeat=2):
        assert _divide_packed(q_sign * q * b_sign * b, b_sign * b) == q_sign * q


def test_recursion_at_a_tiny_cutoff_matches_builtin_divmod(monkeypatch):
    # every 6-bit divisor recurses down to 3-bit halves; some quotient
    # estimates need both corrections
    monkeypatch.setattr(matrices, "DIVISION_CUTOFF", 2)
    for b in range(32, 64):
        for a in range(1 << 11):
            assert _divmod(a, b) == divmod(a, b), (a, b)
        for q in range(-(1 << 5), 1 << 5):
            for divisor in (b, -b):
                assert _divide_packed(q * divisor, divisor) == q, (q, divisor)


def test_q_template_matches_oracle_determinant():
    # n < mu included: there (n+j) falling i vanishes below the diagonal
    for mu in range(1, 6):
        names = tuple(f"t{off}" for off in range(1 - mu, mu))
        for n in range(1, 9):
            rows = [[math.perm(n + j, i) * SparsePoly.variable(names, f"t{j - i}")
                     for j in range(mu)] for i in range(mu)]
            template = q_template(mu, n)
            assert template.vars == names
            assert template == oracle_bareiss(rows), (mu, n)
            if mu <= 4:
                assert template == det_cofactor(rows), (mu, n)


class TestRouteSelection:
    def test_q_template_packs_no_box_larger_than_its_term_pairs(self, product_sums):
        # the monomial entries in 11 shift variables leave every minor's box
        # mostly empty: packed regardless, q_template(6, 9) took seconds and
        # over 100 MB, against milliseconds on the dict loop
        mu, n = 6, 9
        names = tuple(f"t{off}" for off in range(1 - mu, mu))
        rows = [[math.perm(n + j, i) * SparsePoly.variable(names, f"t{j - i}")
                 for j in range(mu)] for i in range(mu)]
        det = expand_by_minors(rows)
        assert product_sums and all(box <= pairs for pairs, boxes in product_sums
                                    for box in boxes)
        assert det == q_template(mu, n)

    def test_dense_minor_sums_are_packed(self, product_sums):
        rows = [[math.perm(6 + j, i) * basic_inflection(6 + j - i - 1) for j in range(3)]
                for i in range(3)]
        det = expand_by_minors(rows)
        assert product_sums[-1][1] and all(box <= pairs for pairs, boxes in product_sums
                                           for box in boxes)
        assert det == oracle_expand_by_minors(rows)

    def test_wronskian_divisions_cross_the_cutoff(self, monkeypatch):
        # P(4, 5)'s Wronskian divides about 176k-bit by 44k-bit packed minors
        calls = []
        div2n1n = matrices._div2n1n

        def spy(a, b, n):
            calls.append(n)
            return div2n1n(a, b, n)

        monkeypatch.setattr(matrices, "_div2n1n", spy)
        rows = [[math.perm(6 + j, i) * derivative_oracle(6 + j - i) for j in range(4)]
                for i in range(4)]
        assert det_polymatrix(rows) == expand_by_minors(rows)
        assert max(calls) > 10 * DIVISION_CUTOFF

    def test_the_smallest_pivot_and_row_come_first(self, monkeypatch):
        # P(4, 5)'s Wronskian and template both shrink down the rows: the
        # Bareiss first pivots on row 3's packed entry, the smallest in
        # column 0, and the expansion first extends row 3's entries by row 2's
        columns, divisors, products = [], [], []
        bareiss, divide, product_sum = (matrices._bareiss, matrices._divide_packed,
                                        matrices._product_sum)

        def bareiss_spy(m):
            columns.append([row[0] for row in m])
            return bareiss(m)

        def divide_spy(a, b):
            divisors.append(b)
            return divide(a, b)

        def product_sum_spy(triples):
            products.append(triples)
            return product_sum(triples)

        monkeypatch.setattr(matrices, "_bareiss", bareiss_spy)
        monkeypatch.setattr(matrices, "_divide_packed", divide_spy)
        monkeypatch.setattr(matrices, "_product_sum", product_sum_spy)
        wronskian = [[math.perm(6 + j, i) * derivative_oracle(6 + j - i) for j in range(4)]
                     for i in range(4)]
        template = [[math.perm(6 + j, i) * basic_inflection(6 + j - i - 1) for j in range(4)]
                    for i in range(4)]
        det = det_polymatrix(wronskian)
        [column] = columns
        bits = [v.bit_length() for v in column]
        assert bits == sorted(bits, reverse=True) and bits[3] < bits[2]
        assert divisors[0] == column[3]
        assert expand_by_minors(template) == det
        # the first minor is on columns 0 and 1: (row 3's column 1) * (row 2's
        # column 0), then (row 3's column 0) * (row 2's column 1)
        assert [(len(x), len(y)) for x, y, _ in products[0]] == [
            (len(template[3][1].nums), len(template[2][0].nums)),
            (len(template[3][0].nums), len(template[2][1].nums))]

    def test_pivot_ties_go_to_the_lowest_row(self, monkeypatch):
        # column 0 packs to 5, 2 and -3: 2 and -3 tie at two bits, so row 1
        # holds the first pivot, the divisor of the second step
        divisors = []
        divide = matrices._divide_packed

        def spy(a, b):
            divisors.append(b)
            return divide(a, b)

        monkeypatch.setattr(matrices, "_divide_packed", spy)
        rows = [[const(5), const(1), const(0)], [const(2), const(1), const(1)],
                [const(-3), const(1), const(2)]]
        assert det_polymatrix(rows) == const(-2) == det_cofactor(rows)
        assert set(divisors) == {2}

    def test_sylvester_matrix_is_packed(self, monkeypatch):
        # the resultant runs its remainder sequence on packed integers in the
        # Sylvester matrix's box, and no Bareiss elimination
        eliminations, remainders = [], []
        prem = matrices._prem

        def spy(a, b):
            remainders.append(all(type(v) is int for v in a + b))
            return prem(a, b)

        monkeypatch.setattr(matrices, "_bareiss", lambda m: eliminations.append(m))
        monkeypatch.setattr(matrices, "_prem", spy)
        p = basic_inflection(2)
        r = resultant(p, p.derivative("x"), "x")
        assert eliminations == []
        assert remainders == [True] * (p.degree("x") - 1)
        monkeypatch.undo()
        assert r == oracle_bareiss(sylvester_matrix(p, p.derivative("x"), "x"))
