"""Sign grids, marching squares and byte-deterministic SVG output."""

import functools
import io
import itertools
import math
import operator
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflectionary.inflection import basic_inflection, legendre_f
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly
from inflectionary.render import (
    _CASES,
    _CORNERS,
    _MARGIN,
    DEFAULT_WINDOW,
    MAX_RESOLUTION,
    SignGrid,
    TIE_RULE,
    Window,
    _fmt,
    _half,
    _row_masks,
    _shade_rects,
    contour_segments,
    legendre_sign_grid,
    poly_signature,
    render_curve,
    sample_sign_grid,
    write_svg,
)

XL = (VAR_X, VAR_LAMBDA)

P_X = SparsePoly(XL, {(1, 0): 1})
P_LAMBDA = SparsePoly(XL, {(0, 1): 1})
P_ONE = SparsePoly(XL, {(0, 0): 1})


def small_window(nx=2, nlambda=2):
    return Window(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), nx, nlambda)


# -- the row view of a sign grid, the oracle side of acceptance criterion 12 ------

def lambda_at(w, j):
    """lambda of the grid row j of window ``w``."""
    return w.lambda_min + Fraction(j, w.nlambda) * (w.lambda_max - w.lambda_min)


def sign_values(grid):
    """``sign_values(grid)[i][j]``, the sign (-1, 0 or +1) at (x_i, lambda_j),
    read back from the masks as an (nx+1) by (nlambda+1) array."""
    spec = f"0{grid.window.nx + 1}b"
    return tuple(zip(*([int(a) + int(b) - 1 for a, b in zip(format(nonneg, spec)[::-1],
                                                            format(positive, spec)[::-1])]
                       for nonneg, positive in grid.rows)))


def row(grid, j):
    """All signs along the lambda_j grid row, in ascending x order."""
    return [column[j] for column in sign_values(grid)]


def grid_of(w, values):
    """The SignGrid of per-node signs, ``values[i][j]`` at (x_i, lambda_j)."""
    rows = []
    for j in range(w.nlambda + 1):
        signs = [column[j] for column in values]
        rows.append((sum(1 << i for i, v in enumerate(signs) if v >= 0),
                     sum(1 << i for i, v in enumerate(signs) if v > 0)))
    return SignGrid(w, tuple(rows))


def row_sign_changes(grid, j):
    """Sign flips along one lambda row, zeros counted as positive."""
    signs = [1 if v >= 0 else -1 for v in row(grid, j)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestWindow:
    def test_defaults(self):
        w = DEFAULT_WINDOW
        assert (w.x_min, w.x_max) == (-1, 3)
        assert (w.lambda_min, w.lambda_max) == (-1, 3)
        assert (w.nx, w.nlambda) == (512, 512)

    def test_node_coordinates_exact(self):
        # nodes sit exactly on x = 1/3 and lambda = 2/3, where the samples vanish
        w = Window(0, 1, 0, 1, 3, 3)
        assert sign_values(sample_sign_grid(P_X - Fraction(1, 3) * P_ONE, w))[1] == (0,) * 4
        assert row(sample_sign_grid(P_LAMBDA - Fraction(2, 3) * P_ONE, w), 2) == [0] * 4

    def test_string_bounds_coerced(self):
        w = Window("1/2", 2, "-3", "3/4", 4, 4)
        assert w.x_min == Fraction(1, 2)
        assert w.lambda_max == Fraction(3, 4)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            Window(1, 1, 0, 1)
        with pytest.raises(ValueError):
            Window(0, 1, 2, -2)

    def test_tiny_resolution_rejected(self):
        with pytest.raises(ValueError):
            Window(0, 1, 0, 1, 1, 8)

    def test_resolution_capped_per_axis(self):
        assert MAX_RESOLUTION == 4096
        # windows are only constructed here, never sampled
        Window(0, 1, 0, 1, MAX_RESOLUTION, MAX_RESOLUTION)
        with pytest.raises(ValueError, match="too large"):
            Window(0, 1, 0, 1, MAX_RESOLUTION + 1, 2)
        with pytest.raises(ValueError, match="too large"):
            Window(0, 1, 0, 1, 2, MAX_RESOLUTION + 1)


class TestSignGrid:
    def test_sign_of_x_by_column(self):
        grid = sample_sign_grid(P_X, small_window(nx=4))
        for j in range(3):
            assert [sign_values(grid)[i][j] for i in range(5)] == [-1, -1, 0, 1, 1]

    def test_sign_of_lambda_by_row(self):
        grid = sample_sign_grid(P_LAMBDA, small_window())
        for i in range(3):
            assert [sign_values(grid)[i][j] for j in range(3)] == [-1, 0, 1]

    def test_constant_positive(self):
        grid = sample_sign_grid(P_ONE, small_window())
        assert all(v == 1 for column in sign_values(grid) for v in column)

    def test_quadratic_row(self):
        p = P_X * P_X - P_ONE
        w = Window(-2, 2, 0, 1, 4, 2)
        grid = sample_sign_grid(p, w)
        assert row(grid, 0) == [1, 0, -1, 0, 1]

    def test_nonsquare_dimensions(self):
        grid = sample_sign_grid(P_ONE, Window(0, 1, 0, 1, 5, 3))
        assert len(sign_values(grid)) == 6
        assert all(len(column) == 4 for column in sign_values(grid))

    def test_wrong_variables_rejected(self):
        p = SparsePoly(("t",), {(1,): 1})
        with pytest.raises(ValueError):
            sample_sign_grid(p, small_window())

    def test_mismatched_grid_rejected(self):
        with pytest.raises(ValueError):
            SignGrid(small_window(), ((1, 1, 1), (1, 1, 1)))
        with pytest.raises(ValueError):
            SignGrid(small_window(), ((1, 2, 1),) * 3)

    def test_row_masks_validated(self):
        w = small_window()
        assert sign_values(SignGrid(w, ((0b111, 0b101),) * 3)) == ((1,) * 3, (0,) * 3, (1,) * 3)
        for bad in ((0b1000, 0), (-1, 0), (0b011, 0b100), (0b111, -1)):
            with pytest.raises(ValueError):
                SignGrid(w, (bad, (0, 0), (0, 0)))

    def test_largest_sample_fits_its_slot(self):
        # all coefficients positive: the top-right node attains the slot
        # bound, and the scalings 2^m carry it across byte boundaries
        base = (P_ONE + P_X + P_LAMBDA) ** 4 * P_X ** 4
        w = Window(1, 2, 1, 2, 3, 2)
        for m in range(24):
            assert sign_values(sample_sign_grid(2 ** m * base, w)) == ((1,) * 3,) * 4


def packed_row(slots, width):
    """A row as ``sample_sign_grid`` packs it: each slot biased by half a slot."""
    half = 1 << (8 * width - 1)
    return sum(v + half << 8 * width * k for k, v in enumerate(slots))


class TestRowMasks:
    def test_zero_pattern_across_slots_is_no_zero(self):
        # slots -0x7F80 and 0x80 are the bytes 80 00 80 80: the bias 00 80
        # of a width-2 slot sits at offset 1, across the two slots
        value = packed_row([-0x7F80, 0x80], 2)
        assert value.to_bytes(4, "little") == bytes([0x80, 0x00, 0x80, 0x80])
        assert _row_masks(value, 2, 2) == (0b10, 0b10)

    def test_zeros_in_first_and_last_slots(self):
        assert _row_masks(packed_row([0, -5, 7, 0], 2), 2, 4) == (0b1101, 0b0100)
        assert _row_masks(packed_row([0, 0, 0], 1), 1, 3) == (0b111, 0)
        assert _row_masks(packed_row([0, -1, 0x7FFFFF], 3), 3, 3) == (0b101, 0b100)


class TestRowSignChanges:
    def test_zero_counts_as_positive(self):
        grid = sample_sign_grid(P_X, small_window())
        # row signs [-1, 0, 1] collapse to [-1, +, +]: one change
        assert row_sign_changes(grid, 0) == 1

    def test_two_crossings(self):
        p = P_X * P_X - P_ONE
        grid = sample_sign_grid(p, Window(-2, 2, 0, 1, 4, 2))
        # signs [1, 0, -1, 0, 1] with zeros positive: two changes
        assert row_sign_changes(grid, 0) == 2

    def test_no_crossing(self):
        grid = sample_sign_grid(P_ONE, small_window())
        assert row_sign_changes(grid, 1) == 0


class TestContour:
    def test_vertical_line_snaps_to_zero_nodes(self):
        grid = sample_sign_grid(P_X, small_window())
        # doubled grid units: the zero nodes (1, 0), (1, 1), (1, 2)
        assert contour_segments(grid) == [(2, 0, 2, 2), (2, 2, 2, 4)]

    def test_no_contour_when_sign_constant(self):
        grid = sample_sign_grid(P_ONE, small_window())
        assert contour_segments(grid) == []

    def test_checkerboard_saddles_split_around_positive_corners(self):
        values = tuple(
            tuple(1 if (i + j) % 2 == 0 else -1 for j in range(3))
            for i in range(3))
        grid = grid_of(small_window(), values)
        segments = contour_segments(grid)
        # doubled grid units: every crossing is an edge midpoint
        assert segments == [
            (0, 1, 1, 0),
            (1, 2, 2, 1),
            (3, 0, 4, 1),
            (2, 1, 3, 2),
            (1, 2, 2, 3),
            (0, 3, 1, 4),
            (2, 3, 3, 2),
            (3, 4, 4, 3),
        ]

    def test_deterministic(self):
        p = basic_inflection(1)
        w = Window(-1, 3, -1, 3, 16, 16)
        first = contour_segments(sample_sign_grid(p, w))
        second = contour_segments(sample_sign_grid(p, w))
        assert first == second


class TestShading:
    def test_full_runs(self):
        grid = sample_sign_grid(P_ONE, Window(0, 1, 0, 1, 3, 2))
        assert _shade_rects(grid) == [(0, 0, 3), (0, 1, 3)]

    def test_zero_corner_breaks_run(self):
        grid = sample_sign_grid(P_X, small_window(nx=4))
        # only the rightmost cell has all four corners strictly positive
        assert _shade_rects(grid) == [(3, 0, 1), (3, 1, 1)]


class TestFormat:
    def test_integers_bare(self):
        assert _fmt(Fraction(40)) == "40"
        assert _fmt(Fraction(-7)) == "-7"

    def test_tenths_and_hundredths(self):
        assert _fmt(Fraction(5, 2)) == "2.5"
        assert _fmt(Fraction(-1, 2)) == "-0.5"
        assert _fmt(Fraction(1, 3)) == "0.33"
        assert _fmt(Fraction(153, 100)) == "1.53"

    def test_half_matches_fmt(self):
        for doubled in range(0, 200):
            assert _half(doubled) == _fmt(Fraction(doubled, 2))


class TestSvg:
    def test_bytes_deterministic_and_file_matches(self, tmp_path):
        w = small_window()
        grid = sample_sign_grid(P_X, w)
        shade = sample_sign_grid(P_ONE, w)
        segments = contour_segments(grid)
        target = tmp_path / "curve.svg"
        payload = write_svg(segments, shade, target, poly_hash="abc")
        again = write_svg(segments, shade, io.BytesIO(), poly_hash="abc")
        assert payload == again
        assert target.read_bytes() == payload

    def test_valid_xml_even_when_empty(self):
        w = small_window()
        shade = sample_sign_grid(P_ONE, w)
        payload = write_svg([], shade, io.BytesIO(), poly_hash="abc")
        root = ET.fromstring(payload)
        assert root.tag.endswith("svg")

    def test_metadata_comment(self):
        w = small_window()
        shade = sample_sign_grid(P_ONE, w)
        text = write_svg([], shade, io.BytesIO(), poly_hash="f" * 64).decode()
        assert f"poly_sha256={'f' * 64}" in text
        assert "window=x=[-1,1] lambda=[-1,1]" in text
        assert "resolution=2x2" in text
        assert f"tie_rule={TIE_RULE}" in text

    def test_contour_pixels_exact(self):
        w = small_window()
        grid = sample_sign_grid(P_X, w)
        shade = sample_sign_grid(P_ONE, w)
        text = write_svg(contour_segments(grid), shade, io.BytesIO(), poly_hash="abc").decode()
        # the zero set x = 0 is one grid unit right of the margin
        assert "M41 42L41 41" in text
        assert "M41 41L41 40" in text


class TestRenderCurve:
    def test_writes_deterministic_file(self, tmp_path):
        p = basic_inflection(1)
        w = Window(-1, 3, -1, 3, 32, 32)
        first = render_curve(p, w, tmp_path / "a.svg")
        second = render_curve(p, w, tmp_path / "b.svg")
        assert first == second
        assert (tmp_path / "a.svg").read_bytes() == first
        assert b"<path " in first

    def test_hash_identifies_polynomial(self):
        p = basic_inflection(1)
        q = basic_inflection(2)
        assert poly_signature(p) == poly_signature(p)
        assert poly_signature(p) != poly_signature(q)
        assert poly_signature(p).encode() in render_curve(
            p, Window(-1, 3, -1, 3, 8, 8), io.BytesIO())


# -- the Fraction sampler and crossings the integer ones replaced ---------------

def oracle_sign_values(p, w):
    """Signs at the window's nodes: each row specializes lambda to a Fraction,
    clears that row to integers and runs Horner at the x ladder."""
    by_xpow = p.coefficients_in(VAR_X)
    degree = max(by_xpow, default=0)
    step = (w.x_max - w.x_min) / w.nx
    base_den = math.lcm(w.x_min.denominator, step.denominator)
    a0 = int(w.x_min * base_den)
    a_step = int(step * base_den)
    rows = []
    for j in range(w.nlambda + 1):
        lam = lambda_at(w, j)
        coeffs = []
        for t in range(degree + 1):
            c = by_xpow.get(t)
            coeffs.append(c.evaluate({VAR_LAMBDA: lam}) if c is not None else Fraction(0))
        denom = math.lcm(*(c.denominator for c in coeffs))
        cleared = [int(c * denom) for c in coeffs]
        scaled = [cleared[t] * base_den ** (degree - t) for t in range(degree + 1)]
        row = []
        for i in range(w.nx + 1):
            a = a0 + i * a_step
            value = scaled[degree]
            for t in range(degree - 1, -1, -1):
                value = value * a + scaled[t]
            row.append(0 if not value else (1 if value > 0 else -1))
        rows.append(tuple(row))
    return tuple(zip(*rows))


def oracle_crossing(i, j, edge, corners):
    a, b = edge
    if corners[a] == 0:
        di, dj = _CORNERS[a]
        return (Fraction(i + di), Fraction(j + dj))
    if corners[b] == 0:
        di, dj = _CORNERS[b]
        return (Fraction(i + di), Fraction(j + dj))
    (ai, aj), (bi, bj) = _CORNERS[a], _CORNERS[b]
    return (i + (ai + bi) * Fraction(1, 2), j + (aj + bj) * Fraction(1, 2))


def oracle_segments(values, nx, nlambda):
    """Contour segments ``(ax, ay, bx, by)`` in grid units, with Fraction
    crossings."""
    segments = []
    for j in range(nlambda):
        for i in range(nx):
            corners = (values[i][j], values[i + 1][j],
                       values[i + 1][j + 1], values[i][j + 1])
            index = sum(1 << bit for bit, v in enumerate(corners) if v >= 0)
            for edge_a, edge_b in _CASES[index]:
                a = oracle_crossing(i, j, edge_a, corners)
                b = oracle_crossing(i, j, edge_b, corners)
                if a != b:
                    segments.append((*a, *b) if a <= b else (*b, *a))
    return segments


def every_cell_pattern():
    """Each of the 3^4 sign patterns of one cell, placed in each cell of a
    2 by 2 grid whose other nodes are +1, as ``values[i][j]``."""
    for ci, cj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for pattern in itertools.product((-1, 0, 1), repeat=4):
            values = [[1] * 3 for _ in range(3)]
            for (di, dj), sign in zip(_CORNERS, pattern):
                values[ci + di][cj + dj] = sign
            yield tuple(map(tuple, values))


PROPERTY = settings(max_examples=80)
RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=9)
RESOLUTIONS = st.integers(2, 9)


@st.composite
def bivariate_polys(draw):
    kind = draw(st.sampled_from(("zero", "constant", "x", "lambda", "mixed")))
    if kind == "zero":
        return SparsePoly.zero(XL)
    max_t = 4 if kind in ("x", "mixed") else 0
    max_s = 4 if kind in ("lambda", "mixed") else 0
    exponents = st.tuples(st.integers(0, max_t), st.integers(0, max_s))
    return SparsePoly(XL, draw(st.dictionaries(exponents, RATIONALS, min_size=1, max_size=6)))


@st.composite
def windows(draw):
    x_min, lambda_min = draw(RATIONALS), draw(RATIONALS)
    widths = st.fractions(min_value=Fraction(1, 9), max_value=8, max_denominator=9)
    return Window(x_min, x_min + draw(widths), lambda_min, lambda_min + draw(widths),
                  draw(RESOLUTIONS), draw(RESOLUTIONS))


@st.composite
def sign_grids(draw, widths=RESOLUTIONS, heights=RESOLUTIONS):
    """(window, values) with per-node signs ``values[i][j]``.  Two cut points
    drawn first set the shares of -1, 0 and +1, so long runs of one sign,
    grids full of zeros and even mixtures all occur."""
    nx, nlambda = draw(widths), draw(heights)
    low, high = sorted((draw(st.integers(0, 10)), draw(st.integers(0, 10))))
    size = (nx + 1) * (nlambda + 1)
    digits = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    signs = [-1 if d < low else 0 if d < high else 1 for d in digits]
    values = tuple(tuple(signs[i * (nlambda + 1):(i + 1) * (nlambda + 1)]) for i in range(nx + 1))
    return Window(0, 1, 0, 1, nx, nlambda), values


# Pinned wide cases.  Degree 10 in x: the roots k/7 and 29/35 are nodes of
# the 70-step ladder on [-1, 1] (29/35 is node 64, where a row mask crosses
# 64 bits) and 59/70 lies between nodes 64 and 65; lambda = 1/2 is node 3.
ROOTS_ON_NODES = functools.reduce(
    operator.mul, [P_X - Fraction(k, 7) * P_ONE for k in range(-4, 5)],
    (P_X - Fraction(29, 35) * P_ONE) * (P_X - Fraction(59, 70) * P_ONE)
    * (P_LAMBDA - Fraction(1, 2) * P_ONE))
ROOTS_WINDOW = Window(-1, 1, -1, 1, 70, 4)
# degree 8 in x with coefficients of 90-bit numerators and denominators
WIDE_COEFFICIENTS = SparsePoly(XL, {
    (8, 2): Fraction(2 ** 90 + 1, 2 ** 90 - 3),
    (3, 1): -Fraction(3 ** 57, 3 ** 57 + 2),
    (0, 5): -Fraction(10 ** 30 + 7, 10 ** 31),
    (1, 0): Fraction(5 ** 40 - 1, 5 ** 41),
    (0, 0): -Fraction(1, 2 ** 89 + 1),
})
WIDE_WINDOW = Window(Fraction(-5, 3), Fraction(7, 2), Fraction(-2, 7), Fraction(9, 4), 65, 3)
# degree 9 in lambda, vanishing at x = -1 and x = 1, the first and last
# nodes of both windows below: zero slots sit at both ends of every row.  On
# 40 rows, lambda = -3/5, 1/4 and 7/10 are the rows 8, 25 and 34, and the
# rows past 9 come from forward differences; on 3 rows every row is direct.
DEEP_LAMBDA = ((P_X + P_ONE) * (P_X - P_ONE) * (P_LAMBDA - Fraction(1, 4) * P_ONE) ** 3
               * (P_LAMBDA + Fraction(3, 5) * P_ONE) ** 2 * (P_LAMBDA - P_X) ** 2
               * (P_X * P_LAMBDA - Fraction(1, 3) * P_ONE)
               * (P_LAMBDA - Fraction(7, 10) * P_ONE))
DEEP_WINDOW = Window(-1, 1, -1, 1, 6, 40)
SHALLOW_WINDOW = Window(-1, 1, Fraction(-1, 2), Fraction(5, 3), 8, 3)


class TestIntegerPathsAgainstFractionOracle:
    @PROPERTY
    @given(bivariate_polys(), windows())
    @example(P_X * P_LAMBDA - P_ONE,
             Window(Fraction(-7, 3), Fraction(5, 3), Fraction(-9, 5), Fraction(-1, 7), 7, 4))
    @example(P_X * P_X - P_LAMBDA, Window(Fraction(-3, 2), Fraction(3, 2), -1, 2, 6, 3))
    @example(ROOTS_ON_NODES, ROOTS_WINDOW)
    @example(WIDE_COEFFICIENTS, WIDE_WINDOW)
    @example(DEEP_LAMBDA, DEEP_WINDOW)
    @example(DEEP_LAMBDA, SHALLOW_WINDOW)
    def test_sign_grid_matches(self, p, w):
        assert sign_values(sample_sign_grid(p, w)) == oracle_sign_values(p, w)

    @PROPERTY
    @given(sign_grids())
    @example((ROOTS_WINDOW, oracle_sign_values(ROOTS_ON_NODES, ROOTS_WINDOW)))
    @example((WIDE_WINDOW, oracle_sign_values(WIDE_COEFFICIENTS, WIDE_WINDOW)))
    def test_contour_is_doubled_fraction_contour(self, case):
        w, values = case
        segments = contour_segments(grid_of(w, values))
        expected = [tuple(2 * c for c in seg) for seg in oracle_segments(values, w.nx, w.nlambda)]
        assert segments == expected
        assert all(type(c) is int for seg in segments for c in seg)

    def test_every_cell_pattern(self):
        # every reachable (nonneg, zero) key of the cell table, in each cell
        w = Window(0, 1, 0, 1, 2, 2)
        for values in every_cell_pattern():
            expected = [tuple(2 * c for c in seg) for seg in oracle_segments(values, 2, 2)]
            assert contour_segments(grid_of(w, values)) == expected, values


# -- the per-coordinate path text the coordinate tables replaced ---------------

def oracle_path(curve_segments, w):
    """The path data of ``curve_segments``, one ``_half`` call per coordinate."""
    left, top = 2 * _MARGIN, 2 * (_MARGIN + w.nlambda)
    return "".join(f'M{_half(left + ax)} {_half(top - ay)}L{_half(left + bx)} {_half(top - by)}'
                   for ax, ay, bx, by in curve_segments)


def oracle_svg(curve_segments, shade_grid, poly_hash):
    """The SVG of ``write_svg`` with the oracle's path: the curveless plot
    with the path element right after the axes' group."""
    lines = write_svg([], shade_grid, io.BytesIO(), poly_hash).decode().split("\n")
    if curve_segments:
        lines.insert(len(lines) - lines[::-1].index("</g>"),
                     f'<path d="{oracle_path(curve_segments, shade_grid.window)}" '
                     f'stroke="#b03030" stroke-width="1.5" fill="none" stroke-linecap="round"/>')
    return "\n".join(lines).encode()


def border_segments(nx, nlambda):
    """Segments along all four borders of the doubled grid, the diagonals,
    and one between odd coordinates next to the far corner."""
    u, v = 2 * nx, 2 * nlambda
    return [(0, 0, 0, v), (u, 0, u, v), (0, 0, u, 0), (0, v, u, v),
            (0, 0, u, v), (0, v, u, 0), (u - 1, v - 1, u - 1, v), (1, 1, u, v - 1)]


class TestPathTextAgainstPerCoordinateOracle:
    @pytest.mark.parametrize("nx", (2, MAX_RESOLUTION))
    @pytest.mark.parametrize("nlambda", (2, MAX_RESOLUTION))
    def test_border_segments(self, nx, nlambda):
        # a grid of negative signs shades nothing
        shade = SignGrid(Window(0, 1, 0, 1, nx, nlambda), ((0, 0),) * (nlambda + 1))
        segments = border_segments(nx, nlambda)
        assert (write_svg(segments, shade, io.BytesIO(), poly_hash="abc")
                == oracle_svg(segments, shade, "abc"))

    @PROPERTY
    @given(sign_grids())
    @example((Window(0, 1, 0, 1, 2, 2), ((1, 1, 1), (1, 1, 1), (1, 1, -1))))
    def test_svg_matches(self, case):
        w, values = case
        grid = grid_of(w, values)
        segments = contour_segments(grid)
        assert (write_svg(segments, grid, io.BytesIO(), poly_hash="abc")
                == oracle_svg(segments, grid, "abc"))


# -- the cell-by-cell shading the row bitmasks replaced -------------------------

def oracle_shade_rects(values, nx, nlambda):
    """Per-row runs of cells whose four corners are all strictly positive."""
    runs = []
    for j in range(nlambda):
        start = None
        for i in range(nx):
            shaded = (values[i][j] > 0 and values[i + 1][j] > 0
                      and values[i + 1][j + 1] > 0 and values[i][j + 1] > 0)
            if shaded and start is None:
                start = i
            if not shaded and start is not None:
                runs.append((start, j, i - start))
                start = None
        if start is not None:
            runs.append((start, j, nx - start))
    return runs


class TestBitmaskShadingAgainstCellOracle:
    @PROPERTY
    @given(sign_grids(widths=st.integers(2, 80), heights=st.integers(2, 5)))
    @example((Window(0, 1, 0, 1, 80, 2), ((1,) * 3,) * 81))
    # zeros at nodes 63 and 65 break the runs on either side of bit 64
    @example((Window(0, 1, 0, 1, 80, 2),
              tuple(((0,) if i in (63, 65) else (1,)) * 3 for i in range(81))))
    @example((ROOTS_WINDOW, oracle_sign_values(-ROOTS_ON_NODES, ROOTS_WINDOW)))
    def test_runs_match(self, case):
        w, values = case
        grid = grid_of(w, values)
        assert sign_values(grid) == values
        assert _shade_rects(grid) == oracle_shade_rects(values, w.nx, w.nlambda)


# -- the shading from f's roots against f's sampled grid ------------------------

class TestLegendreShadingAgainstSampledF:
    @PROPERTY
    @given(windows())
    # x = 0, 1, the rows lambda = 0, 1 and the diagonal x = lambda hit nodes
    @example(Window(-1, 3, -1, 3, 8, 8))
    # wholly left of 0 and wholly right of 1, lambda clear of x: every
    # threshold lies off the grid
    @example(Window(-3, Fraction(-1, 2), 0, 2, 5, 4))
    @example(Window(Fraction(3, 2), 4, -2, 1, 5, 4))
    # x = 0 at node 60, x = lambda at nodes 50, 60, 70 and 80: past 64 bits
    @example(Window(-3, 1, Fraction(-1, 2), 1, 80, 3))
    def test_matches_sampled_f(self, w):
        # both grids carry w, so their rows decide
        assert legendre_sign_grid(w).rows == sample_sign_grid(legendre_f(), w).rows

    @PROPERTY
    @given(bivariate_polys(), windows())
    @example(basic_inflection(1), Window(-1, 3, -1, 3, 8, 8))
    def test_render_curve_matches_sampled_shading(self, p, w):
        expected = write_svg(contour_segments(sample_sign_grid(p, w)),
                             sample_sign_grid(legendre_f(), w), io.BytesIO(),
                             poly_hash=poly_signature(p))
        assert render_curve(p, w, io.BytesIO()) == expected
