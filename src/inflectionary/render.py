"""Deterministic SVG rendering of real inflectionary curves.

The pipeline samples exact signs of the curve polynomial on a rational
grid, extracts contour segments by marching squares, and writes an SVG
with regions where the Legendre cubic is positive shaded underneath.
Everything runs on integers: grid nodes over one denominator per axis, an
integer coefficient table scaled by positive factors, contours in doubled
grid units, so every sign and coordinate is exact and the bytes reproducible.
A grid row is one packed integer with a slot per node, built from forward
differences of the rows before it and read as two bitmasks (bit i is node i)
off one conversion to bytes.  The f > 0 shading comes from f's roots, and
each crossed cell's contour is one table lookup: the cost goes per row and
per crossed cell, not per node.
"""

from __future__ import annotations

import functools
import hashlib
import math
from fractions import Fraction

from .poly import (VAR_LAMBDA, VAR_X, SparsePoly, _repeat, _slot_width, as_fraction,
                   poly_to_json)

# Exact-zero samples count as positive everywhere: in sign-change counts,
# in cell shading and in the marching-squares case index.
TIE_RULE = "zero-as-positive"

_MARGIN = 40

# Largest sampling resolution per axis; larger requests fail before sampling.
MAX_RESOLUTION = 4096


class Window:
    """Rectangular (x, lambda) viewport with its sampling resolution."""

    __slots__ = ("x_min", "x_max", "lambda_min", "lambda_max", "nx", "nlambda")

    def __init__(self, x_min, x_max, lambda_min, lambda_max, nx: int, nlambda: int):
        self.x_min = as_fraction(x_min)
        self.x_max = as_fraction(x_max)
        self.lambda_min = as_fraction(lambda_min)
        self.lambda_max = as_fraction(lambda_max)
        self.nx = nx
        self.nlambda = nlambda
        if self.x_min >= self.x_max:
            raise ValueError(f"empty x range: {self.x_min} >= {self.x_max}")
        if self.lambda_min >= self.lambda_max:
            raise ValueError(
                f"empty lambda range: {self.lambda_min} >= {self.lambda_max}")
        if nx < 2 or nlambda < 2:
            raise ValueError(f"resolution too small: {nx} x {nlambda}")
        if nx > MAX_RESOLUTION or nlambda > MAX_RESOLUTION:
            raise ValueError(f"resolution too large: {nx} x {nlambda} "
                             f"(at most {MAX_RESOLUTION} per axis)")

    def describe(self) -> str:
        return (f"x=[{self.x_min},{self.x_max}] "
                f"lambda=[{self.lambda_min},{self.lambda_max}]")


class SignGrid:
    """Exact signs at the nodes of a window grid, one bitmask pair per row.

    ``rows[j]`` is ``(nonneg, positive)`` for the row lambda_j: bit i of each
    is set where the sampled polynomial is >= 0, resp. > 0, at (x_i, lambda_j).
    """

    __slots__ = ("window", "rows")

    def __init__(self, window: Window, rows: tuple):
        if len(rows) != window.nlambda + 1:
            raise ValueError("grid height does not match the window")
        bound = 1 << (window.nx + 1)
        for row in rows:
            if len(row) != 2:
                raise ValueError(f"grid row is not a (nonneg, positive) pair: {row!r}")
            nonneg, positive = row
            if not 0 <= nonneg < bound or positive < 0 or positive & ~nonneg:
                raise ValueError(f"grid row does not fit {window.nx + 1} nodes: {row!r}")
        self.window = window
        self.rows = rows


def _ladder(lo: Fraction, hi: Fraction, n: int):
    """(start, step, den), all integers with den > 0, such that node k of the
    n equal steps from lo to hi is (start + k * step) / den."""
    step = (hi - lo) / n
    den = math.lcm(lo.denominator, step.denominator)
    return int(lo * den), int(step * den), den


# a byte -> ASCII "1" when its top bit is set, "0" otherwise
_TOP_BIT = bytes(48 + (b >> 7) for b in range(256))


def _row_masks(value: int, width: int, n: int):
    """``(nonneg, positive)`` of the n slots of a row packed with each slot
    biased by half a slot: a slot is >= 0 when its top bit is set and 0 when
    its bytes are the bias, a match at a multiple of ``width``."""
    digits = value.to_bytes(n * width, "little")
    nonneg = int(digits[width - 1::width].translate(_TOP_BIT)[::-1], 2)
    zero_slot = (1 << (8 * width - 1)).to_bytes(width, "little")
    zeros = 0
    at = digits.find(zero_slot)
    while at >= 0:
        slot, offset = divmod(at, width)
        if not offset:
            zeros |= 1 << slot
        at = digits.find(zero_slot, (slot + 1) * width)
    return nonneg, nonneg & ~zeros


def sample_sign_grid(p: SparsePoly, w: Window) -> SignGrid:
    """Exact sign of p at every grid node of the window, a packed row at a time.

    With x_i = (a0 + i a_step) / a_den and lambda_j = (c0 + j c_step) / c_den,
    the numerator of x^t lambda^s (over p's denominator, which is positive)
    is scaled by a_den^(deg_x - t) c_den^(deg_lambda - s): then v_ij = sum
    table * a_i^t c_j^s is p(x_i, lambda_j) times a positive integer.  The
    powers a_i^t of all nodes are packed once, each biased by half a slot
    into its bytes and the bias taken off the whole row, and folded with the
    table into one packed coefficient per power of lambda.  Packing is a
    ring homomorphism, so the packed row V_j is an integer polynomial of
    degree deg_lambda in j: Horner packs rows 0..deg_lambda and each later
    row is deg_lambda additions of forward differences, which are never
    unpacked.  The slot width holds sum |table| * max|a|^t * max|c|^s, a
    bound on |v|, inside half a slot; biased by half a slot, a slot's top
    bit reads v >= 0 and the bias itself reads v = 0.
    """
    if p.vars != (VAR_X, VAR_LAMBDA):
        raise ValueError(f"expected variables {(VAR_X, VAR_LAMBDA)!r}, got {p.vars!r}")
    a0, a_step, a_den = _ladder(w.x_min, w.x_max, w.nx)
    c0, c_step, c_den = _ladder(w.lambda_min, w.lambda_max, w.nlambda)
    deg_x = max((t for t, _ in p.nums), default=0)
    deg_l = max((s for _, s in p.nums), default=0)
    # table[deg_x - t][deg_l - s] is the scaled coefficient of x^t lambda^s:
    # both axes in descending powers, ready for Horner
    table = [[0] * (deg_l + 1) for _ in range(deg_x + 1)]
    for (t, s), c in p.nums.items():
        table[deg_x - t][deg_l - s] = c * a_den ** (deg_x - t) * c_den ** (deg_l - s)
    n = w.nx + 1
    a_max = max(abs(a0), abs(a0 + w.nx * a_step))
    c_max = max(abs(c0), abs(c0 + w.nlambda * c_step))
    width = _slot_width(sum(abs(table[deg_x - t][deg_l - s]) * a_max ** t * c_max ** s
                            for t, s in p.nums))
    xs = [a0 + i * a_step for i in range(n)]
    powers = [1] * n
    half = 1 << (8 * width - 1)
    bias = _repeat(half, width, n)
    packed = [0] * (deg_l + 1)  # packed[deg_l - s]: the coefficient of lambda^s
    # t = 0, 1, ..., deg_x with powers[i] = a_i^t; each a_i^t of a nonzero row
    # is within the width's bound, so |a_i^t| < half and a_i^t + half fits
    # its slot unsigned
    for row in reversed(table):
        if any(row):
            slots = int.from_bytes(b"".join((v + half).to_bytes(width, "little")
                                            for v in powers), "little") - bias
            packed = [acc + c * slots for acc, c in zip(packed, row)]
        powers = list(map(int.__mul__, powers, xs))
    # bias every slot by half a slot through the constant term of Horner
    packed[-1] += bias
    # diffs[k] is the k-th forward difference of V at row j; the first
    # min(deg_l, nlambda) + 1 rows fix V_j exactly up to row nlambda
    diffs = []
    for j in range(min(deg_l, w.nlambda) + 1):
        c = c0 + j * c_step
        value = 0
        for coeff in packed:
            value = value * c + coeff
        diffs.append(value)
    for k in range(1, len(diffs)):
        diffs[k:] = [b - a for a, b in zip(diffs[k - 1:], diffs[k:])]
    rows = []
    for _ in range(w.nlambda + 1):
        rows.append(_row_masks(diffs[0], width, n))
        for k in range(len(diffs) - 1):
            diffs[k] += diffs[k + 1]
    return SignGrid(w, tuple(rows))


def _nodes_below(num: int, den: int, n: int):
    """Masks of the nodes i < n with i den < num and with i den = num (den > 0)."""
    q, r = divmod(num, den)
    return (1 << min(max(q + (r != 0), 0), n)) - 1, (1 << q if not r and 0 <= q < n else 0)


def legendre_sign_grid(w: Window) -> SignGrid:
    """Exact sign of f = x (x - 1) (x - lambda) at every grid node, from its
    roots: x_i grows with i, so the nodes with x_i < 0, x_i < 1 and x_i <
    lambda_j are prefix masks of one floor division each, whose exact
    quotient marks the zero.  f > 0 where no factor is 0 and evenly many < 0.
    """
    a0, a_step, a_den = _ladder(w.x_min, w.x_max, w.nx)
    c0, c_step, c_den = _ladder(w.lambda_min, w.lambda_max, w.nlambda)
    n = w.nx + 1
    full = (1 << n) - 1
    neg0, zero0 = _nodes_below(-a0, a_step, n)
    neg1, zero1 = _nodes_below(a_den - a0, a_step, n)
    rows = []
    for j in range(w.nlambda + 1):
        # x_i < lambda_j  iff  i a_step c_den < (c0 + j c_step) a_den - a0 c_den
        neg, zero = _nodes_below((c0 + j * c_step) * a_den - a0 * c_den, a_step * c_den, n)
        zeros = zero0 | zero1 | zero
        positive = full & ~(zeros | neg0 ^ neg1 ^ neg)
        rows.append((positive | zeros, positive))
    return SignGrid(w, tuple(rows))


# Marching squares: corners of the unit cell are indexed counterclockwise
# from bottom-left (bits 0..3 below), edges by the pair of corners they
# join.  Each case lists the crossed-edge pairs to connect.
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
_B, _R, _T, _L = (0, 1), (1, 2), (2, 3), (3, 0)

_CASES = {
    0b0000: (), 0b1111: (),
    0b0001: ((_L, _B),), 0b1110: ((_L, _B),),
    0b0010: ((_B, _R),), 0b1101: ((_B, _R),),
    0b0100: ((_R, _T),), 0b1011: ((_R, _T),),
    0b1000: ((_T, _L),), 0b0111: ((_T, _L),),
    0b0011: ((_L, _R),), 0b1100: ((_L, _R),),
    0b0110: ((_B, _T),), 0b1001: ((_B, _T),),
    # saddles: split around the positive corners
    0b0101: ((_L, _B), (_R, _T)),
    0b1010: ((_B, _R), (_T, _L)),
}


def _crossing(edge, zero):
    # the case table only asks about edges whose effective signs differ, so
    # at most one endpoint is zero (a set bit of ``zero``); the crossing snaps
    # to that node and sits at the edge midpoint otherwise.  In doubled grid
    # units a node is twice its index and a midpoint the sum of its corners.
    a, b = edge
    (ai, aj), (bi, bj) = _CORNERS[a], _CORNERS[b]
    if zero >> a & 1:
        return (2 * ai, 2 * aj)
    if zero >> b & 1:
        return (2 * bi, 2 * bj)
    return (ai + bi, aj + bj)


def _cell_segments(key: int):
    """Segments ``(ax, ay, bx, by)`` of the cell at the origin, in doubled
    grid units, for the bottom and top rows' nonneg bits (key bits 0-1, 2-3)
    and zero bits (4-7)."""
    # the top row's two bits swap into the counterclockwise order of _CORNERS
    case = key & 3 | (key & 4) << 1 | (key & 8) >> 1
    zero = key >> 4 & 3 | (key & 64) >> 3 | (key & 128) >> 5
    segments = []
    for edge_a, edge_b in _CASES[case]:
        a, b = _crossing(edge_a, zero), _crossing(edge_b, zero)
        if a != b:
            segments.append((*a, *b) if a <= b else (*b, *a))
    return tuple(segments)


# Crossings and their order are translation-invariant, so a cell at (i, j)
# adds (2i, 2j) to the segments of its key.  Only keys whose zero bits are
# also nonneg bits occur; the rest are left empty.
_SEGMENTS = tuple(() if key >> 4 & ~key else _cell_segments(key) for key in range(256))


def contour_segments(grid: SignGrid):
    """Zero-contour segments in doubled grid units, cell by cell.

    Each segment is a flat tuple ``(ax, ay, bx, by)`` of integers, from
    (ax, ay) to (bx, by) with the smaller endpoint first: a point (u, v)
    sits at grid coordinates (u/2, v/2), so every crossing is a pair of
    integers.  Corners sampling exactly zero sit on the positive
    side (the documented tie rule) with crossings snapped onto them, saddle
    cells are always split around the positive corners, and cells are
    scanned bottom row first, so the output order and the segments
    themselves are deterministic.  Only the crossed cells of a row pair are
    visited, read off a mask of sign changes, and each is one lookup in
    ``_SEGMENTS`` by its corners' nonneg and zero bits.
    """
    cells = (1 << grid.window.nx) - 1
    rows = [(nonneg, nonneg & ~positive) for nonneg, positive in grid.rows]
    segments = []
    for j, ((below, zero_below), (above, zero_above)) in enumerate(zip(rows, rows[1:])):
        y = 2 * j
        # bottom, top and left edges; the right one never changes alone in a cell
        crossed = (below ^ below >> 1 | above ^ above >> 1 | below ^ above) & cells
        while crossed:
            low = crossed & -crossed
            i = low.bit_length() - 1
            crossed ^= low
            x = 2 * i
            key = (below >> i & 3 | (above >> i & 3) << 2
                   | (zero_below >> i & 3) << 4 | (zero_above >> i & 3) << 6)
            for ax, ay, bx, by in _SEGMENTS[key]:
                segments.append((x + ax, y + ay, x + bx, y + by))
    return segments


@functools.cache
def poly_signature(p: SparsePoly) -> str:
    """Stable content hash of a polynomial's canonical JSON, computed once
    per polynomial: every plot of one P(mu, k) carries the same hash."""
    return hashlib.sha256(poly_to_json(p).encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    """Fixed two-decimal rendering of a rational, never through floats."""
    value = as_fraction(value)
    scaled = round(value * 100)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 100)
    if frac == 0:
        return f"{sign}{whole}"
    if frac % 10 == 0:
        return f"{sign}{whole}.{frac // 10}"
    return f"{sign}{whole}.{frac:02d}"


def _half(doubled: int) -> str:
    """``_fmt`` of doubled / 2 for a nonnegative integer ``doubled``."""
    return f"{doubled >> 1}.5" if doubled & 1 else str(doubled >> 1)


def _shade_rects(shade: SignGrid):
    """Per-row runs of cells whose four corners are all strictly positive."""
    positive = [mask for _, mask in shade.rows]
    runs = []
    for j, (below, above) in enumerate(zip(positive, positive[1:])):
        cells = below & below >> 1 & above & above >> 1
        while cells:
            low = cells & -cells
            start = low.bit_length() - 1
            # adding the lowest set bit carries through its run of ones
            stop = (cells + low & ~cells).bit_length() - 1
            runs.append((start, j, stop - start))
            cells &= cells + low
    return runs


def write_svg(curve_segments, shade_grid: SignGrid, out, poly_hash: str) -> bytes:
    """Assemble the SVG of ``shade_grid``'s window and write it to ``out``.

    ``curve_segments`` are in doubled grid units, as ``contour_segments``
    returns them, and ``poly_hash`` names the curve in the metadata comment.
    ``out`` may be a filesystem path or a binary file object; the bytes are
    also returned.  Fixed inputs give byte-identical output.
    """
    w = shade_grid.window
    width = w.nx + 2 * _MARGIN
    height = w.nlambda + 2 * _MARGIN
    bottom = _MARGIN + w.nlambda
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<!-- poly_sha256={poly_hash} window={w.describe()} '
        f'resolution={w.nx}x{w.nlambda} tie_rule={TIE_RULE} -->',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    shade_parts = [f'<rect x="{_MARGIN + i}" y="{bottom - j - 1}" width="{run}" height="1"/>'
                   for i, j, run in _shade_rects(shade_grid)]
    if shade_parts:
        lines.append('<g fill="#c8c8c8" stroke="none">')
        lines.extend(shade_parts)
        lines.append('</g>')

    # grid coordinates of the lines x = 0, x = 1, lambda = 0 and lambda = 1
    gx = [(value - w.x_min) / (w.x_max - w.x_min) * w.nx for value in (0, 1)]
    gl = [(value - w.lambda_min) / (w.lambda_max - w.lambda_min) * w.nlambda
          for value in (0, 1)]
    lines.append('<g stroke="#404040" stroke-width="1">')
    lines.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w.nx}" height="{w.nlambda}" '
        f'fill="none"/>')
    if w.x_min <= 0 <= w.x_max:
        x = _fmt(_MARGIN + gx[0])
        lines.append(f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{_MARGIN}"/>')
    if w.lambda_min <= 0 <= w.lambda_max:
        y = _fmt(bottom - gl[0])
        lines.append(f'<line x1="{_MARGIN}" y1="{y}" x2="{_MARGIN + w.nx}" y2="{y}"/>')
    lines.append('</g>')

    if curve_segments:
        # the text of every doubled coordinate a segment can reach, once
        left, top = 2 * _MARGIN, 2 * bottom
        xs = [_half(left + u) for u in range(2 * w.nx + 1)]
        ys = [_half(top - v) for v in range(2 * w.nlambda + 1)]
        path = [f'M{xs[ax]} {ys[ay]}L{xs[bx]} {ys[by]}' for ax, ay, bx, by in curve_segments]
        lines.append(
            f'<path d="{"".join(path)}" stroke="#b03030" stroke-width="1.5" '
            f'fill="none" stroke-linecap="round"/>')

    for m in (0, 1):
        if not (w.x_min <= m <= w.x_max and w.lambda_min <= m <= w.lambda_max):
            continue
        cx, cy = _MARGIN + gx[m], bottom - gl[m]
        lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#202020"/>')
        lines.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" '
            f'font-family="monospace" font-size="12">({m},{m})</text>')
    lines.append('</svg>')
    lines.append('')

    payload = "\n".join(lines).encode("utf-8")
    if hasattr(out, "write"):
        out.write(payload)
    else:
        with open(out, "wb") as handle:
            handle.write(payload)
    return payload


def render_curve(p: SparsePoly, w: Window, out) -> bytes:
    """Sample, contour and write one curve in a single call, shaded by the
    sign of the Legendre cubic f."""
    grid = sample_sign_grid(p, w)
    shade = legendre_sign_grid(w)
    segments = contour_segments(grid)
    return write_svg(segments, shade, out, poly_hash=poly_signature(p))
