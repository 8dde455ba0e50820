"""Deterministic SVG rendering of real inflectionary curves.

The pipeline samples exact signs of the curve polynomial on a rational
grid, extracts contour segments by marching squares, and writes an SVG
with regions where the Legendre cubic is positive shaded underneath.
All geometry lives on half-integer grid coordinates, so every emitted
coordinate is exact and the output bytes are reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .inflection import legendre_f
from .poly import VAR_LAMBDA, VAR_X, SparsePoly, as_fraction, poly_to_json

# Exact-zero samples count as positive everywhere: in sign-change counts,
# in cell shading and in the marching-squares case index.
TIE_RULE = "zero-as-positive"

_MARGIN = 40


@dataclass(frozen=True)
class Window:
    """Rectangular (x, lambda) viewport with its sampling resolution."""

    x_min: Fraction
    x_max: Fraction
    lambda_min: Fraction
    lambda_max: Fraction
    nx: int = 512
    nlambda: int = 512

    def __post_init__(self):
        object.__setattr__(self, "x_min", as_fraction(self.x_min))
        object.__setattr__(self, "x_max", as_fraction(self.x_max))
        object.__setattr__(self, "lambda_min", as_fraction(self.lambda_min))
        object.__setattr__(self, "lambda_max", as_fraction(self.lambda_max))
        if self.x_min >= self.x_max:
            raise ValueError(f"empty x range: {self.x_min} >= {self.x_max}")
        if self.lambda_min >= self.lambda_max:
            raise ValueError(
                f"empty lambda range: {self.lambda_min} >= {self.lambda_max}")
        if self.nx < 2 or self.nlambda < 2:
            raise ValueError(f"resolution too small: {self.nx} x {self.nlambda}")

    def x_at(self, i: int) -> Fraction:
        return self.x_min + Fraction(i, self.nx) * (self.x_max - self.x_min)

    def lambda_at(self, j: int) -> Fraction:
        return self.lambda_min + Fraction(j, self.nlambda) * (self.lambda_max - self.lambda_min)

    def describe(self) -> str:
        return (f"x=[{self.x_min},{self.x_max}] "
                f"lambda=[{self.lambda_min},{self.lambda_max}]")


DEFAULT_WINDOW = Window(Fraction(-1), Fraction(3), Fraction(-1), Fraction(3))


@dataclass(frozen=True)
class SignGrid:
    """Exact signs at the nodes of a window grid.

    ``values[i][j]`` is the sign (-1, 0 or +1) of the sampled polynomial at
    the node (x_i, lambda_j), so the array is (nx+1) by (nlambda+1).
    """

    window: Window
    values: tuple

    def __post_init__(self):
        w = self.window
        if len(self.values) != w.nx + 1:
            raise ValueError("grid width does not match the window")
        for column in self.values:
            if len(column) != w.nlambda + 1:
                raise ValueError("grid height does not match the window")
            for v in column:
                if v not in (-1, 0, 1):
                    raise ValueError(f"sign grid entry out of range: {v!r}")

    def sign(self, i: int, j: int) -> int:
        return self.values[i][j]

    def row(self, j: int):
        """All signs along the lambda_j grid row, in ascending x order."""
        return [column[j] for column in self.values]


def sample_sign_grid(p: SparsePoly, w: Window) -> SignGrid:
    """Exact sign of p at every grid node of the window.

    Row by row the polynomial is specialized in lambda and its coefficients
    cleared to integers, so each node costs one integer Horner evaluation;
    the sign is exact because the nodes are rational.
    """
    if p.vars != (VAR_X, VAR_LAMBDA):
        raise ValueError(f"expected variables {(VAR_X, VAR_LAMBDA)!r}, got {p.vars!r}")
    by_xpow = p.coefficients_in(VAR_X)
    degree = max(by_xpow, default=0)

    step = (w.x_max - w.x_min) / w.nx
    base_den = math.lcm(w.x_min.denominator, step.denominator)
    a0 = int(w.x_min * base_den)
    a_step = int(step * base_den)

    rows = []
    for j in range(w.nlambda + 1):
        lam = w.lambda_at(j)
        coeffs = []
        for t in range(degree + 1):
            c = by_xpow.get(t)
            coeffs.append(c.evaluate({VAR_LAMBDA: lam}) if c is not None else Fraction(0))
        denom = math.lcm(*(c.denominator for c in coeffs))
        cleared = [int(c * denom) for c in coeffs]
        # scaled[t] = c_t * base_den^(degree - t), so the Horner loop below
        # accumulates p(a/base_den) * base_den^degree, an integer of known sign
        scaled = [cleared[t] * base_den ** (degree - t) for t in range(degree + 1)]
        row = []
        for i in range(w.nx + 1):
            a = a0 + i * a_step
            value = scaled[degree]
            for t in range(degree - 1, -1, -1):
                value = value * a + scaled[t]
            row.append(0 if not value else (1 if value > 0 else -1))
        rows.append(tuple(row))
    return SignGrid(w, tuple(zip(*rows)))


def row_sign_changes(grid: SignGrid, j: int) -> int:
    """Sign flips along one lambda row, zeros counted as positive."""
    signs = [1 if v >= 0 else -1 for v in grid.row(j)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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

_HALF = Fraction(1, 2)


def _crossing(i, j, edge, corners):
    # the case table only asks about edges whose effective signs differ, so
    # at most one endpoint is zero; the crossing snaps to an exact-zero node
    # and sits at the edge midpoint otherwise
    a, b = edge
    if corners[a] == 0:
        di, dj = _CORNERS[a]
        return (Fraction(i + di), Fraction(j + dj))
    if corners[b] == 0:
        di, dj = _CORNERS[b]
        return (Fraction(i + di), Fraction(j + dj))
    (ai, aj), (bi, bj) = _CORNERS[a], _CORNERS[b]
    return (i + (ai + bi) * _HALF, j + (aj + bj) * _HALF)


def contour_segments(grid: SignGrid):
    """Zero-contour segments in grid coordinates, cell by cell.

    Corners sampling exactly zero sit on the positive side (the documented
    tie rule) with crossings snapped onto them, saddle cells are always
    split around the positive corners, and cells are scanned bottom row
    first, so the output order and the segments themselves are
    deterministic.
    """
    w = grid.window
    segments = []
    for j in range(w.nlambda):
        for i in range(w.nx):
            corners = (grid.sign(i, j), grid.sign(i + 1, j),
                       grid.sign(i + 1, j + 1), grid.sign(i, j + 1))
            index = 0
            for bit, value in enumerate(corners):
                if value >= 0:
                    index |= 1 << bit
            for edge_a, edge_b in _CASES[index]:
                a = _crossing(i, j, edge_a, corners)
                b = _crossing(i, j, edge_b, corners)
                if a == b:
                    continue
                segments.append((a, b) if a <= b else (b, a))
    return segments


def poly_signature(p: SparsePoly) -> str:
    """Stable content hash of a polynomial's canonical JSON."""
    return hashlib.sha256(poly_to_json(p).encode("utf-8")).hexdigest()


def _px(w: Window, gx: Fraction) -> str:
    return _fmt(_MARGIN + gx)


def _py(w: Window, gy: Fraction) -> str:
    return _fmt(_MARGIN + w.nlambda - gy)


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


def _grid_coord(w: Window, value, axis: str) -> Fraction:
    value = as_fraction(value)
    if axis == "x":
        return (value - w.x_min) / (w.x_max - w.x_min) * w.nx
    return (value - w.lambda_min) / (w.lambda_max - w.lambda_min) * w.nlambda


def _shade_rects(shade: SignGrid):
    """Per-row runs of cells whose four corners are all strictly positive."""
    w = shade.window
    runs = []
    for j in range(w.nlambda):
        start = None
        for i in range(w.nx):
            shaded = (shade.sign(i, j) > 0 and shade.sign(i + 1, j) > 0
                      and shade.sign(i + 1, j + 1) > 0 and shade.sign(i, j + 1) > 0)
            if shaded and start is None:
                start = i
            if not shaded and start is not None:
                runs.append((start, j, i - start))
                start = None
        if start is not None:
            runs.append((start, j, w.nx - start))
    return runs


def write_svg(curve_segments, shade_grid: SignGrid, w: Window, out,
              poly_hash: str = "") -> bytes:
    """Assemble the SVG document and write it to ``out``.

    ``out`` may be a filesystem path or a binary file object; the rendered
    bytes are also returned.  Fixed inputs give byte-identical output.
    """
    if shade_grid.window != w:
        raise ValueError("shade grid was sampled on a different window")
    width = w.nx + 2 * _MARGIN
    height = w.nlambda + 2 * _MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<!-- poly_sha256={poly_hash or "none"} window={w.describe()} '
        f'resolution={w.nx}x{w.nlambda} tie_rule={TIE_RULE} -->',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    shade_parts = []
    for i, j, run in _shade_rects(shade_grid):
        shade_parts.append(
            f'<rect x="{_px(w, Fraction(i))}" y="{_py(w, Fraction(j + 1))}" '
            f'width="{run}" height="1"/>')
    if shade_parts:
        lines.append('<g fill="#c8c8c8" stroke="none">')
        lines.extend(shade_parts)
        lines.append('</g>')

    axis_parts = []
    for value, axis in ((Fraction(0), "x"), (Fraction(0), "lambda")):
        lo = w.x_min if axis == "x" else w.lambda_min
        hi = w.x_max if axis == "x" else w.lambda_max
        if not lo <= value <= hi:
            continue
        g = _grid_coord(w, value, "x" if axis == "x" else "l")
        if axis == "x":
            axis_parts.append(
                f'<line x1="{_px(w, g)}" y1="{_py(w, Fraction(0))}" '
                f'x2="{_px(w, g)}" y2="{_py(w, Fraction(w.nlambda))}"/>')
        else:
            axis_parts.append(
                f'<line x1="{_px(w, Fraction(0))}" y1="{_py(w, g)}" '
                f'x2="{_px(w, Fraction(w.nx))}" y2="{_py(w, g)}"/>')
    lines.append('<g stroke="#404040" stroke-width="1">')
    lines.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w.nx}" height="{w.nlambda}" '
        f'fill="none"/>')
    lines.extend(axis_parts)
    lines.append('</g>')

    if curve_segments:
        path = []
        for (ax, ay), (bx, by) in curve_segments:
            path.append(f'M{_px(w, ax)} {_py(w, ay)}L{_px(w, bx)} {_py(w, by)}')
        lines.append(
            f'<path d="{"".join(path)}" stroke="#b03030" stroke-width="1.5" '
            f'fill="none" stroke-linecap="round"/>')

    marks = []
    for mx, my in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))):
        if not (w.x_min <= mx <= w.x_max and w.lambda_min <= my <= w.lambda_max):
            continue
        gx = _grid_coord(w, mx, "x")
        gy = _grid_coord(w, my, "l")
        cx = _px(w, gx)
        cy = _py(w, gy)
        marks.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#202020"/>')
        marks.append(
            f'<text x="{_fmt(_MARGIN + gx + 6)}" y="{_fmt(_MARGIN + w.nlambda - gy - 6)}" '
            f'font-family="monospace" font-size="12">({mx},{my})</text>')
    lines.extend(marks)
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
    shade = sample_sign_grid(legendre_f(), w)
    segments = contour_segments(grid)
    return write_svg(segments, shade, w, out, poly_hash=poly_signature(p))
