"""Deterministic SVG rendering of real inflectionary curves.

The pipeline samples exact signs of the curve polynomial on a rational
grid, extracts contour segments by marching squares, and writes an SVG
with regions where the Legendre cubic is positive shaded underneath.
Both run on integers: grid nodes over one denominator per axis, an integer
coefficient table scaled by positive factors, contours in doubled grid
units.  So every sign and every emitted coordinate is exact and the output
bytes are reproducible.
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

# Largest sampling resolution per axis; larger requests fail before sampling.
MAX_RESOLUTION = 4096


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
        if self.nx > MAX_RESOLUTION or self.nlambda > MAX_RESOLUTION:
            raise ValueError(f"resolution too large: {self.nx} x {self.nlambda} "
                             f"(at most {MAX_RESOLUTION} per axis)")

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


def _ladder(lo: Fraction, hi: Fraction, n: int):
    """(start, step, den), all integers with den > 0, such that node k of the
    n equal steps from lo to hi is (start + k * step) / den."""
    step = (hi - lo) / n
    den = math.lcm(lo.denominator, step.denominator)
    return int(lo * den), int(step * den), den


def _horner(coeffs, t: int) -> int:
    """The integer list ``coeffs``, in descending powers, evaluated at t."""
    value = 0
    for c in coeffs:
        value = value * t + c
    return value


def sample_sign_grid(p: SparsePoly, w: Window) -> SignGrid:
    """Exact sign of p at every grid node of the window.

    With x_i = (a0 + i a_step) / a_den and lambda_j = (c0 + j c_step) / c_den,
    the coefficient of x^t lambda^s is cleared to an integer and scaled by
    a_den^(deg_x - t) c_den^(deg_lambda - s).  Each row then takes one
    integer Horner pass in lambda per power of x and each node one in x,
    which gives p(x_i, lambda_j) times a positive integer: its exact sign.
    """
    if p.vars != (VAR_X, VAR_LAMBDA):
        raise ValueError(f"expected variables {(VAR_X, VAR_LAMBDA)!r}, got {p.vars!r}")
    a0, a_step, a_den = _ladder(w.x_min, w.x_max, w.nx)
    c0, c_step, c_den = _ladder(w.lambda_min, w.lambda_max, w.nlambda)
    deg_x = max((t for t, _ in p.terms), default=0)
    deg_l = max((s for _, s in p.terms), default=0)
    clear = math.lcm(*(c.denominator for c in p.terms.values()))
    # table[deg_x - t][deg_l - s] is the scaled coefficient of x^t lambda^s:
    # both axes in descending powers, ready for Horner
    table = [[0] * (deg_l + 1) for _ in range(deg_x + 1)]
    for (t, s), c in p.terms.items():
        table[deg_x - t][deg_l - s] = (c.numerator * (clear // c.denominator)
                                       * a_den ** (deg_x - t) * c_den ** (deg_l - s))
    xs = [a0 + i * a_step for i in range(w.nx + 1)]
    rows = []
    for j in range(w.nlambda + 1):
        coeffs = [_horner(column, c0 + j * c_step) for column in table]
        rows.append(tuple((v > 0) - (v < 0) for v in (_horner(coeffs, a) for a in xs)))
    return SignGrid(w, tuple(zip(*rows)))


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


def _crossing(i, j, edge, corners):
    # the case table only asks about edges whose effective signs differ, so
    # at most one endpoint is zero; the crossing snaps to an exact-zero node
    # and sits at the edge midpoint otherwise.  In doubled grid units a node
    # is twice its index and a midpoint the sum of the edge's two corners.
    a, b = edge
    (ai, aj), (bi, bj) = _CORNERS[a], _CORNERS[b]
    if corners[a] == 0:
        return (2 * (i + ai), 2 * (j + aj))
    if corners[b] == 0:
        return (2 * (i + bi), 2 * (j + bj))
    return (2 * i + ai + bi, 2 * j + aj + bj)


def contour_segments(grid: SignGrid):
    """Zero-contour segments in doubled grid units, cell by cell.

    A point (u, v) sits at grid coordinates (u/2, v/2), so every crossing is
    a pair of integers.  Corners sampling exactly zero sit on the positive
    side (the documented tie rule) with crossings snapped onto them, saddle
    cells are always split around the positive corners, and cells are
    scanned bottom row first, so the output order and the segments
    themselves are deterministic.
    """
    w = grid.window
    v = grid.values
    segments = []
    for j in range(w.nlambda):
        for i in range(w.nx):
            corners = (v[i][j], v[i + 1][j], v[i + 1][j + 1], v[i][j + 1])
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
    w = shade.window
    v = shade.values
    runs = []
    for j in range(w.nlambda):
        start = None
        for i in range(w.nx):
            shaded = (v[i][j] > 0 and v[i + 1][j] > 0
                      and v[i + 1][j + 1] > 0 and v[i][j + 1] > 0)
            if shaded and start is None:
                start = i
            if not shaded and start is not None:
                runs.append((start, j, i - start))
                start = None
        if start is not None:
            runs.append((start, j, w.nx - start))
    return runs


def write_svg(curve_segments, shade_grid: SignGrid, out, poly_hash: str = "") -> bytes:
    """Assemble the SVG of ``shade_grid``'s window and write it to ``out``.

    ``curve_segments`` are in doubled grid units, as ``contour_segments``
    returns them.  ``out`` may be a filesystem path or a binary file object;
    the bytes are also returned.  Fixed inputs give byte-identical output.
    """
    w = shade_grid.window
    width = w.nx + 2 * _MARGIN
    height = w.nlambda + 2 * _MARGIN
    bottom = _MARGIN + w.nlambda
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<!-- poly_sha256={poly_hash or "none"} window={w.describe()} '
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
        left, top = 2 * _MARGIN, 2 * bottom
        path = [f'M{_half(left + ax)} {_half(top - ay)}L{_half(left + bx)} {_half(top - by)}'
                for (ax, ay), (bx, by) in curve_segments]
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
    shade = sample_sign_grid(legendre_f(), w)
    segments = contour_segments(grid)
    return write_svg(segments, shade, out, poly_hash=poly_signature(p))
