"""Lattice geometry of bivariate supports: hulls, lattice points, faces."""

from __future__ import annotations

from .poly import SparsePoly


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(points):
    """Andrew's monotone chain over points taken in the given order: the
    lower hull for ascending points, the upper hull for descending ones."""
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def convex_hull(points):
    """Convex hull of integer points, counterclockwise.

    Degenerate inputs are allowed: a single point gives a one-element hull
    and collinear points give the two extreme endpoints.
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("hull of an empty point set")
    if len(pts) == 1:
        return pts
    hull = _chain(pts)[:-1] + _chain(reversed(pts))[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return hull[:1]
    return hull


def _point_in_hull(pt, hull):
    if len(hull) == 1:
        return pt == hull[0]
    if len(hull) == 2:
        return _on_segment(pt, hull[0], hull[1])
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if _cross(a, b, pt) < 0:
            return False
    return True


def _on_segment(pt, a, b):
    if _cross(a, b, pt) != 0:
        return False
    return min(a[0], b[0]) <= pt[0] <= max(a[0], b[0]) \
        and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])


def lattice_points_in_hull(vertices):
    """All integer points inside or on the convex hull of ``vertices``."""
    hull = convex_hull(vertices)
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    out = set()
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if _point_in_hull((x, y), hull):
                out.add((x, y))
    return out


def newton_data(p: SparsePoly) -> tuple:
    """The compact faces of the local Newton polygon at the origin of a
    nonzero bivariate polynomial, as a tuple of ``(a, b)`` exponent pairs.

    They are the strictly descending prefix of the lower hull of the
    support, which is what governs the singularity there.
    """
    if len(p.vars) != 2:
        raise ValueError(f"newton_data needs a bivariate polynomial, got {p.vars!r}")
    if p.is_zero:
        raise ValueError("newton_data of the zero polynomial")
    lower = _chain(sorted(p.support()))
    faces = []
    for a, b in zip(lower, lower[1:]):
        if b[1] >= a[1]:
            break
        faces.append((a, b))
    return tuple(faces)


def face_restriction(p: SparsePoly, face) -> SparsePoly:
    """Terms of ``p`` whose exponents lie on the closed segment ``face``."""
    if len(p.vars) != 2:
        raise ValueError(f"face_restriction needs a bivariate polynomial, got {p.vars!r}")
    a, b = (tuple(face[0]), tuple(face[1]))
    nums = {e: c for e, c in p.nums.items() if _on_segment(e, a, b)}
    return SparsePoly._make(p.vars, nums, p.den)
