"""Convex hulls, lattice enumeration and Newton polygon faces."""

import pytest

from inflectionary.inflection import basic_inflection
from inflectionary.newton import (
    convex_hull,
    face_restriction,
    lattice_points_in_hull,
    newton_data,
)
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly

XL = (VAR_X, VAR_LAMBDA)


class TestConvexHull:
    def test_square_with_interior_point(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
        assert convex_hull(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_counterclockwise_orientation(self):
        hull = convex_hull([(0, 0), (3, 1), (1, 3)])
        assert hull == [(0, 0), (3, 1), (1, 3)]

    def test_single_point(self):
        assert convex_hull([(4, 4), (4, 4)]) == [(4, 4)]

    def test_collinear_segment(self):
        assert convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0, 0), (3, 3)]

    def test_duplicates_removed(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 0)]
        assert convex_hull(pts) == [(0, 0), (1, 0), (0, 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([])


class TestLatticePoints:
    def test_triangle(self):
        pts = lattice_points_in_hull([(0, 0), (2, 0), (0, 2)])
        assert pts == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}

    def test_segment(self):
        assert lattice_points_in_hull([(0, 0), (3, 3)]) == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_point(self):
        assert lattice_points_in_hull([(5, 7)]) == {(5, 7)}

    def test_parallelogram_count(self):
        # area 4, boundary 6: Pick gives I = 4 - 3 + 1 = 2, so 8 points total
        pts = lattice_points_in_hull([(0, 0), (2, 0), (3, 2), (1, 2)])
        assert len(pts) == 8


class TestNewtonData:
    def test_lower_faces_of_first_curve(self):
        assert newton_data(basic_inflection(2).poly) == (((0, 3), (1, 2)), ((1, 2), (5, 0)))

    def test_lower_faces_stop_at_flat_edge(self):
        # support along y = 0 beyond the descent must not join the faces
        p = SparsePoly(XL, {(0, 2): 1, (1, 0): 1, (3, 0): 1})
        assert newton_data(p) == (((0, 2), (1, 0)),)

    def test_no_descent_no_faces(self):
        p = SparsePoly(XL, {(0, 0): 1, (2, 1): 1})
        assert newton_data(p) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            newton_data(SparsePoly.zero(XL))
        with pytest.raises(ValueError):
            newton_data(SparsePoly.variable(("t",), "t"))


class TestFaceRestriction:
    def test_keeps_only_segment_terms(self):
        p = basic_inflection(2).poly
        face = ((0, 3), (1, 2))
        restricted = face_restriction(p, face)
        assert restricted.support() == {(0, 3), (1, 2)}
        for e in restricted.support():
            assert restricted.coefficient(e) == p.coefficient(e)

    def test_interior_lattice_points_of_face_count(self):
        p = SparsePoly(XL, {(0, 4): 1, (1, 2): -2, (2, 0): 1, (5, 5): 9})
        restricted = face_restriction(p, ((0, 4), (2, 0)))
        assert restricted.support() == {(0, 4), (1, 2), (2, 0)}

    def test_empty_restriction(self):
        p = SparsePoly(XL, {(4, 4): 1})
        assert face_restriction(p, ((0, 1), (1, 0))).is_zero
