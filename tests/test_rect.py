"""Unit and property tests for repro.geometry.rect."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.rect import Rect
from repro.rtree.tree import RTree


def rects(span: float = 100.0) -> st.SearchStrategy[Rect]:
    coord = st.floats(
        min_value=-span, max_value=span, allow_nan=False, allow_infinity=False
    )
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
        coord, coord, coord, coord,
    )


class TestConstruction:
    def test_valid(self):
        r = Rect(0, 1, 2, 3)
        assert r.as_tuple() == (0, 1, 2, 3)

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            Rect(2, 0, 1, 5)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            Rect(0, 5, 1, 0)

    @pytest.mark.parametrize("coords", [
        (math.nan, 0.0, 1.0, 1.0),
        (0.0, math.nan, 1.0, 1.0),
        (0.0, 0.0, math.nan, 1.0),
        (0.0, 0.0, 1.0, math.nan),
    ])
    def test_nan_rejected(self, coords):
        # Every comparison with NaN is false, so a NaN rect would slip
        # past an "is it inverted?" test and be lost inside a tree.
        with pytest.raises(ValueError, match="NaN"):
            Rect(*coords)

    @pytest.mark.parametrize("coords", [
        (-math.inf, 0.0, 1.0, 1.0),
        (0.0, -math.inf, 1.0, 1.0),
        (0.0, 0.0, math.inf, 1.0),
        (0.0, 0.0, 1.0, math.inf),
        (-math.inf, -math.inf, math.inf, math.inf),
        (math.inf, 0.0, math.inf, 1.0),
    ])
    def test_infinite_rejected(self, coords):
        # An infinite rect's gap to any finite one is inf, and inf - inf
        # is NaN: rejected like NaN, in the same comparison chain.
        with pytest.raises(ValueError, match="infinite"):
            Rect(*coords)

    def test_no_infinite_object_reaches_a_tree(self):
        # Trees take Rects, so the constructor is the one gate: an insert
        # or a bulk load of an infinite object (``Rect.from_point``
        # included) fails before touching a page, and the tree stays as
        # it was.
        tree = RTree(max_entries=4)
        with pytest.raises(ValueError):
            tree.insert(Rect(0.0, 0.0, math.inf, 1.0), 0)
        with pytest.raises(ValueError, match="infinite"):
            tree.insert(Rect.from_point(0.0, -math.inf), 1)
        assert (tree.size, tree.version) == (0, 0)
        with pytest.raises(ValueError):
            RTree.bulk_load([(Rect.from_point(1.0, 1.0), 0),
                             (Rect.from_point(-math.inf, 0.0), 1)])
        tree.insert(Rect.from_point(1.0, 2.0), 2)
        assert tree.size == 1

    def test_largest_finite_coordinates_accepted(self):
        big = 1.7976931348623157e308
        assert Rect(-big, -big, big, big).as_tuple() == (-big, -big, big, big)

    def test_from_point_is_degenerate(self):
        p = Rect.from_point(3.5, -1.0)
        assert p.is_point
        assert p.area() == 0.0

    def test_union_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.union_of([])

    def test_union_of_many(self):
        u = Rect.union_of([Rect(0, 0, 1, 1), Rect(5, -2, 6, 0), Rect(2, 3, 3, 9)])
        assert u == Rect(0, -2, 6, 9)

    def test_iter_and_tuple(self):
        assert list(Rect(1, 2, 3, 4)) == [1, 2, 3, 4]


class TestMeasures:
    def test_area_margin(self):
        r = Rect(0, 0, 4, 3)
        assert r.area() == 12
        assert r.margin() == 7
        assert r.width == 4 and r.height == 3

    def test_center(self):
        assert Rect(0, 0, 4, 2).center() == (2.0, 1.0)

    def test_side_lo_hi(self):
        r = Rect(1, 2, 5, 9)
        assert r.side(0) == 4 and r.side(1) == 7
        assert r.lo(0) == 1 and r.hi(0) == 5
        assert r.lo(1) == 2 and r.hi(1) == 9


class TestRelations:
    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(2, 2, 3, 3))
        assert not Rect(0, 0, 10, 10).contains(Rect(9, 9, 11, 11))

    def test_contains_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(0, 0) and r.contains_point(2, 2)
        assert not r.contains_point(2.1, 1)


class TestCombinations:
    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(3, -1, 4, 0)) == Rect(0, -1, 4, 1)

    def test_intersection_area(self):
        assert Rect(0, 0, 2, 2).intersection_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).intersection_area(Rect(5, 5, 6, 6)) == 0.0
        # touching edges overlap with zero area
        assert Rect(0, 0, 1, 1).intersection_area(Rect(1, 0, 2, 1)) == 0.0

    def test_enlargement(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(0, 0, 2, 1)) == 1.0
        assert Rect(0, 0, 2, 2).enlargement(Rect(1, 1, 2, 2)) == 0.0

    def test_expanded(self):
        assert Rect(0, 0, 1, 1).expanded(2) == Rect(-2, -2, 3, 3)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).expanded(-0.1)


class TestDistances:
    def test_min_dist_overlapping_is_zero(self):
        assert Rect(0, 0, 2, 2).min_dist(Rect(1, 1, 3, 3)) == 0.0

    def test_min_dist_axis_aligned_gap(self):
        assert Rect(0, 0, 1, 1).min_dist(Rect(3, 0, 4, 1)) == 2.0

    def test_min_dist_diagonal(self):
        assert math.isclose(Rect(0, 0, 1, 1).min_dist(Rect(4, 5, 6, 6)), 5.0)

    def test_max_dist_corners(self):
        assert math.isclose(Rect(0, 0, 1, 1).max_dist(Rect(2, 0, 3, 1)), math.hypot(3, 1))

    def test_axis_dist(self):
        a, b = Rect(0, 0, 1, 1), Rect(3, 5, 4, 6)
        assert a.axis_dist(b, 0) == 2.0
        assert a.axis_dist(b, 1) == 4.0
        assert a.axis_dist(a, 0) == 0.0


@given(rects(), rects())
def test_union_contains_both(a: Rect, b: Rect):
    u = a.union(b)
    assert u.contains(a) and u.contains(b)


@given(rects(), rects())
def test_min_dist_symmetry(a: Rect, b: Rect):
    assert math.isclose(a.min_dist(b), b.min_dist(a), abs_tol=1e-12)


@given(rects(), rects())
def test_axis_le_min_le_max(a: Rect, b: Rect):
    lower = max(a.axis_dist(b, 0), a.axis_dist(b, 1))
    assert lower <= a.min_dist(b) + 1e-9
    assert a.min_dist(b) <= a.max_dist(b) + 1e-9


@given(rects(), rects())
@example(  # gaps whose squares underflow to 0.0
    Rect(0.0, -1.0, 0.0, -2.2250738585072014e-308),
    Rect(-1.0, 0.0, -2.2250738585072014e-308, 0.0),
)
def test_intersects_iff_min_dist_zero(a: Rect, b: Rect):
    assert a.intersects(b) == (a.min_dist(b) == 0.0)


@given(rects(), rects())
def test_enlargement_non_negative(a: Rect, b: Rect):
    assert a.enlargement(b) >= -1e-9


@given(rects())
def test_union_self_identity(a: Rect):
    assert a.union(a) == a
