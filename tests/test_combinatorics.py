"""Incidence axioms, the incidence graph, triangles and isomorphism on the
catalog data."""

import gc
import random
import weakref
from itertools import combinations
from math import comb as binomial

import pytest

from genutil import random_combinatorics
from zarpair.catalog import (
    extended_maclane_explicit,
    rybnikov_explicit,
)
from zarpair.combinatorics import (
    Combinatorics,
    NoTriangleError,
    Triangle,
    apply_line_permutation,
    is_isomorphic,
    ordered_equal,
    triangle_cycle,
)


@pytest.fixture(scope="module")
def cm():
    return extended_maclane_explicit()


@pytest.fixture(scope="module")
def cr():
    return rybnikov_explicit()


class TestValidate:
    def test_extended_maclane_valid(self, cm):
        assert cm.validate().ok

    def test_uncovered_pair(self):
        report = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3]]).validate()
        assert report.uncovered_pairs == [(2, 3)]
        assert not report.ok

    def test_doubly_covered_pair(self):
        report = Combinatorics(["A", "B", "C"], [[1, 2, 3], [1, 2]]).validate()
        assert report.multiply_covered_pairs == [(1, 2)]

    def test_undersized_and_out_of_range(self):
        report = Combinatorics(["A", "B"], [[1], [1, 2], [2, 5]]).validate()
        assert (1,) in report.undersized_points
        assert (2, 5) in report.out_of_range_points

    def test_messages_name_each_violation(self):
        report = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3]]).validate()
        assert any("(2,3)" in m for m in report.messages())


class TestPointThrough:
    def test_double_point(self, cm):
        assert cm.point_through(1, 2) == (1, 2)

    def test_triple_point(self, cm):
        assert cm.point_through(2, 4) == (2, 4, 9)

    def test_quadruple_point(self, cm):
        assert cm.point_through(4, 5) == (1, 4, 5, 6)

    def test_same_line_rejected(self, cm):
        with pytest.raises(ValueError):
            cm.point_through(2, 2)


class TestIncidenceGraph:
    """The incidence graph joins each line to the points on it; it is read
    straight from the points, with no graph object of its own."""

    def test_extended_maclane_counts(self, cm):
        assert cm.n_lines + len(cm.points) == 9 + 14 == 23
        # edge count is the total point multiplicity
        assert sum(len(cm.points_on_line(i)) for i in range(1, 10)) == 38
        assert sum(len(p) for p in cm.points) == 38

    def test_two_lines_one_point_is_a_path(self):
        comb = Combinatorics(["A", "B"], [[1, 2]])
        assert comb.points_on_line(1) == comb.points_on_line(2) == ((1, 2),)

    def test_cached_graph_frees_with_its_structure(self):
        # the line-pair table cached on the structure must not point back at
        # it, or both would wait for the cyclic collector
        comb = extended_maclane_explicit()
        comb.point_through(1, 2)
        ref = weakref.ref(comb)
        gc.disable()
        try:
            del comb
            assert ref() is None
        finally:
            gc.enable()

    def test_rybnikov_counts(self, cr):
        assert cr.n_lines + len(cr.points) == 15 + 61 == 76

    def test_bipartite_no_isolated_points(self, cm):
        for i in range(1, cm.n_lines + 1):
            assert cm.points_on_line(i)
            assert all(i in p for p in cm.points_on_line(i))
        for p in cm.points:
            assert p
            assert all(p in cm.points_on_line(i) for i in p)


class TestTriangleCycle:
    def test_catalog_triangle(self, cm):
        triangle = triangle_cycle(cm, 1, 2, 3)
        assert triangle == Triangle((1, 2, 3), ((1, 2), (2, 3), (1, 3)))

    def test_concurrent_lines_have_no_triangle(self):
        near_pencil = Combinatorics(
            ["A", "B", "C", "D"],
            [[1, 2, 3], [1, 4], [2, 4], [3, 4]],
        )
        with pytest.raises(NoTriangleError):
            triangle_cycle(near_pencil, 1, 2, 3)

    def test_rybnikov_triangle(self, cr):
        mu = triangle_cycle(cr, 1, 2, 3)
        assert mu.lines == (1, 2, 3)
        assert mu.vertices == ((1, 2), (2, 3), (1, 3))
        assert all(v in cr.points for v in mu.vertices)

    def test_support_is_exactly_the_three_lines(self, cm):
        triangle = triangle_cycle(cm, 4, 5, 7)
        assert triangle.lines == (4, 5, 7)
        assert triangle.vertices == ((1, 4, 5, 6), (5, 7), (3, 4, 7))

    def test_lines_keep_traversal_order(self, cm):
        triangle = triangle_cycle(cm, 3, 1, 2)
        assert triangle.lines == (3, 1, 2)
        assert triangle.vertices == ((1, 3), (1, 2), (2, 3))
        assert triangle != triangle_cycle(cm, 1, 2, 3)


class TestEqualityAndIsomorphism:
    def test_ordered_equal_reflexive(self, cm):
        assert ordered_equal(cm, extended_maclane_explicit())

    def test_swap_breaks_ordered_equality_but_not_isomorphism(self, cm):
        swap = (1, 3, 2, 4, 5, 6, 7, 8, 9)
        swapped = apply_line_permutation(cm, swap)
        assert not ordered_equal(cm, swapped)
        found = is_isomorphic(cm, swapped)
        assert found is not None
        # the witness carries points onto points
        assert ordered_equal(apply_line_permutation(cm, found), swapped)

    def test_different_line_counts(self, cm, cr):
        assert is_isomorphic(cm, cr) is None

    def test_isomorphic_to_any_relabelling(self, cm):
        rng = random.Random(7)
        for _ in range(5):
            perm = list(range(1, 10))
            rng.shuffle(perm)
            assert is_isomorphic(cm, apply_line_permutation(cm, tuple(perm)))


class TestSerialization:
    def test_round_trip(self, cm):
        assert Combinatorics.from_obj(cm.to_obj()) == cm

    def test_points_sorted_lexicographically(self, cm):
        assert list(cm.points) == sorted(cm.points)


def test_pair_count_identity_on_random_structures():
    """Each pair of lines in exactly one point: sum of C(|P|, 2) = C(n, 2)."""
    rng = random.Random(20240811)
    for _ in range(1000):
        comb = random_combinatorics(rng)
        assert comb.validate().ok
        n = comb.n_lines
        assert sum(binomial(len(p), 2) for p in comb.points) == binomial(n, 2)


def test_random_relabellings_stay_isomorphic():
    rng = random.Random(99)
    for _ in range(50):
        comb = random_combinatorics(rng)
        perm = list(range(1, comb.n_lines + 1))
        rng.shuffle(perm)
        assert is_isomorphic(comb, apply_line_permutation(comb, tuple(perm)))


def test_validate_collects_all_pairwise_defects():
    rng = random.Random(5)
    for _ in range(200):
        comb = random_combinatorics(rng)
        # removing one multi-point uncovers exactly its pairs
        victim = max(comb.points, key=len)
        broken = Combinatorics(
            comb.lines, [p for p in comb.points if p != victim]
        )
        report = broken.validate()
        assert set(report.uncovered_pairs) == set(combinations(victim, 2))
