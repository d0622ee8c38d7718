"""Incidence axioms, graphs, cycles and isomorphism on the catalog data."""

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
    def test_extended_maclane_counts(self, cm):
        graph = cm.incidence_graph()
        assert len(graph.vertices) == 9 + 14 == 23
        # edge count is the total point multiplicity
        assert graph.n_edges == sum(len(p) for p in cm.points) == 38

    def test_two_lines_one_point_is_a_path(self):
        comb = Combinatorics(["A", "B"], [[1, 2]])
        graph = comb.incidence_graph()
        assert len(graph.vertices) == 3
        assert graph.n_edges == 2

    def test_cached_graph_frees_with_its_structure(self):
        # the graph must not point back at the structure that caches it, or
        # both would wait for the cyclic collector
        comb = extended_maclane_explicit()
        comb.incidence_graph()
        ref = weakref.ref(comb)
        gc.disable()
        try:
            del comb
            assert ref() is None
        finally:
            gc.enable()

    def test_rybnikov_counts(self, cr):
        assert len(cr.incidence_graph().vertices) == 15 + 61 == 76

    def test_bipartite_no_isolated_points(self, cm):
        graph = cm.incidence_graph()
        for v in graph.point_vertices:
            assert graph.neighbors(v)
            assert all(u[0] == "L" for u in graph.neighbors(v))
        for v in graph.line_vertices:
            assert all(u[0] == "P" for u in graph.neighbors(v))


class TestTriangleCycle:
    def test_catalog_triangle(self, cm):
        cycle = triangle_cycle(cm, 1, 2, 3)
        assert cycle.support == {1, 2, 3}
        assert cycle.vertices[0] == ("L", 1)
        assert cycle.point_vertices == ((1, 2), (2, 3), (1, 3))
        assert cycle.is_cycle_of(cm.incidence_graph())

    def test_concurrent_lines_have_no_triangle(self):
        near_pencil = Combinatorics(
            ["A", "B", "C", "D"],
            [[1, 2, 3], [1, 4], [2, 4], [3, 4]],
        )
        with pytest.raises(NoTriangleError):
            triangle_cycle(near_pencil, 1, 2, 3)

    def test_rybnikov_triangle(self, cr):
        mu = triangle_cycle(cr, 1, 2, 3)
        assert mu.support == {1, 2, 3}
        assert mu.is_cycle_of(cr.incidence_graph())

    def test_support_is_exactly_the_three_lines(self, cm):
        cycle = triangle_cycle(cm, 4, 5, 7)
        assert cycle.support == {4, 5, 7}
        assert cycle.point_vertices == ((1, 4, 5, 6), (5, 7), (3, 4, 7))


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
