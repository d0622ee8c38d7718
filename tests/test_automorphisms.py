"""Automorphism groups: catalog orders, matrix model, kernel against brute
force and against networkx VF2."""

import gc
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from networkx import Graph
from networkx.algorithms.isomorphism import GraphMatcher

from genutil import grow_points, random_combinatorics, two_fans
from zarpair._kernel import search_line_maps
from zarpair.automorphisms import (
    compose_perms,
    copy_preserving_subgroup,
    cycle_notation,
    enumerate_automorphisms,
    group_stats,
    invert_perm,
    maclane_det,
    maclane_permutation_of_matrix,
    maclane_sign,
    matrix_of_maclane_automorphism,
    perm_order,
)
from zarpair.catalog import (
    extended_maclane_explicit,
    maclane_combinatorics,
    rybnikov_explicit,
)
from zarpair.combinatorics import (
    Combinatorics,
    apply_line_permutation,
    is_isomorphic,
)


@pytest.fixture(scope="module")
def aut_cm():
    return enumerate_automorphisms(extended_maclane_explicit())


@pytest.fixture(scope="module")
def aut_cr():
    return enumerate_automorphisms(rybnikov_explicit())


class TestEnumerate:
    def test_extended_maclane_order(self, aut_cm):
        assert aut_cm.order == 12

    def test_rybnikov_order(self, aut_cr):
        assert aut_cr.order == 144

    def test_maclane_order_is_gl2(self):
        assert enumerate_automorphisms(maclane_combinatorics()).order == 48

    def test_three_generic_lines(self):
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        group = enumerate_automorphisms(tri)
        assert group.order == 6  # full symmetric group

    def test_every_element_preserves_points(self, aut_cm):
        base = aut_cm.base
        for sigma in aut_cm.elements:
            assert set(apply_line_permutation(base, sigma).points) == set(base.points)

    def test_membership(self, aut_cm, aut_cr):
        for group in (aut_cm, aut_cr):
            base = group.base
            assert all(sigma in group and list(sigma) in group for sigma in group.elements)
            # a transposition of two lines that moves some point off the points
            n = base.n_lines
            swaps = [tuple(j if k == i else i if k == j else k for k in range(1, n + 1))
                     for i, j in itertools.combinations(range(1, n + 1), 2)]
            moved = [s for s in swaps
                     if set(apply_line_permutation(base, s).points) != set(base.points)]
            assert moved and not any(s in group for s in moved)

    def test_group_axioms_hold(self, aut_cm, aut_cr):
        aut_cm.verify_group_axioms()
        aut_cr.verify_group_axioms()

    def test_rybnikov_within_budget(self):
        start = time.perf_counter()
        enumerate_automorphisms(rybnikov_explicit())
        assert time.perf_counter() - start < 60


class TestStats:
    def test_extended_maclane_signature(self, aut_cm):
        stats = group_stats(aut_cm)
        assert stats.order == 12
        assert not stats.is_abelian
        assert stats.center_order == 2
        assert stats.element_order_histogram == {1: 1, 2: 7, 3: 2, 6: 2}

    def test_trivial_group(self):
        # chain of three lines rigidified by a fourth through two vertices?
        # use the smallest catalog witness instead: subgroup of identity
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        group = enumerate_automorphisms(tri)
        only_id = copy_preserving_subgroup(group, {1}, {2})
        stats = group_stats(only_id)
        assert stats.order == 1
        assert stats.is_abelian

    def test_rybnikov_stats(self, aut_cr):
        stats = group_stats(aut_cr)
        assert stats.order == 144
        assert not stats.is_abelian


class TestMatrixModel:
    def test_identity(self):
        assert matrix_of_maclane_automorphism(tuple(range(1, 10))) == ((1, 0), (0, 1))

    def test_bijection_onto_lower_triangular(self, aut_cm):
        matrices = {matrix_of_maclane_automorphism(s) for s in aut_cm.elements}
        assert len(matrices) == 12
        assert all(m[0][1] == 0 for m in matrices)

    def test_homomorphism(self, aut_cm):
        for s1, s2 in itertools.product(aut_cm.elements, repeat=2):
            m1 = matrix_of_maclane_automorphism(s1)
            m2 = matrix_of_maclane_automorphism(s2)
            product = tuple(
                tuple(
                    sum(m1[r][k] * m2[k][c] for k in range(2)) % 3 for c in range(2)
                )
                for r in range(2)
            )
            assert matrix_of_maclane_automorphism(compose_perms(s1, s2)) == product

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            matrix_of_maclane_automorphism((2, 1, 3, 4, 5, 6, 7, 8, 9))

    def test_round_trip_through_permutation(self, aut_cm):
        for sigma in aut_cm.elements:
            matrix = matrix_of_maclane_automorphism(sigma)
            assert maclane_permutation_of_matrix(matrix) == sigma


class TestSignAndDet:
    def test_identity(self):
        identity = tuple(range(1, 10))
        assert maclane_sign(identity) == 1
        assert maclane_det(identity) == 1

    def test_sign_tracks_a_entry(self, aut_cm):
        for sigma in aut_cm.elements:
            a_entry = matrix_of_maclane_automorphism(sigma)[0][0]
            assert maclane_sign(sigma) == (1 if a_entry == 1 else -1)

    def test_swap_matrix_has_negative_sign_and_det(self):
        sigma = maclane_permutation_of_matrix(((2, 0), (0, 1)))
        assert maclane_sign(sigma) == -1
        assert maclane_det(sigma) == -1

    def test_det_is_multiplicative(self, aut_cm):
        for s1, s2 in itertools.product(aut_cm.elements, repeat=2):
            assert maclane_det(compose_perms(s1, s2)) == maclane_det(s1) * maclane_det(s2)


class TestCopyPreserving:
    def test_rybnikov_copy_subgroup(self, aut_cr):
        subgroup = copy_preserving_subgroup(
            aut_cr, set(range(4, 10)), set(range(10, 16))
        )
        assert subgroup.order == 72  # index 2: the copy swap
        subgroup.verify_group_axioms()

    def test_symmetric_group_with_singleton_part(self):
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        group = enumerate_automorphisms(tri)
        subgroup = copy_preserving_subgroup(group, {1}, {2, 3})
        assert subgroup.order == 2

    def test_overlapping_parts_rejected(self, aut_cm):
        with pytest.raises(ValueError):
            copy_preserving_subgroup(aut_cm, {4, 5}, {5, 6})


class TestPermHelpers:
    def test_compose_and_invert(self):
        p = (2, 3, 1)
        assert compose_perms(p, invert_perm(p)) == (1, 2, 3)
        assert perm_order(p) == 3

    def test_cycle_notation(self):
        assert cycle_notation((1, 2, 3)) == "id"
        assert cycle_notation((2, 1, 3)) == "(1 2)"
        assert cycle_notation((2, 3, 1)) == "(1 2 3)"


def _zero_based(comb):
    return [tuple(i - 1 for i in p) for p in comb.points]


def _carries(perm, src, dst):
    """Whether the line permutation maps the point set src onto dst."""
    target = {frozenset(p) for p in dst}
    return len(src) == len(target) and all(
        frozenset(perm[a] for a in p) in target for p in src
    )


def _brute_force_maps(n, src, dst):
    """Every permutation of 0..n-1 carrying src onto dst, by enumeration."""
    return [
        perm for perm in itertools.permutations(range(n)) if _carries(perm, src, dst)
    ]


def _with_doubles(n, multiple):
    """The given multiple points plus a double point for every other pair."""
    covered = {pair for p in multiple for pair in itertools.combinations(p, 2)}
    pairs = itertools.combinations(range(1, n + 1), 2)
    return list(multiple) + [pair for pair in pairs if pair not in covered]


def _small_structures():
    rng = random.Random(2024)
    return [random_combinatorics(rng, max_lines=7) for _ in range(30)]


class TestKernelOracle:
    """The search kernel against an enumeration of all line permutations."""

    def test_catalog_maps_are_exactly_the_automorphisms(self):
        for comb in (maclane_combinatorics(), extended_maclane_explicit()):
            n, pts = comb.n_lines, _zero_based(comb)
            assert search_line_maps(n, pts, pts, True) == _brute_force_maps(n, pts, pts)
        # 15! permutations are out of reach: check each map directly, and
        # that the maps form a group of the order the paper gives.
        comb = rybnikov_explicit()
        pts = _zero_based(comb)
        maps = search_line_maps(comb.n_lines, pts, pts, True)
        assert len(maps) == len(set(maps)) == 144
        assert all(_carries(perm, pts, pts) for perm in maps)
        closed = set(maps)
        assert all(tuple(p[i] for i in q) in closed for p in maps for q in maps)

    def test_find_all_matches_brute_force(self):
        for comb in _small_structures():
            n, pts = comb.n_lines, _zero_based(comb)
            assert search_line_maps(n, pts, pts, True) == _brute_force_maps(n, pts, pts)

    def test_find_first_is_a_brute_force_map(self):
        for comb in _small_structures():
            n, pts = comb.n_lines, _zero_based(comb)
            first = search_line_maps(n, pts, pts, False)
            assert len(first) == 1 and first[0] in _brute_force_maps(n, pts, pts)
        for comb in (
            maclane_combinatorics(),
            extended_maclane_explicit(),
            rybnikov_explicit(),
        ):
            pts = _zero_based(comb)
            (first,) = search_line_maps(comb.n_lines, pts, pts, False)
            assert _carries(first, pts, pts)

    def test_two_structures_match_brute_force(self):
        rng = random.Random(7)
        structures = _small_structures()
        pairs = []
        for comb in structures:
            perm = list(range(1, comb.n_lines + 1))
            rng.shuffle(perm)
            pairs.append((comb, apply_line_permutation(comb, perm)))
        # Same line count and point sizes, but the two triple points share
        # a line in one structure and are disjoint in the other.
        labels = [f"L{i}" for i in range(1, 7)]
        shared = Combinatorics(labels, _with_doubles(6, [(1, 2, 3), (1, 4, 5)]))
        disjoint = Combinatorics(labels, _with_doubles(6, [(1, 2, 3), (4, 5, 6)]))
        pairs.append((shared, disjoint))
        pairs += [
            (a, b)
            for a, b in itertools.combinations(structures, 2)
            if a.n_lines == b.n_lines and len(a.points) == len(b.points)
        ]
        found = []
        for left, right in pairs:
            n = left.n_lines
            src, dst = _zero_based(left), _zero_based(right)
            brute = _brute_force_maps(n, src, dst)
            assert search_line_maps(n, src, dst, True) == brute
            first = search_line_maps(n, src, dst, False)
            assert (first == []) == (brute == [])
            assert all(m in brute for m in first)
            found.append(bool(brute))
        assert all(found[: len(structures)])  # every relabeled copy
        assert not found[len(structures)]  # the non-isomorphic pair

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_fan_pairs_follow_the_gcd_rule(self, k):
        # Point sizes and line signatures agree for every shift, so these
        # pairs reach the kernel's completed-point check; the random
        # structures above never depend on it.
        n = 3 + 2 * k
        for s1, s2 in itertools.combinations_with_replacement(range(1, k), 2):
            src, dst = _zero_based(two_fans(k, s1)), _zero_based(two_fans(k, s2))
            maps = search_line_maps(n, src, dst, True)
            assert bool(maps) == (math.gcd(s1, k) == math.gcd(s2, k)), (s1, s2)
            assert all(_carries(perm, src, dst) for perm in maps)

    def test_search_leaves_no_cyclic_garbage(self):
        comb = rybnikov_explicit()
        pts = _zero_based(comb)
        gc.collect()
        gc.disable()
        try:
            for find_all in (True, False):
                search_line_maps(comb.n_lines, pts, pts, find_all)
                search_line_maps(comb.n_lines, pts, list(pts), find_all)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _relabeled(comb, rng):
    perm = list(range(1, comb.n_lines + 1))
    rng.shuffle(perm)
    return apply_line_permutation(comb, tuple(perm))


class TestVisitOrder:
    """Fan lines are visited so that the triple points close early: a
    static order by candidate count alone places one whole fan before the
    other and takes seconds on these 19-line pairs."""

    @pytest.mark.parametrize("shift, isomorphic", [(2, False), (3, True)])
    def test_eight_line_fans_finish_quickly(self, shift, isomorphic):
        source = two_fans(8, 1)
        target = _relabeled(two_fans(8, shift), random.Random(shift))
        start = time.perf_counter()
        found = is_isomorphic(source, target)
        assert time.perf_counter() - start < 1.0
        if not isomorphic:
            assert found is None
            return
        assert found is not None
        assert apply_line_permutation(source, found).points == target.points


def _incidence_graph(comb):
    """Lines and points as nodes of two colours, joined by incidence."""
    graph = Graph()
    graph.add_nodes_from((("line", i) for i in range(1, comb.n_lines + 1)), kind="line")
    for t, p in enumerate(comb.points):
        graph.add_node(("point", t), kind="point")
        graph.add_edges_from((("line", i), ("point", t)) for i in p)
    return graph


def _vf2(c1, c2):
    return GraphMatcher(
        _incidence_graph(c1),
        _incidence_graph(c2),
        node_match=lambda a, b: a["kind"] == b["kind"],
    )


def _grown(comb, rng, steps):
    """``comb`` with ``steps`` points grown by one line each."""
    points = grow_points({frozenset(p) for p in comb.points}, comb.n_lines, rng, steps)
    return Combinatorics(comb.lines, [sorted(q) for q in points])


class TestVF2Oracle:
    """The kernel against networkx VF2 on the coloured incidence graph."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
    def test_isomorphism_decision_agrees(self, seed, steps, perturb):
        # Positives are relabeled copies; a perturbed pair grows the same
        # base twice along independent random choices, which is often
        # not isomorphic.
        rng = random.Random(seed)
        base = random_combinatorics(rng, max_lines=7)
        left = _grown(base, rng, steps)
        right = _grown(base, rng, steps) if perturb else left
        right = _relabeled(right, rng)
        assert right.validate().ok
        found = is_isomorphic(left, right)
        assert (found is not None) == _vf2(left, right).is_isomorphic()
        if found is not None:
            assert apply_line_permutation(left, found).points == right.points

    def test_random_structures_give_size_matched_negatives(self):
        # Sorting structures with equal point sizes into isomorphism classes
        # gives negatives that pass the size checks, so the kernel decides
        # them in its search; VF2 must agree on every comparison.
        rng = random.Random(7)
        groups = {}
        for _ in range(300):
            comb = random_combinatorics(rng, max_lines=7)
            key = (comb.n_lines, tuple(sorted(len(p) for p in comb.points)))
            groups.setdefault(key, []).append(comb)
        negatives = 0
        for group in groups.values():
            classes = []
            for comb in group:
                found = [is_isomorphic(comb, rep) is not None for rep in classes]
                assert found == [_vf2(comb, rep).is_isomorphic() for rep in classes]
                negatives += found.count(False)
                if not any(found):
                    classes.append(comb)
        assert negatives > 0

    def test_fan_decisions_agree(self):
        # Negatives whose line signatures agree, so the kernel decides
        # them by its completed-point check.
        rng = random.Random(4)
        for s1, s2 in itertools.combinations_with_replacement(range(1, 4), 2):
            left, right = two_fans(4, s1), _relabeled(two_fans(4, s2), rng)
            expected = _vf2(left, right).is_isomorphic()
            assert (is_isomorphic(left, right) is not None) == expected, (s1, s2)

    @pytest.mark.parametrize(
        "build, order",
        [(maclane_combinatorics, 48), (extended_maclane_explicit, 12)],
    )
    def test_automorphism_order_agrees(self, build, order):
        comb = build()
        vf2_order = sum(1 for _ in _vf2(comb, comb).isomorphisms_iter())
        assert enumerate_automorphisms(comb).order == vf2_order == order
