"""Exact projective geometry: intersections, derived combinatorics, maps."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from genutil import (
    coincident_arrangements,
    count_inverses,
    exact_point_groups,
    random_arrangement,
    random_invertible_map,
)
from zarpair import cyclotomic, realization
from zarpair.catalog import (
    extended_maclane_explicit,
    extended_maclane_realization,
)
from zarpair.combinatorics import ordered_equal
from zarpair.cyclotomic import CycloNum, _residue_map
from zarpair.gluing import find_generic_gluing, glue_arrangements
from zarpair.realization import (
    Arrangement,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    conjugate_arrangement,
    derive_combinatorics,
    intersect,
    rigidify,
)

ZERO, ONE = CycloNum.zero(3), CycloNum.one(3)
A = CycloNum.zeta(3)
ABAR = A.conjugate()


@pytest.fixture(scope="module")
def m_plus():
    return extended_maclane_realization("+")


def lifted(arr, order):
    return Arrangement(
        order,
        [ProjLine(l.name, tuple(c.lift(order) for c in l.coeffs)) for l in arr.lines],
    )


# Integer maps at order 3, and maps with entries such as z or z^5 at 3 and 12.
MAP_FIELDS = [(3, True), (3, False), (12, False)]


class TestCanonicalForm:
    def test_canonical_coefficients_kept_without_inverse(self, m_plus, monkeypatch):
        calls = count_inverses(monkeypatch)
        for line in m_plus.lines:
            assert ProjLine("copy", line.coeffs).coeffs == line.coeffs
        assert calls[0] == 0

    def test_pivot_scaled_to_one(self):
        two = CycloNum.from_rational(3, 2)
        line = ProjLine("L", (ZERO, two * A, two))
        assert line.coeffs == (ZERO, ONE, ABAR)

    def test_mixed_orders_rejected_with_unit_pivot(self):
        with pytest.raises(ValueError, match="order mismatch"):
            ProjLine("L", (ONE, CycloNum.one(4), ZERO))


class TestIntersect:
    def test_triangle_vertex(self, m_plus):
        # L2: x - abar*y and L3: x - a*y force x = y = 0
        p = intersect(m_plus.line(2), m_plus.line(3))
        assert p == ProjPoint((ZERO, ZERO, ONE))

    def test_triple_point_witness(self, m_plus):
        # L2 and L4 meet in [zeta : zeta^2 : 1], which also lies on L9
        p = intersect(m_plus.line(2), m_plus.line(4))
        assert p == ProjPoint((A, A * A, ONE))
        assert p.lies_on(m_plus.line(9))

    def test_coordinate_lines(self):
        z_axis = ProjLine("Z", (ZERO, ZERO, ONE))
        y_axis = ProjLine("Y", (ZERO, ONE, ZERO))
        assert intersect(z_axis, y_axis) == ProjPoint((ONE, ZERO, ZERO))

    def test_identical_lines_rejected(self, m_plus):
        doubled = ProjLine("copy", m_plus.line(1).coeffs)
        with pytest.raises(ValueError):
            intersect(m_plus.line(1), doubled)


class TestDeriveCombinatorics:
    def test_positive_realization(self, m_plus):
        assert ordered_equal(derive_combinatorics(m_plus), extended_maclane_explicit())

    def test_negative_realization(self):
        derived = derive_combinatorics(extended_maclane_realization("-"))
        assert ordered_equal(derived, extended_maclane_explicit())

    def test_three_generic_lines(self):
        arr = Arrangement(
            1,
            [
                ProjLine("X", (CycloNum.one(1), CycloNum.zero(1), CycloNum.zero(1))),
                ProjLine("Y", (CycloNum.zero(1), CycloNum.one(1), CycloNum.zero(1))),
                ProjLine("Z", (CycloNum.zero(1), CycloNum.zero(1), CycloNum.one(1))),
            ],
        )
        comb = derive_combinatorics(arr)
        assert sorted(comb.points) == [(1, 2), (1, 3), (2, 3)]

    def test_always_valid(self):
        rng = random.Random(4)
        for _ in range(50):
            arr = random_arrangement(rng)
            assert derive_combinatorics(arr).validate().ok

    def test_grouping_matches_pairwise_intersections(self, m_plus):
        comb = derive_combinatorics(m_plus)
        for point in comb.points:
            spots = {
                intersect(m_plus.line(i), m_plus.line(j))
                for i, j in combinations(point, 2)
            }
            assert len(spots) == 1


def rational_arrangement(rows):
    """An order-3 arrangement with the given rational coefficient rows."""
    return Arrangement(3, [
        ProjLine(f"L{i}", tuple(CycloNum.from_rational(3, c) for c in row))
        for i, row in enumerate(rows, 1)
    ])


def assert_grouped_exactly(arr):
    """singular_points and derive_combinatorics agree with the exact
    pair-by-pair grouping, points and their order included."""
    exact = exact_point_groups(arr)
    assert list(arr.singular_points().items()) == list(exact.items())
    assert derive_combinatorics(arr).points == tuple(sorted(exact.values()))


@pytest.fixture(scope="module")
def r15():
    m_plus = extended_maclane_realization("+")
    return glue_arrangements(find_generic_gluing(m_plus, m_plus))


@pytest.fixture
def tiny_primes(monkeypatch):
    """Residue maps from primes above 6 (7, 13, 19, ... at order 3), where
    keys collide and images vanish often; records each exact confirmation."""
    monkeypatch.setattr(cyclotomic, "_PRIME_FLOOR", 6)
    verdicts = []
    confirm = realization._confirmed

    def recorded(lines, group):
        verdicts.append(confirm(lines, group))
        return verdicts[-1]

    monkeypatch.setattr(realization, "_confirmed", recorded)
    return verdicts


class TestPointGroupingParity:
    """The fingerprinted grouping equals the exact one (genutil's oracle)."""

    @settings(max_examples=120, deadline=None)
    @given(coincident_arrangements())
    def test_coincident_arrangements(self, arr):
        assert_grouped_exactly(arr)

    def test_catalog_and_glued(self, m_plus, r15):
        for arr in (m_plus, extended_maclane_realization("-"), r15, lifted(m_plus, 12)):
            assert_grouped_exactly(arr)

    def test_bad_prime_moves_to_the_next(self):
        """A coefficient with the first prime as its denominator has no
        residue there; the grouping moves on and stays exact."""
        p = _residue_map(3, 0).p
        arr = rational_arrangement(
            [(1, Fraction(1, p), 2), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 1)]
        )
        assert _residue_map(3, 0).vector(arr.line(1).coeffs) is None
        assert _residue_map(3, 1).vector(arr.line(1).coeffs) is not None
        assert_grouped_exactly(arr)
        # lines 2, 3 and 4 meet in [0 : 0 : 1], whose pivot is last
        assert (2, 3, 4) in derive_combinatorics(arr).points

    def test_zero_image_moves_to_the_next(self):
        """x = 0 and x + p*y = 0 have one image mod the first prime p, so
        their cross product's image is zero there."""
        p = _residue_map(3, 0).p
        for rows in ([(1, 0, 0), (1, p, 0)], [(1, 0, 0), (1, p, 0), (0, 0, 1)]):
            arr = rational_arrangement(rows)
            assert_grouped_exactly(arr)
            assert (1, 2) in derive_combinatorics(arr).points

    def test_collisions_are_rejected_by_confirmation(self, tiny_primes, m_plus, r15):
        assert _residue_map(3, 0).p == 7
        rng = random.Random(5)
        arrangements = [m_plus, extended_maclane_realization("-"), r15]
        arrangements += [random_arrangement(rng, max_lines=8) for _ in range(30)]
        for arr in arrangements:
            assert_grouped_exactly(arr)
        assert False in tiny_primes  # some collision reached confirmation
        assert True in tiny_primes

    @settings(max_examples=60, deadline=None)
    @given(coincident_arrangements(orders=(3, 4)))
    def test_coincident_arrangements_at_tiny_primes(self, arr):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cyclotomic, "_PRIME_FLOOR", 6)
            assert_grouped_exactly(arr)


class TestNoInverseInIncidence:
    """Incidence decisions take no inverse; only building a canonical point
    for output does, once per point."""

    def test_derive_takes_no_inverse(self, r15, monkeypatch):
        calls = count_inverses(monkeypatch)
        assert len(derive_combinatorics(r15).points) == 61
        assert calls[0] == 0

    def test_singular_points_normalizes_once_per_point(self, r15, monkeypatch):
        calls = count_inverses(monkeypatch)
        assert len(r15.singular_points()) == 61
        assert calls[0] <= 61


class TestConjugate:
    def test_conjugate_swaps_realizations(self, m_plus):
        assert conjugate_arrangement(m_plus) == extended_maclane_realization("-")

    def test_involution(self, m_plus):
        assert conjugate_arrangement(conjugate_arrangement(m_plus)) == m_plus

    def test_rational_arrangement_fixed(self):
        rng = random.Random(11)
        arr = random_arrangement(rng)
        assert conjugate_arrangement(arr) == arr

    def test_preserves_combinatorics(self, m_plus):
        assert ordered_equal(
            derive_combinatorics(conjugate_arrangement(m_plus)),
            derive_combinatorics(m_plus),
        )


class TestApplyMap:
    def test_identity(self, m_plus):
        identity = ProjMap([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
        assert apply_map(m_plus, identity) == m_plus

    def test_inverse_round_trip(self, m_plus):
        for order, rational in MAP_FIELDS:
            rng = random.Random(17)
            m = random_invertible_map(rng, order, rational)
            arr = lifted(m_plus, order)
            assert apply_map(apply_map(arr, m), m.inverse()) == arr

    def test_compose_with_inverse_is_identity(self):
        rng = random.Random(29)
        for order, rational in MAP_FIELDS:
            one, zero = CycloNum.one(order), CycloNum.zero(order)
            identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
            for _ in range(5):
                m = random_invertible_map(rng, order, rational)
                assert m.compose(m.inverse()).rows == identity
                assert m.inverse().compose(m).rows == identity

    def test_det_is_multiplicative(self):
        rng = random.Random(31)
        for order, rational in MAP_FIELDS:
            for _ in range(5):
                m = random_invertible_map(rng, order, rational)
                n = random_invertible_map(rng, order, rational)
                assert m.compose(n).det() == m.det() * n.det()

    def test_apply_line_is_the_normalised_row_product_with_the_inverse(self, m_plus):
        rng = random.Random(37)
        for order, rational in MAP_FIELDS:
            m = random_invertible_map(rng, order, rational)
            inv = m.inverse().rows
            for line in lifted(m_plus, order).lines:
                u = line.coeffs
                row = [u[0] * inv[0][c] + u[1] * inv[1][c] + u[2] * inv[2][c]
                       for c in range(3)]
                lead = next(x for x in row if not x.is_zero())
                assert m.apply_line(line).coeffs == tuple(x / lead for x in row)

    def test_diagonal_fixes_coordinate_lines(self):
        arr = Arrangement(
            3,
            [
                ProjLine("X", (ONE, ZERO, ZERO)),
                ProjLine("Y", (ZERO, ONE, ZERO)),
                ProjLine("Z", (ZERO, ZERO, ONE)),
            ],
        )
        diag = ProjMap(
            [
                [CycloNum.from_rational(3, 2), ZERO, ZERO],
                [ZERO, CycloNum.from_rational(3, 5), ZERO],
                [ZERO, ZERO, ONE],
            ]
        )
        assert apply_map(arr, diag) == arr

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            ProjMap([[ONE, ZERO, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ONE]])

    def test_incidence_preserved(self, m_plus):
        for order, rational in MAP_FIELDS:
            rng = random.Random(23)
            m = random_invertible_map(rng, order, rational)
            arr = lifted(m_plus, order)
            point = intersect(arr.line(2), arr.line(4))
            image = m.apply_point(point)
            moved = apply_map(arr, m)
            assert image.lies_on(moved.line(2))
            assert image.lies_on(moved.line(4))
            assert image.lies_on(moved.line(9))


def test_projective_invariance_of_derived_combinatorics():
    """100 random invertible maps never change the derived combinatorics."""
    rng = random.Random(20240810)
    m_plus = extended_maclane_realization("+")
    reference = derive_combinatorics(m_plus)
    for trial in range(100):
        arr = m_plus if trial % 2 == 0 else random_arrangement(rng)
        expect = reference if trial % 2 == 0 else derive_combinatorics(arr)
        moved = apply_map(arr, random_invertible_map(rng))
        assert ordered_equal(derive_combinatorics(moved), expect)


class TestRigidify:
    def test_appends_line_through_both_points(self, m_plus):
        sing = {idxs: p for p, idxs in m_plus.singular_points().items()}
        bigger, report = rigidify(m_plus, sing[(5, 7)], sing[(2, 4, 9)])
        assert bigger.n_lines == 10
        assert sing[(5, 7)].lies_on(report.new_line)
        assert sing[(2, 4, 9)].lies_on(report.new_line)
        assert (2, 4, 9) in report.hit_singular_points
        assert (5, 7) in report.hit_singular_points
        assert derive_combinatorics(bigger).validate().ok

    def test_double_points_of_generic_four_lines(self):
        # four generic lines: add the line through two of the six vertices
        order = 1
        lines = [
            ProjLine("L1", tuple(CycloNum.from_rational(order, c) for c in row))
            for row in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        ]
        arr = Arrangement(order, lines)
        sing = {idxs: p for p, idxs in arr.singular_points().items()}
        bigger, report = rigidify(arr, sing[(1, 2)], sing[(3, 4)])
        assert bigger.n_lines == 5
        derived = derive_combinatorics(bigger)
        assert derived.validate().ok
        assert derived.point_through(1, 5) == derived.point_through(2, 5)

    def test_hits_are_exact_at_tiny_primes(self, m_plus, r15, monkeypatch):
        """With the points grouped at primes near 7, where keys collide,
        each report still lists exactly the points on the new line."""
        monkeypatch.setattr(cyclotomic, "_PRIME_FLOOR", 6)
        for arr in (m_plus, r15):
            sing = {idxs: p for p, idxs in arr.singular_points().items()}
            # points on a common line span that line, which rigidify refuses
            pairs = [
                (a, b) for a, b in combinations(sorted(sing), 2) if not set(a) & set(b)
            ]
            for a, b in pairs[:20]:
                _, report = rigidify(arr, sing[a], sing[b])
                assert report.hit_singular_points == tuple(
                    idxs for idxs, p in sorted(sing.items())
                    if p.lies_on(report.new_line)
                )

    def test_equal_points_rejected(self, m_plus):
        p = next(iter(m_plus.singular_points()))
        with pytest.raises(ValueError):
            rigidify(m_plus, p, p)

    def test_non_singular_point_rejected(self, m_plus):
        outside = ProjPoint(
            (ONE, CycloNum.from_rational(3, 17), CycloNum.from_rational(3, 23))
        )
        sing = next(iter(m_plus.singular_points()))
        with pytest.raises(ValueError, match="singular"):
            rigidify(m_plus, outside, sing)
