"""Triangle gluings: conditions, search, glued objects, and their laws."""

import random
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    block_swap,
    coincident_arrangements,
    count_inverses,
    exact_point_groups,
    random_arrangement,
    random_inner_cyclic,
    random_invertible_map,
    random_triangle_safe_combinatorics,
)
from zarpair import cyclotomic, gluing, realization
from zarpair.catalog import (
    extended_maclane_explicit,
    extended_maclane_realization,
    maclane_character,
    rybnikov_character,
    rybnikov_explicit,
)
from zarpair.characters import Character, is_inner_cyclic_def
from zarpair.combinatorics import (
    Combinatorics,
    NoTriangleError,
    apply_line_permutation,
    is_isomorphic,
    ordered_equal,
    triangle_cycle,
)
from zarpair.cyclotomic import CycloNum, _residue_map, dot
from zarpair.gluing import (
    GluingSearchExhausted,
    GluingSpec,
    _prime_pairs,
    check_generic,
    check_gluing,
    find_generic_gluing,
    glue_arrangements,
    glue_characters,
    glue_combinatorics,
)
from zarpair.realization import (
    Arrangement,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    derive_combinatorics,
    intersect,
)

ZERO, ONE = CycloNum.zero(3), CycloNum.one(3)


def identity_map(order=3):
    one, zero = CycloNum.one(order), CycloNum.zero(order)
    return ProjMap([[one, zero, zero], [zero, one, zero], [zero, zero, one]])


def triangle_arrangement(order=3, names=("T1", "T2", "T3")):
    one, zero = CycloNum.one(order), CycloNum.zero(order)
    return Arrangement(
        order,
        [
            ProjLine(names[0], (one, zero, zero)),
            ProjLine(names[1], (zero, one, zero)),
            ProjLine(names[2], (zero, zero, one)),
        ],
    )


@pytest.fixture(scope="module")
def m_plus():
    return extended_maclane_realization("+")


@pytest.fixture(scope="module")
def m_minus():
    return extended_maclane_realization("-")


@pytest.fixture(scope="module")
def spec_pp(m_plus):
    return find_generic_gluing(m_plus, m_plus)


@pytest.fixture(scope="module")
def spec_pm(m_plus, m_minus):
    return find_generic_gluing(m_plus, m_minus)


@pytest.fixture(scope="module")
def r15(spec_pp):
    return glue_arrangements(spec_pp)


def candidate_specs(left, right, k):
    """The first k candidate specs, built with the reference normalization
    and an explicit diagonal map."""
    order = left.order
    m_left = reference_triangle_normalization(left)
    m_right_inv = reference_triangle_normalization(right).inverse()
    zero, one = CycloNum.zero(order), CycloNum.one(order)
    specs = []
    for s, t in islice(_prime_pairs(), k):
        diag = ProjMap([
            [one, zero, zero],
            [zero, CycloNum.from_rational(order, s), zero],
            [zero, zero, CycloNum.from_rational(order, t)],
        ])
        phi = m_left.compose(diag).compose(m_right_inv)
        specs.append(GluingSpec(left, right, phi, parameter=(s, t)))
    return specs


class TestCheckGluing:
    def test_found_gluing_passes(self, spec_pp):
        assert check_gluing(spec_pp)

    def test_line_collision_fails(self, m_plus):
        # right arrangement with lines 4 and 5 swapped: the identity then
        # sends its line 4 onto left line 5
        swapped = Arrangement(
            3,
            [
                m_plus.line(1), m_plus.line(2), m_plus.line(3),
                m_plus.line(5), m_plus.line(4),
            ]
            + [m_plus.line(i) for i in range(6, 10)],
        )
        spec = GluingSpec(m_plus, swapped, identity_map())
        assert not check_gluing(spec)

    def test_concurrent_triangle_is_an_error(self):
        pencil = Arrangement(
            3,
            [
                ProjLine("P1", (ONE, ZERO, ZERO)),
                ProjLine("P2", (ONE, ONE, ZERO)),
                ProjLine("P3", (ONE, -ONE, ZERO)),
            ],
        )
        spec = GluingSpec(pencil, pencil, identity_map())
        with pytest.raises(NoTriangleError):
            check_gluing(spec)

    def test_fewer_than_three_lines_is_an_error(self):
        two = Arrangement(3, triangle_arrangement().lines[:2])
        spec = GluingSpec(two, two, identity_map())
        for call in (check_gluing, check_generic):
            with pytest.raises(NoTriangleError):
                call(spec)
        with pytest.raises(NoTriangleError):
            find_generic_gluing(two, two)

    def test_glue_combinatorics_on_fewer_than_three_lines_is_an_error(self):
        two = Combinatorics(["A", "B"], [[1, 2]])
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        for left, right in ((two, tri), (tri, two)):
            with pytest.raises(
                NoTriangleError, match="^2 lines; a triangle to glue along needs three$"
            ):
                glue_combinatorics(left, right)

    def test_no_intersection_or_inverse(self, spec_pm, monkeypatch):
        """check_gluing reads the triangle guard off det F: no vertex is
        made or normalized."""
        calls = {"inverse": 0, "intersect": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(CycloNum, "inverse", counted("inverse", CycloNum.inverse))
        # counted in every module that binds the name, as imports copy it
        for module in (realization, gluing):
            if hasattr(module, "intersect"):
                monkeypatch.setattr(
                    module, "intersect", counted("intersect", module.intersect)
                )
        assert check_gluing(spec_pm)
        assert calls == {"inverse": 0, "intersect": 0}


class TestCheckGeneric:
    def test_found_gluings_are_generic(self, spec_pp, spec_pm):
        assert check_generic(spec_pp)
        assert check_generic(spec_pm)

    def test_identity_self_gluing_is_not_generic(self, m_plus):
        spec = GluingSpec(m_plus, m_plus, identity_map())
        assert not check_generic(spec)  # every line and point collides

    def test_wrong_vertex_matching_fails(self, m_plus):
        # glue against the arrangement with lines 2 and 3 exchanged: the
        # vertex 1^2 of the right side lands on the vertex 1^3 of the left
        swapped = Arrangement(
            3,
            [m_plus.line(1), m_plus.line(3), m_plus.line(2)]
            + [m_plus.line(i) for i in range(4, 10)],
        )
        spec = find_generic_gluing(swapped, swapped)
        mismatched = GluingSpec(m_plus, swapped, spec.map)
        assert not check_generic(mismatched)


def coordinate_triangle(*extra):
    """The lines x = 0, y = 0, z = 0, then lines with the given integer
    coefficients, at order 3."""
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + list(extra)
    return Arrangement(3, [
        ProjLine(f"L{i}", tuple(CycloNum.from_rational(3, c) for c in row))
        for i, row in enumerate(rows, 1)
    ])


def spec_onto(left, target):
    """A spec whose map, diag(1, 2, 5), carries its right side onto
    ``target``; the right side is ``target`` moved by the inverse map."""
    phi = ProjMap([
        [ONE, ZERO, ZERO],
        [ZERO, CycloNum.from_rational(3, 2), ZERO],
        [ZERO, ZERO, CycloNum.from_rational(3, 5)],
    ])
    return GluingSpec(left, apply_map(target, phi.inverse()), phi, 3)


def off_triangle_points(arr):
    return [p for p, through in arr.singular_points().items() if through[1] > 3]


class TestGenericBranches:
    """Each way a gluing along the coordinate triangle can stay or stop
    being generic, with the map diag(1, 2, 5) in between."""

    def test_extra_lines_through_a_shared_vertex(self):
        # x = y and x = 2y both pass through the vertex [0 : 0 : 1] of
        # lines 1 and 2; the glued arrangement merges them there
        left = coordinate_triangle((1, -1, 0), (1, 1, 1))
        target = coordinate_triangle((1, -2, 0), (1, 2, 3))
        spec = spec_onto(left, target)
        assert check_generic(spec)
        glued = derive_combinatorics(glue_arrangements(spec))
        expected = glue_combinatorics(
            derive_combinatorics(left), derive_combinatorics(spec.right)
        )
        assert ordered_equal(glued, expected)
        assert (1, 2, 4, 6) in glued.points

    def test_right_point_on_an_unshared_left_line(self):
        # the right lines 4 and 5 meet at [1 : 1 : -2], on left line 4
        left = coordinate_triangle((1, 1, 1))
        target = coordinate_triangle((1, 3, 2), (3, 1, 2))
        spec = spec_onto(left, target)
        assert intersect(target.line(4), target.line(5)).lies_on(left.line(4))
        assert not any(
            p.lies_on(img) for p in off_triangle_points(left) for img in spec._images[3:]
        )
        assert check_gluing(spec)
        assert not check_generic(spec)

    def test_left_point_on_an_unshared_image_line(self):
        # the mirror: left lines 4 and 5 meet on the image of right line 4
        left = coordinate_triangle((1, 3, 2), (3, 1, 2))
        target = coordinate_triangle((1, 1, 1))
        spec = spec_onto(left, target)
        assert intersect(left.line(4), left.line(5)).lies_on(spec._images[3])
        assert not any(
            spec.map.apply_point(p).lies_on(l)
            for p in off_triangle_points(spec.right)
            for l in left.lines[3:]
        )
        assert check_gluing(spec)
        assert not check_generic(spec)


class TestFindGenericGluing:
    def test_catalog_pairs_within_budget(self, spec_pp, spec_pm):
        assert spec_pp.parameter is not None
        assert spec_pm.parameter is not None

    def test_two_bare_triangles(self):
        spec = find_generic_gluing(triangle_arrangement(), triangle_arrangement())
        assert check_generic(spec)
        assert spec.parameter == (2, 3)  # nothing to collide: first pair works

    def test_each_side_grouped_once_per_search(self, r15, m_plus, monkeypatch):
        """The search groups each side's points once and shares the groups
        with its candidates, including one that check_generic rejects."""
        grouped, answers = [], []

        def grouping(arr):
            grouped.append(arr)
            return realization._point_groups(arr)

        def generic(spec):
            answers.append(check_generic(spec))
            return answers[-1]

        monkeypatch.setattr(gluing, "_point_groups", grouping)
        monkeypatch.setattr(gluing, "check_generic", generic)
        find_generic_gluing(r15, m_plus)
        assert answers[0] is False and answers[-1] is True
        assert sorted(map(id, grouped)) == sorted([id(r15), id(m_plus)])

    def test_exhaustion_is_reported(self, m_plus):
        with pytest.raises(GluingSearchExhausted):
            find_generic_gluing(m_plus, m_plus, max_candidates=0)

    def test_order_mismatch_rejected(self, m_plus):
        with pytest.raises(ValueError, match="order"):
            find_generic_gluing(m_plus, triangle_arrangement(order=6))

    def test_random_arrangements_glue(self):
        rng = random.Random(321)
        found = 0
        for _ in range(5):
            left = random_arrangement(rng, max_lines=5)
            right = random_arrangement(rng, max_lines=5)
            try:
                spec = find_generic_gluing(left, right)
            except NoTriangleError:
                continue  # generator may produce concurrent first triples
            assert check_generic(spec)
            # the arrangement-level and combinatorial gluings agree
            assert ordered_equal(
                derive_combinatorics(glue_arrangements(spec)),
                glue_combinatorics(
                    derive_combinatorics(left), derive_combinatorics(right)
                ),
            )
            found += 1
        assert found >= 2


def catalog_pairs(m_plus, m_minus, r15):
    """(R15, M+), (R15, M-), (M+, M-), and M+ against itself with lines 4
    and 5 exchanged."""
    swapped = Arrangement(3, [m_plus.line(i) for i in (1, 2, 3, 5, 4, 6, 7, 8, 9)])
    return [(r15, m_plus), (r15, m_minus), (m_plus, m_minus), (m_plus, swapped)]


class TestSearchAgainstPublicChecks:
    """The search decides as the public checks do on its candidates."""

    def test_search_succeeds_exactly_when_a_candidate_passes(
        self, m_plus, m_minus, r15
    ):
        rejected = 0
        for left, right in catalog_pairs(m_plus, m_minus, r15):
            specs = candidate_specs(left, right, 10)
            passing = [check_gluing(spec) and check_generic(spec) for spec in specs]
            rejected += passing.count(False)
            for k in range(11):
                first = next((i for i in range(k) if passing[i]), None)
                if first is None:
                    with pytest.raises(GluingSearchExhausted):
                        find_generic_gluing(left, right, max_candidates=k)
                    continue
                spec = find_generic_gluing(left, right, max_candidates=k)
                assert spec.parameter == specs[first].parameter
                assert spec.map == specs[first].map
        # (R15, M+) and (R15, M-) settle on (3, 5) after turning down (2, 3)
        # and (2, 5); (2, 7) and (2, 11) later in the ten fail as well
        assert rejected >= 2

    def test_all_colliding_spec_fails_public_checks(self, m_plus):
        spec = GluingSpec(m_plus, m_plus, identity_map())
        assert not check_gluing(spec) and not check_generic(spec)
        assert [line.coeffs for line in spec._images] == [
            line.coeffs for line in m_plus.lines
        ]


def reference_triangle_vertices(arr: Arrangement) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """Pairwise intersections of the first three lines; error when there are
    fewer than three lines or they are concurrent."""
    if arr.n_lines < 3:
        raise NoTriangleError(
            f"{arr.n_lines} lines; a triangle to glue along needs three"
        )
    v12 = intersect(arr.line(1), arr.line(2))
    v23 = intersect(arr.line(2), arr.line(3))
    v13 = intersect(arr.line(1), arr.line(3))
    if len({v12, v23, v13}) != 3:
        raise NoTriangleError(
            "the first three lines are concurrent; no triangle to glue along"
        )
    return v12, v23, v13


def reference_triangle_normalization(arr: Arrangement) -> ProjMap:
    """The earlier normalization, kept verbatim as a reference: it builds
    the vertex matrix, inverts it and solves for the reference point."""
    order = arr.order
    v12, v23, v13 = reference_triangle_vertices(arr)
    triangle = [arr.line(1), arr.line(2), arr.line(3)]

    def off_triangle(p: ProjPoint) -> bool:
        return not any(p.lies_on(line) for line in triangle)

    ref: ProjPoint | None = None
    if arr.n_lines >= 5:
        candidate = intersect(arr.line(4), arr.line(5))
        if off_triangle(candidate):
            ref = candidate
    if ref is None:
        for t in range(1, 8):
            candidate = ProjPoint(
                (
                    CycloNum.one(order),
                    CycloNum.from_rational(order, t),
                    CycloNum.from_rational(order, t * t),
                )
            )
            if off_triangle(candidate):
                ref = candidate
                break
    assert ref is not None

    # Columns scale the vertex coordinates so the unit point maps to ref:
    # solve V * lam = ref with V the matrix whose columns are the vertices.
    v_cols = (v23.coords, v13.coords, v12.coords)  # images of e0, e1, e2
    v_matrix = ProjMap([[v_cols[c][r] for c in range(3)] for r in range(3)])
    lam = v_matrix.inverse().apply_point(ref).coords
    return ProjMap(
        [[v_cols[c][r] * lam[c] for c in range(3)] for r in range(3)]
    )


def reference_check_generic(spec: GluingSpec) -> bool:
    """The earlier check_generic, kept verbatim as a reference: it maps the
    triangle vertices and tests coincidences point by point, on the points
    of the exact pair-by-pair grouping."""
    left, right, phi = spec.left, spec.right, spec.map
    lv12, lv23, lv13 = reference_triangle_vertices(left)
    rv12, rv23, rv13 = reference_triangle_vertices(right)
    if (
        phi.apply_point(rv12) != lv12
        or phi.apply_point(rv23) != lv23
        or phi.apply_point(rv13) != lv13
    ):
        return False

    left_coeffs = {line.coeffs for line in left.lines}
    images = spec._images[3:]
    if any(img.coeffs in left_coeffs for img in images):
        return False

    vertices_left = {lv12, lv23, lv13}
    vertices_right = {rv12, rv23, rv13}
    sing_left = exact_point_groups(spec.left)
    sing_right = exact_point_groups(spec.right)

    # A right singular point on a right triangle line necessarily lands on
    # the matching left triangle line; anything beyond that is a collision.
    for p, through in sing_right.items():
        if p in vertices_right:
            continue
        q = phi.apply_point(p)
        if q in sing_left:
            return False
        for j, line in enumerate(left.lines, start=1):
            if q.lies_on(line) and not (j <= 3 and j in through):
                return False
    for p in sing_left:
        if p in vertices_left:
            continue
        if any(p.lies_on(img) for img in images):
            return False
    return True


def decide(check, spec):
    """The check's answer, or the type of the exception it raised."""
    try:
        return check(spec)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


def random_pair_specs(seed):
    """Specs on a pair of random arrangements: the search's first six
    candidates when both triangles normalize, an identity spec with three
    shared lines, and the identity self-gluing of the left side."""
    rng = random.Random(seed)
    left = random_arrangement(rng, max_lines=6)
    right = random_arrangement(rng, max_lines=6)
    specs = [
        GluingSpec(left, right, identity_map(), 3),
        GluingSpec(left, left, identity_map(), 3),
    ]
    try:
        specs += candidate_specs(left, right, 6)
    except NoTriangleError:
        pass  # a concurrent first triple; the identity specs still raise
    return specs


class TestGenericParity:
    """check_generic decides as the reference does, on specs that include
    non-generic gluings and triangles that cannot be glued along."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_pairs(self, seed):
        for spec in random_pair_specs(seed):
            assert decide(check_generic, spec) == decide(reference_check_generic, spec)

    def test_catalog_and_seeded_pairs(self, m_plus, m_minus, r15):
        specs = [
            spec
            for left, right in catalog_pairs(m_plus, m_minus, r15)
            for spec in candidate_specs(left, right, 10)
        ]
        catalog_count = len(specs)
        specs += [spec for seed in range(120) for spec in random_pair_specs(seed)]
        answers = [decide(check_generic, spec) for spec in specs]
        assert answers == [decide(reference_check_generic, spec) for spec in specs]
        non_generic = [
            i for i, (spec, answer) in enumerate(zip(specs, answers))
            if answer is False and check_gluing(spec)
        ]
        # 6 among the catalog candidates, 9 among the seeded random ones
        assert sum(i < catalog_count for i in non_generic) >= 5
        assert sum(i >= catalog_count for i in non_generic) >= 5
        assert NoTriangleError in answers


def scaled_map(spec, factor):
    """The spec with its matrix scaled by ``factor``: the same projective map
    and the same images."""
    rows = [[x * factor for x in row] for row in spec.map.rows]
    return GluingSpec(spec.left, spec.right, ProjMap(rows), spec.parameter)


def coincident_pair_specs(left, right):
    """The identity spec and the first four search candidates on two
    arrangements, when their triangles allow them."""
    specs = [GluingSpec(left, right, identity_map(left.order))]
    try:
        specs += candidate_specs(left, right, 4)
    except NoTriangleError:
        pass
    return specs


class TestGenericParityOfTheGrouping:
    """check_generic on fingerprinted point groups decides nothing on a
    fingerprint: bad primes, tiny primes, unnormalized maps and
    coincidence-rich arrangements leave every answer equal to the
    reference's."""

    @settings(max_examples=40, deadline=None)
    @given(coincident_arrangements(orders=(3,)), coincident_arrangements(orders=(3,)))
    def test_coincident_arrangements(self, left, right):
        for spec in coincident_pair_specs(left, right):
            assert decide(check_generic, spec) == decide(reference_check_generic, spec)

    def test_scaled_map(self, m_plus, m_minus, r15):
        """Right points are mapped by the rows of the matrix, unnormalized:
        scaling the matrix changes no answer."""
        answers = []
        for left, right in catalog_pairs(m_plus, m_minus, r15)[1:]:
            for spec in candidate_specs(left, right, 4):
                bad = scaled_map(spec, CycloNum.zeta(3) * Fraction(-2, 7))
                assert [l.coeffs for l in bad._images] == [l.coeffs for l in spec._images]
                answers.append(check_generic(bad))
                assert answers[-1] == check_generic(spec) == reference_check_generic(spec)
        assert True in answers and False in answers

    def test_tail_line_with_a_bad_prime(self, m_plus):
        """A left tail line whose coefficient has the first prime as its
        denominator: the left points are grouped at the next prime."""
        p = _residue_map(3, 0).p
        third = CycloNum.from_rational(3, Fraction(1, p))
        lines = list(m_plus.lines)
        a, b, c = lines[8].coeffs
        lines[8] = ProjLine(lines[8].name, (a, b + third, c))
        left = Arrangement(3, lines)
        assert _residue_map(3, 0).vector(left.line(9).coeffs) is None
        specs = candidate_specs(left, m_plus, 6) + candidate_specs(m_plus, left, 6)
        for spec in specs:
            assert decide(check_generic, spec) == decide(reference_check_generic, spec)

    def test_tiny_primes(self, m_plus, m_minus, r15, monkeypatch):
        """Points grouped at primes above 6, where keys collide often."""
        specs = [
            spec
            for left, right in catalog_pairs(m_plus, m_minus, r15)
            for spec in candidate_specs(left, right, 6)
        ]
        specs += [spec for seed in range(40) for spec in random_pair_specs(seed)]
        expected = [decide(reference_check_generic, spec) for spec in specs]
        monkeypatch.setattr(cyclotomic, "_PRIME_FLOOR", 6)
        assert _residue_map(3, 0).p == 7
        assert [decide(check_generic, spec) for spec in specs] == expected
        assert True in expected and False in expected

    def test_no_inverse(self, spec_pm, monkeypatch):
        """check_generic on the found (M+, M-) gluing takes no inverse: the
        points stay unnormalized cross products."""
        calls = count_inverses(monkeypatch)
        assert check_generic(spec_pm)
        assert calls[0] == 0

    def test_no_exact_point_line_dot(self, spec_pm, monkeypatch):
        """check_generic on the found (M+, M-) gluing settles every
        (point, tail line) pair by a nonzero residue: its only exact dots at
        the gluing level are the two frame determinants of check_gluing."""
        dots = record_gluing_dots(monkeypatch)
        assert check_gluing(spec_pm)
        assert len(dots) == 2
        dots.clear()
        assert check_generic(spec_pm)
        assert len(dots) == 2

    def test_zero_residues_fall_back_to_exact(self, spec_pm, monkeypatch):
        """At the prime 7 non-incident (point, line) pairs get zero residues;
        each is settled by its exact dot product, which is nonzero, and the
        answer stays the reference's."""
        monkeypatch.setattr(cyclotomic, "_PRIME_FLOOR", 6)
        assert _residue_map(3, 0).p == 7
        # a spec of its own carries no groups from the search: it is grouped at 7
        spec = GluingSpec(spec_pm.left, spec_pm.right, spec_pm.map)
        dots = record_gluing_dots(monkeypatch)
        assert check_generic(spec) and reference_check_generic(spec)
        exact = dots[2:]  # after the frame determinants
        assert exact and not any(x.is_zero() for x in exact)


def record_gluing_dots(monkeypatch) -> list:
    """Wrap the ``dot`` that gluing calls; the list collects the results."""
    results = []

    def recorded(xs, ys):
        results.append(dot(xs, ys))
        return results[-1]

    monkeypatch.setattr(gluing, "dot", recorded)
    return results


def lifted(arr, order):
    """The arrangement with its coefficients lifted to ``order``."""
    if order == arr.order:
        return arr
    return Arrangement(order, [
        ProjLine(l.name, tuple(c.lift(order) for c in l.coeffs)) for l in arr.lines
    ])


def reference_find_generic_gluing(left, right, max_candidates=200):
    """The earlier candidate search, kept verbatim as a reference but for
    the reference normalization: it normalizes both triangles, inverts the
    right normalization and composes two maps per candidate."""
    if left.order != right.order:
        raise ValueError(
            f"cyclotomic orders differ ({left.order} vs {right.order}); lift first"
        )
    m_left = reference_triangle_normalization(left)
    m_right_inv = reference_triangle_normalization(right).inverse()
    pairs = _prime_pairs()
    for _ in range(max_candidates):
        s, t = next(pairs)
        # m_left diag(1, s, t): columns 2 and 3 of m_left scaled by s and t
        scaled = ProjMap([(a, b * s, c * t) for a, b, c in m_left.rows])
        phi = scaled.compose(m_right_inv)
        spec = GluingSpec(left, right, phi, parameter=(s, t))
        if check_gluing(spec) and check_generic(spec):
            return spec
    raise GluingSearchExhausted(
        f"no generic gluing within {max_candidates} diagonal candidates; "
        "extend the parameter sequence"
    )


def normalization_input(seed, order):
    """M+, M- or random lines at ``order``, sometimes with line 3 put
    through the point of lines 1 and 2 or cut to one or two lines, then
    moved by a random map."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        lines = list(lifted(extended_maclane_realization(rng.choice("+-")), order).lines)
    else:
        lines = list(random_arrangement(rng, order, max_lines=7).lines)
    shape = rng.choice(["as drawn", "concurrent", "cut"])
    if shape == "concurrent":
        c = rng.choice([-1, 1, 2])
        third = ProjLine("C", tuple(
            a + b * c for a, b in zip(lines[0].coeffs, lines[1].coeffs)
        ))
        lines = lines[:2] + [third] + [l for l in lines[3:] if not l.same_line(third)]
    elif shape == "cut":
        lines = lines[:rng.randint(1, 2)]
    arr = Arrangement(order, lines)
    return apply_map(arr, random_invertible_map(rng, order, rng.random() < 0.5))


def normalization_branch(arr):
    """The way the reference normalization goes on ``arr``."""
    if arr.n_lines < 3:
        return "fewer than 3 lines"
    if intersect(arr.line(1), arr.line(2)).lies_on(arr.line(3)):
        return "concurrent first triple"
    if arr.n_lines < 5:
        return "3 or 4 lines"
    p = intersect(arr.line(4), arr.line(5))
    if any(p.lies_on(arr.line(i)) for i in (1, 2, 3)):
        return "lines 4 and 5 meet on the triangle"
    return "lines 4 and 5 meet off the triangle"


def partner(seed, order):
    """M+ or M- at ``order``, moved by a random map: a side with a triangle
    to glue ``normalization_input(seed, order)`` to."""
    rng = random.Random(-1 - seed)
    arr = lifted(extended_maclane_realization(rng.choice("+-")), order)
    return apply_map(arr, random_invertible_map(rng, order, rng.random() < 0.5))


def found(search, left, right):
    """The map and parameter that ``search`` finds within twelve candidates,
    which keep an exhausted search cheap."""
    spec = search(left, right, max_candidates=12)
    return spec.map, spec.parameter


def assert_same_search(arr, other):
    """In both directions, the search finds what the reference finds, or
    raises the same type of exception."""
    for left, right in ((arr, other), (other, arr)):
        outcome = partial(found, left=left, right=right)
        assert decide(outcome, find_generic_gluing) == decide(
            outcome, reference_find_generic_gluing
        )


class TestNormalizationParity:
    """The frame formula adj(F_L) diag(d0, s d1, t d2) F_R builds the map the
    reference search builds from normalizations, an inverse and compositions,
    or raises the same type of exception; the input side goes through every
    branch of the reference normalization."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 12]))
    def test_random_arrangements(self, seed, order):
        assert_same_search(normalization_input(seed, order), partner(seed, order))

    def test_every_branch_is_reached(self, m_plus, m_minus, r15):
        # (R15, M+) turns down (2, 3) and (2, 5) before it settles on (3, 5)
        cases = [(m_plus, m_minus), (r15, m_plus), (lifted(m_plus, 12), partner(0, 12))]
        cases += [
            (normalization_input(seed, order), partner(seed, order))
            for seed in range(30)
            for order in (3, 12)
        ]
        reached = set()
        for arr, other in cases:
            assert_same_search(arr, other)
            reached.add(normalization_branch(arr))
        assert normalization_branch(m_plus) == "lines 4 and 5 meet on the triangle"
        assert reached == {
            "fewer than 3 lines",
            "concurrent first triple",
            "3 or 4 lines",
            "lines 4 and 5 meet on the triangle",
            "lines 4 and 5 meet off the triangle",
        }

    def test_one_inverse_per_search_and_image_line(self, m_plus, m_minus, monkeypatch):
        """The search scales d with one inverse; each candidate's image lines
        take one each: 1 + 9 on M+ glued to M-, found at the first
        candidate (3 + 9 with the two normalizations and the inverse map)."""
        calls = count_inverses(monkeypatch)
        spec = find_generic_gluing(m_plus, m_minus)
        assert spec.parameter == (2, 3)
        assert calls[0] == 1 + m_minus.n_lines == 10


@st.composite
def realization_images(draw, order):
    """M+ and M- (lifted to ``order``) moved by drawn projective maps."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rational = draw(st.booleans())
    sides = []
    for sign in draw(st.sampled_from([("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")])):
        arr = lifted(extended_maclane_realization(sign), order)
        sides.append(apply_map(arr, random_invertible_map(rng, order, rational)))
    return sides


def assert_glued_combinatorics_agree(left, right):
    glued = derive_combinatorics(glue_arrangements(find_generic_gluing(left, right)))
    expected = glue_combinatorics(derive_combinatorics(left), derive_combinatorics(right))
    assert glued.lines == expected.lines
    assert set(glued.points) == set(expected.points)


class TestGluingOracle:
    """Gluing realizations, then deriving, equals gluing combinatorics."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 12]).flatmap(realization_images))
    def test_projective_images_of_maclane(self, sides):
        assert_glued_combinatorics_agree(*sides)

    def test_chained_pair(self, r15, m_minus):
        assert_glued_combinatorics_agree(r15, m_minus)


class TestGlueArrangements:
    def test_rybnikov_pair(self, spec_pp, spec_pm):
        r_plus = glue_arrangements(spec_pp)
        r_minus = glue_arrangements(spec_pm)
        assert r_plus.n_lines == r_minus.n_lines == 15
        assert [l.name for l in r_plus.lines] == [f"D{i}" for i in range(1, 16)]
        explicit = rybnikov_explicit()
        assert ordered_equal(derive_combinatorics(r_plus), explicit)
        assert ordered_equal(derive_combinatorics(r_minus), explicit)

    def test_failing_conditions_rejected(self, m_plus):
        spec = GluingSpec(m_plus, m_plus, identity_map())
        with pytest.raises(ValueError):
            glue_arrangements(spec)

    def test_renaming_takes_no_inverse(self, spec_pm, monkeypatch):
        """The glued lines are canonical already, so wrapping them under the
        names D1..D15 normalizes nothing (15 inverses of 1 before)."""
        calls = count_inverses(monkeypatch)
        assert glue_arrangements(spec_pm).n_lines == 15
        assert calls[0] == 0


class TestGlueCombinatorics:
    def test_reproduces_rybnikov(self):
        cm = extended_maclane_explicit()
        glued = glue_combinatorics(cm, cm)
        assert ordered_equal(glued, rybnikov_explicit())
        assert len(glued.points) == 14 + (14 - 3) + 6 * 6 == 61

    def test_two_bare_triangles(self):
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        glued = glue_combinatorics(tri, tri)
        assert glued.n_lines == 3
        assert sorted(glued.points) == [(1, 2), (1, 3), (2, 3)]

    def test_concurrent_triangle_rejected(self):
        pencil = Combinatorics(["A", "B", "C", "D"], [[1, 2, 3], [1, 4], [2, 4], [3, 4]])
        tri = Combinatorics(["A", "B", "C"], [[1, 2], [1, 3], [2, 3]])
        with pytest.raises(NoTriangleError):
            glue_combinatorics(pencil, tri)

    def test_agrees_with_arrangement_gluing(self, spec_pm):
        left = derive_combinatorics(spec_pm.left)
        right = derive_combinatorics(spec_pm.right)
        assert ordered_equal(
            glue_combinatorics(left, right),
            derive_combinatorics(glue_arrangements(spec_pm)),
        )

    def test_point_count_identity_random(self):
        rng = random.Random(77)
        for _ in range(50):
            c1 = random_triangle_safe_combinatorics(rng)
            c2 = random_triangle_safe_combinatorics(rng)
            glued = glue_combinatorics(c1, c2)
            n, k = c1.n_lines, c2.n_lines
            assert glued.validate().ok
            # cross pairs swallowed by a shared vertex carrying extra lines
            overlap = sum(
                (len(c1.point_through(i, j)) - 2) * (len(c2.point_through(i, j)) - 2)
                for i, j in [(1, 2), (1, 3), (2, 3)]
            )
            assert len(glued.points) == len(c1.points) + len(c2.points) - 3 + (
                n - 3
            ) * (k - 3) - overlap
            if overlap == 0:
                # the plain identity, exact when the vertices are bare doubles
                assert len(glued.points) == len(c1.points) + len(
                    c2.points
                ) - 3 + (n - 3) * (k - 3)

    def test_unordered_commutativity_random(self):
        rng = random.Random(88)
        for _ in range(25):
            c1 = random_triangle_safe_combinatorics(rng, max_lines=6)
            c2 = random_triangle_safe_combinatorics(rng, max_lines=6)
            g12 = glue_combinatorics(c1, c2)
            g21 = glue_combinatorics(c2, c1)
            n, k = c1.n_lines, c2.n_lines
            assert ordered_equal(apply_line_permutation(g12, block_swap(n, k)), g21)
            assert is_isomorphic(g12, g21) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_copy_swap_is_an_automorphism(self, seed):
        c = random_triangle_safe_combinatorics(random.Random(seed))
        glued = glue_combinatorics(c, c)
        swap = block_swap(c.n_lines, c.n_lines)
        assert ordered_equal(apply_line_permutation(glued, swap), glued)


class TestGlueCharacters:
    def test_catalog_glued_character(self):
        xi = maclane_character()
        glued = glue_characters(xi, xi, 3)
        assert glued.exponents == (0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2)
        assert glued.modulus == 3
        assert ordered_equal(glued.base, rybnikov_character().base)

    def test_trivial_glues_to_trivial(self):
        cm = extended_maclane_explicit()
        trivial = Character.trivial(cm, 3)
        glued = glue_characters(trivial, trivial, 3)
        assert all(e == 0 for e in glued.exponents)

    def test_mixed_moduli_reconciled_by_lcm(self):
        rng = random.Random(6)
        comb_a, char_a = random_inner_cyclic(rng)
        while char_a.modulus != 2:
            comb_a, char_a = random_inner_cyclic(rng)
        comb_b, char_b = random_inner_cyclic(rng)
        while char_b.modulus != 3:
            comb_b, char_b = random_inner_cyclic(rng)
        glued = glue_characters(char_a, char_b, 3)
        assert glued.modulus == 6
        n = comb_a.n_lines
        # values agree with the lifted factor values on both sides
        for i in range(4, n + 1):
            assert glued.value_on_line(i) == char_a.value_on_line(i).lift(6)
        for i in range(n + 1, glued.base.n_lines + 1):
            assert glued.value_on_line(i) == char_b.value_on_line(i - n + 3).lift(6)

    def test_product_one_holds_automatically(self):
        rng = random.Random(13)
        for _ in range(25):
            _, char_a = random_inner_cyclic(rng)
            _, char_b = random_inner_cyclic(rng)
            glued = glue_characters(char_a, char_b, 3)
            assert sum(glued.exponents) % glued.modulus == 0

    def test_length_mismatch_rejected(self):
        # characters glue along a triangle: exactly three shared lines
        xi = maclane_character()
        for l in (0, 2, 4, 9):
            with pytest.raises(ValueError, match="l = 3"):
                glue_characters(xi, xi, l)

    def test_fewer_than_three_lines_is_an_error(self):
        two = Character.trivial(Combinatorics(["A", "B"], [[1, 2]]), 3)
        with pytest.raises(NoTriangleError):
            glue_characters(two, two, 3)


def test_glued_triple_is_inner_cyclic_on_catalog():
    cr = rybnikov_explicit()
    chi = rybnikov_character()
    mu = triangle_cycle(cr, 1, 2, 3)
    assert is_inner_cyclic_def(cr, chi, mu)


def test_glued_triple_is_inner_cyclic_randomized():
    """Gluing two triangular inner-cyclic pairs stays inner-cyclic."""
    rng = random.Random(0xBEEF)
    for _ in range(60):
        comb_a, char_a = random_inner_cyclic(rng)
        comb_b, char_b = random_inner_cyclic(rng)
        glued = glue_characters(char_a, char_b, 3)
        mu = triangle_cycle(glued.base, 1, 2, 3)
        assert is_inner_cyclic_def(glued.base, glued, mu)
