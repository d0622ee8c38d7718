"""Characters and the two inner-cyclic tests.

The distance test and the three-condition restatement are required to
agree everywhere; that equivalence is exercised on the catalog structures
with randomized characters, besides the worked examples.
"""

import random

import pytest

from genutil import random_character, random_inner_cyclic
from zarpair.catalog import (
    extended_maclane_explicit,
    maclane_character,
    maclane_combinatorics,
    rybnikov_character,
    rybnikov_explicit,
)
from zarpair.characters import (
    Character,
    is_inner_cyclic_def,
    is_inner_cyclic_remark,
)
from zarpair.combinatorics import apply_line_permutation, triangle_cycle
from zarpair.cyclotomic import CycloNum


@pytest.fixture(scope="module")
def cm():
    return extended_maclane_explicit()


@pytest.fixture(scope="module")
def xi(cm):
    return maclane_character()


class TestConstruction:
    def test_catalog_character(self, cm):
        char = Character(cm, 3, (0, 0, 0, 1, 1, 1, 2, 2, 2))
        assert char.value_on_line(4) == CycloNum.zeta(3)

    def test_trivial_character(self, cm):
        assert Character.trivial(cm).exponents == (0,) * 9

    def test_product_one_enforced(self, cm):
        with pytest.raises(ValueError, match="product-one"):
            Character(cm, 3, (1, 0, 0, 0, 0, 0, 0, 0, 0))

    def test_length_enforced(self, cm):
        with pytest.raises(ValueError, match="exponents"):
            Character(cm, 3, (0, 0, 0))


class TestExtendStar:
    def test_quadruple_point(self, xi):
        # 0 + 1 + 1 + 1 = 3 = 0 mod 3
        assert xi.extend_star((1, 4, 5, 6)) == CycloNum.one(3)

    def test_triple_point(self, xi):
        # 0 + 1 + 2 = 3 = 0 mod 3
        assert xi.extend_star((2, 4, 9)) == CycloNum.one(3)

    def test_nontrivial_value(self, xi):
        # 1 + 2 = 3 = 0; but 4, 8 carry 1 + 2 -> actually {4, 8}: 1 + 2 = 0
        assert xi.extend_star((4, 8)) == CycloNum.one(3)
        # {1, 2}: 0 + 0 = 0
        assert xi.extend_star((1, 2)) == CycloNum.one(3)

    def test_trivial_character_everywhere_one(self, cm):
        trivial = Character.trivial(cm)
        for p in cm.points:
            assert trivial.extend_star(p) == CycloNum.one(1)

    def test_unknown_point_rejected(self, xi):
        with pytest.raises(ValueError):
            xi.extend_star((1, 5))


class TestInnerCyclic:
    def test_catalog_pair_passes_both(self, cm, xi):
        cycle = triangle_cycle(cm, 1, 2, 3)
        assert is_inner_cyclic_def(cm, xi, cycle)
        assert is_inner_cyclic_remark(cm, xi, cycle)

    def test_nonzero_support_exponent_fails(self, cm):
        bad = Character(cm, 3, (0, 1, 2, 0, 0, 0, 0, 0, 0))
        cycle = triangle_cycle(cm, 1, 2, 3)
        assert not is_inner_cyclic_def(cm, bad, cycle)
        assert not is_inner_cyclic_remark(cm, bad, cycle)

    def test_trivial_character_always_passes(self, cm):
        cycle = triangle_cycle(cm, 1, 2, 3)
        trivial = Character.trivial(cm)
        assert is_inner_cyclic_def(cm, trivial, cycle)
        assert is_inner_cyclic_remark(cm, trivial, cycle)

    def test_glued_catalog_pair(self):
        cr = rybnikov_explicit()
        chi = rybnikov_character()
        mu = triangle_cycle(cr, 1, 2, 3)
        assert is_inner_cyclic_def(cr, chi, mu)
        assert is_inner_cyclic_remark(cr, chi, mu)

    def test_point_sum_violation_detected(self):
        # shifting weight between lines 4 and 5 keeps product-one and the
        # support values but breaks the sum at the triple point {2,4,9}
        cr = rybnikov_explicit()
        exps = list(rybnikov_character().exponents)
        exps[3] = 2  # line 4
        exps[4] = 0  # line 5
        bad = Character(cr, 3, tuple(exps))
        mu = triangle_cycle(cr, 1, 2, 3)
        assert bad.point_exponent((1, 4, 5, 6)) == 0  # this one still cancels
        assert bad.point_exponent((2, 4, 9)) != 0
        assert not is_inner_cyclic_def(cr, bad, mu)
        assert not is_inner_cyclic_remark(cr, bad, mu)

    def test_cycle_from_wrong_combinatorics_rejected(self, cm, xi):
        # a triangle through the second glued copy has no counterpart in
        # the 9-line structure
        foreign = triangle_cycle(rybnikov_explicit(), 4, 10, 11)
        with pytest.raises(ValueError):
            is_inner_cyclic_def(cm, xi, foreign)

    def test_triangle_with_the_same_lines_elsewhere_rejected(self, cm, xi):
        # lines (1, 2, 3) exist on M, but this triangle's vertices are those
        # of M with lines 3 and 4 swapped
        swapped = apply_line_permutation(cm, (1, 2, 4, 3, 5, 6, 7, 8, 9))
        foreign = triangle_cycle(swapped, 1, 2, 3)
        assert foreign.vertices == ((1, 2), (2, 3, 9), (1, 3, 5, 6))
        for test in (is_inner_cyclic_def, is_inner_cyclic_remark):
            with pytest.raises(ValueError, match="does not live"):
                test(cm, xi, foreign)


def test_definitions_agree_on_randomized_characters():
    """The distance test equals the three-condition test, 1000+ samples."""
    rng = random.Random(0xC0FFEE)
    catalog = [
        extended_maclane_explicit(),
        rybnikov_explicit(),
        maclane_combinatorics(),
    ]
    agreements = 0
    for _ in range(5000):
        if agreements >= 1000:
            break
        comb = rng.choice(catalog)
        modulus = rng.choice([2, 3, 4, 6])
        char = random_character(rng, comb, modulus)
        triple = rng.sample(range(1, comb.n_lines + 1), 3)
        p12 = comb.point_through(triple[0], triple[1])
        p13 = comb.point_through(triple[0], triple[2])
        p23 = comb.point_through(triple[1], triple[2])
        if len({p12, p13, p23}) != 3:
            continue
        cycle = triangle_cycle(comb, *triple)
        a = is_inner_cyclic_def(comb, char, cycle)
        b = is_inner_cyclic_remark(comb, char, cycle)
        assert a == b
        agreements += 1
    assert agreements >= 1000


def test_definitions_agree_on_constructed_inner_cyclic_pairs():
    """Positive instances: both tests accept pairs built to be inner-cyclic."""
    rng = random.Random(31337)
    for _ in range(100):
        comb, char = random_inner_cyclic(rng)
        cycle = triangle_cycle(comb, 1, 2, 3)
        assert is_inner_cyclic_def(comb, char, cycle)
        assert is_inner_cyclic_remark(comb, char, cycle)


def test_remark_condition_two_follows_from_one_and_three():
    """Logical relation among the three restated conditions: whenever the
    support values are 1 and all points on support lines have value 1, the
    lines through the cycle's vertex points are forced to value 1 as well."""
    rng = random.Random(1234)
    comb = extended_maclane_explicit()
    cycle = triangle_cycle(comb, 1, 2, 3)
    support = cycle.lines
    for _ in range(500):
        char = random_character(rng, comb, rng.choice([2, 3, 4, 6]))
        cond1 = all(char.exponent_of_line(i) == 0 for i in support)
        cond3 = all(
            char.point_exponent(p) == 0
            for line in support
            for p in comb.points_on_line(line)
        )
        cond2 = all(
            char.exponent_of_line(i) == 0
            for point in cycle.vertices
            for i in point
        )
        if cond1 and cond3:
            assert cond2
