"""Built-in constructions against the transcribed lists."""

import pytest

from zarpair.catalog import (
    build_extended_rybnikov,
    extended_maclane_explicit,
    extended_maclane_from_pf3,
    extended_maclane_realization,
    maclane_character,
    maclane_combinatorics,
    pf3_lines,
    pf3_points,
    rybnikov_character,
    rybnikov_explicit,
    seed_ledger,
)
from zarpair.characters import is_inner_cyclic_def
from zarpair.combinatorics import ordered_equal
from zarpair.cyclotomic import CycloNum
from zarpair.gluing import glue_characters, glue_combinatorics
from zarpair.realization import conjugate_arrangement, derive_combinatorics


class TestFinitePlane:
    def test_thirteen_points(self):
        points = pf3_points()
        assert len(points) == 13
        assert len(set(points)) == 13

    def test_thirteen_lines_of_four_points(self):
        lines = pf3_lines()
        assert len(lines) == 13
        assert all(len(line) == 4 for line in lines)

    def test_four_lines_through_each_point(self):
        lines = pf3_lines()
        for p in pf3_points():
            assert sum(p in line for line in lines) == 4


class TestExtendedMacLane:
    def test_construction_matches_explicit_list(self):
        assert ordered_equal(extended_maclane_from_pf3(), extended_maclane_explicit())

    def test_census(self):
        comb = extended_maclane_from_pf3()
        assert comb.n_lines == 9
        sizes = sorted((len(p) for p in comb.points), reverse=True)
        assert sizes == [4, 4, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2]

    def test_membership_verdicts(self):
        # the explicit list is authoritative: {2,4,9} is a point, the
        # triangle {1,2,3} is not
        points = set(extended_maclane_explicit().points)
        assert (2, 4, 9) in points
        assert (1, 2, 3) not in points
        assert all(not {1, 2, 3} <= set(p) for p in points)

    def test_line_one_carries_the_two_quadruple_points(self):
        points = set(extended_maclane_explicit().points)
        assert (1, 4, 5, 6) in points
        assert (1, 7, 8, 9) in points


class TestMacLaneRestriction:
    def test_eight_lines_valid(self):
        comb = maclane_combinatorics()
        assert comb.n_lines == 8
        assert comb.validate().ok

    def test_point_census(self):
        sizes = sorted((len(p) for p in maclane_combinatorics().points), reverse=True)
        assert sizes == [3] * 8 + [2] * 4

    def test_triple_through_l2_l4_l9_survives(self):
        # labels L2..L9 reindex to 1..8
        assert (1, 3, 8) in set(maclane_combinatorics().points)

    def test_labels_keep_original_names(self):
        assert maclane_combinatorics().lines == tuple(f"L{i}" for i in range(2, 10))


class TestRealizations:
    def test_both_signs_realize_the_combinatorics(self):
        explicit = extended_maclane_explicit()
        for sign in "+-":
            derived = derive_combinatorics(extended_maclane_realization(sign))
            assert ordered_equal(derived, explicit)

    def test_conjugation_swaps_signs(self):
        assert conjugate_arrangement(
            extended_maclane_realization("+")
        ) == extended_maclane_realization("-")

    def test_sign_convention(self):
        # positive arrangement uses a = zeta: line 3 is x - zeta*y = 0
        plus = extended_maclane_realization("+")
        assert plus.line(3).coeffs[1] == -CycloNum.zeta(3)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            extended_maclane_realization("?")


class TestCharacters:
    def test_maclane_character(self):
        assert maclane_character().exponents == (0, 0, 0, 1, 1, 1, 2, 2, 2)
        assert maclane_character().modulus == 3

    def test_rybnikov_character_is_the_glued_one(self):
        xi = maclane_character()
        glued = glue_characters(xi, xi, 3)
        chi = rybnikov_character()
        assert glued.exponents == chi.exponents
        assert glued.modulus == chi.modulus
        assert ordered_equal(glued.base, chi.base)


class TestRybnikovExplicit:
    def test_sixty_one_points(self):
        comb = rybnikov_explicit()
        assert comb.n_lines == 15
        assert len(comb.points) == 61
        assert comb.validate().ok

    def test_equals_combinatorial_gluing(self):
        cm = extended_maclane_explicit()
        assert ordered_equal(rybnikov_explicit(), glue_combinatorics(cm, cm))


class TestBuildPipeline:
    def test_positive_bundle(self):
        arr, char, mu, entry = build_extended_rybnikov("+")
        assert arr.n_lines == 15
        assert entry.value == CycloNum.zeta(3)
        assert mu.lines == (1, 2, 3)
        assert is_inner_cyclic_def(char.base, char, mu)
        assert ordered_equal(derive_combinatorics(arr), rybnikov_explicit())

    def test_negative_bundle(self):
        arr, char, mu, entry = build_extended_rybnikov("-")
        assert entry.value == CycloNum.one(3)
        assert ordered_equal(derive_combinatorics(arr), rybnikov_explicit())

    def test_signs_share_combinatorics_but_not_value(self):
        arr_p, _, _, entry_p = build_extended_rybnikov("+")
        arr_m, _, _, entry_m = build_extended_rybnikov("-")
        assert ordered_equal(
            derive_combinatorics(arr_p), derive_combinatorics(arr_m)
        )
        assert entry_p.value != entry_m.value


def test_seed_ledger_contents():
    ledger = seed_ledger()
    assert ledger.get("M+").value == CycloNum.zeta(3, 2)
    assert ledger.get("M-").value == CycloNum.zeta(3, 1)
    assert ledger.get("M+").provenance == "published"
    assert "Section 5" in ledger.get("M+").citation
