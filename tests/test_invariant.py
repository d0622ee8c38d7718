"""Ledger rules: registration, multiplicativity, conjugation, verdicts."""

import math
import random

import pytest

from genutil import block_swap, fan_inner_cyclic, random_inner_cyclic
from zarpair.automorphisms import enumerate_automorphisms
from zarpair.catalog import (
    extended_maclane_explicit,
    maclane_character,
    seed_ledger,
)
from zarpair.characters import Character
from zarpair.combinatorics import (
    apply_line_permutation,
    ordered_equal,
    triangle_cycle,
)
from zarpair.cyclotomic import CycloNum
from zarpair.gluing import glue_combinatorics
from zarpair.invariant import (
    Ledger,
    LedgerEntry,
    detect_zariski,
    invariant_of_conjugate,
    invariant_of_glued,
)

Z3 = CycloNum.zeta(3)


def fan_entry(entry_id: str, modulus: int, e: int, value: CycloNum) -> LedgerEntry:
    comb, char = fan_inner_cyclic(modulus, e)
    return LedgerEntry(
        entry_id,
        char,
        triangle_cycle(comb, 1, 2, 3),
        value,
        "published",
        "synthetic example",
    )


@pytest.fixture()
def ledger():
    return seed_ledger()


class TestRegister:
    def test_seeded_values(self, ledger):
        assert ledger.get("M+").value == Z3**2
        assert ledger.get("M-").value == Z3

    def test_duplicate_id_rejected(self, ledger):
        with pytest.raises(ValueError, match="already holds"):
            ledger.register(ledger.get("M+"))

    def test_non_inner_cyclic_rejected(self):
        comb = extended_maclane_explicit()
        bad_char = Character(comb, 3, (1, 2, 0, 0, 0, 0, 0, 0, 0))
        entry = LedgerEntry(
            "bad",
            bad_char,
            triangle_cycle(comb, 1, 2, 3),
            Z3,
            "published",
            "nope",
        )
        with pytest.raises(ValueError, match="inner-cyclic"):
            Ledger().register(entry)

    def test_non_root_of_unity_rejected(self):
        comb = extended_maclane_explicit()
        entry = LedgerEntry(
            "bad",
            maclane_character(),
            triangle_cycle(comb, 1, 2, 3),
            CycloNum.from_rational(3, 2),
            "published",
            "nope",
        )
        with pytest.raises(ValueError, match="power of zeta"):
            Ledger().register(entry)

    def test_value_outside_the_character_image_rejected(self):
        """Exponents 0, 2 and 4 mod 6 reach only the even powers of zeta_6;
        derived entries of image values stay in the image."""
        zeta = CycloNum.zeta(6)
        for k in range(6):
            entry = fan_entry("f", 6, 2, zeta**k)
            if k % 2:
                assert entry.check() == [
                    f"value {zeta**k} is not in the image of the character, "
                    "the powers of zeta^2"
                ]
                with pytest.raises(ValueError, match="not in the image"):
                    Ledger().register(entry)
            else:
                glued = invariant_of_glued(entry, entry)
                Ledger([entry, invariant_of_conjugate(entry), glued])

    def test_invalid_embedded_combinatorics_rejected(self):
        obj = fan_entry("f", 3, 1, CycloNum.one(3)).to_obj()
        LedgerEntry.from_obj(obj)
        obj["combinatorics"]["points"].append([1, 2, 3])
        with pytest.raises(
            ValueError,
            match=r"entry 'f': invalid combinatorics: line pair \(1,2\) lies in "
            "more than one point",
        ):
            LedgerEntry.from_obj(obj)

    def test_round_trip(self, ledger):
        again = Ledger.from_obj(ledger.to_obj())
        assert {e.id for e in again.entries()} == {"M+", "M-"}
        assert again.get("M+").value == ledger.get("M+").value
        assert again.get("M+").provenance == "published"

    @pytest.mark.parametrize(
        "lines, character",
        [
            ((3, 1, 2), maclane_character()),
            ((4, 5, 7), Character.trivial(extended_maclane_explicit(), 3)),
        ],
    )
    def test_round_trip_keeps_traversal_order(self, lines, character):
        entry = LedgerEntry(
            "t",
            character,
            triangle_cycle(character.base, *lines),
            CycloNum.one(3),
            "published",
            "synthetic",
        )
        assert entry.check() == []
        obj = entry.to_obj()
        assert obj["cycle"] == list(lines)
        again = LedgerEntry.from_obj(obj)
        assert again.cycle.lines == lines
        assert again.to_obj() == obj

    def test_triangle_from_another_structure_reported(self):
        # the triangle (1, 2, 3) of M with lines 3 and 4 swapped shares its
        # lines with M's but not its vertices
        comb = extended_maclane_explicit()
        swapped = apply_line_permutation(comb, (1, 2, 4, 3, 5, 6, 7, 8, 9))
        entry = LedgerEntry(
            "foreign",
            maclane_character(),
            triangle_cycle(swapped, 1, 2, 3),
            Z3,
            "published",
            "synthetic",
        )
        assert entry.check() == ["cycle does not live on the combinatorics"]
        with pytest.raises(ValueError, match="does not live"):
            Ledger().register(entry)


class TestMultiplicativity:
    def test_self_gluing(self, ledger):
        entry = invariant_of_glued(ledger.get("M+"), ledger.get("M+"), new_id="R+")
        assert entry.value == Z3  # zeta^2 * zeta^2
        assert entry.provenance == "multiplicativity"
        assert entry.character.base.n_lines == 15

    def test_mixed_gluing(self, ledger):
        entry = invariant_of_glued(ledger.get("M+"), ledger.get("M-"), new_id="R-")
        assert entry.value == CycloNum.one(3)  # zeta^2 * zeta

    def test_trivial_values_multiply_to_one(self):
        left = fan_entry("a", 3, 1, CycloNum.one(3))
        right = fan_entry("b", 3, 1, CycloNum.one(3))
        assert invariant_of_glued(left, right).value == CycloNum.one(3)

    def test_value_is_exactly_the_product(self):
        rng = random.Random(55)
        for _ in range(20):
            m = rng.choice([2, 3, 4, 6])
            va = CycloNum.zeta(m, rng.randrange(m))
            vb = CycloNum.zeta(m, rng.randrange(m))
            left = fan_entry("a", m, 1 if m == 2 else rng.randrange(1, m), va)
            right = fan_entry("b", m, 1 if m == 2 else rng.randrange(1, m), vb)
            assert invariant_of_glued(left, right).value == va * vb

    def test_non_first_triangle_rejected(self, ledger):
        comb = extended_maclane_explicit()
        off_triangle = LedgerEntry(
            "off",
            Character.trivial(comb, 3),
            triangle_cycle(comb, 4, 5, 7),
            CycloNum.one(3),
            "published",
            "synthetic",
        )
        with pytest.raises(ValueError, match="first three"):
            invariant_of_glued(off_triangle, ledger.get("M+"))

    def test_mixed_moduli_lift_to_lcm(self):
        left = fan_entry("a", 2, 1, CycloNum.zeta(2))
        right = fan_entry("b", 3, 1, Z3)
        glued = invariant_of_glued(left, right)
        assert glued.character.modulus == 6
        assert glued.value == CycloNum.zeta(2).lift(6) * Z3.lift(6)

    def test_explicit_gluing_cross_check(self, ledger):
        from zarpair.catalog import extended_maclane_realization
        from zarpair.gluing import GluingSpec, find_generic_gluing
        from zarpair.realization import ProjMap

        plus = extended_maclane_realization("+")
        spec = find_generic_gluing(plus, plus)
        entry = invariant_of_glued(
            ledger.get("M+"), ledger.get("M+"), new_id="R+", gluing=spec
        )
        assert entry.value == Z3
        # a non-generic map is rejected: the identity glues every line
        # of M+ onto itself
        identity = ProjMap(
            [[CycloNum.from_rational(3, int(r == c)) for c in range(3)] for r in range(3)]
        )
        bogus = GluingSpec(plus, plus, identity)
        with pytest.raises(ValueError, match="generic"):
            invariant_of_glued(
                ledger.get("M+"), ledger.get("M+"), gluing=bogus
            )
        # a gluing of the wrong arrangements is rejected
        mismatched_entry = fan_entry("fan", 3, 1, Z3)
        with pytest.raises(ValueError, match="realize"):
            invariant_of_glued(mismatched_entry, mismatched_entry, gluing=spec)


class TestConjugation:
    def test_conjugate_of_catalog_entry(self, ledger):
        conj = invariant_of_conjugate(ledger.get("M+"))
        assert conj.value == ledger.get("M-").value
        assert conj.provenance == "conjugation"

    def test_real_value_fixed(self):
        entry = fan_entry("r", 3, 1, CycloNum.one(3))
        assert invariant_of_conjugate(entry).value == entry.value

    def test_involution(self, ledger):
        entry = ledger.get("M+")
        back = invariant_of_conjugate(invariant_of_conjugate(entry))
        assert back.value == entry.value


class TestDetectZariski:
    def test_catalog_positive_entry(self, ledger):
        verdict = detect_zariski(ledger.get("M+"))
        assert verdict.kind == "ordered_zariski_pair"
        assert verdict.plus.value == Z3
        assert verdict.minus.value == CycloNum.one(3)
        assert verdict.check() == []

    def test_real_value_is_inconclusive(self):
        entry = fan_entry("real", 2, 1, CycloNum.zeta(2))  # value -1
        verdict = detect_zariski(entry)
        assert verdict.kind == "inconclusive"
        assert verdict.value_pair is None
        assert verdict.check() == []

    def test_order_four_value(self):
        entry = fan_entry("i4", 4, 1, CycloNum.zeta(4))  # value i
        verdict = detect_zariski(entry)
        assert verdict.kind == "ordered_zariski_pair"
        # i * i = -1 and i * conj(i) = 1
        assert verdict.plus.value == CycloNum.zeta(4, 2)
        assert verdict.plus.value == CycloNum.from_rational(4, -1)
        assert verdict.minus.value == CycloNum.one(4)
        assert verdict.check() == []

    def test_glued_group_contains_the_copy_swap(self, ledger):
        # no upgrade past an ordered pair: the verdict's glued combinatorics
        # has the automorphism that exchanges the two copies of M
        verdict = detect_zariski(ledger.get("M+"))
        cm = extended_maclane_explicit()
        glued = glue_combinatorics(cm, cm)
        assert ordered_equal(verdict.plus.character.base, glued)
        group = enumerate_automorphisms(glued)
        swap = block_swap(9, 9)
        assert swap != tuple(range(1, 16))
        assert swap in group
        assert group.order == 144
        with pytest.raises(TypeError):
            detect_zariski(ledger.get("M+"), aut_trivial=True)

    def test_verdict_embeds_checkable_entries(self, ledger):
        verdict = detect_zariski(ledger.get("M+"))
        assert verdict.plus.check() == []
        assert verdict.minus.check() == []
        obj = verdict.to_obj()
        assert obj["values"] == ["z", "1"]
        assert obj["verdict"] == "ordered_zariski_pair"
        assert len(obj["reasoning"]) >= 4


def test_root_of_unity_times_conjugate_is_one():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.choice([2, 3, 4, 5, 6, 8, 12])
        v = CycloNum.zeta(m, rng.randrange(m))
        assert v * v.conjugate() == CycloNum.one(m)


def test_nonreal_roots_have_nontrivial_square():
    rng = random.Random(9)
    for _ in range(50):
        m = rng.choice([3, 4, 5, 6, 8, 12])
        v = CycloNum.zeta(m, rng.randrange(m))
        if not v.is_real():
            assert v * v != CycloNum.one(m)


def image_value(rng, char):
    """A random value in the image of ``char``: a power of zeta^g, with g the
    gcd of the modulus and the exponents."""
    g = math.gcd(char.modulus, *char.exponents)
    return CycloNum.zeta(char.modulus, g * rng.randrange(char.modulus // g))


def test_derived_entries_satisfy_ledger_invariants():
    """The glued entry re-verifies, never trusts, its own soundness."""
    rng = random.Random(41)
    for _ in range(20):
        comb_a, char_a = random_inner_cyclic(rng)
        comb_b, char_b = random_inner_cyclic(rng)
        value_a = image_value(rng, char_a)
        value_b = image_value(rng, char_b)
        left = LedgerEntry(
            "a", char_a, triangle_cycle(comb_a, 1, 2, 3), value_a, "published", "x"
        )
        right = LedgerEntry(
            "b", char_b, triangle_cycle(comb_b, 1, 2, 3), value_b, "published", "x"
        )
        glued = invariant_of_glued(left, right)
        assert glued.check() == []
        Ledger([left, right, glued])
