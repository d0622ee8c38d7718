"""Acceptance suite: the ten exit criteria, exact, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines;
every check is exact (zero tolerance), the only budgets are wall-clock.
"""

import random
import time
from itertools import product
from math import comb as binomial

from genutil import (
    block_swap,
    fan_inner_cyclic,
    random_arrangement,
    random_character,
    random_combinatorics,
    random_inner_cyclic,
    random_invertible_map,
    random_triangle_safe_combinatorics,
)
from zarpair.automorphisms import (
    compose_perms,
    copy_preserving_subgroup,
    enumerate_automorphisms,
    group_stats,
    matrix_of_maclane_automorphism,
)
from zarpair.catalog import (
    extended_maclane_explicit,
    extended_maclane_from_pf3,
    extended_maclane_realization,
    maclane_character,
    maclane_combinatorics,
    rybnikov_character,
    rybnikov_explicit,
    seed_ledger,
)
from zarpair.characters import is_inner_cyclic_def, is_inner_cyclic_remark
from zarpair.combinatorics import (
    is_isomorphic,
    ordered_equal,
    triangle_cycle,
)
from zarpair.cyclotomic import CycloNum, euler_phi
from zarpair.gluing import (
    check_generic,
    check_gluing,
    find_generic_gluing,
    glue_arrangements,
    glue_characters,
    glue_combinatorics,
)
from zarpair.invariant import (
    LedgerEntry,
    detect_zariski,
    invariant_of_glued,
)
from zarpair.realization import (
    apply_map,
    conjugate_arrangement,
    derive_combinatorics,
    rigidify,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_finite_plane_construction():
    start = time.perf_counter()
    built = extended_maclane_from_pf3()
    explicit = extended_maclane_explicit()
    elapsed = time.perf_counter() - start
    census = tuple(sorted((len(p) for p in built.points), reverse=True))
    ok = (
        ordered_equal(built, explicit)
        and built.n_lines == 9
        and census == (4, 4, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2)
        and elapsed < 1.0
    )
    report(1, ok, f"finite-plane build equals the 14-point list ({elapsed:.3f}s)")


def test_criterion_02_realization_check():
    start = time.perf_counter()
    explicit = extended_maclane_explicit()
    plus = extended_maclane_realization("+")
    minus = extended_maclane_realization("-")
    ok = (
        ordered_equal(derive_combinatorics(plus), explicit)
        and ordered_equal(derive_combinatorics(minus), explicit)
        and conjugate_arrangement(plus) == minus
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"both realizations derive the combinatorics ({elapsed:.3f}s)")


def test_criterion_03_inner_cyclic():
    comb = extended_maclane_explicit()
    xi = maclane_character()
    gamma = triangle_cycle(comb, 1, 2, 3)
    ok = is_inner_cyclic_def(comb, xi, gamma) and is_inner_cyclic_remark(
        comb, xi, gamma
    )

    rng = random.Random(0xACCE55)
    catalog = [comb, rybnikov_explicit(), maclane_combinatorics()]
    agreements = 0
    for _ in range(5000):
        if agreements >= 1000:
            break
        structure = rng.choice(catalog)
        char = random_character(rng, structure, rng.choice([2, 3, 4, 6]))
        triple = rng.sample(range(1, structure.n_lines + 1), 3)
        points = {
            structure.point_through(triple[0], triple[1]),
            structure.point_through(triple[0], triple[2]),
            structure.point_through(triple[1], triple[2]),
        }
        if len(points) != 3:
            continue
        cycle = triangle_cycle(structure, *triple)
        if is_inner_cyclic_def(structure, char, cycle) != is_inner_cyclic_remark(
            structure, char, cycle
        ):
            ok = False
            break
        agreements += 1
    ok = ok and agreements >= 1000
    report(3, ok, f"both tests agree on the catalog pair and {agreements} samples")


def test_criterion_04_automorphisms():
    group_cm = enumerate_automorphisms(extended_maclane_explicit())
    stats_cm = group_stats(group_cm)
    ok = group_cm.order == 12
    ok = ok and stats_cm.element_order_histogram == {1: 1, 2: 7, 3: 2, 6: 2}

    matrices = {matrix_of_maclane_automorphism(s) for s in group_cm.elements}
    ok = ok and len(matrices) == 12
    ok = ok and all(m[0][1] == 0 for m in matrices)
    for s1, s2 in product(group_cm.elements, repeat=2):
        m1 = matrix_of_maclane_automorphism(s1)
        m2 = matrix_of_maclane_automorphism(s2)
        expected = tuple(
            tuple(sum(m1[r][k] * m2[k][c] for k in range(2)) % 3 for c in range(2))
            for r in range(2)
        )
        if matrix_of_maclane_automorphism(compose_perms(s1, s2)) != expected:
            ok = False
            break

    start = time.perf_counter()
    group_cr = enumerate_automorphisms(rybnikov_explicit())
    elapsed = time.perf_counter() - start
    subgroup = copy_preserving_subgroup(
        group_cr, set(range(4, 10)), set(range(10, 16))
    )
    ok = ok and group_cr.order == 144 and subgroup.order == 72 and elapsed < 60.0
    report(
        4,
        ok,
        f"orders 12/144, D6 histogram, matrix bijection, subgroup 72 "
        f"({elapsed:.3f}s for the 15-line group)",
    )


def test_criterion_05_gluing():
    start = time.perf_counter()
    plus = extended_maclane_realization("+")
    minus = extended_maclane_realization("-")
    explicit = rybnikov_explicit()
    ok = True
    for right in (plus, minus):
        spec = find_generic_gluing(plus, right, max_candidates=200)
        ok = ok and check_gluing(spec) and check_generic(spec)
        derived = derive_combinatorics(glue_arrangements(spec))
        ok = ok and ordered_equal(derived, explicit)
        ok = ok and len(derived.points) == 61
    elapsed = time.perf_counter() - start
    ok = ok and 14 + 14 - 3 + 36 == 61 and elapsed < 5.0
    report(5, ok, f"generic gluings found and verified ({elapsed:.3f}s)")


def test_criterion_06_glued_character():
    xi = maclane_character()
    glued = glue_characters(xi, xi, 3)
    ok = glued.exponents == (0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2)
    comb = rybnikov_explicit()
    chi = rybnikov_character()
    mu = triangle_cycle(comb, 1, 2, 3)
    ok = ok and is_inner_cyclic_def(comb, chi, mu)
    ok = ok and is_inner_cyclic_remark(comb, chi, mu)
    report(6, ok, "glued character matches and is inner-cyclic on the 15 lines")


def test_criterion_07_multiplicativity_ledger():
    ledger = seed_ledger()
    plus = invariant_of_glued(ledger.get("M+"), ledger.get("M+"), new_id="R+")
    minus = invariant_of_glued(ledger.get("M+"), ledger.get("M-"), new_id="R-")
    ok = plus.value == CycloNum.zeta(3) and minus.value == CycloNum.one(3)
    report(7, ok, "derived values are exactly zeta and 1")


def test_criterion_08_zariski_verdicts():
    ledger = seed_ledger()
    verdict = detect_zariski(ledger.get("M+"))
    ok = verdict.kind == "ordered_zariski_pair"
    ok = ok and verdict.plus.value == CycloNum.zeta(3)
    ok = ok and verdict.minus.value == CycloNum.one(3)
    ok = ok and verdict.check() == []

    comb2, char2 = fan_inner_cyclic(2, 1)
    real_entry = LedgerEntry(
        "real",
        char2,
        triangle_cycle(comb2, 1, 2, 3),
        CycloNum.zeta(2),
        "published",
        "synthetic",
    )
    ok = ok and detect_zariski(real_entry).kind == "inconclusive"

    comb4, char4 = fan_inner_cyclic(4, 1)
    i_entry = LedgerEntry(
        "i4",
        char4,
        triangle_cycle(comb4, 1, 2, 3),
        CycloNum.zeta(4),
        "published",
        "synthetic",
    )
    quartic = detect_zariski(i_entry)
    ok = ok and quartic.kind == "ordered_zariski_pair"
    ok = ok and quartic.plus.value == CycloNum.from_rational(4, -1)
    ok = ok and quartic.minus.value == CycloNum.one(4)

    # the verdict stays ordered: the copy swap is an automorphism of the
    # glued combinatorics, so its group is never trivial
    glued = verdict.plus.character.base
    ok = ok and block_swap(9, 9) in enumerate_automorphisms(glued)
    report(8, ok, "verdicts: (zeta,1), inconclusive on -1, (-1,1) on i, ordered")


def test_criterion_09_property_suites():
    rng = random.Random(0x5EED)
    ok = True

    for _ in range(1000):
        comb = random_combinatorics(rng)
        if not comb.validate().ok:
            ok = False
            break
        if sum(binomial(len(p), 2) for p in comb.points) != binomial(
            comb.n_lines, 2
        ):
            ok = False
            break

    plus = extended_maclane_realization("+")
    reference = derive_combinatorics(plus)
    for trial in range(100):
        arr = plus if trial % 2 == 0 else random_arrangement(rng)
        expect = reference if trial % 2 == 0 else derive_combinatorics(arr)
        moved = apply_map(arr, random_invertible_map(rng))
        if not ordered_equal(derive_combinatorics(moved), expect):
            ok = False
            break

    for _ in range(25):
        c1 = random_triangle_safe_combinatorics(rng, max_lines=6)
        c2 = random_triangle_safe_combinatorics(rng, max_lines=6)
        if is_isomorphic(
            glue_combinatorics(c1, c2), glue_combinatorics(c2, c1)
        ) is None:
            ok = False
            break

    for _ in range(300):
        order = rng.choice([1, 2, 3, 4, 6, 12])
        phi = euler_phi(order)
        x, y, z = (
            CycloNum(order, [rng.randint(-4, 4) for _ in range(phi)])
            for _ in range(3)
        )
        if (x + y) * z != x * z + y * z or (x * y) * z != x * (y * z):
            ok = False
            break
        if (x * y).conjugate() != x.conjugate() * y.conjugate():
            ok = False
            break
        if not x.is_zero() and x * x.inverse() != CycloNum.one(order):
            ok = False
            break

    for _ in range(60):
        comb_a, char_a = random_inner_cyclic(rng)
        comb_b, char_b = random_inner_cyclic(rng)
        glued = glue_characters(char_a, char_b, 3)
        mu = triangle_cycle(glued.base, 1, 2, 3)
        if not is_inner_cyclic_def(glued.base, glued, mu):
            ok = False
            break

    report(9, ok, "axioms, invariance, commutativity, field laws, glued triples")


def test_criterion_10_rigidify_smoke():
    plus = extended_maclane_realization("+")
    before = enumerate_automorphisms(derive_combinatorics(plus)).order
    singular = {idxs: p for p, idxs in plus.singular_points().items()}
    # a double point and a triple point, both off the triangle vertices and
    # not already joined by an arrangement line
    bigger, _ = rigidify(plus, singular[(5, 7)], singular[(2, 4, 9)], name="L10")
    after = enumerate_automorphisms(derive_combinatorics(bigger)).order
    ok = bigger.n_lines == 10 and after < before == 12
    report(10, ok, f"extra line cuts the group order from {before} to {after}")
