"""Shared random generators for the property suites.

Random valid combinatorics are built by merging and growing, which preserve
both incidence axioms at every step: start from the all-double-points
structure, repeatedly fuse two points whose cross pairs are all still
doubles, then grow points by one line each, so point sizes come out odd as
well as even.
Random triangular inner-cyclic pairs are built by construction: two fans of
k lines through two points of line 1 with exponents e and -e, matched up
across lines 2 and 3 by two disjoint pairings.
The exact pair-by-pair point grouping lives here as the oracle for the
library's fingerprinted one, and the floating-point embedding of a
cyclotomic number as a numeric oracle; the library has no floating point.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from zarpair.characters import Character
from zarpair.combinatorics import Combinatorics
from zarpair.cyclotomic import CycloNum
from zarpair.realization import Arrangement, ProjLine, ProjMap, ProjPoint, intersect


def approx(x: CycloNum) -> complex:
    """The floating-point embedding of x, with zeta_n -> exp(2 pi i / n)."""
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * z**k for k, c in enumerate(x.coeffs))


def grow_points(
    points: set[frozenset[int]], n: int, rng: random.Random, steps: int
) -> set[frozenset[int]]:
    """Add a line to a point, ``steps`` times: each time a random point and
    a line that meets all of the point's lines in double points, so both
    incidence axioms still hold. Returns the new set of points."""
    points = set(points)
    for _ in range(steps):
        moves = [
            (p, d)
            for p in sorted(points, key=sorted)
            for d in range(1, n + 1)
            if d not in p and all(frozenset((x, d)) in points for x in p)
        ]
        if not moves:
            break
        p, d = rng.choice(moves)
        points -= {p} | {frozenset((x, d)) for x in p}
        points.add(p | {d})
    return points


def random_combinatorics(rng: random.Random, max_lines: int = 8) -> Combinatorics:
    """A random valid combinatorics on 3..max_lines lines."""
    n = rng.randint(3, max_lines)
    points = {frozenset(pair) for pair in combinations(range(1, n + 1), 2)}
    for _ in range(rng.randint(0, 2 * n)):
        if len(points) < 2:
            break
        a, b = rng.sample(sorted(points, key=sorted), 2)
        if a & b:
            continue
        cross = {frozenset((i, j)) for i in a for j in b}
        if cross <= points:
            points -= cross
            points.discard(a)
            points.discard(b)
            points.add(a | b)
    points = grow_points(points, n, rng, rng.randint(0, n // 2))
    return Combinatorics(
        [f"L{i}" for i in range(1, n + 1)], [sorted(p) for p in points]
    )


def random_triangle_safe_combinatorics(
    rng: random.Random, max_lines: int = 8
) -> Combinatorics:
    """Random valid combinatorics whose first three lines span a triangle."""
    while True:
        comb = random_combinatorics(rng, max_lines)
        p12 = comb.point_through(1, 2)
        p13 = comb.point_through(1, 3)
        p23 = comb.point_through(2, 3)
        if len({p12, p13, p23}) == 3:
            return comb


def two_fans(k: int, shift: int) -> Combinatorics:
    """Two fans of k lines through two points of line 1, matched up across
    line 2 by the identity and across line 3 by a cyclic shift.

    Both pairings are everywhere different, so each pair of fan lines meets
    only once. Two such structures with the same k are isomorphic exactly
    when gcd(shift, k) agrees.
    """
    if not 1 <= shift < k:
        raise ValueError(f"shift must be in 1..{k - 1}")
    fan_a = list(range(4, 4 + k))
    fan_b = list(range(4 + k, 4 + 2 * k))
    n = 3 + 2 * k
    points = [
        tuple([1] + fan_a),
        tuple([1] + fan_b),
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    points += [(2, fan_a[i], fan_b[i]) for i in range(k)]
    points += [(3, fan_a[i], fan_b[(i + shift) % k]) for i in range(k)]
    covered = {frozenset(pair) for p in points for pair in combinations(p, 2)}
    for pair in combinations(range(1, n + 1), 2):
        if frozenset(pair) not in covered:
            points.append(pair)
    return Combinatorics([f"L{i}" for i in range(1, n + 1)], points)


def block_swap(n: int, k: int) -> tuple[int, ...]:
    """The line permutation carrying glue_combinatorics(C1, C2) onto
    glue_combinatorics(C2, C1), for C1 on n and C2 on k lines: lines 1-3
    stay and the two blocks of non-triangle lines trade places. For n = k
    it swaps the two copies, an automorphism of glue_combinatorics(C, C).
    """
    return tuple(
        i if i <= 3 else (i + k - 3 if i <= n else i - n + 3)
        for i in range(1, n + k - 2)
    )


def fan_inner_cyclic(
    modulus: int, e: int, shift: int = 1
) -> tuple[Combinatorics, Character]:
    """A triangular inner-cyclic pair built by construction.

    The two fans of :func:`two_fans` carry exponents e and -e, where k is
    the order of e mod the modulus. The cycle on lines 1, 2, 3 then passes
    both inner-cyclic tests.
    """
    k = modulus // math.gcd(e % modulus, modulus)
    if k < 2:
        raise ValueError("need an exponent of order at least 2")
    comb = two_fans(k, shift)
    exponents = [0, 0, 0] + [e] * k + [modulus - e] * k
    return comb, Character(comb, modulus, tuple(exponents))


def random_inner_cyclic(
    rng: random.Random,
) -> tuple[Combinatorics, Character]:
    """A random triangular inner-cyclic pair (combinatorics, character)."""
    modulus = rng.choice([2, 3, 4, 5, 6])
    e = rng.randrange(1, modulus)
    k = modulus // math.gcd(e, modulus)
    return fan_inner_cyclic(modulus, e, shift=rng.randrange(1, k))


def random_character(rng: random.Random, comb: Combinatorics, modulus: int) -> Character:
    """A random character: uniform exponents with the last one balancing."""
    exps = [rng.randrange(modulus) for _ in range(comb.n_lines - 1)]
    exps.append((-sum(exps)) % modulus)
    return Character(comb, modulus, tuple(exps))


def random_arrangement(rng: random.Random, order: int = 3, max_lines: int = 6) -> Arrangement:
    """Random arrangement with small rational coefficients, pairwise distinct."""
    n = rng.randint(3, max_lines)
    lines: list[ProjLine] = []
    while len(lines) < n:
        coeffs = tuple(
            CycloNum.from_rational(order, Fraction(rng.randint(-3, 3)))
            for _ in range(3)
        )
        if all(c.is_zero() for c in coeffs):
            continue
        candidate = ProjLine(f"L{len(lines) + 1}", coeffs)
        if any(candidate.same_line(seen) for seen in lines):
            continue
        lines.append(candidate)
    return Arrangement(order, lines)


def exact_point_groups(arr: Arrangement) -> dict[ProjPoint, tuple[int, ...]]:
    """All pairwise intersections, grouped: point -> sorted line indices.

    Every pair's intersection is normalized to its canonical point, with one
    inverse per pair, and equal points are grouped in a dictionary: the
    exact grouping that ``Arrangement.singular_points`` replaced.
    """
    groups: dict[ProjPoint, set[int]] = {}
    for (i, l1), (j, l2) in combinations(enumerate(arr.lines, start=1), 2):
        p = intersect(l1, l2)
        groups.setdefault(p, set()).update((i, j))
    return {p: tuple(sorted(s)) for p, s in groups.items()}


@st.composite
def coincident_arrangements(draw, orders=(1, 3, 4, 12), max_lines=7) -> Arrangement:
    """Arrangements rich in coincidences, for grouping and genericity oracles.

    Coefficients are often zero, so pairs meet on a coordinate axis or at a
    coordinate vertex and a point's first nonzero coordinate is not always
    the first. Up to three lines a*l_i + b*l_j are appended, each through the
    point of two earlier lines, so triple points and larger ones occur.
    Lines that are zero or coincide with an earlier one are dropped.
    """
    order = draw(st.sampled_from(orders))
    zero = CycloNum.zero(order)

    def entry(a: int, b: int, k: int) -> CycloNum:
        return CycloNum.from_rational(order, a) + CycloNum.zeta(order, k) * b

    general = st.builds(
        entry, st.integers(-2, 2), st.integers(-1, 1), st.integers(0, order - 1)
    )
    coefficient = st.one_of(st.just(zero), general, general)  # zero a third of the time
    rows = draw(st.lists(st.tuples(coefficient, coefficient, coefficient),
                         min_size=3, max_size=max_lines))
    index = st.integers(0, max_lines + 3)
    for i, j, a, b in draw(st.lists(
        st.tuples(index, index, st.sampled_from([1, -1, 2]), st.sampled_from([1, -1, 3])),
        max_size=3,
    )):
        u, v = rows[i % len(rows)], rows[j % len(rows)]
        rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
    lines: list[ProjLine] = []
    for row in rows:
        if any(row):
            line = ProjLine(f"L{len(lines) + 1}", row)
            if not any(line.same_line(seen) for seen in lines):
                lines.append(line)
    return Arrangement(order, lines)


def count_inverses(monkeypatch) -> list[int]:
    """Wrap ``CycloNum.inverse`` for the test; the list's one entry counts
    the calls."""
    calls = [0]
    inverse = CycloNum.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(CycloNum, "inverse", counted)
    return calls


def random_invertible_map(
    rng: random.Random, order: int = 3, rational: bool = True
) -> ProjMap:
    """Random invertible 3x3 matrix with small integer entries, or with
    entries a + b*zeta^e (such as z or 1 - 2z^5) when not ``rational``."""

    def entry() -> CycloNum:
        if rational:
            return CycloNum.from_rational(order, rng.randint(-3, 3))
        root = CycloNum.zeta(order, rng.randrange(order))
        return root * rng.randint(-2, 2) + rng.randint(-1, 1)

    while True:
        rows = [[entry() for _ in range(3)] for _ in range(3)]
        try:
            return ProjMap(rows)
        except ValueError:
            continue


# Arbitrary text over the tokens of the coefficient grammar, a stray letter,
# a space and a tab: mostly malformed, sometimes a literal.
cyclo_text = st.lists(
    st.sampled_from(
        ["z", "^", "*", "+", "-", "/", "0", "1", "2", "3", "9", "12", "x", " ", "\t"]
    ),
    max_size=10,
).map("".join)
