"""Built-in arrangements, combinatorics and characters.

Houses the extended MacLane family: the finite-plane construction of its
combinatorics, the explicit point lists, the two conjugate realizations
over Q(zeta_3), the weight-3 character, and the glued 15-line combinatorics
with its character. The end-to-end builder wires these through the gluing
and invariant machinery.
"""

from __future__ import annotations

from itertools import combinations
from typing import Literal, Sequence

from .characters import Character
from .combinatorics import Combinatorics, triangle_cycle
from .cyclotomic import CycloNum
from .realization import Arrangement, ProjLine

__all__ = [
    "extended_maclane_explicit",
    "extended_maclane_from_pf3",
    "maclane_combinatorics",
    "rybnikov_explicit",
    "extended_maclane_realization",
    "maclane_character",
    "rybnikov_character",
    "seed_ledger",
    "build_extended_rybnikov",
    "FIGURE_LABELS",
    "pf3_points",
    "pf3_lines",
]

Sign = Literal["+", "-"]

# Label of each line L2..L9 as a nonzero vector of F_3^2 (L1 is the extra
# line at infinity); this is the data the GL2(F3) matrix model acts on.
FIGURE_LABELS: dict[int, tuple[int, int]] = {
    3: (1, 0),
    2: (2, 0),
    5: (0, 1),
    6: (1, 1),
    4: (2, 1),
    7: (0, 2),
    8: (1, 2),
    9: (2, 2),
}

_EXTENDED_MACLANE_POINTS = [
    [1, 2],
    [1, 3],
    [1, 4, 5, 6],
    [1, 7, 8, 9],
    [2, 3],
    [2, 4, 9],
    [2, 5, 8],
    [2, 6, 7],
    [3, 4, 7],
    [3, 5, 9],
    [3, 6, 8],
    [4, 8],
    [5, 7],
    [6, 9],
]

# The 15-line glued combinatorics: one copy on D1..D9, a second copy on
# D1..D3, D10..D15 (sharing the triangle, so without its vertex pairs),
# and the 36 transverse double points.
_RYBNIKOV_COPY2_POINTS = [
    [1, 10, 11, 12],
    [1, 13, 14, 15],
    [2, 10, 15],
    [2, 12, 13],
    [3, 10, 13],
    [2, 11, 14],
    [3, 11, 15],
    [3, 12, 14],
    [10, 14],
    [11, 13],
    [12, 15],
]


def extended_maclane_explicit() -> Combinatorics:
    """The 9-line, 14-point extended MacLane combinatorics, transcribed."""
    return Combinatorics(
        [f"L{i}" for i in range(1, 10)], _EXTENDED_MACLANE_POINTS
    )


def rybnikov_explicit() -> Combinatorics:
    """The 15-line, 61-point extended Rybnikov combinatorics, transcribed."""
    points = [list(p) for p in _EXTENDED_MACLANE_POINTS] + [
        list(p) for p in _RYBNIKOV_COPY2_POINTS
    ]
    points += [[i, j] for i in range(4, 10) for j in range(10, 16)]
    return Combinatorics([f"D{i}" for i in range(1, 16)], points)


# -- finite projective plane over F_3 ----------------------------------------


def _pf3_normalize(p: tuple[int, int, int]) -> tuple[int, int, int]:
    first = next(c for c in p if c % 3 != 0)
    inv = 1 if first % 3 == 1 else 2  # 2*2 = 4 = 1 mod 3
    return (p[0] * inv % 3, p[1] * inv % 3, p[2] * inv % 3)


def pf3_points() -> list[tuple[int, int, int]]:
    """The 13 points of the projective plane over F_3, first-nonzero-is-1."""
    pts = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                if (x, y, z) == (0, 0, 0):
                    continue
                p = _pf3_normalize((x, y, z))
                if p not in pts:
                    pts.append(p)
    return pts


def pf3_lines() -> list[tuple[tuple[int, int, int], ...]]:
    """The 13 lines, each as the tuple of its 4 points."""
    pts = pf3_points()
    lines = []
    for u in pts:  # lines are dual to points
        on = tuple(
            p for p in pts if (u[0] * p[0] + u[1] * p[1] + u[2] * p[2]) % 3 == 0
        )
        lines.append(on)
    return lines


def _with_double_points(
    points: list[Sequence[int]], lines: range
) -> list[Sequence[int]]:
    """The points (sorted index sequences) plus a double point for every
    pair of the given lines that none of them covers."""
    covered = {pair for point in points for pair in combinations(point, 2)}
    return list(points) + [
        pair for pair in combinations(lines, 2) if pair not in covered
    ]


def extended_maclane_from_pf3() -> Combinatorics:
    """Build the extended MacLane combinatorics inside the plane over F_3.

    Lines of the combinatorics are the affine points other than the origin
    [0:0:1], plus one point Q on the line at infinity; multi-points are the
    plane's lines avoiding the origin, cut down to those labels; double
    points complete the pair-coverage axiom. Q = [1:0:0] reproduces the
    explicit list (L1 carries the two multiplicity-4 points).
    """
    origin = (0, 0, 1)
    q_point = (1, 0, 0)

    # Homogeneous coordinates of each combinatorics line, by label index.
    label_of: dict[tuple[int, int, int], int] = {q_point: 1}
    for idx, (a, b) in FIGURE_LABELS.items():
        label_of[_pf3_normalize((a, b, 1))] = idx

    multi_points = []
    for line in pf3_lines():
        if origin in line:
            continue
        members = sorted(label_of[p] for p in line if p in label_of)
        if len(members) >= 2:
            multi_points.append(members)

    points = _with_double_points(multi_points, range(1, 10))
    return Combinatorics([f"L{i}" for i in range(1, 10)], points)


def maclane_combinatorics() -> Combinatorics:
    """The classical 8-line MacLane combinatorics: drop L1 and re-close.

    Removes L1 from every point, discards what falls under two lines, and
    completes double points so every pair is covered again.
    """
    base = extended_maclane_explicit()
    kept = []
    for p in base.points:
        trimmed = tuple(i for i in p if i != 1)
        if len(trimmed) >= 2:
            kept.append(trimmed)
    # Reindex lines 2..9 down to 1..8, keeping the original labels.
    points = [
        tuple(i - 1 for i in p) for p in _with_double_points(kept, range(2, 10))
    ]
    return Combinatorics([f"L{i}" for i in range(2, 10)], points)


# -- realizations and characters ----------------------------------------------


def extended_maclane_realization(sign: Sign = "+") -> Arrangement:
    """The two conjugate realizations over Q(zeta_3).

    Convention: the arrangement built with a = zeta is the positive one,
    a = zeta^2 the negative one; conjugation swaps them.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    a = CycloNum.zeta(3) if sign == "+" else CycloNum.zeta(3, 2)
    abar = a.conjugate()
    one = CycloNum.one(3)
    zero = CycloNum.zero(3)
    coeff_rows = [
        (zero, zero, one),  # L1: z = 0
        (one, -abar, zero),  # L2: x - abar*y = 0
        (one, -a, zero),  # L3: x - a*y = 0
        (zero, one, -abar),  # L4: y - abar*z = 0
        (zero, one, -one),  # L5: y - z = 0
        (zero, one, -a),  # L6: y - a*z = 0
        (one, zero, -one),  # L7: x - z = 0
        (one, zero, -abar),  # L8: x - abar*z = 0
        (one, zero, -a),  # L9: x - a*z = 0
    ]
    return Arrangement(
        3, [ProjLine(f"L{i}", row) for i, row in enumerate(coeff_rows, start=1)]
    )


def maclane_character() -> Character:
    """The order-3 character (1,1,1, z,z,z, z^2,z^2,z^2) on the 9 lines."""
    return Character(extended_maclane_explicit(), 3, (0, 0, 0, 1, 1, 1, 2, 2, 2))


def rybnikov_character() -> Character:
    """The glued order-3 character on the 15 lines."""
    return Character(
        rybnikov_explicit(), 3, (0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2)
    )


PUBLISHED_CITATION = "ArtFloGue Section 5"


def seed_ledger():
    """Ledger holding the two published invariant values for the extended
    MacLane realizations: zeta^2 for the positive one, zeta for the negative."""
    from .invariant import Ledger, LedgerEntry

    comb = extended_maclane_explicit()
    char = maclane_character()
    cycle = triangle_cycle(comb, 1, 2, 3)
    ledger = Ledger()
    ledger.register(
        LedgerEntry(
            "M+", char, cycle, CycloNum.zeta(3, 2), "published", PUBLISHED_CITATION
        )
    )
    ledger.register(
        LedgerEntry(
            "M-", char, cycle, CycloNum.zeta(3, 1), "published", PUBLISHED_CITATION
        )
    )
    return ledger


def build_extended_rybnikov(sign: Sign = "+"):
    """Full pipeline for one glued 15-line arrangement.

    Glues the positive extended MacLane arrangement with the positive (sign
    '+') or negative (sign '-') one through a generic triangle gluing, glues
    the characters, and derives the invariant entry by multiplicativity from
    the seeded published values.

    Returns (arrangement, character, triangle, ledger entry).
    """
    from .gluing import find_generic_gluing, glue_arrangements, glue_characters
    from .invariant import invariant_of_glued

    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    left = extended_maclane_realization("+")
    right = extended_maclane_realization(sign)
    spec = find_generic_gluing(left, right)
    glued = glue_arrangements(spec)
    character = glue_characters(maclane_character(), maclane_character(), 3)
    mu = triangle_cycle(character.base, 1, 2, 3)

    ledger = seed_ledger()
    entry = invariant_of_glued(
        ledger.get("M+"), ledger.get("M-" if sign == "-" else "M+"),
        new_id=f"R{sign}",
    )
    return glued, character, mu, entry
