"""Gluing two arrangements along a shared triangle.

A gluing is a projective map carrying lines 1-3 of the right arrangement
onto lines 1-3 of the left one, with no accidental line coincidences
elsewhere. It is generic when, apart from the triangle vertices, no
singular point of either side lies on an unshared line of the other side;
generic gluings all produce the same combinatorics, which
glue_combinatorics builds purely combinatorially.

Every triangle fact comes from one frame per side: F, the matrix whose
rows are the coefficients of lines 1-3. Arrangements have no coinciding
lines, so lines 1-3 form a triangle exactly when det F is nonzero; the
columns of adj(F) are the vertices, and a point p is off the triangle
exactly when F p has no zero entry. The search walks diagonal parameters
(s, t), pairs of distinct primes, and builds each candidate straight from
the two frames as phi = adj(F_L) diag(d0, s d1, t d2) F_R, with
d = (wL0 wR1 wR2, wL1 wR0 wR2, wL2 wR0 wR1) and w = F ref for a reference
point ref off each triangle. d is scaled once, by the search's one
inverse, so that phi sends the canonical right vertex of lines 2 and 3
onto the canonical left one. Genericity fails only on finitely many
parameter choices, so the sequence finds a generic map quickly and
reproducibly.

A GluingSpec maps the right lines once, when it is made, and keeps the
images; check_gluing, check_generic and glue_arrangements all read them.
check_generic includes check_gluing; the search still calls both on each
candidate, so a tracer sees which of the two turned a candidate down.
check_generic takes no inverse: every point is the unnormalized cross
product of two lines, right points of two kept images, and lies on a line
exactly when their dot product is zero. That product is tested in F_p
first, where a nonzero residue proves the point off the line; only a zero
residue, or none, is confirmed by the exact dot product. A search groups
the points of each side once and shares the groups with its candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lcm

from .characters import Character
from .combinatorics import Combinatorics, NoTriangleError, triangle_cycle
from .cyclotomic import CycloNum, _residue_map, dot
from .realization import (
    Arrangement,
    ProjLine,
    ProjMap,
    _cross,
    _cross_mod,
    _point_groups,
)

__all__ = [
    "GluingSpec",
    "GluingSearchExhausted",
    "check_gluing",
    "check_generic",
    "find_generic_gluing",
    "glue_arrangements",
    "glue_combinatorics",
    "glue_characters",
]


class GluingSearchExhausted(RuntimeError):
    """The bounded parameter sequence produced no generic gluing."""


@dataclass(frozen=True)
class GluingSpec:
    """A candidate gluing along lines 1-3: left and right arrangements and
    the map."""

    left: Arrangement
    right: Arrangement
    map: ProjMap
    parameter: tuple[int, int] | None = None  # (s, t) when found by search
    # the images of the right lines under the map, shared by every check
    _images: tuple[ProjLine, ...] = field(init=False, repr=False, compare=False)
    # the point groups of the left and right sides, made once by a search
    # for all its candidates; check_generic groups both sides without them
    _groups: tuple | None = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        images = tuple(self.map.apply_line(line) for line in self.right.lines)
        object.__setattr__(self, "_images", images)


def _require_three_lines(n_lines: int) -> None:
    if n_lines < 3:
        raise NoTriangleError(f"{n_lines} lines; a triangle to glue along needs three")


def _frame(arr: Arrangement) -> tuple:
    """F, the matrix whose rows are the coefficients of lines 1-3; raises
    NoTriangleError when there are fewer than three lines or det F = 0."""
    _require_three_lines(arr.n_lines)
    f = tuple(arr.line(i).coeffs for i in (1, 2, 3))
    if dot(f[0], _cross(f[1], f[2])).is_zero():
        raise NoTriangleError(
            "the first three lines are concurrent; no triangle to glue along"
        )
    return f


def _reference_points(arr: Arrangement):
    """Unnormalized candidates for a reference point off the triangle: the
    intersection of lines 4 and 5, then the points [1 : t : t^2]. Those lie
    on the conic y^2 = xz, which each triangle line meets at most twice, so
    at most six values of t are excluded and t <= 7 suffices."""
    if arr.n_lines >= 5:
        yield _cross(arr.line(4).coeffs, arr.line(5).coeffs)
    for t in range(1, 8):
        yield tuple(CycloNum.from_rational(arr.order, t**k) for k in range(3))


def _weights(arr: Arrangement, f) -> list[CycloNum]:
    """F ref for the first reference point off the triangle."""
    return next(
        w
        for w in ([dot(row, ref) for row in f] for ref in _reference_points(arr))
        if not any(x.is_zero() for x in w)
    )


def _prime_pairs():
    """Pairs of distinct primes (s, t), s < t, grouped by ascending larger
    prime: (2,3), (2,5), (3,5), (2,7), (3,7), (5,7), (2,11), ..."""
    primes: list[int] = []
    n = 2
    while True:
        if all(n % p for p in primes):
            for p in primes:
                yield (p, n)
            primes.append(n)
        n += 1


def check_gluing(spec: GluingSpec) -> bool:
    """Both gluing conditions along the triangle: right lines 1-3 map onto
    left lines 1-3, and no later right line maps onto a later left line."""
    left = spec.left
    _frame(left)
    _frame(spec.right)
    images = spec._images
    for i in range(3):
        if images[i].coeffs != left.lines[i].coeffs:
            return False
    tail_left = {line.coeffs for line in left.lines[3:]}
    for img in images[3:]:
        if img.coeffs in tail_left:
            return False
    return True


def check_generic(spec: GluingSpec) -> bool:
    """Genericity: a gluing (check_gluing) in which, apart from the triangle
    vertices, no singular point of either side lies on an unshared line of
    the other side.

    A vertex is a singular point with two of lines 1-3 through it. Left
    points are tested against the images of the unshared right lines, and
    right points, taken as cross products of the kept images (the map keeps
    incidences, and scale does not matter), against the unshared left
    lines. The map carries right lines 1-3 onto left lines 1-3, so every
    new incidence is an honest double point.

    Each (point, line) pair is tested in F_p first, by the first residue
    map Q(zeta_n) -> F_p (``cyclotomic._residue_map``): a nonzero residue of
    the dot product proves the point off the line, since the map is a ring
    homomorphism. Only a zero residue, or none (p divides a denominator),
    is settled by the exact dot product, so no answer rests on a
    fingerprint.
    """
    if not check_gluing(spec):
        return False
    res = _residue_map(spec.left.order, 0)
    left = [(line.coeffs, res.vector(line.coeffs)) for line in spec.left.lines]
    images = [(line.coeffs, res.vector(line.coeffs)) for line in spec._images]
    groups_left, groups_right = spec._groups or (
        _point_groups(spec.left), _point_groups(spec.right)
    )
    return not (
        _point_on_tail(groups_right, images, left[3:], res.p)
        or _point_on_tail(groups_left, left, images[3:], res.p)
    )


def _point_on_tail(groups, lines, tail, p: int) -> bool:
    """Whether a point of ``groups`` other than a triangle vertex lies on a
    line of ``tail``; the point is the cross product of two of ``lines``,
    the lines of an arrangement or their images under a map. Lines come as
    (coefficients, F_p image or None) pairs."""
    # each group is sorted, so its second line is one of 1-3 at a vertex
    for a, b, *_ in groups:
        if b <= 3:
            continue
        (u, u_mod), (v, v_mod) = lines[a - 1], lines[b - 1]
        x = None if u_mod is None or v_mod is None else _cross_mod(u_mod, v_mod, p)
        point = None
        for line, l_mod in tail:
            if (
                x is not None and l_mod is not None
                and (x[0] * l_mod[0] + x[1] * l_mod[1] + x[2] * l_mod[2]) % p
            ):
                continue  # a nonzero residue: off the line
            if point is None:
                point = _cross(u, v)
            if dot(point, line).is_zero():
                return True
    return False


def find_generic_gluing(
    left: Arrangement, right: Arrangement, max_candidates: int = 200
) -> GluingSpec:
    """Deterministically search the diagonal family for a generic gluing."""
    if left.order != right.order:
        raise ValueError(
            f"cyclotomic orders differ ({left.order} vs {right.order}); lift first"
        )
    f_left, f_right = _frame(left), _frame(right)
    w_left, w_right = _weights(left, f_left), _weights(right, f_right)
    # the left vertices f2 x f3, f3 x f1, f1 x f2: the columns of adj(F_L)
    vertices = [_cross(f_left[i - 2], f_left[i - 1]) for i in range(3)]
    d = [w_left[i] * w_right[i - 2] * w_right[i - 1] for i in range(3)]
    # lead(v_R) / (lead(v_L) d0 det F_R), lead the first nonzero entry of
    # the vertex v of lines 2 and 3, which the canonical form scales to 1
    v_right = _cross(f_right[1], f_right[2])
    lead_left, lead_right = (next(x for x in v if x) for v in (vertices[0], v_right))
    scale = lead_right * (lead_left * d[0] * dot(f_right[0], v_right)).inverse()
    head = [[v[r] * x * scale for v, x in zip(vertices, d)] for r in range(3)]
    columns = list(zip(*f_right))
    groups = (_point_groups(left), _point_groups(right))
    pairs = _prime_pairs()
    for _ in range(max_candidates):
        s, t = next(pairs)
        # adj(F_L) diag(d0, s d1, t d2) F_R, scaled
        phi = ProjMap(
            [[dot((a, b * s, c * t), col) for col in columns] for a, b, c in head]
        )
        spec = GluingSpec(left, right, phi, parameter=(s, t), _groups=groups)
        if check_gluing(spec) and check_generic(spec):
            return spec
    raise GluingSearchExhausted(
        f"no generic gluing within {max_candidates} diagonal candidates; "
        "extend the parameter sequence"
    )


def glue_arrangements(spec: GluingSpec) -> Arrangement:
    """The glued arrangement: the left lines, then the images of the unshared
    right lines (kept by the spec), renamed D1..Dd."""
    if not check_gluing(spec):
        raise ValueError("not a gluing: the declared map fails the gluing conditions")
    lines = list(spec.left.lines) + list(spec._images[3:])
    renamed = [
        ProjLine(f"D{i}", line.coeffs) for i, line in enumerate(lines, start=1)
    ]
    return Arrangement(spec.left.order, renamed)


def glue_combinatorics(c: Combinatorics, c2: Combinatorics) -> Combinatorics:
    """The combinatorics of any generic gluing of realizations.

    Keeps all points of the first structure, merges the three triangle
    vertex points, shifts the second structure's other points past the
    first, and adds one transverse double point per (left, right) pair of
    non-triangle lines.
    """
    for comb in (c, c2):
        report = comb.validate()
        if not report.ok:
            raise ValueError("cannot glue an invalid combinatorics: " + "; ".join(report.messages()))
        _require_three_lines(comb.n_lines)
    n, k = c.n_lines, c2.n_lines
    verts_c = triangle_cycle(c, 1, 2, 3).vertices
    verts_c2 = triangle_cycle(c2, 1, 2, 3).vertices

    def shift(i: int) -> int:
        return i if i <= 3 else i + n - 3

    merged = [
        tuple(sorted(set(v) | {shift(i) for i in w}))
        for v, w in zip(verts_c, verts_c2)
    ]
    points: list[tuple[int, ...]] = list(merged)
    points += [p for p in c.points if p not in verts_c]
    points += [
        tuple(sorted(shift(i) for i in p))
        for p in c2.points
        if p not in verts_c2
    ]
    # Transverse double points; a cross pair already meeting at a merged
    # vertex (extra lines through a shared vertex) gets no fresh point.
    at_vertices = {pair for p in merged for pair in combinations(p, 2)}
    points += [
        (i, j)
        for i in range(4, n + 1)
        for j in range(n + 1, n + k - 2)
        if (i, j) not in at_vertices
    ]
    return Combinatorics([f"D{i}" for i in range(1, n + k - 2)], points)


def glue_characters(x: Character, x2: Character, l: int) -> Character:
    """The glued character on glue_combinatorics of the two bases: the l = 3
    shared lines multiply their values, the rest carry over; moduli are
    reconciled by lcm."""
    if l != 3:
        raise ValueError(f"characters glue along a triangle (l = 3), got l = {l}")
    # first, so that fewer than three lines raise NoTriangleError
    base = glue_combinatorics(x.base, x2.base)
    modulus = lcm(x.modulus, x2.modulus)
    e = [v * (modulus // x.modulus) for v in x.exponents]
    e2 = [v * (modulus // x2.modulus) for v in x2.exponents]
    exponents = [e[i] + e2[i] for i in range(3)] + e[3:] + e2[3:]
    return Character(base, modulus, tuple(exponents))
