"""Exact projective line arrangements over Q(zeta_n).

Lines are coefficient triples (a, b, c) of ax + by + cz = 0 and points are
homogeneous coordinate triples, both normalized so the first nonzero entry
is 1; that canonical form is what equality compares and what files and
reports write out. Every incidence, cross product, adjugate entry and
matrix product is a cyclotomic ``dot`` or ``det2``: one exact accumulation
per entry.

Incidence decisions take no inverse. Which pairs of lines share an
intersection point is decided by a fingerprint in F_p and confirmed
exactly (``_point_groups``): the lines are reduced by a ring map
Q(zeta_n) -> F_p, each pair's cross product is normalized there to give a
key, and every group of three or more lines with one key is confirmed by
exact dot products. A bad prime, a zero image or a failed confirmation
moves to the next prime, so no answer rests on a fingerprint. A point
is normalized only when one is asked for (``intersect``,
``singular_points``, ``ProjMap.apply_point``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Iterable, Sequence

from .combinatorics import Combinatorics
from .cyclotomic import CycloNum, _residue_map, check_order, det2, dot, parse_cyclo

__all__ = [
    "ProjPoint",
    "ProjLine",
    "ProjMap",
    "Arrangement",
    "intersect",
    "derive_combinatorics",
    "conjugate_arrangement",
    "apply_map",
    "rigidify",
    "RigidifyReport",
]

Triple = tuple[CycloNum, CycloNum, CycloNum]


def _normalize(coords: Sequence[CycloNum]) -> Triple:
    if len(coords) != 3:
        raise ValueError(f"expected 3 homogeneous coordinates, got {len(coords)}")
    for k, c in enumerate(coords):
        if not c.is_zero():  # the pivot becomes exactly one
            one = CycloNum.one(c.order)
            # Already canonical; a mixed order still raises in the product.
            if c == one and all(x.order == c.order for x in coords):
                return tuple(coords)
            inv = c.inverse()
            return tuple(one if j == k else x * inv for j, x in enumerate(coords))
    raise ValueError("all coordinates are zero")


def _cross(u: Sequence[CycloNum], v: Sequence[CycloNum]) -> tuple:
    return (
        det2(u[1], u[2], v[1], v[2]),
        det2(u[2], u[0], v[2], v[0]),
        det2(u[0], u[1], v[0], v[1]),
    )


def _cross_mod(u: Sequence[int], v: Sequence[int], p: int) -> tuple[int, int, int]:
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective plane, canonical first-nonzero-is-1 form."""

    coords: Triple

    def __post_init__(self):
        object.__setattr__(self, "coords", _normalize(self.coords))

    def lies_on(self, line: "ProjLine") -> bool:
        return dot(self.coords, line.coeffs).is_zero()

    def __repr__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class ProjLine:
    """Projective line ax + by + cz = 0, canonical first-nonzero-is-1 form."""

    name: str
    coeffs: Triple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    def same_line(self, other: "ProjLine") -> bool:
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"ProjLine({self.name}: {[str(c) for c in self.coeffs]})"


class ProjMap:
    """Invertible projective transformation, as a 3x3 matrix acting on points."""

    def __init__(self, rows: Iterable[Iterable[CycloNum]]):
        self.rows: tuple[Triple, ...] = tuple(tuple(r) for r in rows)
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("projective map needs a 3x3 matrix")
        m = self.rows
        # adj(M), the transposed cofactors: M @ adj(M) = det(M) * I
        self._adj: tuple[Triple, ...] = tuple(
            tuple(
                det2(
                    m[(r + 1) % 3][(c + 1) % 3], m[(r + 1) % 3][(c + 2) % 3],
                    m[(r + 2) % 3][(c + 1) % 3], m[(r + 2) % 3][(c + 2) % 3],
                )
                for r in range(3)
            )
            for c in range(3)
        )
        if self.det().is_zero():
            raise ValueError("projective map matrix is singular")

    def det(self) -> CycloNum:
        """Row 0 of the matrix times column 0 of its adjugate."""
        return dot(self.rows[0], [row[0] for row in self._adj])

    def inverse(self) -> "ProjMap":
        scale = self.det().inverse()
        return ProjMap([[a * scale for a in row] for row in self._adj])

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other (matrix product self @ other)."""
        columns = list(zip(*other.rows))
        return ProjMap([[dot(row, col) for col in columns] for row in self.rows])

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(
            tuple(dot(row, p.coords) for row in self.rows)  # type: ignore[arg-type]
        )

    def apply_line(self, line: ProjLine) -> ProjLine:
        """Image line: coefficients transform by the inverse matrix (row action),
        so point-line incidence is preserved. The adjugate is det(M) times the
        inverse, and ProjLine scales the first nonzero coefficient to 1, so
        the row product with the adjugate is the same line, with no division."""
        new = tuple(dot(line.coeffs, col) for col in zip(*self._adj))
        return ProjLine(line.name, new)  # type: ignore[arg-type]

    def __eq__(self, other):
        if not isinstance(other, ProjMap):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"ProjMap({[[str(c) for c in row] for row in self.rows]})"


class Arrangement:
    """Ordered list of pairwise-distinct projective lines over Q(zeta_order)."""

    def __init__(self, order: int, lines: Sequence[ProjLine]):
        self.order = order
        self.lines: tuple[ProjLine, ...] = tuple(lines)
        for l1, l2 in combinations(self.lines, 2):
            if l1.same_line(l2):
                raise ValueError(f"lines {l1.name} and {l2.name} coincide")

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def line(self, i: int) -> ProjLine:
        return self.lines[i - 1]

    def singular_points(self) -> dict[ProjPoint, tuple[int, ...]]:
        """All pairwise intersections, grouped: point -> sorted line indices.

        One cross product and one normalization per point: any two of its
        lines meet there (see ``_point_groups``)."""
        coeffs = [l.coeffs for l in self.lines]
        return {
            ProjPoint(_cross(coeffs[g[0] - 1], coeffs[g[1] - 1])): g
            for g in _point_groups(self)
        }

    def to_obj(self) -> dict:
        return {
            "cyclotomic_order": self.order,
            "lines": [
                {"name": l.name, "coeffs": [str(c) for c in l.coeffs]}
                for l in self.lines
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Arrangement":
        """Read the file form; a malformed object raises ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("lines"), list):
            raise ValueError("arrangement must be a JSON object with a 'lines' list")
        order = check_order(obj.get("cyclotomic_order"), "cyclotomic_order")
        lines = []
        for entry in obj["lines"]:
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("coeffs"), list)):
                raise ValueError(f"line {entry!r} needs a 'name' and a 'coeffs' list")
            coeffs = tuple(parse_cyclo(order, c) for c in entry["coeffs"])
            lines.append(ProjLine(entry["name"], coeffs))  # type: ignore[arg-type]
        return cls(order, lines)

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (
            self.order == other.order
            and self.n_lines == other.n_lines
            and all(
                a.name == b.name and a.coeffs == b.coeffs
                for a, b in zip(self.lines, other.lines)
            )
        )

    def __repr__(self):
        return f"Arrangement(order={self.order}, {self.n_lines} lines)"


def _point_groups(arr: Arrangement) -> list[tuple[int, ...]]:
    """The lines through each intersection point, as sorted 1-based index
    tuples, in the order in which the pairs in ``combinations`` order first
    reach each point.

    At each prime of ``_residue_map`` in turn, the lines are reduced to
    F_p, and each pair's cross product is normalized there by its first
    nonzero entry; that is the pair's key. Pairs are grouped by key, and
    the first pair of a group is its anchor. Every group of three or more
    lines is confirmed exactly: each of its other lines k must satisfy
    dot(cross(anchor), l_k) = 0. A missing residue (p divides a
    denominator), a cross product with a zero image or a failed
    confirmation moves on to the next prime.

    Why the groups are exact: the residue map is a ring homomorphism, so
    the image of a cross product is the cross product of the images. Two
    pairs meet in one exact point exactly when their cross products u and v
    are proportional, that is when u x v = 0; then the images satisfy it
    too, and as neither image is zero they are proportional and get equal
    keys. So each exact point lies inside one group, and a group of exactly
    two lines is a single pair, hence one exact point. A confirmed group of
    three or more lines has every line through the anchor point, so its
    pairs are all the pairs of its lines and they share that one point.
    Only finitely many primes divide a denominator, a nonzero cross product
    entry or a nonzero minor separating two distinct points, so some prime
    succeeds.
    """
    lines = [l.coeffs for l in arr.lines]
    for index in count():
        res = _residue_map(arr.order, index)
        images = [res.vector(u) for u in lines]
        groups = None if None in images else _groups_by_key(images, res.p)
        if groups is not None and all(_confirmed(lines, g) for g in groups if len(g) > 2):
            return [tuple(sorted(k + 1 for k in g)) for g in groups]


def _groups_by_key(images: Sequence[Sequence[int]], p: int) -> list[list[int]] | None:
    """Line indices grouped by the F_p key of each pair's cross product, each
    group anchor pair first; None when some cross product's image is zero."""
    # key -> the group's lines in insertion order
    groups: dict[tuple[int, int, int], dict[int, None]] = {}
    for (i, u), (j, v) in combinations(enumerate(images), 2):
        x = _cross_mod(u, v, p)
        lead = x[0] or x[1] or x[2]
        if not lead:
            return None
        inv = pow(lead, -1, p)
        group = groups.setdefault((x[0] * inv % p, x[1] * inv % p, x[2] * inv % p), {})
        group[i] = group[j] = None
    return [list(g) for g in groups.values()]


def _confirmed(lines: Sequence[Triple], group: list[int]) -> bool:
    """Whether every line of ``group`` passes through the exact intersection
    of its first two (the anchor)."""
    point = _cross(lines[group[0]], lines[group[1]])
    return all(dot(point, lines[k]).is_zero() for k in group[2:])


def intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (cross product)."""
    if l1.same_line(l2):
        raise ValueError(f"lines {l1.name} and {l2.name} are identical")
    return ProjPoint(_cross(l1.coeffs, l2.coeffs))


def derive_combinatorics(arr: Arrangement) -> Combinatorics:
    """The incidence structure realized by an arrangement: the lines through
    each intersection point, from ``_point_groups``, with no point built."""
    return Combinatorics([l.name for l in arr.lines], _point_groups(arr))


def conjugate_arrangement(arr: Arrangement) -> Arrangement:
    """Complex conjugation applied to every line coefficient."""
    return Arrangement(
        arr.order,
        [ProjLine(l.name, tuple(c.conjugate() for c in l.coeffs)) for l in arr.lines],  # type: ignore[arg-type]
    )


def apply_map(arr: Arrangement, m: ProjMap) -> Arrangement:
    return Arrangement(arr.order, [m.apply_line(l) for l in arr.lines])


@dataclass(frozen=True)
class RigidifyReport:
    """Incidences the appended line creates with existing singular points."""

    new_line: ProjLine
    hit_singular_points: tuple[tuple[int, ...], ...]  # line-index sets met


def rigidify(
    arr: Arrangement, p: ProjPoint, q: ProjPoint, name: str | None = None
) -> tuple[Arrangement, RigidifyReport]:
    """Append the unique line through two singular points of the arrangement."""
    if p == q:
        raise ValueError("need two distinct points to span a line")
    singular = arr.singular_points()
    for pt in (p, q):
        if pt not in singular:
            raise ValueError(f"{pt} is not a singular point of the arrangement")
    coeffs = _cross(p.coords, q.coords)
    new_line = ProjLine(name or f"L{arr.n_lines + 1}", coeffs)
    hits = tuple(
        idxs
        for point, idxs in sorted(singular.items(), key=lambda kv: kv[1])
        if point.lies_on(new_line)
    )
    bigger = Arrangement(arr.order, list(arr.lines) + [new_line])
    return bigger, RigidifyReport(new_line, hits)
