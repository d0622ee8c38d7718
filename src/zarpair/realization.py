"""Exact projective line arrangements over Q(zeta_n).

Lines are coefficient triples (a, b, c) of ax + by + cz = 0 and points are
homogeneous coordinate triples, both normalized so the first nonzero entry
is 1. Normalization makes equality structural, so intersection points can
be grouped into singular points with a plain dictionary: no epsilon
anywhere. Every incidence, cross product, adjugate entry and matrix product
is a cyclotomic ``dot`` or ``det2``: one exact accumulation per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .combinatorics import Combinatorics
from .cyclotomic import CycloNum, check_order, det2, dot, parse_cyclo

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
            inv = c.inverse()
            return tuple(
                CycloNum.one(c.order) if j == k else x * inv for j, x in enumerate(coords)
            )
    raise ValueError("all coordinates are zero")


def _cross(u: Sequence[CycloNum], v: Sequence[CycloNum]) -> tuple:
    return (
        det2(u[1], u[2], v[1], v[2]),
        det2(u[2], u[0], v[2], v[0]),
        det2(u[0], u[1], v[0], v[1]),
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
        """All pairwise intersections, grouped: point -> sorted line indices."""
        groups: dict[ProjPoint, set[int]] = {}
        for (i, l1), (j, l2) in combinations(enumerate(self.lines, start=1), 2):
            p = intersect(l1, l2)
            groups.setdefault(p, set()).update((i, j))
        return {p: tuple(sorted(s)) for p, s in groups.items()}

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


def intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (cross product)."""
    if l1.same_line(l2):
        raise ValueError(f"lines {l1.name} and {l2.name} are identical")
    return ProjPoint(_cross(l1.coeffs, l2.coeffs))


def derive_combinatorics(arr: Arrangement) -> Combinatorics:
    """The incidence structure realized by an arrangement.

    Sweeps all pairwise intersections and groups the pairs sharing a point;
    exact canonical point equality makes the grouping unambiguous.
    """
    groups = arr.singular_points()
    return Combinatorics([l.name for l in arr.lines], list(groups.values()))


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
