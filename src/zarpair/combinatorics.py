"""Incidence structures of ordered line arrangements.

A combinatorics is an ordered list of lines plus a set of points (subsets of
line indices, size >= 2) such that every pair of distinct lines lies in
exactly one point. Line indices are 1-based throughout, matching the file
format and the usual labelling L1..Ln.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import _kernel

__all__ = [
    "Combinatorics",
    "Triangle",
    "NoTriangleError",
    "ValidationReport",
    "triangle_cycle",
    "ordered_equal",
    "is_isomorphic",
    "apply_line_permutation",
]


def is_int_list(value) -> bool:
    """True for a JSON list of integers (bools, which JSON keeps apart, excluded)."""
    return isinstance(value, list) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in value
    )


class NoTriangleError(ValueError):
    """Raised when three lines are concurrent and span no triangle."""


@dataclass
class ValidationReport:
    """Violations of the two incidence axioms; empty means valid."""

    undersized_points: list[tuple[int, ...]] = field(default_factory=list)
    out_of_range_points: list[tuple[int, ...]] = field(default_factory=list)
    duplicate_points: list[tuple[int, ...]] = field(default_factory=list)
    uncovered_pairs: list[tuple[int, int]] = field(default_factory=list)
    multiply_covered_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.undersized_points
            or self.out_of_range_points
            or self.duplicate_points
            or self.uncovered_pairs
            or self.multiply_covered_pairs
        )

    def messages(self) -> list[str]:
        out = []
        for p in self.undersized_points:
            out.append(f"point {list(p)} has fewer than 2 lines")
        for p in self.out_of_range_points:
            out.append(f"point {list(p)} has line indices out of range")
        for p in self.duplicate_points:
            out.append(f"point {list(p)} listed more than once")
        for a, b in self.uncovered_pairs:
            out.append(f"line pair ({a},{b}) lies in no point")
        for a, b in self.multiply_covered_pairs:
            out.append(f"line pair ({a},{b}) lies in more than one point")
        return out


class Combinatorics:
    """Ordered incidence structure: line labels plus multi-point sets.

    Points are normalized to sorted index tuples and the point list is
    sorted lexicographically, so equal structures serialize identically.
    """

    def __init__(self, lines: Sequence[str], points: Iterable[Iterable[int]]):
        self.lines: tuple[str, ...] = tuple(lines)
        self.points: tuple[tuple[int, ...], ...] = tuple(
            sorted(tuple(sorted(set(p))) for p in points)
        )

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def validate(self) -> ValidationReport:
        """Check both incidence axioms; violations are data, not errors."""
        report = ValidationReport()
        n = self.n_lines
        seen: set[tuple[int, ...]] = set()
        cover: dict[tuple[int, int], int] = {}
        for p in self.points:
            if len(p) < 2:
                report.undersized_points.append(p)
            if p and (p[0] < 1 or p[-1] > n):
                report.out_of_range_points.append(p)
                continue
            if p in seen:
                report.duplicate_points.append(p)
            seen.add(p)
            for pair in combinations(p, 2):
                cover[pair] = cover.get(pair, 0) + 1
        for pair in combinations(range(1, n + 1), 2):
            count = cover.get(pair, 0)
            if count == 0:
                report.uncovered_pairs.append(pair)
            elif count > 1:
                report.multiply_covered_pairs.append(pair)
        return report

    @cached_property
    def _pair_to_point(self) -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], tuple[int, ...]] = {}
        for p in self.points:
            for pair in combinations(p, 2):
                table[pair] = p
        return table

    def point_through(self, i: int, j: int) -> tuple[int, ...]:
        """The unique point containing lines i and j (1-based)."""
        if i == j:
            raise ValueError(f"need two distinct lines, got {i} twice")
        key = (min(i, j), max(i, j))
        try:
            return self._pair_to_point[key]
        except KeyError:
            raise ValueError(f"no point through lines {i} and {j}") from None

    def points_on_line(self, i: int) -> tuple[tuple[int, ...], ...]:
        return tuple(p for p in self.points if i in p)

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        return {"lines": list(self.lines), "points": [list(p) for p in self.points]}

    @classmethod
    def from_obj(cls, obj: dict) -> "Combinatorics":
        """Read the file form; a malformed object raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("combinatorics must be a JSON object")
        lines, points = obj.get("lines"), obj.get("points")
        if not isinstance(lines, list) or not isinstance(points, list):
            raise ValueError("combinatorics needs list-valued 'lines' and 'points'")
        for p in points:
            if not is_int_list(p):
                raise ValueError(f"point {p!r} is not a list of line indices")
        return cls(lines, points)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Combinatorics):
            return NotImplemented
        return self.lines == other.lines and self.points == other.points

    def __hash__(self):
        return hash((self.lines, self.points))

    def __repr__(self):
        return f"Combinatorics({self.n_lines} lines, {len(self.points)} points)"


@dataclass(frozen=True)
class Triangle:
    """Three lines of a combinatorics that are not concurrent, with the
    points where they meet pairwise.

    ``lines`` is (i, j, k) in traversal order, which files write back as
    given; ``vertices`` is (p_ij, p_jk, p_ik). A triangle belongs to a
    combinatorics exactly when triangle_cycle rebuilds it there from its
    lines.
    """

    lines: tuple[int, int, int]
    vertices: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def triangle_cycle(comb: Combinatorics, i: int, j: int, k: int) -> Triangle:
    """The triangle through lines i, j, k and their pairwise points.

    Raises NoTriangleError when the three lines are concurrent (the pairwise
    points coincide, so there is no triangle).

    >>> from zarpair.catalog import extended_maclane_explicit
    >>> t = triangle_cycle(extended_maclane_explicit(), 4, 5, 7)
    >>> t.lines
    (4, 5, 7)
    >>> t.vertices
    ((1, 4, 5, 6), (5, 7), (3, 4, 7))
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"need three distinct lines, got ({i},{j},{k})")
    p_ij = comb.point_through(i, j)
    p_jk = comb.point_through(j, k)
    p_ik = comb.point_through(i, k)
    if len({p_ij, p_jk, p_ik}) != 3:
        raise NoTriangleError(
            f"lines {i},{j},{k} are concurrent: no triangle through them"
        )
    return Triangle((i, j, k), (p_ij, p_jk, p_ik))


def ordered_equal(c1: Combinatorics, c2: Combinatorics) -> bool:
    """Index-wise agreement: same line count and the same set of points."""
    return c1.n_lines == c2.n_lines and set(c1.points) == set(c2.points)


def apply_line_permutation(
    comb: Combinatorics, perm: Sequence[int]
) -> Combinatorics:
    """Relabel lines by a permutation (perm[i-1] is the image of line i)."""
    if sorted(perm) != list(range(1, comb.n_lines + 1)):
        raise ValueError("not a permutation of the line indices")
    points = [tuple(sorted(perm[i - 1] for i in p)) for p in comb.points]
    return Combinatorics(comb.lines, points)


def is_isomorphic(c1: Combinatorics, c2: Combinatorics) -> Optional[tuple[int, ...]]:
    """A line permutation carrying the points of c1 onto those of c2, if any.

    Returns the permutation as a tuple (entry i-1 is the image of line i),
    or None when the structures are not isomorphic. The witness is some
    valid map, the first the search kernel reaches; which one that is
    follows the kernel's visit order and is not part of the contract.
    """
    if c1.n_lines != c2.n_lines or len(c1.points) != len(c2.points):
        return None
    found = _kernel.search_line_maps(
        c1.n_lines,
        [tuple(i - 1 for i in p) for p in c1.points],
        [tuple(i - 1 for i in p) for p in c2.points],
        find_all=False,
    )
    if not found:
        return None
    return tuple(j + 1 for j in found[0])
