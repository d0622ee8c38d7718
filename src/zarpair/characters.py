"""Torsion characters on a combinatorics and the inner-cyclic tests.

A character assigns each line a root of unity zeta_m^e with product one
over all lines. It extends to the points by multiplying the values of the
lines through the point. In the incidence graph, which joins each line to
the points on it, a triangle is a cycle through three lines and their three
pairwise points. A character is inner-cyclic for a triangle when every line
and point at graph distance <= 1 from that cycle carries the value 1; the
two test variants below implement the distance formulation and its
three-condition restatement, which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinatorics import Combinatorics, Triangle, is_int_list, triangle_cycle
from .cyclotomic import CycloNum, check_order

__all__ = ["Character", "is_inner_cyclic_def", "is_inner_cyclic_remark"]


@dataclass(frozen=True)
class Character:
    """Exponent vector mod m on the ordered lines: line i maps to zeta_m^e_i."""

    base: Combinatorics
    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        check_order(self.modulus, "modulus")
        if len(self.exponents) != self.base.n_lines:
            raise ValueError(
                f"expected {self.base.n_lines} exponents, got {len(self.exponents)}"
            )
        object.__setattr__(
            self, "exponents", tuple(e % self.modulus for e in self.exponents)
        )
        if sum(self.exponents) % self.modulus != 0:
            raise ValueError(
                "exponents do not satisfy the product-one condition "
                f"(sum {sum(self.exponents)} mod {self.modulus} != 0)"
            )

    @classmethod
    def trivial(cls, base: Combinatorics, modulus: int = 1) -> "Character":
        return cls(base, modulus, (0,) * base.n_lines)

    def exponent_of_line(self, i: int) -> int:
        return self.exponents[i - 1]

    def value_on_line(self, i: int) -> CycloNum:
        return CycloNum.zeta(self.modulus, self.exponents[i - 1])

    def extend_star(self, point: Sequence[int]) -> CycloNum:
        """Product of the line values over a point of the base combinatorics."""
        point = tuple(sorted(point))
        if point not in self.base.points:
            raise ValueError(f"{list(point)} is not a point of the combinatorics")
        return CycloNum.zeta(self.modulus, sum(self.exponents[i - 1] for i in point))

    def point_exponent(self, point: Sequence[int]) -> int:
        return sum(self.exponents[i - 1] for i in point) % self.modulus

    def to_obj(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    @classmethod
    def from_obj(cls, obj: dict, base: Combinatorics) -> "Character":
        """Read the file form; a malformed object raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("character must be a JSON object")
        exponents = obj.get("exponents")
        if not is_int_list(exponents):
            raise ValueError(f"exponents {exponents!r} are not a list of integers")
        return cls(base, obj.get("modulus"), tuple(exponents))


def _check_triangle(comb: Combinatorics, triangle: Triangle) -> None:
    if triangle_cycle(comb, *triangle.lines) != triangle:
        raise ValueError("triangle does not live on this combinatorics")


def is_inner_cyclic_def(
    comb: Combinatorics, char: Character, triangle: Triangle
) -> bool:
    """Distance formulation: every line and point at distance <= 1 from the
    triangle has extended character value 1.

    The neighbours of a line are the points on it, and the neighbours of a
    point are its lines.
    """
    _check_triangle(comb, triangle)
    lines = set(triangle.lines)
    near_lines = lines.union(*triangle.vertices)
    near_points = set(triangle.vertices) | {
        p for p in comb.points if not lines.isdisjoint(p)
    }
    return all(char.exponent_of_line(i) == 0 for i in near_lines) and all(
        char.point_exponent(p) == 0 for p in near_points
    )


def is_inner_cyclic_remark(
    comb: Combinatorics, char: Character, triangle: Triangle
) -> bool:
    """Three-condition restatement, each checked independently:

    1. the three lines of the triangle have value 1;
    2. every line through a vertex of the triangle has value 1;
    3. every point lying on a line of the triangle has extended value 1.
    """
    _check_triangle(comb, triangle)
    support = triangle.lines
    cond1 = all(char.exponent_of_line(i) == 0 for i in support)
    cond2 = all(
        char.exponent_of_line(i) == 0
        for point in triangle.vertices
        for i in point
    )
    cond3 = all(
        char.point_exponent(p) == 0
        for line in support
        for p in comb.points_on_line(line)
    )
    return cond1 and cond2 and cond3
