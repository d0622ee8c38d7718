"""Torsion characters on a combinatorics and the inner-cyclic tests.

A character assigns each line a root of unity zeta_m^e with product one
over all lines. It extends to point vertices of the incidence graph by
multiplying the values of the lines through the point. A character is
inner-cyclic for a cycle when everything at graph distance <= 1 from the
cycle carries the value 1; the two test variants below implement the
distance formulation and its three-condition restatement, which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinatorics import Combinatorics, Cycle, is_int_list
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


def _check_cycle(comb: Combinatorics, cycle: Cycle) -> None:
    if not cycle.is_cycle_of(comb.incidence_graph()):
        raise ValueError("cycle is not a cycle of this incidence graph")


def is_inner_cyclic_def(comb: Combinatorics, char: Character, cycle: Cycle) -> bool:
    """Distance formulation: every vertex at distance <= 1 from the cycle
    has extended character value 1."""
    _check_cycle(comb, cycle)
    graph = comb.incidence_graph()
    near = set(cycle.vertices)
    for v in cycle.vertices:
        near |= graph.neighbors(v)
    for v in near:
        if v[0] == "L":
            if char.exponent_of_line(v[1]) != 0:
                return False
        else:
            if char.point_exponent(v[1]) != 0:
                return False
    return True


def is_inner_cyclic_remark(comb: Combinatorics, char: Character, cycle: Cycle) -> bool:
    """Three-condition restatement, each checked independently:

    1. the lines supporting the cycle have value 1;
    2. every line through a point vertex of the cycle has value 1;
    3. every point lying on a support line has extended value 1.
    """
    _check_cycle(comb, cycle)
    support = cycle.support
    cond1 = all(char.exponent_of_line(i) == 0 for i in support)
    cond2 = all(
        char.exponent_of_line(i) == 0
        for point in cycle.point_vertices
        for i in point
    )
    cond3 = all(
        char.point_exponent(p) == 0
        for line in support
        for p in comb.points_on_line(line)
    )
    return cond1 and cond2 and cond3
