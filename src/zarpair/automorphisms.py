"""Automorphism groups of combinatorics, by exhaustive backtracking.

The search kernel (``zarpair._kernel``) prunes by per-line point-size
signatures and pairwise point sizes, so the full groups of the catalog
structures enumerate in well under the budgeted time. It visits lines
by fewest candidate images, then by the most weight of multiple points
(size >= 3) each placement completes, so a wrong partial map fails as
soon as a point closes; double points do not count there, since the
pair-size check already enforces them. Group-theoretic
claims are verified on the enumerated elements, not assumed: closure,
inverses, and the 2x2 matrix model over F_3 for the 9-line extended
MacLane structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm

from . import _kernel
from .catalog import FIGURE_LABELS
from .combinatorics import Combinatorics

__all__ = [
    "AutGroup",
    "GroupStats",
    "enumerate_automorphisms",
    "group_stats",
    "compose_perms",
    "invert_perm",
    "perm_order",
    "cycle_notation",
    "maclane_permutation_of_matrix",
    "matrix_of_maclane_automorphism",
    "maclane_sign",
    "maclane_det",
    "copy_preserving_subgroup",
]

Perm = tuple[int, ...]  # entry i-1 is the 1-based image of line i


def compose_perms(p: Perm, q: Perm) -> Perm:
    """p after q: (p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    """Order of the permutation: lcm of its cycle lengths."""
    seen = [False] * len(p)
    result = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i] - 1
            length += 1
        result = lcm(result, length)
    return result


def cycle_notation(p: Perm) -> str:
    """One-line cycle notation on 1-based indices, identity as 'id'."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i + 1)
            i = p[i] - 1
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "id"


@dataclass(frozen=True)
class AutGroup:
    """The full automorphism group of a combinatorics, as sorted permutations."""

    base: Combinatorics
    elements: tuple[Perm, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self._members

    def verify_group_axioms(self) -> None:
        """Identity, closure and inverses, by direct check."""
        members = self._members
        n = self.base.n_lines
        identity = tuple(range(1, n + 1))
        if identity not in members:
            raise AssertionError("automorphism set lacks the identity")
        for p in self.elements:
            if invert_perm(p) not in members:
                raise AssertionError(f"inverse of {p} missing")
            for q in self.elements:
                if compose_perms(p, q) not in members:
                    raise AssertionError(f"composition {p} o {q} missing")


def enumerate_automorphisms(comb: Combinatorics) -> AutGroup:
    """All line permutations carrying points to points, verified as a group."""
    points0 = [tuple(i - 1 for i in p) for p in comb.points]
    raw = _kernel.search_line_maps(comb.n_lines, points0, points0, find_all=True)
    # The kernel returns sorted maps, and shifting to 1-based keeps the order.
    elements = tuple(tuple(j + 1 for j in p) for p in raw)
    group = AutGroup(comb, elements)
    group.verify_group_axioms()
    return group


@dataclass(frozen=True)
class GroupStats:
    order: int
    is_abelian: bool
    center_order: int
    element_order_histogram: dict[int, int]

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.is_abelian,
            "center_order": self.center_order,
            "element_order_histogram": {
                str(k): v for k, v in sorted(self.element_order_histogram.items())
            },
        }


def group_stats(group: AutGroup) -> GroupStats:
    elements = group.elements
    histogram: dict[int, int] = {}
    for p in elements:
        k = perm_order(p)
        histogram[k] = histogram.get(k, 0) + 1
    center = [
        p
        for p in elements
        if all(compose_perms(p, q) == compose_perms(q, p) for q in elements)
    ]
    return GroupStats(
        order=len(elements),
        is_abelian=len(center) == len(elements),
        center_order=len(center),
        element_order_histogram=histogram,
    )


# -- the GL2(F3) matrix model for the extended MacLane group -----------------

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def _lower_triangular_gl2_f3() -> list[Matrix2]:
    """The 12 invertible lower-triangular matrices ((a,0),(b,c)) over F_3."""
    return [
        ((a, 0), (b, c))
        for a, b, c in product((1, 2), (0, 1, 2), (1, 2))
    ]


def maclane_permutation_of_matrix(matrix: Matrix2) -> Perm:
    """The line permutation induced by a matrix on the F_3^2 labels of
    lines 2..9; line 1 stays put.

    The labels transform by the row action of the inverse matrix. Row
    action is what keeps the direction of line 1 invariant (hence the
    lower-triangular shape), and taking the inverse orients the action so
    that matrix multiplication matches composition of permutations.
    """
    (a, _), (b, c) = matrix
    det = (a * c) % 3
    if det == 0:
        raise ValueError(f"{matrix} is singular over F_3")
    # det is self-inverse in F_3*: 1*1 = 2*2 = 1.
    ia, ib, ic = (det * c) % 3, (-det * b) % 3, (det * a) % 3
    label_to_line = {v: k for k, v in FIGURE_LABELS.items()}
    image = [0] * 9
    image[0] = 1
    for line, (x, y) in FIGURE_LABELS.items():
        fx, fy = (ia * x + ib * y) % 3, (ic * y) % 3
        image[line - 1] = label_to_line[(fx, fy)]
    return tuple(image)


def matrix_of_maclane_automorphism(sigma: Perm) -> Matrix2:
    """The unique lower-triangular GL2(F3) matrix inducing the automorphism,
    by exhaustive search over the 12 candidates."""
    if len(sigma) != 9:
        raise ValueError("expected a permutation of the 9 extended MacLane lines")
    for matrix in _lower_triangular_gl2_f3():
        if maclane_permutation_of_matrix(matrix) == tuple(sigma):
            return matrix
    raise ValueError(
        f"{sigma} is not induced by any lower-triangular matrix over F_3; "
        "not an automorphism of the extended MacLane combinatorics?"
    )


def maclane_sign(sigma: Perm) -> int:
    """+1 when lines 2 and 3 are fixed, -1 when exchanged."""
    if sigma[1] == 2 and sigma[2] == 3:
        return 1
    if sigma[1] == 3 and sigma[2] == 2:
        return -1
    raise ValueError(f"{sigma} neither fixes nor swaps lines 2 and 3")


def maclane_det(sigma: Perm) -> int:
    """Determinant of the matrix model, mapped onto {+1, -1} (2 = -1 in F_3)."""
    (a, _), (_, c) = matrix_of_maclane_automorphism(sigma)
    return 1 if (a * c) % 3 == 1 else -1


def copy_preserving_subgroup(
    group: AutGroup, part_a: set[int] | frozenset[int], part_b: set[int] | frozenset[int]
) -> AutGroup:
    """Elements preserving each of the two line-index sets setwise."""
    part_a, part_b = set(part_a), set(part_b)
    if part_a & part_b:
        raise ValueError("the two parts overlap")
    kept = tuple(
        p
        for p in group.elements
        if {p[i - 1] for i in part_a} == part_a
        and {p[i - 1] for i in part_b} == part_b
    )
    return AutGroup(group.base, kept)
