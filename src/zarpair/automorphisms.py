"""Automorphism groups of combinatorics, from a stabilizer chain.

The search kernel (``zarpair._kernel.automorphism_generators``) returns a
base b_1..b_L and strong generators instead of every element. It picks
the base along its visit order, each line whose point-size signature and
pair sizes to the base so far do not single it out, and searches the
levels deepest first: at level k a find-first search looks for a map
that fixes b_1..b_{k-1} and carries b_k to a candidate j, skipping every
j already in b_k's orbit under the generators found so far or in the
orbit of a j that failed. Each map found is a generator, and only base
lines whose level found one are returned.

This module proves the group instead of trusting the kernel. Every
generator is re-checked point by point against the point set as
bitmasks. One transversal per level comes from a breadth-first walk of
b_k's orbit under the generators that fix b_1..b_{k-1}, and every
Schreier generator t_{s(x)}^-1 s t_x is sifted down the chain to the
identity. By Schreier's lemma the products u_1 ... u_L, one transversal
element per level, are then exactly the group the generators generate,
each once; that proves closure and inverses of the expanded elements
without composing pairs of them. That the generators reach every
automorphism still rests on the kernel's search. The elements are the
sorted expansion of those products. Group statistics read the center off
the generators: an element is central when it commutes with each of
them. A copy-preserving subgroup filters the elements and derives its
own generators greedily, only when asked for them. The 2x2 matrix model
over F_3 for the 9-line extended MacLane structure is checked on the
elements.
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


def _check_maps_points(n: int, points, perms) -> None:
    """Raise unless each permutation of 0..n-1 carries every point (a
    tuple of 0-based lines) onto a point."""
    masks = {sum(1 << a for a in p) for p in points}
    for s in perms:
        if sorted(s) != list(range(n)):
            raise AssertionError(f"generator {s} is not a permutation of the lines")
        for p in points:
            if sum(1 << s[a] for a in p) not in masks:
                raise AssertionError(f"generator {s} moves the point {p} off the points")


def _inverse(t: Perm) -> Perm:
    """Inverse of a 0-based permutation."""
    inv = [0] * len(t)
    for i, j in enumerate(t):
        inv[j] = i
    return tuple(inv)


def _stabilizer_chain(n: int, base, generators) -> list[dict[int, Perm]]:
    """One transversal per base line, proved by Schreier's lemma.

    Permutations are 0-based. The transversal of b_k maps each point x of
    b_k's orbit under the generators fixing b_1..b_{k-1} to an element
    t_x carrying b_k to x. Every generator, and every Schreier generator
    t_{s(x)}^-1 s t_x of every level, is sifted down the chain; each must
    end at the identity, or AssertionError is raised.
    """
    identity = tuple(range(n))
    levels = []
    for k, b in enumerate(base):
        gens = [s for s in generators if all(s[c] == c for c in base[:k])]
        u = {b: identity}
        queue = [b]
        for x in queue:
            for s in gens:
                y = s[x]
                if y not in u:
                    u[y] = tuple(map(s.__getitem__, u[x]))
                    queue.append(y)
        levels.append((b, gens, u, {y: _inverse(t) for y, t in u.items()}))

    def sift(g: Perm, start: int) -> None:
        for b, _, u, u_inv in levels[start:]:
            y = g[b]
            if y not in u:
                raise AssertionError(f"sift leaves the orbit of base line {b}")
            g = tuple(map(u_inv[y].__getitem__, g))
        if g != identity:
            raise AssertionError(f"{g} fixes the base but is not the identity")

    for s in generators:
        sift(s, 0)
    for k, (_, gens, u, u_inv) in enumerate(levels):
        for x, t in u.items():
            for s in gens:
                st = tuple(map(s.__getitem__, t))
                if st != u[s[x]]:
                    sift(tuple(map(u_inv[s[x]].__getitem__, st)), k + 1)
    return [u for _, _, u, _ in levels]


@dataclass(frozen=True)
class AutGroup:
    """A group of line permutations of a combinatorics, as sorted elements.

    ``generators`` generate the group: the strong generators the group was
    proved from, or, for a group made from elements alone, a greedy pick
    made the first time they are asked for.
    """

    base: Combinatorics
    elements: tuple[Perm, ...]
    _generators: tuple[Perm, ...] | None = field(default=None, repr=False, compare=False)
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            n = self.base.n_lines
            gens: list[Perm] = []
            closure = _closure(n, gens)
            for p in self.elements:
                if p not in closure:
                    gens.append(p)
                    closure = _closure(n, gens)
            object.__setattr__(self, "_generators", tuple(gens))
        return self._generators

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self._members

    def verify_group_axioms(self) -> None:
        """The elements are exactly the group the generators generate: a
        breadth-first walk from the identity over left products with the
        generators stays inside the elements and reaches all of them."""
        reached = _closure(self.base.n_lines, self.generators, self._members)
        if len(reached) != len(self._members):
            raise AssertionError(
                f"the generators reach {len(reached)} of {len(self._members)} elements"
            )


def _closure(n: int, generators, within=None) -> set[Perm]:
    """The group generated by 1-based permutations of n lines, walked
    breadth-first from the identity by left products with the generators;
    with ``within``, raise AssertionError on a product outside it."""
    identity = tuple(range(1, n + 1))
    if within is not None and identity not in within:
        raise AssertionError("automorphism set lacks the identity")
    reached = {identity}
    queue = [identity]
    for h in queue:
        for s in generators:
            sh = compose_perms(s, h)
            if sh not in reached:
                if within is not None and sh not in within:
                    raise AssertionError(f"composition {s} o {h} missing")
                reached.add(sh)
                queue.append(sh)
    return reached


def enumerate_automorphisms(comb: Combinatorics) -> AutGroup:
    """All line permutations carrying points to points, proved a group.

    The kernel gives a base and strong generators; each generator is
    re-checked against the points, the stabilizer chain is proved by
    sifting its Schreier generators, and the elements are the sorted
    products of one transversal element per level.
    """
    n = comb.n_lines
    points0 = [tuple(i - 1 for i in p) for p in comb.points]
    base, strong = _kernel.automorphism_generators(n, points0)
    _check_maps_points(n, points0, strong)
    chain = _stabilizer_chain(n, base, strong)
    # The products u_1 ... u_L, built from the deepest level up; the
    # outermost factor takes 1-based images, so the products are 1-based.
    factors = [list(u.values()) for u in chain] or [[tuple(range(n))]]
    factors[0] = [tuple(j + 1 for j in t) for t in factors[0]]
    elements = [tuple(range(n))]
    for ts in reversed(factors):
        elements = [tuple(map(t.__getitem__, h)) for t in ts for h in elements]
    elements.sort()
    return AutGroup(comb, tuple(elements), tuple(tuple(j + 1 for j in s) for s in strong))


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
    """Order, element-order histogram and center; the center is the set of
    elements that commute with every generator."""
    elements = group.elements
    histogram: dict[int, int] = {}
    for p in elements:
        k = perm_order(p)
        histogram[k] = histogram.get(k, 0) + 1
    gens = group.generators
    center = [
        p
        for p in elements
        if all(compose_perms(p, s) == compose_perms(s, p) for s in gens)
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
