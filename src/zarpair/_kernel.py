"""Backtracking search for incidence-preserving line maps.

The one search kernel behind automorphism groups and isomorphism testing.
Internally each point is a bitmask over 0-based line indices, which keeps
the inner loop to integer ops only.

Lines are visited in one static order, fixed before the search starts:
fewest candidate images first, and among lines with equally many, the
line that completes the most weight of multiple points (size >= 3),
weighing each point by its size. A point completes when its last line is
placed, and only then can its image be checked against the target, so
this order lets a wrong partial map fail within a few levels instead of
after a whole fan of lines. Double points do not count: the pair-size
check already enforces every double point the moment its second line is
placed, so they would only pull lines forward for nothing.

Two entry points share one depth-first loop, ``_search``, which takes a
list of candidate images per line. ``search_line_maps`` gives it the
lines of equal point-size signature and returns every map, or the first.
``automorphism_generators`` returns a base and a strong generating set of
the automorphism group instead of its elements, building the tables and
the visit order once:

- The base is picked along the visit order: a line joins it when more
  than one line shares its signature and its pair sizes (the size of the
  point through the pair) to the base lines chosen so far. At the end
  every line is the only one with its signature and pair sizes to the
  base, so only the identity fixes the base.
- Levels run deepest first. Level k tries each line j of b_k's cell
  (signature and pair sizes to b_1..b_{k-1} as b_k's) with a find-first
  search for a map that fixes b_1..b_{k-1} and carries b_k to j, on
  candidate lists cut down by the same pair sizes. It skips j when j is
  already in b_k's orbit under the generators found so far, or in the
  orbit of a j that failed: a map onto it would give one onto the failed
  line. Every map found is a generator. A level that finds none leaves
  its line out of the returned base: the stabilizer above fixes it.

After level k, b_k's orbit under the generators is its orbit under the
whole stabilizer of b_1..b_{k-1}, so by induction from the deepest level
the generators generate the group. That completeness rests on the search;
the group layer re-checks each generator and proves the stabilizer chain
by sifting its Schreier generators.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

# Stamped into every benchmark results file; there is one kernel.
BACKEND = "pure-python"


def _visit_order(cand, through, point_size) -> list[int]:
    """Greedy static line order: fewest candidates, then most completed
    weight of multiple points, then lowest index."""
    missing = list(point_size)
    left = set(range(len(cand)))
    order = []
    while left:
        best = min(
            left,
            key=lambda i: (
                len(cand[i]),
                -sum(
                    point_size[t]
                    for t in through[i]
                    if missing[t] == 1 and point_size[t] >= 3
                ),
                i,
            ),
        )
        left.remove(best)
        order.append(best)
        for t in through[best]:
            missing[t] -= 1
    return order


def _tables(n: int, points) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The size of the point through each pair of lines (0 for none), and
    the sorted point sizes through each line (its signature)."""
    size = [[0] * n for _ in range(n)]
    sigs: list[list[int]] = [[] for _ in range(n)]
    for p in points:
        s = len(p)
        for a, b in combinations(p, 2):
            size[a][b] = size[b][a] = s
        for a in p:
            sigs[a].append(s)
    return size, [tuple(sorted(s)) for s in sigs]


def _through(n: int, points) -> list[list[int]]:
    """The indices of the points through each line."""
    through: list[list[int]] = [[] for _ in range(n)]
    for t, p in enumerate(points):
        for a in p:
            through[a].append(t)
    return through


def _masks(points) -> set[int]:
    masks = set()
    for p in points:
        mask = 0
        for a in p:
            mask |= 1 << a
        masks.add(mask)
    return masks


def _search(cand, order, size_src, size_dst, through, point_size, dst_masks, find_all):
    """The depth-first loop: the line ``order[d]`` at depth d takes each
    free image in its candidate list that keeps the pair sizes to every
    placed line and completes only points of the target. Returns the maps
    found in search order; with ``find_all`` false, at most one."""
    n = len(order)
    m = len(point_size)
    img = [-1] * n
    used = [False] * n
    acc = [0] * m
    cnt = [0] * m
    results: list[tuple[int, ...]] = []

    def dfs(depth: int) -> bool:
        if depth == n:
            results.append(tuple(img))
            return not find_all
        i = order[depth]
        row_i = size_src[i]
        for j in cand[i]:
            if used[j]:
                continue
            row_j = size_dst[j]
            ok = True
            for d in range(depth):
                i2 = order[d]
                if row_i[i2] != row_j[img[i2]]:
                    ok = False
                    break
            touched = 0
            if ok:
                bit = 1 << j
                for t in through[i]:
                    acc[t] |= bit
                    cnt[t] += 1
                    touched += 1
                    if cnt[t] == point_size[t] and acc[t] not in dst_masks:
                        ok = False
                        break
            stop = False
            if ok:
                img[i] = j
                used[j] = True
                stop = dfs(depth + 1)
                used[j] = False
                img[i] = -1
            clear = ~(1 << j)
            for t in through[i][:touched]:
                acc[t] &= clear
                cnt[t] -= 1
            if stop:
                return True
        return False

    try:
        dfs(0)
    finally:
        # dfs reaches itself through its closure cell; clearing the cell
        # frees the search state without the cyclic collector.
        del dfs
    return results


def search_line_maps(
    n: int,
    src_points: Sequence[tuple[int, ...]],
    dst_points: Sequence[tuple[int, ...]],
    find_all: bool = True,
) -> list[tuple[int, ...]]:
    """Permutations of 0..n-1 carrying every src point onto a dst point.

    Points are tuples of 0-based line indices; the returned permutations
    are 0-based image tuples, sorted for determinism. With ``find_all``
    false the search stops at the first map found, which is some valid
    map; which one depends on the visit order.

    Prunes by per-line point-size signatures and by the size of the point
    through each already-assigned pair; a point is verified against the
    target point set the moment its last line gets assigned. Lines are
    visited by fewest candidates, then by the most weight of multiple
    points (size >= 3) their placement completes, then by index; double
    points carry no weight, since the pair-size check already enforces
    them. Passing one sequence as both source and target builds the pair
    sizes and signatures once.
    """
    m = len(src_points)
    if len(dst_points) != m:
        return []
    same = dst_points is src_points
    if not same and sorted(map(len, src_points)) != sorted(map(len, dst_points)):
        return []
    size_src, sig_src = _tables(n, src_points)
    size_dst, sig_dst = (size_src, sig_src) if same else _tables(n, dst_points)
    cand = [
        [j for j in range(n) if sig_dst[j] == sig_src[i]] for i in range(n)
    ]
    if any(not c for c in cand):
        return []
    through = _through(n, src_points)
    point_size = [len(p) for p in src_points]
    order = _visit_order(cand, through, point_size)
    results = _search(
        cand, order, size_src, size_dst, through, point_size,
        _masks(dst_points), find_all,
    )
    results.sort()
    return results


def _orbit(seeds, generators) -> set[int]:
    """The lines reached from ``seeds`` under the generators."""
    orbit = set(seeds)
    queue = list(orbit)
    for x in queue:
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def automorphism_generators(
    n: int, points: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """A base and strong generators of the automorphisms of a point set.

    Points are tuples of 0-based line indices. Returns ``(base,
    generators)``: the base lines b_1..b_L, and the generators as 0-based
    image tuples in the order found, deepest level first. A generator
    found at level k fixes b_1..b_{k-1} and moves b_k. The generators of
    levels k..L generate the stabilizer of b_1..b_{k-1}. Base lines whose
    level found no generator are left out: the stabilizer above them
    fixes them already, so every level returned has a generator. See the
    module docstring for the base choice and the orbit pruning.
    """
    size, sig = _tables(n, points)
    cand = [[j for j in range(n) if sig[j] == sig[i]] for i in range(n)]
    through = _through(n, points)
    point_size = [len(p) for p in points]
    masks = _masks(points)
    order = _visit_order(cand, through, point_size)

    # cells[i]: the lines with i's signature and pair sizes to the base so
    # far; stays[k] keeps the cells of level k, before b_k joins the base.
    cells = cand
    base: list[int] = []
    stays = []
    for i in order:
        if len(cells[i]) > 1:
            base.append(i)
            stays.append(cells)
            row = size[i]
            cells = [[j for j in c if row[j] == row[l]] for l, c in enumerate(cells)]

    generators: list[tuple[int, ...]] = []
    moved = []
    for k in reversed(range(len(base))):
        b, fixed, stay = base[k], base[:k], stays[k]
        found_before = len(generators)
        orbit = _orbit((b,), generators)
        failed: set[int] = set()
        for j in stay[b]:
            if j in orbit or j in failed:
                continue
            row_b, row_j = size[b], size[j]
            lists = [[c for c in stay[i] if row_j[c] == row_b[i]] for i in range(n)]
            for f in fixed:
                lists[f] = [f]
            lists[b] = [j]
            found = _search(lists, order, size, size, through, point_size, masks, False)
            if found:
                generators.extend(found)
                orbit = _orbit((b,), generators)
                failed = _orbit(failed, generators)
            else:
                failed |= _orbit((j,), generators)
        if len(generators) > found_before:
            moved.append(b)
    return tuple(reversed(moved)), generators
