"""Backtracking search for incidence-preserving line maps.

The one search kernel behind automorphism enumeration and isomorphism
testing. Internally each point is a bitmask over 0-based line indices,
which keeps the inner loop to integer ops only.

Lines are visited in one static order, fixed before the search starts:
fewest candidate images first, and among lines with equally many, the
line that completes the most weight of multiple points (size >= 3),
weighing each point by its size. A point completes when its last line is
placed, and only then can its image be checked against the target, so
this order lets a wrong partial map fail within a few levels instead of
after a whole fan of lines. Double points do not count: the pair-size
check already enforces every double point the moment its second line is
placed, so they would only pull lines forward for nothing.
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

    dst_masks = set()
    for p in dst_points:
        mask = 0
        for a in p:
            mask |= 1 << a
        dst_masks.add(mask)

    def pair_sizes(points):
        table = [[0] * n for _ in range(n)]
        for p in points:
            s = len(p)
            for a, b in combinations(p, 2):
                table[a][b] = table[b][a] = s
        return table

    size_src = pair_sizes(src_points)
    size_dst = size_src if same else pair_sizes(dst_points)

    through = [[] for _ in range(n)]
    for t, p in enumerate(src_points):
        for a in p:
            through[a].append(t)

    def signatures(points):
        sigs = [[] for _ in range(n)]
        for p in points:
            for a in p:
                sigs[a].append(len(p))
        return [tuple(sorted(s)) for s in sigs]

    sig_src = signatures(src_points)
    sig_dst = sig_src if same else signatures(dst_points)
    cand = [
        [j for j in range(n) if sig_dst[j] == sig_src[i]] for i in range(n)
    ]
    if any(not c for c in cand):
        return []

    point_size = [len(p) for p in src_points]
    order = _visit_order(cand, through, point_size)

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
    results.sort()
    return results
