"""Backtracking search for incidence-preserving line maps.

The one search kernel behind automorphism enumeration and isomorphism
testing. Internally each point is a bitmask over 0-based line indices,
which keeps the inner loop to integer ops only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

# Stamped into every benchmark results file; there is one kernel.
BACKEND = "pure-python"


def search_line_maps(
    n: int,
    src_points: Sequence[tuple[int, ...]],
    dst_points: Sequence[tuple[int, ...]],
    find_all: bool = True,
) -> list[tuple[int, ...]]:
    """Permutations of 0..n-1 carrying every src point onto a dst point.

    Points are tuples of 0-based line indices; the returned permutations
    are 0-based image tuples, sorted for determinism. With ``find_all``
    false the search stops at the first map found.

    Prunes by per-line point-size signatures and by the size of the point
    through each already-assigned pair; a point is verified against the
    target point set the moment its last line gets assigned.
    """
    m = len(src_points)
    if len(dst_points) != m:
        return []
    if sorted(map(len, src_points)) != sorted(map(len, dst_points)):
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
    size_dst = pair_sizes(dst_points)

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
    sig_dst = signatures(dst_points)
    cand = [
        [j for j in range(n) if sig_dst[j] == sig_src[i]] for i in range(n)
    ]
    if any(not c for c in cand):
        return []

    # Most-constrained lines first; ties broken by index for determinism.
    order = sorted(range(n), key=lambda i: (len(cand[i]), i))

    point_size = [len(p) for p in src_points]
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

    dfs(0)
    results.sort()
    return results
