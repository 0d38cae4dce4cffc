"""Maximum matching, general and bipartite.

The general matcher is the classic augmenting-path search with blossom
contraction (BFS forest, `base[]` tracking contracted odd cycles), O(n^3) and
entirely adequate for the graph sizes this package touches.  It backs the
pair base case of the factor schemes, where a perfect matching on a threshold
subgraph is exactly a heavy 2-block factor.

The bipartite matcher is Kuhn's algorithm; the factor schemes use it to marry
merged cliques to leftover vertices through an averaged weight matrix.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


def maximum_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Maximum matching on an n-vertex simple graph.

    Returns match[v] = partner of v, or -1 when v is exposed.  Edges may be
    given in either orientation; loops are rejected.
    """
    adj = [[] for _ in range(n)]
    seen_edges = set()
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"invalid edge ({u}, {v}) for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            continue
        seen_edges.add(key)
        adj[u].append(v)
        adj[v].append(u)

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lowest_common_base(a: int, b: int) -> int:
        marked = [False] * n
        while True:
            a = base[a]
            marked[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if marked[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, anchor: int, child: int) -> None:
        while base[v] != anchor:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom at the common base
                    anchor = lowest_common_base(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, anchor, to)
                    mark_path(to, anchor, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = anchor
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # exposed vertex reached: flip the path back to the root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)
    return match


def perfect_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Perfect matching as sorted vertex pairs, or None when none exists."""
    if n % 2 != 0:
        raise ValueError(f"perfect matching needs an even vertex count, got n={n}")
    match = maximum_matching(n, edges)
    if any(p == -1 for p in match):
        return None
    return sorted((v, match[v]) for v in range(n) if v < match[v])


def bipartite_maximum_matching(n_left: int, n_right: int,
                               adjacency: Sequence[Iterable[int]]) -> list[int]:
    """Kuhn's algorithm; returns match_left[i] = right index or -1."""
    if len(adjacency) != n_left:
        raise ValueError("adjacency must list neighbors for every left vertex")
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    for u in range(n_left):
        _try_augment(u, adjacency, match_left, match_right, [False] * n_right)
    return match_left


def _try_augment(u: int, adjacency: Sequence[Iterable[int]], match_left: list[int],
                 match_right: list[int], visited: list[bool]) -> bool:
    """Kuhn's augmenting-path step from left vertex u; flips the path when found."""
    for v in adjacency[u]:
        if not 0 <= v < len(match_right):
            raise ValueError(f"right vertex {v} out of range")
        if visited[v]:
            continue
        visited[v] = True
        if match_right[v] == -1 or _try_augment(match_right[v], adjacency, match_left,
                                                 match_right, visited):
            match_left[u] = v
            match_right[v] = u
            return True
    return False
