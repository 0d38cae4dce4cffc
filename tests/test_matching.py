"""General and bipartite maximum matching against brute force."""

from collections import deque
from itertools import combinations, permutations
from random import Random

import pytest

from heavyfactors import bipartite_maximum_matching, maximum_matching, perfect_matching


def brute_force_matching_size(n, edges):
    """Largest matching by recursion on the lowest unmatched vertex, n small."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def best(free):
        if not free:
            return 0
        v = min(free)
        rest = free - {v}
        top = best(rest)  # leave v exposed
        for u in adj[v]:
            if u in rest:
                top = max(top, 1 + best(rest - {u}))
        return top

    return best(frozenset(range(n)))


def matching_size(match):
    return sum(1 for v, p in enumerate(match) if p != -1 and v < p)


def check_valid(match, edges, n):
    eset = set((min(u, v), max(u, v)) for u, v in edges)
    for v, p in enumerate(match):
        if p == -1:
            continue
        assert match[p] == v, "matching must be symmetric"
        assert (min(v, p), max(v, p)) in eset, "matched pair must be an edge"


def test_triangle_matches_one_pair():
    match = maximum_matching(3, [(0, 1), (1, 2), (0, 2)])
    assert matching_size(match) == 1


def test_five_cycle_needs_blossom_handling():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    match = maximum_matching(5, edges)
    check_valid(match, edges, 5)
    assert matching_size(match) == 2


def test_two_triangles_joined_by_a_bridge():
    """Classic blossom case: augmenting path must pass through odd cycles."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    match = maximum_matching(6, edges)
    check_valid(match, edges, 6)
    assert matching_size(match) == 3
    assert perfect_matching(6, edges) is not None


def test_petersen_graph_has_a_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    pm = perfect_matching(10, outer + inner + spokes)
    assert pm is not None and len(pm) == 5
    assert sorted(v for e in pm for v in e) == list(range(10))


def test_star_cannot_have_a_perfect_matching():
    assert perfect_matching(4, [(0, 1), (0, 2), (0, 3)]) is None


def test_perfect_matching_rejects_odd_order():
    with pytest.raises(ValueError):
        perfect_matching(5, [(0, 1)])


def test_maximum_matching_rejects_loops_and_range_errors():
    with pytest.raises(ValueError):
        maximum_matching(3, [(1, 1)])
    with pytest.raises(ValueError):
        maximum_matching(3, [(0, 3)])


@pytest.mark.parametrize("call,message", [
    (lambda: maximum_matching(3, [(True, 2)]), "edge (True, 2): vertex must be an integer, got True"),
    (lambda: maximum_matching(3, [(0.0, 1)]), "edge (0.0, 1): vertex must be an integer, got 0.0"),
    (lambda: maximum_matching(3, [(0, 1), (2, 1.0)]), "edge (2, 1.0): vertex must be an integer, got 1.0"),
    (lambda: maximum_matching(-1, []), "vertex count must be nonnegative, got -1"),
    (lambda: maximum_matching(2.0, []), "vertex count must be an integer, got 2.0"),
    (lambda: perfect_matching(True, []), "vertex count must be an integer, got True"),
    (lambda: bipartite_maximum_matching(2, 2, [[True], [0]]), "adjacency[0]: right vertex must be an integer, got True"),
    (lambda: bipartite_maximum_matching(2, 2, [[0], [1.0]]), "adjacency[1]: right vertex must be an integer, got 1.0"),
    (lambda: bipartite_maximum_matching(-1, 2, []), "left side size must be nonnegative, got -1"),
    (lambda: bipartite_maximum_matching(0, -1, []), "right side size must be nonnegative, got -1"),
    (lambda: bipartite_maximum_matching(1.0, 1, [[0]]), "left side size must be an integer, got 1.0"),
    (lambda: bipartite_maximum_matching(1, True, [[0]]), "right side size must be an integer, got True"),
], ids=["edge-bool", "edge-float", "later-edge-float", "n-negative", "n-float", "perfect-n-bool", "neighbour-bool",
        "neighbour-float", "left-negative", "right-negative", "left-float", "right-bool"])
def test_matchers_read_vertices_and_sizes_by_the_integer_rule(call, message):
    """Each edge end, neighbour and size goes through `core._integer`, and each size through `core._nonnegative`.

    Unchecked, a bool end is matched as vertex 0 or 1, a float one fails on a list index, and a negative
    n gives an empty match vector.
    """
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_duplicate_and_reversed_edges_are_tolerated():
    match = maximum_matching(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert matching_size(match) == 2


def test_random_sweep_agrees_with_brute_force():
    """Seeded Erdos-Renyi graphs on up to 9 vertices, exact size comparison."""
    rng = Random(20250812)
    for trial in range(120):
        n = rng.randint(2, 9)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        match = maximum_matching(n, edges)
        check_valid(match, edges, n)
        assert matching_size(match) == brute_force_matching_size(n, edges), (
            f"trial {trial}: n={n} edges={edges}"
        )


def test_bipartite_fixture_with_forced_augmentation():
    # left 0 and 1 both prefer right 0; Kuhn must reroute one of them
    match = bipartite_maximum_matching(3, 3, [[0], [0, 1], [1, 2]])
    assert match == [0, 1, 2]


def test_bipartite_no_edges_and_validation():
    assert bipartite_maximum_matching(2, 2, [[], []]) == [-1, -1]
    with pytest.raises(ValueError):
        bipartite_maximum_matching(2, 2, [[0]])
    with pytest.raises(ValueError):
        bipartite_maximum_matching(1, 1, [[5]])
    for row in ([0, 5], [5, 0]):  # every index is checked, not only the ones an augmenting path visits
        with pytest.raises(ValueError, match="^right vertex 5 out of range$"):
            bipartite_maximum_matching(1, 1, [row])


def brute_force_bipartite_size(n_left, n_right, adjacency):
    """Try all injections of a subset of left into right, n small."""
    best = 0
    sides = list(range(n_right))
    for k in range(min(n_left, n_right), 0, -1):
        if k <= best:
            break
        found = False
        for lefts in combinations(range(n_left), k):
            for rights in permutations(sides, k):
                if all(rights[i] in adjacency[lefts[i]] for i in range(k)):
                    best = k
                    found = True
                    break
            if found:
                break
    return best


def test_bipartite_random_sweep_agrees_with_brute_force():
    rng = Random(99)
    for _ in range(80):
        nl = rng.randint(1, 5)
        nr = rng.randint(1, 5)
        adjacency = [
            sorted(v for v in range(nr) if rng.random() < 0.5) for _ in range(nl)
        ]
        match = bipartite_maximum_matching(nl, nr, adjacency)
        size = sum(1 for v in match if v != -1)
        rights = [v for v in match if v != -1]
        assert len(set(rights)) == len(rights)
        for u, v in enumerate(match):
            if v != -1:
                assert v in adjacency[u]
        assert size == brute_force_bipartite_size(nl, nr, adjacency)


def reference_maximum_matching(n, edges):
    """The blossom matcher as it was before its resets became slice assignments, kept as the oracle.

    It grows a tree from every exposed root, even one with an exposed neighbour.

    Same adjacency order, BFS order and contraction, so it returns the same
    match vector, not only a matching of the same size.
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

    def lowest_common_base(a, b):
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

    def mark_path(v, anchor, child):
        while base[v] != anchor:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root):
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


@pytest.mark.parametrize("density", [0.05, 0.2, 0.5, 0.9, 1.0])
def test_maximum_matching_returns_the_reference_match_vector(density):
    """Random graphs on up to 40 vertices, listed in a shuffled order with reversed and repeated edges."""
    rng = Random(int(density * 100))
    for _ in range(40):
        n = rng.randint(1, 40)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in combinations(range(n), 2) if rng.random() < density]
        edges += [rng.choice(edges)[::rng.choice([1, -1])] for _ in range(len(edges) // 4)]
        rng.shuffle(edges)
        match = maximum_matching(n, edges)
        assert match == reference_maximum_matching(n, edges), (n, edges)
        check_valid(match, edges, n)


@pytest.mark.parametrize("n, edges, expected", [
    # root 2's exposed neighbour 3 comes after 0 and 1, which close a blossom with 2 in the tree search
    (4, [(0, 1), (2, 0), (2, 1), (2, 3)], [1, 0, 3, 2]),
    # root 2 has no exposed neighbour, so it augments through the tree 2-1-0-3
    (4, [(1, 2), (0, 1), (0, 3)], [3, 2, 1, 0]),
])
def test_a_root_pairs_with_its_first_exposed_neighbour_or_grows_a_tree(n, edges, expected):
    assert maximum_matching(n, edges) == expected == reference_maximum_matching(n, edges)
