"""Generalized Petersen graphs, bipartitions, and automorphism counting.

Vertex labeling for GP(n, s): the outer n-cycle is 0..n-1, the inner star
polygon is n..2n-1, and the spoke at position i joins i to n+i.  Inner
vertex n+j is adjacent to n+((j+s) mod n).  For GP(8, 3) this puts the
outer octagon on 0..7 and the inner star on 8..15.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from ._jsonfmt import json_index


class NotBipartiteError(ValueError):
    """Two-coloring failed; carries an odd cycle as witness."""

    def __init__(self, odd_cycle: tuple[int, ...]):
        super().__init__(f"graph is not bipartite; odd cycle: {list(odd_cycle)}")
        self.odd_cycle = tuple(odd_cycle)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n_vertices-1.

    Edges are normalized on construction: each pair sorted ascending, the
    whole set sorted lexicographically, duplicates and self-loops rejected.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple for every vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def to_json_dict(self) -> dict:
        return {"n_vertices": self.n_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return cls(json_index(data["n_vertices"]),
                   tuple((json_index(u), json_index(v)) for u, v in data["edges"]))


@dataclass(frozen=True)
class Bipartition:
    class_a: frozenset[int]
    class_b: frozenset[int]


def generalized_petersen(n: int, s: int) -> Graph:
    """Construct GP(n, s) on 2n vertices with 3n edges.

    Requires n >= 3 and 1 <= s < n/2 (strict), so the inner star edges are
    well-defined and pairwise distinct.
    """
    if n < 3:
        raise ValueError(f"GP(n, s) needs n >= 3, got n={n}")
    if s < 1 or 2 * s >= n:
        raise ValueError(f"GP(n, s) needs 1 <= s < n/2, got n={n}, s={s}")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + s) % n))
    return Graph(2 * n, tuple(edges))


def bipartition(g: Graph) -> Bipartition:
    """Two-color g by BFS; raises NotBipartiteError with an odd-cycle witness.

    Deterministic: traversal starts from the smallest unvisited vertex and
    that vertex lands in class_a, so vertex 0 is always in class_a.
    """
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in range(g.n_vertices):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartiteError(_odd_cycle(parent, u, w))
    class_a = frozenset(v for v, c in color.items() if c == 0)
    class_b = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(class_a, class_b)


def _odd_cycle(parent: dict[int, int | None], u: int, w: int) -> tuple[int, ...]:
    # BFS-tree paths from u and w up to their lowest common ancestor,
    # closed by the offending edge (u, w).  Same-color endpoints have equal
    # depth parity, so the cycle length is odd.
    chain_u = [u]
    while parent[chain_u[-1]] is not None:
        chain_u.append(parent[chain_u[-1]])
    index_in_u = {v: i for i, v in enumerate(chain_u)}
    chain_w = [w]
    while chain_w[-1] not in index_in_u:
        chain_w.append(parent[chain_w[-1]])
    lca_pos = index_in_u[chain_w[-1]]
    return tuple(reversed(chain_u[:lca_pos + 1])) + tuple(chain_w[:-1])


def automorphism_count(g: Graph) -> int:
    """Count adjacency-preserving vertex permutations by backtracking.

    Vertices are mapped in BFS order.  Automorphisms are exactly the
    isometries of the graph metric, so a partial map survives only while
    it preserves the distance between every pair of mapped vertices, with
    "unreachable" as one more distance value (components map onto
    components).  Distance 1 is adjacency, so this prunes at least as hard
    as an adjacency test, and far harder on vertex-transitive graphs.
    Candidate images of a vertex with a mapped neighbour are that
    neighbour's image's neighbours, restricted to unused vertices of equal
    degree.

    Costs an O(V^2) distance table, filled by one BFS per vertex in
    O(V * E).  The search keeps an explicit stack of candidate iterators,
    so its depth is not bounded by Python's recursion limit.
    """
    n = g.n_vertices
    if n == 0:
        return 1
    adj = g.adjacency
    deg = [len(a) for a in adj]

    dist: list[list[int]] = []
    order: list[int] = []
    placed = [False] * n
    for v in range(n):
        row, reached = _bfs(adj, v)
        dist.append(row)
        if not placed[v]:           # v is the smallest vertex of a new component
            order.extend(reached)
            for u in reached:
                placed[u] = True
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # anchor[i]: the position of order[i]'s BFS parent, its neighbour mapped
    # first; None for a component root, which may map anywhere.
    anchor: list[int | None] = []
    for i, v in enumerate(order):
        j = min((pos[u] for u in adj[v]), default=i)
        anchor.append(j if j < i else None)

    mapped = [-1] * n               # mapped[i] is the image of order[i]
    used = [False] * n

    def candidates(i: int):
        v = order[i]
        pool = range(n) if anchor[i] is None else adj[mapped[anchor[i]]]
        if i == 0:
            return (w for w in pool if deg[w] == deg[v])
        # dist(u, v) == dist(f(u), w) for every mapped u, compared in C.
        # Distinct vertices are at nonzero distance, so this alone keeps the
        # map injective; `used` only rejects taken images more cheaply.
        want = itemgetter(*order[:i])(dist[v])
        got = itemgetter(*mapped[:i])
        return (w for w in pool
                if not used[w] and deg[w] == deg[v] and got(dist[w]) == want)

    count = 0
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        if mapped[i] != -1:         # retract this depth's previous choice
            used[mapped[i]] = False
            mapped[i] = -1
        w = next(stack[i], None)
        if w is None:
            stack.pop()
        elif i == n - 1:
            count += 1
        else:
            mapped[i] = w
            used[w] = True
            stack.append(candidates(i + 1))
    return count


def _bfs(adj: tuple[tuple[int, ...], ...], source: int) -> tuple[list[int], list[int]]:
    """Distances from source (-1 where unreachable) and the BFS visit order."""
    dist = [-1] * len(adj)
    dist[source] = 0
    reached = [source]
    for u in reached:               # the list grows while it is scanned: a queue
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = d
                reached.append(w)
    return dist, reached
