"""Generalized Petersen graphs, bipartitions, and automorphism counting.

Vertex labeling for GP(n, s): the outer n-cycle is 0..n-1, the inner star
polygon is n..2n-1, and the spoke at position i joins i to n+i.  Inner
vertex n+j is adjacent to n+((j+s) mod n).  For GP(8, 3) this puts the
outer octagon on 0..7 and the inner star on 8..15.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from ._jsonfmt import json_index


class NotBipartiteError(ValueError):
    """Two-coloring failed; carries an odd cycle as witness."""

    def __init__(self, odd_cycle: tuple[int, ...]):
        super().__init__(f"graph is not bipartite; odd cycle: {list(odd_cycle)}")
        self.odd_cycle = tuple(odd_cycle)


class Graph(namedtuple("Graph", "n_vertices edges")):
    """Simple undirected graph on vertices 0..n_vertices-1.

    Edges are normalized on construction: each pair sorted ascending, the
    whole set sorted lexicographically, duplicates, self-loops and non-integer
    ids rejected.  Frozen; adjacency and edge_set are computed on first use
    and kept.
    """

    def __new__(cls, n_vertices: int, edges: tuple[tuple[int, int], ...]):
        n = json_index(n_vertices)
        if n < 0:
            raise ValueError("n_vertices must be non-negative")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            # an exact int passes json_index unchanged; anything else goes through it
            if type(u) is not int:
                u = json_index(u)
            if type(v) is not int:
                v = json_index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return tuple.__new__(cls, (n, tuple(sorted(seen))))

    def __setattr__(self, name, value):
        # the instance __dict__ holds only the cached properties below
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple for every vertex."""
        # edges are sorted pairs (u, v), u < v, in lexicographic order, so
        # each vertex gets its smaller neighbours first, in ascending order,
        # then its larger ones, also ascending
        nbrs: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return cls(data["n_vertices"], data["edges"])


class Bipartition(namedtuple("Bipartition", "class_a class_b")):
    """Two frozensets of vertex ids, class_a and class_b."""

    __slots__ = ()


def _check_gp(n: int, s: int) -> None:
    """ValueError unless n >= 3 and 1 <= s < n/2, which GP(n, s) needs."""
    if n < 3:
        raise ValueError(f"GP(n, s) needs n >= 3, got n={n}")
    if s < 1 or 2 * s >= n:
        raise ValueError(f"GP(n, s) needs 1 <= s < n/2, got n={n}, s={s}")


def generalized_petersen(n: int, s: int) -> Graph:
    """Construct GP(n, s) on 2n vertices with 3n edges.

    Requires n >= 3 and 1 <= s < n/2 (strict), so the inner star edges are
    well-defined and pairwise distinct.
    """
    _check_gp(n, s)
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + s) % n))
    return Graph(2 * n, tuple(edges))


def bipartition(g: Graph) -> Bipartition:
    """Two-color g by BFS; raises NotBipartiteError with an odd-cycle witness.

    Deterministic: each vertex is colored by the parity of its distance
    from the smallest vertex of its component, even in class_a, so that
    vertex lands in class_a and vertex 0 always does.  The first edge, in
    BFS order, whose ends are equally far from that vertex closes the
    witness.  Costs one BFS, with its own [-1] * V distance row, per
    component: O(V * components + E), which stays below the O(V^2) of
    the `verify` run on every drawing that `unitdist config` accepts.
    """
    adj = g.adjacency
    class_a: set[int] = set()
    class_b: set[int] = set()
    for root in range(g.n_vertices):
        if root in class_a or root in class_b:
            continue
        dist, reached = _bfs(adj, root)
        for u in reached:
            for w in adj[u]:
                if dist[w] == dist[u]:
                    raise NotBipartiteError(_odd_cycle(adj, reached, u, w))
            (class_b if dist[u] % 2 else class_a).add(u)
    return Bipartition(frozenset(class_a), frozenset(class_b))


def _odd_cycle(adj: tuple[tuple[int, ...], ...], reached: list[int],
               u: int, w: int) -> tuple[int, ...]:
    # u and w are equally far from the BFS root, so their BFS-tree paths
    # upward, walked in lockstep, meet at their lowest common ancestor;
    # closed by the edge (u, w) they form a cycle of odd length.  A
    # vertex's BFS parent is its neighbour visited first, as for
    # automorphism_count's anchor.
    pos = {v: i for i, v in enumerate(reached)}
    path_u, path_w = [u], [w]
    while path_u[-1] != path_w[-1]:
        path_u.append(min(adj[path_u[-1]], key=pos.__getitem__))
        path_w.append(min(adj[path_w[-1]], key=pos.__getitem__))
    return tuple(reversed(path_u)) + tuple(path_w[:-1])


def automorphism_count(g: Graph) -> int:
    """Count adjacency-preserving vertex permutations by orbit-stabilizer.

    Automorphisms are exactly the isometries of the graph metric, so a
    partial map is kept only while it preserves the distance between every
    pair of mapped vertices, with "unreachable" as one more distance value
    (components map onto components).  Vertices are mapped in BFS order
    (the base); the image of a vertex with a mapped neighbour is among that
    neighbour's image's neighbours, and has the vertex's degree.

    Let G_i be the automorphisms fixing order[:i] pointwise.  Then
    |Aut| = |G_0| is the product over i of the length of order[i]'s orbit
    under G_i.  The levels are walked from i = b-1 down to 0 (b below),
    with order[:i] fixed.  Every automorphism found on a deeper level fixes
    order[:i], so it lies in G_i; the orbit of order[i] starts as its
    closure under these generators.  Each candidate image w of order[i]
    outside that orbit gets one search for a single automorphism of G_i
    taking order[i] to w.  A hit becomes a new generator and the orbit is
    closed again; a miss proves w is not in the orbit.  The count is exact
    even if the generators do not generate Aut: every point of the true
    orbit passes the candidate filter, and is either reached by closure or
    found by a search.

    The base length b is the length of the shortest prefix of order whose
    distance vectors (-1 where unreachable) tell all vertices apart: a
    resolving set (Harary and Melter, 1976).  It is found by refining
    vertex classes by one base vertex's distance row at a time, in O(V)
    per row.  An automorphism s that fixes order[:b] pointwise fixes every
    vertex v: dist(order[j], s(v)) = dist(s(order[j]), s(v)) =
    dist(order[j], v) for every j < b, so s(v) has v's distance vector,
    which no other vertex has.  So G_b is trivial, the levels i >= b have
    orbit length 1 and are never visited, and a search that has mapped
    order[:b] by f has at most one way to go on.  An automorphism s that
    extends f maps each later vertex v, in BFS order, to a neighbour of
    the image of v's BFS parent (to any vertex if v is a component root),
    and dist(f(order[j]), s(v)) = dist(order[j], v) for every j < b.  The
    images f(order[:b]) resolve the graph as order[:b] does, since s
    carries distances over, so s(v) is the only vertex with these
    distances.  The search therefore maps order[b:] in one pass, each
    vertex to the unused vertex at its distances among the candidates
    just named, and backtracks at the first vertex that has none.  A
    complete map is a bijection; it is accepted only if it preserves
    every edge, which makes it an automorphism.  Edges within the base
    need no test: f preserves distances, so it maps them onto edges.

    A component root (anchor None) has no mapped neighbour to narrow its
    candidates, and in a regular graph such as GP(n, s) the degree passes
    every vertex.  So at a root level a candidate is searched only if its
    profile, the sorted (distance, number of shortest paths) pairs from
    it, equals order[i]'s.  Automorphisms map shortest paths onto
    shortest paths, so a different profile proves w is outside the orbit.
    It rejects the inner vertices of GP(18, 5), which share the outer
    ones' degree and sorted distances, without a search.  A profile is
    counted over the vertex's distance row in O(V log V + E), only for
    order[i] and for a candidate that would otherwise be searched, and
    kept for the rest of the call.

    A rejection carries over to a whole orbit.  When w fails the profile
    test or its search finds no automorphism, the orbit of w under the
    generators found so far is marked outside, and its points are
    skipped as candidates.  This is sound: each of those generators fixes
    order[:i], so it lies in G_i, and if w is outside order[i]'s
    G_i-orbit, so is every point that G_i maps w to.  In a graph that is
    not vertex-transitive one rejection then settles a whole class:
    GP(100, 3) computes 3 profiles and 12 distance rows, where screening
    each candidate alone took 102 profiles and 106 rows.

    Costs a distance row, one O(V + E) BFS, for each base vertex, each
    vertex that becomes the image of one and each profile, computed when
    first needed and kept for the call, with O(V) per base row to find b.
    A search pays for the distance-filtered candidates at depths i..b-1,
    then, per completion, O(b) for each unused vertex it tries (at most
    the largest degree D per vertex, so O(V * D * b)) and O(E) for the
    edge test.  Closing an orbit, of order[i] after a hit or of w after a
    rejection, costs O(V) per generator.
    There are at most log2 |Aut| generators, since each one at least
    doubles the group they generate; enumerating the group would cost
    |Aut| searches.  The search keeps an explicit stack of candidate
    iterators, so its depth is not bounded by Python's recursion limit.
    """
    n = g.n_vertices
    adj = g.adjacency
    deg = [len(a) for a in adj]

    rows: list[list[int] | None] = [None] * n   # distance rows, on demand

    def row(v: int) -> list[int]:
        r = rows[v]
        if r is None:
            r = rows[v] = _bfs(adj, v)[0]
        return r

    order: list[int] = []
    pos = [-1] * n                  # v's place in order; -1 until it is placed
    for v in range(n):
        if pos[v] < 0:              # v is the smallest vertex of a new component
            rows[v], reached = _bfs(adj, v)
            for u in reached:
                pos[u] = len(order)
                order.append(u)

    # b: the shortest prefix of order that resolves the graph.  classes[v]
    # numbers v's distance vector to order[:b] among all vertices'.
    b, n_classes, classes = 0, 1, [0] * n
    while n_classes < n:
        pairs = list(zip(classes, row(order[b])))
        ids = dict(zip(dict.fromkeys(pairs), range(n)))
        classes = list(map(ids.__getitem__, pairs))
        n_classes = len(ids)
        b += 1
    keys = list(zip(*map(row, order[:b])))      # keys[v]: v's distances to the base

    # anchor[i]: the position of order[i]'s BFS parent, its neighbour mapped
    # first; None for a component root, which may map anywhere.  Walking
    # order once, the first earlier neighbour to reach a vertex is its parent.
    anchor: list[int | None] = [None] * n
    for i, v in enumerate(order):
        for u in adj[v]:
            k = pos[u]
            if k > i and anchor[k] is None:
                anchor[k] = i

    # mapped[i] is the image of order[i], -1 while unmapped, and
    # image_rows[i] its distance row once mapped.  Between searches the
    # levels below the current one map to themselves.
    mapped = order[:b]
    image_rows = list(map(row, mapped))
    used = [False] * n
    for v in mapped:
        used[v] = True
    arcs = g.edge_set | {(v, u) for u, v in g.edges}
    # a distance-preserving map keeps the edges within the base
    outside = [(u, v) for u, v in g.edges if pos[u] >= b or pos[v] >= b]
    tails, heads = [u for u, _ in outside], [v for _, v in outside]

    def candidates(d: int, i: int):
        """The images of order[d] that keep the map distance-preserving,
        while mapped[:i] maps to itself and the search maps mapped[i:d]."""
        v = order[d]
        pool = range(n) if anchor[d] is None else adj[mapped[anchor[d]]]
        # dist(u, v) == dist(f(u), w) for every mapped u: read off w's key
        # for the fixed u, off the image rows for the others.  Distinct
        # vertices are at nonzero distance, so this alone keeps the map
        # injective; `used` only rejects taken images more cheaply.
        fixed, want = keys[v][:i], keys[v][i:d]
        images = image_rows[i:d]
        return (w for w in pool if not used[w] and deg[w] == deg[v]
                and keys[w][:i] == fixed and tuple([r[w] for r in images]) == want)

    def completion() -> list[int] | None:
        """The automorphism extending mapped, as perm[vertex] = image;
        None if there is none."""
        image = mapped + [-1] * (n - b)         # by position in order
        # the key test alone keeps images distinct; taken is a cheaper first test
        taken = used[:]
        for k in range(b, n):
            key = keys[order[k]]
            a = anchor[k]
            for w in range(n) if a is None else adj[image[a]]:
                if not taken[w] and tuple([r[w] for r in image_rows]) == key:
                    break
            else:
                return None
            image[k] = w
            taken[w] = True
        perm = list(map(image.__getitem__, pos))
        if arcs.issuperset(zip(map(perm.__getitem__, tails), map(perm.__getitem__, heads))):
            return perm
        return None

    def extension(i: int, w: int) -> list[int] | None:
        """The first automorphism found that extends mapped[:i] with
        order[i] -> w, as perm[vertex] = image; None if there is none."""
        stack = [iter((w,))]
        while stack:
            d = i + len(stack) - 1
            if mapped[d] != -1:     # retract this depth's previous choice
                used[mapped[d]] = False
                mapped[d] = -1
            u = next(stack[-1], None)
            if u is None:
                stack.pop()
                continue
            mapped[d] = u
            image_rows[d] = row(u)
            used[u] = True
            if d < b - 1:
                stack.append(candidates(d + 1, i))
            elif (perm := completion()) is not None:
                for image in mapped[i:]:    # restore the fixed prefix state
                    used[image] = False
                mapped[i:] = [-1] * (b - i)
                return perm
        return None

    profile = cache(lambda v: _path_profile(adj, row(v)))  # built on first use only

    count = 1
    generators: list[list[int]] = []
    for i in range(b - 1, -1, -1):
        v = order[i]
        mapped[i] = -1
        used[v] = False
        orbit = {v}                 # every generator so far fixes v
        outside: set[int] = set()   # proved outside v's orbit under G_i
        for w in candidates(i, i):
            if w in orbit or w in outside:
                continue
            if (anchor[i] is None and profile(w) != profile(v)
                    or (perm := extension(i, w)) is None):
                outside |= _orbit(w, generators)
            else:
                generators.append(perm)
                orbit = _orbit(v, generators)
        count *= len(orbit)
    return count


def _orbit(v: int, generators: list[list[int]]) -> set[int]:
    """The orbit of v under the group the permutations generate."""
    seen = {v}
    queue = [v]
    for u in queue:                 # the list grows while it is scanned: a queue
        for perm in generators:
            w = perm[u]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _path_profile(adj: tuple[tuple[int, ...], ...], dist: list[int]) -> list[tuple[int, int]]:
    """Sorted (distance, number of shortest paths from the source) over
    all vertices, (-1, 0) where unreachable, given the source's distance
    row: an automorphism maps shortest paths onto shortest paths, so
    vertices of one orbit share their profile."""
    paths = [int(d == 0) for d in dist]
    # nearer vertices first, so u's count is final when it is passed on
    for u in sorted(range(len(dist)), key=dist.__getitem__):
        for w in adj[u]:
            if dist[w] == dist[u] + 1:
                paths[w] += paths[u]
    return sorted(zip(dist, paths))


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
