"""Graph construction, bipartition, and automorphism counting."""

import itertools
import json
import math
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from unitdist import graph
from unitdist.graph import (Graph, NotBipartiteError, _bfs, _path_profile,
                            automorphism_count, bipartition,
                            generalized_petersen)


# |Aut GP(n, s)| after Frucht, Graver and Watkins (1971): 4n when
# s^2 = +-1 (mod n), else 2n, except (4,1), (5,2), (8,3), (10,2), (10,3),
# (12,5) and (24,5).  Every graph of the benchmark family, plus the cube.
FGW_ORDERS = {
    (4, 1): 48,     # exception: the cube
    (5, 2): 120,    # exception
    (8, 3): 96,     # exception
    (10, 2): 120,   # exception
    (10, 3): 240,   # exception
    (12, 5): 144,   # exception
    (16, 7): 64,    # 49 = 1 (mod 16)
    (18, 5): 36,    # 25 = 7 (mod 18)
    (24, 5): 288,   # exception
    (26, 5): 104,   # 25 = -1 (mod 26)
    (16, 1): 64,
    (32, 1): 128,
    (64, 1): 256,
}
FGW_EXCEPTIONS = {(4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5)}


def _fgw_order(n, s):
    if (n, s) in FGW_EXCEPTIONS:
        return FGW_ORDERS[(n, s)]
    return 4 * n if s * s % n in (1, n - 1) else 2 * n


# examples are derandomized, so every run checks the same cases
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None,
                    database=None)


def _is_automorphism(g, perm):
    images = ((perm[u], perm[v]) for u, v in g.edges)
    return all((min(a, b), max(a, b)) in g.edge_set for a, b in images)


def _to_networkx(g):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n_vertices))    # isolated vertices too
    nx_graph.add_edges_from(g.edges)
    return nx_graph


def _vf2_isomorphisms(g):
    """Independent oracle: networkx VF2 enumerates every automorphism, as
    a dict vertex -> image."""
    nx_graph = _to_networkx(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(nx_graph, nx_graph)
    return matcher.isomorphisms_iter()


def _vf2_automorphisms(g):
    return sum(1 for _ in _vf2_isomorphisms(g))



@st.composite
def small_graphs(draw):
    """Any simple graph on 0 to 8 vertices, disconnected ones included."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, tuple(edges))


@st.composite
def petersen_graphs(draw):
    n = draw(st.integers(3, 14))
    return generalized_petersen(n, draw(st.integers(1, (n - 1) // 2)))


def _brute_force_automorphisms(g):
    """Independent oracle: filter all n! permutations (small n only)."""
    count = 0
    for perm in itertools.permutations(range(g.n_vertices)):
        if _is_automorphism(g, perm):
            count += 1
    return count


class TestGeneralizedPetersen:
    def test_gp83_sizes(self):
        g = generalized_petersen(8, 3)
        assert g.n_vertices == 16
        assert len(g.edges) == 24

    def test_gp83_expected_edges(self):
        g = generalized_petersen(8, 3)
        for edge in [(0, 8), (8, 11), (10, 13)]:
            assert edge in g.edge_set

    def test_gp83_outer_cycle_and_spokes(self):
        g = generalized_petersen(8, 3)
        for i in range(8):
            assert (min(i, (i + 1) % 8), max(i, (i + 1) % 8)) in g.edge_set
            assert (i, 8 + i) in g.edge_set
            u, v = 8 + i, 8 + (i + 3) % 8
            assert (min(u, v), max(u, v)) in g.edge_set

    def test_petersen(self):
        g = generalized_petersen(5, 2)
        assert g.n_vertices == 10
        assert len(g.edges) == 15
        assert all(len(nbrs) == 3 for nbrs in g.adjacency)

    @pytest.mark.parametrize("n,s", [(3, 1), (4, 1), (5, 2), (8, 3),
                                     (10, 3), (12, 5), (13, 6)])
    def test_always_cubic(self, n, s):
        g = generalized_petersen(n, s)
        assert g.n_vertices == 2 * n
        assert len(g.edges) == 3 * n
        assert all(len(nbrs) == 3 for nbrs in g.adjacency)

    @pytest.mark.parametrize("n,s", [(8, 4), (8, 0), (6, 3), (2, 1),
                                     (5, 3), (4, 2)])
    def test_rejects_out_of_domain_parameters(self, n, s):
        with pytest.raises(ValueError):
            generalized_petersen(n, s)


class TestGraphType:
    def test_edges_normalized_and_sorted(self):
        g = Graph(4, ((3, 1), (2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_adjacency_consistent_with_edges(self):
        g = generalized_petersen(8, 3)
        for u, v in g.edges:
            assert v in g.adjacency[u]
            assert u in g.adjacency[v]
        assert sum(len(nbrs) for nbrs in g.adjacency) == 2 * len(g.edges)

    @PROPERTY
    @given(data=st.data())
    def test_adjacency_is_the_sorted_neighbour_lists(self, data):
        # edges given in any order, either way round, on vertex sets with
        # isolated vertices
        n = data.draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
        neighbours = [[] for _ in range(n)]
        for u, v in edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        g = Graph(n, tuple(edges))
        assert g.adjacency == tuple(tuple(sorted(ns)) for ns in neighbours)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Graph(2, ((0, 2),))

    def test_json_round_trip(self):
        g = generalized_petersen(5, 2)
        fields = {name: getattr(g, name) for name in ("n_vertices", "edges")}
        data = json.loads(json.dumps(fields))
        assert data["edges"] == sorted(data["edges"])
        assert Graph.from_json_dict(data) == g


class TestBipartition:
    def test_gp83_classes(self, gp83, gp83_bipartition):
        assert gp83_bipartition.class_a == frozenset({0, 2, 4, 6, 9, 11, 13, 15})
        assert gp83_bipartition.class_b == frozenset({1, 3, 5, 7, 8, 10, 12, 14})

    def test_every_edge_crosses(self, gp83, gp83_bipartition):
        for u, v in gp83.edges:
            assert (u in gp83_bipartition.class_a) != (v in gp83_bipartition.class_a)

    def test_classes_partition_vertices(self, gp83, gp83_bipartition):
        assert gp83_bipartition.class_a | gp83_bipartition.class_b == frozenset(range(16))
        assert not gp83_bipartition.class_a & gp83_bipartition.class_b

    def test_single_edge(self):
        bp = bipartition(Graph(2, ((0, 1),)))
        assert bp.class_a == frozenset({0})
        assert bp.class_b == frozenset({1})

    @pytest.mark.parametrize("n,s", [(6, 1), (10, 3), (12, 5)])
    def test_even_n_odd_s_is_bipartite(self, n, s):
        g = generalized_petersen(n, s)
        bp = bipartition(g)
        for u, v in g.edges:
            assert (u in bp.class_a) != (v in bp.class_a)

    @pytest.mark.parametrize("n,s", [(5, 2), (8, 2), (7, 3)])
    def test_odd_cycle_witness(self, n, s):
        g = generalized_petersen(n, s)
        with pytest.raises(NotBipartiteError) as excinfo:
            bipartition(g)
        cycle = excinfo.value.odd_cycle
        assert len(cycle) % 2 == 1
        assert len(set(cycle)) == len(cycle)
        for i, v in enumerate(cycle):
            u = cycle[(i + 1) % len(cycle)]
            assert (min(u, v), max(u, v)) in g.edge_set

    # the witnesses `unitdist config` prints, pinned
    @pytest.mark.parametrize("g,witness", [
        (Graph(3, ((0, 1), (1, 2), (0, 2))), (0, 1, 2)),
        (generalized_petersen(5, 2), (0, 1, 2, 3, 4)),
        (generalized_petersen(8, 2), (0, 1, 2, 10, 8)),
        (generalized_petersen(7, 3), (0, 1, 8, 11, 7)),
        (Graph(5, ((0, 1), (2, 3), (3, 4), (2, 4))), (2, 3, 4)),
    ], ids=["triangle", "gp5_2", "gp8_2", "gp7_3", "second_component"])
    def test_exact_witness(self, g, witness):
        with pytest.raises(NotBipartiteError) as excinfo:
            bipartition(g)
        assert excinfo.value.odd_cycle == witness
        assert str(excinfo.value) == (
            f"graph is not bipartite; odd cycle: {list(witness)}")

    @PROPERTY
    @given(g=small_graphs())
    def test_small_graphs_against_networkx(self, g):
        nx_graph = _to_networkx(g)
        if not nx.is_bipartite(nx_graph):
            with pytest.raises(NotBipartiteError) as excinfo:
                bipartition(g)
            cycle = excinfo.value.odd_cycle
            assert len(cycle) % 2 == 1
            assert len(set(cycle)) == len(cycle)
            assert all((min(v, cycle[i - 1]), max(v, cycle[i - 1]))
                       in g.edge_set for i, v in enumerate(cycle))
            return
        bp = bipartition(g)
        assert bp.class_a | bp.class_b == frozenset(range(g.n_vertices))
        assert not bp.class_a & bp.class_b
        assert all((u in bp.class_a) != (v in bp.class_a) for u, v in g.edges)
        # determinism: each component's smallest vertex is in class_a
        assert {min(c) for c in nx.connected_components(nx_graph)} <= bp.class_a


class TestAutomorphismCount:
    def test_single_edge(self):
        assert automorphism_count(Graph(2, ((0, 1),))) == 2

    def test_path_and_triangle(self):
        assert automorphism_count(Graph(3, ((0, 1), (1, 2)))) == 2
        assert automorphism_count(Graph(3, ((0, 1), (1, 2), (0, 2)))) == 6

    def test_six_cycle_is_dihedral(self):
        g = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))
        assert automorphism_count(g) == 12

    def test_gp83_order(self, gp83):
        assert automorphism_count(gp83) == 96

    def test_petersen_order(self):
        assert automorphism_count(generalized_petersen(5, 2)) == 120

    @pytest.mark.parametrize("edges,n", [
        (((0, 1), (1, 2), (2, 3), (3, 0)), 4),          # C4 -> 8
        (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 4),  # K4 -> 24
        (((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), 5),  # C5 -> 10
        ((), 3),                                         # 3 isolated -> 6
        (((0, 1), (2, 3)), 4),                           # 2K2 -> 8
        (((0, 1),), 3),                                  # K2 + K1 -> 2
    ])
    def test_against_permutation_oracle(self, edges, n):
        g = Graph(n, edges)
        assert automorphism_count(g) == _brute_force_automorphisms(g)

    @pytest.mark.parametrize("n,s", sorted(FGW_ORDERS))
    def test_frucht_graver_watkins_order(self, n, s):
        assert automorphism_count(generalized_petersen(n, s)) == FGW_ORDERS[(n, s)]

    def test_every_petersen_graph_up_to_30_has_the_fgw_order(self):
        # each GP(n, s) here that is not vertex-transitive has two profile
        # classes, outer and inner, so the root-level profile test rejects
        # the inner candidates of vertex 0
        for n in range(3, 31):
            for s in range(1, (n + 1) // 2):
                assert (automorphism_count(generalized_petersen(n, s))
                        == _fgw_order(n, s)), (n, s)

    def test_long_path_needs_no_recursion(self):
        # deeper than the default recursion limit of 1000
        g = Graph(1200, tuple((i, i + 1) for i in range(1199)))
        assert automorphism_count(g) == 2

    def test_long_base_needs_no_recursion(self):
        # an endpoint resolves a path, so the search above stays shallow;
        # the star K(1,150) needs 149 leaves in its base, and each search
        # from the first level goes 150 levels deep
        g = Graph(151, tuple((0, leaf) for leaf in range(1, 151)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            count = automorphism_count(g)
        finally:
            sys.setrecursionlimit(limit)
        assert count == math.factorial(150)

    @pytest.mark.parametrize("n,s", [(5, 2), (8, 3), (10, 3), (12, 5)])
    def test_against_networkx_vf2(self, n, s):
        g = generalized_petersen(n, s)
        assert automorphism_count(g) == _vf2_automorphisms(g)

    @PROPERTY
    @given(g=small_graphs())
    def test_small_graphs_against_networkx_vf2(self, g):
        assert automorphism_count(g) == _vf2_automorphisms(g)

    @PROPERTY
    @given(g=petersen_graphs())
    def test_petersen_graphs_against_networkx_vf2(self, g):
        assert automorphism_count(g) == _vf2_automorphisms(g)

    # groups far too large to enumerate: only orbit-stabilizer finishes
    def test_six_cube(self):
        cube = Graph(64, tuple((u, u | 1 << b) for u in range(64)
                               for b in range(6) if not u >> b & 1))
        assert automorphism_count(cube) == 2 ** 6 * math.factorial(6)

    def test_disjoint_triangles(self):
        # every component root may map to any vertex of degree 2
        g = Graph(24, tuple(e for t in range(0, 24, 3)
                            for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))))
        assert automorphism_count(g) == math.factorial(8) * 6 ** 8

    def test_gp200_1(self):
        assert automorphism_count(generalized_petersen(200, 1)) == 800

    def test_gp400_1_is_a_prism(self):
        assert automorphism_count(generalized_petersen(400, 1)) == 4 * 400

    # graphs whose base is long (b close to V) or empty
    @pytest.mark.parametrize("g,count", [
        (Graph(0, ()), 1),
        (Graph(1, ()), 1),
        (Graph(9, ()), math.factorial(9)),
        (Graph(8, tuple((0, leaf) for leaf in range(1, 8))), math.factorial(7)),
        (Graph(6, tuple((u, v) for u in range(3) for v in range(3, 6))), 72),
        (Graph(6, tuple(itertools.combinations(range(6), 2))), 720),
        (Graph(17, generalized_petersen(8, 3).edges), 96),
    ], ids=["no_vertex", "one_vertex", "edgeless_9", "star_1_7", "k3_3", "k6",
            "gp8_3_plus_isolated_vertex"])
    def test_exact_count(self, g, count):
        assert automorphism_count(g) == count

    @pytest.mark.parametrize("n", [64, 200])
    def test_distance_rows_are_computed_on_demand(self, monkeypatch, n):
        # a prism is resolved by a few vertices near the root, so the count
        # needs a handful of BFS rows (7 on both), not one per vertex
        calls = []

        def counting_bfs(adj, source):
            calls.append(source)
            return _bfs(adj, source)

        monkeypatch.setattr(graph, "_bfs", counting_bfs)
        assert automorphism_count(generalized_petersen(n, 1)) == 4 * n
        assert len(calls) <= 12

    @pytest.mark.parametrize("n,count", [(40, 80), (100, 200)])
    def test_a_rejection_skips_its_orbit(self, monkeypatch, n, count):
        # GP(n, 3) is not vertex-transitive for these n: its inner vertices
        # fail the outer root's profile test, and the automorphisms found
        # among the outer vertices carry one rejection to a whole orbit of
        # inner ones (screened one by one: 46 and 106 BFS rows, 42 and 102
        # profiles)
        rows, profiles = [], []

        def counting_bfs(adj, source):
            rows.append(source)
            return _bfs(adj, source)

        def counting_profile(adj, dist):
            profiles.append(dist)
            return _path_profile(adj, dist)

        monkeypatch.setattr(graph, "_bfs", counting_bfs)
        monkeypatch.setattr(graph, "_path_profile", counting_profile)
        assert automorphism_count(generalized_petersen(n, 3)) == count
        assert len(rows) <= 16
        assert len(profiles) <= 4

    def test_identity_always_counted(self):
        g = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
        assert automorphism_count(g) >= 1

    def test_divisible_by_known_cyclic_subgroups(self, gp83):
        # the outer/inner rotation has order 8, the half-turn order 2
        count = automorphism_count(gp83)
        assert count % 8 == 0
        assert count % 2 == 0

    def test_half_turn_is_fixed_point_free_automorphism(self, gp83):
        perm = {i: (i + 4) % 8 for i in range(8)}
        perm.update({8 + j: 8 + (j + 4) % 8 for j in range(8)})
        assert all(perm[v] != v for v in range(16))
        assert _is_automorphism(gp83, perm)


def _profile_classes(g):
    classes = {}
    for v in range(g.n_vertices):
        profile = _path_profile(g.adjacency, _bfs(g.adjacency, v)[0])
        classes.setdefault(tuple(profile), set()).add(v)
    return sorted(classes.values(), key=min)


class TestPathProfile:
    @PROPERTY
    @given(g=small_graphs())
    def test_every_automorphism_keeps_the_profile(self, g):
        profiles = [_path_profile(g.adjacency, _bfs(g.adjacency, v)[0])
                    for v in range(g.n_vertices)]
        for sigma in _vf2_isomorphisms(g):
            for v in range(g.n_vertices):
                assert profiles[sigma[v]] == profiles[v], (sigma, v)

    def test_gp18_5_outer_and_inner_vertices_differ(self):
        # equal degree and equal sorted distances, unequal path counts
        assert _profile_classes(generalized_petersen(18, 5)) == [
            set(range(18)), set(range(18, 36))]

    @pytest.mark.parametrize("n,s", [(24, 5), (26, 5)])
    def test_vertex_transitive_graph_has_one_class(self, n, s):
        assert _profile_classes(generalized_petersen(n, s)) == [set(range(2 * n))]

    def test_path_counts(self):
        # the 4-cycle and an isolated vertex: from 0, vertex 2 is reached by
        # two shortest paths, and vertex 4 not at all
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert _path_profile(g.adjacency, _bfs(g.adjacency, 0)[0]) == [
            (-1, 0), (0, 1), (1, 1), (1, 1), (2, 2)]
        assert (_path_profile(g.adjacency, _bfs(g.adjacency, 4)[0])
                == [(-1, 0)] * 4 + [(0, 1)])
