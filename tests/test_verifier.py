"""Faithfulness certification: pair scans, predicates, degeneracies."""

import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (MIN_NONEDGE_GAP, MIN_NONEDGE_GAP_ORBIT,
                      MIN_VERTEX_SEPARATION)
from unitdist.graph import Graph
from unitdist.layout import Drawing, circular_layout, rhombus_layout
from unitdist.solver import RhombusParams
from unitdist.verifier import (COINCIDENT_VERTICES,
                               COLLINEAR_OVERLAPPING_EDGES,
                               VERTEX_ON_EDGE_INTERIOR,
                               point_on_segment_interior, segments_overlap,
                               verify)


class TestFaithfulDrawing:
    def test_json_key_order(self, faithful_drawing):
        # the key order fixes the bytes of every *_report.json
        assert list(verify(faithful_drawing).to_json_dict()) == [
            "is_unit_distance", "is_faithful",
            "max_edge_residual", "max_edge_residual_witness",
            "min_nonedge_gap", "min_nonedge_gap_witness",
            "min_vertex_separation", "min_vertex_separation_witness",
            "degeneracies", "edge_tol", "gap_threshold",
            "n_edges", "n_nonadjacent_pairs"]

    def test_certificate(self, faithful_drawing):
        report = verify(faithful_drawing)
        assert report.is_unit_distance
        assert report.is_faithful
        assert report.max_edge_residual < 1e-9
        assert not report.degeneracies

    def test_matches_exhaustive_pair_scan(self, faithful_drawing):
        # independent oracle: recompute every pairwise distance directly
        pos = faithful_drawing.positions
        edge_set = faithful_drawing.graph.edge_set
        edge_res, gaps, seps = [], [], []
        for i, j in combinations(range(16), 2):
            dist = math.dist(pos[i], pos[j])
            seps.append(dist)
            (edge_res if (i, j) in edge_set else gaps).append(abs(dist - 1.0))
        assert len(edge_res) == 24 and len(gaps) == 96
        report = verify(faithful_drawing)
        assert report.max_edge_residual == pytest.approx(max(edge_res), abs=1e-15)
        assert report.min_nonedge_gap == pytest.approx(min(gaps), abs=1e-15)
        assert report.min_vertex_separation == pytest.approx(min(seps), abs=1e-15)

    def test_frozen_regression_constants(self, faithful_drawing):
        report = verify(faithful_drawing)
        assert report.min_nonedge_gap > 0.01
        assert abs(report.min_nonedge_gap - MIN_NONEDGE_GAP) < 1e-9
        assert abs(report.min_vertex_separation - MIN_VERTEX_SEPARATION) < 1e-9
        assert report.min_nonedge_gap_witness == MIN_NONEDGE_GAP_ORBIT[0]
        assert report.min_vertex_separation_witness == (9, 11)

    def test_minimal_gap_orbit_under_d2(self, faithful_drawing):
        # the four minimal gaps form one symmetry orbit and agree to 1e-9
        pos = faithful_drawing.positions
        report = verify(faithful_drawing)
        for i, j in MIN_NONEDGE_GAP_ORBIT:
            gap = abs(math.dist(pos[i], pos[j]) - 1.0)
            assert abs(gap - report.min_nonedge_gap) < 1e-9

    def test_pair_count_identity(self, faithful_drawing):
        report = verify(faithful_drawing)
        assert report.n_edges == 24
        assert report.n_nonadjacent_pairs == 96
        assert report.n_edges + report.n_nonadjacent_pairs == 16 * 15 // 2

    def test_perturbed_parameters_break_unit_distance(self, main_solution):
        bumped = RhombusParams(main_solution.h + 1e-3, main_solution.k,
                               main_solution.p, main_solution.q)
        report = verify(rhombus_layout(bumped))
        assert report.max_edge_residual > 1e-4
        assert not report.is_unit_distance

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(theta=st.floats(0.0, 2.0 * math.pi), mirror=st.booleans(),
           shift=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)))
    def test_invariant_under_rigid_motions(self, faithful_drawing, theta, mirror,
                                           shift):
        # rotate, optionally reflect in the x axis, then translate (|shift| < 10)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        sign = -1.0 if mirror else 1.0
        for drawing in (faithful_drawing, circular_layout(8, 3)):
            base = verify(drawing)
            moved = tuple((cos_t * x - sin_t * sign * y + shift[0],
                           sin_t * x + cos_t * sign * y + shift[1])
                          for x, y in drawing.positions)
            report = verify(Drawing(drawing.graph, moved))
            assert report.is_unit_distance == base.is_unit_distance
            assert report.is_faithful == base.is_faithful
            assert ([d.kind for d in report.degeneracies]
                    == [d.kind for d in base.degeneracies])
            for field in ("max_edge_residual", "min_nonedge_gap",
                          "min_vertex_separation"):
                assert abs(getattr(report, field) - getattr(base, field)) < 1e-9


class TestCircularDrawing:
    def test_unit_distance_but_not_faithful(self):
        report = verify(circular_layout(8, 3))
        assert report.is_unit_distance
        assert report.max_edge_residual < 1e-12
        assert not report.is_faithful
        assert report.min_nonedge_gap < 1e-12
        assert report.min_nonedge_gap_witness == (0, 10)


class TestDegeneracies:
    def test_coincident_vertices(self):
        report = verify(Drawing(Graph(2, ()), ((0.0, 0.0), (0.0, 0.0))))
        kinds = [d.kind for d in report.degeneracies]
        assert kinds == [COINCIDENT_VERTICES]
        assert report.degeneracies[0].witness == (0, 1)
        assert not report.is_faithful

    def test_vertex_in_edge_interior(self):
        d = Drawing(Graph(3, ((0, 1),)), ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0)))
        report = verify(d)
        assert report.is_unit_distance
        findings = [f for f in report.degeneracies
                    if f.kind == VERTEX_ON_EDGE_INTERIOR]
        assert findings and findings[0].witness == (2, 0, 1)
        assert not report.is_faithful

    def test_overlapping_collinear_edges(self):
        d = Drawing(Graph(4, ((0, 1), (2, 3))),
                    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.5, 0.0)))
        report = verify(d)
        kinds = {f.kind for f in report.degeneracies}
        assert COLLINEAR_OVERLAPPING_EDGES in kinds
        overlap = [f for f in report.degeneracies
                   if f.kind == COLLINEAR_OVERLAPPING_EDGES][0]
        assert overlap.witness == (0, 1, 2, 3)
        assert not report.is_faithful

    def test_clean_drawing_has_none(self, faithful_drawing):
        assert verify(faithful_drawing).degeneracies == ()


class TestPredicates:
    def test_midpoint_is_interior(self):
        assert point_on_segment_interior((0.5, 0.0), (0.0, 0.0), (1.0, 0.0))

    def test_endpoint_is_not_interior(self):
        assert not point_on_segment_interior((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))

    def test_offset_point_is_not_on_segment(self):
        assert not point_on_segment_interior((0.5, 0.1), (0.0, 0.0), (1.0, 0.0))

    def test_degenerate_segment_raises(self):
        with pytest.raises(ValueError):
            point_on_segment_interior((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))

    def test_overlap_basic(self):
        assert segments_overlap((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0))

    def test_shared_endpoint_is_not_overlap(self):
        assert not segments_overlap((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0))

    def test_parallel_but_offset_is_not_overlap(self):
        assert not segments_overlap((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

    def test_overlap_is_symmetric(self):
        args = ((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0))
        assert segments_overlap(*args) == segments_overlap(args[2], args[3],
                                                           args[0], args[1])

    def test_containment_counts_as_overlap(self):
        assert segments_overlap((0.0, 0.0), (3.0, 0.0), (1.0, 0.0), (2.0, 0.0))

    def test_degenerate_overlap_segment_raises(self):
        with pytest.raises(ValueError):
            segments_overlap((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


def test_screen_memory_is_bounded():
    # 2,000 random points on a path: the vertex/edge and edge/edge scans have
    # about 4e6 candidates each, so whole-matrix screens would hold ~100 MB
    rng = random.Random(0)
    n = 2000
    d = Drawing(Graph(n, tuple((i, i + 1) for i in range(n - 1))),
                tuple((rng.random(), rng.random()) for _ in range(n)))
    tracemalloc.start()
    try:
        verify(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
