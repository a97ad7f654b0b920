"""Faithfulness certification: pair scans, predicates, degeneracies."""

import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (MIN_NONEDGE_GAP, MIN_NONEDGE_GAP_ORBIT,
                      MIN_VERTEX_SEPARATION)
from unitdist import verifier
from unitdist.configuration import build_point_circle
from unitdist.graph import Graph, bipartition
from unitdist.layout import Drawing, circular_layout, rhombus_layout
from unitdist.solver import RhombusParams
from unitdist.verifier import (COINCIDENT_VERTICES,
                               COLLINEAR_OVERLAPPING_EDGES,
                               DEFAULT_DEGENERACY_TOL,
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

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8),
                                           (0.5 ** 0.5, 0.5 ** 0.5)])
    def test_degenerate_segment_rule_is_the_distance(self, direction):
        # lengths tol * (1 +- a few ulps), from (0, 0); along (0.6, 0.8)
        # math.dist is tol at some ends where x * x + y * y > tol * tol
        end = x, y = direction[0] * 1e-9, direction[1] * 1e-9
        ends = [(x, y)]
        for toward in (-1.0, 1.0):
            for _ in range(3):
                y = math.nextafter(y, toward) if y else y
                x = math.nextafter(x, toward)
                ends.append((x, y))
            x, y = end
        origin, far = (0.0, 0.0), (3.0, 4.0)
        raised = []
        for b in ends:
            degenerate = math.dist(origin, b) <= 1e-9
            raised.append(degenerate)
            if degenerate:
                with pytest.raises(ValueError, match=r"^degenerate segment: "
                                   r"endpoints coincide within tol$"):
                    point_on_segment_interior(far, origin, b)
            else:
                assert not point_on_segment_interior(far, origin, b)
                # a solid edge, so verify scans it and raises nothing
                report = verify(Drawing(Graph(3, ((0, 1),)), (origin, b, far)))
                assert not report.degeneracies
        assert True in raised and False in raised


def _segments_overlap_reference(a1, b1, a2, b2):
    """segments_overlap as it was with a _near_line helper: the oracle."""
    tol = 1e-9
    if math.dist(a1, b1) <= tol or math.dist(a2, b2) <= tol:
        raise ValueError("degenerate segment")
    if not (_near_line_reference(a2, a1, b1) and _near_line_reference(b2, a1, b1)
            and _near_line_reference(a1, a2, b2)
            and _near_line_reference(b1, a2, b2)):
        return False
    ux, uy = b1[0] - a1[0], b1[1] - a1[1]
    length = math.hypot(ux, uy)
    ux, uy = ux / length, uy / length
    s_lo, s_hi = sorted(((a2[0] - a1[0]) * ux + (a2[1] - a1[1]) * uy,
                         (b2[0] - a1[0]) * ux + (b2[1] - a1[1]) * uy))
    overlap = min(length, s_hi) - max(0.0, s_lo)
    return overlap > tol


def _near_line_reference(pt, a, b):
    ux, uy = b[0] - a[0], b[1] - a[1]
    cross = ux * (pt[1] - a[1]) - uy * (pt[0] - a[0])
    return abs(cross) / math.hypot(ux, uy) < 1e-9


def _outcome(predicate, *args):
    try:
        return predicate(*args)
    except ValueError as error:
        return str(error)


small = st.floats(-4.0, 4.0)
point = st.tuples(small, small)
huge = st.floats(0.5e300, 2e300) | st.floats(-2e300, -0.5e300)
# any floats, infinite and NaN too
random_segments = st.tuples(*[st.tuples(small | st.floats(),
                                        small | st.floats())] * 4)


@st.composite
def shared_endpoint_segments(draw):
    a, b, c = draw(point), draw(point), draw(point)
    first = (a, b) if draw(st.booleans()) else (b, a)
    second = (b, c) if draw(st.booleans()) else (c, b)
    return first + second


@st.composite
def near_collinear_segments(draw):
    # four points on a line, each pushed 0.5 to 3 tol off it, then maybe
    # scaled by a power of two, which is exact
    x0, y0 = draw(point)
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    ux, uy = math.cos(theta), math.sin(theta)
    scale = math.ldexp(1.0, draw(st.sampled_from([0, *range(10, 35)])))
    ends = []
    for _ in range(4):
        t = draw(st.floats(-3.0, 3.0))
        off = draw(st.floats(0.5, 3.0)) * 1e-9 * draw(st.sampled_from([-1, 1]))
        ends.append(((x0 + t * ux - off * uy) * scale,
                     (y0 + t * uy + off * ux) * scale))
    return tuple(ends)


@st.composite
def short_segments(draw):
    # one segment about tol long, either first or second
    a, c, d = draw(point), draw(point), draw(point)
    length = draw(st.floats(0.0, 3e-9))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    b = (a[0] + length * math.cos(theta), a[1] + length * math.sin(theta))
    return (a, b, c, d) if draw(st.booleans()) else (c, d, a, b)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(ends=random_segments | shared_endpoint_segments()
       | near_collinear_segments() | short_segments()
       | st.tuples(*[st.tuples(huge, huge)] * 4))
def test_segments_overlap_matches_the_reference(ends):
    # the same verdict, or the same ValueError, as the reference
    assert (_outcome(segments_overlap, *ends)
            == _outcome(_segments_overlap_reference, *ends))


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


def _near_line_rejects(a1, b1, a2, b2):
    """verify's inline rejection of an edge pair, copied: an end of segment
    2 fails segment 1's near-line test, by segments_overlap's operations."""
    tol = DEFAULT_DEGENERACY_TOL
    (ax, ay), (bx, by) = a1, b1
    ux, uy = bx - ax, by - ay
    length = math.hypot(ux, uy)
    (cx, cy), (dx, dy) = a2, b2
    return not (abs(ux * (cy - ay) - uy * (cx - ax)) / length < tol
                and abs(ux * (dy - ay) - uy * (dx - ax)) / length < tol)


def _interior_rejects(pt, a, b):
    """verify's inline rejection of a vertex/edge pair, copied: the
    projection parameter t fails point_on_segment_interior's
    tol < t < 1 - tol."""
    tol = DEFAULT_DEGENERACY_TOL
    (ax, ay), (bx, by) = a, b
    ux, uy = bx - ax, by - ay
    t = ((pt[0] - ax) * ux + (pt[1] - ay) * uy) / (ux * ux + uy * uy)
    return not tol < t < 1.0 - tol


def _soundness_points(rng, count):
    """count point 4-tuples: random, near-collinear (offsets 0, +-1e-10 and
    3e-9 off a line), sharing an endpoint, and each kind translated by
    +-2**k."""
    offsets = (0.0, 1e-10, -1e-10, 3e-9)
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        if kind == 0:
            pts = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(4)]
        elif kind == 1:
            x0, y0 = rng.uniform(-4, 4), rng.uniform(-4, 4)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            ux, uy = math.cos(theta), math.sin(theta)
            pts = []
            for _ in range(4):
                t, off = rng.uniform(-3, 3), rng.choice(offsets)
                pts.append((x0 + t * ux - off * uy, y0 + t * uy + off * ux))
        else:
            a, b, c = [(rng.uniform(-4, 4), rng.uniform(-4, 4))
                       for _ in range(3)]
            first = [a, b] if rng.random() < 0.5 else [b, a]
            pts = first + ([b, c] if rng.random() < 0.5 else [c, b])
        cases.append(tuple(pts))
        shift = rng.choice((-1, 1)) * 2.0 ** rng.randint(0, 40)
        cases.append(tuple((x + shift, y - shift) for x, y in pts))
    return cases


def test_inline_rejection_implies_the_predicate_is_false():
    # wherever verify's inline first tests drop a candidate, the predicate
    # it would have called returns False, in either argument order
    rng = random.Random(0)
    tol = DEFAULT_DEGENERACY_TOL
    rejected = kept = 0
    for a1, b1, a2, b2 in _soundness_points(rng, 12_000):
        if math.dist(a1, b1) <= tol or math.dist(a2, b2) <= tol:
            continue
        for first, second in (((a1, b1), (a2, b2)), ((a2, b2), (a1, b1))):
            if _near_line_rejects(*first, *second):
                rejected += 1
                assert not segments_overlap(*first, *second)
                assert not segments_overlap(*second, *first)
            else:
                kept += 1
        for pt in (a2, b2, ((a2[0] + b2[0]) / 2, (a2[1] + b2[1]) / 2)):
            if _interior_rejects(pt, a1, b1):
                rejected += 1
                assert not point_on_segment_interior(pt, a1, b1)
            else:
                kept += 1
    assert rejected > 10_000 and kept > 10_000


class TestReportCache:
    @pytest.fixture
    def fresh(self, faithful_drawing):
        # a Drawing object no other test has verified
        return Drawing(faithful_drawing.graph, faithful_drawing.positions)

    def test_same_object_returns_the_stored_report(self, fresh):
        assert verify(fresh) is verify(fresh)

    def test_equal_drawing_gets_an_equal_report(self, fresh):
        report = verify(fresh)
        copy = Drawing(fresh.graph, fresh.positions)
        assert copy is not fresh
        assert verify(copy) == report

    def test_another_drawing_evicts_the_report(self, fresh):
        report = verify(fresh)
        verify(circular_layout(8, 3))
        again = verify(fresh)
        assert again is not report and again == report

    def test_build_point_circle_after_verify_runs_no_second_sweep(
            self, fresh, monkeypatch):
        calls = []
        sweep = verifier._segment_pairs

        def counting(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(verifier, "_segment_pairs", counting)
        assert verify(fresh).is_faithful
        assert len(calls) == 1
        bp = bipartition(fresh.graph)
        build_point_circle(fresh, bp, "a")
        build_point_circle(fresh, bp, "b")
        assert len(calls) == 1
