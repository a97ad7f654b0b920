"""Certification of unit-distance and faithfulness properties of drawings.

A drawing is unit-distance when every edge has length 1 (within
DEFAULT_EDGE_TOL) and faithful when additionally every non-adjacent pair
stays clear of distance 1 (by at least DEFAULT_GAP_THRESHOLD) and no
geometric degeneracies occur:
coincident vertices, a vertex inside the interior of a non-incident edge
segment, or collinear edges with positive overlap.

All checks are exhaustive over the C(n, 2) vertex pairs and the edge pairs;
every quantity is derived from pairwise distances and isometry-invariant
predicates, so reports are stable under rigid motions.

Sweeps over x-sorted bounding boxes skip only candidates that surely cannot
change the report; math.dist and the scalar predicates below decide every
verdict, value and witness.  The extra memory is O(n + edges + findings) for
any drawing.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .layout import Drawing

DEFAULT_EDGE_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e-2
DEFAULT_DEGENERACY_TOL = 1e-9

COINCIDENT_VERTICES = "coincident-vertices"
VERTEX_ON_EDGE_INTERIOR = "vertex-on-edge-interior"
COLLINEAR_OVERLAPPING_EDGES = "collinear-overlapping-edges"

Point = tuple[float, float]


class Degeneracy(namedtuple("Degeneracy", "kind witness")):
    """A single degeneracy finding.

    witness holds vertex indices whose meaning depends on kind:
    (i, j) for coincident-vertices, (v, a, b) for vertex-on-edge-interior
    with edge (a, b), and (a1, b1, a2, b2) for overlapping edges.
    """

    __slots__ = ()


class FaithfulnessReport(namedtuple("FaithfulnessReport", (
        # the field order is the key order of the report's JSON
        "is_unit_distance is_faithful max_edge_residual max_edge_residual_witness "
        "min_nonedge_gap min_nonedge_gap_witness min_vertex_separation "
        "min_vertex_separation_witness degeneracies edge_tol gap_threshold "
        "n_edges n_nonadjacent_pairs"))):
    """verify's verdicts and the measures behind them.  Each witness is a
    vertex pair, None when there is no pair to name; degeneracies is a
    tuple of Degeneracy."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data = self._asdict()
        data["degeneracies"] = tuple(d._asdict() for d in self.degeneracies)
        return data


def point_on_segment_interior(pt: Point, a: Point, b: Point) -> bool:
    """True iff pt lies within tol = DEFAULT_DEGENERACY_TOL of segment ab,
    strictly between the ends: the normalized projection parameter must fall
    in the open interval (tol, 1 - tol), so endpoints never count.  A segment
    with math.dist(a, b) <= tol is rejected with ValueError.
    """
    tol = DEFAULT_DEGENERACY_TOL
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    # math.hypot(dx, dy) is math.dist(a, b): both take the norm of |b - a|
    if math.hypot(dx, dy) <= tol:
        raise ValueError("degenerate segment: endpoints coincide within tol")
    length_sq = dx * dx + dy * dy
    t = ((pt[0] - ax) * dx + (pt[1] - ay) * dy) / length_sq
    if not (tol < t < 1.0 - tol):
        return False
    foot = (ax + t * dx, ay + t * dy)
    return math.dist(pt, foot) < tol


def segments_overlap(a1: Point, b1: Point, a2: Point, b2: Point) -> bool:
    """True iff the segments are collinear within DEFAULT_DEGENERACY_TOL and
    overlap in more than a point (a shared endpoint alone does not count).
    A segment with math.dist <= DEFAULT_DEGENERACY_TOL raises ValueError."""
    tol = DEFAULT_DEGENERACY_TOL
    (x1, y1), (x2, y2) = a1, a2
    ux, uy = b1[0] - x1, b1[1] - y1
    vx, vy = b2[0] - x2, b2[1] - y2
    # math.hypot(b - a) is math.dist(a, b): both take the norm of |b - a|
    length1, length2 = math.hypot(ux, uy), math.hypot(vx, vy)
    if length1 <= tol or length2 <= tol:
        raise ValueError("degenerate segment")
    # each end of one segment within tol of the other's line
    wx, wy = x2 - x1, y2 - y1
    zx, zy = b2[0] - x1, b2[1] - y1
    if not (abs(ux * wy - uy * wx) / length1 < tol
            and abs(ux * zy - uy * zx) / length1 < tol
            and abs(vx * (y1 - y2) - vy * (x1 - x2)) / length2 < tol
            and abs(vx * (b1[1] - y2) - vy * (b1[0] - x2)) / length2 < tol):
        return False
    # Project everything on the direction of the first segment.
    ux, uy = ux / length1, uy / length1
    s_lo, s_hi = sorted((wx * ux + wy * uy, zx * ux + zy * uy))
    overlap = min(length1, s_hi) - max(0.0, s_lo)
    return overlap > tol


def verify(d: Drawing) -> FaithfulnessReport:
    """Exhaustive faithfulness certificate for a drawing.

    Scans all vertex pairs for edge residuals, non-edge gaps and coincident
    vertices, then all vertex/edge and edge/edge combinations for the two
    interval degeneracies.  Witnesses are the lexicographically first
    extremal pairs, so the report is deterministic.

    Sweeps over bounding boxes skip only candidates that surely cannot
    change the report; every edge and every candidate they keep goes through
    math.dist or the two predicates above.
    """
    tol = DEFAULT_DEGENERACY_TOL
    pos = d.positions
    n = d.graph.n_vertices
    edge_set = d.graph.edge_set
    # Each rounded step inside math.dist and the predicates (a difference of
    # two coordinates, a product with t in [0, 1], a sum) moves a point by at
    # most about 2**-48 * max|coordinate|, whatever the segment's length.  So
    # a vertex that point_on_segment_interior puts within tol of a segment
    # lies within slack of the segment's bounding box, and two segments that
    # segments_overlap finds overlapping come within slack of each other.
    slack = 2 * tol + 2.0 ** -44 * max((abs(c) for p in pos for c in p),
                                       default=0.0)

    max_edge_residual = 0.0
    edge_witness: tuple[int, int] | None = None
    solid_edges: list[tuple[int, int]] = []
    for i, j in d.graph.edges:  # in lexicographic order
        dist = math.dist(pos[i], pos[j])
        res = abs(dist - 1.0)
        if res > max_edge_residual or edge_witness is None:
            max_edge_residual, edge_witness = res, (i, j)
        # Degenerate (zero-length) edges are reported as coincident
        # vertices; skip them in the segment predicates below.
        if dist > tol:
            solid_edges.append((i, j))

    # A pair more than 2 apart in x or in y has a separation over 2 and a
    # gap over 1; the window's 2 * slack more covers the rounding of its
    # bounds.  So once the window holds a separation <= 2 and a non-edge gap
    # <= 1, no pair outside it changes the report; otherwise scan all.
    points = [(x, y, x, y) for x, y in pos]
    for reach in (2 + 2 * slack, math.inf):
        # (value, i, j), least first; (inf,) sorts after every such triple
        # with a finite value, and an infinite value sets no witness
        sep = gap = (math.inf,)
        coincident = []
        for i, j in _meeting(points, reach):
            dist = math.dist(pos[i], pos[j])
            if dist <= sep[0] and (dist, i, j) < sep:
                sep = (dist, i, j)
            if (i, j) not in edge_set:
                g = abs(dist - 1.0)
                if g <= gap[0] and (g, i, j) < gap:
                    gap = (g, i, j)
            if dist < tol:
                coincident.append((i, j))
        if sep[0] <= 2.0 and gap[0] <= 1.0:
            break

    m = len(solid_edges)
    boxes = []
    for a, b in solid_edges:
        (ax, ay), (bx, by) = pos[a], pos[b]
        boxes.append((min(ax, bx) - slack, min(ay, by) - slack,
                      max(ax, bx) + slack, max(ay, by) + slack))
    on_edge, overlapping = [], []
    # edges first, then the vertices as points: a vertex meets an edge's box
    # within slack of it, two edges' boxes within 2 * slack of each other
    for i, j in _meeting(boxes + points, 0.0):
        if j < m:
            (a1, b1), (a2, b2) = solid_edges[i], solid_edges[j]
            if segments_overlap(pos[a1], pos[b1], pos[a2], pos[b2]):
                overlapping.append((i, j))
        elif i < m:
            (a, b), v = solid_edges[i], j - m
            if (v != a and v != b
                    and point_on_segment_interior(pos[v], pos[a], pos[b])):
                on_edge.append((i, v))

    degeneracies = [Degeneracy(COINCIDENT_VERTICES, pair)
                    for pair in sorted(coincident)]
    degeneracies += [Degeneracy(VERTEX_ON_EDGE_INTERIOR, (v, *solid_edges[k]))
                     for k, v in sorted(on_edge)]
    degeneracies += [Degeneracy(COLLINEAR_OVERLAPPING_EDGES,
                                solid_edges[i] + solid_edges[j])
                     for i, j in sorted(overlapping)]

    n_edges = len(d.graph.edges)
    is_unit = max_edge_residual <= DEFAULT_EDGE_TOL
    faithful = is_unit and gap[0] >= DEFAULT_GAP_THRESHOLD and not degeneracies
    return FaithfulnessReport(
        is_unit_distance=is_unit,
        is_faithful=faithful,
        max_edge_residual=max_edge_residual,
        max_edge_residual_witness=edge_witness,
        min_nonedge_gap=gap[0],
        min_nonedge_gap_witness=gap[1:] or None,
        min_vertex_separation=sep[0],
        min_vertex_separation_witness=sep[1:] or None,
        degeneracies=tuple(degeneracies),
        edge_tol=DEFAULT_EDGE_TOL,
        gap_threshold=DEFAULT_GAP_THRESHOLD,
        n_edges=n_edges,
        n_nonadjacent_pairs=n * (n - 1) // 2 - n_edges,
    )


def _meeting(boxes, reach: float):
    """Index pairs i < j of the boxes (x0, y0, x1, y1) that come within reach
    of each other in x and in y.  The boxes are swept in order of x0; a box
    stays active until a later x0 passes its x1 + reach."""
    active: list[tuple[float, float, float, int]] = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x0, y0, x1, y1 = boxes[i]
        active = [box for box in active if box[0] >= x0]
        for _, y_lo, y_hi, j in active:
            if y0 <= y_hi and y1 >= y_lo:
                yield (j, i) if j < i else (i, j)
        active.append((x1 + reach, y0 - reach, y1 + reach, i))
