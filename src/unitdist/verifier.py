"""Certification of unit-distance and faithfulness properties of drawings.

A drawing is unit-distance when every edge has length 1 (within edge_tol)
and faithful when additionally every non-adjacent pair stays clear of
distance 1 (by at least gap_threshold) and no geometric degeneracies occur:
coincident vertices, a vertex inside the interior of a non-incident edge
segment, or collinear edges with positive overlap.

All checks are exhaustive over the C(n, 2) vertex pairs and the edge pairs;
every quantity is derived from pairwise distances and isometry-invariant
predicates, so reports are stable under rigid motions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

from .layout import Drawing

DEFAULT_EDGE_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e-2
DEFAULT_DEGENERACY_TOL = 1e-9

COINCIDENT_VERTICES = "coincident-vertices"
VERTEX_ON_EDGE_INTERIOR = "vertex-on-edge-interior"
COLLINEAR_OVERLAPPING_EDGES = "collinear-overlapping-edges"

Point = tuple[float, float]


@dataclass(frozen=True)
class Degeneracy:
    """A single degeneracy finding.

    witness holds vertex indices whose meaning depends on kind:
    (i, j) for coincident-vertices, (v, a, b) for vertex-on-edge-interior
    with edge (a, b), and (a1, b1, a2, b2) for overlapping edges.
    """

    kind: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class FaithfulnessReport:
    # the field order is the key order of the report's JSON
    is_unit_distance: bool
    is_faithful: bool
    max_edge_residual: float
    max_edge_residual_witness: tuple[int, int] | None
    min_nonedge_gap: float
    min_nonedge_gap_witness: tuple[int, int] | None
    min_vertex_separation: float
    min_vertex_separation_witness: tuple[int, int] | None
    degeneracies: tuple[Degeneracy, ...]
    edge_tol: float
    gap_threshold: float
    n_edges: int
    n_nonadjacent_pairs: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def point_on_segment_interior(pt: Point, a: Point, b: Point) -> bool:
    """True iff pt lies within tol = DEFAULT_DEGENERACY_TOL of segment ab,
    strictly between the ends: the normalized projection parameter must fall
    in the open interval (tol, 1 - tol), so endpoints never count.  A segment
    shorter than tol is rejected with ValueError.
    """
    tol = DEFAULT_DEGENERACY_TOL
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq <= tol * tol:
        raise ValueError("degenerate segment: endpoints coincide within tol")
    t = ((pt[0] - ax) * dx + (pt[1] - ay) * dy) / length_sq
    if not (tol < t < 1.0 - tol):
        return False
    foot = (ax + t * dx, ay + t * dy)
    return math.dist(pt, foot) < tol


def segments_overlap(a1: Point, b1: Point, a2: Point, b2: Point) -> bool:
    """True iff the segments are collinear within DEFAULT_DEGENERACY_TOL and
    overlap in more than a point (a shared endpoint alone does not count)."""
    tol = DEFAULT_DEGENERACY_TOL
    if math.dist(a1, b1) <= tol or math.dist(a2, b2) <= tol:
        raise ValueError("degenerate segment")
    if not (_near_line(a2, a1, b1) and _near_line(b2, a1, b1)
            and _near_line(a1, a2, b2) and _near_line(b1, a2, b2)):
        return False
    # Project everything on the direction of the first segment.
    ux, uy = b1[0] - a1[0], b1[1] - a1[1]
    length = math.hypot(ux, uy)
    ux, uy = ux / length, uy / length
    s_lo, s_hi = sorted(((a2[0] - a1[0]) * ux + (a2[1] - a1[1]) * uy,
                         (b2[0] - a1[0]) * ux + (b2[1] - a1[1]) * uy))
    overlap = min(length, s_hi) - max(0.0, s_lo)
    return overlap > tol


def _near_line(pt: Point, a: Point, b: Point) -> bool:
    ux, uy = b[0] - a[0], b[1] - a[1]
    cross = ux * (pt[1] - a[1]) - uy * (pt[0] - a[0])
    return abs(cross) / math.hypot(ux, uy) < DEFAULT_DEGENERACY_TOL


def verify(d: Drawing, edge_tol: float = DEFAULT_EDGE_TOL,
           gap_threshold: float = DEFAULT_GAP_THRESHOLD) -> FaithfulnessReport:
    """Exhaustive faithfulness certificate for a drawing.

    Scans all vertex pairs for edge residuals, non-edge gaps and coincident
    vertices, then all vertex/edge and edge/edge combinations for the two
    interval degeneracies.  Witnesses are the lexicographically first
    extremal pairs, so the report is deterministic.
    """
    if edge_tol <= 0:
        raise ValueError("edge_tol must be positive")
    if gap_threshold <= edge_tol:
        raise ValueError("gap_threshold must exceed edge_tol")
    pos = d.positions
    n = d.graph.n_vertices
    edge_set = d.graph.edge_set

    max_edge_residual = 0.0
    edge_witness: tuple[int, int] | None = None
    min_gap = math.inf
    gap_witness: tuple[int, int] | None = None
    min_sep = math.inf
    sep_witness: tuple[int, int] | None = None
    degeneracies: list[Degeneracy] = []

    for i, j in combinations(range(n), 2):
        dist = math.dist(pos[i], pos[j])
        if dist < min_sep:
            min_sep, sep_witness = dist, (i, j)
        if (i, j) in edge_set:
            res = abs(dist - 1.0)
            if res > max_edge_residual or edge_witness is None:
                max_edge_residual, edge_witness = res, (i, j)
        else:
            gap = abs(dist - 1.0)
            if gap < min_gap:
                min_gap, gap_witness = gap, (i, j)
        if dist < DEFAULT_DEGENERACY_TOL:
            degeneracies.append(Degeneracy(COINCIDENT_VERTICES, (i, j)))

    # Degenerate (zero-length) edges are already reported as coincident
    # vertices; skip them in the segment predicates below.
    solid_edges = [e for e in d.graph.edges
                   if math.dist(pos[e[0]], pos[e[1]]) > DEFAULT_DEGENERACY_TOL]
    for a, b in solid_edges:
        for v in range(n):
            if v == a or v == b:
                continue
            if point_on_segment_interior(pos[v], pos[a], pos[b]):
                degeneracies.append(Degeneracy(VERTEX_ON_EDGE_INTERIOR, (v, a, b)))
    for e1, e2 in combinations(solid_edges, 2):
        if segments_overlap(pos[e1[0]], pos[e1[1]], pos[e2[0]], pos[e2[1]]):
            degeneracies.append(
                Degeneracy(COLLINEAR_OVERLAPPING_EDGES, e1 + e2))

    n_edges = len(d.graph.edges)
    is_unit = max_edge_residual <= edge_tol
    faithful = is_unit and min_gap >= gap_threshold and not degeneracies
    return FaithfulnessReport(
        is_unit_distance=is_unit,
        is_faithful=faithful,
        max_edge_residual=max_edge_residual,
        max_edge_residual_witness=edge_witness,
        min_nonedge_gap=min_gap,
        min_nonedge_gap_witness=gap_witness,
        min_vertex_separation=min_sep,
        min_vertex_separation_witness=sep_witness,
        degeneracies=tuple(degeneracies),
        edge_tol=edge_tol,
        gap_threshold=gap_threshold,
        n_edges=n_edges,
        n_nonadjacent_pairs=n * (n - 1) // 2 - n_edges,
    )
