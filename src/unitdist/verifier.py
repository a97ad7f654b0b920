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

numpy prunes each scan in blocks of at most _BLOCK candidates, dropping only
candidates that surely cannot change the report; math.dist and the scalar
predicates below decide every verdict, value and witness.  The extra memory
is O(_BLOCK + n + edges) for any drawing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .layout import Drawing

DEFAULT_EDGE_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e-2
DEFAULT_DEGENERACY_TOL = 1e-9
_BLOCK = 2048    # candidates one numpy screen block holds
_MARGIN = 1e-9   # relative margin around a block's least gap or separation

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


def verify(d: Drawing) -> FaithfulnessReport:
    """Exhaustive faithfulness certificate for a drawing.

    Scans all vertex pairs for edge residuals, non-edge gaps and coincident
    vertices, then all vertex/edge and edge/edge combinations for the two
    interval degeneracies.  Witnesses are the lexicographically first
    extremal pairs, so the report is deterministic.

    A numpy screen drops only candidates whose finite screen value clears
    the decision by a margin; every edge and every kept candidate then goes,
    in scan order, through math.dist or the two predicates above.
    """
    tol = DEFAULT_DEGENERACY_TOL
    pos = d.positions
    n = d.graph.n_vertices
    edge_set = d.graph.edge_set
    xy = np.array(pos, dtype=float).reshape(n, 2).T
    edges = np.array(d.graph.edges, dtype=np.intp).reshape(-1, 2)
    edge_ranks = _pair_rank(edges[:, 0], edges[:, 1], n)  # ascending

    max_edge_residual = 0.0
    edge_witness: tuple[int, int] | None = None
    min_gap = math.inf
    gap_witness: tuple[int, int] | None = None
    min_sep = math.inf
    sep_witness: tuple[int, int] | None = None
    degeneracies: list[Degeneracy] = []

    with np.errstate(all="ignore"):
        for ranks, first, second in _pairs(n):
            is_edge = np.zeros(len(ranks), dtype=bool)
            lo, hi = np.searchsorted(edge_ranks, (ranks[0], ranks[-1] + 1))
            is_edge[edge_ranks[lo:hi] - ranks[0]] = True
            dx, dy = xy[:, second] - xy[:, first]
            dists = np.hypot(dx, dy)
            gaps = np.abs(dists - 1.0)
            keep = (is_edge | ~_cleared(dists, dists >= 2 * tol)
                    | _near_least(dists, 0.0, np.isfinite(dists))
                    | _near_least(gaps, 1.0, ~is_edge & np.isfinite(gaps)))
            for i, j in zip(first[keep].tolist(), second[keep].tolist()):
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
                if dist < tol:
                    degeneracies.append(Degeneracy(COINCIDENT_VERTICES, (i, j)))

        # Degenerate (zero-length) edges are already reported as coincident
        # vertices; skip them in the segment predicates below.
        solid_edges = [e for e in d.graph.edges
                       if math.dist(pos[e[0]], pos[e[1]]) > tol]
        ends = np.array(solid_edges, dtype=np.intp).reshape(-1, 2)
        a_xy, b_xy = xy[:, ends[:, 0]], xy[:, ends[:, 1]]
        u = b_xy - a_xy
        # one column per solid edge ab: ax, ay, ux, uy (u = b - a), |u|^2,
        # |u|, bx, by, computed as the predicates compute them
        seg = np.vstack((a_xy, u, u[0] * u[0] + u[1] * u[1],
                         np.hypot(u[0], u[1]), b_xy))

        for e, v in _grid(len(solid_edges), n):
            ax, ay, ux, uy, length_sq = seg[:5, e]
            px, py = xy[:, v]
            t = ((px - ax) * ux + (py - ay) * uy) / length_sq
            offset = np.hypot(px - (ax + t * ux), py - (ay + t * uy))
            keep = ((v != ends[e, 0]) & (v != ends[e, 1])
                    & ((length_sq <= 4 * tol * tol)  # the predicate raises
                       | ~(_cleared(t, (t <= tol / 2) | (t >= 1.0 - tol / 2))
                           | _cleared(offset, offset >= 2 * tol))))
            for k, pt in zip(e[keep].tolist(), v[keep].tolist()):
                a, b = solid_edges[k]
                if point_on_segment_interior(pos[pt], pos[a], pos[b]):
                    degeneracies.append(
                        Degeneracy(VERTEX_ON_EDGE_INTERIOR, (pt, a, b)))

        for _, first, second in _pairs(len(solid_edges)):
            # segments_overlap's four _near_line tests: the first screens
            # the whole block, the other three what it keeps
            keep = ~_off_line(seg[:2, second], seg[:6, first])
            first, second = first[keep], second[keep]
            s1, s2 = seg[:, first], seg[:, second]
            keep = ~(_off_line(s2[6:], s1) | _off_line(s1[:2], s2)
                     | _off_line(s1[6:], s2))
            for i, j in zip(first[keep].tolist(), second[keep].tolist()):
                e1, e2 = solid_edges[i], solid_edges[j]
                if segments_overlap(pos[e1[0]], pos[e1[1]],
                                    pos[e2[0]], pos[e2[1]]):
                    degeneracies.append(
                        Degeneracy(COLLINEAR_OVERLAPPING_EDGES, e1 + e2))

    n_edges = len(d.graph.edges)
    is_unit = max_edge_residual <= DEFAULT_EDGE_TOL
    faithful = is_unit and min_gap >= DEFAULT_GAP_THRESHOLD and not degeneracies
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
        edge_tol=DEFAULT_EDGE_TOL,
        gap_threshold=DEFAULT_GAP_THRESHOLD,
        n_edges=n_edges,
        n_nonadjacent_pairs=n * (n - 1) // 2 - n_edges,
    )


def _pair_rank(i, j, n):
    """Rank of the pair i < j among the pairs of range(n) in lexicographic
    order."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _pairs(n: int):
    """(rank, i, j) index arrays of the pairs i < j of range(n), in
    lexicographic order, at most _BLOCK pairs at a time."""
    rows = np.arange(n)
    starts = _pair_rank(rows, rows + 1, n)
    total = n * (n - 1) // 2
    for start in range(0, total, _BLOCK):
        ranks = np.arange(start, min(start + _BLOCK, total))
        first = np.searchsorted(starts, ranks, side="right") - 1
        yield ranks, first, ranks - starts[first] + first + 1


def _grid(n_rows: int, n_cols: int):
    """(row, column) index arrays of an n_rows x n_cols grid, row by row, at
    most _BLOCK cells at a time."""
    total = n_rows * n_cols
    for start in range(0, total, _BLOCK):
        yield np.divmod(np.arange(start, min(start + _BLOCK, total)), n_cols)


def _cleared(value, beyond):
    """Where a screen may drop a candidate: its value is beyond the
    threshold and finite, so NaN and inf always reach the scalar code."""
    return np.isfinite(value) & beyond


def _off_line(p, seg):
    """Where _near_line(p, a, b) is surely False, for points p (rows x, y)
    and segments ab (columns of verify's seg)."""
    ax, ay, ux, uy, _, length = seg[:6]
    distance = np.abs(ux * (p[1] - ay) - uy * (p[0] - ax)) / length
    return _cleared(distance, distance >= 2 * DEFAULT_DEGENERACY_TOL)


def _near_least(value, offset: float, where):
    """Where, among `where`, value is within _MARGIN of its least there,
    relative to offset + least (the distance scale of the quantity), or
    within the smallest normal float, which covers subnormal rounding."""
    least = np.min(value, initial=np.inf, where=where)
    return where & (value <= least + _MARGIN * (offset + least)
                    + sys.float_info.min)
