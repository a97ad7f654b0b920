"""Certification of unit-distance and faithfulness properties of drawings.

A drawing is unit-distance when every edge has length 1 (within
DEFAULT_EDGE_TOL) and faithful when additionally every non-adjacent pair
stays clear of distance 1 (by at least DEFAULT_GAP_THRESHOLD) and no geometric
degeneracies occur: coincident vertices, a vertex inside the interior of a
non-incident edge segment, or collinear edges with positive overlap.

All checks are exhaustive over the C(n, 2) vertex pairs and the edge pairs;
every quantity is derived from pairwise distances and isometry-invariant
predicates, so reports are stable under rigid motions.

A sweep over x-sorted vertices pairs vertices; each edge's box takes the
vertices whose x it spans by bisection; edges pair by direction angle, and
in long runs of near-parallel edges by line offset too.  These keys, and
the predicates' first tests run inline, skip only candidates that surely
cannot change the report; math.dist and the predicates below decide every
verdict, value and witness.
The extra memory is O(n + edges + findings) for any drawing.  The hot loops
sit in short helpers and comprehensions, as tracemalloc on Python 3.11 finds
an allocation's line by scanning its code's line table from the start.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, repeat

from .layout import Drawing

DEFAULT_EDGE_TOL = 1e-9
DEFAULT_GAP_THRESHOLD = 1e-2
DEFAULT_DEGENERACY_TOL = 1e-9
_WIDE = 0.15  # an edge with slack / |u| at least this pairs by its box alone
# A longer run of near-parallel edges pairs by line offset too.  Pairing by
# angle alone costs O(run**2), by offset a sort and a fixed cost per run;
# they cost about the same at 12.
_RUN = 12

COINCIDENT_VERTICES = "coincident-vertices"
VERTEX_ON_EDGE_INTERIOR = "vertex-on-edge-interior"
COLLINEAR_OVERLAPPING_EDGES = "collinear-overlapping-edges"

Point = tuple[float, float]
_last = (object(), None)  # verify's last drawing and its report


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

    Inline copies of point_on_segment_interior's tol < t < 1 - tol test and
    segments_overlap's near-line tests of one segment against the other's
    ends drop candidates, and so do a vertex's distance from an edge's line
    and the angle between two edges' directions, each bounded through the
    rounding slack below; the predicates decide all others.  Called again on
    the same object with no other drawing between, it returns the same report.
    """
    global _last
    last_drawing, last_report = _last  # one read: another thread may rebind it
    if last_drawing is d:
        return last_report
    tol = DEFAULT_DEGENERACY_TOL
    pos = d.positions
    n = d.graph.n_vertices
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
    boxes = []  # (x0, x1, y0, y1, k, ax, ay, bx, by, ux, uy, |u|, |u|**2, a, b,
    #           slack * |u|)
    for i, j in d.graph.edges:  # in lexicographic order
        a, b = pos[i], pos[j]
        dist = math.dist(a, b)
        res = abs(dist - 1.0)
        if res > max_edge_residual or edge_witness is None:
            max_edge_residual, edge_witness = res, (i, j)
        # Degenerate (zero-length) edges are reported as coincident
        # vertices; skip them in the segment predicates below.
        if dist > tol:
            (ax, ay), (bx, by) = a, b
            ux, uy = bx - ax, by - ay
            x0, x1 = (bx, ax) if bx < ax else (ax, bx)
            y0, y1 = (by, ay) if by < ay else (ay, by)
            # dist is math.hypot(ux, uy), as the predicates' |u|: both take
            # the norm of b - a
            boxes.append((x0 - slack, x1 + slack, y0 - slack, y1 + slack,
                          len(solid_edges), ax, ay, bx, by, ux, uy,
                          dist, ux * ux + uy * uy, a, b, slack * dist))
            solid_edges.append((i, j))

    xs = [p[0] for p in pos]
    order = sorted(range(n), key=xs.__getitem__)
    sep, gap, coincident = _vertex_pairs(pos, order, d.graph.edge_set, slack)
    on_edge, overlapping = _segment_pairs(pos, order, boxes, slack)

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
    _last = d, FaithfulnessReport(
        is_unit_distance=is_unit, is_faithful=faithful,
        max_edge_residual=max_edge_residual, max_edge_residual_witness=edge_witness,
        min_nonedge_gap=gap[0], min_nonedge_gap_witness=gap[1:] or None,
        min_vertex_separation=sep[0], min_vertex_separation_witness=sep[1:] or None,
        degeneracies=tuple(degeneracies), edge_tol=DEFAULT_EDGE_TOL,
        gap_threshold=DEFAULT_GAP_THRESHOLD, n_edges=n_edges,
        n_nonadjacent_pairs=n * (n - 1) // 2 - n_edges)
    return _last[1]


def _vertex_pairs(pos, order, edge_set, slack: float):
    """(sep, gap, coincident), order sorting the vertices by x.  A pair over
    2 apart in x or in y is over 2 apart, with a gap over 1, and 2 * slack
    covers the rounding of the window; so once it holds a separation <= 2
    and a non-edge gap <= 1, no pair outside changes the report.

    The window is a FIFO queue: active only grows, and active[start:] holds
    the vertices whose x + reach is at least the current x.  Rounding is
    monotone, so x + reach does not decrease along order, and the entries
    that expire are always a prefix of those still held."""
    tol = DEFAULT_DEGENERACY_TOL
    for reach in (2 + 2 * slack, math.inf):
        # (value, i, j); (inf,) sorts after any finite one, so inf sets no witness
        sep = gap = (math.inf,)
        coincident, active, start = [], [], 0
        for v in order:
            x, y = pos[v]
            while start < len(active) and active[start][0] < x:
                start += 1
            for _, y_lo, y_hi, u in active[start:]:
                if y_lo <= y <= y_hi:
                    i, j = (u, v) if u < v else (v, u)
                    dist = math.dist(pos[i], pos[j])
                    if dist <= sep[0] and (dist, i, j) < sep:
                        sep = (dist, i, j)
                    g = abs(dist - 1.0)
                    if g <= gap[0] and (i, j) not in edge_set and (g, i, j) < gap:
                        gap = (g, i, j)
                    if dist < tol:
                        coincident.append((i, j))
            active.append((x + reach, y - reach, y + reach, v))
        if sep[0] <= 2.0 and gap[0] <= 1.0:
            break
    return sep, gap, coincident


def _segment_pairs(pos, order, boxes, slack: float):
    """The (edge, vertex) and (edge, edge) pairs the predicates find.

    Each edge's box takes the vertices whose x it spans, by bisection of
    the x-sorted order, and drops one outside its y-range, one whose t fails
    tol < t < 1 - tol, and one off its line: if point_on_segment_interior is
    true, |(p - a) x u| / |u| is under tol plus rounding, which slack
    covers, and no product overflows; the test keeps a NaN.  An edge pair
    from _edge_candidates needs meeting boxes and must pass two of
    segments_overlap's near-line tests, inline, before segments_overlap
    decides it."""
    tol = DEFAULT_DEGENERACY_TOL
    ordered = [(*pos[v], v) for v in order]
    xs = [p[0] for p in ordered]
    on_edge = [(k, v) for x0, x1, y0, y1, k, ax, ay, _, _, ux, uy, _, sq, a, b, near
               in boxes for px, py, v in ordered[bisect_left(xs, x0):bisect_right(xs, x1)]
               if y0 <= py <= y1
               # tol < t < 1 - tol, which t = 0 and t = 1 at an edge's ends fail
               and tol < ((px - ax) * ux + (py - ay) * uy) / sq < 1.0 - tol
               and not abs((px - ax) * uy - (py - ay) * ux) >= near
               and point_on_segment_interior(pos[v], a, b)]
    # g's near-line tests of h's ends, as segments_overlap(g, h) computes them
    overlapping = [(g[4], h[4]) for g, h in _edge_candidates(boxes, slack)
                   if g[1] >= h[0] and g[0] <= h[1] and g[3] >= h[2] and g[2] <= h[3]
                   and abs(g[9] * (h[6] - g[6]) - g[10] * (h[5] - g[5])) / g[11] < tol
                   and abs(g[9] * (h[8] - g[6]) - g[10] * (h[7] - g[5])) / g[11] < tol
                   and segments_overlap(g[13], g[14], h[13], h[14])]
    return on_edge, overlapping


def _edge_candidates(boxes, slack: float):
    """Each pair (g, h) of edge boxes, g's edge index the lower, that
    segments_overlap might find overlapping.

    If it does, its four near-line tests give |sin theta| * max(|u|, |v|)
    <= 2 * tol plus rounding, which slack covers, so the angle theta between
    the directions, modulo pi, is at most (pi / 2) * slack / |u| and the
    same for v.  Edges sorted by direction angle in (-pi / 2, pi / 2] pair
    only within both windows, plus 2**-40 for the rounding of atan2, cos
    and sin; a window that crosses -pi / 2 also meets the top of the order
    through a copy at angle + pi, which pairs only with an original, so no
    pair comes twice.  A pair spans a gap of that order only if the gap is
    at most the widest window on each side of it, so pairs lie within runs.
    A run of more than _RUN edges is also sorted by the offset of each line
    across the run's first direction d: the lines of an overlapping pair
    are at most slack + 2 * (|u| + slack) * (span + 2**-40) apart there, |u|
    the run's longest edge and span its range of angles.  The offsets are
    halved, so no product overflows and every value compared is finite.
    An edge whose length is not finite, or whose window is not small, pairs
    with every edge whose box meets its own: with boxes sorted by x0, those
    that meet it in x lie between the first whose running maximum of x1
    reaches its x0 and the last whose x0 is at most its x1."""
    half_pi = math.pi / 2
    # (angle, k, window, box, copy), and boxes paired with all
    keyed, wide = [], []
    for box in boxes:
        length = box[11]
        if slack < _WIDE * length < math.inf:
            ux, uy = box[9], box[10]
            if ux < 0.0 or ux == 0.0 and uy < 0.0:
                ux, uy = -ux, -uy
            keyed.append((math.atan2(uy, ux), box[4],
                          half_pi * slack / length + 2.0 ** -40, box, False))
        else:
            wide.append(box)
    keyed.sort()
    keyed += [(angle + math.pi, k, window, box, True)
              for angle, k, window, box, _ in keyed if angle - window < -half_pi]
    angles = [entry[0] for entry in keyed]
    widest = max([entry[2] for entry in keyed], default=0.0)
    # runs split at gaps wider than any window; only long ones need the
    # costlier split by each side's widest window below
    runs = []  # of more than _RUN entries, which leave keyed
    for first, end in _runs(angles, repeat(widest), repeat(widest))[::-1]:
        if end - first > _RUN:
            runs.append(keyed[first:end])
            del keyed[first:end], angles[first:end]
    # a list, faster here than a generator: under _RUN pairs for each edge
    yield from [(e, f) if e[4] < f[4] else (f, e)
                for i, (angle, _, window, e, copy) in enumerate(keyed) if not copy
                for other, _, other_window, f, _
                in keyed[i + 1:bisect_right(angles, angle + window, i + 1)]
                if other - angle <= other_window]
    for whole in runs:
        # a pair spans a gap only if it is at most the widest window on
        # each side, so one short edge does not join two runs
        windows = [entry[2] for entry in whole]
        below = accumulate(windows, max)
        above = [*accumulate(windows[::-1], max)][-2::-1]
        for first, end in _runs([entry[0] for entry in whole], below, above):
            if end - first < 2:
                continue
            run = whole[first:end]
            dx, dy = math.cos(run[0][0]), math.sin(run[0][0])
            reach = 0.5 * slack + (max([entry[3][11] for entry in run]) + slack) * (
                run[-1][0] - run[0][0] + 2.0 ** -40)
            # (offset, copy, angle, window, box) by offset; ties end at box's k
            across = sorted([(dx * box[6] * 0.5 - dy * box[5] * 0.5, copy, angle,
                              window, box) for angle, _, window, box, copy in run])
            offsets = [entry[0] for entry in across]
            yield from ((e, f) if e[4] < f[4] else (f, e)
                        for i, (offset, copy, angle, window, e) in enumerate(across)
                        for _, other_copy, other, other_window, f
                        in across[i + 1:bisect_right(offsets, offset + reach, i + 1)]
                        if (turn := abs(other - angle)) <= window
                        and turn <= other_window and not (copy and other_copy))
    if wide:
        by_x = sorted(boxes, key=lambda box: box[0])
        x0s = [box[0] for box in by_x]
        x1s = [*accumulate([box[1] for box in by_x], max)]
        wide_ks = {box[4] for box in wide}
        yield from ((e, f) if e[4] < f[4] else (f, e) for e in wide
                    for f in by_x[bisect_left(x1s, e[0]):bisect_right(x0s, e[1])]
                    if f[3] >= e[2] and f[2] <= e[3]
                    and (f[4] > e[4] or f[4] not in wide_ks))


def _runs(angles, below, above):
    """(first, end) of each run of the sorted angles, split at every gap
    wider than its bound in below or in above."""
    cuts = [i for i, (angle, other, left, right)
            in enumerate(zip(angles, angles[1:], below, above), 1)
            if other - angle > left or other - angle > right]
    return [*zip([0, *cuts], [*cuts, len(angles)])]
