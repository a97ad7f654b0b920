"""Planar drawings: the rhombus embedding of GP(8,3) and circular layouts.

Both constructions put vertex 0 at the top (positive y axis).  Coordinates
are in unit-edge-length units.  The rhombus drawing is pinned by the four
unknowns of RhombusParams, which the solver finds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._jsonfmt import json_number
from .graph import Graph, generalized_petersen

_DISTINCT_VERTEX_TOL = 1e-6
_REFLECTION_TOL = 1e-9


@dataclass(frozen=True, order=True)
class RhombusParams:
    """The four unknowns, in unit-edge-length units.

    Ordering is lexicographic on (h, k, p, q), which fixes the order of
    enumerated solution lists.
    """

    h: float
    k: float
    p: float
    q: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.h, self.k, self.p, self.q)


class InfeasibleLayoutError(ValueError):
    """The circular construction admits no real inner-ring rotation."""


@dataclass(frozen=True)
class Drawing:
    """Vertex positions for a graph, one (x, y) pair per vertex id."""

    graph: Graph
    positions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        if len(pos) != self.graph.n_vertices:
            raise ValueError(f"expected {self.graph.n_vertices} positions, "
                             f"got {len(pos)}")
        for v, (x, y) in enumerate(pos):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate at vertex {v}")
        object.__setattr__(self, "positions", pos)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Drawing":
        return cls(Graph.from_json_dict(data["graph"]),
                   tuple((json_number(x), json_number(y))
                         for x, y in data["positions"]))


def rhombus_layout(params: RhombusParams) -> Drawing:
    """The D2-symmetric drawing of GP(8,3) pinned by (h, k, p, q).

    Outer vertices 0, 2, 4, 6 sit on the rhombus corners (0, +-k) and
    (+-h, 0); 1, 3, 5, 7 bisect its sides.  Inner vertices are vertex 13 at
    (p, q), its reflections in the axes (9, 11, 15), and the axis points
    8, 10, 12, 14 placed at unit spoke distance from their outer mates.

    The drawing exists for any parameter values; it is unit-distance exactly
    when the parameters solve the embedding system.
    """
    h, k, p, q = params.h, params.k, params.p, params.q
    positions = (
        (0.0, k),           # 0
        (-h / 2, k / 2),    # 1
        (-h, 0.0),          # 2
        (-h / 2, -k / 2),   # 3
        (0.0, -k),          # 4
        (h / 2, -k / 2),    # 5
        (h, 0.0),           # 6
        (h / 2, k / 2),     # 7
        (0.0, k - 1.0),     # 8
        (-p, -q),           # 9
        (1.0 - h, 0.0),     # 10
        (-p, q),            # 11
        (0.0, 1.0 - k),     # 12
        (p, q),             # 13
        (h - 1.0, 0.0),     # 14
        (p, -q),            # 15
    )
    return Drawing(generalized_petersen(8, 3), positions)


def _is_nondegenerate(params: RhombusParams) -> bool:
    if not (params.h > 0.0 and params.k > 0.0):
        return False
    pts = rhombus_layout(params).positions
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if dx * dx + dy * dy < _DISTINCT_VERTEX_TOL ** 2:
                return False
    return True


def check_reflection_pair(a: RhombusParams, b: RhombusParams) -> bool:
    """True iff drawing(b) is drawing(a) mirrored in the line y = x.

    The mirrored point set of a must equal the point set of b as multisets
    (per-coordinate within 1e-9, matched one to one), and the induced vertex
    correspondence must preserve adjacency.  Ambiguous matches (two vertices
    of b within 1e-9 of one mirrored point) fail the check.
    """
    drawing_a = rhombus_layout(a)
    drawing_b = rhombus_layout(b)
    mirrored = [(y, x) for (x, y) in drawing_a.positions]
    matched: list[int] = []
    used: set[int] = set()
    for mx, my in mirrored:
        hits = [w for w, (bx, by) in enumerate(drawing_b.positions)
                if w not in used and abs(bx - mx) <= _REFLECTION_TOL
                and abs(by - my) <= _REFLECTION_TOL]
        if len(hits) != 1:
            return False
        matched.append(hits[0])
        used.add(hits[0])
    edge_set = drawing_b.graph.edge_set
    return all(((matched[u], matched[v]) if matched[u] < matched[v]
                else (matched[v], matched[u])) in edge_set
               for u, v in drawing_a.graph.edges)


def circular_radii(n: int, s: int) -> tuple[float, float]:
    """Radii (R, r) making the outer n-gon and inner star chords unit length."""
    return (1.0 / (2.0 * math.sin(math.pi / n)),
            1.0 / (2.0 * math.sin(s * math.pi / n)))


def circular_layout(n: int, s: int, rotation_sign: int = -1) -> Drawing:
    """Concentric-circles drawing of GP(n, s) with every edge of length 1.

    Outer vertex i sits at angle pi/2 + 2*pi*i/n on radius R; inner vertex
    n+j at angle pi/2 + 2*pi*j/n + rotation_sign*alpha on radius r, where
    cos(alpha) = (R^2 + r^2 - 1) / (2*R*r) makes the spokes unit length.

    cos(alpha) only determines alpha up to sign; rotation_sign picks the
    branch.  The default -1 reproduces the classic GP(8,3) picture in which
    the non-adjacent pair (0, 10) sits at distance exactly 1.

    Raises InfeasibleLayoutError when |R - r| <= 1 <= R + r fails, i.e. the
    spoke equation has no real rotation.
    """
    if rotation_sign not in (1, -1):
        raise ValueError("rotation_sign must be +1 or -1")
    g = generalized_petersen(n, s)  # validates n, s
    big_r, small_r = circular_radii(n, s)
    cos_alpha = (big_r * big_r + small_r * small_r - 1.0) / (2.0 * big_r * small_r)
    if abs(cos_alpha) > 1.0 + 1e-12:
        raise InfeasibleLayoutError(
            f"GP({n},{s}): no unit-length spoke rotation exists "
            f"(R={big_r:.6f}, r={small_r:.6f} violate |R-r| <= 1 <= R+r)")
    alpha = math.acos(max(-1.0, min(1.0, cos_alpha)))
    positions = []
    for i in range(n):
        angle = math.pi / 2 + 2.0 * math.pi * i / n
        positions.append((big_r * math.cos(angle), big_r * math.sin(angle)))
    for j in range(n):
        angle = math.pi / 2 + 2.0 * math.pi * j / n + rotation_sign * alpha
        positions.append((small_r * math.cos(angle), small_r * math.sin(angle)))
    return Drawing(g, tuple(positions))
