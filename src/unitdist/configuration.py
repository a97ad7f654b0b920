"""Point-circle incidence structures derived from faithful bipartite drawings.

One bipartition class of a faithful unit-distance drawing becomes the set
of unit-circle centres; the other class becomes the configuration points.
Faithfulness guarantees a point lies on a circle exactly when the matching
vertices are adjacent, so the incidence matrix coincides with the
cross-class adjacency of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from ._jsonfmt import json_index, json_number
from .graph import Bipartition
from .layout import Drawing
from .verifier import (DEFAULT_EDGE_TOL, DEFAULT_GAP_THRESHOLD, verify)

DEFAULT_INCIDENCE_TOL = DEFAULT_EDGE_TOL


class NotFaithfulError(ValueError):
    """The source drawing is not a faithful unit-distance representation."""


class IncidenceMismatchError(ValueError):
    """Metric incidence disagrees with graph adjacency (tolerance misset)."""


class Circle(NamedTuple):
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class IncidenceStructure:
    """Points, unit circles, and their boolean incidence matrix.

    incidence[i][j] says whether point i lies on circle j.  point_labels
    and circle_labels carry the originating vertex ids so the structure
    stays traceable to the drawing it came from.
    """

    points: tuple[tuple[float, float], ...]
    circles: tuple[Circle, ...]
    incidence: tuple[tuple[bool, ...], ...]
    point_labels: tuple[int, ...]
    circle_labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.incidence) != len(self.points):
            raise ValueError("incidence must have one row per point")
        for row in self.incidence:
            if len(row) != len(self.circles):
                raise ValueError("incidence rows must have one entry per circle")
        if len(self.point_labels) != len(self.points):
            raise ValueError("one label per point required")
        if len(self.circle_labels) != len(self.circles):
            raise ValueError("one label per circle required")
        for circle in self.circles:
            if circle.radius != 1.0:
                raise ValueError("all circles must have radius exactly 1")

    def to_json_dict(self) -> dict:
        incidences = sorted(
            (self.point_labels[i], self.circle_labels[j])
            for i in range(len(self.points))
            for j in range(len(self.circles))
            if self.incidence[i][j])
        return {
            "points": [list(p) for p in self.points],
            "centers": [list(c.center) for c in self.circles],
            "radius": 1.0,
            "point_labels": list(self.point_labels),
            "circle_labels": list(self.circle_labels),
            "incidences": [list(pair) for pair in incidences],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncidenceStructure":
        point_labels = tuple(json_index(v) for v in data["point_labels"])
        circle_labels = tuple(json_index(v) for v in data["circle_labels"])
        radius = json_number(data["radius"])
        pairs = {(json_index(a), json_index(b)) for a, b in data["incidences"]}
        incidence = tuple(
            tuple((pl, cl) in pairs for cl in circle_labels)
            for pl in point_labels)
        return cls(
            points=tuple((json_number(x), json_number(y))
                         for x, y in data["points"]),
            circles=tuple(Circle((json_number(x), json_number(y)), radius)
                          for x, y in data["centers"]),
            incidence=incidence,
            point_labels=point_labels,
            circle_labels=circle_labels,
        )


def build_point_circle(d: Drawing, bp: Bipartition, centers_class: str = "a",
                       incidence_tol: float = DEFAULT_INCIDENCE_TOL,
                       edge_tol: float = DEFAULT_EDGE_TOL,
                       gap_threshold: float = DEFAULT_GAP_THRESHOLD
                       ) -> IncidenceStructure:
    """Derive the isometric point-circle structure from a faithful drawing.

    centers_class ("a" or "b") picks which bipartition class supplies the
    unit-circle centres; the other class supplies the points.  The drawing
    must verify as faithful (NotFaithfulError otherwise), and the metric
    incidences must coincide with graph adjacency (IncidenceMismatchError
    otherwise, which signals a misconfigured tolerance rather than bad
    geometry).
    """
    if centers_class not in ("a", "b"):
        raise ValueError("centers_class must be 'a' or 'b'")
    report = verify(d, edge_tol=edge_tol, gap_threshold=gap_threshold)
    if not report.is_faithful:
        raise NotFaithfulError(
            "drawing is not faithful: max edge residual "
            f"{report.max_edge_residual:.3e}, min non-edge gap "
            f"{report.min_nonedge_gap:.3e}, "
            f"{len(report.degeneracies)} degeneracies")
    center_ids = sorted(bp.class_a if centers_class == "a" else bp.class_b)
    point_ids = sorted(bp.class_b if centers_class == "a" else bp.class_a)
    all_ids = set(center_ids) | set(point_ids)
    if all_ids != set(range(d.graph.n_vertices)) or set(center_ids) & set(point_ids):
        raise ValueError("bipartition does not partition the drawing's vertices")

    pos = d.positions
    rows = []
    for pv in point_ids:
        row = []
        for cv in center_ids:
            metric = abs(math.dist(pos[pv], pos[cv]) - 1.0) <= incidence_tol
            adjacent = d.graph.has_edge(pv, cv)
            if metric != adjacent:
                raise IncidenceMismatchError(
                    f"point {pv} vs circle at {cv}: metric incidence "
                    f"{metric} but adjacency {adjacent} "
                    f"(incidence_tol={incidence_tol:g})")
            row.append(metric)
        rows.append(tuple(row))
    return IncidenceStructure(
        points=tuple(pos[v] for v in point_ids),
        circles=tuple(Circle(pos[v], 1.0) for v in center_ids),
        incidence=tuple(rows),
        point_labels=tuple(point_ids),
        circle_labels=tuple(center_ids),
    )


@dataclass(frozen=True)
class ConfigurationCheck:
    """Outcome of the combinatorial configuration axioms.

    signature is (v, b, r, c) when the structure is a (v_r, b_c)
    configuration, else None with the violations listed.
    """

    signature: tuple[int, int, int, int] | None
    violations: tuple[str, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


def validate_configuration(s: IncidenceStructure) -> ConfigurationCheck:
    """Check constant degrees and the pairwise-incidence axiom.

    A (v_r, b_c) configuration has every point on r circles, every circle
    through c points, and any two distinct points sharing at most one
    circle (dually for circles).  Violations name the offending indices.
    """
    v, b = len(s.points), len(s.circles)
    point_deg = [sum(row) for row in s.incidence]
    circle_deg = [sum(s.incidence[i][j] for i in range(v)) for j in range(b)]
    r = point_deg[0] if point_deg else 0
    c = circle_deg[0] if circle_deg else 0

    violations: list[str] = []
    for i, deg in enumerate(point_deg):
        if deg != r:
            violations.append(f"point {i} lies on {deg} circles, expected {r}")
    for j, deg in enumerate(circle_deg):
        if deg != c:
            violations.append(f"circle {j} passes through {deg} points, expected {c}")
    for i, j in combinations(range(v), 2):
        shared = sum(1 for t in range(b) if s.incidence[i][t] and s.incidence[j][t])
        if shared > 1:
            violations.append(f"points {i} and {j} share {shared} circles")
    for i, j in combinations(range(b), 2):
        shared = sum(1 for t in range(v) if s.incidence[t][i] and s.incidence[t][j])
        if shared > 1:
            violations.append(f"circles {i} and {j} share {shared} points")

    if violations:
        return ConfigurationCheck(None, tuple(violations))
    return ConfigurationCheck((v, b, r, c), ())


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and circle centres; incidence transposes."""
    return IncidenceStructure(
        points=tuple(c.center for c in s.circles),
        circles=tuple(Circle(p, 1.0) for p in s.points),
        incidence=tuple(zip(*s.incidence)) if s.incidence else
        tuple(() for _ in s.circles),
        point_labels=s.circle_labels,
        circle_labels=s.point_labels,
    )
