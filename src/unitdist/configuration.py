"""Point-circle incidence structures derived from faithful bipartite drawings.

One bipartition class of a faithful unit-distance drawing becomes the set
of unit-circle centres; the other class becomes the configuration points.
Faithfulness guarantees a point lies on a circle exactly when the matching
vertices are adjacent, so the incidence matrix coincides with the
cross-class adjacency of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from ._jsonfmt import json_index, json_number
from .graph import Bipartition
from .layout import Drawing
from .verifier import (DEFAULT_EDGE_TOL, DEFAULT_GAP_THRESHOLD, verify)


class NotFaithfulError(ValueError):
    """The source drawing is not a faithful unit-distance representation."""


class Circle(NamedTuple):
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class IncidenceStructure:
    """Points, unit circles, and their boolean incidence matrix.

    incidence[i][j] says whether point i lies on circle j.  point_labels
    and circle_labels carry the originating vertex ids (distinct integers)
    so the structure stays traceable to the drawing it came from.
    """

    points: tuple[tuple[float, float], ...]
    circles: tuple[Circle, ...]
    incidence: tuple[tuple[bool, ...], ...]
    point_labels: tuple[int, ...]
    circle_labels: tuple[int, ...]

    def __post_init__(self):
        points = tuple((json_number(x), json_number(y)) for x, y in self.points)
        circles = tuple(Circle((json_number(x), json_number(y)), json_number(r))
                        for (x, y), r in self.circles)
        point_labels = tuple(map(json_index, self.point_labels))
        circle_labels = tuple(map(json_index, self.circle_labels))
        v, b = len(points), len(circles)
        if len(self.incidence) != v or any(len(row) != b for row in self.incidence):
            raise ValueError("incidence must have one row per point and one "
                             "entry per circle in each row")
        if (len(point_labels), len(circle_labels)) != (v, b):
            raise ValueError("one label per point and per circle required")
        if len(set(point_labels + circle_labels)) != v + b:
            raise ValueError("point and circle labels must be distinct")
        if any(c.radius != 1.0 for c in circles):
            raise ValueError("all circles must have radius exactly 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "circles", circles)
        object.__setattr__(self, "point_labels", point_labels)
        object.__setattr__(self, "circle_labels", circle_labels)

    def to_json_dict(self) -> dict:
        incidences = sorted(
            [pl, cl] for pl, row in zip(self.point_labels, self.incidence)
            for cl, hit in zip(self.circle_labels, row) if hit)
        return {
            "points": [list(p) for p in self.points],
            "centers": [list(c.center) for c in self.circles],
            "radius": 1.0,
            "point_labels": list(self.point_labels),
            "circle_labels": list(self.circle_labels),
            "incidences": incidences,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncidenceStructure":
        listed = sorted([json_index(a), json_index(b)] for a, b in data["incidences"])
        pairs = set(map(tuple, listed))
        radius = data["radius"]
        structure = cls(data["points"],
                        tuple(Circle(center, radius) for center in data["centers"]),
                        tuple(tuple((pl, cl) in pairs for cl in data["circle_labels"])
                              for pl in data["point_labels"]),
                        data["point_labels"], data["circle_labels"])
        # the structure keeps each (point label, circle label) pair once
        if structure.to_json_dict()["incidences"] != listed:
            raise ValueError("an incidence names an unknown label or repeats")
        return structure


def build_point_circle(d: Drawing, bp: Bipartition, centers_class: str = "a",
                       edge_tol: float = DEFAULT_EDGE_TOL,
                       gap_threshold: float = DEFAULT_GAP_THRESHOLD
                       ) -> IncidenceStructure:
    """Derive the isometric point-circle structure from a faithful drawing.

    centers_class ("a" or "b") picks which bipartition class supplies the
    unit-circle centres; the other class supplies the points.  The drawing
    must verify as faithful (NotFaithfulError otherwise).  The incidences
    are the cross-class edges: in a drawing that verifies, every edge is
    within edge_tol of length 1 and every non-edge at least gap_threshold
    > edge_tol away, so they are exactly the pairs at distance 1 within
    edge_tol.
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
    if sorted(center_ids + point_ids) != list(range(d.graph.n_vertices)):
        raise ValueError("bipartition does not partition the drawing's vertices")

    pos = d.positions
    return IncidenceStructure(
        points=tuple(pos[v] for v in point_ids),
        circles=tuple(Circle(pos[v], 1.0) for v in center_ids),
        incidence=tuple(tuple(d.graph.has_edge(pv, cv) for cv in center_ids)
                        for pv in point_ids),
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
