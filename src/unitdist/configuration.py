"""Point-circle incidence structures derived from faithful bipartite drawings.

One bipartition class of a faithful unit-distance drawing becomes the set
of unit-circle centres; the other class becomes the configuration points.
Faithfulness guarantees a point lies on a circle exactly when the matching
vertices are adjacent, so the incidences are exactly the cross-class edges
of the graph.  Conversely a structure's Levi graph, with every label drawn
at its point or centre, is a drawing that the verifier can check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from ._jsonfmt import json_index, json_number, json_points
from .graph import Bipartition, Graph
from .layout import Drawing
from .verifier import verify


class NotFaithfulError(ValueError):
    """The source drawing is not a faithful unit-distance representation."""


class IncidenceStructure(namedtuple(
        "IncidenceStructure", "points centers incidence point_labels circle_labels")):
    """Points, unit-circle centres, and which point lies on which circle.

    incidence is the sorted tuple of (point label, circle label) pairs,
    each listed once.  point_labels and circle_labels carry the
    originating vertex ids (distinct integers) so the structure stays
    traceable to the drawing it came from.  points and centers are
    tuples of (x, y) pairs, one per label.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[float, float], ...],
                centers: tuple[tuple[float, float], ...],
                incidence: tuple[tuple[int, int], ...],
                point_labels: tuple[int, ...], circle_labels: tuple[int, ...]):
        points, centers = json_points(points), json_points(centers)
        point_labels = tuple(map(json_index, point_labels))
        circle_labels = tuple(map(json_index, circle_labels))
        incidence = tuple(sorted((json_index(pl), json_index(cl))
                                 for pl, cl in incidence))
        if (len(point_labels), len(circle_labels)) != (len(points), len(centers)):
            raise ValueError("one label per point and per circle required")
        if len(set(point_labels + circle_labels)) != len(points) + len(centers):
            raise ValueError("point and circle labels must be distinct")
        known = set(point_labels), set(circle_labels)
        if (len(set(incidence)) != len(incidence)
                or not all(pl in known[0] and cl in known[1] for pl, cl in incidence)):
            raise ValueError("an incidence names an unknown label or repeats")
        return tuple.__new__(cls, (points, centers, incidence, point_labels,
                                   circle_labels))

    def to_json_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "centers": [list(c) for c in self.centers],
            "radius": 1.0,
            "point_labels": list(self.point_labels),
            "circle_labels": list(self.circle_labels),
            "incidences": [list(pair) for pair in self.incidence],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncidenceStructure":
        if json_number(data["radius"]) != 1.0:
            raise ValueError("all circles must have radius exactly 1")
        return cls(data["points"], data["centers"], data["incidences"],
                   data["point_labels"], data["circle_labels"])


def build_point_circle(d: Drawing, bp: Bipartition, centers_class: str = "a"
                       ) -> IncidenceStructure:
    """Derive the isometric point-circle structure from a faithful drawing.

    centers_class ("a" or "b") picks which bipartition class supplies the
    unit-circle centres; the other class supplies the points.  The drawing
    must verify as faithful (NotFaithfulError otherwise).  The incidences
    are the cross-class edges: in a drawing that verifies, every edge is
    within DEFAULT_EDGE_TOL of length 1 and every non-edge at least
    DEFAULT_GAP_THRESHOLD > DEFAULT_EDGE_TOL away, so they are exactly the
    pairs at distance 1 within DEFAULT_EDGE_TOL.  Every edge must cross the
    bipartition (ValueError otherwise), so none is lost.
    """
    if centers_class not in ("a", "b"):
        raise ValueError("centers_class must be 'a' or 'b'")
    report = verify(d)
    if not report.is_faithful:
        raise NotFaithfulError(
            "drawing is not faithful: max edge residual "
            f"{report.max_edge_residual:.3e}, min non-edge gap "
            f"{report.min_nonedge_gap:.3e}, "
            f"{len(report.degeneracies)} degeneracies")
    centers = bp.class_a if centers_class == "a" else bp.class_b
    center_ids = sorted(centers)
    point_ids = sorted(bp.class_b if centers_class == "a" else bp.class_a)
    if sorted(center_ids + point_ids) != list(range(d.graph.n_vertices)):
        raise ValueError("bipartition does not partition the drawing's vertices")
    incidence = []
    for u, v in d.graph.edges:
        if (u in centers) == (v in centers):
            raise ValueError("bipartition has an edge inside a class")
        incidence.append((v, u) if u in centers else (u, v))

    return IncidenceStructure(
        points=tuple(d.positions[v] for v in point_ids),
        centers=tuple(d.positions[v] for v in center_ids),
        incidence=tuple(incidence),
        point_labels=tuple(point_ids),
        circle_labels=tuple(center_ids),
    )


class ConfigurationCheck(namedtuple("ConfigurationCheck", "signature violations")):
    """Outcome of the combinatorial configuration axioms.

    signature is (v, b, r, c) when the structure is a (v_r, b_c)
    configuration, else None with the violations listed, a tuple of str.
    """

    __slots__ = ()


def validate_configuration(s: IncidenceStructure) -> ConfigurationCheck:
    """Check constant degrees and the pairwise-incidence axiom.

    A (v_r, b_c) configuration has every point on r circles, every circle
    through c points, and any two distinct points sharing at most one
    circle (dually for circles).  Violations name the offending indices,
    degrees (points, then circles) before pairs (points, then circles).
    """
    incident = {label: set() for label in s.point_labels + s.circle_labels}
    for pl, cl in s.incidence:
        incident[pl].add(cl)
        incident[cl].add(pl)
    degrees, shares, regular = [], [], []
    for noun, verb, other, labels in (
            ("point", "lies on", "circle", s.point_labels),
            ("circle", "passes through", "point", s.circle_labels)):
        sets = [incident[label] for label in labels]
        expected = len(sets[0]) if sets else 0
        regular.append(expected)
        degrees += [f"{noun} {i} {verb} {len(x)} {other}s, expected {expected}"
                    for i, x in enumerate(sets) if len(x) != expected]
        for (i, x), (j, y) in combinations(enumerate(sets), 2):
            if len(x & y) > 1:
                shares.append(f"{noun}s {i} and {j} share {len(x & y)} {other}s")
    if degrees or shares:
        return ConfigurationCheck(None, tuple(degrees + shares))
    return ConfigurationCheck((len(s.points), len(s.centers), *regular), ())


def levi_drawing(s: IncidenceStructure) -> Drawing:
    """The drawing of the structure's Levi graph.

    Its vertices are the points and centres, numbered by the rank of their
    labels; its edges are the incidences.  A faithful Levi drawing puts
    every point on exactly the unit circles it is listed on.  A structure
    built from a drawing has that drawing back, as labels are vertex ids.
    """
    labels = sorted(s.point_labels + s.circle_labels)
    rank = {label: i for i, label in enumerate(labels)}
    xy = dict(zip(s.point_labels + s.circle_labels, s.points + s.centers))
    return Drawing(Graph(len(labels), tuple((rank[pl], rank[cl])
                                            for pl, cl in s.incidence)),
                   tuple(xy[label] for label in labels))


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and circle centres; each pair flips."""
    return IncidenceStructure(s.centers, s.points,
                              tuple((cl, pl) for pl, cl in s.incidence),
                              s.circle_labels, s.point_labels)
