"""Point-circle structures: construction, axioms, duality."""

import math

import pytest

from unitdist.configuration import (IncidenceStructure, NotFaithfulError,
                                    build_point_circle, dual,
                                    validate_configuration)
from unitdist.graph import Bipartition, Graph
from unitdist.layout import Drawing, circular_layout


@pytest.fixture(scope="module")
def centers_a(faithful_drawing, gp83_bipartition):
    return build_point_circle(faithful_drawing, gp83_bipartition, "a")


@pytest.fixture(scope="module")
def centers_b(faithful_drawing, gp83_bipartition):
    return build_point_circle(faithful_drawing, gp83_bipartition, "b")


class TestBuild:
    def test_counts_and_labels(self, centers_a, gp83_bipartition):
        assert len(centers_a.points) == 8
        assert len(centers_a.centers) == 8
        assert centers_a.circle_labels == tuple(sorted(gp83_bipartition.class_a))
        assert centers_a.point_labels == tuple(sorted(gp83_bipartition.class_b))

    def test_all_radii_unit(self, centers_a):
        assert centers_a.to_json_dict()["radius"] == 1.0

    def test_incidence_equals_cross_class_adjacency(self, centers_a, centers_b,
                                                    faithful_drawing):
        g = faithful_drawing.graph
        for s in (centers_a, centers_b):
            pairs = set(s.incidence)
            for pv, point in zip(s.point_labels, s.points):
                for cv, center in zip(s.circle_labels, s.centers):
                    edge = (min(pv, cv), max(pv, cv))
                    assert ((pv, cv) in pairs) == (edge in g.edge_set)
                    # the metric oracle: incident exactly at distance 1
                    on_circle = abs(math.dist(point, center) - 1.0) <= 1e-9
                    assert ((pv, cv) in pairs) == on_circle

    def test_point_positions_come_from_the_drawing(self, centers_a,
                                                   faithful_drawing):
        for pt, label in zip(centers_a.points, centers_a.point_labels):
            assert pt == faithful_drawing.positions[label]

    def test_degree_sum_counts_cross_edges(self, centers_a):
        assert len(centers_a.incidence) == 24

    def test_non_faithful_drawing_rejected(self, gp83_bipartition):
        with pytest.raises(NotFaithfulError):
            build_point_circle(circular_layout(8, 3), gp83_bipartition, "a")

    def test_rejects_unknown_class(self, faithful_drawing, gp83_bipartition):
        with pytest.raises(ValueError):
            build_point_circle(faithful_drawing, gp83_bipartition, "c")

    def test_rejects_a_bipartition_that_omits_a_vertex(self, faithful_drawing,
                                                        gp83_bipartition):
        partial = Bipartition(gp83_bipartition.class_a - {0},
                              gp83_bipartition.class_b)
        with pytest.raises(ValueError, match="partition"):
            build_point_circle(faithful_drawing, partial, "a")

    def test_rejects_a_bipartition_with_an_edge_inside_a_class(self):
        # the unit path 0-1-2-3 is faithful; classes {0, 1} / {2, 3} would
        # drop its edges (0, 1) and (2, 3)
        path = Drawing(Graph(4, ((0, 1), (1, 2), (2, 3))),
                       ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)))
        bp = Bipartition(frozenset({0, 1}), frozenset({2, 3}))
        with pytest.raises(ValueError, match="edge inside a class"):
            build_point_circle(path, bp, "a")


class TestValidate:
    def test_gp83_structure_is_8_3(self, centers_a, centers_b):
        assert validate_configuration(centers_a).signature == (8, 8, 3, 3)
        assert validate_configuration(centers_b).signature == (8, 8, 3, 3)

    def test_empty_structure_vacuously_valid(self):
        empty = IncidenceStructure((), (), (), (), ())
        check = validate_configuration(empty)
        assert check.signature == (0, 0, 0, 0)
        assert check.violations == ()

    def test_duplicated_circle_violates_pair_axiom(self):
        # two identical circles through the same two points
        structure = IncidenceStructure(
            points=((0.0, 0.0), (1.0, 0.0)),
            centers=((0.5, 0.8), (0.5, 0.8)),
            incidence=((0, 2), (0, 3), (1, 2), (1, 3)),
            point_labels=(0, 1),
            circle_labels=(2, 3),
        )
        check = validate_configuration(structure)
        assert check.signature is None
        assert any("share" in v for v in check.violations)

    def test_uneven_degrees_reported(self):
        structure = IncidenceStructure(
            points=((0.0, 0.0), (1.0, 0.0)),
            centers=((0.5, 0.8),),
            incidence=((0, 2),),
            point_labels=(0, 1),
            circle_labels=(2,),
        )
        check = validate_configuration(structure)
        assert check.signature is None
        assert any("degree" in v or "lies on" in v for v in check.violations)


class TestDual:
    def test_roles_swap(self, centers_a, centers_b):
        d = dual(centers_a)
        assert d.point_labels == centers_a.circle_labels
        assert d.circle_labels == centers_a.point_labels
        assert d.points == centers_a.centers

    def test_incidence_transposes(self, centers_a):
        d = dual(centers_a)
        d_pairs, a_pairs = set(d.incidence), set(centers_a.incidence)
        for i in range(8):
            for j in range(8):
                assert (((d.point_labels[i], d.circle_labels[j]) in d_pairs)
                        == ((centers_a.point_labels[j],
                             centers_a.circle_labels[i]) in a_pairs))

    def test_involution(self, centers_a):
        assert dual(dual(centers_a)) == centers_a

    def test_dual_of_a_is_b(self, centers_a, centers_b):
        # swapping classes and dualizing reach the same structure
        assert dual(centers_a) == centers_b

    def test_dual_also_validates(self, centers_a):
        assert validate_configuration(dual(centers_a)).signature == (8, 8, 3, 3)


class TestStructureType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IncidenceStructure(((0.0, 0.0),), (), (), (), ())
        with pytest.raises(ValueError):
            IncidenceStructure(((0.0, 0.0),), ((1.0, 0.0),),
                               ((0, 1), (0, 2)), (0,), (1,))

    def test_non_unit_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            IncidenceStructure.from_json_dict({
                "points": [[0.0, 0.0]], "centers": [[1.0, 0.0]], "radius": 2.0,
                "point_labels": [0], "circle_labels": [1], "incidences": [[0, 1]]})

    def test_json_round_trip(self, centers_a):
        data = centers_a.to_json_dict()
        assert data["incidences"] == sorted(data["incidences"])
        assert len(data["incidences"]) == 24
        assert IncidenceStructure.from_json_dict(data) == centers_a


class TestStructureValues:
    """The constructor owns every value check; the JSON reader only looks up
    keys, so these hold for structures built in code too."""

    CENTER = (1.0, 0.0)

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            IncidenceStructure(((0.0, 0.0),), (self.CENTER,), ((0, 0),),
                               (0,), (0,))
        with pytest.raises(ValueError, match="distinct"):
            IncidenceStructure(((0.0, 0.0), (2.0, 0.0)), (self.CENTER,),
                               ((0, 1), (0, 1)), (0, 0), (1,))

    @pytest.mark.parametrize("point", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_rejects_non_finite_points(self, point):
        with pytest.raises(ValueError, match="non-finite"):
            IncidenceStructure((point,), (self.CENTER,), ((0, 1),), (0,), (1,))

    def test_rejects_non_finite_centres(self):
        with pytest.raises(ValueError, match="non-finite"):
            IncidenceStructure(((0.0, 0.0),), ((float("-inf"), 0.0),),
                               ((0, 1),), (0,), (1,))

    @pytest.mark.parametrize("label", [True, 1.0, "1"])
    def test_labels_are_integers(self, label):
        with pytest.raises(TypeError):
            IncidenceStructure(((0.0, 0.0),), (self.CENTER,), ((0, label),),
                               (0,), (label,))

    def test_edges_2e_7_too_long_are_not_faithful(self, faithful_drawing,
                                                  gp83_bipartition):
        # every distance 2e-7 too long: past the fixed edge tolerance 1e-9
        scaled = Drawing(faithful_drawing.graph,
                         tuple((x * (1 + 2e-7), y * (1 + 2e-7))
                               for x, y in faithful_drawing.positions))
        with pytest.raises(NotFaithfulError):
            build_point_circle(scaled, gp83_bipartition, "a")
