"""Rhombus and circular drawings."""

import math

import numpy as np
import pytest

from conftest import REFERENCE_6DP
from unitdist import layout
from unitdist.graph import Graph, generalized_petersen
from unitdist.layout import (Drawing, InfeasibleLayoutError, circular_layout,
                             circular_radii, rhombus_layout)
from unitdist.solver import DEFAULT_BOX, RhombusParams, _residuals

# D2 symmetries of the rhombus drawing, as vertex relabelings
X_REFLECTION = {0: 0, 4: 4, 8: 8, 12: 12, 1: 7, 7: 1, 2: 6, 6: 2, 3: 5, 5: 3,
                9: 15, 15: 9, 10: 14, 14: 10, 11: 13, 13: 11}
Y_REFLECTION = {0: 4, 4: 0, 2: 2, 6: 6, 1: 3, 3: 1, 5: 7, 7: 5, 8: 12, 12: 8,
                10: 10, 14: 14, 9: 11, 11: 9, 13: 15, 15: 13}
HALF_TURN = {v: (v + 4) % 8 if v < 8 else 8 + ((v - 8) + 4) % 8
             for v in range(16)}
# rhombus_layout(k, h, -q, -p) is rhombus_layout(h, k, p, q) reflected in
# y = x, vertex v going to DIAGONAL[v]
DIAGONAL = {v: (6 - v) % 8 if v < 8 else 8 + (6 - (v - 8)) % 8
            for v in range(16)}
# the edges on which d^2 - 1 is 0, f1/4, f2, f3 and f4, in that order
EDGE_EQUATIONS = (
    ((0, 8), (2, 10), (4, 12), (6, 14)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)),
    ((8, 11), (8, 13), (9, 12), (12, 15)),
    ((9, 14), (10, 13), (10, 15), (11, 14)),
    ((1, 9), (3, 11), (5, 13), (7, 15)),
)


def _is_automorphism(g, perm):
    images = ((perm[u], perm[v]) for u, v in g.edges)
    return all((min(a, b), max(a, b)) in g.edge_set for a, b in images)


class TestRhombusLayout:
    def test_anchor_vertices_at_reference_solution(self, faithful_drawing):
        h, k, p, q = REFERENCE_6DP
        pos = faithful_drawing.positions
        assert pos[0] == pytest.approx((0.0, k), abs=1e-5)
        assert pos[6] == pytest.approx((h, 0.0), abs=1e-5)
        assert pos[13] == pytest.approx((p, q), abs=1e-5)

    def test_graph_is_gp83(self, faithful_drawing):
        assert faithful_drawing.graph == generalized_petersen(8, 3)

    def test_vertex_9_is_negated_vertex_13(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = RhombusParams(*rng.uniform(-3, 3, 4).tolist())
            pos = rhombus_layout(params).positions
            assert pos[9][0] == -pos[13][0]
            assert pos[9][1] == -pos[13][1]

    def test_degenerate_parameters_still_give_a_drawing(self):
        pos = rhombus_layout(RhombusParams(2.0, 0.0, 0.0, 0.0)).positions
        assert pos[0] == (0.0, 0.0)
        assert pos[4] == (0.0, 0.0)  # coincident, but constructed

    def test_outer_vertices_on_the_rhombus(self, main_solution, faithful_drawing):
        h, k = main_solution.h, main_solution.k
        for v in range(8):
            x, y = faithful_drawing.positions[v]
            assert abs(abs(x) / h + abs(y) / k - 1.0) < 1e-12

    @pytest.mark.parametrize("relabel,reflect", [
        (X_REFLECTION, lambda x, y: (-x, y)),
        (Y_REFLECTION, lambda x, y: (x, -y)),
        (HALF_TURN, lambda x, y: (-x, -y)),
    ])
    def test_d2_symmetries(self, faithful_drawing, relabel, reflect):
        pos = faithful_drawing.positions
        for v in range(16):
            expected = reflect(*pos[v])
            assert pos[relabel[v]] == pytest.approx(expected, abs=1e-9)
        assert _is_automorphism(faithful_drawing.graph, relabel)

    def test_diagonal_mirror_is_the_parameter_map(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            h, k, p, q = rng.uniform(-3, 3, 4).tolist()
            pos = rhombus_layout(RhombusParams(h, k, p, q)).positions
            mirrored = rhombus_layout(RhombusParams(k, h, -q, -p)).positions
            for v in range(16):
                assert mirrored[DIAGONAL[v]] == (pos[v][1], pos[v][0])
        assert _is_automorphism(generalized_petersen(8, 3), DIAGONAL)

    def test_half_turn_relabeling_is_fixed_point_free(self):
        assert all(HALF_TURN[v] != v for v in range(16))

    def test_every_edge_equation_is_one_of_f1_to_f4(self):
        # the solver's docstring says symmetry gives every edge from its four
        # equations: check that at any parameters, not only at a root
        equation = {edge: i for i, edges in enumerate(EDGE_EQUATIONS)
                    for edge in edges}
        assert sorted(equation) == list(generalized_petersen(8, 3).edges)
        worst = 0.0
        rng = np.random.default_rng(2029)
        for row in rng.uniform(*DEFAULT_BOX, (2000, 4)).tolist():
            f1, f2, f3, f4 = _residuals(*row)
            want = (0.0, f1 / 4.0, f2, f3, f4)
            pos = rhombus_layout(RhombusParams(*row)).positions
            for (u, v), i in equation.items():
                dx, dy = pos[u][0] - pos[v][0], pos[u][1] - pos[v][1]
                worst = max(worst, abs(dx * dx + dy * dy - 1.0 - want[i]))
        assert worst <= 1e-12


class TestCircularLayout:
    def test_radii_and_rotation_closed_form(self):
        # R^2 + r^2 = 2 and 2 R r = sqrt(2), so the rotation angle is pi/4
        big_r, small_r = circular_radii(8, 3)
        assert abs(big_r - 1.0 / (2.0 * math.sin(math.pi / 8))) < 1e-15
        assert abs(small_r - 1.0 / (2.0 * math.sin(3 * math.pi / 8))) < 1e-15
        assert abs(big_r ** 2 + small_r ** 2 - 2.0) < 1e-12
        assert abs(2.0 * big_r * small_r - math.sqrt(2.0)) < 1e-12
        alpha = math.acos((big_r ** 2 + small_r ** 2 - 1.0) / (2.0 * big_r * small_r))
        assert abs(alpha - math.pi / 4) < 1e-12

    def test_all_edges_unit(self):
        d = circular_layout(8, 3)
        for u, v in d.graph.edges:
            assert abs(math.dist(d.positions[u], d.positions[v]) - 1.0) < 1e-12

    def test_vertex_0_at_top(self):
        d = circular_layout(8, 3)
        big_r, _ = circular_radii(8, 3)
        assert d.positions[0] == pytest.approx((0.0, big_r), abs=1e-12)

    def test_default_sign_collides_0_and_10(self):
        d = circular_layout(8, 3)
        assert abs(math.dist(d.positions[0], d.positions[10]) - 1.0) < 1e-12

    def test_positive_sign_collides_0_and_14(self):
        d = circular_layout(8, 3, rotation_sign=1)
        assert abs(math.dist(d.positions[0], d.positions[14]) - 1.0) < 1e-12
        assert abs(math.dist(d.positions[0], d.positions[10]) - math.sqrt(3.0)) < 1e-9

    @pytest.mark.parametrize("n,s", [(4, 1), (6, 1), (5, 2), (10, 3)])
    def test_feasible_cases_are_unit_distance(self, n, s):
        d = circular_layout(n, s)
        for u, v in d.graph.edges:
            assert abs(math.dist(d.positions[u], d.positions[v]) - 1.0) < 1e-12

    def test_infeasible_case_raises(self):
        # GP(12,5): R - r > 1, no real rotation angle
        with pytest.raises(InfeasibleLayoutError):
            circular_layout(12, 5)

    def test_infeasible_case_builds_no_graph(self, monkeypatch):
        calls = []
        monkeypatch.setattr(layout, "generalized_petersen",
                            lambda n, s: calls.append((n, s)))
        with pytest.raises(InfeasibleLayoutError):
            circular_layout(12, 5)
        assert calls == []

    @pytest.mark.parametrize("n,s,message", [
        (2, 1, "GP(n, s) needs n >= 3, got n=2"),
        (8, 0, "GP(n, s) needs 1 <= s < n/2, got n=8, s=0"),
        (8, 4, "GP(n, s) needs 1 <= s < n/2, got n=8, s=4"),
    ])
    def test_invalid_n_s_raise_generalized_petersens_error(self, n, s, message):
        # checked before the radii, where s = 0 would divide by zero
        for build in (generalized_petersen, circular_layout):
            with pytest.raises(ValueError) as info:
                build(n, s)
            assert type(info.value) is ValueError
            assert str(info.value) == message

    def test_rejects_bad_rotation_sign(self):
        with pytest.raises(ValueError):
            circular_layout(8, 3, rotation_sign=0)


class TestDrawingType:
    def test_position_count_must_match(self):
        with pytest.raises(ValueError, match="positions"):
            Drawing(generalized_petersen(8, 3), ((0.0, 0.0),))

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="non-finite"):
            Drawing(Graph(1, ()), ((float("nan"), 0.0),))

    def test_json_round_trip(self, faithful_drawing):
        data = faithful_drawing.to_json_dict()
        assert Drawing.from_json_dict(data) == faithful_drawing
