"""SVG rendering: element counts, determinism, formatting, exact bytes."""

import re
import xml.etree.ElementTree as ET

import pytest

from unitdist.configuration import IncidenceStructure, build_point_circle, dual
from unitdist.graph import Graph
from unitdist.layout import Drawing
from unitdist.render import render_configuration, render_drawing

SVG_NS = "{http://www.w3.org/2000/svg}"


def _elements(svg_text, tag):
    return ET.fromstring(svg_text).findall(f"{SVG_NS}{tag}")


def _discs(svg_text):
    return [c for c in _elements(svg_text, "circle") if c.get("fill") != "none"]


def _rings(svg_text):
    return [c for c in _elements(svg_text, "circle") if c.get("fill") == "none"]


@pytest.fixture(scope="module")
def structure(faithful_drawing, gp83_bipartition):
    return build_point_circle(faithful_drawing, gp83_bipartition, "a")


class TestRenderDrawing:
    def test_element_counts(self, faithful_drawing):
        svg = render_drawing(faithful_drawing)
        assert len(_elements(svg, "line")) == 24
        assert len(_discs(svg)) == 16
        assert len(_rings(svg)) == 0

    def test_labels_toggle(self, faithful_drawing):
        labeled = render_drawing(faithful_drawing)
        assert len(_elements(labeled, "text")) == 16

    def test_byte_identical_across_calls(self, faithful_drawing):
        assert render_drawing(faithful_drawing) == render_drawing(faithful_drawing)

    def test_empty_graph(self):
        svg = render_drawing(Drawing(Graph(0, ()), ()))
        assert len(_elements(svg, "line")) == 0
        assert len(_elements(svg, "circle")) == 0
        ET.fromstring(svg)  # well-formed

    def test_y_axis_flipped(self, faithful_drawing):
        # vertex 0 has the largest y, so its disc must have the smallest cy
        svg = render_drawing(faithful_drawing)
        discs = _discs(svg)
        cys = [float(c.get("cy")) for c in discs]
        top_vertex = max(range(16),
                         key=lambda v: faithful_drawing.positions[v][1])
        assert cys[top_vertex] == min(cys)

    def test_fixed_six_decimal_coordinates(self, faithful_drawing):
        svg = render_drawing(faithful_drawing)
        for attr in re.findall(r'(?:x1|y1|x2|y2|cx|cy|r)="([^"]+)"', svg):
            assert re.fullmatch(r"-?\d+\.\d{6}", attr), attr


class TestRenderConfiguration:
    def test_element_counts(self, structure):
        svg = render_configuration(structure)
        assert len(_rings(svg)) == 8
        assert len(_discs(svg)) == 8

    def test_labels_cover_points_and_circles(self, structure):
        svg = render_configuration(structure)
        texts = [t.text for t in _elements(svg, "text")]
        assert len(texts) == 16
        assert set(texts) == {str(v) for v in range(16)}

    def test_dual_structure_has_same_counts(self, structure):
        svg = render_configuration(dual(structure))
        assert len(_rings(svg)) == 8
        assert len(_discs(svg)) == 8

    def test_byte_identical_across_calls(self, structure):
        assert render_configuration(structure) == render_configuration(structure)

    def test_ring_radius_is_scale(self, structure):
        svg = render_configuration(structure)
        assert all(float(ring.get("r")) == 120.0 for ring in _rings(svg))

    def test_well_formed(self, structure):
        ET.fromstring(render_configuration(structure))


_TEXT = 'fill="#212121" font-size="11.000000" font-family="sans-serif"'
_DISC = 'r="4.000000" fill="#c62828" />'


def _head(width, height):
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')


@pytest.mark.parametrize("render, shape, golden", [
    (render_drawing, Drawing(Graph(2, ((0, 1),)), ((0.0, 0.0), (1.0, 0.0))), [
        _head("200.000000", "80.000000"),
        '<line x1="40.000000" y1="40.000000" x2="160.000000" y2="40.000000" '
        'stroke="#37474f" stroke-width="1.500000" />',
        f'<circle cx="40.000000" cy="40.000000" {_DISC}',
        f'<circle cx="160.000000" cy="40.000000" {_DISC}',
        f'<text x="47.000000" y="33.000000" {_TEXT}>0</text>',
        f'<text x="167.000000" y="33.000000" {_TEXT}>1</text>']),
    (render_configuration, IncidenceStructure(
        ((0.0, 1.0),), ((0.0, 0.0),), ((0, 1),), (0,), (1,)), [
        _head("320.000000", "440.000000"),
        '<circle cx="160.000000" cy="280.000000" r="120.000000" fill="none" '
        'stroke="#1565c0" stroke-width="1.500000" />',
        f'<circle cx="160.000000" cy="160.000000" {_DISC}',
        f'<text x="167.000000" y="273.000000" {_TEXT}>1</text>',
        f'<text x="167.000000" y="153.000000" {_TEXT}>0</text>']),
    # no circles, so no unit pad around the points
    (render_configuration, IncidenceStructure(
        ((0.5, -0.25), (-1.0, 2.0)), (), (), (3, 5), ()), [
        _head("260.000000", "350.000000"),
        f'<circle cx="220.000000" cy="310.000000" {_DISC}',
        f'<circle cx="40.000000" cy="40.000000" {_DISC}',
        f'<text x="227.000000" y="303.000000" {_TEXT}>3</text>',
        f'<text x="47.000000" y="33.000000" {_TEXT}>5</text>']),
], ids=["edge", "point-on-circle", "no-circles"])
def test_golden_bytes(render, shape, golden):
    assert render(shape) == "\n".join([*golden, "</svg>"]) + "\n"
