"""Deterministic SVG rendering of drawings and point-circle structures.

Output is a small SVG 1.1 subset (line, circle, text).  Coordinates are
written with a fixed 6-decimal format and elements in a fixed order
(edges, then vertices, then labels), so identical inputs give
byte-identical documents.  The y axis is flipped: SVG y grows downward,
drawings keep the usual mathematical orientation.
"""

from __future__ import annotations

import math

from .configuration import IncidenceStructure
from .layout import Drawing

_SCALE = 120.0                   # pixels per unit length
_MARGIN = 40.0                   # pixels around the bounding box
_VERTEX_RADIUS = 4.0             # pixels
_STROKE_WIDTH = 1.5              # edges and rings
_FONT_SIZE = 11.0
_EDGE_COLOR = "#37474f"
_VERTEX_COLOR = "#c62828"
_CIRCLE_COLOR = "#1565c0"
_LABEL_COLOR = "#212121"


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


class _Canvas:
    """Maps math coordinates to SVG pixels (y flipped) and collects elements.

    Every pixel coordinate lies within the width and height, so a canvas
    whose extent overflows a float is rejected with ValueError.
    """

    def __init__(self, xs, ys, pad_units: float):
        if xs:
            self.xmin, xmax = min(xs) - pad_units, max(xs) + pad_units
            self.ymin, ymax = min(ys) - pad_units, max(ys) + pad_units
        else:
            self.xmin = xmax = self.ymin = ymax = 0.0
        self.width = (xmax - self.xmin) * _SCALE + 2 * _MARGIN
        self.height = (ymax - self.ymin) * _SCALE + 2 * _MARGIN
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError(f"pixel extent {self.width:g} x {self.height:g} "
                             "overflows a float")
        self.ymax = ymax
        self.body: list[str] = []

    def to_px(self, pt) -> tuple[float, float]:
        return ((pt[0] - self.xmin) * _SCALE + _MARGIN,
                (self.ymax - pt[1]) * _SCALE + _MARGIN)

    def line(self, a, b) -> None:
        (x1, y1), (x2, y2) = self.to_px(a), self.to_px(b)
        self.body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{_EDGE_COLOR}" '
            f'stroke-width="{_fmt(_STROKE_WIDTH)}" />')

    def disc(self, center) -> None:
        cx, cy = self.to_px(center)
        self.body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_VERTEX_RADIUS)}" '
            f'fill="{_VERTEX_COLOR}" />')

    def ring(self, center) -> None:
        """A unit circle, whose radius in pixels is the scale."""
        cx, cy = self.to_px(center)
        self.body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_SCALE)}" '
            f'fill="none" stroke="{_CIRCLE_COLOR}" '
            f'stroke-width="{_fmt(_STROKE_WIDTH)}" />')

    def label(self, center, text: str) -> None:
        cx, cy = self.to_px(center)
        offset = _VERTEX_RADIUS + 3.0
        self.body.append(
            f'<text x="{_fmt(cx + offset)}" y="{_fmt(cy - offset)}" '
            f'fill="{_LABEL_COLOR}" font-size="{_fmt(_FONT_SIZE)}" '
            f'font-family="sans-serif">{text}</text>')

    def document(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">')
        return "\n".join([head, *self.body, "</svg>"]) + "\n"


def render_drawing(d: Drawing) -> str:
    """SVG for a drawing: edges as lines, vertices as labelled discs."""
    xs = [p[0] for p in d.positions]
    ys = [p[1] for p in d.positions]
    canvas = _Canvas(xs, ys, 0.0)
    for u, v in d.graph.edges:  # already sorted
        canvas.line(d.positions[u], d.positions[v])
    for v in range(d.graph.n_vertices):
        canvas.disc(d.positions[v])
    for v in range(d.graph.n_vertices):
        canvas.label(d.positions[v], str(v))
    return canvas.document()


def render_configuration(s: IncidenceStructure) -> str:
    """SVG for a point-circle structure: unit rings, point discs and labels."""
    xs = [p[0] for p in s.points + s.centers]
    ys = [p[1] for p in s.points + s.centers]
    # pad by the unit radius so rings stay inside the canvas
    canvas = _Canvas(xs, ys, 1.0 if s.centers else 0.0)
    for center in s.centers:
        canvas.ring(center)
    for pt in s.points:
        canvas.disc(pt)
    for center, label in zip(s.centers, s.circle_labels):
        canvas.label(center, str(label))
    for pt, label in zip(s.points, s.point_labels):
        canvas.label(pt, str(label))
    return canvas.document()
