"""Deterministic SVG rendering of drawings and point-circle structures.

Output is a small SVG 1.1 subset (line, circle, text).  Coordinates are
written with a fixed 6-decimal format and elements in a fixed order
(lines, then rings, then discs, then labels), so identical inputs give
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


def _svg(frame, pad: float, lines, rings, discs, labels) -> str:
    """The document framing the points `frame`, widened by `pad` units.

    It draws `lines` (point pairs), `rings` (unit circles about points),
    `discs` (points) and `labels` ((point, text) pairs), in that order.
    Every pixel coordinate lies within the width and height, so a frame
    whose pixel extent overflows a float is rejected with ValueError.
    """
    xmin = xmax = ymin = ymax = 0.0
    if frame:
        xs, ys = [p[0] for p in frame], [p[1] for p in frame]
        xmin, xmax = min(xs) - pad, max(xs) + pad
        ymin, ymax = min(ys) - pad, max(ys) + pad
    width = (xmax - xmin) * _SCALE + 2 * _MARGIN
    height = (ymax - ymin) * _SCALE + 2 * _MARGIN
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"pixel extent {width:g} x {height:g} overflows a float")

    def px(pt) -> tuple[float, float]:
        return ((pt[0] - xmin) * _SCALE + _MARGIN,
                (ymax - pt[1]) * _SCALE + _MARGIN)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(width)}" height="{_fmt(height)}" '
           f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">']
    stroke_width = f'stroke-width="{_fmt(_STROKE_WIDTH)}"'
    for a, b in lines:
        (x1, y1), (x2, y2) = px(a), px(b)
        out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                   f'y2="{_fmt(y2)}" stroke="{_EDGE_COLOR}" {stroke_width} />')
    for center in rings:  # a unit circle's radius in pixels is the scale
        cx, cy = px(center)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_SCALE)}" '
                   f'fill="none" stroke="{_CIRCLE_COLOR}" {stroke_width} />')
    for center in discs:
        cx, cy = px(center)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                   f'r="{_fmt(_VERTEX_RADIUS)}" fill="{_VERTEX_COLOR}" />')
    offset = _VERTEX_RADIUS + 3.0
    for center, text in labels:
        cx, cy = px(center)
        out.append(f'<text x="{_fmt(cx + offset)}" y="{_fmt(cy - offset)}" '
                   f'fill="{_LABEL_COLOR}" font-size="{_fmt(_FONT_SIZE)}" '
                   f'font-family="sans-serif">{text}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_drawing(d: Drawing) -> str:
    """SVG for a drawing: edges as lines, vertices as labelled discs."""
    pos = d.positions  # one per vertex, edges already sorted
    return _svg(pos, 0.0, [(pos[u], pos[v]) for u, v in d.graph.edges], [],
                pos, [(p, str(v)) for v, p in enumerate(pos)])


def render_configuration(s: IncidenceStructure) -> str:
    """SVG for a point-circle structure: unit rings, point discs and labels."""
    labels = [*zip(s.centers, map(str, s.circle_labels)),
              *zip(s.points, map(str, s.point_labels))]
    # pad by the unit radius so rings stay inside the canvas
    return _svg(s.points + s.centers, 1.0 if s.centers else 0.0, [], s.centers,
                s.points, labels)
