"""Faithful unit-distance plane embeddings of GP(8,3).

The package builds the Mobius-Kantor graph GP(8,3), solves the quadratic
system that pins its rhombus-shaped unit-distance drawing, certifies that
the drawing is faithful (adjacent iff at distance exactly 1), and derives
the two dual isometric point-circle (8_3) configurations, with JSON and
SVG emitters for every stage.
"""

__version__ = "0.1.0"

from .configuration import (ConfigurationCheck, IncidenceStructure,
                            NotFaithfulError, build_point_circle, dual,
                            levi_drawing, validate_configuration)
from .graph import (Bipartition, Graph, NotBipartiteError, automorphism_count,
                    bipartition, generalized_petersen)
from .layout import (Drawing, InfeasibleLayoutError, circular_layout,
                     circular_radii, rhombus_layout)
from .render import render_configuration, render_drawing
from .solver import (NoConvergence, RhombusParams, SingularJacobian,
                     SolverError, enumerate_solutions, newton_solve)
from .verifier import (Degeneracy, FaithfulnessReport,
                       point_on_segment_interior, segments_overlap, verify)

__all__ = [
    "Bipartition", "ConfigurationCheck", "Degeneracy", "Drawing",
    "FaithfulnessReport", "Graph", "IncidenceStructure",
    "InfeasibleLayoutError", "NoConvergence", "NotBipartiteError",
    "NotFaithfulError", "RhombusParams",
    "SingularJacobian", "SolverError", "automorphism_count", "bipartition",
    "build_point_circle", "circular_layout", "circular_radii", "dual",
    "enumerate_solutions", "generalized_petersen", "levi_drawing",
    "newton_solve", "point_on_segment_interior", "render_configuration",
    "render_drawing", "rhombus_layout", "segments_overlap",
    "validate_configuration", "verify",
]
