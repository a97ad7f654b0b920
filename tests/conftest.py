"""Shared fixtures and frozen reference values.

The two solution constants below were established independently of the
package: lexicographic Groebner elimination of the quadratic system yields
q^2 * (288 q^6 + 864 q^5 + 1512 q^4 + 2400 q^3 + 2205 q^2 + 600 q - 125)
as the eliminant, whose only nonzero real roots are q ~ 0.133029 and
q ~ -0.857420; back-substitution at 60-digit precision gives the values
here, rounded to float64.  The geometric constants follow by direct
evaluation of the drawing at those roots.

The helpers below are oracles that only the tests need: the Jacobian of the
four residuals, and the y = x mirror of a root; and a fresh interpreter, for
what a test process that has imported numpy already cannot show.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unitdist
from unitdist.graph import bipartition, generalized_petersen
from unitdist.layout import RhombusParams, rhombus_layout
from unitdist.solver import enumerate_solutions

KNOWN_SOLUTION = (1.133692560712488, 1.6476471642269659,
                  0.8574195636268543, 0.13302915841106489)
REFLECTED_SOLUTION = (1.6476471642269659, 1.133692560712488,
                      -0.13302915841106489, -0.8574195636268543)

# 6-decimal reference values quoted in the acceptance criteria
REFERENCE_6DP = (1.133693, 1.647647, 0.857420, 0.133029)

# frozen regression constants of the faithful drawing (unit-edge units)
MIN_NONEDGE_GAP = 0.06924361979757983
MIN_NONEDGE_GAP_ORBIT = ((1, 10), (3, 10), (5, 14), (7, 14))
MIN_VERTEX_SEPARATION = 0.26605831682212978

# FaithfulnessReport's fields in declared order, the key order of its JSON
REPORT_FIELDS = ("is_unit_distance", "is_faithful", "max_edge_residual",
                 "max_edge_residual_witness", "min_nonedge_gap",
                 "min_nonedge_gap_witness", "min_vertex_separation",
                 "min_vertex_separation_witness", "degeneracies", "edge_tol",
                 "gap_threshold", "n_edges", "n_nonadjacent_pairs")


def jacobian(params: RhombusParams) -> np.ndarray:
    """4x4 matrix of partial derivatives d f_i / d (h, k, p, q)."""
    h, k, p, q = params.as_tuple()
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    return np.array([[2.0 * h, 2.0 * k, 0.0, 0.0],
                     [0.0, -2.0 * a, 2.0 * p, 2.0 * a],
                     [2.0 * b, 0.0, 2.0 * b, 2.0 * q],
                     [-c, d, 2.0 * c, 2.0 * d]])


def is_mirror(a: RhombusParams, b: RhombusParams) -> bool:
    """True iff b is within 1e-9 of (a.k, a.h, -a.q, -a.p), per parameter.

    That map reflects rhombus_layout(a) in the line y = x, vertex for
    vertex; tests/test_layout.py checks so on random parameters.
    """
    mirror = (a.k, a.h, -a.q, -a.p)
    return all(abs(x - y) <= 1e-9 for x, y in zip(b.as_tuple(), mirror))


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """python -c code args, importing the unitdist that the tests import."""
    src = str(Path(unitdist.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="session")
def solutions():
    """Both non-degenerate roots via a moderate multistart sweep."""
    found = enumerate_solutions(seed_count=2000, rng_seed=7)
    assert len(found) == 2
    return found


@pytest.fixture(scope="session")
def main_solution(solutions):
    """The root with h < k (first in lexicographic order)."""
    return solutions[0]


@pytest.fixture(scope="session")
def faithful_drawing(main_solution):
    return rhombus_layout(main_solution)


@pytest.fixture(scope="session")
def gp83():
    return generalized_petersen(8, 3)


@pytest.fixture(scope="session")
def gp83_bipartition(gp83):
    return bipartition(gp83)
