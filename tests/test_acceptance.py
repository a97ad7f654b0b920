"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print;
each test also fails loudly with the offending measurements.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import MIN_NONEDGE_GAP, REFERENCE_6DP, is_mirror, jacobian
from unitdist.cli import main
from unitdist.configuration import build_point_circle, validate_configuration
from unitdist.graph import automorphism_count, bipartition, generalized_petersen
from unitdist.layout import Drawing, circular_layout, circular_radii, rhombus_layout
from unitdist.solver import (RhombusParams, _residuals, enumerate_solutions,
                             solution_to_json_dict)
from unitdist.verifier import verify

SEED_COUNT = 10_000
RNG_SEED = 0


@pytest.fixture(scope="module")
def sweep():
    """The full multistart run shared by the solver criteria."""
    start = time.perf_counter()
    found = enumerate_solutions(seed_count=SEED_COUNT, rng_seed=RNG_SEED)
    elapsed = time.perf_counter() - start
    return found, elapsed


def _conclude(number, description, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} criterion {number:2d}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_solution_reproduction(sweep):
    found, elapsed = sweep
    failures = []
    best = min((max(abs(a - b) for a, b in zip(s.as_tuple(), REFERENCE_6DP))
                for s in found), default=math.inf)
    if best >= 1e-5:
        failures.append(f"no root within 1e-5 of reference (best {best:.2e})")
    if elapsed >= 5.0:
        failures.append(f"sweep took {elapsed:.2f}s, budget 5s")
    _conclude(1, f"reference root reproduced from {SEED_COUNT} seeds "
                 f"in {elapsed:.2f}s", failures)


def test_criterion_02_solution_count_and_reflection(sweep):
    found, _ = sweep
    failures = []
    if len(found) != 2:
        failures.append(f"expected 2 non-degenerate roots, got {len(found)}")
    if len(found) == 2 and not is_mirror(found[0], found[1]):
        failures.append("the two roots are not mirror images in y = x")
    _conclude(2, "exactly two non-degenerate roots, mirror-related", failures)


def test_criterion_03_residual_certificate(sweep):
    found, _ = sweep
    failures = []
    for s in found:
        res = solution_to_json_dict(s)["residual_max"]
        if res >= 1e-10:
            failures.append(f"residual {res:.2e} at {s}")
        if abs(s.h ** 2 + s.k ** 2 - 4.0) >= 1e-10:
            failures.append(f"h^2+k^2-4 = {s.h**2 + s.k**2 - 4.0:.2e}")
    _conclude(3, "all four residuals below 1e-10 at the converged roots",
              failures)


def test_criterion_04_faithfulness_certificate(sweep):
    found, _ = sweep
    drawing = rhombus_layout(found[0])
    pos = drawing.positions
    edge_set = drawing.graph.edge_set
    failures = []
    # exhaustive oracle over all 120 pairs, independent of the verifier
    edge_residuals, gaps = [], []
    for i, j in combinations(range(16), 2):
        value = abs(math.dist(pos[i], pos[j]) - 1.0)
        (edge_residuals if (i, j) in edge_set else gaps).append(value)
    if len(edge_residuals) != 24 or len(gaps) != 96:
        failures.append("pair partition is not 24 + 96")
    if max(edge_residuals) >= 1e-9:
        failures.append(f"worst edge residual {max(edge_residuals):.2e}")
    if min(gaps) <= 0.01:
        failures.append(f"minimal non-edge gap {min(gaps):.4f} <= 0.01")
    if abs(min(gaps) - MIN_NONEDGE_GAP) >= 1e-9:
        failures.append(f"min gap {min(gaps)!r} drifted from frozen "
                        f"{MIN_NONEDGE_GAP!r}")
    report = verify(drawing)
    if not report.is_faithful:
        failures.append("verifier does not certify the drawing as faithful")
    _conclude(4, "faithful: 24 unit edges, 96 gaps above 0.01, frozen margin "
                 f"{MIN_NONEDGE_GAP:.6f}", failures)


def test_criterion_05_non_faithful_baseline():
    drawing = circular_layout(8, 3)
    pos = drawing.positions
    failures = []
    worst_edge = max(abs(math.dist(pos[u], pos[v]) - 1.0)
                     for u, v in drawing.graph.edges)
    if worst_edge >= 1e-12:
        failures.append(f"circular edge residual {worst_edge:.2e}")
    witness_gap = abs(math.dist(pos[0], pos[10]) - 1.0)
    if witness_gap >= 1e-12:
        failures.append(f"pair (0,10) gap {witness_gap:.2e}")
    report = verify(drawing)
    if not report.is_unit_distance or report.is_faithful:
        failures.append("verifier verdict wrong for the circular drawing")
    if report.min_nonedge_gap_witness != (0, 10):
        failures.append(f"witness {report.min_nonedge_gap_witness} != (0, 10)")
    big_r, small_r = circular_radii(8, 3)
    alpha = math.acos((big_r ** 2 + small_r ** 2 - 1.0)
                      / (2.0 * big_r * small_r))
    if abs(alpha - math.pi / 4) >= 1e-12:
        failures.append(f"rotation angle {alpha!r} is not pi/4")
    _conclude(5, "circular drawing is unit-distance, not faithful, "
                 "witness (0,10), rotation pi/4", failures)


def test_criterion_06_automorphism_counts():
    failures = []
    start = time.perf_counter()
    order83 = automorphism_count(generalized_petersen(8, 3))
    elapsed = time.perf_counter() - start
    if order83 != 96:
        failures.append(f"GP(8,3) automorphisms {order83} != 96")
    if elapsed >= 1.0:
        failures.append(f"count took {elapsed:.2f}s, budget 1s")
    order52 = automorphism_count(generalized_petersen(5, 2))
    if order52 != 120:
        failures.append(f"GP(5,2) automorphisms {order52} != 120")
    _conclude(6, f"automorphism orders 96 and 120 (GP(8,3) in {elapsed:.3f}s)",
              failures)


def test_criterion_07_configuration_validity(sweep):
    found, _ = sweep
    drawing = rhombus_layout(found[0])
    bp = bipartition(drawing.graph)
    failures = []
    structure_a = build_point_circle(drawing, bp, "a")
    structure_b = build_point_circle(drawing, bp, "b")
    pairs_a, pairs_b = set(structure_a.incidence), set(structure_b.incidence)
    for name, s, pairs in (("a", structure_a, pairs_a), ("b", structure_b, pairs_b)):
        if validate_configuration(s).signature != (8, 8, 3, 3):
            failures.append(f"centers {name} does not validate as (8,8,3,3)")
        for pv in s.point_labels:
            for cv in s.circle_labels:
                if ((pv, cv) in pairs) != ((min(pv, cv), max(pv, cv))
                                                in drawing.graph.edge_set):
                    failures.append(f"incidence/adjacency mismatch at "
                                    f"({pv},{cv}) in centers {name}")
    for i in range(8):
        for j in range(8):
            a_ij = (structure_a.point_labels[i], structure_a.circle_labels[j]) in pairs_a
            b_ji = (structure_b.point_labels[j], structure_b.circle_labels[i]) in pairs_b
            if a_ij != b_ji:
                failures.append(f"duality transpose fails at ({i},{j})")
    _conclude(7, "both point-circle structures are dual (8_3) configurations",
              failures)


def test_criterion_08_symmetry_suite(sweep):
    found, _ = sweep
    pos = rhombus_layout(found[0]).positions
    x_refl = {0: 0, 4: 4, 8: 8, 12: 12, 1: 7, 7: 1, 2: 6, 6: 2, 3: 5, 5: 3,
              9: 15, 15: 9, 10: 14, 14: 10, 11: 13, 13: 11}
    y_refl = {0: 4, 4: 0, 2: 2, 6: 6, 1: 3, 3: 1, 5: 7, 7: 5, 8: 12, 12: 8,
              10: 10, 14: 14, 9: 11, 11: 9, 13: 15, 15: 13}
    half_turn = {v: (v + 4) % 8 if v < 8 else 8 + ((v - 8) + 4) % 8
                 for v in range(16)}
    failures = []
    cases = [("x-reflection", x_refl, lambda x, y: (-x, y)),
             ("y-reflection", y_refl, lambda x, y: (x, -y)),
             ("half-turn", half_turn, lambda x, y: (-x, -y))]
    for name, relabel, motion in cases:
        worst = max(math.dist(pos[relabel[v]], motion(*pos[v]))
                    for v in range(16))
        if worst >= 1e-9:
            failures.append(f"{name} breaks by {worst:.2e}")
    if any(half_turn[v] == v for v in range(16)):
        failures.append("half-turn relabeling has a fixed point")
    _conclude(8, "D2 reflections and fixed-point-free half-turn hold to 1e-9",
              failures)


def test_criterion_09_numerical_hygiene(sweep):
    failures = []
    rng = np.random.default_rng(17)
    worst_jac = 0.0
    dx = 1e-6
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, 4)
        jac = jacobian(RhombusParams(*x.tolist()))
        for col in range(4):
            step = np.zeros(4)
            step[col] = dx
            plus = _residuals(*(x + step).tolist())
            minus = _residuals(*(x - step).tolist())
            fd = (np.array(plus) - np.array(minus)) / (2.0 * dx)
            worst_jac = max(worst_jac, float(np.abs(jac[:, col] - fd).max()))
    if worst_jac >= 1e-5:
        failures.append(f"jacobian vs finite differences: {worst_jac:.2e}")

    found, _ = sweep
    drawing = rhombus_layout(found[0])
    base = verify(drawing)
    worst_real = 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-5.0, 5.0, 2)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        moved = tuple((cos_t * x - sin_t * y + shift[0],
                       sin_t * x + cos_t * y + shift[1])
                      for x, y in drawing.positions)
        report = verify(Drawing(drawing.graph, moved))
        if (report.is_faithful, report.is_unit_distance) != \
                (base.is_faithful, base.is_unit_distance):
            failures.append("boolean verdict changed under a rigid motion")
            break
        worst_real = max(
            worst_real,
            abs(report.max_edge_residual - base.max_edge_residual),
            abs(report.min_nonedge_gap - base.min_nonedge_gap),
            abs(report.min_vertex_separation - base.min_vertex_separation))
    if worst_real >= 1e-9:
        failures.append(f"report reals moved by {worst_real:.2e} under "
                        "rigid motions")
    _conclude(9, f"jacobian FD error {worst_jac:.1e}; rigid-motion drift "
                 f"{worst_real:.1e}", failures)


def test_criterion_10_pipeline_determinism(tmp_path):
    dir_one = tmp_path / "run1"
    dir_two = tmp_path / "run2"
    failures = []
    for out in (dir_one, dir_two):
        code = main(["all", "--out-dir", str(out)])
        if code != 0:
            failures.append(f"pipeline exited {code}")
    artifacts = sorted(p.name for p in dir_one.iterdir())
    if len(artifacts) != 11:
        failures.append(f"expected 11 artifacts, found {len(artifacts)}")
    for name in artifacts:
        if (dir_one / name).read_bytes() != (dir_two / name).read_bytes():
            failures.append(f"{name} differs between runs")
    _conclude(10, f"two default pipeline runs byte-identical "
                  f"({len(artifacts)} artifacts)", failures)
