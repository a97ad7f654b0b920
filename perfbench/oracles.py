"""Correctness oracles that do not come from the code under test.

Every check returns a list of failure messages; an empty list means the
output is correct.  A mismatch is counted by the harness as a failed
operation, never raised, so one bad output cannot end a run.

Reference values:

- The two roots come from lexicographic Groebner elimination of the
  quadratic system, whose eliminant is
  q^2 * (288 q^6 + 864 q^5 + 1512 q^4 + 2400 q^3 + 2205 q^2 + 600 q - 125),
  back-substituted at 60-digit precision and rounded to float64.  They are
  the values frozen in the repository's test fixtures.
- The minimal non-edge gap of the faithful drawing is the frozen constant
  of the same fixtures.
- Automorphism orders of GP(n, s) follow Frucht, Graver and Watkins (1971):
  4n when s^2 = +-1 (mod n), else 2n, except for the seven symmetric
  graphs listed in FGW_EXCEPTIONS.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

KNOWN_SOLUTION = (1.133692560712488, 1.6476471642269659,
                  0.8574195636268543, 0.13302915841106489)
REFLECTED_SOLUTION = (1.6476471642269659, 1.133692560712488,
                      -0.13302915841106489, -0.8574195636268543)
ROOT_TOL = 1e-9

MIN_NONEDGE_GAP = 0.06924361979757983
GAP_TOL = 1e-9

# residual max-norm a converged Newton iterate must meet when re-evaluated
# here; the solver stops at 1e-12, the slack covers rounding differences
# between this plain-float evaluation and the solver's numpy one
CONVERGED_RESIDUAL = 1e-11

FGW_EXCEPTIONS = {(4, 1): 48, (5, 2): 120, (8, 3): 96, (10, 2): 120,
                  (10, 3): 240, (12, 5): 144, (24, 5): 288}

ALL_ARTIFACTS = ("circular.json", "circular.svg", "circular_report.json",
                 "config_centers_a.json", "config_centers_a.svg",
                 "config_centers_b.json", "config_centers_b.svg",
                 "drawing.json", "drawing.svg", "drawing_report.json",
                 "solutions.json")


def residual_max(x) -> float:
    """Max-norm of the four embedding equations, in plain floats."""
    h, k, p, q = x
    return max(abs(h * h + k * k - 4.0),
               abs(p * p + (q - k + 1.0) ** 2 - 1.0),
               abs(q * q + (p + h - 1.0) ** 2 - 1.0),
               abs((p - 0.5 * h) ** 2 + (q + 0.5 * k) ** 2 - 1.0))


def is_known_root(x, tol: float = ROOT_TOL) -> bool:
    return any(max(abs(a - b) for a, b in zip(x, ref)) <= tol
               for ref in (KNOWN_SOLUTION, REFLECTED_SOLUTION))


def fgw_automorphism_order(n: int, s: int) -> int:
    if (n, s) in FGW_EXCEPTIONS:
        return FGW_EXCEPTIONS[(n, s)]
    return 4 * n if (s * s) % n in (1, n - 1) else 2 * n


def expect_bipartite(n: int, s: int) -> bool:
    return n % 2 == 0 and s % 2 == 1


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_solutions(entries) -> list[str]:
    """solutions.json holds exactly the two certified roots, in order."""
    if not isinstance(entries, list) or len(entries) != 2:
        count = len(entries) if isinstance(entries, list) else "no list of"
        return [f"solutions: expected exactly 2 roots, got {count}"]
    failures = []
    for entry, ref in zip(entries, (KNOWN_SOLUTION, REFLECTED_SOLUTION)):
        x = tuple(entry[key] for key in "hkpq")
        err = max(abs(a - b) for a, b in zip(x, ref))
        if not err <= ROOT_TOL:
            failures.append(f"solutions: root {x} is {err:.3e} from {ref}")
    return failures


class _Unreadable(Exception):
    pass


def _load(out_dir: Path, name: str):
    try:
        return json.loads((out_dir / name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _Unreadable(f"{name}: {exc}") from None


def check_all_artifacts(out_dir: Path) -> list[str]:
    """The 11 files of `unitdist all` exist and agree with the oracles."""
    names = tuple(sorted(p.name for p in out_dir.iterdir()))
    if names != ALL_ARTIFACTS:
        return [f"artifacts: expected {ALL_ARTIFACTS}, got {names}"]
    try:
        failures = check_solutions(_load(out_dir, "solutions.json"))
        report = _load(out_dir, "drawing_report.json")
        if report.get("is_faithful") is not True:
            failures.append("drawing_report: rhombus drawing not faithful")
        gap = report.get("min_nonedge_gap")
        if not (isinstance(gap, float) and abs(gap - MIN_NONEDGE_GAP) <= GAP_TOL):
            failures.append(f"drawing_report: gap {gap} != {MIN_NONEDGE_GAP}")
        if _load(out_dir, "circular_report.json").get("is_faithful") is not False:
            failures.append("circular_report: circular GP(8,3) reported faithful")
        pos = _load(out_dir, "circular.json")["positions"]
        d = math.dist(pos[0], pos[10])
        if abs(d - 1.0) > GAP_TOL:
            failures.append(f"circular: |0,10| = {d!r}, expected 1")
        for cls in "ab":
            failures += _check_configuration(_load(out_dir, f"config_centers_{cls}.json"),
                                             f"config_centers_{cls}")
    except _Unreadable as exc:
        failures = [str(exc)]
    except (KeyError, IndexError, TypeError) as exc:
        failures = [f"artifacts: malformed content ({exc!r})"]
    return failures


def _check_configuration(data: dict, name: str) -> list[str]:
    """An (8_3) configuration whose incidences are exactly the unit distances."""
    points = dict(zip(data["point_labels"], data["points"]))
    centers = dict(zip(data["circle_labels"], data["centers"]))
    metric = {(pl, cl) for pl, p in points.items() for cl, c in centers.items()
              if abs(math.dist(p, c) - 1.0) <= GAP_TOL}
    listed = {tuple(pair) for pair in data["incidences"]}
    failures = []
    if len(points) != 8 or len(centers) != 8 or len(listed) != 24:
        failures.append(f"{name}: not 8 points, 8 circles and 24 incidences")
    if metric != listed:
        failures.append(f"{name}: incidences differ from unit distances")
    return failures


def check_newton(outcome: str, x) -> list[str]:
    """A converged iterate really solves the system; failures are typed."""
    if outcome == "converged":
        r = residual_max(x)
        return [] if r <= CONVERGED_RESIDUAL else [f"newton: residual {r:.3e} at {x}"]
    if outcome in ("SingularJacobian", "NoConvergence"):
        return []
    return [f"newton: unexpected outcome {outcome}"]


def circular_feasible(n: int, s: int) -> bool:
    """Outer n-gon and inner {n/s} star of unit edges admit unit spokes."""
    big_r = 1.0 / (2.0 * math.sin(math.pi / n))
    small_r = 1.0 / (2.0 * math.sin(s * math.pi / n))
    return abs(big_r - small_r) <= 1.0 <= big_r + small_r


def check_graph(n: int, s: int, n_vertices: int, n_edges: int,
                bipartite: bool, automorphisms: int) -> list[str]:
    name = f"GP({n},{s})"
    failures = []
    if (n_vertices, n_edges) != (2 * n, 3 * n):
        failures.append(f"{name}: {n_vertices} vertices, {n_edges} edges")
    if bipartite != expect_bipartite(n, s):
        failures.append(f"{name}: bipartite={bipartite}, expected {not bipartite}")
    expected = fgw_automorphism_order(n, s)
    if automorphisms != expected:
        failures.append(f"{name}: {automorphisms} automorphisms, expected {expected}")
    return failures


def check_unit_edges(positions, edges, name: str) -> list[str]:
    worst = max((abs(math.dist(positions[u], positions[v]) - 1.0)
                 for u, v in edges), default=0.0)
    return [] if worst <= GAP_TOL else [f"{name}: edge off unit length by {worst:.3e}"]
