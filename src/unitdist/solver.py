"""Multistart damped-Newton solver for the rhombus embedding system.

The unknowns (h, k, p, q) pin a planar drawing of GP(8, 3): the outer
octagon is a rhombus with half-diagonals h (along x) and k (along y), and
(p, q) places the inner anchor vertex 13.  Unit edge lengths reduce, after
symmetry, to four quadratic equations:

    f1 = h^2 + k^2 - 4
    f2 = p^2 + (q - k + 1)^2 - 1
    f3 = q^2 + (p + h - 1)^2 - 1
    f4 = (p - h/2)^2 + (q + k/2)^2 - 1

f1 makes the rhombus side span two unit edges; f2..f4 make the edges
13-8, 13-10 and 13-5 unit length.  All remaining edges follow from the
dihedral symmetry of the coordinate scheme.  RhombusParams and
check_reflection_pair are defined in layout and re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .layout import RhombusParams, _is_nondegenerate, check_reflection_pair

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100
DEFAULT_SEED_COUNT = 10_000
DEFAULT_DEDUPE_TOL = 1e-6
DEFAULT_BOX: tuple[tuple[float, float], ...] = ((-3.0, 3.0),) * 4

_SINGULAR_DET = 1e-14
# the line search tries damping 1, 1/2, ..., 2**-20 in order, in three
# vectorised blocks: most steps take the full step, few get past 1/16
_DAMPING_BLOCKS = tuple(np.ldexp(1.0, -np.arange(lo, hi))[:, None]
                        for lo, hi in ((0, 1), (1, 5), (5, 21)))

# per-seed outcome of _newton_sweep; a seed still iterating holds BUDGET,
# which stays its outcome when the iteration budget runs out
CONVERGED, SINGULAR, STALLED, BUDGET = range(4)


class SolverError(Exception):
    """Base class for root-finding failures."""


class SingularJacobian(SolverError):
    """Jacobian numerically singular at the current iterate."""


class NoConvergence(SolverError):
    """Newton iteration failed to reach the requested tolerance."""


class ResidualVector(NamedTuple):
    """Left-minus-right values of the four equations."""

    f1: float
    f2: float
    f3: float
    f4: float

    def max_abs(self) -> float:
        return max(abs(self.f1), abs(self.f2), abs(self.f3), abs(self.f4))


def _residual_array(x: np.ndarray) -> np.ndarray:
    """Residuals for a stacked (..., 4) array of (h, k, p, q)."""
    h, k, p, q = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return np.stack(
        [
            h * h + k * k - 4.0,
            p * p + (q - k + 1.0) ** 2 - 1.0,
            q * q + (p + h - 1.0) ** 2 - 1.0,
            (p - 0.5 * h) ** 2 + (q + 0.5 * k) ** 2 - 1.0,
        ],
        axis=-1,
    )


def _jacobian_array(x: np.ndarray) -> np.ndarray:
    """Analytic Jacobians, shape (..., 4, 4); row i is grad f_{i+1}."""
    h, k, p, q = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    jac = np.zeros(x.shape[:-1] + (4, 4))
    jac[..., 0, 0] = 2.0 * h
    jac[..., 0, 1] = 2.0 * k
    jac[..., 1, 1] = -2.0 * a
    jac[..., 1, 2] = 2.0 * p
    jac[..., 1, 3] = 2.0 * a
    jac[..., 2, 0] = jac[..., 2, 2] = 2.0 * b
    jac[..., 2, 3] = 2.0 * q
    jac[..., 3, 0] = -c
    jac[..., 3, 1] = d
    jac[..., 3, 2] = 2.0 * c
    jac[..., 3, 3] = 2.0 * d
    return jac


def residual(params: RhombusParams) -> ResidualVector:
    values = _residual_array(np.asarray(params.as_tuple(), dtype=float))
    return ResidualVector(*values.tolist())


def jacobian(params: RhombusParams) -> np.ndarray:
    """4x4 matrix of partial derivatives d f_i / d (h, k, p, q)."""
    return _jacobian_array(np.asarray(params.as_tuple(), dtype=float))


def _scaled_dets(jacs: np.ndarray) -> np.ndarray:
    """Determinants after row equilibration; zero flags a singular system.

    Scaling each row by its max-abs entry makes the 1e-14 singularity
    threshold meaningful regardless of how large the gradients are.
    """
    scale = np.abs(jacs).max(axis=-1, keepdims=True)
    regular = scale[..., 0].min(axis=-1) > 0.0
    dets = np.zeros(jacs.shape[:-2])
    if np.any(regular):
        dets[regular] = np.linalg.det(jacs[regular] / scale[regular])
    return dets


def newton_solve(seed: RhombusParams, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> RhombusParams:
    """Damped Newton iteration until the residual max-norm is <= tol.

    This is the one-row case of the lockstep sweep that enumerate_solutions
    runs.  Raises SingularJacobian when the equilibrated Jacobian
    determinant falls below 1e-14, and NoConvergence when the iteration
    budget runs out or the line search stalls at minimum damping.
    """
    [x], [status] = _newton_sweep([seed.as_tuple()], tol, max_iter)
    if status == CONVERGED:
        return RhombusParams(*x.tolist())
    if status == SINGULAR:
        raise SingularJacobian(f"singular Jacobian at {tuple(x.tolist())}")
    fnorm = float(np.abs(_residual_array(x)).max())
    if status == STALLED:
        raise NoConvergence(f"line search stalled at residual {fnorm:.3e}")
    raise NoConvergence(f"no convergence after {max_iter} iterations "
                        f"(residual {fnorm:.3e})")


def enumerate_solutions(seed_count: int = DEFAULT_SEED_COUNT, rng_seed: int = 0,
                        box: Sequence[tuple[float, float]] = DEFAULT_BOX,
                        dedupe_tol: float = DEFAULT_DEDUPE_TOL,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> list[RhombusParams]:
    """All distinct non-degenerate roots found from seed_count random starts.

    Seeds are drawn uniformly from box with one independent generator per
    seed index, so the result cannot depend on execution order; the Newton
    sweeps themselves run vectorized in lockstep.  Converged iterates are
    deduplicated (max-norm distance < dedupe_tol), filtered to non-degenerate
    roots, and returned sorted lexicographically by (h, k, p, q).

    A root is non-degenerate when h > 0, k > 0 and the 16 derived vertex
    positions are pairwise at least 1e-6 apart.  An empty list just means
    no seed converged; it is not an error.
    """
    if seed_count < 1:
        raise ValueError("seed_count must be at least 1")
    if dedupe_tol <= 0:
        raise ValueError("dedupe_tol must be positive")
    bounds = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(bounds) != 4 or any(lo >= hi for lo, hi in bounds):
        raise ValueError("box must be four (lo, hi) pairs with lo < hi")

    lows, highs = np.array(bounds).T
    children = np.random.SeedSequence(rng_seed).spawn(seed_count)
    seeds = np.empty((seed_count, 4))
    for i, child in enumerate(children):
        seeds[i] = np.random.default_rng(child).uniform(lows, highs)

    x, status = _newton_sweep(seeds, tol, max_iter)
    roots = x[status == CONVERGED]

    # the first remaining sorted row represents every row within dedupe_tol
    remaining = roots[np.lexsort(roots.T[::-1])]
    representatives: list[np.ndarray] = []
    while len(remaining):
        representatives.append(remaining[0])
        remaining = remaining[np.abs(remaining - remaining[0]).max(axis=1)
                              >= dedupe_tol]

    solutions = []
    for row in representatives:
        params = RhombusParams(*row.tolist())
        if _is_nondegenerate(params):
            solutions.append(params)
    return sorted(solutions)


def _newton_sweep(seeds: np.ndarray, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on every row of seeds, in lockstep.

    Each pass advances all still-active seeds by one step.  The step is
    damped by the first of 1, 1/2, ..., 2**-20 that lowers the residual
    max-norm.  A seed stops as CONVERGED once that norm is <= tol, as
    SINGULAR when its equilibrated Jacobian determinant falls below 1e-14,
    as STALLED when no damping lowers the norm, and as BUDGET when max_iter
    steps leave it above tol.  Returns the final iterates, shape (m, 4),
    and the per-seed status codes.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = np.array(seeds, dtype=float)
    f = _residual_array(x)
    fnorm = np.abs(f).max(axis=1)
    status = np.full(x.shape[0], BUDGET)
    status[fnorm <= tol] = CONVERGED

    for _ in range(max_iter):
        live = np.flatnonzero(status == BUDGET)
        if live.size == 0:
            break
        jac = _jacobian_array(x[live])
        singular = np.abs(_scaled_dets(jac)) < _SINGULAR_DET
        if singular.any():
            status[live[singular]] = SINGULAR
            live, jac = live[~singular], jac[~singular]
            if live.size == 0:
                continue
        step = np.linalg.solve(jac, -f[live][..., None])[..., 0]

        searching = live  # seeds whose step no damping has accepted yet
        for damping in _DAMPING_BLOCKS:
            trial = x[searching, None, :] + damping * step[:, None, :]
            f_trial = _residual_array(trial)
            fnorm_trial = np.abs(f_trial).max(axis=-1)
            better = fnorm_trial < fnorm[searching, None]
            hit = better.any(axis=1)
            first = better[hit].argmax(axis=1)
            done = searching[hit]
            x[done] = trial[hit, first]
            f[done] = f_trial[hit, first]
            fnorm[done] = fnorm_trial[hit, first]
            searching, step = searching[~hit], step[~hit]
            if searching.size == 0:
                break
        status[searching] = STALLED
        status[live[fnorm[live] <= tol]] = CONVERGED

    return x, status


def solution_to_json_dict(params: RhombusParams) -> dict:
    return {
        "h": params.h,
        "k": params.k,
        "p": params.p,
        "q": params.q,
        "residual_max": residual(params).max_abs(),
    }


def solution_from_json_dict(data: dict) -> RhombusParams:
    return RhombusParams(float(data["h"]), float(data["k"]),
                         float(data["p"]), float(data["q"]))
