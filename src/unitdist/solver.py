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

from ._jsonfmt import json_number
from .layout import RhombusParams, _is_nondegenerate, check_reflection_pair

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100
DEFAULT_SEED_COUNT = 10_000
DEFAULT_DEDUPE_TOL = 1e-6
DEFAULT_BOX: tuple[tuple[float, float], ...] = ((-3.0, 3.0),) * 4

_SINGULAR_DET = 1e-14
# J = diag(2, 2, 2, 1) K, so the Newton equation J step = -f is
# K step = r with r = _STEP_RHS * f
_STEP_RHS = np.array([[-0.5], [-0.5], [-0.5], [-1.0]])
# the line search tries damping 1, 1/2, ..., 2**-20 in order, in three
# vectorised blocks: the full step, which most seeds take, then these two,
# [1/2 ... 1/16] and [1/32 ... 2**-20]
_DAMPING_BLOCKS = tuple(np.ldexp(1.0, -np.arange(lo, hi))
                        for lo, hi in ((1, 5), (5, 21)))

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
    """Residuals for (h, k, p, q) stacked along the first axis."""
    h, k, p, q = x
    # np.array costs less per call than np.stack on these short lists
    return np.array([
        h * h + k * k - 4.0,
        p * p + (q - k + 1.0) ** 2 - 1.0,
        q * q + (p + h - 1.0) ** 2 - 1.0,
        (p - 0.5 * h) ** 2 + (q + 0.5 * k) ** 2 - 1.0,
    ])


def residual(params: RhombusParams) -> ResidualVector:
    values = _residual_array(np.asarray(params.as_tuple(), dtype=float))
    return ResidualVector(*values.tolist())


def jacobian(params: RhombusParams) -> np.ndarray:
    """4x4 matrix of partial derivatives d f_i / d (h, k, p, q)."""
    h, k, p, q = params.as_tuple()
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    return np.array([[2.0 * h, 2.0 * k, 0.0, 0.0],
                     [0.0, -2.0 * a, 2.0 * p, 2.0 * a],
                     [2.0 * b, 0.0, 2.0 * b, 2.0 * q],
                     [-c, d, 2.0 * c, 2.0 * d]])


def _newton_step(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps for the columns of x, shape (4, m), with residuals f.

    The Jacobian is diag(2, 2, 2, 1) K with

        K = [[h, k, 0, 0], [0, -a, p, a], [b, 0, b, q], [-c, d, 2c, 2d]],
        a = q - k + 1, b = p + h - 1, c = p - h/2, d = q + k/2,

    so the step is adj(K) r / det K with r = (-f1/2, -f2/2, -f3/2, -f4).
    A column is singular when its Jacobian, each row scaled by its max-abs
    entry, has |det| < 1e-14; that is |det K| <= 2e-14 times the product of
    the row maxima of K, which also holds when a row is zero.  Singular
    columns get a zero step.  Returns the steps, shape (4, m), and the
    singular mask.
    """
    h, k, p, q = x
    r0, r1, r2, r3 = f * _STEP_RHS
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    ab, ac, bd, pq = a * b, a * c, b * d, p * q
    cq, dp, ck, dh = c * q, d * p, c * k, d * h
    ac2, bd2 = ac + ac, bd + bd
    g = pq - 3.0 * ab
    a0 = d * g + ac2 * q
    a1 = c * g + bd2 * p
    det = h * a0 + k * a1  # a0, a1: the cofactors of h and k in K
    scale = (np.maximum(np.abs(h), np.abs(k)) * np.maximum(np.abs(a), np.abs(p))
             * np.maximum(np.abs(b), np.abs(q)) * np.maximum(np.abs(c), np.abs(d)))
    singular = np.abs(det) <= 2.0 * _SINGULAR_DET * scale
    # e is shared by the first two rows of adj(K) r, u by the last two
    e = 2.0 * (r1 * (cq - bd) + r2 * (dp - ac)) + r3 * (ab - pq)
    u = ck + dh
    numerators = np.array([
        a0 * r0 + k * e,
        a1 * r0 - h * e,
        a * ((bd2 + bd + cq) * r0 - (u + dh + dh) * r2 + (h * q - b * k) * r3)
        + (bd2 * k + q * u) * r1,
        b * ((p * k - a * h) * r3 - (ac2 + ac + dp) * r0 - (u + ck + ck) * r1)
        + (ac2 * h + p * u) * r2,
    ])
    step = np.divide(numerators, det, out=np.zeros_like(numerators),
                     where=~singular)
    return step, singular


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

    The seeds are one draw, default_rng(rng_seed).uniform(lows, highs,
    (seed_count, 4)), from the box.  PCG64 draws are sequential, so seed i
    is the same for any seed_count and for any split of the draw into
    consecutive chunks, and the result cannot depend on execution order.
    The Newton sweeps run vectorized in lockstep.  Converged iterates are
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
    seeds = np.random.default_rng(rng_seed).uniform(lows, highs, (seed_count, 4))
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

    Each pass advances all still-active seeds by one closed-form Newton
    step (_newton_step), damped by the first of 1, 1/2, ..., 2**-20 that
    lowers the residual max-norm.  A seed stops as CONVERGED once that norm
    is <= tol, as SINGULAR when its Jacobian with each row scaled to max-abs
    1 has |det| < 1e-14, as STALLED when no damping lowers the norm, and as
    BUDGET when max_iter steps leave it above tol.  The singular test is
    closed-form too: |det K| <= 2e-14 times the product of K's row maxima,
    with no LAPACK call.  Only active seeds are kept, as the columns of a
    (4, m) state; a seed's row of the result is written when it stops.
    Returns the final iterates, shape (n, 4), and the per-seed statuses.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = np.array(seeds, dtype=float)
    f = _residual_array(x.T)
    fnorm = np.abs(f).max(axis=0)
    status = np.where(fnorm <= tol, CONVERGED, BUDGET)
    live = np.flatnonzero(status == BUDGET)
    # the active seeds: their rows of x, residuals and residual norms
    xs, fs, fn = x[live].T.copy(), f[:, live], fnorm[live]

    for _ in range(max_iter):
        if live.size == 0:
            break
        step, singular = _newton_step(xs, fs)

        trial = xs + step
        f_trial = _residual_array(trial)
        fn_trial = np.abs(f_trial).max(axis=0)
        hit = fn_trial < fn
        xs = np.where(hit, trial, xs)
        fs = np.where(hit, f_trial, fs)
        fn = np.where(hit, fn_trial, fn)
        todo = np.flatnonzero(~hit)  # columns no damping has improved yet
        step = step[:, todo]
        for damping in _DAMPING_BLOCKS:
            if todo.size == 0:
                break
            trial = xs[:, todo, None] + damping * step[:, :, None]
            f_trial = _residual_array(trial)
            fn_trial = np.abs(f_trial).max(axis=0)
            better = fn_trial < fn[todo, None]
            hit = better.any(axis=1)
            first = better[hit].argmax(axis=1)
            done = todo[hit]
            xs[:, done] = trial[:, hit, first]
            fs[:, done] = f_trial[:, hit, first]
            fn[done] = fn_trial[hit, first]
            todo, step = todo[~hit], step[:, ~hit]

        # a singular column has a zero step, so no damping improves it
        code = np.where(fn <= tol, CONVERGED, BUDGET)
        if todo.size:
            code[todo] = np.where(singular[todo], SINGULAR, STALLED)
        stop = code != BUDGET
        if stop.any():
            x[live[stop]] = xs[:, stop].T
            status[live[stop]] = code[stop]
            keep = ~stop
            live, xs, fs, fn = live[keep], xs[:, keep], fs[:, keep], fn[keep]

    x[live] = xs.T
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
    return RhombusParams(*(json_number(data[key]) for key in "hkpq"))
