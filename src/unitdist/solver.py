"""Roots of the rhombus embedding system: exact, or by multistart Newton.

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
dihedral symmetry of the coordinate scheme.  RhombusParams is defined in
layout and re-exported here, and the residual kernel _residuals in certify.

By default enumerate_solutions returns certify's roots: proved to be all
of them, and correctly rounded.  The damped Newton iteration has two
drivers over the same residual and step formulas: enumerate_solutions,
given a seed count, runs many starts in lockstep on numpy arrays, and
newton_solve runs one start on Python floats, where numpy's
per-call cost would dominate; its line search computes _residuals' four
expressions one at a time (f1, f4, f2, f3) and stops a trial at the first
that is not below the norm.  Both give the same iterate, bit for bit.
numpy is imported when a sweep function first runs, so the float driver
and the rest of the package run without it.
"""

from __future__ import annotations

import math

from ._jsonfmt import json_number
from . import layout
from .certify import _residuals, certified_roots
from .layout import RhombusParams
from .verifier import verify

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100
DEFAULT_DEDUPE_TOL = 1e-6
DEFAULT_BOX = (-3.0, 3.0)  # each of h, k, p, q

_SINGULAR_DET = 1e-14
_MIN_SEPARATION = 1e-6  # between two vertices of a non-degenerate root
# the line search tries damping 1, 1/2, ..., 2**-20 in order
_DAMPINGS = tuple(math.ldexp(1.0, -i) for i in range(21))
# memory bounds, neither of which changes a result: enumerate_solutions
# draws and sweeps at most _CHUNK starts at a time, and _newton_sweep
# evaluates at most _BLOCK columns, or column x damping trials, at a time
_CHUNK = 16_384
_BLOCK = 4_096

# per-seed outcome of _newton_sweep; a seed still iterating holds BUDGET,
# which stays its outcome when the iteration budget runs out
CONVERGED, SINGULAR, STALLED, BUDGET = range(4)


class SolverError(Exception):
    """Base class for root-finding failures."""


class SingularJacobian(SolverError):
    """Jacobian numerically singular at the current iterate."""


class NoConvergence(SolverError):
    """Newton iteration failed to reach the requested tolerance."""


def _residual_array(x: np.ndarray) -> np.ndarray:
    """Residuals for (h, k, p, q) stacked along the first axis."""
    import numpy as np
    # np.array costs less per call than np.stack on these short lists
    return np.array(_residuals(*x))


def _max_norm(f) -> float:
    """max |f_i| of float residuals; NaN when one is NaN, as in numpy."""
    a = list(map(abs, f))
    total = sum(a)  # NaN only when one of a is NaN
    return total if total != total else max(a)


def _step_terms(h, k, p, q, f1, f2, f3, f4, maximum):
    """Numerators and determinant of the Newton step, and its singular test.

    Takes floats with maximum=_larger or equal-shape arrays with np.maximum.
    The Jacobian is diag(2, 2, 2, 1) K with

        K = [[h, k, 0, 0], [0, -a, p, a], [b, 0, b, q], [-c, d, 2c, 2d]],
        a = q - k + 1, b = p + h - 1, c = p - h/2, d = q + k/2,

    so the Newton equation J step = -f is K step = r with
    r = (-f1/2, -f2/2, -f3/2, -f4), and the step is adj(K) r / det K.
    The step is singular when the Jacobian, each row scaled by its max-abs
    entry, has |det| < 1e-14; that is |det K| <= 2e-14 times the product of
    the row maxima of K, which also holds when a row is zero.  A NaN entry
    of K makes det K NaN and the test False, so _larger, which may drop a
    NaN, gives the same verdict as np.maximum.  Returns the four numerators
    of adj(K) r, det K and the singular verdict.
    """
    r0, r1, r2, r3 = -0.5 * f1, -0.5 * f2, -0.5 * f3, -1.0 * f4
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    ab, ac, bd, pq = a * b, a * c, b * d, p * q
    cq, dp, ck, dh = c * q, d * p, c * k, d * h
    ac2, bd2 = ac + ac, bd + bd
    g = pq - 3.0 * ab
    a0 = d * g + ac2 * q
    a1 = c * g + bd2 * p
    det = h * a0 + k * a1  # a0, a1: the cofactors of h and k in K
    scale = (maximum(abs(h), abs(k)) * maximum(abs(a), abs(p))
             * maximum(abs(b), abs(q)) * maximum(abs(c), abs(d)))
    singular = abs(det) <= 2.0 * _SINGULAR_DET * scale
    # e is shared by the first two rows of adj(K) r, u by the last two
    e = 2.0 * (r1 * (cq - bd) + r2 * (dp - ac)) + r3 * (ab - pq)
    u = ck + dh
    numerators = (
        a0 * r0 + k * e,
        a1 * r0 - h * e,
        a * ((bd2 + bd + cq) * r0 - (u + dh + dh) * r2 + (h * q - b * k) * r3)
        + (bd2 * k + q * u) * r1,
        b * ((p * k - a * h) * r3 - (ac2 + ac + dp) * r0 - (u + ck + ck) * r1)
        + (ac2 * h + p * u) * r2,
    )
    return numerators, det, singular


def _newton_step(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps for the columns of x, shape (4, m), with residuals f.

    Singular columns (see _step_terms) get a zero step.  Returns the steps,
    shape (4, m), and the singular mask.
    """
    import numpy as np
    numerators, det, singular = _step_terms(*x, *f, np.maximum)
    numerators = np.array(numerators)
    step = np.divide(numerators, det, out=np.zeros_like(numerators),
                     where=~singular)
    return step, singular


def newton_solve(seed: RhombusParams) -> RhombusParams:
    """Damped Newton iteration until the residual max-norm is <= DEFAULT_TOL.

    It runs on Python floats the iteration that enumerate_solutions runs
    in lockstep on arrays, with the same arithmetic, so its result is bit
    for bit that seed's row of the sweep.  Raises SingularJacobian when the
    equilibrated Jacobian determinant falls below 1e-14, and NoConvergence
    when DEFAULT_MAX_ITER iterations run out or the line search stalls at
    minimum damping.
    """
    x, status = _newton_scalar(seed.as_tuple())
    if status == CONVERGED:
        return RhombusParams(*x)
    if status == SINGULAR:
        raise SingularJacobian(f"singular Jacobian at {x}")
    fnorm = _max_norm(_residuals(*x))
    if status == STALLED:
        raise NoConvergence(f"line search stalled at residual {fnorm:.3e}")
    raise NoConvergence(f"no convergence after {DEFAULT_MAX_ITER} iterations "
                        f"(residual {fnorm:.3e})")


def _larger(a: float, b: float) -> float:
    """The larger of two floats, for _step_terms: builtin max costs more."""
    return a if a > b else b


def _newton_scalar(start) -> tuple[tuple[float, ...], int]:
    """_newton_sweep on one start, in Python floats: the same final
    iterate, bit for bit, and status.  A trial computes _residuals'
    expressions one at a time, f1 (which needs only h and k), f4, f2, f3,
    and fails at the first that is not below the norm.  It does not call
    _residuals, which the sweep shares: an early stop there would make the
    array kernel branch on its caller."""
    h, k, p, q = map(float, start)
    f = _residuals(h, k, p, q)
    fn = _max_norm(f)
    for _ in range(DEFAULT_MAX_ITER):
        if fn <= DEFAULT_TOL:
            return (h, k, p, q), CONVERGED
        (n0, n1, n2, n3), det, singular = _step_terms(h, k, p, q, *f, _larger)
        if singular:  # the sweep's zero step lowers no norm
            return (h, k, p, q), SINGULAR
        if not det:
            # only a NaN row-maxima product (0 times inf) lets a zero det
            # pass the test; the sweep's step is then all inf or NaN, and
            # every trial has a residual norm of inf or NaN
            return (h, k, p, q), STALLED
        sh, sk, sp, sq = n0 / det, n1 / det, n2 / det, n3 / det
        for damping in _DAMPINGS:
            # _max_norm(f) < fn, one residual at a time, each with the
            # operations of _residuals: a NaN fails both
            th, tk = h + damping * sh, k + damping * sk
            if not abs(f1 := th * th + tk * tk - 4.0) < fn:
                continue
            tp, tq = p + damping * sp, q + damping * sq
            c, d = tp - 0.5 * th, tq + 0.5 * tk
            if not abs(f4 := c * c + d * d - 1.0) < fn:
                continue
            a, b = tq - tk + 1.0, tp + th - 1.0
            if (abs(f2 := tp * tp + a * a - 1.0) < fn
                    and abs(f3 := tq * tq + b * b - 1.0) < fn):
                break
        else:
            return (h, k, p, q), STALLED
        h, k, p, q, f = th, tk, tp, tq, (f1, f2, f3, f4)
        fn = max(abs(f1), abs(f2), abs(f3), abs(f4))  # f holds no NaN here
    return (h, k, p, q), CONVERGED if fn <= DEFAULT_TOL else BUDGET


def enumerate_solutions(seed_count: int | None = None,
                        rng_seed: int = 0) -> list[RhombusParams]:
    """The distinct non-degenerate roots, sorted lexicographically by
    (h, k, p, q).

    With seed_count None they come from certify.certified_roots: all the
    roots with h > 0 and k > 0, each coordinate correctly rounded, and no
    random start runs.  Otherwise they are all that seed_count random
    starts find.  The seeds are the draw
    default_rng(rng_seed).uniform(*DEFAULT_BOX, (seed_count, 4)), taken and
    swept in consecutive chunks of _CHUNK rows.  PCG64 draws are
    sequential, so seed i is the same for any seed_count and any chunking,
    and the result cannot depend on execution order.  The Newton sweeps
    (residual max-norm <= DEFAULT_TOL, at most DEFAULT_MAX_ITER steps) run
    vectorized in lockstep.  Converged iterates are deduplicated (max-norm
    distance < DEFAULT_DEDUPE_TOL) and filtered to non-degenerate roots.
    Memory is O(_CHUNK + converged rows).

    A root is non-degenerate when h > 0, k > 0 and verify's
    min_vertex_separation of its rhombus drawing is at least 1e-6.  An
    empty list from a sweep just means no seed converged; it is not an
    error.

    numpy is imported when a sweep first runs, here and in the sweep
    functions it calls, so only a run that sweeps pays for it.
    """
    if seed_count is None:
        return list(filter(_is_nondegenerate,
                           (RhombusParams(*x) for x in certified_roots())))
    import numpy as np
    if seed_count < 1:
        raise ValueError("seed_count must be at least 1")
    roots = _converged_rows(seed_count, rng_seed)

    # the first remaining sorted row represents every row within the
    # tolerance; it is kept as floats, as a view would keep its array alive
    remaining = roots[np.lexsort(roots.T[::-1])]
    del roots
    representatives = []
    while len(remaining):
        representatives.append(RhombusParams(*remaining[0].tolist()))
        remaining = remaining[np.abs(remaining - remaining[0]).max(axis=1)
                              >= DEFAULT_DEDUPE_TOL]
    # the lexsort put the representatives in (h, k, p, q) order, which is
    # RhombusParams order, so the filtered list is already sorted
    return list(filter(_is_nondegenerate, representatives))


def _is_nondegenerate(params: RhombusParams) -> bool:
    # layout.rhombus_layout, not an import by name: perfbench's tracer wraps
    # the layout module's binding and counts these calls as nondegenerate_checks
    return (params.h > 0.0 and params.k > 0.0
            and verify(layout.rhombus_layout(params)).min_vertex_separation
            >= _MIN_SEPARATION)


def _converged_rows(seed_count: int, rng_seed: int) -> np.ndarray:
    """The converged final iterates of the seeds, in seed order, shape (m, 4).

    Each chunk of starts is drawn, swept and dropped before the next, so
    only the converged rows outlive it.
    """
    import numpy as np
    rng = np.random.default_rng(rng_seed)
    rows = []
    for done in range(0, seed_count, _CHUNK):
        seeds = rng.uniform(*DEFAULT_BOX, (min(_CHUNK, seed_count - done), 4))
        x, status = _newton_sweep(seeds)
        rows.append(x[status == CONVERGED])
    return np.concatenate(rows)


def _newton_sweep(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on every row of seeds, in lockstep.

    Each pass advances all still-active seeds by one closed-form Newton
    step (_newton_step), damped by the first of 1, 1/2, ..., 2**-20 that
    lowers the residual max-norm.  A seed stops as CONVERGED once that norm
    is <= DEFAULT_TOL, as SINGULAR when its Jacobian with each row scaled to
    max-abs 1 has |det| < 1e-14, as STALLED when no damping lowers the norm,
    and as BUDGET when DEFAULT_MAX_ITER steps leave it above DEFAULT_TOL.
    The singular test is closed-form too: |det K| <= 2e-14 times the
    product of K's row maxima, with no LAPACK call.  Only active seeds are
    kept, as the columns of a (4, m) state; a seed's row of the result is
    written when it stops.
    A pass runs on _BLOCK columns at a time (_newton_pass), and the columns
    are independent, so the iterates do not depend on _BLOCK.
    Returns the final iterates, shape (n, 4), and the per-seed statuses.
    """
    import numpy as np
    # a huge or non-finite start overflows to inf or NaN, which no
    # comparison accepts as progress, so numpy's warnings about it are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.array(seeds, dtype=float)
        f = _residual_array(x.T)
        fnorm = np.abs(f).max(axis=0)
        status = np.where(fnorm <= DEFAULT_TOL, CONVERGED, BUDGET)
        live = np.flatnonzero(status == BUDGET)
        # the active seeds: their rows of x, residuals and residual norms
        xs, fs, fn = x[live].T.copy(), f[:, live], fnorm[live]

        for _ in range(DEFAULT_MAX_ITER):
            if live.size == 0:
                break
            code = np.empty_like(live)
            for lo in range(0, live.size, _BLOCK):
                cols = slice(lo, lo + _BLOCK)
                code[cols] = _newton_pass(xs[:, cols], fs[:, cols], fn[cols])
            stop = code != BUDGET
            if stop.any():
                x[live[stop]] = xs[:, stop].T
                status[live[stop]] = code[stop]
                keep = ~stop
                live, xs, fs, fn = live[keep], xs[:, keep], fs[:, keep], fn[keep]

        x[live] = xs.T
    return x, status


def _newton_pass(x: np.ndarray, f: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """One damped Newton step on the columns of x, in place; their codes.

    x and f, shape (4, m), and fn, shape (m,), are the iterates, residuals
    and residual norms.  Each column tries the full step; a column it does
    not improve tries every smaller damping and takes the first one
    that lowers its norm.  Those trials run in windows of at most _BLOCK
    column x damping trials.  Returns CONVERGED (norm <= DEFAULT_TOL),
    SINGULAR, STALLED or, for a column still iterating, BUDGET.
    """
    import numpy as np
    # the full step, which 70% of column passes take, then all the rest at
    # once: 85% of the columns that miss the full step miss 1/2 ... 1/16
    backtrack = np.array(_DAMPINGS[1:])
    step, singular = _newton_step(x, f)
    trial = x + step
    f_trial = _residual_array(trial)
    fn_trial = np.abs(f_trial).max(axis=0)
    hit = fn_trial < fn
    np.copyto(x, trial, where=hit)
    np.copyto(f, f_trial, where=hit)
    np.copyto(fn, fn_trial, where=hit)
    stalled = ~hit  # columns no damping has improved yet
    missed = np.flatnonzero(stalled)
    width = max(_BLOCK // backtrack.size, 1)
    for lo in range(0, missed.size, width):
        todo = missed[lo:lo + width]
        trial = x[:, todo, None] + backtrack * step[:, todo, None]
        f_trial = _residual_array(trial)
        fn_trial = np.abs(f_trial).max(axis=0)
        better = fn_trial < fn[todo, None]
        hit = better.any(axis=1)
        first = better[hit].argmax(axis=1)
        done = todo[hit]
        x[:, done] = trial[:, hit, first]
        f[:, done] = f_trial[:, hit, first]
        fn[done] = fn_trial[hit, first]
        stalled[done] = False

    # a singular column has a zero step, so no damping improves it
    code = np.where(fn <= DEFAULT_TOL, CONVERGED, BUDGET)
    code[stalled] = np.where(singular[stalled], SINGULAR, STALLED)
    return code


def solution_to_json_dict(params: RhombusParams) -> dict:
    return {
        "h": params.h,
        "k": params.k,
        "p": params.p,
        "q": params.q,
        "residual_max": _max_norm(_residuals(*map(float, params.as_tuple()))),
    }


def solution_from_json_dict(data: dict) -> RhombusParams:
    params = RhombusParams(*(json_number(data[key]) for key in "hkpq"))
    if json_number(data["residual_max"]) < 0:
        raise ValueError("residual_max must not be negative")
    return params
