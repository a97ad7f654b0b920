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
of them, and correctly rounded.  Given a seed count, it runs a damped
Newton iteration on Python floats from that many random starts, the
iteration that newton_solve runs from one; its line search computes
_residuals' four expressions one at a time (f1, f4, f2, f3) and stops a
trial at the first that is not below the norm.
"""

from __future__ import annotations

import math
import random

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

# outcome of _newton_scalar; BUDGET when DEFAULT_MAX_ITER steps leave the
# residual norm above DEFAULT_TOL
CONVERGED, SINGULAR, STALLED, BUDGET = range(4)


class SolverError(Exception):
    """Base class for root-finding failures."""


class SingularJacobian(SolverError):
    """Jacobian numerically singular at the current iterate."""


class NoConvergence(SolverError):
    """Newton iteration failed to reach the requested tolerance."""


def _max_norm(f) -> float:
    """max |f_i| of float residuals; NaN when one is NaN, so that a NaN
    never passes for convergence."""
    a = list(map(abs, f))
    total = sum(a)  # NaN only when one of a is NaN
    return total if total != total else max(a)


def _larger(a: float, b: float) -> float:
    """The larger of two floats, for _step_terms: builtin max costs more.
    It is the reference for the x if x > y else y that _newton_scalar
    computes inline, NaN included."""
    return a if a > b else b


def _step_terms(h, k, p, q, f1, f2, f3, f4):
    """Numerators and determinant of the Newton step, and its singular test.

    The Jacobian is diag(2, 2, 2, 1) K with

        K = [[h, k, 0, 0], [0, -a, p, a], [b, 0, b, q], [-c, d, 2c, 2d]],
        a = q - k + 1, b = p + h - 1, c = p - h/2, d = q + k/2,

    so the Newton equation J step = -f is K step = r with
    r = (-f1/2, -f2/2, -f3/2, -f4), and the step is adj(K) r / det K.
    The step is singular when the Jacobian, each row scaled by its max-abs
    entry, has |det| < 1e-14; that is |det K| <= 2e-14 times the product of
    the row maxima of K, which also holds when a row is zero.  A NaN entry
    of K makes det K NaN and the test False whatever the maxima, so
    _larger may drop a NaN.  Returns the four numerators of adj(K) r,
    det K and the singular verdict.

    This is the reference copy of the step, which the tests hold to
    LAPACK.  The copy that runs is inline in _newton_scalar: the same
    operations in the same order, held to this one bit for bit.
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
    scale = (_larger(abs(h), abs(k)) * _larger(abs(a), abs(p))
             * _larger(abs(b), abs(q)) * _larger(abs(c), abs(d)))
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


def newton_solve(seed: RhombusParams) -> RhombusParams:
    """Damped Newton iteration until the residual max-norm is <= DEFAULT_TOL.

    It runs _newton_scalar from seed, the iteration that
    enumerate_solutions runs from each of its random starts.  Raises
    SingularJacobian when the equilibrated Jacobian determinant falls below
    1e-14, and NoConvergence when DEFAULT_MAX_ITER iterations run out or
    the line search stalls at minimum damping.
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


def _newton_scalar(start) -> tuple[tuple[float, ...], int]:
    """Damped Newton iteration from one start, in Python floats: the final
    iterate and its status.

    Each step is the closed-form Newton step of _step_terms, damped by the
    first of 1, 1/2, ..., 2**-20 that lowers the residual max-norm.  The
    status is CONVERGED once that norm is <= DEFAULT_TOL, SINGULAR (see
    _step_terms), STALLED when no damping lowers the norm, or BUDGET.

    It computes each step inline, with the operations of _step_terms
    and _larger in their order: their calls and the tuple they return
    cost about a sixth of a newton_solve call.  _step_terms is the
    reference, and the tests hold this copy to it bit for bit.  Likewise
    a trial computes _residuals' expressions one at a time, f1 (which
    needs only h and k), f4, f2, f3, and fails at the first that is not
    below the norm."""
    h, k, p, q = map(float, start)
    f1, f2, f3, f4 = f = _residuals(h, k, p, q)
    fn = _max_norm(f)
    for _ in range(DEFAULT_MAX_ITER):
        if fn <= DEFAULT_TOL:
            return (h, k, p, q), CONVERGED
        # _step_terms(h, k, p, q, f1, f2, f3, f4), inline
        r0, r1, r2, r3 = -0.5 * f1, -0.5 * f2, -0.5 * f3, -1.0 * f4
        a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
        ab, ac, bd, pq = a * b, a * c, b * d, p * q
        cq, dp, ck, dh = c * q, d * p, c * k, d * h
        ac2, bd2 = ac + ac, bd + bd
        g = pq - 3.0 * ab
        a0 = d * g + ac2 * q
        a1 = c * g + bd2 * p
        det = h * a0 + k * a1
        # each factor is _larger(x, y), NaN included
        scale = ((x if (x := abs(h)) > (y := abs(k)) else y)
                 * (x if (x := abs(a)) > (y := abs(p)) else y)
                 * (x if (x := abs(b)) > (y := abs(q)) else y)
                 * (x if (x := abs(c)) > (y := abs(d)) else y))
        if abs(det) <= 2.0 * _SINGULAR_DET * scale:
            return (h, k, p, q), SINGULAR
        if not det:
            # only a NaN row-maxima product (0 times inf) lets a zero det
            # pass the test; the step would be all inf or NaN, and every
            # trial would have a residual norm of inf or NaN
            return (h, k, p, q), STALLED
        e = 2.0 * (r1 * (cq - bd) + r2 * (dp - ac)) + r3 * (ab - pq)
        u = ck + dh
        sh = (a0 * r0 + k * e) / det
        sk = (a1 * r0 - h * e) / det
        sp = (a * ((bd2 + bd + cq) * r0 - (u + dh + dh) * r2
                   + (h * q - b * k) * r3) + (bd2 * k + q * u) * r1) / det
        sq = (b * ((p * k - a * h) * r3 - (ac2 + ac + dp) * r0
                   - (u + ck + ck) * r1) + (ac2 * h + p * u) * r2) / det
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
        # the accepted trial set f1..f4, none of them NaN; fn is their
        # max-norm, without the cost of a call to builtin max
        h, k, p, q = th, tk, tp, tq
        fn = abs(f1)
        if fn < (x := abs(f2)):
            fn = x
        if fn < (x := abs(f3)):
            fn = x
        if fn < (x := abs(f4)):
            fn = x
    return (h, k, p, q), CONVERGED if fn <= DEFAULT_TOL else BUDGET


def enumerate_solutions(seed_count: int | None = None,
                        rng_seed: int = 0) -> list[RhombusParams]:
    """The distinct non-degenerate roots, sorted lexicographically by
    (h, k, p, q).

    With seed_count None they come from certify.certified_roots: all the
    roots with h > 0 and k > 0, each coordinate correctly rounded, and no
    random start runs.  Otherwise they are all that seed_count random
    starts find.  Start i is the i-th four draws of
    random.Random(rng_seed).uniform(*DEFAULT_BOX), in the order h, k, p,
    q, so it is the same for any seed_count.  Each start runs
    _newton_scalar (residual max-norm <= DEFAULT_TOL, at most
    DEFAULT_MAX_ITER steps), and a converged iterate is kept when its
    max-norm distance from every iterate kept so far is at least
    DEFAULT_DEDUPE_TOL, so memory is O(distinct roots) for any seed_count.
    The kept iterates are filtered to non-degenerate roots.

    A root is non-degenerate when h > 0, k > 0 and verify's
    min_vertex_separation of its rhombus drawing is at least 1e-6.  An
    empty list from random starts just means none converged to a
    non-degenerate root; it is not an error.
    """
    if seed_count is None:
        return list(filter(_is_nondegenerate,
                           (RhombusParams(*x) for x in certified_roots())))
    if seed_count < 1:
        raise ValueError("seed_count must be at least 1")
    uniform = random.Random(rng_seed).uniform
    lo, hi = DEFAULT_BOX
    kept = []
    for _ in range(seed_count):
        x, status = _newton_scalar((uniform(lo, hi), uniform(lo, hi),
                                    uniform(lo, hi), uniform(lo, hi)))
        if status == CONVERGED and all(
                max(abs(a - b) for a, b in zip(x, y)) >= DEFAULT_DEDUPE_TOL
                for y in kept):
            kept.append(x)
    return sorted(filter(_is_nondegenerate, map(RhombusParams._make, kept)))


def _is_nondegenerate(params: RhombusParams) -> bool:
    # layout.rhombus_layout, not an import by name: perfbench's tracer wraps
    # the layout module's binding and counts these calls as nondegenerate_checks
    return (params.h > 0.0 and params.k > 0.0
            and verify(layout.rhombus_layout(params)).min_vertex_separation
            >= _MIN_SEPARATION)


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
