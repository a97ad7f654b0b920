"""Residuals, Jacobians, Newton iteration, and root enumeration."""

import functools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (KNOWN_SOLUTION, REFERENCE_6DP, REFLECTED_SOLUTION,
                      is_mirror, jacobian)
from unitdist import solver
from unitdist.solver import _is_nondegenerate
from unitdist.solver import (BUDGET, CONVERGED, DEFAULT_BOX, SINGULAR,
                             STALLED, NoConvergence, RhombusParams,
                             SingularJacobian, SolverError,
                             _newton_scalar, enumerate_solutions,
                             newton_solve, solution_from_json_dict,
                             solution_to_json_dict)


class TestResidual:
    def test_first_equation_at_h2(self):
        assert solver._residuals(2.0, 0.0, 0.0, 0.0)[0] == 0.0

    def test_origin(self):
        assert solver._residuals(0.0, 0.0, 0.0, 0.0) == (-4.0, 0.0, 0.0, -1.0)

    def test_reference_values_nearly_solve(self):
        assert solver._max_norm(solver._residuals(*REFERENCE_6DP)) < 1e-4

    def test_frozen_root_solves(self):
        assert solver._max_norm(solver._residuals(*KNOWN_SOLUTION)) < 1e-12
        assert solver._max_norm(solver._residuals(*REFLECTED_SOLUTION)) < 1e-12

    def test_max_abs_is_nan_when_a_residual_is(self):
        # f1 = 0 comes first; a max that dropped NaN would return it
        assert math.isnan(solver._max_norm(solver._residuals(2.0, 0.0, math.nan, 0.0)))

    def test_single_sign_flips_break_the_system(self):
        # guards against accidentally assuming axiswise sign symmetry
        base = KNOWN_SOLUTION
        for axis in range(4):
            flipped = list(base)
            flipped[axis] = -flipped[axis]
            assert solver._max_norm(solver._residuals(*flipped)) > 1e-2


class TestJacobian:
    def test_row_one_closed_form(self):
        jac = jacobian(RhombusParams(2.0, 0.0, 0.0, 0.0))
        assert jac[0].tolist() == [4.0, 0.0, 0.0, 0.0]

    def test_row_two_at_origin(self):
        jac = jacobian(RhombusParams(0.0, 0.0, 0.0, 0.0))
        assert jac[1].tolist() == [0.0, -2.0, 0.0, 2.0]

    def test_row_four_closed_form(self):
        h, k, p, q = 0.3, -0.7, 1.1, 0.4
        jac = jacobian(RhombusParams(h, k, p, q))
        expected = [-(p - h / 2), q + k / 2, 2 * (p - h / 2), 2 * (q + k / 2)]
        assert jac[3].tolist() == pytest.approx(expected, abs=1e-15)

    def test_matches_central_finite_differences(self):
        # oracle: (f(x + e_j dx) - f(x - e_j dx)) / (2 dx) at 100 random points
        rng = np.random.default_rng(2024)
        dx = 1e-6
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, 4)
            params = RhombusParams(*x.tolist())
            jac = jacobian(params)
            for col in range(4):
                step = np.zeros(4)
                step[col] = dx
                plus = solver._residuals(*(x + step).tolist())
                minus = solver._residuals(*(x - step).tolist())
                fd = (np.array(plus) - np.array(minus)) / (2.0 * dx)
                worst = max(worst, float(np.abs(jac[:, col] - fd).max()))
        assert worst < 1e-5


class TestNewtonSolve:
    def test_converges_from_nearby_seed(self):
        found = newton_solve(RhombusParams(1.1, 1.6, 0.9, 0.1))
        for got, want in zip(found.as_tuple(), REFERENCE_6DP):
            assert abs(got - want) < 1e-5
        assert solver._max_norm(solver._residuals(*found.as_tuple())) <= 1e-12

    def test_seed_at_solution_is_returned_unchanged(self):
        seed = RhombusParams(*KNOWN_SOLUTION)
        assert newton_solve(seed) == seed

    def test_origin_is_singular(self):
        with pytest.raises((SingularJacobian, NoConvergence)):
            newton_solve(RhombusParams(0.0, 0.0, 0.0, 0.0))

    def test_solver_errors_share_base_class(self):
        assert issubclass(SingularJacobian, SolverError)
        assert issubclass(NoConvergence, SolverError)

    def test_origin_raises_exactly_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(RhombusParams(0.0, 0.0, 0.0, 0.0))

    def test_stalling_start_reports_the_stall(self):
        seed = RhombusParams(-2.0, -2.0, -2.0, -2.0)
        assert _newton_scalar(seed.as_tuple())[1] == STALLED
        with pytest.raises(NoConvergence, match="stalled"):
            newton_solve(seed)

    def test_budget_status_reports_the_iteration_count(self):
        seed = RhombusParams(-1.0, -0.5, -2.0, 0.0)
        assert _newton_scalar(seed.as_tuple())[1] == BUDGET
        with pytest.raises(NoConvergence, match="after 100 iterations"):
            newton_solve(seed)


def _scaled_det(row):
    """|det| of the Jacobian at row, each row scaled by its max-abs entry,
    through LAPACK; 0 when a row is zero."""
    jac = jacobian(RhombusParams(*row))
    scale = np.abs(jac).max(axis=1, keepdims=True)
    return abs(np.linalg.det(jac / scale)) if scale.all() else 0.0


def _lapack_singular(row):
    """The singular test on the row-equilibrated Jacobian."""
    return _scaled_det(row) < 1e-14


def _closed_form(row):
    """_step_terms at row: the Newton step, None when singular, and the
    singular verdict."""
    numerators, det, singular = solver._step_terms(*row, *solver._residuals(*row))
    return (None if singular else [n / det for n in numerators]), singular


@functools.cache
def _near_singular_rows():
    """Rows on both sides of the singular threshold.

    Bisect det J along random segments whose ends differ in sign: the
    limits are numerically singular; a 1e-9 move along the segment makes
    the scaled determinant about 1e-9, far above 1e-14.  The scaled
    determinant is about linear in the move, which places two more rows
    where it is 0.7e-14 and 1.4e-14, on either side of the threshold and
    of a threshold twice or half as large."""
    rng = np.random.default_rng(32)
    rows = []
    for _ in range(200):
        lo, hi = rng.uniform(-3.0, 3.0, (2, 4))
        sign_lo = np.linalg.det(jacobian(RhombusParams(*lo.tolist())))
        if sign_lo * np.linalg.det(jacobian(RhombusParams(*hi.tolist()))) >= 0:
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.linalg.det(jacobian(RhombusParams(*mid.tolist()))) * sign_lo > 0:
                lo = mid
            else:
                hi = mid
        step = (lo - hi) / np.abs(lo - hi).max()
        rows += [lo.tolist(), (lo + 1e-9 * step).tolist()]
        slope = _scaled_det(lo + 1e-9 * step) / 1e-9
        for target in 0.7e-14, 1.4e-14:
            row = lo + target / slope * step
            if abs(_scaled_det(row) - target) < 0.1e-14:
                rows.append(row.tolist())
    return tuple(map(tuple, rows))


EXACTLY_SINGULAR = [
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.3, -0.7),    # h = k = 0: row 1 of J is zero
    (0.7, 1.5, 0.0, 0.5),     # a = p = 0: row 2
    (0.25, -1.1, 0.75, 0.0),  # b = q = 0: row 3
    (1.0, 0.5, 0.5, -0.25),   # c = d = 0: row 4
]


class TestClosedFormStep:
    """_step_terms on floats against np.linalg on the full 4x4 Jacobian."""

    def test_step_matches_lapack_solve(self):
        rows = np.random.default_rng(31).uniform(-3.0, 3.0, (1000, 4)).tolist()
        for row in rows:
            got, singular = _closed_form(row)
            assert not singular
            params = RhombusParams(*row)
            want = np.linalg.solve(jacobian(params), -np.array(solver._residuals(*row)))
            assert np.abs(np.array(got) - want).max() <= 1e-9 * np.abs(want).max()

    def test_singular_verdict_matches_lapack_determinant(self):
        rows = _near_singular_rows()
        verdicts = [_lapack_singular(row) for row in rows]
        assert 20 <= sum(verdicts) < len(verdicts)
        assert [_closed_form(row)[1] for row in rows] == verdicts
        # the float driver stops at a singular verdict
        assert all(_newton_scalar(row)[1] == SINGULAR
                   for row, singular in zip(rows, verdicts) if singular)

    @pytest.mark.parametrize("row", EXACTLY_SINGULAR,
                             ids=["origin", "h-k", "a-p", "b-q", "c-d"])
    def test_exactly_singular_points(self, row):
        assert _lapack_singular(row)
        assert _closed_form(row) == (None, True)
        with pytest.raises(SingularJacobian):
            newton_solve(RhombusParams(*row))


# starts whose arithmetic overflows or is not finite from the first step
NONFINITE_STARTS = [
    (1e200, 1.0, 1.0, 1.0),
    (1.7e308, -1.7e308, 1.7e308, -1.7e308),
    (-1.7e308, 1.7e308, -1.7e308, 1.7e308),
    (1e154, 1e154, 1e154, 1e154),
    # b = q = 0 zeroes row 3 of K, and the product of the row maxima is
    # 1e200 * 1e200 * 0 = inf * 0 = NaN, so det K = 0 passes the test
    (0.5, 1e200, 0.5, 0.0),
    (math.inf, 0.0, 0.0, 0.0),
    (-math.inf, 1.0, -math.inf, 1.0),
    (math.nan, 1.0, 1.0, 1.0),
    # f1 = 0 and NaN f2..f4: a norm that dropped NaN would call it converged
    (2.0, 0.0, math.nan, math.nan),
    (math.inf, math.inf, math.inf, math.inf),
]


@pytest.mark.parametrize("start", NONFINITE_STARTS)
def test_nonfinite_start_raises_only_a_solver_error(start):
    # no warning, OverflowError or ZeroDivisionError escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((SingularJacobian, NoConvergence)):
            newton_solve(RhombusParams(*start))


box = st.floats(-3.0, 3.0)
# each coordinate from the box or any float: huge, infinite and NaN too
wild = st.one_of(box, st.floats())


def _step_terms_of_max(*terms):
    """_step_terms with builtin max in place of _larger."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_larger", max)
        return solver._step_terms(*terms)


def _newton_scalar_reference(start):
    """_newton_scalar as it was, with builtin max and a norm per trial: the
    oracle for its iterates, statuses and line-search trials."""
    x = tuple(map(float, start))
    f = solver._residuals(*x)
    fn = solver._max_norm(f)
    for _ in range(solver.DEFAULT_MAX_ITER):
        if fn <= solver.DEFAULT_TOL:
            return x, CONVERGED
        numerators, det, singular = _step_terms_of_max(*x, *f)
        if singular:
            return x, SINGULAR
        if not det:
            return x, STALLED
        h, k, p, q = x
        sh, sk, sp, sq = (n / det for n in numerators)
        for damping in solver._DAMPINGS:
            trial = (h + damping * sh, k + damping * sk, p + damping * sp,
                     q + damping * sq)
            f_trial = solver._residuals(*trial)
            fn_trial = solver._max_norm(f_trial)
            if fn_trial < fn:
                break
        else:
            return x, STALLED
        x, f, fn = trial, f_trial, fn_trial
    return x, CONVERGED if fn <= solver.DEFAULT_TOL else BUDGET


def _assert_scalar_driver_matches_the_reference(starts):
    """The same iterate by float.hex, status and number of line-search
    trials, each counted as solver._DAMPINGS hands out its damping, so no
    extra trial is evaluated."""
    trials = []

    class CountingDampings(tuple):
        def __iter__(self):
            for damping in tuple.__iter__(self):
                trials.append(None)
                yield damping

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_DAMPINGS", CountingDampings(solver._DAMPINGS))
        for start in starts:
            x, code = _newton_scalar(start)
            count = len(trials)
            want_x, want_code = _newton_scalar_reference(start)
            assert code == want_code, start
            assert [t.hex() for t in x] == [t.hex() for t in want_x], start
            assert len(trials) == 2 * count, start
            trials.clear()


def test_scalar_driver_matches_the_reference_on_box_starts():
    lows, highs = np.full(4, DEFAULT_BOX[0]), np.full(4, DEFAULT_BOX[1])
    starts = np.random.default_rng(0).uniform(lows, highs, (10_000, 4))
    _assert_scalar_driver_matches_the_reference(starts.tolist())


def test_scalar_driver_matches_the_reference_on_singular_and_nonfinite_starts():
    _assert_scalar_driver_matches_the_reference(EXACTLY_SINGULAR
                                                + NONFINITE_STARTS)


def test_scalar_driver_matches_the_reference_on_near_singular_starts():
    _assert_scalar_driver_matches_the_reference(_near_singular_rows())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(start=st.one_of(st.tuples(box, box, box, box),
                       st.tuples(wild, wild, wild, wild)))
def test_scalar_driver_matches_the_reference_on_any_start(start):
    _assert_scalar_driver_matches_the_reference([start])


def test_larger_gives_the_step_terms_of_max():
    rows = np.random.default_rng(1).uniform(-3.0, 3.0, (10_000, 4)).tolist()
    for row in rows:
        terms = (*row, *solver._residuals(*row))
        assert solver._step_terms(*terms) == _step_terms_of_max(*terms)
    # non-finite rows: some maxima differ by a NaN, never the verdict
    specials = [math.inf, -math.inf, math.nan, 1e300, 0.0]
    rng = np.random.default_rng(2)
    rows = EXACTLY_SINGULAR + NONFINITE_STARTS + [
        tuple(specials[i] if i < len(specials) else x
              for i, x in zip(rng.integers(0, 10, 4).tolist(), row))
        for row in rng.uniform(-3.0, 3.0, (10_000, 4)).tolist()]
    for row in rows:
        terms = (*row, *solver._residuals(*row))
        assert solver._step_terms(*terms)[2] == _step_terms_of_max(*terms)[2], row


class TestSeedStream:
    """Start i is the i-th four uniform draws of Random(rng_seed), in the
    order h, k, p, q, for any seed count."""

    @staticmethod
    def _starts(monkeypatch, seed_count, rng_seed):
        captured = []

        def newton(start):
            captured.append(start)
            return start, BUDGET

        monkeypatch.setattr(solver, "_newton_scalar", newton)
        assert enumerate_solutions(seed_count=seed_count, rng_seed=rng_seed) == []
        return captured

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_fewer_seeds_are_a_prefix(self, monkeypatch, rng_seed):
        few = self._starts(monkeypatch, 300, rng_seed)
        many = self._starts(monkeypatch, 1000, rng_seed)
        assert len(few) == 300
        assert few == many[:300]

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_starts_are_uniform_draws_from_the_box(self, monkeypatch, rng_seed):
        uniform = random.Random(rng_seed).uniform
        want = [tuple(uniform(*DEFAULT_BOX) for _ in range(4)) for _ in range(300)]
        assert self._starts(monkeypatch, 300, rng_seed) == want

    def test_a_huge_seed_count_draws_one_start_first(self, monkeypatch):
        class Stop(Exception):
            pass

        starts = []

        def newton(start):
            starts.append(start)
            raise Stop

        monkeypatch.setattr(solver, "_newton_scalar", newton)
        with pytest.raises(Stop):
            enumerate_solutions(seed_count=10**12)
        assert len(starts) == 1


class TestEnumerateSolutions:
    def test_finds_exactly_two_nondegenerate_roots(self, solutions):
        assert len(solutions) == 2

    def test_roots_match_frozen_values(self, solutions):
        for got, want in zip(solutions, (KNOWN_SOLUTION, REFLECTED_SOLUTION)):
            for a, b in zip(got.as_tuple(), want):
                assert abs(a - b) < 1e-9

    def test_sorted_lexicographically(self, solutions):
        assert solutions[0].as_tuple() <= solutions[1].as_tuple()
        assert solutions == sorted(solutions)

    def test_all_roots_meet_tolerance(self, solutions):
        for params in solutions:
            assert solver._max_norm(solver._residuals(*params.as_tuple())) <= 1e-12
            assert params.h > 0 and params.k > 0

    def test_bitwise_deterministic(self):
        first = enumerate_solutions(seed_count=500, rng_seed=3)
        second = enumerate_solutions(seed_count=500, rng_seed=3)
        assert first == second

    def test_single_bad_seed_gives_empty_list(self):
        assert enumerate_solutions(seed_count=1, rng_seed=1) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=0)

    @pytest.mark.parametrize("h, kept", [(1.9e-6, False), (2.1e-6, True)])
    def test_filter_keeps_roots_with_vertices_1e_6_apart(self, h, kept):
        # vertices 1 and 8 are h/2 apart; the drawing also has vertices on
        # edges and overlapping edges, which the filter must not reject
        params = RhombusParams(h, 2.0, 0.3, 0.4)
        report = solver.verify(solver.layout.rhombus_layout(params))
        assert report.min_vertex_separation_witness == (1, 8)
        assert report.degeneracies and not report.is_faithful
        assert _is_nondegenerate(params) is kept


def _converged_iterates(seed_count, rng_seed):
    """The converged _newton_scalar iterates of enumerate_solutions'
    starts, in seed order."""
    uniform = random.Random(rng_seed).uniform
    iterates = []
    for _ in range(seed_count):
        x, code = _newton_scalar(tuple(uniform(*DEFAULT_BOX) for _ in range(4)))
        if code == CONVERGED:
            iterates.append(x)
    return iterates


def _distance(x, y):
    return max(abs(a - b) for a, b in zip(x, y))


@pytest.mark.parametrize("seed_count, rng_seed", [(200, 0), (600, 1), (600, 5)])
# at 1.5 degenerate representatives absorb the faithful roots' iterates:
# 600 starts at rng 1 keep two degenerate representatives and find no root
@pytest.mark.parametrize("dedupe_tol", [1e-6, 1e-2, 0.5, 1.5])
def test_dedupe_keeps_the_greedy_representatives(monkeypatch, seed_count,
                                                 rng_seed, dedupe_tol):
    # the representatives are what the filter sees, in the order it sees them
    representatives = []

    def recording(params):
        representatives.append(params.as_tuple())
        return _is_nondegenerate(params)

    monkeypatch.setattr(solver, "DEFAULT_DEDUPE_TOL", dedupe_tol)
    monkeypatch.setattr(solver, "_is_nondegenerate", recording)
    found = enumerate_solutions(seed_count=seed_count, rng_seed=rng_seed)
    iterates = _converged_iterates(seed_count, rng_seed)
    assert all(_distance(x, y) >= dedupe_tol
               for i, x in enumerate(representatives)
               for y in representatives[:i])
    assert all(any(_distance(x, y) < dedupe_tol for y in representatives)
               for x in iterates)
    # greedy in seed order: an iterate is kept when it is far from every
    # iterate kept before it
    greedy = []
    for x in iterates:
        if all(_distance(x, y) >= dedupe_tol for y in greedy):
            greedy.append(x)
    assert representatives == greedy
    assert found == sorted(RhombusParams(*x) for x in greedy
                           if _is_nondegenerate(RhombusParams(*x)))


def test_enumerate_memory_is_bounded():
    # memory is O(distinct roots) for any seed count
    tracemalloc.start()
    try:
        assert len(enumerate_solutions(seed_count=10_000)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class TestMirrorRoots:
    """The two roots are each other's mirror in y = x (conftest.is_mirror)."""

    def test_true_for_the_two_roots(self, solutions):
        assert is_mirror(solutions[0], solutions[1])
        assert is_mirror(solutions[1], solutions[0])

    def test_false_for_solution_with_itself(self, solutions):
        # h != k, so the drawing is not its own mirror image in y = x
        assert not is_mirror(solutions[0], solutions[0])


class TestSerialization:
    def test_round_trip(self):
        params = RhombusParams(*KNOWN_SOLUTION)
        data = solution_to_json_dict(params)
        assert set(data) == {"h", "k", "p", "q", "residual_max"}
        assert data["residual_max"] < 1e-12
        assert solution_from_json_dict(data) == params
