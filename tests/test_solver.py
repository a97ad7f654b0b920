"""Residuals, Jacobians, Newton iteration, and root enumeration."""

import numpy as np
import pytest

from conftest import KNOWN_SOLUTION, REFERENCE_6DP, REFLECTED_SOLUTION
from unitdist import solver
from unitdist.layout import _is_nondegenerate
from unitdist.solver import (BUDGET, CONVERGED, DEFAULT_BOX, DEFAULT_MAX_ITER,
                             DEFAULT_TOL, SINGULAR, STALLED, NoConvergence,
                             RhombusParams, SingularJacobian, SolverError,
                             _newton_step, _newton_sweep, _residual_array,
                             check_reflection_pair, enumerate_solutions,
                             jacobian, newton_solve, residual,
                             solution_from_json_dict, solution_to_json_dict)


class TestResidual:
    def test_first_equation_at_h2(self):
        assert residual(RhombusParams(2.0, 0.0, 0.0, 0.0)).f1 == 0.0

    def test_origin(self):
        assert residual(RhombusParams(0.0, 0.0, 0.0, 0.0)) == (-4.0, 0.0, 0.0, -1.0)

    def test_reference_values_nearly_solve(self):
        params = RhombusParams(*REFERENCE_6DP)
        assert residual(params).max_abs() < 1e-4

    def test_frozen_root_solves(self):
        assert residual(RhombusParams(*KNOWN_SOLUTION)).max_abs() < 1e-12
        assert residual(RhombusParams(*REFLECTED_SOLUTION)).max_abs() < 1e-12

    def test_single_sign_flips_break_the_system(self):
        # guards against accidentally assuming axiswise sign symmetry
        base = KNOWN_SOLUTION
        for axis in range(4):
            flipped = list(base)
            flipped[axis] = -flipped[axis]
            assert residual(RhombusParams(*flipped)).max_abs() > 1e-2


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
                plus = residual(RhombusParams(*(x + step).tolist()))
                minus = residual(RhombusParams(*(x - step).tolist()))
                fd = (np.array(plus) - np.array(minus)) / (2.0 * dx)
                worst = max(worst, float(np.abs(jac[:, col] - fd).max()))
        assert worst < 1e-5


class TestNewtonSolve:
    def test_converges_from_nearby_seed(self):
        found = newton_solve(RhombusParams(1.1, 1.6, 0.9, 0.1),
                             tol=1e-12, max_iter=50)
        for got, want in zip(found.as_tuple(), REFERENCE_6DP):
            assert abs(got - want) < 1e-5
        assert residual(found).max_abs() <= 1e-12

    def test_seed_at_solution_is_returned_unchanged(self):
        seed = RhombusParams(*KNOWN_SOLUTION)
        assert newton_solve(seed, tol=1e-12) == seed

    def test_origin_is_singular(self):
        with pytest.raises((SingularJacobian, NoConvergence)):
            newton_solve(RhombusParams(0.0, 0.0, 0.0, 0.0))

    def test_solver_errors_share_base_class(self):
        assert issubclass(SingularJacobian, SolverError)
        assert issubclass(NoConvergence, SolverError)

    def test_rejects_bad_arguments(self):
        seed = RhombusParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            newton_solve(seed, tol=0.0)
        with pytest.raises(ValueError):
            newton_solve(seed, max_iter=0)

    def test_exhausts_iteration_budget(self):
        with pytest.raises(NoConvergence):
            newton_solve(RhombusParams(2.5, 2.5, 2.5, 2.5), tol=1e-12, max_iter=1)


class TestSharedSweep:
    """newton_solve is the one-row case of the lockstep sweep."""

    ERRORS = {SINGULAR: SingularJacobian, STALLED: NoConvergence,
              BUDGET: NoConvergence}

    def test_each_newton_solve_matches_its_row_of_one_sweep(self):
        starts = np.random.default_rng(11).uniform(-3.0, 3.0, (200, 4))
        final, status = _newton_sweep(starts, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert set(status.tolist()) >= {CONVERGED, STALLED}
        for row, x, code in zip(starts.tolist(), final.tolist(), status.tolist()):
            if code == CONVERGED:
                assert newton_solve(RhombusParams(*row)).as_tuple() == tuple(x)
            else:
                with pytest.raises(SolverError) as info:
                    newton_solve(RhombusParams(*row))
                assert type(info.value) is self.ERRORS[code]

    def test_origin_raises_exactly_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(RhombusParams(0.0, 0.0, 0.0, 0.0))

    def test_stalling_start_reports_the_stall(self):
        seed = RhombusParams(-2.0, -2.0, -2.0, -2.0)
        _, status = _newton_sweep([seed.as_tuple()], DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert status.tolist() == [STALLED]
        with pytest.raises(NoConvergence, match="stalled"):
            newton_solve(seed)

    def test_budget_status_reports_the_iteration_count(self):
        seed = RhombusParams(-1.0, -0.5, -2.0, 0.0)
        _, status = _newton_sweep([seed.as_tuple()], DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert status.tolist() == [BUDGET]
        with pytest.raises(NoConvergence, match="after 100 iterations"):
            newton_solve(seed)

    def test_enumerate_rejects_bad_tolerance_and_budget(self):
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=10, tol=0.0)
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=10, max_iter=0)


def _lapack_singular(row):
    """The singular test on the row-equilibrated Jacobian, through LAPACK."""
    jac = jacobian(RhombusParams(*row))
    scale = np.abs(jac).max(axis=1, keepdims=True)
    return not scale.all() or abs(np.linalg.det(jac / scale)) < 1e-14


def _closed_form(rows):
    x = np.array(rows, dtype=float).T.copy()
    return _newton_step(x, _residual_array(x))


class TestClosedFormStep:
    """_newton_step against np.linalg on the full 4x4 Jacobian."""

    def test_step_matches_lapack_solve(self):
        rows = np.random.default_rng(31).uniform(-3.0, 3.0, (1000, 4))
        step, singular = _closed_form(rows)
        assert not singular.any()
        for row, got in zip(rows.tolist(), step.T):
            params = RhombusParams(*row)
            want = np.linalg.solve(jacobian(params), -np.array(residual(params)))
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_singular_verdict_matches_lapack_determinant(self):
        # bisect det J along random segments whose ends differ in sign: the
        # limits are numerically singular; a 1e-9 move along the segment
        # makes the scaled determinant about 1e-9, far above 1e-14
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
            rows += [lo.tolist(), (lo + 1e-9 * (lo - hi) / np.abs(lo - hi).max()).tolist()]
        verdicts = [_lapack_singular(row) for row in rows]
        assert 20 <= sum(verdicts) < len(verdicts)
        step, singular = _closed_form(rows)
        assert singular.tolist() == verdicts
        assert not step[:, singular].any()

    @pytest.mark.parametrize("row", [
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 1.3, -0.7),    # h = k = 0: row 1 of J is zero
        (0.7, 1.5, 0.0, 0.5),     # a = p = 0: row 2
        (0.25, -1.1, 0.75, 0.0),  # b = q = 0: row 3
        (1.0, 0.5, 0.5, -0.25),   # c = d = 0: row 4
    ], ids=["origin", "h-k", "a-p", "b-q", "c-d"])
    def test_exactly_singular_points(self, row):
        assert _lapack_singular(row)
        step, singular = _closed_form([row])
        assert singular.tolist() == [True]
        assert step.tolist() == [[0.0]] * 4
        with pytest.raises(SingularJacobian):
            newton_solve(RhombusParams(*row))


class TestSeedStream:
    """Start i is the same for any seed count and any chunking of the draw."""

    @staticmethod
    def _starts(monkeypatch, seed_count, rng_seed):
        captured = []

        def sweep(seeds, tol, max_iter):
            captured.append(seeds)
            return seeds, np.full(len(seeds), BUDGET)

        monkeypatch.setattr(solver, "_newton_sweep", sweep)
        assert enumerate_solutions(seed_count=seed_count, rng_seed=rng_seed) == []
        return captured[0]

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_fewer_seeds_are_a_prefix(self, monkeypatch, rng_seed):
        few = self._starts(monkeypatch, 300, rng_seed)
        many = self._starts(monkeypatch, 1000, rng_seed)
        assert few.shape == (300, 4)
        assert np.array_equal(few, many[:300])

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_chunked_draws_concatenate_to_the_stream(self, monkeypatch, rng_seed):
        lows, highs = np.array(DEFAULT_BOX).T
        rng = np.random.default_rng(rng_seed)
        chunks = [rng.uniform(lows, highs, (n, 4)) for n in (120, 180)]
        assert np.array_equal(np.concatenate(chunks),
                              self._starts(monkeypatch, 300, rng_seed))


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
            assert residual(params).max_abs() <= 1e-12
            assert params.h > 0 and params.k > 0

    def test_bitwise_deterministic(self):
        first = enumerate_solutions(seed_count=500, rng_seed=3)
        second = enumerate_solutions(seed_count=500, rng_seed=3)
        assert first == second

    def test_single_bad_seed_gives_empty_list(self):
        assert enumerate_solutions(seed_count=1, rng_seed=0) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=0)
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=10, dedupe_tol=0.0)
        with pytest.raises(ValueError):
            enumerate_solutions(seed_count=10, box=((1.0, -1.0),) * 4)

    def test_reflection_relation_between_the_two_roots(self, solutions):
        a, b = solutions
        assert abs(b.h - a.k) < 1e-9
        assert abs(b.k - a.h) < 1e-9
        assert abs(b.p + a.q) < 1e-9
        assert abs(b.q + a.p) < 1e-9


def _greedy_dedupe_reference(seed_count, rng_seed, dedupe_tol):
    """enumerate_solutions with the row-by-row greedy dedupe loop."""
    lows, highs = np.array(DEFAULT_BOX).T
    seeds = np.random.default_rng(rng_seed).uniform(lows, highs, (seed_count, 4))
    x, status = _newton_sweep(seeds, DEFAULT_TOL, DEFAULT_MAX_ITER)
    roots = x[status == CONVERGED]
    representatives = []
    for row in roots[np.lexsort(roots.T[::-1])]:
        if all(float(np.abs(row - rep).max()) >= dedupe_tol
               for rep in representatives):
            representatives.append(row)
    return sorted(params for params in
                  (RhombusParams(*row.tolist()) for row in representatives)
                  if _is_nondegenerate(params))


@pytest.mark.parametrize("seed_count, rng_seed", [(200, 0), (600, 1), (600, 5)])
# at 1.5 the first degenerate root's representative absorbs one faithful
# root; the other lies within 1.5 of that absorbed root, so only a dedupe
# that compares with representatives, not with every row, keeps it
@pytest.mark.parametrize("dedupe_tol", [1e-6, 1e-2, 0.5, 1.5])
def test_dedupe_keeps_the_greedy_representatives(seed_count, rng_seed, dedupe_tol):
    assert enumerate_solutions(seed_count=seed_count, rng_seed=rng_seed,
                               dedupe_tol=dedupe_tol) == \
        _greedy_dedupe_reference(seed_count, rng_seed, dedupe_tol)


class TestCheckReflectionPair:
    def test_true_for_the_two_roots(self, solutions):
        assert check_reflection_pair(solutions[0], solutions[1])
        assert check_reflection_pair(solutions[1], solutions[0])

    def test_false_for_solution_with_itself(self, solutions):
        # h != k, so the drawing is not its own mirror image in y = x
        assert not check_reflection_pair(solutions[0], solutions[0])

    def test_false_for_unrelated_parameters(self, solutions):
        other = RhombusParams(1.2, 1.6, 0.8, 0.1)
        assert not check_reflection_pair(solutions[0], other)


class TestSerialization:
    def test_round_trip(self):
        params = RhombusParams(*KNOWN_SOLUTION)
        data = solution_to_json_dict(params)
        assert set(data) == {"h", "k", "p", "q", "residual_max"}
        assert data["residual_max"] < 1e-12
        assert solution_from_json_dict(data) == params
