"""Tests for the transportation LP and resampling map."""

import math

import numpy as np
import pytest

from otfilter.ensemble import Ensemble
from otfilter.errors import (
    InvalidEnsembleError,
    InvalidPlanError,
    MarginalInfeasibilityError,
    NonconvergenceError,
)
from otfilter.transport import (
    CostMatrix,
    CostMetric,
    TransportPlan,
    WeightVector,
    _transportation_simplex,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)

from oracle_transport import min_cost_by_enumeration, spanning_tree_count


def random_weights(rng, n):
    raw = rng.exponential(size=n)
    return WeightVector(raw / raw.sum())


class TestWeightVector:
    def test_valid(self):
        w = WeightVector(np.array([0.25, 0.75]))
        assert w.size == 2

    def test_negative_entry_rejected(self):
        with pytest.raises(MarginalInfeasibilityError):
            WeightVector(np.array([1.1, -0.1]))

    def test_bad_sum_rejected(self):
        with pytest.raises(MarginalInfeasibilityError):
            WeightVector(np.array([0.5, 0.6]))

    def test_sum_tolerance_is_tight(self):
        # 1e-12 absolute tolerance on the total
        WeightVector(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(MarginalInfeasibilityError):
            WeightVector(np.array([0.5, 0.5 + 5e-12]))


class TestBuildCostMatrix:
    def test_three_four_five_triangle(self):
        e = Ensemble(np.array([[0.0, 0.0], [3.0, 4.0]]))
        cost = build_cost_matrix(e, CostMetric.EUCLIDEAN)
        np.testing.assert_array_equal(cost.D, [[0.0, 5.0], [5.0, 0.0]])

    def test_squared_metric(self):
        e = Ensemble(np.array([[0.0, 0.0], [3.0, 4.0]]))
        cost = build_cost_matrix(e, CostMetric.SQUARED_EUCLIDEAN)
        np.testing.assert_array_equal(cost.D, [[0.0, 25.0], [25.0, 0.0]])

    def test_single_member(self):
        cost = build_cost_matrix(Ensemble(np.array([[7.0]])))
        np.testing.assert_array_equal(cost.D, [[0.0]])

    @pytest.mark.parametrize("metric", list(CostMetric))
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_two_lane_summation_order(self, dim, metric):
        # Every cost byte: (t0 + t2 + ...) + (t1 + t3 + ...), t_k being the
        # squared k-th coordinate difference, then the square root.
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(12, dim)) * rng.exponential(size=dim)
        expected = np.zeros((12, 12))
        for i in range(12):
            for j in range(12):
                if i != j:
                    lanes = [0.0, 0.0]
                    for k in range(dim):
                        t = x[i, k] - x[j, k]
                        lanes[k % 2] += t * t
                    sq = lanes[0] + lanes[1]
                    expected[i, j] = math.sqrt(sq) if metric is CostMetric.EUCLIDEAN else sq
        assert build_cost_matrix(Ensemble(x), metric).D.tobytes() == expected.tobytes()

    def test_ragged_members_rejected(self):
        with pytest.raises(InvalidEnsembleError):
            Ensemble([[1.0, 2.0], [3.0]])

    def test_invariants_on_random_ensembles(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = Ensemble(rng.normal(size=(int(rng.integers(2, 30)), 3)))
            for metric in CostMetric:
                cost = build_cost_matrix(e, metric)
                assert np.all(cost.D >= 0)
                assert np.all(np.diag(cost.D) == 0.0)
                assert np.array_equal(cost.D, cost.D.T)


class TestSolveTransport:
    def test_single_member(self):
        cost = CostMatrix(D=np.array([[0.0]]))
        plan = solve_transport(cost, WeightVector(np.array([1.0])))
        np.testing.assert_allclose(plan.T, [[1.0]])
        assert plan.objective_value == 0.0

    def test_uniform_weights_zero_diagonal_gives_identity_plan(self):
        # Positive off-diagonal costs make the diagonal plan the unique optimum.
        cost = CostMatrix(D=np.array([[0.0, 2.0], [2.0, 0.0]]))
        plan = solve_transport(cost, WeightVector(np.array([0.5, 0.5])))
        np.testing.assert_allclose(plan.T, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert abs(plan.objective_value) <= 1e-12

    def test_indicator_weights_force_plan(self):
        # Row-2 marginal 0 zeroes that row; column sums then fix row 1.
        cost = CostMatrix(D=np.array([[0.0, 1.7], [1.7, 0.0]]))
        plan = solve_transport(cost, WeightVector(np.array([1.0, 0.0])))
        np.testing.assert_allclose(plan.T, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
        # Confirmed against the vertex enumeration as well.
        obj, alloc = min_cost_by_enumeration(
            cost.D, np.array([1.0, 0.0]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(alloc, plan.T, atol=1e-12)
        np.testing.assert_allclose(plan.objective_value, obj, atol=1e-12)

    def test_weight_size_mismatch(self):
        cost = CostMatrix(D=np.zeros((2, 2)))
        with pytest.raises(MarginalInfeasibilityError):
            solve_transport(cost, WeightVector(np.array([1.0])))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            e = Ensemble(rng.normal(size=(n, int(rng.integers(1, 4)))))
            cost = build_cost_matrix(e)
            w = random_weights(rng, n)
            plan = solve_transport(cost, w)
            oracle_obj, _ = min_cost_by_enumeration(cost.D, w.w, np.full(n, 1.0 / n))
            assert abs(plan.objective_value - oracle_obj) <= 1e-8

    def test_marginals_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            e = Ensemble(rng.normal(size=(n, 4)))
            cost = build_cost_matrix(e)
            w = random_weights(rng, n)
            plan = solve_transport(cost, w)
            assert np.all(plan.T >= 0)
            np.testing.assert_allclose(plan.T.sum(axis=0), 1.0 / n, atol=1e-9)
            np.testing.assert_allclose(plan.T.sum(axis=1), w.w, atol=1e-9)
            assert abs(plan.T.sum() - 1.0) <= 1e-9

    def test_iteration_limit_reports_diagnostics(self):
        # This instance needs two pivots, so one iteration cannot finish it.
        rng = np.random.default_rng(3)
        cost = build_cost_matrix(Ensemble(rng.normal(size=(6, 2)))).D
        supply = random_weights(rng, 6).w
        with pytest.raises(NonconvergenceError) as info:
            _transportation_simplex(cost, supply, np.full(6, 1.0 / 6), max_iterations=1)
        diagnostics = info.value.diagnostics
        assert diagnostics["iterations"] == 1
        assert diagnostics["size"] == 6
        assert diagnostics["most_negative_reduced_cost"] < -1e-11

    def test_spanning_tree_counts(self):
        # Scoins' formula for K_{n,m}: n^(m-1) * m^(n-1)
        assert spanning_tree_count(2, 2) == 4
        assert spanning_tree_count(3, 3) == 81
        assert spanning_tree_count(4, 4) == 4096


class TestApplyTransport:
    def test_identity_plan_is_fixed_point(self):
        rng = np.random.default_rng(5)
        # Power-of-two size keeps N * (1/N) exact in floating point.
        e = Ensemble(rng.normal(size=(8, 3)))
        plan = TransportPlan(T=np.eye(8) / 8, objective_value=0.0)
        out = apply_transport(e, plan)
        np.testing.assert_array_equal(out.members, e.members)

    def test_weighted_mean_identity_scalar(self):
        e = Ensemble(np.array([[0.0], [2.0]]))
        w = WeightVector(np.array([0.25, 0.75]))
        plan = solve_transport(build_cost_matrix(e), w)
        out = apply_transport(e, plan)
        np.testing.assert_allclose(out.members.mean(), 1.5, atol=1e-10)

    def test_degenerate_plan_collapses_members(self):
        e = Ensemble(np.array([[4.0, -1.0], [9.0, 2.0]]))
        plan = TransportPlan(
            T=np.array([[0.5, 0.5], [0.0, 0.0]]), objective_value=0.0
        )
        out = apply_transport(e, plan)
        np.testing.assert_allclose(out.members, [[4.0, -1.0], [4.0, -1.0]])

    def test_size_mismatch_rejected(self):
        e = Ensemble(np.zeros((3, 2)))
        plan = TransportPlan(T=np.eye(2) / 2, objective_value=0.0)
        with pytest.raises(InvalidPlanError):
            apply_transport(e, plan)

    def test_mean_preservation_property(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            e = Ensemble(rng.normal(size=(n, int(rng.integers(1, 5)))))
            w = random_weights(rng, n)
            plan = solve_transport(build_cost_matrix(e), w)
            out = apply_transport(e, plan)
            target = w.w @ e.members
            np.testing.assert_allclose(out.members.mean(axis=0), target, atol=1e-10)

    def test_posterior_within_coordinate_hull_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            e = Ensemble(rng.normal(size=(n, 3)))
            w = random_weights(rng, n)
            out = apply_transport(e, solve_transport(build_cost_matrix(e), w))
            lo = e.members.min(axis=0) - 1e-10
            hi = e.members.max(axis=0) + 1e-10
            assert np.all(out.members >= lo) and np.all(out.members <= hi)

    def test_uniform_weights_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            e = Ensemble(rng.normal(size=(n, 3)))
            w = WeightVector(np.full(n, 1.0 / n))
            plan = solve_transport(build_cost_matrix(e), w)
            assert abs(plan.objective_value) <= 1e-12
            out = apply_transport(e, plan)
            # Same multiset of members; distinct draws make order unique too.
            np.testing.assert_allclose(out.members, e.members, atol=1e-10)


class TestPlanValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidPlanError):
            TransportPlan(T=np.array([[0.6, -0.1], [-0.1, 0.6]]), objective_value=0.0)

    def test_bad_column_sums_rejected(self):
        with pytest.raises(InvalidPlanError):
            TransportPlan(T=np.array([[0.4, 0.1], [0.0, 0.5]]), objective_value=0.0)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(InvalidPlanError, match="finite"):
            TransportPlan(T=np.full((2, 2), np.nan), objective_value=0.0)

    def test_cost_requires_zero_diagonal(self):
        with pytest.raises(InvalidPlanError):
            CostMatrix(D=np.array([[0.1, 1.0], [1.0, 0.0]]))
