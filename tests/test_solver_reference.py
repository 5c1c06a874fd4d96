"""The transportation simplex against its frozen pre-rewrite reference.

Output bytes of the filter depend on which optimal vertex the solver
returns, so the tree-update solver must reproduce the reference's pivot
sequence exactly: the same allocation array, bit for bit, or the same
iteration-limit error with the same diagnostics.
"""

import numpy as np
import pytest

from otfilter.errors import NonconvergenceError
from otfilter.transport import _transportation_simplex

import reference_simplex

METRICS = ("euclidean", "sqeuclidean")


def _cost(points, metric):
    diff = points[:, None, :] - points[None, :, :]
    D = np.einsum("ijk,ijk->ij", diff, diff)
    if metric == "euclidean":
        D = np.sqrt(D)
    np.fill_diagonal(D, 0.0)
    return D


def _weights(rng, n, kind):
    """Row marginals: skewed, uniform, or k/N counts with zero rows."""
    if kind == "skewed":
        raw = rng.exponential(size=n) ** 3
        return raw / raw.sum()
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    counts = np.bincount(rng.integers(0, max(1, n // 2), size=n), minlength=n)
    return counts / n


def _points(rng, n, kind, scale=1.0):
    """Member locations: Gaussian, integer lattice (tied costs) or
    Gaussian with duplicated members (zero off-diagonal costs)."""
    dim = int(rng.integers(1, 5))
    if kind == "lattice":
        return rng.integers(0, 4, size=(n, dim)).astype(float)
    points = rng.normal(size=(n, dim)) * scale
    if kind == "duplicated":
        copies = rng.integers(0, n, size=n // 2)
        points[rng.integers(0, n, size=n // 2)] = points[copies]
    return points


def _solve(solver, cost, supply, demand):
    try:
        return solver(cost, supply, demand)
    except NonconvergenceError as exc:
        return exc


def _assert_same(cost, supply):
    """Run both solvers on the live rows of one instance, as solve_transport does."""
    n = cost.shape[1]
    live = supply > 0.0
    cost, supply = cost[live], supply[live]
    demand = np.full(n, 1.0 / n)
    expected = _solve(reference_simplex._transportation_simplex, cost, supply, demand)
    got = _solve(_transportation_simplex, cost, supply, demand)
    if isinstance(expected, NonconvergenceError):
        assert isinstance(got, NonconvergenceError), "reference hit its limit, rewrite did not"
        assert str(got) == str(expected)
        assert got.diagnostics == expected.diagnostics
    else:
        assert isinstance(got, np.ndarray), f"rewrite raised {got!r}"
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    return expected


def _instances(rng, count, n_low, n_high):
    for k in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        metric = METRICS[k % 2]
        points = _points(rng, n, ("gaussian", "lattice", "duplicated")[k % 3])
        weights = _weights(rng, n, ("skewed", "uniform", "counts", "skewed")[k % 4])
        yield _cost(points, metric), weights


def test_small_instances_match_reference():
    rng = np.random.default_rng(20260)
    for cost, weights in _instances(rng, 1000, 2, 40):
        _assert_same(cost, weights)


def test_medium_instances_match_reference():
    rng = np.random.default_rng(20261)
    for cost, weights in _instances(rng, 16, 100, 100):
        _assert_same(cost, weights)


def test_large_instances_match_reference():
    rng = np.random.default_rng(20262)
    for cost, weights in _instances(rng, 3, 300, 300):
        _assert_same(cost, weights)


@pytest.mark.parametrize("n, seed", [(20, 3), (20, 5), (40, 4)])
def test_bland_rule_instances_match_reference(monkeypatch, n, seed):
    # At 1e3 scale the squared costs reach 1e6 and rounding noise in the
    # reduced costs exceeds the absolute tolerance: degenerate pivots pile
    # up, Bland's rule takes over and the iteration limit is hit.  The
    # reference calls np.flatnonzero only under Bland's rule, which is how
    # the test sees that the rule engaged.
    bland_pivots = 0
    real_flatnonzero = np.flatnonzero

    def counting_flatnonzero(a):
        nonlocal bland_pivots
        bland_pivots += 1
        return real_flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, int(rng.integers(1, 4)))) * 1e3
    outcome = _assert_same(_cost(points, "sqeuclidean"), _weights(rng, n, "skewed"))
    assert bland_pivots > 0
    assert isinstance(outcome, NonconvergenceError)


@pytest.mark.parametrize("metric", METRICS)
def test_non_square_instance_matches_reference(metric):
    rng = np.random.default_rng(7)
    cost = _cost(rng.normal(size=(30, 2)), metric)[:11]
    supply = rng.exponential(size=11)
    _assert_same(cost, supply / supply.sum())
