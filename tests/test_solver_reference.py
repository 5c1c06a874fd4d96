"""The transportation simplex against its frozen pre-rewrite reference.

Output bytes of the filter depend on which optimal vertex the solver
returns, so every solver path (the Python loop and the compiled kernel with
either pricing loop) must reproduce the reference's pivot sequence exactly:
the same allocation array, bit for bit, or the same iteration-limit error
with the same diagnostics.
"""

import numpy as np
import pytest

from otfilter import transport
from otfilter.errors import NonconvergenceError

import reference_simplex
from helpers import kernel_for, solver_kernels

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
    """Run the reference and every solver path on the live rows of one
    instance, as solve_transport does."""
    n = cost.shape[1]
    live = supply > 0.0
    cost, supply = cost[live], supply[live]
    demand = np.full(n, 1.0 / n)
    expected = _solve(reference_simplex._transportation_simplex, cost, supply, demand)
    for path, kernel in solver_kernels():
        solver = transport._transportation_simplex if kernel is None else kernel.transportation_simplex
        got = _solve(solver, cost, supply, demand)
        if isinstance(expected, NonconvergenceError):
            assert isinstance(got, NonconvergenceError), f"{path}: reference hit its limit, path did not"
            assert str(got) == str(expected)
            assert got.diagnostics == expected.diagnostics, path
        else:
            assert isinstance(got, np.ndarray), f"{path} raised {got!r}"
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), f"{path}: allocation bits differ"
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


def test_least_cost_start_matches_python():
    # The kernel's heap of row heads must pick the cells of the stable
    # argsort scan in the same order, with the same allocations.
    kernel = kernel_for("c-scalar")
    rng = np.random.default_rng(20263)
    instances = [*_instances(rng, 300, 2, 40), *_instances(rng, 4, 100, 300)]
    signed_zeros = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0], [1.0, 0.0, -0.0]])
    instances.append((signed_zeros, np.array([0.5, 0.25, 0.25])))
    for cost, supply in instances:
        live = supply > 0.0
        cost, supply = cost[live], supply[live]
        demand = np.full(cost.shape[1], 1.0 / cost.shape[1])
        expected = transport._initial_basic_solution(cost, supply, demand)
        assert kernel.initial_basic_solution(cost, supply, demand) == expected


def _tie_heavy(rng, n, shape):
    """A cost matrix and live supply on which many rows' cheapest open
    cells go stale again and again: equal costs, or rows that all want the
    same columns."""
    supply = _weights(rng, n, "counts" if shape == "counts" else "skewed")
    if shape == "lattice":
        cost = _cost(rng.integers(0, 4, size=(n, 2)).astype(float), "euclidean")
    elif shape == "duplicated":
        distinct = rng.normal(size=(max(2, n // 10), 2))
        cost = _cost(distinct[rng.integers(0, len(distinct), size=n)], "sqeuclidean")
    elif shape == "cheap-column":
        cost = _cost(rng.normal(size=(n, 2)), "euclidean")
        cost[:, rng.integers(0, n)] = 0.0
    elif shape == "same-preference":
        cost = np.add.outer(rng.normal(size=n), rng.integers(0, 8, size=n).astype(float))
    else:  # k/N counts on 1-D points
        cost = _cost(rng.normal(size=(n, 1)), "euclidean")
    # Zero rows are removed, as solve_transport does.
    live = supply > 0.0
    return cost[live], supply[live]


TIE_HEAVY_SHAPES = ("lattice", "duplicated", "cheap-column", "same-preference", "counts")


@pytest.mark.parametrize("shape", TIE_HEAVY_SHAPES)
def test_least_cost_start_matches_python_on_tie_heavy_shapes(shape):
    kernel = kernel_for("c-scalar")
    rng = np.random.default_rng(20264)
    for n in (2, 7, 40, 120, 300):
        cost, supply = _tie_heavy(rng, n, shape)
        demand = np.full(cost.shape[1], 1.0 / cost.shape[1])
        expected = transport._initial_basic_solution(cost, supply, demand)
        assert kernel.initial_basic_solution(cost, supply, demand) == expected, n
