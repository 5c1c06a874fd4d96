"""Invariants of the transport update and the projection, as properties.

Each property runs on every solver path: the Python loop and the compiled
kernel.  ``derandomize=True`` makes hypothesis draw the same examples on
every run, so the suite stays deterministic.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfilter import transport
from otfilter.ensemble import Ensemble
from otfilter.filters import ProjectionInnovation, constraint_projection, ot_update
from otfilter.models import ConstraintSpec
from otfilter.transport import (
    MARGINAL_TOL,
    CostMetric,
    WeightVector,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)

from helpers import SOLVER_PATHS, kernel_for

PROPERTY = settings(derandomize=True, deadline=None)


@pytest.fixture(scope="module", params=SOLVER_PATHS)
def kernel(request):
    return kernel_for(request.param)


def _on_path(kernel):
    return mock.patch.object(transport, "_load_kernel", lambda: kernel)


@st.composite
def weighted_ensembles(draw, coordinates):
    """N <= 40 members in d <= 4 dimensions, some duplicated, with
    normalized weights that may leave rows at zero."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 4))
    members = np.array(draw(st.lists(coordinates, min_size=n * dim, max_size=n * dim)))
    members = members.reshape(n, dim)
    for target, source in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                        max_size=n // 2)):
        members[target] = members[source]
    raw = np.array(draw(st.lists(st.one_of(st.integers(0, 8), st.floats(0.0, 1.0)),
                                 min_size=n, max_size=n)), dtype=float)
    if raw.sum() == 0.0:
        raw[draw(st.integers(0, n - 1))] = 1.0
    return Ensemble(members), WeightVector(raw / raw.sum())


FLOATS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
# Multiples of 1/4: the constraint values of a linear map are then exact,
# and Sigma_dd is either zero (regularised) or well away from zero.
QUARTERS = st.integers(-32, 32).map(lambda k: k / 4.0)
METRIC = st.sampled_from(list(CostMetric))


@PROPERTY
@given(case=weighted_ensembles(FLOATS), metric=METRIC)
def test_plan_marginals(kernel, case, metric):
    prior, weights = case
    with _on_path(kernel):
        plan = solve_transport(build_cost_matrix(prior, metric), weights)
    n = prior.size
    assert np.max(np.abs(plan.T.sum(axis=1) - weights.w)) <= MARGINAL_TOL
    assert np.max(np.abs(plan.T.sum(axis=0) - 1.0 / n)) <= MARGINAL_TOL


@PROPERTY
@given(case=weighted_ensembles(FLOATS), metric=METRIC)
def test_posterior_members_are_convex_combinations(kernel, case, metric):
    prior, weights = case
    with _on_path(kernel):
        plan = solve_transport(build_cost_matrix(prior, metric), weights)
    mixing = prior.size * plan.T
    assert np.all(mixing >= 0.0)
    assert np.max(np.abs(mixing.sum(axis=0) - 1.0)) <= prior.size * MARGINAL_TOL
    posterior = apply_transport(prior, plan).members
    spread = 1e-12 * (1.0 + np.abs(prior.members).max())
    assert np.all(posterior >= prior.members.min(axis=0) - spread)
    assert np.all(posterior <= prior.members.max(axis=0) + spread)


@PROPERTY
@given(case=weighted_ensembles(FLOATS), metric=METRIC)
def test_posterior_mean_is_weighted_prior_mean(kernel, case, metric):
    prior, weights = case
    with _on_path(kernel):
        posterior = ot_update(prior, weights, metric)
    gap = np.abs(posterior.members.mean(axis=0) - weights.w @ prior.members)
    assert np.all(gap <= 1e-12 * (1.0 + np.abs(prior.members).max()))


@PROPERTY
@given(
    case=weighted_ensembles(QUARTERS),
    metric=METRIC,
    rows=st.integers(1, 2),
    entries=st.lists(st.integers(-3, 3), min_size=16, max_size=16),
    offsets=st.lists(QUARTERS, min_size=4, max_size=4),
)
def test_standard_projection_is_exact_for_linear_constraints(
    kernel, case, metric, rows, entries, offsets
):
    prior, weights = case
    dim = prior.dim
    A = np.array(entries[: rows * dim], dtype=float).reshape(rows, dim)
    b, d = np.array(offsets[:rows]), np.array(offsets[2 : 2 + rows])
    spec = ConstraintSpec(g_fn=lambda x: x @ A.T + b, d=d)
    with _on_path(kernel):
        posterior = ot_update(prior, weights, metric)
    projected, artifacts = constraint_projection(posterior, spec, ProjectionInnovation.STANDARD)
    if artifacts.regularized:
        return
    assert np.max(np.abs(projected.members @ A.T + b - d)) <= 1e-9
