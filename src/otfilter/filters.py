"""Constraint-aware optimal-transport filters.

Each step propagates the ensemble, converts measurement likelihoods into
weights, resamples through the transport LP, and then applies the selected
constraint-handling policy:

* ``OTF``      plain transport update, constraints ignored;
* ``OTPROJ``   project the posterior for reporting, feed the unprojected
  ensemble forward;
* ``OTNLEQ``   project and feed the projected ensemble forward;
* ``OTMA``     score weights against the constraint-augmented measurement;
* ``OTNLEQMA`` augmented weights plus projection with feedback.

The projection is a per-member gain update built from ensemble statistics
of the constraint values.  Its default innovation ``d - g(x_i)`` pulls
every member toward the constraint target and is exact for linear
constraints; the ``paper-literal`` alternative recenters members around
their own mean constraint value, which preserves the ensemble mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .ensemble import Ensemble, covariance, cross_covariance, mean
from .errors import InsufficientSamplesError, InvalidEnsembleError, InvalidMeasurementError
from .models import (
    AugmentedMeasurementModel,
    ConstraintSpec,
    MeasurementModel,
    gaussian_log_likelihoods,
    propagate_ensemble,
)
from .transport import (
    CostMetric,
    WeightVector,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)

if TYPE_CHECKING:
    from .harness import ExperimentConfig

# Raw likelihoods below this floor on every member trigger the uniform fallback.
UNDERFLOW_FLOOR = 1e-300
_LOG_UNDERFLOW = math.log(UNDERFLOW_FLOOR)

_CONDITION_LIMIT = 1e12


class FilterVariant(str, Enum):
    OTF = "otf"
    OTPROJ = "otproj"
    OTNLEQ = "otnleq"
    OTMA = "otma"
    OTNLEQMA = "otnleqma"

    @property
    def uses_augmentation(self) -> bool:
        return self in (FilterVariant.OTMA, FilterVariant.OTNLEQMA)

    @property
    def uses_projection(self) -> bool:
        return self in (
            FilterVariant.OTPROJ,
            FilterVariant.OTNLEQ,
            FilterVariant.OTNLEQMA,
        )

    @property
    def uses_feedback(self) -> bool:
        return self in (FilterVariant.OTNLEQ, FilterVariant.OTNLEQMA)


class ProjectionInnovation(str, Enum):
    """Innovation driving the projection gain.

    ``STANDARD`` uses d - g(x_i): members move toward the constraint target
    (exact for linear constraints).  ``PAPER_LITERAL`` uses g(x_i) - d_hat:
    members are recentered about their own mean constraint value, leaving
    the ensemble mean untouched.
    """

    STANDARD = "standard"
    PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class FilterState:
    """Posterior fed to the next propagation plus the ensemble used for
    estimates; they differ only for the projected (non-feedback) variant.
    The flags name the numerical fallbacks the last step took."""

    posterior: Ensemble
    reported: Ensemble
    k: int = 0
    t: float = 0.0
    degenerate_weights: bool = False
    sigma_dd_regularized: bool = False


@dataclass(frozen=True)
class ProjectionArtifacts:
    """Whether one projection ridge-regularized a near-singular Sigma_dd."""

    regularized: bool


@dataclass(frozen=True)
class FilterRunResult:
    """Per-step series from a filter run, plus the t=0 statistics."""

    t: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    constraint_error: np.ndarray
    initial_mean: np.ndarray
    initial_std: np.ndarray
    initial_constraint_error: float
    degenerate_steps: int = 0
    regularized_steps: int = 0


def compute_weights(
    prior: Ensemble,
    y: np.ndarray,
    model: MeasurementModel | AugmentedMeasurementModel,
) -> tuple[WeightVector, bool]:
    """Normalized likelihood weights for each member.

    Returns the weights and a degeneracy flag: when every raw likelihood
    underflows the floating-point floor the weights fall back to uniform
    and the flag is set instead of aborting the run.
    """
    y = np.asarray(y, dtype=float)
    if y.size != model.dim:
        raise ValueError(
            f"measurement dimension {y.size} does not match model dimension {model.dim}"
        )
    logs = gaussian_log_likelihoods(y, model.predict_members(prior.members), model.noise_cov())
    if logs.max() < _LOG_UNDERFLOW:
        n = prior.size
        return WeightVector(np.full(n, 1.0 / n)), True
    w = np.exp(logs - logs.max())
    return WeightVector(w / w.sum()), False


def ot_update(
    prior: Ensemble,
    weights: WeightVector,
    metric: CostMetric = CostMetric.EUCLIDEAN,
) -> Ensemble:
    """Resample the weighted prior into an equally weighted posterior."""
    cost = build_cost_matrix(prior, metric)
    plan = solve_transport(cost, weights)
    return apply_transport(prior, plan)


def constraint_projection(
    posterior: Ensemble,
    constraint: ConstraintSpec,
    innovation: ProjectionInnovation = ProjectionInnovation.STANDARD,
) -> tuple[Ensemble, ProjectionArtifacts]:
    """Gain-based per-member correction toward the constraint surface.

    Builds d_hat, Sigma_dd, Sigma_xd from the equally weighted members and
    applies x_i + K (d - g(x_i)) (or the mean-preserving literal form).  A
    near-singular Sigma_dd is ridge-regularized and flagged.
    """
    if posterior.size < 2:
        raise InsufficientSamplesError(
            f"projection needs at least 2 members, got {posterior.size}"
        )
    innovation = ProjectionInnovation(innovation)
    members = posterior.members
    values = constraint.evaluate(members)
    d_hat = values.mean(axis=0)
    sigma_dd = cross_covariance(values, values)
    sigma_xd = cross_covariance(members, values)

    s = constraint.dim
    singular_values = np.linalg.svd(sigma_dd, compute_uv=False)
    # A constraint-value spread at roundoff level (relative to the values
    # themselves) is numerically zero even when the condition number looks
    # benign, so the singularity test needs an absolute floor too.
    scale_floor = 1e-18 * (1.0 + float(d_hat @ d_hat))
    regularized = bool(
        singular_values[-1] <= max(singular_values[0] / _CONDITION_LIMIT, scale_floor)
    )
    solve_matrix = sigma_dd
    if regularized:
        ridge = max(1e-12 * float(np.trace(sigma_dd)) / s, scale_floor)
        solve_matrix = sigma_dd + ridge * np.eye(s)
    gain = np.linalg.solve(solve_matrix.T, sigma_xd.T).T

    if innovation is ProjectionInnovation.STANDARD:
        innovations = constraint.d[None, :] - values
    else:
        innovations = values - d_hat[None, :]
    projected = Ensemble(members + innovations @ gain.T)
    return projected, ProjectionArtifacts(regularized=regularized)


def filter_step(
    state: FilterState,
    y: np.ndarray,
    variant: FilterVariant,
    config: ExperimentConfig,
) -> FilterState:
    """Advance one measurement interval: propagate, weight, resample, and
    apply the variant's projection/feedback policy.

    ``y`` is the plain measurement; the augmented variants stack the
    constraint target [y; d] themselves.
    """
    variant = FilterVariant(variant)
    model = (
        config.augmented_measurement if variant.uses_augmentation else config.measurement
    )

    try:
        prior = propagate_ensemble(
            state.posterior, config.pendulum, config.dt, config.substeps
        )
    except InvalidEnsembleError as exc:
        raise InvalidEnsembleError(
            f"step {state.k + 1}: propagated ensemble is not finite"
        ) from exc
    weights, degenerate = compute_weights(prior, model.effective_observation(y), model)
    posterior = ot_update(prior, weights, config.metric)

    regularized_flag = False
    if variant.uses_projection:
        reported, artifacts = constraint_projection(
            posterior, config.constraint, config.projection_innovation
        )
        regularized_flag = artifacts.regularized
        fed_forward = reported if variant.uses_feedback else posterior
    else:
        reported = posterior
        fed_forward = posterior

    return FilterState(
        posterior=fed_forward,
        reported=reported,
        k=state.k + 1,
        t=state.t + config.dt,
        degenerate_weights=degenerate,
        sigma_dd_regularized=regularized_flag,
    )


def run_filter(
    initial: Ensemble,
    measurements: np.ndarray,
    variant: FilterVariant,
    config: ExperimentConfig,
) -> FilterRunResult:
    """Run one filter over a measurement series.

    ``measurements`` holds one plain (unaugmented) measurement per row; the
    augmented variants stack the constraint target internally.  The
    constraint error at each step is | sqrt(x_hat^2 + y_hat^2) - L |
    evaluated at the reported-ensemble mean.  A non-finite measurement
    raises ``InvalidMeasurementError`` naming the first bad step before any
    step runs.
    """
    variant = FilterVariant(variant)
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size == 0:
        measurements = measurements.reshape(0, config.measurement.dim)
    else:
        measurements = np.atleast_2d(measurements)
    bad_rows = np.flatnonzero(~np.isfinite(measurements).all(axis=1))
    if bad_rows.size:
        row = int(bad_rows[0])
        raise InvalidMeasurementError(
            f"measurement for step {row + 1} (row {row}) is not finite"
        )

    state = FilterState(posterior=initial, reported=initial)
    times, means, stds, errors = [], [], [], []
    degenerate_steps = 0
    regularized_steps = 0
    for y in measurements:
        state = filter_step(state, y, variant, config)
        est = mean(state.reported)
        times.append(state.t)
        means.append(est)
        stds.append(np.sqrt(np.diag(covariance(state.reported))))
        errors.append(_length_error(est, config.pendulum.L))
        degenerate_steps += state.degenerate_weights
        regularized_steps += state.sigma_dd_regularized

    initial_mean = mean(initial)
    initial_std = (
        np.sqrt(np.diag(covariance(initial)))
        if initial.size > 1
        else np.zeros(initial.dim)
    )
    n = len(times)
    return FilterRunResult(
        t=np.asarray(times),
        mean=np.asarray(means).reshape(n, initial.dim),
        std=np.asarray(stds).reshape(n, initial.dim),
        constraint_error=np.asarray(errors),
        initial_mean=initial_mean,
        initial_std=initial_std,
        initial_constraint_error=_length_error(initial_mean, config.pendulum.L),
        degenerate_steps=degenerate_steps,
        regularized_steps=regularized_steps,
    )


def _length_error(estimate: np.ndarray, length: float) -> float:
    """Absolute error between estimated and true pendulum length."""
    return float(abs(math.hypot(estimate[0], estimate[1]) - length))
