"""Optimal-transport ensemble filtering with nonlinear equality constraints.

The update step of a Bayesian filter is posed as a transportation linear
program over ensemble members; four constraint-handling variants (posterior
projection with or without feedback, measurement augmentation, and their
combination) keep estimates near a known state equality constraint.  The
same resampling step doubles as a sampler for densities on convex supports.
"""

from .ensemble import Ensemble, covariance, cross_covariance, from_gaussian, mean
from .errors import (
    ConfigError,
    DecompositionError,
    EmptySupportError,
    InsufficientSamplesError,
    InvalidEnsembleError,
    InvalidMeasurementError,
    InvalidPlanError,
    MarginalInfeasibilityError,
    NonconvergenceError,
    OTFilterError,
)
from .filters import (
    FilterRunResult,
    FilterState,
    FilterVariant,
    ProjectionArtifacts,
    ProjectionInnovation,
    compute_weights,
    constraint_projection,
    filter_step,
    ot_update,
    run_filter,
)
from .harness import (
    ExperimentConfig,
    MonteCarloResult,
    RunRecord,
    TruthData,
    VariantAggregate,
    config_from_dict,
    config_from_json,
    config_to_dict,
    monte_carlo,
    rms_constraint_error,
    run_single,
    simulate_truth,
    write_outputs,
)
from .models import (
    AugmentedMeasurementModel,
    ConstraintSpec,
    MeasurementModel,
    PendulumParams,
    pendulum_constraint,
    pendulum_constraint_spec,
    pendulum_derivative,
    pendulum_measurement_model,
    propagate_ensemble,
    rk4_step,
)
from .sampling import (
    TargetDensity,
    annulus_coverage,
    annulus_proposal,
    bimodal_target,
    ot_sample,
    uniform_annulus_target,
)
from .transport import (
    CostMatrix,
    CostMetric,
    TransportPlan,
    WeightVector,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)

__version__ = "0.1.0"
