"""Pendulum dynamics, integration, measurements, and constraint models.

The benchmark system is a planar pendulum in Cartesian coordinates
(x, y, xdot, ydot) with y pointing downward, so the hanging equilibrium
is (0, L, 0, 0).  The fixed rod length gives the state equality
constraint x^2 + y^2 = L^2, which is an invariant manifold of the
continuous dynamics but not of a discretized or assimilated trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensemble import Ensemble

DEFAULT_CONSTRAINT_SIGMA = 5e-2


@dataclass(frozen=True)
class PendulumParams:
    """Rod length L [m] and gravitational acceleration g [m/s^2]."""

    L: float = 1.0
    g: float = 9.8

    def __post_init__(self):
        if not (0 < self.L < np.inf and 0 < self.g < np.inf):
            raise ValueError(
                f"L and g must be positive and finite, got L={self.L}, g={self.g}"
            )
        # The dynamics divide by L^2, so it must neither overflow nor vanish.
        if not 0 < self.L * self.L < np.inf:
            raise ValueError(f"L squared must be positive and finite, got L={self.L}")


@dataclass(frozen=True)
class MeasurementModel:
    """Linear observation y = H x + v with v ~ N(0, R); ``chol`` is the
    lower Cholesky factor of R, computed once."""

    H: np.ndarray
    R: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)
        if R.shape != (H.shape[0], H.shape[0]):
            raise ValueError(f"R shape {R.shape} does not match H rows {H.shape[0]}")
        if not np.allclose(R, R.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "chol", np.linalg.cholesky(R))

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def log_likelihoods(self, members: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Log-likelihood of the measurement ``y`` for each member, (N,)."""
        y = _measurement(y, self.dim)
        return _log_likelihoods(members @ self.H.T, y, self.chol)


@dataclass(frozen=True)
class ConstraintSpec:
    """Equality constraint g(x) = d with g: R^n -> R^s.

    ``g_fn`` is evaluated on a whole ensemble at once: it maps (N, n) members
    to (N, s) values, or to (N,) values when s = 1.
    """

    g_fn: Callable[[np.ndarray], np.ndarray]
    d: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if not np.all(np.isfinite(d)):
            raise ValueError("constraint target d must be finite")
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.d.size

    def evaluate(self, members: np.ndarray) -> np.ndarray:
        """Constraint values for each member, (N, s)."""
        members = np.atleast_2d(members)
        values = np.asarray(self.g_fn(members), dtype=float)
        return values.reshape(members.shape[0], self.dim)


@dataclass(frozen=True)
class AugmentedMeasurementModel:
    """Observation model with the constraint appended as a perfect measurement.

    The constraint block uses a tight Gaussian pseudo-noise (sigma_g per
    constraint component) instead of a Dirac delta so off-constraint members
    keep a nonzero, strongly suppressed weight.  ``chol`` is the lower
    Cholesky factor of blockdiag(R, sigma_g^2 I), computed once.
    """

    base: MeasurementModel
    constraint: ConstraintSpec
    sigma_g: float = DEFAULT_CONSTRAINT_SIGMA
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # sigma_g**2 below raises OverflowError where this product is inf.
        if not (self.sigma_g > 0 and 0 < self.sigma_g * self.sigma_g < np.inf):
            raise ValueError(
                f"sigma_g must be positive with a nonzero, finite square, got {self.sigma_g}"
            )
        m, s = self.base.dim, self.constraint.dim
        cov = np.zeros((m + s, m + s))
        cov[:m, :m] = self.base.R
        cov[m:, m:] = self.sigma_g**2 * np.eye(s)
        object.__setattr__(self, "chol", np.linalg.cholesky(cov))

    def log_likelihoods(self, members: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Log-likelihood of the stacked observation [y; d] against
        [H x; g(x)] for each member, (N,)."""
        observed = np.concatenate([_measurement(y, self.base.dim), self.constraint.d])
        predicted = np.hstack([members @ self.base.H.T, self.constraint.evaluate(members)])
        return _log_likelihoods(predicted, observed, self.chol)


def _measurement(y: np.ndarray, dim: int) -> np.ndarray:
    """``y`` as floats, checked against the model's measurement dimension."""
    y = np.asarray(y, dtype=float)
    if y.size != dim:
        raise ValueError(f"measurement dimension {y.size} does not match model dimension {dim}")
    return y


def _log_likelihoods(
    predicted: np.ndarray, observed: np.ndarray, chol: np.ndarray
) -> np.ndarray:
    """Log of the unnormalized Gaussian likelihood -0.5 r^T C^-1 r, with
    C = chol chol^T, for a batch of predictions, (N,); its peak is 0.

    The normalization constant is omitted because weights are renormalized
    downstream.
    """
    residual = np.atleast_2d(predicted) - observed
    whitened = np.linalg.solve(chol, residual.T)
    return -0.5 * np.einsum("ij,ij->j", whitened, whitened)


def pendulum_derivative(state: np.ndarray, params: PendulumParams) -> np.ndarray:
    """Cartesian pendulum kinematics; accepts a single state or an (N, 4) batch.

    xddot = (-g x y - x (xdot^2 + ydot^2)) / L^2
    yddot = ( g x^2 - y (xdot^2 + ydot^2)) / L^2
    """
    s = np.asarray(state, dtype=float)
    x, y, vx, vy = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    speed2 = vx * vx + vy * vy
    L2 = params.L * params.L
    ax = (-params.g * x * y - x * speed2) / L2
    ay = (params.g * x * x - y * speed2) / L2
    return np.stack([vx, vy, ax, ay], axis=-1)


def rk4_step(
    derivative_fn: Callable[[np.ndarray], np.ndarray],
    state: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of size dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = derivative_fn(state)
    k2 = derivative_fn(state + 0.5 * dt * k1)
    k3 = derivative_fn(state + 0.5 * dt * k2)
    k4 = derivative_fn(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_state(
    state: np.ndarray, params: PendulumParams, dt: float, substeps: int
) -> np.ndarray:
    """Advance a state (or batch) by `substeps` RK4 steps spanning dt."""
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    h = dt / substeps
    out = np.asarray(state, dtype=float)
    # A diverging member overflows to inf or nan; callers check finiteness
    # and raise a typed error, so numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(substeps):
            out = rk4_step(lambda s: pendulum_derivative(s, params), out, h)
    return out


def propagate_ensemble(
    e: Ensemble, params: PendulumParams, dt: float, substeps: int = 1
) -> Ensemble:
    """Propagate every member through the dynamics."""
    return Ensemble(propagate_state(e.members, params, dt, substeps))


def pendulum_constraint(state: np.ndarray) -> float | np.ndarray:
    """Squared distance from the pivot, x^2 + y^2."""
    s = np.asarray(state, dtype=float)
    value = s[..., 0] ** 2 + s[..., 1] ** 2
    return float(value) if value.ndim == 0 else value


def pendulum_constraint_spec(params: PendulumParams) -> ConstraintSpec:
    """Rod-length constraint x^2 + y^2 = L^2 as a ConstraintSpec."""
    return ConstraintSpec(
        g_fn=pendulum_constraint,
        d=np.array([params.L**2]),
    )


def pendulum_measurement_model(r_diag: float = 0.01) -> MeasurementModel:
    """Position-only observation of the pendulum bob with isotropic noise."""
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return MeasurementModel(H=H, R=r_diag * np.eye(2))
