"""Tests for pendulum dynamics, integration, and measurement models."""

import math

import numpy as np
import pytest

from otfilter.ensemble import Ensemble
from otfilter.models import (
    AugmentedMeasurementModel,
    ConstraintSpec,
    MeasurementModel,
    PendulumParams,
    pendulum_constraint,
    pendulum_constraint_spec,
    pendulum_derivative,
    pendulum_measurement_model,
    propagate_ensemble,
    propagate_state,
    rk4_step,
)

PARAMS = PendulumParams(L=1.0, g=9.8)
EQUILIBRIUM = np.array([0.0, 1.0, 0.0, 0.0])


def initial_state(angle_deg=30.0, L=1.0):
    a = math.radians(angle_deg)
    return np.array([L * math.cos(a), L * math.sin(a), 0.0, 0.0])


class TestPendulumDerivative:
    def test_hanging_equilibrium(self):
        np.testing.assert_array_equal(
            pendulum_derivative(EQUILIBRIUM, PARAMS), np.zeros(4)
        )

    def test_thirty_degree_release(self):
        deriv = pendulum_derivative(initial_state(30.0), PARAMS)
        # -g cos30 sin30 and g cos^2 30 by direct substitution
        np.testing.assert_allclose(deriv[2], -9.8 * math.sqrt(3) / 4, atol=1e-12)
        np.testing.assert_allclose(deriv[2], -4.2435246, atol=1e-6)
        np.testing.assert_allclose(deriv[3], 7.35, atol=1e-12)
        np.testing.assert_array_equal(deriv[:2], [0.0, 0.0])

    def test_horizontal_with_velocity(self):
        v = 1.7
        deriv = pendulum_derivative(np.array([1.0, 0.0, 0.0, v]), PARAMS)
        np.testing.assert_allclose(deriv[2], -v**2, atol=1e-14)
        np.testing.assert_allclose(deriv[3], 9.8, atol=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(5, 4))
        out = pendulum_derivative(batch, PARAMS)
        for k in range(5):
            np.testing.assert_array_equal(out[k], pendulum_derivative(batch[k], PARAMS))


class TestRK4:
    def test_exponential_oracle(self):
        # xdot = x from 1 over dt=0.1; closed form e^0.1
        out = rk4_step(lambda s: s, np.array([1.0]), 0.1)
        assert abs(out[0] - math.exp(0.1)) < 1e-7

    def test_zero_field_fixed_point(self):
        state = np.array([1.0, 2.0, 3.0])
        out = rk4_step(lambda s: np.zeros_like(s), state, 0.5)
        np.testing.assert_array_equal(out, state)

    def test_equilibrium_fixed_point(self):
        out = rk4_step(lambda s: pendulum_derivative(s, PARAMS), EQUILIBRIUM, 0.05)
        np.testing.assert_allclose(out, EQUILIBRIUM, atol=1e-14)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda s: s, np.array([1.0]), 0.0)


class TestPropagate:
    def test_equilibrium_unchanged(self):
        e = Ensemble(np.tile(EQUILIBRIUM, (4, 1)))
        out = propagate_ensemble(e, PARAMS, dt=0.05, substeps=4)
        np.testing.assert_allclose(out.members, e.members, atol=1e-13)

    def test_step_halving_shows_fourth_order(self):
        state = initial_state(30.0)
        dt = 0.2
        fine = propagate_state(state, PARAMS, dt, 64)  # reference
        err = [
            np.linalg.norm(propagate_state(state, PARAMS, dt, k) - fine)
            for k in (1, 2, 4)
        ]
        # Halving the step divides the error by about 2^4.
        assert 10 < err[0] / err[1] < 25
        assert 10 < err[1] / err[2] < 25

    def test_constraint_preserved_over_ten_seconds(self):
        # The rod-length surface is invariant for the continuous dynamics,
        # so the residual drift is pure integrator error; 16 substeps per
        # 0.05 s interval keep it below 1e-6 across the full horizon.
        state = initial_state(30.0)
        worst = 0.0
        for _ in range(200):
            state = propagate_state(state, PARAMS, 0.05, 16)
            worst = max(worst, abs(pendulum_constraint(state) - 1.0))
        assert worst < 1e-6


def identity_model(R):
    """A model observing the state directly, so a member is its prediction."""
    R = np.atleast_2d(R)
    return MeasurementModel(H=np.eye(R.shape[0]), R=R)


class TestGaussianLikelihood:
    def test_peak_value_is_one(self):
        y = np.array([0.3, -0.4])
        assert identity_model(0.01 * np.eye(2)).log_likelihoods(y[None, :], y)[0] == 0.0

    def test_known_exponent(self):
        y = np.array([0.1, 0.0])
        value = identity_model(0.01 * np.eye(2)).log_likelihoods(np.zeros((1, 2)), y)[0]
        np.testing.assert_allclose(value, -0.5, rtol=1e-12)

    def test_quadratic_log_scaling(self):
        model = identity_model(0.04 * np.eye(2))
        r = np.array([0.05, -0.02])
        l1 = model.log_likelihoods(np.zeros((1, 2)), r)[0]
        l2 = model.log_likelihoods(np.zeros((1, 2)), 2 * r)[0]
        np.testing.assert_allclose(l2, 4 * l1, rtol=1e-10)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=2), rng.normal(size=2)
        model = identity_model(np.diag([0.3, 0.7]))
        assert model.log_likelihoods(b[None, :], a)[0] == pytest.approx(
            model.log_likelihoods(a[None, :], b)[0]
        )

    def test_decreasing_in_radius(self):
        radii = np.array([[0.0], [0.5], [1.0], [2.0]])
        values = identity_model(0.5 * np.eye(1)).log_likelihoods(radii, np.zeros(1))
        assert values.shape == (4,)
        assert np.all(np.diff(values) < 0)

    def test_singular_R_rejected(self):
        # The noise is factored when the model is built, so a singular R
        # never reaches a likelihood.
        with pytest.raises(ValueError, match="positive definite"):
            identity_model(np.zeros((2, 2)))


class TestConstraint:
    def test_on_circle(self):
        assert pendulum_constraint(initial_state(30.0)) == pytest.approx(1.0)

    def test_origin(self):
        assert pendulum_constraint(np.zeros(4)) == 0.0

    def test_three_four(self):
        assert pendulum_constraint(np.array([3.0, 4.0, 9.9, -1.0])) == 25.0

    def test_spec_wraps_constraint(self):
        spec = pendulum_constraint_spec(PARAMS)
        np.testing.assert_array_equal(spec.d, [1.0])
        vals = spec.evaluate(np.array([[3.0, 4.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(vals, [[25.0]])

    def test_batched_evaluate_matches_member_loop(self):
        spec = pendulum_constraint_spec(PARAMS)
        rng = np.random.default_rng(4)
        for n in (1, 2, 12, 100):
            members = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 3)
            loop = np.array([[pendulum_constraint(x)] for x in members])
            np.testing.assert_array_equal(spec.evaluate(members), loop)


class TestAugmentedModel:
    def test_dimensions_and_stacking(self):
        # The model stacks [y; d] and factors blockdiag(R, sigma_g^2 I).
        base = pendulum_measurement_model(0.01)
        aug = AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS), 1e-2)
        np.testing.assert_allclose(aug.chol @ aug.chol.T, np.diag([0.01, 0.01, 1e-4]))
        member = np.array([[0.86, 0.51, 0.0, 0.0]])
        violation = 0.86**2 + 0.51**2 - 1.0
        value = aug.log_likelihoods(member, np.array([0.86, 0.51]))[0]
        np.testing.assert_allclose(value, -0.5 * violation**2 / 1e-4, rtol=1e-12)
        with pytest.raises(ValueError, match="measurement dimension 3"):
            aug.log_likelihoods(member, np.array([0.86, 0.51, 1.0]))

    def test_prediction_stacks_constraint(self):
        base = pendulum_measurement_model(0.01)
        aug = AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS))
        members = np.array([[0.6, 0.8, 1.0, 2.0]])
        # The prediction [0.6, 0.8, 1.0] matches [y; d] exactly.
        assert aug.log_likelihoods(members, np.array([0.6, 0.8]))[0] == 0.0

    def test_on_constraint_member_contributes_unit_factor(self):
        base = pendulum_measurement_model(0.01)
        aug = AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS), 1e-3)
        member = initial_state(30.0)[None, :]
        y = member[0, :2] + 0.05
        full = aug.log_likelihoods(member, y)
        base_only = base.log_likelihoods(member, y)
        np.testing.assert_allclose(np.exp(full), np.exp(base_only), rtol=1e-12)

    def test_nonpositive_sigma_rejected(self):
        # Also a sigma_g whose square overflows (1e200) or vanishes (1e-170).
        base = pendulum_measurement_model(0.01)
        for sigma_g in (0.0, -0.5, math.nan, 1e200, 1e-170):
            with pytest.raises(ValueError, match="sigma_g"):
                AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS), sigma_g)
