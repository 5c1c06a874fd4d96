"""Tests for the filter variants, weights, resampling, and projection."""

import math

import numpy as np
import pytest

from otfilter.ensemble import Ensemble, from_gaussian, mean
from otfilter.errors import InsufficientSamplesError
from otfilter.filters import (
    FilterState,
    FilterVariant,
    ProjectionInnovation,
    compute_weights,
    constraint_projection,
    filter_step,
    ot_update,
    run_filter,
)
from otfilter.harness import ExperimentConfig, simulate_truth
from otfilter.models import (
    AugmentedMeasurementModel,
    ConstraintSpec,
    MeasurementModel,
    PendulumParams,
    pendulum_constraint_spec,
    pendulum_measurement_model,
    propagate_state,
)
from otfilter.transport import WeightVector

PARAMS = PendulumParams()


def pendulum_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(projection_innovation="standard", **overrides)


def initial_truth(angle_deg=30.0):
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a), 0.0, 0.0])


class TestVariantDispatch:
    def test_flag_table(self):
        table = {
            FilterVariant.OTF: (False, False, False),
            FilterVariant.OTPROJ: (False, True, False),
            FilterVariant.OTNLEQ: (False, True, True),
            FilterVariant.OTMA: (True, False, False),
            FilterVariant.OTNLEQMA: (True, True, True),
        }
        for variant, (aug, proj, feedback) in table.items():
            assert variant.uses_augmentation == aug
            assert variant.uses_projection == proj
            assert variant.uses_feedback == feedback

    def test_diagnostics_report_stages(self):
        rng = np.random.default_rng(42)
        config = pendulum_config()
        ensemble = from_gaussian(
            initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2), 30, rng
        )
        y = initial_truth()[:2]
        for variant in FilterVariant:
            state = FilterState(posterior=ensemble, reported=ensemble)
            out = filter_step(state, y, variant, config)
            if not variant.uses_projection:
                assert not out.sigma_dd_regularized
            if variant is FilterVariant.OTPROJ:
                # Reported is projected, fed-forward posterior is not.
                assert out.reported is not out.posterior
            else:
                assert out.reported is out.posterior


class TestComputeWeights:
    def test_identical_members_uniform(self):
        members = np.tile(initial_truth(), (7, 1))
        w, degenerate = compute_weights(
            Ensemble(members), initial_truth()[:2], pendulum_measurement_model(0.01)
        )
        np.testing.assert_allclose(w.w, 1.0 / 7)
        assert not degenerate

    def test_two_member_likelihood_ratio(self):
        model = pendulum_measurement_model(0.01)
        y = np.array([0.5, 0.5])
        r = 1.3  # Mahalanobis radius of the second member
        offset = r * math.sqrt(0.01)
        members = np.array(
            [[0.5, 0.5, 0.0, 0.0], [0.5 + offset, 0.5, 0.0, 0.0]]
        )
        w, _ = compute_weights(Ensemble(members), y, model)
        expected = np.array([1.0, math.exp(-(r**2) / 2)])
        np.testing.assert_allclose(w.w, expected / expected.sum(), rtol=1e-10)

    def test_augmented_suppression_factor(self):
        sigma_g = 0.05
        delta = 0.08  # constraint violation of the second member
        base = pendulum_measurement_model(1e6)  # flat base likelihood
        aug = AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS), sigma_g)
        on = initial_truth()
        scale = math.sqrt(1.0 + delta)  # radius inflating x^2+y^2 by delta
        off = np.array([on[0] * scale, on[1] * scale, 0.0, 0.0])
        e = Ensemble(np.vstack([on, off]))
        y = on[:2]
        w, _ = compute_weights(e, aug.effective_observation(y), aug)
        ratio = w.w[1] / w.w[0]
        np.testing.assert_allclose(
            ratio, math.exp(-(delta**2) / (2 * sigma_g**2)), rtol=1e-6
        )

    def test_degenerate_fallback_flag(self):
        model = pendulum_measurement_model(1e-8)
        members = np.tile(np.array([50.0, 50.0, 0.0, 0.0]), (5, 1))
        members += np.arange(5)[:, None] * 0.1
        w, degenerate = compute_weights(Ensemble(members), np.zeros(2), model)
        assert degenerate
        np.testing.assert_allclose(w.w, 0.2)

    def test_huge_sigma_g_recovers_base_weights(self):
        # A flat constraint likelihood leaves only the base measurement.
        rng = np.random.default_rng(23)
        base = pendulum_measurement_model(0.01)
        aug = AugmentedMeasurementModel(base, pendulum_constraint_spec(PARAMS), 1e9)
        e = Ensemble(
            initial_truth() + rng.normal(0, 0.05, size=(20, 4))
        )
        y = initial_truth()[:2]
        w_base, _ = compute_weights(e, y, base)
        w_aug, _ = compute_weights(e, aug.effective_observation(y), aug)
        np.testing.assert_allclose(w_aug.w, w_base.w, atol=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_weights(
                Ensemble(np.zeros((3, 4))), np.zeros(3), pendulum_measurement_model()
            )


class TestOTUpdate:
    def test_uniform_weights_fixed_point(self):
        rng = np.random.default_rng(1)
        e = Ensemble(rng.normal(size=(12, 4)))
        out = ot_update(e, WeightVector(np.full(12, 1.0 / 12)))
        np.testing.assert_allclose(out.members, e.members, atol=1e-10)

    def test_indicator_weights_collapse(self):
        rng = np.random.default_rng(2)
        e = Ensemble(rng.normal(size=(5, 3)))
        w = np.zeros(5)
        w[3] = 1.0
        out = ot_update(e, WeightVector(w))
        np.testing.assert_allclose(out.members, np.tile(e.members[3], (5, 1)), atol=1e-12)

    def test_weighted_mean_identity(self):
        e = Ensemble(np.array([[0.0], [1.0], [2.0]]))
        out = ot_update(e, WeightVector(np.array([0.2, 0.3, 0.5])))
        np.testing.assert_allclose(out.members.mean(), 1.3, atol=1e-8)


class TestConstraintProjection:
    def test_linear_identity_constraint_exact(self):
        rng = np.random.default_rng(3)
        target = np.array([0.5, -1.5])
        spec = ConstraintSpec(g_fn=lambda x: x, d=target)
        e = Ensemble(rng.normal(size=(10, 2)))
        projected, _ = constraint_projection(e, spec)
        np.testing.assert_allclose(projected.members, np.tile(target, (10, 1)), atol=1e-8)

    def test_members_on_constraint_unchanged(self):
        # All members already satisfy g(x) = d: innovations vanish.
        angles = np.linspace(0.1, 1.2, 8)
        members = np.stack(
            [np.cos(angles), np.sin(angles), np.zeros(8), np.zeros(8)], axis=1
        )
        projected, _ = constraint_projection(
            Ensemble(members), pendulum_constraint_spec(PARAMS)
        )
        np.testing.assert_allclose(projected.members, members, atol=1e-9)

    def test_radial_perturbation_reduced(self):
        # Localized cluster near the circle with radial sigma 0.05, the
        # regime a filter posterior lives in; the linearized gain cancels
        # the radial error to first order.
        rng = np.random.default_rng(4)
        spec = pendulum_constraint_spec(PARAMS)
        for _ in range(10):
            center = rng.uniform(0, 2 * np.pi)
            angles = center + rng.normal(0, 0.05, size=60)
            radii = 1.0 + rng.normal(0, 0.05, size=60)
            members = np.stack(
                [
                    radii * np.cos(angles),
                    radii * np.sin(angles),
                    rng.normal(0, 0.01, 60),
                    rng.normal(0, 0.01, 60),
                ],
                axis=1,
            )
            e = Ensemble(members)
            projected, _ = constraint_projection(e, spec)
            before = np.abs(spec.evaluate(members) - 1.0).mean()
            after = np.abs(spec.evaluate(projected.members) - 1.0).mean()
            assert after < before

    def test_linear_projection_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_dim, s_dim = 4, 2
            A = rng.normal(size=(s_dim, n_dim))
            b = rng.normal(size=s_dim)
            d = rng.normal(size=s_dim)
            spec = ConstraintSpec(g_fn=lambda x, A=A, b=b: x @ A.T + b, d=d)
            e = Ensemble(rng.normal(size=(12, n_dim)))
            once, _ = constraint_projection(e, spec)
            assert np.max(np.abs(spec.evaluate(once.members) - d)) < 1e-8
            twice, _ = constraint_projection(once, spec)
            np.testing.assert_allclose(twice.members, once.members, atol=1e-8)

    def test_paper_literal_preserves_mean(self):
        rng = np.random.default_rng(6)
        e = Ensemble(
            np.stack(
                [
                    1.0 + rng.normal(0, 0.05, 40),
                    rng.normal(0, 0.05, 40),
                    rng.normal(0, 0.01, 40),
                    rng.normal(0, 0.01, 40),
                ],
                axis=1,
            )
        )
        projected, _ = constraint_projection(
            e, pendulum_constraint_spec(PARAMS), ProjectionInnovation.PAPER_LITERAL
        )
        np.testing.assert_allclose(mean(projected), mean(e), atol=1e-12)

    def test_single_member_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            constraint_projection(
                Ensemble(np.zeros((1, 4))), pendulum_constraint_spec(PARAMS)
            )

    def test_degenerate_sigma_dd_flagged(self):
        # Identical constraint values make Sigma_dd singular.
        members = np.tile(initial_truth(), (6, 1))
        members[:, 2] = np.arange(6) * 0.1  # spread only in velocity
        projected, artifacts = constraint_projection(
            Ensemble(members), pendulum_constraint_spec(PARAMS)
        )
        assert artifacts.regularized
        np.testing.assert_allclose(projected.members, members, atol=1e-9)


class TestFilterStep:
    def test_uninformative_measurement_keeps_prior(self):
        rng = np.random.default_rng(7)
        config = pendulum_config(R_diag=1e12)
        e = from_gaussian(initial_truth(), 0.01 * np.eye(4), 25, rng)
        state = FilterState(posterior=e, reported=e)
        out = filter_step(state, np.array([0.9, 0.4]), FilterVariant.OTF, config)
        expected = propagate_state(e.members, PARAMS, config.dt, config.substeps)
        np.testing.assert_allclose(out.posterior.members, expected, atol=1e-8)
        assert out.k == 1 and out.t == pytest.approx(0.05)

    def test_otproj_otnleq_agree_on_first_step(self):
        rng = np.random.default_rng(8)
        config = pendulum_config()
        e = from_gaussian(
            initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2), 30, rng
        )
        y = initial_truth()[:2] + 0.05
        state = FilterState(posterior=e, reported=e)
        proj = filter_step(state, y, FilterVariant.OTPROJ, config)
        nleq = filter_step(state, y, FilterVariant.OTNLEQ, config)
        np.testing.assert_array_equal(proj.reported.members, nleq.reported.members)
        # They diverge only through feedback: the fed-forward ensembles differ.
        assert not np.array_equal(proj.posterior.members, nleq.posterior.members)

    def test_otnleqma_beats_otf_in_aggregate(self):
        # Constraint error of the reported mean after a few steps, across seeds.
        config = pendulum_config()
        spec = config.constraint
        otf_err, ma_err = [], []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            e = from_gaussian(
                initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2), 30, rng
            )
            truth = initial_truth()
            for variant, bucket in (
                (FilterVariant.OTF, otf_err),
                (FilterVariant.OTNLEQMA, ma_err),
            ):
                state = FilterState(posterior=e, reported=e)
                local_truth = truth.copy()
                step_rng = np.random.default_rng(1000 + seed)
                for _ in range(6):
                    local_truth = propagate_state(
                        local_truth, PARAMS, config.dt, config.substeps
                    )
                    y = local_truth[:2] + 0.1 * step_rng.standard_normal(2)
                    state = filter_step(state, y, variant, config)
                est = mean(state.reported)
                bucket.append(abs(math.hypot(est[0], est[1]) - 1.0))
        assert np.mean(ma_err) < np.mean(otf_err)


class TestCollapsedEnsemble:
    # Identical members give a zero cost matrix, uniform weights and a zero
    # Sigma_dd; every variant must still finish, regularizing the projection.
    @pytest.mark.parametrize("n", [12, 100])
    @pytest.mark.parametrize("variant", list(FilterVariant))
    def test_every_variant_finishes(self, variant, n):
        config = pendulum_config()
        e = Ensemble(np.tile(initial_truth(), (n, 1)))
        y = initial_truth()[:2] + 0.05
        out = filter_step(FilterState(posterior=e, reported=e), y, variant, config)
        assert out.reported.members.shape == (n, 4)
        assert out.sigma_dd_regularized is variant.uses_projection
        result = run_filter(e, np.tile(y, (3, 1)), variant, config)
        assert np.all(np.isfinite(result.mean))
        assert result.regularized_steps == (3 if variant.uses_projection else 0)


class TestRunFilter:
    def test_empty_series_returns_initial_statistics(self):
        rng = np.random.default_rng(9)
        config = pendulum_config()
        e = from_gaussian(initial_truth(), 0.01 * np.eye(4), 10, rng)
        result = run_filter(e, np.empty((0, 2)), FilterVariant.OTF, config)
        assert result.t.size == 0
        np.testing.assert_allclose(result.initial_mean, mean(e))
        assert result.initial_constraint_error >= 0

    def test_augmented_model_built_once_per_config(self, monkeypatch):
        built = []
        real_post_init = AugmentedMeasurementModel.__post_init__

        def counting_post_init(model):
            built.append(model)
            real_post_init(model)

        monkeypatch.setattr(AugmentedMeasurementModel, "__post_init__", counting_post_init)
        e = from_gaussian(
            initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2),
            12, np.random.default_rng(3),
        )
        ys = np.tile(initial_truth()[:2], (5, 1))
        result = run_filter(e, ys, FilterVariant.OTMA, pendulum_config())
        assert result.t.size == 5
        assert len(built) <= 1

    def test_determinism(self):
        config = pendulum_config()
        truth = initial_truth()
        meas_rng = np.random.default_rng(11)
        ys = []
        state = truth.copy()
        for _ in range(5):
            state = propagate_state(state, PARAMS, config.dt, config.substeps)
            ys.append(state[:2] + 0.1 * meas_rng.standard_normal(2))
        ys = np.array(ys)
        runs = []
        for _ in range(2):
            e = from_gaussian(
                initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2),
                25, np.random.default_rng(13),
            )
            runs.append(run_filter(e, ys, FilterVariant.OTNLEQMA, config))
        np.testing.assert_array_equal(runs[0].mean, runs[1].mean)
        np.testing.assert_array_equal(runs[0].std, runs[1].std)
        np.testing.assert_array_equal(
            runs[0].constraint_error, runs[1].constraint_error
        )

    def test_otnleq_bounded_where_otf_grows(self):
        # Over a 10 s horizon the unconstrained filter's constraint error
        # grows from its early value while projection feedback keeps the
        # error bounded.
        config = ExperimentConfig(N=40, runs=1)
        for seed in (5, 6):
            rng = np.random.default_rng(seed)
            truth = simulate_truth(config, rng)
            chol = np.linalg.cholesky(config.initial_spread)
            center = truth.initial_state + chol @ rng.standard_normal(4)
            e = from_gaussian(center, config.initial_spread, config.N, rng)
            otf = run_filter(e, truth.measurements, FilterVariant.OTF, config)
            nleq = run_filter(e, truth.measurements, FilterVariant.OTNLEQ, config)
            otf_first = otf.constraint_error[otf.t <= 2.0].mean()
            otf_final = otf.constraint_error[otf.t > 8.0].mean()
            assert otf_final > 2.0 * otf_first
            assert nleq.constraint_error[nleq.t > 8.0].mean() < otf_final
            assert nleq.constraint_error.max() < 0.25

    def test_sharp_measurements_track_truth(self):
        # Near-perfect measurements of the true trajectory: estimates stay
        # within three noise floors of the truth positions.
        noise_floor = 1e-2
        config = pendulum_config(R_diag=noise_floor**2)
        truth = initial_truth()
        states, ys = [], []
        for _ in range(40):
            truth = propagate_state(truth, PARAMS, config.dt, config.substeps)
            states.append(truth.copy())
            ys.append(truth[:2])  # exact positions: the R -> 0 limit
        e = from_gaussian(
            initial_truth(),
            np.diag([0.005**2, 0.005**2, 0.005**2, 0.005**2]),
            40,
            np.random.default_rng(17),
        )
        result = run_filter(e, np.array(ys), FilterVariant.OTF, config)
        position_err = np.linalg.norm(
            result.mean[:, :2] - np.array(states)[:, :2], axis=1
        )
        assert position_err.max() < 3 * noise_floor
