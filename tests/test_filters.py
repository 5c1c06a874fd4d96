"""Tests for the filter variants, weights, resampling, and projection."""

import math

import numpy as np
import pytest

from otfilter.ensemble import Ensemble, from_gaussian, mean
from otfilter.errors import (
    DecompositionError,
    InsufficientSamplesError,
    InvalidEnsembleError,
)
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


def run_one(initial, measurements, variant, config):
    """``run_filter`` of one variant, which must not fail."""
    results, failures = run_filter(initial, measurements, [variant], config)
    assert not failures
    return results[variant]


def report_projection(posterior, config):
    """The projection ``OTPROJ`` reports for a posterior of its chain."""
    return constraint_projection(posterior, config.constraint, config.projection_innovation)


class TestVariantDispatch:
    def test_flag_table(self):
        table = {
            FilterVariant.OTF: (False, False),
            FilterVariant.OTPROJ: (False, False),
            FilterVariant.OTNLEQ: (False, True),
            FilterVariant.OTMA: (True, False),
            FilterVariant.OTNLEQMA: (True, True),
        }
        for variant, (aug, feedback) in table.items():
            assert variant.uses_augmentation == aug
            assert variant.uses_feedback == feedback

    def test_diagnostics_report_stages(self):
        rng = np.random.default_rng(42)
        config = pendulum_config()
        ensemble = from_gaussian(
            initial_truth(), np.diag([0.05**2] * 2 + [0.01**2] * 2), 30, rng
        )
        y = initial_truth()[:2]
        outs = {
            variant: filter_step(FilterState(posterior=ensemble), y, variant, config)
            for variant in FilterVariant
        }
        for variant, out in outs.items():
            if not variant.uses_feedback:
                assert not out.sigma_dd_regularized
        # OTPROJ steps as OTF; the projection it reports is what OTNLEQ
        # feeds forward.
        otf = outs[FilterVariant.OTF].posterior
        np.testing.assert_array_equal(outs[FilterVariant.OTPROJ].posterior.members, otf.members)
        reported, _ = report_projection(otf, config)
        np.testing.assert_array_equal(
            reported.members, outs[FilterVariant.OTNLEQ].posterior.members
        )


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
        w, _ = compute_weights(e, y, aug)
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
        w_aug, _ = compute_weights(e, y, aug)
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
        state = FilterState(posterior=e)
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
        state = FilterState(posterior=e)
        proj = filter_step(state, y, FilterVariant.OTPROJ, config)
        nleq = filter_step(state, y, FilterVariant.OTNLEQ, config)
        reported, _ = report_projection(proj.posterior, config)
        np.testing.assert_array_equal(reported.members, nleq.posterior.members)
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
                state = FilterState(posterior=e)
                local_truth = truth.copy()
                step_rng = np.random.default_rng(1000 + seed)
                for _ in range(6):
                    local_truth = propagate_state(
                        local_truth, PARAMS, config.dt, config.substeps
                    )
                    y = local_truth[:2] + 0.1 * step_rng.standard_normal(2)
                    state = filter_step(state, y, variant, config)
                est = mean(state.posterior)
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
        out = filter_step(FilterState(posterior=e), y, variant, config)
        assert out.posterior.members.shape == (n, 4)
        assert out.sigma_dd_regularized is variant.uses_feedback
        projects = variant.uses_feedback or variant is FilterVariant.OTPROJ
        if variant is FilterVariant.OTPROJ:
            reported, artifacts = report_projection(out.posterior, config)
            nleq = filter_step(FilterState(posterior=e), y, FilterVariant.OTNLEQ, config)
            np.testing.assert_array_equal(reported.members, nleq.posterior.members)
            assert artifacts.regularized
        result = run_one(e, np.tile(y, (3, 1)), variant, config)
        assert np.all(np.isfinite(result.mean))
        assert result.regularized_steps == (3 if projects else 0)


class TestRunFilter:
    def test_empty_series_returns_initial_statistics(self):
        rng = np.random.default_rng(9)
        config = pendulum_config()
        e = from_gaussian(initial_truth(), 0.01 * np.eye(4), 10, rng)
        result = run_one(e, np.empty((0, 2)), FilterVariant.OTF, config)
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
        result = run_one(e, ys, FilterVariant.OTMA, pendulum_config())
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
            runs.append(run_one(e, ys, FilterVariant.OTNLEQMA, config))
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
            otf = run_one(e, truth.measurements, FilterVariant.OTF, config)
            nleq = run_one(e, truth.measurements, FilterVariant.OTNLEQ, config)
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
        result = run_one(e, np.array(ys), FilterVariant.OTF, config)
        position_err = np.linalg.norm(
            result.mean[:, :2] - np.array(states)[:, :2], axis=1
        )
        assert position_err.max() < 3 * noise_floor


class TestNoiseFactorization:
    def test_each_model_factors_its_noise_once(self, monkeypatch):
        # One factor of R for the truth and the plain model, one of
        # blockdiag(R, sigma_g^2 I) for the augmented model; none per step.
        config = ExperimentConfig(N=10, t_final=5 * 0.05, runs=1)
        rng = np.random.default_rng(21)
        e = from_gaussian(config.initial_truth_state(), config.initial_spread, config.N, rng)
        shapes = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        ys = simulate_truth(config, rng).measurements
        variants = [FilterVariant.OTF, FilterVariant.OTMA]
        results, failures = run_filter(e, ys, variants, config)
        assert not failures
        assert [len(results[v].t) for v in variants] == [5, 5]
        assert shapes == [(2, 2), (3, 3)]


class TestSharedChains:
    # OTF and OTPROJ share one chain; OTPROJ reports its projection.
    @staticmethod
    def setup(n_steps=5):
        config = ExperimentConfig(N=10, t_final=n_steps * 0.05, runs=1)
        rng = np.random.default_rng(21)
        truth = simulate_truth(config, rng)
        e = from_gaussian(truth.initial_state, config.initial_spread, config.N, rng)
        return config, e, truth.measurements

    def test_otproj_alone_matches_otproj_beside_otf(self):
        config, e, ys = self.setup()
        together, _ = run_filter(e, ys, list(FilterVariant), config)
        assert list(together) == list(FilterVariant)
        alone = run_one(e, ys, FilterVariant.OTPROJ, config)
        for field in ("t", "mean", "std", "constraint_error"):
            np.testing.assert_array_equal(
                getattr(alone, field), getattr(together[FilterVariant.OTPROJ], field)
            )
        assert alone.regularized_steps == together[FilterVariant.OTPROJ].regularized_steps

    @staticmethod
    def fail_on_call(monkeypatch, name, call, error):
        """Make ``filters.<name>`` raise ``error`` on its ``call``-th call
        (never, for 0); returns the list that counts the calls."""
        import otfilter.filters as filters_module

        real = getattr(filters_module, name)
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == call:
                raise error
            return real(*args)

        monkeypatch.setattr(filters_module, name, failing)
        return calls

    def fail_projection_at(self, monkeypatch, call):
        error = DecompositionError("synthetic projection failure")
        return self.fail_on_call(monkeypatch, "constraint_projection", call, error)

    def fail_propagation_at(self, monkeypatch, call):
        error = InvalidEnsembleError("synthetic overflow")
        return self.fail_on_call(monkeypatch, "propagate_ensemble", call, error)

    def test_report_projection_failure_fails_only_otproj(self, monkeypatch):
        config, e, ys = self.setup()
        variants = [FilterVariant.OTF, FilterVariant.OTPROJ]
        otf = run_one(e, ys, FilterVariant.OTF, config)
        self.fail_projection_at(monkeypatch, 2)
        results, failures = run_filter(e, ys, variants, config)
        assert failures == {
            FilterVariant.OTPROJ: "DecompositionError: synthetic projection failure"
        }
        np.testing.assert_array_equal(results[FilterVariant.OTF].mean, otf.mean)
        np.testing.assert_array_equal(results[FilterVariant.OTF].std, otf.std)

    def test_later_chain_failure_keeps_the_first_message(self, monkeypatch):
        config, e, ys = self.setup()
        variants = [FilterVariant.OTF, FilterVariant.OTPROJ]
        self.fail_projection_at(monkeypatch, 2)
        self.fail_propagation_at(monkeypatch, 4)
        results, failures = run_filter(e, ys, variants, config)
        assert not results
        assert failures == {
            FilterVariant.OTF: "InvalidEnsembleError: step 4: propagated ensemble is not finite",
            FilterVariant.OTPROJ: "DecompositionError: synthetic projection failure",
        }

    def test_chain_failure_fails_every_variant_on_the_chain(self, monkeypatch):
        config, e, ys = self.setup()
        variants = [FilterVariant.OTMA, FilterVariant.OTPROJ, FilterVariant.OTF]
        otma = run_one(e, ys, FilterVariant.OTMA, config)
        # Chains run in order of first appearance: OTMA's five steps, then
        # the shared OTF/OTPROJ chain.
        self.fail_propagation_at(monkeypatch, 5 + 3)
        results, failures = run_filter(e, ys, variants, config)
        message = "InvalidEnsembleError: step 3: propagated ensemble is not finite"
        assert list(failures) == [FilterVariant.OTPROJ, FilterVariant.OTF]
        assert set(failures.values()) == {message}
        np.testing.assert_array_equal(results[FilterVariant.OTMA].mean, otma.mean)

    def test_chain_stops_once_every_variant_on_it_failed(self, monkeypatch):
        config, e, ys = self.setup()
        self.fail_projection_at(monkeypatch, 2)
        calls = self.fail_propagation_at(monkeypatch, 0)
        results, failures = run_filter(e, ys, [FilterVariant.OTPROJ], config)
        assert not results
        assert failures == {
            FilterVariant.OTPROJ: "DecompositionError: synthetic projection failure"
        }
        assert len(calls) == 2

    def test_non_finite_measurement_fails_every_variant(self):
        config, e, ys = self.setup()
        ys = ys.copy()
        ys[2, 0] = np.nan
        results, failures = run_filter(e, ys, list(FilterVariant), config)
        assert not results
        assert list(failures) == list(FilterVariant)
        for message in failures.values():
            assert message == (
                "InvalidMeasurementError: measurement for step 3 (row 2) is not finite"
            )
