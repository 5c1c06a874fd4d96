"""Tests for configuration, the Monte-Carlo driver, and file outputs."""

import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from otfilter.errors import ConfigError, OTFilterError
from otfilter.filters import FilterVariant, ProjectionInnovation
from otfilter.harness import (
    CSV_HEADER,
    ExperimentConfig,
    config_from_dict,
    config_from_json,
    config_to_dict,
    monte_carlo,
    parse_variants,
    rms_constraint_error,
    run_single,
    simulate_truth,
    write_outputs,
    write_samples,
)
from otfilter.transport import CostMetric

# Small, fast study used across the file.
SMALL = dict(
    dt=0.05,
    t_final=0.5,
    N=15,
    runs=2,
    base_seed=7,
    variants=(FilterVariant.OTF, FilterVariant.OTNLEQMA),
)


def small_config(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# Raw configs that both doors, config_from_dict and ExperimentConfig(**raw),
# reject; keyed by test id.
BAD_RAW = {
    "dt-str": {"dt": "abc"},
    "dt-list": {"dt": [1]},
    "N-null": {"N": None},
    "N-inf": {"N": math.inf},
    "spread-str": {"initial_spread": "a"},
    "dt-nan": {"dt": math.nan},
    "t_final-inf": {"t_final": math.inf},
    "R_diag-nan": {"R_diag": math.nan},
    "sigma_g-nan": {"sigma_g": math.nan},
    "L-nan": {"pendulum": {"L": math.nan}},
    "g-inf": {"pendulum": {"g": math.inf}},
    "N-fraction": {"N": 12.9},
    "runs-bool": {"runs": True},
    "dt-bool": {"dt": True},
    "dt-numeric-str": {"dt": "0.05"},
    "seed-str": {"base_seed": "3"},
    "L-bool": {"pendulum": {"L": True}},
    "spread-numeric-str": {"initial_spread": [0.01, 0.01, "1e-4", 1e-4]},
    "spread-bool": {"initial_spread": [True, 1.0, 1.0, 1.0]},
    "seed-negative": {"base_seed": -1},
    "spread-inf": {"initial_spread": [math.inf, 0.0025, 1e-4, 1e-4]},
    "spread-nan": {"initial_spread": [math.nan, 0.0025, 1e-4, 1e-4]},
    "L-square-overflow": {"pendulum": {"L": 1e300}},
    "L-square-underflow": {"pendulum": {"L": 1e-200}},
    "variants-repeated": {"variants": ["otf", "otproj", "otf"]},
    "steps-overflow": {"t_final": 1e300},
    "steps-past-address-space": {"t_final": 1e17},
    "steps-inf": {"dt": 5e-324, "t_final": 1.0},
    "sigma_g-square-underflow": {"sigma_g": 1e-170},
    "sigma_g-square-overflow": {"sigma_g": 1e200},
    "N-cost-matrix-overflow": {"N": np.int64(2**31)},
    "L-negative": {"pendulum": {"L": -1.0}},
    "variants-unknown": {"variants": "bogus"},
}

# Raw configs that both doors accept, each normalised on the way in.
GOOD_RAW = {
    "int-for-float": {"dt": 1, "N": 12.0, "runs": 2.0, "substeps": 3.0},
    "numpy-int": {"N": np.int64(12)},
    "variants-all": {"variants": "all"},
    "variants-one-name": {"variants": "otf"},
    "pendulum-dict": {"pendulum": {"L": 2.0}},
    "spread-diagonal": {"initial_spread": [0.01, 0.01, 1e-4, 1e-4]},
    "enums": {"metric": "sqeuclidean", "projection_innovation": "standard"},
}


class TestConfig:
    def test_defaults_match_study_protocol(self):
        config = ExperimentConfig()
        assert config.dt == 0.05
        assert config.runs == 100
        assert config.N == 100
        assert config.variants == tuple(FilterVariant)
        assert config.n_steps == 200

    def test_initial_state_thirty_degrees(self):
        config = ExperimentConfig()
        state = config.initial_truth_state()
        np.testing.assert_allclose(
            state, [math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(state[:2], [0.86603, 0.5], atol=1e-5)

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dt=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(t_final=0.01)
        with pytest.raises(ConfigError):
            ExperimentConfig(N=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(initial_spread=np.zeros((4, 4)))

    def test_dict_round_trip(self):
        config = small_config()
        echoed = config_from_dict(config_to_dict(config))
        assert echoed == config

    def test_unknown_keys_rejected(self):
        raw = config_to_dict(small_config())
        raw["ensemble_inflation"] = 1.1
        with pytest.raises(ConfigError, match="ensemble_inflation"):
            config_from_dict(raw)

    def test_diagonal_spread_shorthand(self):
        config = config_from_dict({"initial_spread": [0.01, 0.01, 1e-4, 1e-4]})
        np.testing.assert_allclose(
            config.initial_spread, np.diag([0.01, 0.01, 1e-4, 1e-4])
        )

    def test_variant_parsing(self):
        assert parse_variants("all") == tuple(FilterVariant)
        assert parse_variants(["otf", "otma"]) == (
            FilterVariant.OTF,
            FilterVariant.OTMA,
        )
        with pytest.raises(ConfigError):
            parse_variants(["bogus"])

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(small_config())))
        assert config_from_json(path) == small_config()

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            config_from_json(path)

    @pytest.mark.parametrize("raw", list(BAD_RAW.values()), ids=list(BAD_RAW))
    def test_malformed_or_non_finite_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_spread_is_named_before_symmetry(self, bad):
        spread = np.diag([0.0025, 0.0025, 1e-4, 1e-4]).tolist()
        spread[0][1] = bad
        with pytest.raises(ConfigError, match="initial_spread entries must be finite"):
            config_from_dict({"initial_spread": spread})

    def test_scalars_take_their_field_type(self):
        echo = config_to_dict(config_from_dict({"dt": 1, "N": 12.0}))
        assert type(echo["dt"]) is float and echo["dt"] == 1.0
        assert type(echo["N"]) is int and echo["N"] == 12

    @pytest.mark.parametrize("raw", list(BAD_RAW.values()), ids=list(BAD_RAW))
    def test_both_doors_reject_with_one_message(self, raw):
        with pytest.raises(ConfigError) as from_dict:
            config_from_dict(raw)
        with pytest.raises(ConfigError) as from_kwargs:
            ExperimentConfig(**raw)
        assert str(from_kwargs.value) == str(from_dict.value)

    @pytest.mark.parametrize("raw", list(GOOD_RAW.values()), ids=list(GOOD_RAW))
    def test_both_doors_accept_the_same_config(self, raw):
        # Compared as JSON text, so 1 and 1.0 differ.
        echo = json.dumps(config_to_dict(ExperimentConfig(**raw)))
        assert echo == json.dumps(config_to_dict(config_from_dict(raw)))
        # A parsed config parses to itself, as dataclasses.replace needs.
        replaced = dataclasses.replace(config_from_dict(raw))
        assert json.dumps(config_to_dict(replaced)) == echo

    def test_first_bad_field_in_field_order_is_reported(self):
        with pytest.raises(ConfigError, match="invalid dt"):
            config_from_dict({"N": 12.5, "dt": "abc"})

    def test_enum_fields_parsed(self):
        config = config_from_dict(
            {"metric": "sqeuclidean", "projection_innovation": "standard"}
        )
        assert config.metric is CostMetric.SQUARED_EUCLIDEAN
        assert config.projection_innovation is ProjectionInnovation.STANDARD


class TestSimulateTruth:
    def test_initial_state_and_series_length(self):
        config = small_config()
        truth = simulate_truth(config, np.random.default_rng(0))
        np.testing.assert_allclose(
            truth.initial_state[:2], [0.86603, 0.5], atol=1e-5
        )
        assert truth.states.shape == (config.n_steps, 4)
        assert truth.measurements.shape == (config.n_steps, 2)
        np.testing.assert_allclose(truth.times, 0.05 * np.arange(1, 11))

    def test_constraint_drift_below_tolerance(self):
        config = ExperimentConfig(runs=1)
        truth = simulate_truth(config, np.random.default_rng(1))
        drift = np.abs(
            truth.states[:, 0] ** 2 + truth.states[:, 1] ** 2 - 1.0
        ).max()
        assert drift < 1e-6

    def test_tiny_noise_measurements_equal_truth(self):
        config = small_config(R_diag=1e-30)
        truth = simulate_truth(config, np.random.default_rng(2))
        np.testing.assert_allclose(
            truth.measurements, truth.states[:, :2], atol=1e-10
        )

    def test_measurement_noise_has_zero_mean(self):
        # 4000 steps from the hanging equilibrium, where one RK4 substep per
        # step stays stable; the residuals are the measurement noise draws.
        config = small_config(t_final=200.0, substeps=1, initial_angle_deg=90.0)
        truth = simulate_truth(config, np.random.default_rng(0))
        residuals = truth.measurements - truth.states[:, :2]
        assert residuals.shape == (4000, 2)
        # Standard error 0.1/sqrt(4000) ~ 1.6e-3; allow 5 sigma.
        assert np.max(np.abs(residuals.mean(axis=0))) < 8e-3

    def test_deterministic_given_seed(self):
        config = small_config()
        a = simulate_truth(config, np.random.default_rng(3))
        b = simulate_truth(config, np.random.default_rng(3))
        np.testing.assert_array_equal(a.measurements, b.measurements)
        np.testing.assert_array_equal(a.states, b.states)


class TestRMS:
    def test_zero_series(self):
        assert rms_constraint_error(np.zeros(5)) == 0.0

    def test_constant_series(self):
        assert rms_constraint_error(np.full(7, 0.3)) == pytest.approx(0.3)

    def test_hand_computed(self):
        assert rms_constraint_error(np.array([3.0, 4.0])) == pytest.approx(
            math.sqrt(12.5)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rms_constraint_error(np.array([]))


class TestMonteCarlo:
    def test_single_run_aggregate_equals_run_rms(self):
        config = small_config(runs=1)
        result = monte_carlo(config)
        record = result.runs[0]
        for entry in result.aggregate:
            expected = rms_constraint_error(
                record.results[entry.variant].constraint_error
            )
            assert entry.avg_rms_constraint_error == pytest.approx(expected)
            assert entry.runs_used == 1 and entry.runs_failed == 0

    def test_same_seed_identical_aggregates(self):
        a = monte_carlo(small_config())
        b = monte_carlo(small_config())
        for ea, eb in zip(a.aggregate, b.aggregate):
            assert ea == eb

    def test_worker_pool_matches_serial(self):
        config = small_config()
        serial = monte_carlo(config, workers=1)
        parallel = monte_carlo(config, workers=2)
        for es, ep in zip(serial.aggregate, parallel.aggregate):
            assert es == ep

    def test_common_random_numbers_across_variants(self):
        # Within one run every variant must see identical truth and
        # measurement streams; the record stores them once by construction,
        # so assert the per-run data is reproducible from the seed alone.
        config = small_config()
        result = monte_carlo(config)
        for record in result.runs:
            rng = np.random.default_rng(record.seed)
            truth = simulate_truth(config, rng)
            digest = hashlib.sha256(truth.measurements.tobytes()).hexdigest()
            assert (
                hashlib.sha256(record.truth.measurements.tobytes()).hexdigest()
                == digest
            )

    def test_seed_layout(self):
        config = small_config(runs=3, base_seed=41)
        result = monte_carlo(config)
        assert [rec.seed for rec in result.runs] == [41, 42, 43]


class TestWriteOutputs:
    def test_csv_header_contract(self, tmp_path):
        result = monte_carlo(small_config(runs=1))
        paths = write_outputs(result, tmp_path, "csv")
        series = [p for p in paths if p.suffix == ".csv"]
        assert series, "expected at least one series file"
        for path in series:
            first_line = path.read_text().splitlines()[0]
            assert first_line == CSV_HEADER
        assert (
            CSV_HEADER
            == "t,x_true,y_true,x_est,y_est,std_x,std_y,std_vx,std_vy,constraint_error"
        )

    def test_summary_schema(self, tmp_path):
        result = monte_carlo(small_config(runs=1))
        write_outputs(result, tmp_path, "csv")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"config", "aggregate"}
        for entry in summary["aggregate"]:
            assert set(entry) == {
                "variant",
                "avg_rms_constraint_error",
                "runs_used",
                "runs_failed",
            }

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            paths = write_outputs(monte_carlo(config), out, "csv")
            digest = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
            }
            digests.append(digest)
        assert digests[0] == digests[1]

    def test_json_series_format(self, tmp_path):
        result = monte_carlo(small_config(runs=1))
        paths = write_outputs(result, tmp_path, "json")
        series = [p for p in paths if p.name != "summary.json"]
        for path in series:
            rows = json.loads(path.read_text())
            assert rows and set(rows[0]) == set(CSV_HEADER.split(","))

    def test_aggregate_recomputable_from_files(self, tmp_path):
        config = small_config()
        result = monte_carlo(config)
        write_outputs(result, tmp_path, "csv")
        for entry in result.aggregate:
            rms_values = []
            for r in range(config.runs):
                path = tmp_path / f"run_{r:03d}_{entry.variant.value}.csv"
                rows = path.read_text().splitlines()[1:]
                errors = np.array([float(line.split(",")[-1]) for line in rows])
                rms_values.append(rms_constraint_error(errors))
            assert abs(np.mean(rms_values) - entry.avg_rms_constraint_error) < 1e-12

    def test_empty_results_still_writes_summary(self, tmp_path):
        config = small_config(runs=1)
        result = monte_carlo(config)
        empty = dataclasses.replace(result, runs=())
        paths = write_outputs(empty, tmp_path, "csv")
        assert [p.name for p in paths] == ["summary.json"]

    def test_bad_format_rejected(self, tmp_path):
        result = monte_carlo(small_config(runs=1))
        with pytest.raises(ConfigError):
            write_outputs(result, tmp_path, "xml")

    @pytest.mark.parametrize("blocked", ["run_000_otf.csv", "summary.json"])
    def test_unwritable_file_is_named(self, tmp_path, blocked):
        result = monte_carlo(small_config(runs=1, variants=("otf",)))
        path = tmp_path / blocked
        path.mkdir()
        with pytest.raises(OTFilterError, match=re.escape(f"cannot write {path}: ")):
            write_outputs(result, tmp_path, "csv")

    def test_unwritable_sample_directory_is_named(self, tmp_path):
        (tmp_path / "blocked").write_text("")
        path = tmp_path / "blocked" / "samples.csv"
        with pytest.raises(OTFilterError, match=re.escape(f"cannot write {path}: ")):
            write_samples(np.zeros((2, 1)), path, ("x",))


class TestRunSingle:
    def test_clean_run_has_no_failures(self):
        config = small_config(runs=1)
        record = run_single(config, 0)
        assert not record.failures
        assert set(record.results) == set(config.variants)

    def test_each_distinct_chain_solved_once(self, monkeypatch):
        # OTF and OTPROJ share a chain, so five variants make four chains.
        import otfilter.filters as filters_module

        real_solve = filters_module.solve_transport
        solves = []

        def counting(cost, weights):
            solves.append(None)
            return real_solve(cost, weights)

        monkeypatch.setattr(filters_module, "solve_transport", counting)
        config = small_config(runs=1, variants=tuple(FilterVariant))
        record = run_single(config, 0)
        assert list(record.results) == list(FilterVariant)
        assert len(solves) == 4 * config.n_steps

    def test_variant_failure_recorded_not_fatal(self, monkeypatch):
        # A solver blow-up in one variant is recorded on the run and the
        # aggregate counts it, while other variants keep their results.
        import otfilter.harness as harness_module

        real_run_filter = harness_module.run_filter

        def flaky(initial, measurements, variants, config):
            others = [v for v in variants if v is not FilterVariant.OTF]
            results, failures = real_run_filter(initial, measurements, others, config)
            failures[FilterVariant.OTF] = "NonconvergenceError: synthetic failure"
            return results, failures

        monkeypatch.setattr(harness_module, "run_filter", flaky)
        result = monte_carlo(small_config())
        entries = {entry.variant: entry for entry in result.aggregate}
        otf = entries[FilterVariant.OTF]
        other = entries[FilterVariant.OTNLEQMA]
        assert otf.runs_failed == 2 and otf.runs_used == 0
        assert np.isnan(otf.avg_rms_constraint_error)
        assert other.runs_failed == 0 and other.runs_used == 2
        for record in result.runs:
            assert "NonconvergenceError" in record.failures[FilterVariant.OTF]

    def test_non_finite_measurement_names_its_step(self, monkeypatch):
        import otfilter.harness as harness_module

        real_simulate_truth = harness_module.simulate_truth

        def corrupted(config, rng):
            truth = real_simulate_truth(config, rng)
            measurements = truth.measurements.copy()
            measurements[3, 1] = np.nan
            measurements[7, 0] = np.inf
            return dataclasses.replace(truth, measurements=measurements)

        monkeypatch.setattr(harness_module, "simulate_truth", corrupted)
        config = small_config(runs=1)
        record = run_single(config, 0)
        assert not record.results
        assert set(record.failures) == set(config.variants)
        for reason in record.failures.values():
            assert reason.startswith("InvalidMeasurementError: ")
            assert "step 4 (row 3)" in reason

    def test_diverged_ensemble_names_its_step(self):
        # With 12 members otnleqma's ensemble overflows at step 183 of this
        # seed; the failure names the step and numpy warns about nothing.
        config = config_from_dict(
            {"N": 12, "metric": "sqeuclidean", "variants": ["otnleqma"],
             "runs": 1, "base_seed": 679642288}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_single(config, 0)
        assert not record.results
        assert record.failures == {
            FilterVariant.OTNLEQMA:
                "InvalidEnsembleError: step 183: propagated ensemble is not finite"
        }
