"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json

import pytest

import otfilter.cli
from otfilter.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from otfilter.errors import NonconvergenceError
from otfilter.harness import CSV_HEADER

TINY_CONFIG = {
    "dt": 0.05,
    "t_final": 0.5,
    "N": 12,
    "runs": 2,
    "base_seed": 3,
    "variants": ["otf", "otnleqma"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


class TestValidateConfig:
    def test_valid_config(self, config_path, capsys):
        assert main(["validate-config", str(config_path)]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dt": 0.05, "bogus": 1}))
        assert main(["validate-config", str(path)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate-config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_values(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": 1}))
        assert main(["validate-config", str(path)]) == EXIT_CONFIG

    def test_malformed_and_non_finite_scalars(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in ('{"dt": "abc"}', '{"N": null}', '{"sigma_g": NaN}',
                     '{"N": 12.9}', '{"runs": true}', '{"dt": "0.05"}'):
            path.write_text(text)
            assert main(["validate-config", str(path)]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err


class TestRun:
    def test_run_writes_series_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", "--config", str(config_path), "--out", str(out), "--format", "csv"]
        )
        assert code == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert "summary.json" in files
        assert "run_000_otf.csv" in files and "run_001_otnleqma.csv" in files
        header = (out / "run_000_otf.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER
        assert "avg RMS constraint error" in capsys.readouterr().out

    def test_variant_and_runs_overrides(self, config_path, tmp_path):
        out = tmp_path / "results"
        code = main(
            [
                "run", "--config", str(config_path),
                "--variant", "otf", "--runs", "1", "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == ["run_000_otf.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["base_seed"] == 11
        assert [e["variant"] for e in summary["aggregate"]] == ["otf"]

    def test_negative_seed_is_config_error(self, config_path, tmp_path, capsys):
        code = main(
            ["run", "--config", str(config_path), "--seed", "-3",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_CONFIG
        assert "base_seed" in capsys.readouterr().err

    def test_solver_failure_maps_to_runtime_exit(
        self, config_path, tmp_path, monkeypatch
    ):
        def explode(config, workers=1):
            raise NonconvergenceError("synthetic solver failure")

        monkeypatch.setattr(otfilter.cli, "monte_carlo", explode)
        code = main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_RUNTIME

    def test_byte_identical_across_executions(self, config_path, tmp_path):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert (
                main(["run", "--config", str(config_path), "--out", str(out)])
                == EXIT_OK
            )
            digests.append(
                {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in out.iterdir()
                }
            )
        assert digests[0] == digests[1]


class TestSample:
    def test_bimodal_sample_file(self, tmp_path):
        out = tmp_path / "samples"
        code = main(
            ["sample", "--target", "bimodal", "--n", "60", "--seed", "5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "bimodal_samples.csv").read_text().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 61

    def test_annulus_sample_with_diagnostics(self, tmp_path):
        out = tmp_path / "samples"
        code = main(
            ["sample", "--target", "annulus", "--n", "80", "--seed", "5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "annulus_samples.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        diag = json.loads((out / "annulus_diagnostics.json").read_text())
        assert 0.0 <= diag["annulus_coverage"] <= 1.0
        assert diag["n"] == 80

    def test_sample_determinism(self, tmp_path):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["sample", "--target", "bimodal", "--n", "40", "--seed", "9",
                  "--out", str(out)])
            digests.append(
                hashlib.sha256((out / "bimodal_samples.csv").read_bytes()).hexdigest()
            )
        assert digests[0] == digests[1]

    def test_output_below_a_file_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = main(
            ["sample", "--target", "bimodal", "--n", "5",
             "--out", str(blocker / "sub")]
        )
        assert code == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err

    def test_unwritable_annulus_diagnostics_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "annulus_diagnostics.json").mkdir()
        code = main(
            ["sample", "--target", "annulus", "--n", "20", "--out", str(tmp_path)]
        )
        assert code == EXIT_RUNTIME
        assert "annulus_diagnostics.json" in capsys.readouterr().err

    def test_too_few_samples_is_config_error(self, tmp_path):
        code = main(
            ["sample", "--target", "bimodal", "--n", "1", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = main(
            ["sample", "--target", "bimodal", "--seed", "-1", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
