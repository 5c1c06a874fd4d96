"""Monte-Carlo experiment driver for the constrained-pendulum study.

A run draws a perturbed initial condition, simulates the truth and its
noisy position measurements once, and feeds the identical data to every
filter variant (common random numbers).  Aggregation reports the average
RMS constraint error per variant over non-failed runs.  Everything is
deterministic in (config, base_seed): run r uses seed base_seed + r, and
output files are byte-identical across repeat executions.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .ensemble import from_gaussian
from .errors import ConfigError, OTFilterError
from .filters import (
    FilterRunResult,
    FilterVariant,
    ProjectionInnovation,
    run_filter,
)
from .models import (
    DEFAULT_CONSTRAINT_SIGMA,
    AugmentedMeasurementModel,
    ConstraintSpec,
    MeasurementModel,
    PendulumParams,
    pendulum_constraint_spec,
    pendulum_measurement_model,
    propagate_state,
)
from .transport import CostMetric

ALL_VARIANTS = tuple(FilterVariant)

_DEFAULT_SPREAD_DIAG = (0.05**2, 0.05**2, 0.01**2, 0.01**2)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Study parameters, also read by ``filter_step`` and ``run_filter``;
    defaults reproduce the pendulum experiment.  The models below are built
    once per object and are not fields, so the JSON schema omits them."""

    dt: float = 0.05
    t_final: float = 10.0
    N: int = 100
    substeps: int = 16
    pendulum: PendulumParams = field(default_factory=PendulumParams)
    R_diag: float = 0.01
    sigma_g: float = DEFAULT_CONSTRAINT_SIGMA
    variants: tuple[FilterVariant, ...] = ALL_VARIANTS
    runs: int = 100
    base_seed: int = 0
    initial_spread: np.ndarray = field(
        default_factory=lambda: np.diag(_DEFAULT_SPREAD_DIAG)
    )
    initial_angle_deg: float = 30.0
    metric: CostMetric = CostMetric.EUCLIDEAN
    projection_innovation: ProjectionInnovation = ProjectionInnovation.PAPER_LITERAL

    def __post_init__(self):
        object.__setattr__(
            self, "initial_spread", np.asarray(self.initial_spread, dtype=float)
        )
        object.__setattr__(self, "variants", tuple(FilterVariant(v) for v in self.variants))
        object.__setattr__(self, "metric", CostMetric(self.metric))
        object.__setattr__(
            self,
            "projection_innovation",
            ProjectionInnovation(self.projection_innovation),
        )
        validate_config(self)

    def __eq__(self, other: object) -> bool:
        # ndarray fields break the generated comparison; the JSON echo is
        # the semantic identity of a config.
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return config_to_dict(self) == config_to_dict(other)

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_final / self.dt + 1e-9))

    def initial_truth_state(self) -> np.ndarray:
        angle = math.radians(self.initial_angle_deg)
        L = self.pendulum.L
        return np.array([L * math.cos(angle), L * math.sin(angle), 0.0, 0.0])

    @cached_property
    def measurement(self) -> MeasurementModel:
        return pendulum_measurement_model(self.R_diag)

    @cached_property
    def constraint(self) -> ConstraintSpec:
        return pendulum_constraint_spec(self.pendulum)

    @cached_property
    def augmented_measurement(self) -> AugmentedMeasurementModel:
        return AugmentedMeasurementModel(self.measurement, self.constraint, self.sigma_g)


def validate_config(config: ExperimentConfig) -> None:
    for name in ("dt", "t_final", "R_diag", "sigma_g", "initial_angle_deg"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if config.dt <= 0:
        raise ConfigError(f"dt must be positive, got {config.dt}")
    if config.t_final < config.dt:
        raise ConfigError(f"t_final must be at least dt, got {config.t_final}")
    if config.N < 2:
        raise ConfigError(f"ensemble size N must be at least 2, got {config.N}")
    if config.runs < 1:
        raise ConfigError(f"runs must be at least 1, got {config.runs}")
    if config.base_seed < 0:
        raise ConfigError(f"base_seed must be nonnegative, got {config.base_seed}")
    if config.substeps < 1:
        raise ConfigError(f"substeps must be at least 1, got {config.substeps}")
    if config.R_diag <= 0:
        raise ConfigError(f"R_diag must be positive, got {config.R_diag}")
    if config.sigma_g <= 0:
        raise ConfigError(f"sigma_g must be positive, got {config.sigma_g}")
    if not config.variants:
        raise ConfigError("variant list must not be empty")
    spread = config.initial_spread
    if spread.shape != (4, 4):
        raise ConfigError(f"initial_spread must be 4x4, got shape {spread.shape}")
    if not np.isfinite(spread).all():
        raise ConfigError("initial_spread entries must be finite")
    if not np.allclose(spread, spread.T, atol=1e-12):
        raise ConfigError("initial_spread must be symmetric")
    if np.linalg.eigvalsh(spread).min() <= 0:
        raise ConfigError("initial_spread must be positive definite")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict; unknown keys are rejected.

    Numbers take their field's type without coercion (see ``_number``).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _parse_field(key, value, defaults[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {key}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_field(key: str, value: object, default: object) -> object:
    """One raw config value as its field's type."""
    if key == "pendulum":
        if not isinstance(value, dict) or set(value) - {"L", "g"}:
            raise ConfigError("pendulum must be an object with keys L and g")
        return PendulumParams(**{k: _number(v) for k, v in value.items()})
    if key == "variants":
        return parse_variants(value)
    if key == "initial_spread":
        entries = np.asarray(value, dtype=object)
        spread = np.vectorize(_number, otypes=[float])(entries)
        if spread.ndim == 1:
            if spread.size != 4:
                raise ConfigError("diagonal initial_spread needs 4 variances")
            spread = np.diag(spread)
        return spread
    if isinstance(default, Enum):
        return type(default)(value)
    return _number(value, type(default))


def _number(value: object, kind: type = float) -> int | float:
    """A JSON number as ``kind``: a bool, a string or, for an int field, a
    fraction is rejected, never converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def config_from_json(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready echo of a config, mirroring the accepted input schema."""
    echo = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "pendulum":
            value = {"L": value.L, "g": value.g}
        elif f.name == "variants":
            value = [v.value for v in value]
        elif f.name == "initial_spread":
            value = value.tolist()
        elif isinstance(value, Enum):
            value = value.value
        echo[f.name] = value
    return echo


def parse_variants(spec: object) -> tuple[FilterVariant, ...]:
    """Accepts 'all', a variant name, or a list of names."""
    if spec == "all":
        return ALL_VARIANTS
    if isinstance(spec, str):
        spec = [spec]
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(f"variants must be 'all' or a list, got {spec!r}")
    try:
        return tuple(FilterVariant(v) for v in spec)
    except ValueError as exc:
        raise ConfigError(f"unknown variant in {spec!r}") from exc


@dataclass(frozen=True)
class TruthData:
    """One truth trajectory with its measurement series."""

    times: np.ndarray
    states: np.ndarray
    measurements: np.ndarray
    initial_state: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    """Everything produced by one Monte-Carlo run."""

    run_index: int
    seed: int
    truth: TruthData
    results: dict[FilterVariant, FilterRunResult]
    failures: dict[FilterVariant, str]


@dataclass(frozen=True)
class VariantAggregate:
    variant: FilterVariant
    avg_rms_constraint_error: float
    runs_used: int
    runs_failed: int


@dataclass(frozen=True)
class MonteCarloResult:
    config: ExperimentConfig
    aggregate: tuple[VariantAggregate, ...]
    runs: tuple[RunRecord, ...]


def simulate_truth(config: ExperimentConfig, rng: np.random.Generator) -> TruthData:
    """RK4 truth from the configured release angle, one noisy position
    measurement per dt."""
    model = config.measurement
    chol = np.linalg.cholesky(model.R)
    state = config.initial_truth_state()
    initial = state.copy()
    n_steps = config.n_steps
    times = np.empty(n_steps)
    states = np.empty((n_steps, 4))
    measurements = np.empty((n_steps, model.dim))
    for k in range(n_steps):
        state = propagate_state(state, config.pendulum, config.dt, config.substeps)
        times[k] = (k + 1) * config.dt
        states[k] = state
        measurements[k] = model.H @ state + chol @ rng.standard_normal(model.dim)
    return TruthData(
        times=times, states=states, measurements=measurements, initial_state=initial
    )


def rms_constraint_error(series: np.ndarray) -> float:
    """Root-mean-square of a constraint-error series."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("constraint-error series must be nonempty")
    return float(np.sqrt(np.mean(series**2)))


def run_single(config: ExperimentConfig, run_index: int) -> RunRecord:
    """One Monte-Carlo run: shared truth/measurements/initial ensemble,
    then every configured variant on the identical data."""
    seed = config.base_seed + run_index
    rng = np.random.default_rng(seed)
    truth = simulate_truth(config, rng)

    spread_chol = np.linalg.cholesky(config.initial_spread)
    center = truth.initial_state + spread_chol @ rng.standard_normal(4)
    initial = from_gaussian(center, config.initial_spread, config.N, rng)

    results: dict[FilterVariant, FilterRunResult] = {}
    failures: dict[FilterVariant, str] = {}
    for variant in config.variants:
        try:
            result = run_filter(initial, truth.measurements, variant, config)
        except (OTFilterError, np.linalg.LinAlgError) as exc:
            failures[variant] = f"{type(exc).__name__}: {exc}"
            continue
        if not (
            np.all(np.isfinite(result.mean))
            and np.all(np.isfinite(result.std))
            and np.all(np.isfinite(result.constraint_error))
        ):
            failures[variant] = "non-finite values in output series"
            continue
        results[variant] = result
    return RunRecord(
        run_index=run_index, seed=seed, truth=truth, results=results, failures=failures
    )


def monte_carlo(config: ExperimentConfig, workers: int = 1) -> MonteCarloResult:
    """All runs, aggregated per variant over non-failed runs.

    Runs are independent; ``workers > 1`` fans them out to a process pool.
    Per-run seeding makes the result identical regardless of scheduling.
    """
    indices = range(config.runs)
    if workers > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_single, [config] * config.runs, indices))
    else:
        records = [run_single(config, r) for r in indices]

    entries = []
    for variant in config.variants:
        rms_values = [
            rms_constraint_error(rec.results[variant].constraint_error)
            for rec in records
            if variant in rec.results
        ]
        failed = sum(1 for rec in records if variant in rec.failures)
        avg = float(np.mean(rms_values)) if rms_values else float("nan")
        entries.append(
            VariantAggregate(
                variant=variant,
                avg_rms_constraint_error=avg,
                runs_used=len(rms_values),
                runs_failed=failed,
            )
        )
    return MonteCarloResult(config=config, aggregate=tuple(entries), runs=tuple(records))


CSV_HEADER = "t,x_true,y_true,x_est,y_est,std_x,std_y,std_vx,std_vy,constraint_error"
_SERIES_COLUMNS = CSV_HEADER.split(",")


def _series_rows(truth: TruthData, result: FilterRunResult):
    for k in range(result.t.size):
        yield (
            result.t[k],
            truth.states[k, 0],
            truth.states[k, 1],
            result.mean[k, 0],
            result.mean[k, 1],
            result.std[k, 0],
            result.std[k, 1],
            result.std[k, 2],
            result.std[k, 3],
            result.constraint_error[k],
        )


def write_outputs(
    result: MonteCarloResult, out_dir: str | Path, fmt: str = "csv"
) -> list[Path]:
    """Per-run/per-variant time-series files plus one aggregate summary.

    Series files are CSV or JSON per ``fmt``; the summary (aggregate plus a
    config echo) is always JSON.  Identical inputs produce byte-identical
    files: floats are emitted with shortest round-trip repr.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OTFilterError(f"cannot create output directory {out_dir}: {exc}") from exc

    written: list[Path] = []
    for record in result.runs:
        for variant, run_result in record.results.items():
            name = f"run_{record.run_index:03d}_{variant.value}.{fmt}"
            path = out_dir / name
            rows = list(_series_rows(record.truth, run_result))
            try:
                if fmt == "csv":
                    lines = [CSV_HEADER]
                    lines += [",".join(repr(float(v)) for v in row) for row in rows]
                    path.write_text("\n".join(lines) + "\n")
                else:
                    payload = [
                        {col: float(v) for col, v in zip(_SERIES_COLUMNS, row)}
                        for row in rows
                    ]
                    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            except OSError as exc:
                raise OTFilterError(f"cannot write {path}: {exc}") from exc
            written.append(path)

    summary = {
        "config": config_to_dict(result.config),
        "aggregate": [
            {
                "variant": entry.variant.value,
                # null rather than NaN keeps the file strict JSON when a
                # variant failed in every run.
                "avg_rms_constraint_error": (
                    None
                    if math.isnan(entry.avg_rms_constraint_error)
                    else entry.avg_rms_constraint_error
                ),
                "runs_used": entry.runs_used,
                "runs_failed": entry.runs_failed,
            }
            for entry in result.aggregate
        ],
    }
    summary_path = out_dir / "summary.json"
    try:
        summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        raise OTFilterError(f"cannot write {summary_path}: {exc}") from exc
    written.append(summary_path)
    return written


def write_samples(
    members: np.ndarray, out_path: str | Path, columns: tuple[str, ...]
) -> Path:
    """CSV export of a sample set (used by the sampling CLI)."""
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.shape[1] != len(columns):
        raise ValueError(
            f"{len(columns)} columns declared for {members.shape[1]}-dim samples"
        )
    out_path = Path(out_path)
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) for v in row) for row in members]
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OTFilterError(f"cannot write {out_path}: {exc}") from exc
    return out_path
