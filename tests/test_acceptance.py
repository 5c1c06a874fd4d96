"""Acceptance suite: the exit criteria for the whole package.

Each test prints one PASS/FAIL line with the measured numbers.  The
Monte-Carlo criteria (4-6) share a single 30-run batch at the default
study configuration, which dominates the suite's runtime; they carry the
``slow`` marker, so ``pytest -m "not slow"`` leaves the batch out.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from otfilter.cli import EXIT_OK, main
from otfilter.ensemble import Ensemble
from otfilter.filters import FilterVariant, constraint_projection
from otfilter.harness import ExperimentConfig, monte_carlo
from otfilter.models import ConstraintSpec
from otfilter.sampling import (
    annulus_coverage,
    annulus_proposal,
    bimodal_target,
    ot_sample,
    uniform_annulus_target,
)
from otfilter.transport import (
    WeightVector,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)

from helpers import (
    convex_hull_2d,
    ks_statistic,
    mixture_inverse_cdf_sample,
    points_in_hull,
)
from oracle_transport import min_cost_by_enumeration


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}", flush=True)


@pytest.fixture(scope="module")
def study_batch():
    """30-run Monte-Carlo batch at the default configuration, all variants."""
    config = ExperimentConfig(runs=30, base_seed=0)
    return monte_carlo(config, workers=2)


def test_criterion_1_transport_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_obj = 0.0
    worst_marginal = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        members = rng.normal(size=(n, int(rng.integers(1, 4))))
        cost = build_cost_matrix(Ensemble(members))
        raw = rng.exponential(size=n)
        weights = WeightVector(raw / raw.sum())
        plan = solve_transport(cost, weights)
        oracle_obj, _ = min_cost_by_enumeration(
            cost.D, weights.w, np.full(n, 1.0 / n)
        )
        worst_obj = max(worst_obj, abs(plan.objective_value - oracle_obj))
        worst_marginal = max(
            worst_marginal,
            np.max(np.abs(plan.T.sum(axis=0) - 1.0 / n)),
            np.max(np.abs(plan.T.sum(axis=1) - weights.w)),
        )
    elapsed = time.perf_counter() - start
    passed = worst_obj <= 1e-8 and worst_marginal <= 1e-9 and elapsed < 10.0
    report(
        1,
        "transport-LP oracle equivalence",
        passed,
        f"200 instances, worst objective gap {worst_obj:.2e}, "
        f"worst marginal violation {worst_marginal:.2e}, {elapsed:.2f}s",
    )
    assert worst_obj <= 1e-8
    assert worst_marginal <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_resampling_identities():
    rng = np.random.default_rng(77)
    worst_fixed_point = 0.0
    worst_mean = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        e = Ensemble(rng.normal(size=(n, int(rng.integers(1, 5)))))
        cost = build_cost_matrix(e)

        uniform = WeightVector(np.full(n, 1.0 / n))
        out = apply_transport(e, solve_transport(cost, uniform))
        worst_fixed_point = max(
            worst_fixed_point, float(np.max(np.abs(out.members - e.members)))
        )

        raw = rng.exponential(size=n)
        weights = WeightVector(raw / raw.sum())
        out = apply_transport(e, solve_transport(cost, weights))
        target = weights.w @ e.members
        worst_mean = max(
            worst_mean, float(np.max(np.abs(out.members.mean(axis=0) - target)))
        )
    passed = worst_fixed_point <= 1e-10 and worst_mean <= 1e-10
    report(
        2,
        "resampling identities",
        passed,
        f"100 ensembles, worst fixed-point deviation {worst_fixed_point:.2e}, "
        f"worst mean-preservation error {worst_mean:.2e}",
    )
    assert worst_fixed_point <= 1e-10
    assert worst_mean <= 1e-10


def test_criterion_3_linear_constraint_exactness():
    rng = np.random.default_rng(123)
    worst_violation = 0.0
    worst_idempotence = 0.0
    for _ in range(50):
        n_dim = int(rng.integers(2, 6))
        s_dim = int(rng.integers(1, n_dim))
        A = rng.normal(size=(s_dim, n_dim))
        b = rng.normal(size=s_dim)
        d = rng.normal(size=s_dim)
        spec = ConstraintSpec(g_fn=lambda x, A=A, b=b: x @ A.T + b, d=d)
        e = Ensemble(rng.normal(size=(int(rng.integers(n_dim + 2, 40)), n_dim)))
        once, _ = constraint_projection(e, spec)
        worst_violation = max(
            worst_violation, float(np.max(np.abs(spec.evaluate(once.members) - d)))
        )
        twice, _ = constraint_projection(once, spec)
        worst_idempotence = max(
            worst_idempotence, float(np.max(np.abs(twice.members - once.members)))
        )
    passed = worst_violation <= 1e-8 and worst_idempotence <= 1e-8
    report(
        3,
        "linear-constraint exactness",
        passed,
        f"50 cases, worst one-step violation {worst_violation:.2e}, "
        f"worst idempotence deviation {worst_idempotence:.2e}",
    )
    assert worst_violation <= 1e-8
    assert worst_idempotence <= 1e-8


@pytest.mark.slow
def test_criterion_4_pendulum_divergence(study_batch):
    ratios = []
    firsts, finals = [], []
    for record in study_batch.runs:
        result = record.results[FilterVariant.OTF]
        first = result.constraint_error[result.t <= 2.0].mean()
        final = result.constraint_error[result.t > 8.0].mean()
        firsts.append(first)
        finals.append(final)
        ratios.append(final / first)
    median_first = float(np.median(firsts))
    median_final = float(np.median(finals))
    passed = median_final >= 2.0 * median_first
    report(
        4,
        "pendulum divergence reproduction",
        passed,
        f"OTF over 30 seeds: median first-2s error {median_first:.4f}, "
        f"median final-2s error {median_final:.4f} "
        f"(ratio {median_final / median_first:.1f}x, per-seed median "
        f"{np.median(ratios):.1f}x)",
    )
    assert median_final >= 2.0 * median_first


@pytest.mark.slow
def test_criterion_5_variant_ordering(study_batch):
    agg = {
        entry.variant: entry.avg_rms_constraint_error
        for entry in study_batch.aggregate
    }
    otf = agg[FilterVariant.OTF]
    otproj = agg[FilterVariant.OTPROJ]
    otma = agg[FilterVariant.OTMA]
    otnleq = agg[FilterVariant.OTNLEQ]
    otnleqma = agg[FilterVariant.OTNLEQMA]
    failed_runs = sum(e.runs_failed for e in study_batch.aggregate)

    ordering = otnleqma < otnleq < otma < max(otf, otproj)
    proj_comparable = abs(otproj - otf) / otf < 0.2
    # The full-protocol mode matches the original study's run count.
    protocol_runs = ExperimentConfig().runs
    passed = ordering and proj_comparable and protocol_runs == 100
    report(
        5,
        "variant ordering at desk scale",
        passed,
        f"avg RMS: otnleqma={otnleqma:.4f} < otnleq={otnleq:.4f} < "
        f"otma={otma:.4f} < max(otf={otf:.4f}, otproj={otproj:.4f}); "
        f"|otproj-otf|/otf={abs(otproj - otf) / otf:.3f}; "
        f"failed runs {failed_runs}; full-protocol runs={protocol_runs}",
    )
    assert ordering
    assert proj_comparable
    assert protocol_runs == 100


@pytest.mark.slow
def test_criterion_6_otnleqma_stability(study_batch):
    errors = np.array(
        [
            np.concatenate(
                (
                    [record.results[FilterVariant.OTNLEQMA].initial_constraint_error],
                    record.results[FilterVariant.OTNLEQMA].constraint_error,
                )
            )
            for record in study_batch.runs
        ]
    )
    median_series = np.median(errors, axis=0)
    worst = float(median_series.max())
    passed = worst < 0.1
    report(
        6,
        "constrained-filter stability",
        passed,
        f"OTNLeqMA median constraint error over 30 seeds: "
        f"max over t in [0, 10] s is {worst:.4f} (< 0.1 m required)",
    )
    assert worst < 0.1


def test_criterion_7_sampler_fidelity():
    reference = mixture_inverse_cdf_sample(20_000, np.random.default_rng(555))
    stats = []
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        proposal = Ensemble(rng.uniform(-6.0, 6.0, size=(500, 1)))
        out = ot_sample(proposal, bimodal_target())
        stats.append(ks_statistic(out.members, reference))
    median_ks = float(np.median(stats))

    rng = np.random.default_rng(4321)
    proposal = annulus_proposal(500, 0.5, 1.0, rng)
    out = ot_sample(proposal, uniform_annulus_target(0.5, 1.0))
    hull = convex_hull_2d(proposal.members)
    hull_membership = float(points_in_hull(out.members, hull).mean())
    coverage = annulus_coverage(out, 0.5, 1.0)

    passed = median_ks < 0.1 and hull_membership == 1.0
    report(
        7,
        "sampler fidelity",
        passed,
        f"bimodal median KS over 20 seeds {median_ks:.4f} (< 0.1); annulus "
        f"hull membership {hull_membership:.1%}, coverage diagnostic "
        f"{coverage:.1%}",
    )
    assert median_ks < 0.1
    assert hull_membership == 1.0
    assert 0.0 <= coverage <= 1.0


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "dt": 0.05,
        "t_final": 2.5,
        "N": 40,
        "runs": 2,
        "base_seed": 17,
        "variants": "all",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        code = main(
            ["run", "--config", str(config_path), "--out", str(out_dir),
             "--format", "csv"]
        )
        assert code == EXIT_OK
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.iterdir())
            }
        )
    passed = digests[0] == digests[1] and len(digests[0]) == 11
    report(
        8,
        "end-to-end determinism",
        passed,
        f"two executions, {len(digests[0])} files each, byte-identical: "
        f"{digests[0] == digests[1]}",
    )
    assert digests[0] == digests[1]
