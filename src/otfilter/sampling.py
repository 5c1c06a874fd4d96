"""Equal-weight sampling from a target density via transport resampling.

Draws from an easy proposal on the target's support, weights each draw by
the (unnormalized) target density, and resamples through the transport LP
so the output is again equally weighted.  Outputs are convex combinations
of the proposal samples, which is exact only on convex supports; on the
annulus demonstration some outputs land inside the hole, and the coverage
diagnostic quantifies how many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import Ensemble
from .errors import EmptySupportError, InsufficientSamplesError
from .transport import (
    CostMetric,
    WeightVector,
    apply_transport,
    build_cost_matrix,
    solve_transport,
)


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized density evaluated batchwise: (N, d) points -> (N,) values."""

    pdf: Callable[[np.ndarray], np.ndarray]


def ot_sample(
    proposal: Ensemble,
    target: TargetDensity,
    metric: CostMetric = CostMetric.EUCLIDEAN,
) -> Ensemble:
    """Convert equal-weight proposal draws into equal-weight target draws.

    Weights are the target pdf values at the proposal points (normalized),
    and the transport plan redistributes the samples accordingly; the
    output mean equals the self-normalized importance-sampling mean.
    """
    if proposal.size < 2:
        raise InsufficientSamplesError(
            f"ot_sample needs at least 2 proposal samples, got {proposal.size}"
        )
    values = np.asarray(target.pdf(proposal.members), dtype=float).reshape(-1)
    if values.size != proposal.size:
        raise ValueError(
            f"pdf returned {values.size} values for {proposal.size} samples"
        )
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("pdf values must be finite and nonnegative")
    total = values.sum()
    if total <= 0.0:
        raise EmptySupportError("every proposal sample has zero target density")
    weights = WeightVector(values / total)
    plan = solve_transport(build_cost_matrix(proposal, metric), weights)
    return apply_transport(proposal, plan)


def annulus_proposal(
    n_samples: int, r_in: float, r_out: float, rng: np.random.Generator
) -> Ensemble:
    """Area-uniform samples on the annulus r_in <= ||s|| <= r_out.

    Radius by inverse CDF (square root of a uniform draw over the squared
    radii), angle uniform; deterministic given the generator state.
    """
    if not 0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
    radii = np.sqrt(rng.uniform(r_in**2, r_out**2, size=n_samples))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_samples)
    return Ensemble(
        np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    )


def bimodal_target(
    m1: float = -2.0,
    s1: float = 0.5,
    m2: float = 2.0,
    s2: float = 0.5,
    p: float = 0.5,
) -> TargetDensity:
    """Two-component Gaussian mixture on the real line.

    pdf(x) = p N(x; m1, s1^2) + (1-p) N(x; m2, s2^2), normalized.
    """
    if s1 <= 0 or s2 <= 0:
        raise ValueError("mixture component scales must be positive")
    if not 0 < p <= 1:
        raise ValueError(f"mixture weight must be in (0, 1], got {p}")

    def pdf(points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=float).reshape(-1)
        a = p * np.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
        b = (1 - p) * np.exp(-0.5 * ((x - m2) / s2) ** 2) / (
            s2 * math.sqrt(2 * math.pi)
        )
        return a + b

    return TargetDensity(pdf=pdf)


def uniform_annulus_target(r_in: float, r_out: float) -> TargetDensity:
    """Uniform density on the annulus (zero outside)."""
    if not 0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
    area = math.pi * (r_out**2 - r_in**2)

    def pdf(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        return np.where((radii >= r_in) & (radii <= r_out), 1.0 / area, 0.0)

    return TargetDensity(pdf=pdf)


def annulus_coverage(samples: Ensemble, r_in: float, r_out: float) -> float:
    """Fraction of samples inside the annulus; a convexity diagnostic,
    since transport outputs may fall in the hole of a non-convex support."""
    radii = np.hypot(samples.members[:, 0], samples.members[:, 1])
    return float(np.mean((radii >= r_in) & (radii <= r_out)))
