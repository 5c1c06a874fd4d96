"""Equally weighted sample ensembles and their sample statistics.

An ensemble is an ordered set of N state vectors with implicit equal
weights; any unequal weighting lives in a separate weight vector (see
:mod:`otfilter.transport`).  Covariances use the unbiased N-1 divisor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InsufficientSamplesError,
    InvalidEnsembleError,
)


@dataclass(frozen=True)
class Ensemble:
    """N equally weighted state vectors, one per row of ``members``."""

    members: np.ndarray

    def __post_init__(self):
        try:
            members = np.asarray(self.members, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidEnsembleError(
                f"members must form a rectangular numeric array: {exc}"
            ) from exc
        if members.ndim == 1:
            members = members[:, None]
        if members.ndim != 2 or members.shape[0] < 1 or members.shape[1] < 1:
            raise InvalidEnsembleError(
                f"expected a non-empty (N, n) array, got shape {members.shape}"
            )
        if not np.all(np.isfinite(members)):
            raise InvalidEnsembleError("ensemble members must be finite")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        """Number of members N."""
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        """State dimension n."""
        return self.members.shape[1]


def mean(e: Ensemble) -> np.ndarray:
    """Coordinatewise arithmetic mean of the members."""
    return e.members.mean(axis=0)


def covariance(e: Ensemble) -> np.ndarray:
    """Unbiased (N-1 divisor) sample covariance, symmetrized exactly."""
    if e.size < 2:
        raise InsufficientSamplesError(
            f"covariance needs at least 2 members, got {e.size}"
        )
    centered = e.members - e.members.mean(axis=0)
    cov = centered.T @ centered / (e.size - 1)
    return 0.5 * (cov + cov.T)


def cross_covariance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unbiased sample cross-covariance between two paired sample sets.

    Args:
        a: (N, p) array of samples.
        b: (N, q) array of samples, paired row-for-row with ``a``.

    Returns:
        (p, q) cross-covariance with the N-1 divisor.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] != b.shape[0]:
        raise InsufficientSamplesError(
            f"sample counts differ: {a.shape[0]} vs {b.shape[0]}"
        )
    if a.shape[0] < 2:
        raise InsufficientSamplesError(
            f"cross-covariance needs at least 2 samples, got {a.shape[0]}"
        )
    da = a - a.mean(axis=0)
    db = b - b.mean(axis=0)
    return da.T @ db / (a.shape[0] - 1)


def from_gaussian(
    mean: np.ndarray,
    cov: np.ndarray,
    n_members: int,
    rng: np.random.Generator,
) -> Ensemble:
    """Draw an ensemble of independent samples from N(mean, cov).

    ``cov`` must be symmetric positive definite; sampling uses its Cholesky
    factor, so draws are deterministic for a given generator state.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise DecompositionError(
            f"covariance shape {cov.shape} does not match state dimension {mean.size}"
        )
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise DecompositionError("covariance must be symmetric")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is not positive definite: {exc}") from exc
    draws = mean + rng.standard_normal((n_members, mean.size)) @ factor.T
    return Ensemble(draws)
