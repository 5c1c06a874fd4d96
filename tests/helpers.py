"""Shared statistical and geometric oracles for the test suite, and the
transport solver paths that tests run on."""

import dataclasses
import math
import shutil

import numpy as np
import pytest

from otfilter import _native


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(b, dtype=float).reshape(-1))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def gaussian_cdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + np.vectorize(math.erf)(z))


def mixture_cdf(
    x: np.ndarray, m1: float, s1: float, m2: float, s2: float, p: float
) -> np.ndarray:
    return p * gaussian_cdf(x, m1, s1) + (1.0 - p) * gaussian_cdf(x, m2, s2)


def mixture_inverse_cdf_sample(
    n: int,
    rng: np.random.Generator,
    m1: float = -2.0,
    s1: float = 0.5,
    m2: float = 2.0,
    s2: float = 0.5,
    p: float = 0.5,
) -> np.ndarray:
    """Draws from the Gaussian mixture by bisecting its CDF.

    Independent of the transport path entirely: quantile inversion of the
    closed-form CDF, 90 bisection steps per draw (vectorized).
    """
    u = rng.uniform(size=n)
    span = 12.0 * max(s1, s2)
    lo = np.full(n, min(m1, m2) - span)
    hi = np.full(n, max(m1, m2) + span)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(mid, m1, s1, m2, s2, p) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points (Andrew's monotone chain), CCW order."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(chain_points):
        chain: list[np.ndarray] = []
        for point in chain_points:
            while len(chain) >= 2:
                u = chain[-1] - chain[-2]
                w = point - chain[-2]
                if u[0] * w[1] - u[1] * w[0] <= 0:
                    chain.pop()
                else:
                    break
            chain.append(point)
        return chain

    lower = half(ordered)
    upper = half(ordered[::-1])
    return np.array(lower[:-1] + upper[:-1])


def points_in_hull(points: np.ndarray, hull: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which points lie inside/on the CCW convex hull."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(hull) < 3:
        # Degenerate hull: accept points within tol of the segment/point.
        d = np.linalg.norm(points[:, None, :] - hull[None, :, :], axis=2).min(axis=1)
        return d <= tol
    inside = np.ones(len(points), dtype=bool)
    for k in range(len(hull)):
        a = hull[k]
        b = hull[(k + 1) % len(hull)]
        edge = b - a
        # Signed area of (edge, point - a); negative means outside a CCW hull.
        cross = edge[0] * (points[:, 1] - a[1]) - edge[1] * (points[:, 0] - a[0])
        inside &= cross >= -tol
    return inside


# chi-square 0.99 quantiles frozen for the angular-uniformity gate
CHI2_99_DOF19 = 36.19086912927004


# The transport solver's paths: the Python loop and the compiled kernel,
# the latter with scalar and with AVX2 pricing.
SOLVER_PATHS = ("python", "c-scalar", "c-avx2")


def solver_kernels() -> list[tuple[str, object]]:
    """``(path, kernel)`` for each solver path this machine runs, the kernel
    being None for the Python loop.

    The C paths are left out only where no C compiler is installed, and AVX2
    pricing where the CPU lacks AVX2; a compiler that is present but cannot
    build the kernel fails the test.
    """
    paths = [("python", None)]
    kernel = _native.load_kernel()
    if kernel is None:
        if shutil.which(_native._compiler()[0]) is not None:
            pytest.fail("a C compiler is installed but the transport kernel did not build")
        return paths
    paths.append(("c-scalar", dataclasses.replace(kernel, avx2=False)))
    if kernel.avx2:
        paths.append(("c-avx2", kernel))
    return paths


def kernel_for(path: str):
    """The kernel of one solver path; skips a path this machine cannot run."""
    kernels = dict(solver_kernels())
    if path not in kernels:
        pytest.skip(f"solver path {path} does not run on this machine")
    return kernels[path]
