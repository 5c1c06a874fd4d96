"""Ensemble resampling through a transportation linear program.

The Bayesian update is realized as a discrete optimal-transport problem:
pairwise costs between the N prior members, a plan T minimizing total
cost subject to column sums 1/N (equal posterior weights) and row sums
w_i (likelihood weights), and the resampling map X+ = X- N T, which makes
every posterior member a convex combination of prior members.

The solver is a dense transportation simplex on the bipartite formulation.
A least-cost scan gives the starting basis, a spanning tree over the row
and column nodes.  The tree is kept rooted at row 0 as parent and depth
lists, together with the node potentials u (rows) and v (columns) fixed by
u_0 = 0 and u_i + v_j = c_ij on every tree cell.  Each pivot prices every
cell by its reduced cost (c_ij - u_i) - v_j, enters the most negative one,
finds the cycle by walking parent pointers up from the entering cell's row
and column to their common ancestor, and removes the cycle's minus cell
with the smallest allocation.  Cutting that cell detaches one subtree; it
is re-hung from the entering cell and only its potentials are recomputed.
Degeneracy is handled with zero-allocation basic cells and a switch to
Bland's rule after a run of degenerate pivots, which guarantees termination
in exact arithmetic.

The pivot rule is frozen, down to its floating-point arithmetic: entering
by argmin over the whole reduced-cost matrix (first index wins), Bland
taking the first negative cell in row-major order, leaving by smallest
allocation (smallest (i, j) wins), and every potential computed by one
subtraction from its parent's along the tree.  Optimal vertices often tie
(duplicated members, lattice costs), and the filter's output bytes depend
on which one the solver returns, so a change to any of these rules changes
outputs.  ``tests/test_solver_reference.py`` holds the solver to a frozen
copy of its earlier pivot sequence, bit for bit.

The simplex and its least-cost start run in C (``_simplex.c``, built at the
first solve by ``_native``) wherever a C compiler works.  The kernel makes
the same pivots with the same floating-point operations;
``_transportation_simplex`` below is the readable specification and the
fallback without a compiler, and returns the same plans.  The C start
picks the cells of ``_initial_basic_solution``'s sorted scan from a heap of
row heads, and sorts a row's columns only for a row that stays open past
its cheapest cell.

Costs are summed in a fixed order (``build_cost_matrix``), so their bytes
are a property of this module and not of how numpy sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensemble import Ensemble
from .errors import (
    InvalidPlanError,
    MarginalInfeasibilityError,
    NonconvergenceError,
)

WEIGHT_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-9

# Reduced costs above this (negative) threshold count as optimal.  It, the
# Bland trigger and the iteration limit below are defined here for both
# solver paths: the kernel receives them with each call.
_REDUCED_COST_TOL = 1e-11
# The least-cost start converts its sorted cell indices to Python ints this
# many at a time, so no N*N-element list lives beside the N x N arrays.
_SCAN_CHUNK = 1024


class CostMetric(str, Enum):
    """Pairwise cost between members: plain or squared Euclidean distance."""

    EUCLIDEAN = "euclidean"
    SQUARED_EUCLIDEAN = "sqeuclidean"


@dataclass(frozen=True)
class WeightVector:
    """Normalized nonnegative weights; the row marginals of the transport LP."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise MarginalInfeasibilityError(
                f"weights must be a non-empty 1-D vector, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise MarginalInfeasibilityError("weights must be finite")
        if np.any(w < 0):
            raise MarginalInfeasibilityError(
                f"weights must be nonnegative (min {w.min():.3e})"
            )
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise MarginalInfeasibilityError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}, got {total!r}"
            )

    @property
    def size(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise member distances; zero diagonal because prior and weighted
    posterior share sample locations."""

    D: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        object.__setattr__(self, "D", D)
        if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 1:
            raise InvalidPlanError(f"cost matrix must be square, got shape {D.shape}")
        if not np.all(np.isfinite(D)) or np.any(D < 0):
            raise InvalidPlanError("cost entries must be finite and nonnegative")
        if np.any(np.diag(D) != 0.0):
            raise InvalidPlanError("cost diagonal must be exactly zero")

    @property
    def size(self) -> int:
        return self.D.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Optimal plan T and its attained objective value."""

    T: np.ndarray
    objective_value: float

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        object.__setattr__(self, "T", T)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise InvalidPlanError(f"plan must be square, got shape {T.shape}")
        n = T.shape[0]
        if not np.all(np.isfinite(T)):
            raise InvalidPlanError("plan entries must be finite")
        if np.any(T < 0):
            raise InvalidPlanError(f"plan entries must be nonnegative (min {T.min():.3e})")
        col_err = np.max(np.abs(T.sum(axis=0) - 1.0 / n))
        if col_err > MARGINAL_TOL:
            raise InvalidPlanError(
                f"column sums must equal 1/N within {MARGINAL_TOL:g}, off by {col_err:.3e}"
            )
        if abs(T.sum() - 1.0) > MARGINAL_TOL:
            raise InvalidPlanError("total plan mass must equal 1")

    @property
    def size(self) -> int:
        return self.T.shape[0]


def build_cost_matrix(
    ensemble: Ensemble, metric: CostMetric = CostMetric.EUCLIDEAN
) -> CostMatrix:
    """Pairwise distances between all members under the chosen metric.

    The squared distance sums the coordinates' squared differences t_k in
    two lanes, ``(t0 + t2 + ...) + (t1 + t3 + ...)``, the order of numpy's
    ``einsum("ijk,ijk->ij")`` for up to 7 coordinates, written out so that
    cost bytes do not depend on how numpy sums.  The sums and the square
    root are taken in place in the returned array.
    """
    metric = CostMetric(metric)
    # Lane k % 2 adds up t_k; t0 and t1 start the lanes, and every later
    # t_k is computed in one scratch array.
    lanes: list[np.ndarray] = []
    scratch = None
    for k, column in enumerate(ensemble.members.T):
        t = np.subtract.outer(column, column, out=scratch if k >= 2 else None)
        t *= t
        if k < 2:
            lanes.append(t)
        else:
            lanes[k % 2] += t
            scratch = t
    D = lanes[0]
    if len(lanes) > 1:
        D += lanes[1]
    if metric is CostMetric.EUCLIDEAN:
        np.sqrt(D, out=D)
    np.fill_diagonal(D, 0.0)
    return CostMatrix(D=D)


def solve_transport(cost: CostMatrix, weights: WeightVector) -> TransportPlan:
    """Minimize sum_ij t_ij D_ij over plans with row sums w_i, column sums 1/N.

    Rows with exactly zero weight carry no mass and are removed before the
    simplex runs.  Ties between optimal vertices are broken by the frozen
    pivot rule of the module docstring, so equal inputs give the same T,
    bit for bit, on every solver path.
    """
    n = cost.size
    if weights.size != n:
        raise MarginalInfeasibilityError(
            f"weights length {weights.size} does not match cost size {n}"
        )
    supply = weights.w
    demand = np.full(n, 1.0 / n)

    active = supply > 0.0
    if not np.all(active):
        idx = np.flatnonzero(active)
        T = np.zeros((n, n))
        if idx.size == 1:
            # One live row: the column marginals dictate the whole plan.
            T[idx[0]] = demand
        else:
            T[idx, :] = _simplex(cost.D[idx, :], supply[idx], demand)
    else:
        T = _simplex(cost.D, supply, demand)

    return _finalize_plan(T, cost.D, supply, demand)


def apply_transport(prior: Ensemble, plan: TransportPlan) -> Ensemble:
    """Resample: posterior member j = N * sum_i prior_i t_ij."""
    if plan.size != prior.size:
        raise InvalidPlanError(
            f"plan size {plan.size} does not match ensemble size {prior.size}"
        )
    posterior = prior.size * (plan.T.T @ prior.members)
    return Ensemble(posterior)


def _finalize_plan(
    T: np.ndarray, D: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> TransportPlan:
    """Clamp pivot dust, renormalize column marginals, and check the row
    marginals; ``TransportPlan`` checks sign, column sums and mass."""
    dust = (T < 0) & (T >= -1e-12)
    if dust.any():
        T[dust] = 0.0
    col = T.sum(axis=0)
    T *= demand / col

    row_violation = float(np.max(np.abs(T.sum(axis=1) - supply)))
    if not row_violation <= MARGINAL_TOL:
        raise NonconvergenceError(
            "solver output violates row marginals",
            diagnostics={"row_violation": row_violation},
        )
    objective = float(np.einsum("ij,ij->", T, D))
    return TransportPlan(T=T, objective_value=objective)


def _load_kernel():
    """The compiled kernel, or None to run the Python loop.

    ``_native`` is imported here, at the first solve, so that importing the
    package loads no compiler machinery; tests replace this function to
    choose a solver path.
    """
    from ._native import load_kernel

    return load_kernel()


def _simplex(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """The compiled kernel when it loads, else the Python loop: same plans."""
    kernel = _load_kernel()
    if kernel is None:
        return _transportation_simplex(cost, supply, demand)
    return kernel.transportation_simplex(cost, supply, demand)


def _initial_basic_solution(
    cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> list[tuple[int, int, float]]:
    """Least-cost starting basis: scan cells in cost order, allocate the
    feasible maximum, and close exactly one exhausted line per allocation so
    the basis ends as a spanning tree with n+m-1 cells.

    Returns the basic cells as ``(i, j, allocation)`` in the order chosen.
    """
    n, m = cost.shape
    s = supply.astype(float).tolist()
    d = demand.astype(float).tolist()
    row_open = bytearray(b"\x01") * n
    col_open = bytearray(b"\x01") * m
    # Boolean views of the flags above; they see every later write.
    row_mask = np.frombuffer(row_open, dtype=bool)
    col_mask = np.frombuffer(col_open, dtype=bool)
    open_rows, open_cols = n, m
    basic: list[tuple[int, int, float]] = []

    order = np.argsort(cost, axis=None, kind="stable")
    for start in range(0, order.size, _SCAN_CHUNK):
        rows, cols = np.divmod(order[start : start + _SCAN_CHUNK], m)
        # A cell on a line closed before this chunk can never be allocated.
        live = row_mask[rows] & col_mask[cols]
        for i, j in zip(rows[live].tolist(), cols[live].tolist()):
            if open_rows + open_cols <= 1:
                return basic
            if not (row_open[i] and col_open[j]):
                continue
            si, dj = s[i], d[j]
            q = si if si <= dj else dj
            basic.append((i, j, q))
            close_row = si <= dj
            # Never strand one side with lines still open on the other.
            if close_row and open_rows == 1 and open_cols > 1:
                close_row = False
            elif not close_row and open_cols == 1 and open_rows > 1:
                close_row = True
            if close_row:
                s[i] = 0.0
                d[j] = dj - q
                row_open[i] = 0
                open_rows -= 1
            else:
                d[j] = 0.0
                s[i] = si - q
                col_open[j] = 0
                open_cols -= 1
    return basic


def _hang_subtree(
    top: int,
    adj: list[list[int]],
    parent: list[int],
    depth: list[int],
    pot: list[float],
    cost_flat: memoryview,
    n: int,
    m: int,
) -> list[int]:
    """Set parent, depth and potential of every tree node below ``top``.

    ``top``'s own parent, depth and potential must already be set.  Each
    potential is one subtraction from its parent's along the connecting
    cell (``v_j = c_ij - u_i``, ``u_i = c_ij - v_j``), so it depends only on
    the node's path to row 0.  Returns ``top`` and every node below it.
    """
    nodes = [top]
    for y in nodes:  # grows while iterated: a breadth-first walk
        above = parent[y]
        below_depth = depth[y] + 1
        y_pot = pot[y]
        if y < n:
            row_base = y * m - n
            for z in adj[y]:
                if z != above:
                    parent[z] = y
                    depth[z] = below_depth
                    pot[z] = cost_flat[row_base + z] - y_pot
                    nodes.append(z)
        else:
            j = y - n
            for z in adj[y]:
                if z != above:
                    parent[z] = y
                    depth[z] = below_depth
                    pot[z] = cost_flat[z * m + j] - y_pot
                    nodes.append(z)
    return nodes


def _bland_trigger(n: int, m: int) -> int:
    """Consecutive degenerate pivots tolerated before switching to Bland's rule."""
    return 2 * (n + m)


def _iteration_limit(n: int, m: int) -> int:
    """Pivots an n x m solve may take before it gives up."""
    return 200 * (n + m) + 1000


def _iteration_limit_error(
    iterations: int, most_negative_reduced_cost: float, n: int
) -> NonconvergenceError:
    return NonconvergenceError(
        "transportation simplex hit its iteration limit",
        diagnostics={
            "iterations": iterations,
            "most_negative_reduced_cost": most_negative_reduced_cost,
            "size": n,
        },
    )


def _transportation_simplex(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    max_iterations: int | None = None,
) -> np.ndarray:
    """Optimal n x m allocation for row sums ``supply`` and column sums
    ``demand``, by the frozen pivot rule of the module docstring; raises
    NonconvergenceError after ``max_iterations`` pivots."""
    n, m = cost.shape
    # Basis tree over nodes 0..n-1 (rows) and n..n+m-1 (columns), rooted at
    # row 0; ``flow`` maps each basic cell i*m + j to its allocation.
    adj: list[list[int]] = [[] for _ in range(n + m)]
    flow: dict[int, float] = {}
    for i, j, q in _initial_basic_solution(cost, supply, demand):
        adj[i].append(n + j)
        adj[n + j].append(i)
        flow[i * m + j] = q
    # Cell costs in row-major order; indexing yields Python floats without
    # a per-cell Python object held for the whole solve.
    cost_flat = memoryview(np.ascontiguousarray(cost).ravel())
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0.0] * (n + m)
    _hang_subtree(0, adj, parent, depth, pot, cost_flat, n, m)
    pot_arr = np.array(pot)
    u = pot_arr[:n]
    v = pot_arr[n:]

    reduced = np.empty((n, m))
    reduced_flat = reduced.ravel()
    if max_iterations is None:
        max_iterations = _iteration_limit(n, m)
    bland_trigger = _bland_trigger(n, m)

    degenerate_streak = 0
    use_bland = False
    for _ in range(max_iterations):
        np.subtract(cost, u[:, None], out=reduced)
        reduced -= v

        if use_bland:
            negative = reduced_flat < -_REDUCED_COST_TOL
            enter = int(negative.argmax())
            if not negative[enter]:
                return _dense_alloc(flow, n, m)
        else:
            enter = int(reduced.argmin())
            if reduced_flat[enter] >= -_REDUCED_COST_TOL:
                return _dense_alloc(flow, n, m)
        ei, ej = divmod(enter, m)

        # The cycle is the entering cell plus the tree path between its row
        # and column: walk both ends up to their common ancestor.  Walking
        # from row ei to column ej, the path's cells alternate -, +, -, ...
        # starting with a minus, so a cell is a minus cell when the walk
        # leaves it through its row end: the lower node is a row on ei's
        # side of the ancestor and a column on ej's side.
        a, b = ei, n + ej
        side_a: list[int] = []
        side_b: list[int] = []
        while depth[a] > depth[b]:
            side_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_b.append(b)
            b = parent[b]
        while a != b:
            side_a.append(a)
            a = parent[a]
            side_b.append(b)
            b = parent[b]

        # Leaving cell: smallest allocation among minus cells, ties to the
        # smallest (i, j), i.e. the smallest flat index.
        minus: list[int] = []
        plus: list[int] = []
        theta = np.inf
        leave = -1
        leave_node = -1
        leave_on_a = False
        for side, on_a in ((side_a, True), (side_b, False)):
            for x in side:
                if x < n:
                    cell = x * m + parent[x] - n
                else:
                    cell = parent[x] * m + x - n
                if (x < n) != on_a:
                    plus.append(cell)
                    continue
                minus.append(cell)
                f = flow[cell]
                if f < theta or (f == theta and cell < leave):
                    theta = f
                    leave = cell
                    leave_node = x
                    leave_on_a = on_a

        for cell in plus:
            flow[cell] += theta
        for cell in minus:
            flow[cell] -= theta
        # An entering cell already in the basis (its reduced cost is rounding
        # noise) is its own cycle: it leaves again with its allocation zeroed.
        if leave != enter:
            del flow[leave]
            flow[enter] = theta
            # Cut the leaving cell; the side without row 0 hangs from the
            # entering cell and only its potentials change.
            above = parent[leave_node]
            adj[leave_node].remove(above)
            adj[above].remove(leave_node)
            top, hook = (ei, n + ej) if leave_on_a else (n + ej, ei)
            adj[top].append(hook)
            adj[hook].append(top)
            parent[top] = hook
            depth[top] = depth[hook] + 1
            pot[top] = cost_flat[enter] - pot[hook]
            moved = _hang_subtree(top, adj, parent, depth, pot, cost_flat, n, m)
            pot_arr[moved] = [pot[x] for x in moved]

        if theta <= 0.0:
            degenerate_streak += 1
            if degenerate_streak >= bland_trigger:
                use_bland = True
        else:
            degenerate_streak = 0
            use_bland = False

    np.subtract(cost, u[:, None], out=reduced)
    reduced -= v
    raise _iteration_limit_error(max_iterations, float(reduced.min()), n)


def _dense_alloc(flow: dict[int, float], n: int, m: int) -> np.ndarray:
    """The n x m allocation array: basic cells from ``flow``, zeros elsewhere."""
    alloc = np.zeros(n * m)
    alloc[list(flow)] = list(flow.values())
    return alloc.reshape(n, m)
