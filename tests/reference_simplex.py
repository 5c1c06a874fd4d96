"""Frozen copy of the transportation simplex as it stood before the
tree-update rewrite, kept as a test-only reference.

``otfilter.transport._transportation_simplex`` must visit the same pivots
and return the same allocation array, bit for bit, as this version: the
filter's output bytes depend on which optimal vertex the solver returns.
Do not edit the functions below; they are the specification the rewrite is
checked against (``tests/test_solver_reference.py``).
"""

from __future__ import annotations

import numpy as np

from otfilter.errors import NonconvergenceError

# Reduced costs above this (negative) threshold count as optimal.
_REDUCED_COST_TOL = 1e-11
# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_BLAND_TRIGGER_FACTOR = 2


def _initial_basic_solution(
    cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Least-cost starting basis: scan cells in cost order, allocate the
    feasible maximum, and close exactly one exhausted line per allocation so
    the basis ends as a spanning tree with n+m-1 cells."""
    n, m = cost.shape
    s = supply.astype(float).copy()
    d = demand.astype(float).copy()
    row_open = np.ones(n, dtype=bool)
    col_open = np.ones(m, dtype=bool)
    open_rows, open_cols = n, m
    alloc = np.zeros((n, m))
    basic: list[tuple[int, int]] = []

    for flat in np.argsort(cost, axis=None, kind="stable"):
        if open_rows + open_cols <= 1:
            break
        i, j = divmod(int(flat), m)
        if not (row_open[i] and col_open[j]):
            continue
        si, dj = s[i], d[j]
        q = si if si <= dj else dj
        alloc[i, j] = q
        basic.append((i, j))
        close_row = si <= dj
        # Never strand one side with lines still open on the other.
        if close_row and open_rows == 1 and open_cols > 1:
            close_row = False
        elif not close_row and open_cols == 1 and open_rows > 1:
            close_row = True
        if close_row:
            s[i] = 0.0
            d[j] = dj - q
            row_open[i] = False
            open_rows -= 1
        else:
            d[j] = 0.0
            s[i] = si - q
            col_open[j] = False
            open_cols -= 1

    return alloc, basic


def _compute_duals(
    cost_rows: list[list[float]],
    row_adj: list[list[int]],
    col_adj: list[list[int]],
    u: np.ndarray,
    v: np.ndarray,
) -> None:
    """Fill dual variables u, v from the basis tree (u[0] anchored at 0)."""
    n = len(row_adj)
    m = len(col_adj)
    row_seen = bytearray(n)
    col_seen = bytearray(m)
    row_seen[0] = 1
    u[0] = 0.0
    stack = [(0, True)]
    while stack:
        idx, is_row = stack.pop()
        if is_row:
            ui = u[idx]
            crow = cost_rows[idx]
            for j in row_adj[idx]:
                if not col_seen[j]:
                    col_seen[j] = 1
                    v[j] = crow[j] - ui
                    stack.append((j, False))
        else:
            vj = v[idx]
            for i in col_adj[idx]:
                if not row_seen[i]:
                    row_seen[i] = 1
                    u[i] = cost_rows[i][idx] - vj
                    stack.append((i, True))


def _tree_path(
    row_adj: list[list[int]],
    col_adj: list[list[int]],
    start_row: int,
    end_col: int,
) -> list[int]:
    """Unique tree path from row node to column node.

    Nodes are encoded as alternating (row, col, row, ...) indices in the
    returned list; the caller knows positions 0, 2, 4, ... are rows.
    """
    n = len(row_adj)
    # parent[node] over the combined node set: rows 0..n-1, cols n..n+m-1
    parent = {start_row: -1}
    stack = [(start_row, True)]
    target = n + end_col
    while stack:
        idx, is_row = stack.pop()
        if is_row:
            for j in row_adj[idx]:
                node = n + j
                if node not in parent:
                    parent[node] = idx
                    if j == end_col:
                        stack.clear()
                        break
                    stack.append((node, False))
        else:
            j = idx - n
            for i in col_adj[j]:
                if i not in parent:
                    parent[i] = idx
                    stack.append((i, True))
    if target not in parent:
        raise NonconvergenceError("basis lost connectivity (internal error)")
    path = [target]
    while path[-1] != start_row:
        path.append(parent[path[-1]])
    path.reverse()
    # Decode column nodes back to column indices.
    return [p if k % 2 == 0 else p - n for k, p in enumerate(path)]


def _transportation_simplex(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    max_iterations: int | None = None,
) -> np.ndarray:
    n, m = cost.shape
    alloc, basic = _initial_basic_solution(cost, supply, demand)
    row_adj: list[list[int]] = [[] for _ in range(n)]
    col_adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in basic:
        row_adj[i].append(j)
        col_adj[j].append(i)

    cost_rows = cost.tolist()
    u = np.empty(n)
    v = np.empty(m)
    reduced = np.empty_like(cost)
    if max_iterations is None:
        max_iterations = 200 * (n + m) + 1000
    bland_trigger = _BLAND_TRIGGER_FACTOR * (n + m)

    degenerate_streak = 0
    use_bland = False
    for _ in range(max_iterations):
        _compute_duals(cost_rows, row_adj, col_adj, u, v)
        np.subtract(cost, u[:, None], out=reduced)
        reduced -= v[None, :]

        if use_bland:
            candidates = np.flatnonzero(reduced.ravel() < -_REDUCED_COST_TOL)
            if candidates.size == 0:
                return alloc
            ei, ej = divmod(int(candidates[0]), m)
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -_REDUCED_COST_TOL:
                return alloc

        path = _tree_path(row_adj, col_adj, ei, ej)
        # Cycle: entering cell (+) then path arcs alternating (-, +, -, ...).
        minus_arcs: list[tuple[int, int]] = []
        plus_arcs: list[tuple[int, int]] = []
        for k in range(len(path) - 1):
            arc = (path[k], path[k + 1]) if k % 2 == 0 else (path[k + 1], path[k])
            (minus_arcs if k % 2 == 0 else plus_arcs).append(arc)

        theta = np.inf
        leaving = minus_arcs[0]
        for arc in minus_arcs:
            a = alloc[arc]
            if a < theta or (a == theta and arc < leaving):
                theta = a
                leaving = arc

        for arc in plus_arcs:
            alloc[arc] += theta
        alloc[ei, ej] += theta
        for arc in minus_arcs:
            alloc[arc] -= theta
        alloc[leaving] = 0.0

        li, lj = leaving
        row_adj[li].remove(lj)
        col_adj[lj].remove(li)
        row_adj[ei].append(ej)
        col_adj[ej].append(ei)

        if theta <= 0.0:
            degenerate_streak += 1
            if degenerate_streak >= bland_trigger:
                use_bland = True
        else:
            degenerate_streak = 0
            use_bland = False

    _compute_duals(cost_rows, row_adj, col_adj, u, v)
    np.subtract(cost, u[:, None], out=reduced)
    reduced -= v[None, :]
    raise NonconvergenceError(
        "transportation simplex hit its iteration limit",
        diagnostics={
            "iterations": max_iterations,
            "most_negative_reduced_cost": float(reduced.min()),
            "size": n,
        },
    )
