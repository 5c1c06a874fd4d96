"""Spans and counters recorded from outside the program.

Every traced boundary is a public function replaced, for the length of a
traced phase, at the module attribute its caller looks it up through (for
example ``otfilter.filters.solve_transport``, which ``ot_update`` calls).
Nothing inside ``src/`` is edited; the wrappers are removed again with
``Patches.restore``.

A span is ``(name, start_ns, end_ns, parent, op)``; the parent is the index
of the innermost open span when the call started, or -1.  Spans stay in
memory and are written once, when the run ends.  Work a wrapper does after
its span closes (counting weights, picking cross-check samples) is charged
to the parent's self time, and so to ``trace.overhead_ratio``.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

# Span names whose durations are one update (one transport resampling step).
UPDATE_SPANS = ("filters.filter_step", "sampling.ot_sample")

# Relative objective gap allowed between the package solver and HiGHS, with
# HiGHS held to feasibility tolerances of 1e-10 instead of its default 1e-7.
CROSS_CHECK_RTOL = 1e-9
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
CROSS_CHECK_SAMPLES = 3


def tail_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, sample count) at the highest of the usual
    percentiles that leaves at least ten samples above it, or the median
    when none does."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 50.0, 0.0, 0
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            break
    return p, float(np.percentile(values, p)), n


class Patches:
    """Module attributes replaced by wrappers, and put back by ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, module, attribute: str, make_wrapper) -> None:
        original = getattr(module, attribute)
        self._saved.append((module, attribute, original))
        setattr(module, attribute, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)


def update_timer(otfilter, sink: list) -> Patches:
    """The untraced run's only wrapper: wall seconds of each update,
    appended to ``sink``."""

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            sink.append(perf_counter() - start)
            return result

        return wrapper

    patches = Patches()
    patches.install(otfilter.filters, "filter_step", timed)
    patches.install(otfilter.cli, "ot_sample", timed)
    return patches


class Tracer(Patches):
    """Wraps module attributes with span recorders and per-layer counters."""

    def __init__(self, seed: int):
        super().__init__()
        self.spans: list = []
        self.op = -1
        self.updates = 0
        self._stack: list[int] = []
        self.counts: dict[str, list] = defaultdict(list)
        self._written: list[tuple[str, list]] = []
        self._pick = random.Random(seed)
        self._solves_seen = 0
        self.cross_check_samples: list[tuple[np.ndarray, np.ndarray, float]] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def trace(self, module, attribute: str, name: str, after=None) -> None:
        self.install(module, attribute, lambda fn: self.wrap(name, fn, after))

    def install_program(self, otfilter) -> None:
        """Wrap each layer's public functions where their callers find them."""
        cli, harness, filters, sampling = (
            otfilter.cli, otfilter.harness, otfilter.filters, otfilter.sampling
        )
        self.trace(cli, "config_from_json", "harness.config_from_json")
        self.trace(cli, "monte_carlo", "harness.monte_carlo")
        self.trace(cli, "write_outputs", "harness.write_outputs", self._after_write_outputs)
        self.trace(cli, "write_samples", "harness.write_samples", self._after_write_samples)
        self.trace(cli, "ot_sample", "sampling.ot_sample", self._after_update)
        self.trace(harness, "run_single", "harness.run_single")
        self.trace(harness, "simulate_truth", "harness.simulate_truth")
        self.trace(harness, "run_filter", "filters.run_filter")
        self.trace(filters, "filter_step", "filters.filter_step", self._after_update)
        self.trace(filters, "propagate_ensemble", "models.propagate_ensemble")
        self.trace(filters, "compute_weights", "filters.compute_weights", self._after_weights)
        self.trace(
            filters, "constraint_projection", "filters.constraint_projection",
            self._after_projection,
        )
        for module in (filters, sampling):
            self.trace(module, "build_cost_matrix", "transport.build_cost_matrix", self._after_cost)
            self.trace(module, "solve_transport", "transport.solve_transport", self._after_solve)
            self.trace(module, "apply_transport", "transport.apply_transport")

    # Counters, read from each call's inputs and outputs after its span closes.

    def _after_update(self, args, result) -> None:
        self.updates += 1

    def _after_weights(self, args, result) -> None:
        self.counts["degenerate"].append(bool(result[1]))

    def _after_projection(self, args, result) -> None:
        self.counts["regularized"].append(bool(result[1].regularized))

    def _after_cost(self, args, result) -> None:
        n, d = args[0].members.shape
        self.counts["cost_bytes"].append(n * n * (d + 1) * 8)

    def _after_solve(self, args, result) -> None:
        cost, weights = args
        w = weights.w
        self.counts["active_rows"].append(int(np.count_nonzero(w > 0.0)))
        self.counts["surplus_rows"].append(int(np.count_nonzero(w > 1.0 / w.size)))
        # Reservoir sample of the solves, seeded, for the HiGHS cross-check.
        seen = self._solves_seen
        self._solves_seen += 1
        slot = seen if seen < CROSS_CHECK_SAMPLES else self._pick.randrange(seen + 1)
        if slot < CROSS_CHECK_SAMPLES:
            sample = (cost.D, w, result.objective_value)
            if slot < len(self.cross_check_samples):
                self.cross_check_samples[slot] = sample
            else:
                self.cross_check_samples.append(sample)

    def _after_write_outputs(self, args, result) -> None:
        self._written.append(("outputs_bytes", result))

    def _after_write_samples(self, args, result) -> None:
        self._written.append(("samples_bytes", [result]))

    def count_written_bytes(self) -> None:
        """Stat the files written by the op that just ended, before the
        benchmark deletes them."""
        for key, paths in self._written:
            self.counts[key].append(sum(Path(p).stat().st_size for p in paths))
        self._written.clear()

    def write(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def analyse(spans: list) -> dict:
    """Per-name call counts, inclusive and self times, update subtrees.

    Checks that each child lies inside its parent, so that every self time is
    nonnegative and the layers' self times inside the update spans add up to
    the update time exactly (integer nanoseconds).
    """
    n = len(spans)
    child_ns = [0] * n
    contained = True
    for name, start, end, parent, op in spans:
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            contained &= p_start <= start and end <= p_end
            child_ns[parent] += end - start

    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "durations_ns": []})
    update_root = [-1] * n
    layer_in_updates: dict[str, int] = defaultdict(int)
    update_ns = 0
    min_self = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        duration = end - start
        self_ns = duration - child_ns[i]
        min_self = min(min_self, self_ns)
        entry = stats[name]
        entry["calls"] += 1
        entry["incl_ns"] += duration
        entry["self_ns"] += self_ns
        entry["durations_ns"].append(duration)
        if name in UPDATE_SPANS and (parent < 0 or update_root[parent] < 0):
            update_root[i] = i
            update_ns += duration
        elif parent >= 0:
            update_root[i] = update_root[parent]
        if update_root[i] >= 0:
            layer_in_updates[name.split(".")[0]] += self_ns

    layer_sum = sum(layer_in_updates.values())
    return {
        "stats": stats,
        "update_ns": update_ns,
        "update_self_ns_by_layer": dict(layer_in_updates),
        "spans_nested": bool(contained and min_self >= 0),
        "self_times_add_up": layer_sum == update_ns,
    }


def cross_check(samples) -> dict:
    """Re-solve sampled (D, w) with HiGHS and compare objective values."""
    try:
        from scipy.optimize import linprog
        from scipy.sparse import coo_array, vstack
    except ImportError as exc:
        return {"status": "skipped", "reason": f"scipy unavailable: {exc}", "rtol": CROSS_CHECK_RTOL}
    gaps = []
    for D, w, objective in samples:
        n = w.size
        cells = np.arange(n * n)
        ones = np.ones(n * n)
        rows = coo_array((ones, (cells // n, cells)), shape=(n, n * n))
        cols = coo_array((ones, (cells % n, cells)), shape=(n, n * n))
        # The last column sum follows from the others; with it, rounding in
        # sum(w) can make HiGHS report the problem infeasible.
        res = linprog(
            D.ravel(),
            A_eq=vstack([rows, cols]).tocsr()[:-1],
            b_eq=np.concatenate([w, np.full(n - 1, 1.0 / n)]),
            bounds=(0.0, None),
            method="highs",
            options=_HIGHS_OPTIONS,
        )
        if res.status != 0:
            return {"status": "failed", "reason": f"HiGHS status {res.status}: {res.message}",
                    "rtol": CROSS_CHECK_RTOL}
        gaps.append((objective - res.fun) / max(abs(res.fun), 1e-300))
    worst = max(gaps, key=abs) if gaps else 0.0
    return {
        "status": "passed" if abs(worst) <= CROSS_CHECK_RTOL else "failed",
        "checked": len(gaps),
        "worst_relative_gap": worst,
        "rtol": CROSS_CHECK_RTOL,
    }


def layer_metrics(analysis: dict, counts: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced phase.

    A layer the workload never calls reads 0.  Counts are totals over the
    traced phase; bytes are per call.
    """
    stats = analysis["stats"]

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def per_call_ms(name, key="incl_ns", per=None):
        n = calls(per or name)
        return stats[name][key] / n / 1e6 if name in stats and n else 0.0

    def mean(key):
        return float(np.mean(counts[key])) if counts.get(key) else 0.0

    solve = "transport.solve_transport"
    solve_tail = (
        tail_percentile(stats[solve]["durations_ns"])[1] / 1e6 if solve in stats else 0.0
    )
    solve_share = (
        stats[solve]["incl_ns"] / analysis["update_ns"] if solve in stats else 0.0
    )
    return {
        "transport.solve_transport.ms_per_call": per_call_ms(solve),
        "transport.solve_transport.ms_tail": solve_tail,
        "transport.solve_transport.calls": calls(solve),
        "transport.solve_transport.share": solve_share,
        "transport.solve_transport.active_rows_mean": mean("active_rows"),
        "transport.solve_transport.surplus_rows_mean": mean("surplus_rows"),
        "transport.build_cost_matrix.ms_per_call": per_call_ms("transport.build_cost_matrix"),
        "transport.build_cost_matrix.bytes_computed": mean("cost_bytes"),
        "transport.apply_transport.ms_per_call": per_call_ms("transport.apply_transport"),
        "models.propagate_ensemble.ms_per_call": per_call_ms("models.propagate_ensemble"),
        "filters.compute_weights.ms_per_call": per_call_ms("filters.compute_weights"),
        "filters.compute_weights.degenerate_count": sum(counts.get("degenerate", ())),
        "filters.constraint_projection.ms_per_call": per_call_ms("filters.constraint_projection"),
        "filters.constraint_projection.regularized_count": sum(counts.get("regularized", ())),
        "filters.filter_step.self_ms_per_call": per_call_ms("filters.filter_step", "self_ns"),
        "filters.run_filter.self_ms_per_step": per_call_ms(
            "filters.run_filter", "self_ns", per="filters.filter_step"
        ),
        "harness.simulate_truth.ms_per_call": per_call_ms("harness.simulate_truth"),
        "harness.run_single.self_ms_per_call": per_call_ms("harness.run_single", "self_ns"),
        "harness.write_outputs.ms_per_call": per_call_ms("harness.write_outputs"),
        "harness.write_outputs.bytes_per_call": mean("outputs_bytes"),
        "harness.write_samples.ms_per_call": per_call_ms("harness.write_samples"),
        "harness.write_samples.bytes_per_call": mean("samples_bytes"),
        "sampling.ot_sample.self_ms_per_call": per_call_ms("sampling.ot_sample", "self_ns"),
        "cli.main.self_ms_per_op": per_call_ms("cli.main", "self_ns"),
        "trace.overhead_ratio": overhead_ratio,
    }
