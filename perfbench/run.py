#!/usr/bin/env python3
"""Closed-loop benchmark of the otfilter CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pendulum-paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

One process runs one workload: a single client makes one CLI invocation
(an *op*) at a time through ``otfilter.cli.main`` for ``--seconds``, and
checks each op's outputs after it returns.  An *update* is one transport
resampling step: a ``filters.filter_step`` call, or an ``ot_sample`` call
in the sampler.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs half the time untraced, replays the same
ops with a span at every layer boundary (see spans.py), and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the full record, with the machine it ran on, is written to
``.perfbench/<workload>/``.  Why each workload exists and what each layer
metric should move is in predictions.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, analyse, cross_check, layer_metrics, tail_percentile, update_timer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Why each workload exists is in BENCHMARK.json and predictions.json.  The
# sampler draws 300 samples per op, not 500: one 500-sample op takes 50 to
# 460 ms depending on its seed, too few of them fit in a run for a steady
# median.  The small-ensemble study leaves out the two variants that feed the
# projection back: with 12 members otnleqma's ensemble can overflow (about one
# op seed in 400, for example 679642288), and an op with a failed run fails.
WORKLOADS = {
    "pendulum-paper": {"config": {}},
    "pendulum-small-sq": {
        "config": {"N": 12, "metric": "sqeuclidean", "variants": ["otf", "otproj", "otma"]}
    },
    "sampler-bimodal": {"samples": 300},
}

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
# |mean of the samples - sum_i w_i x_i| allowed; the identity holds for any
# feasible plan, so only rounding separates the two.
SAMPLER_MEAN_TOL = 1e-10

_SETUP_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import otfilter.cli
if sys.argv[2]:
    Path(sys.argv[2]).write_text(sys.argv[3])
    otfilter.cli.config_from_json(sys.argv[2])
print("ready", flush=True)
"""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import otfilter.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import otfilter from {SRC}: {exc}")
    if Path(otfilter.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported otfilter from {otfilter.__file__}, not {SRC}")
    return otfilter


def measure_setup(config_path: Path | None, config_text: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    otfilter and written and parsed the workload's config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path or ""), config_text],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup child failed with code {child.returncode}")
    return times


class Workload:
    """One workload's ops, their output checks and the op seeds."""

    def __init__(self, otfilter, name: str, seed: int, work: Path):
        self.otfilter = otfilter
        self.name = name
        self.spec = WORKLOADS[name]
        self.work = work
        self.seed = seed
        self.config_path = None
        if "config" in self.spec:
            self.config_path = work / "config.json"
            self.config = otfilter.cli.config_from_json(self.config_path)

    def seed_stream(self):
        """Per-op seeds derived from the workload seed; every call restarts
        the same sequence, so a traced phase replays the untraced ops."""
        rng = random.Random(f"{self.name}/{self.seed}")
        while True:
            yield rng.randrange(2**31)

    def argv(self, op_seed: int, out: Path) -> list[str]:
        if self.config_path is not None:
            return ["run", "--config", str(self.config_path), "--runs", "1",
                    "--seed", str(op_seed), "--out", str(out)]
        return ["sample", "--target", "bimodal", "--n", str(self.spec["samples"]),
                "--seed", str(op_seed), "--out", str(out)]

    def run_op(self, main, op_seed: int, after_op=None) -> dict:
        """One CLI invocation, timed, then its output checks (untimed)."""
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        captured = io.StringIO()
        error = None
        start = perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = main(self.argv(op_seed, out))
            except Exception as exc:  # an op that crashes is a failed op, not a failed run
                code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if after_op is not None:
            after_op()
        if error is None and code != 0:
            error = f"exit code {code}: {captured.getvalue().strip()[-300:]}"
        if error is None:
            error = self.check(out, op_seed)
        shutil.rmtree(out, ignore_errors=True)
        return {"seed": op_seed, "seconds": seconds, "failure": error}

    def check(self, out: Path, op_seed: int) -> str | None:
        try:
            if self.config_path is not None:
                return self._check_study(out)
            return self._check_samples(out, op_seed)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_study(self, out: Path) -> str | None:
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["aggregate"]:
            variant, error = entry["variant"], entry["avg_rms_constraint_error"]
            if entry["runs_failed"] > 0 or entry["runs_used"] != 1:
                return f"{variant}: runs_failed={entry['runs_failed']} runs_used={entry['runs_used']}"
            if error is None or not np.isfinite(error):
                return f"{variant}: non-finite avg_rms_constraint_error {error}"
            series = np.loadtxt(out / f"run_000_{variant}.csv", delimiter=",", skiprows=1, ndmin=2)
            if series.shape != (self.config.n_steps, 10):
                return f"{variant}: series shape {series.shape}"
            if not np.all(np.isfinite(series)):
                return f"{variant}: non-finite value in series"
        if len(summary["aggregate"]) != len(self.config.variants):
            return f"summary lists {len(summary['aggregate'])} variants"
        return None

    def _check_samples(self, out: Path, op_seed: int) -> str | None:
        n = self.spec["samples"]
        samples = np.loadtxt(out / "bimodal_samples.csv", delimiter=",", skiprows=1, ndmin=2)
        if samples.shape != (n, 1) or not np.all(np.isfinite(samples)):
            return f"samples: shape {samples.shape} or non-finite values"
        # The proposal `otfilter sample --target bimodal` draws.
        proposal = np.random.default_rng(op_seed).uniform(-6.0, 6.0, size=(n, 1))
        w = self.otfilter.sampling.bimodal_target().pdf(proposal)
        w = w / w.sum()
        gap = abs(float(samples.mean()) - float(w @ proposal[:, 0]))
        if gap > SAMPLER_MEAN_TOL:
            return f"sample mean differs from the importance-sampling mean by {gap:.3e}"
        return None


def closed_loop(workload: Workload, main, seconds: float, updates, after_op=None) -> list[dict]:
    """Ops one after another, from the start of the workload's seed stream,
    for ``seconds``: at least one op, and no op that the last op's duration
    says would end after the window.  ``updates()`` counts updates so far."""
    ops = []
    seeds = workload.seed_stream()
    start = perf_counter()
    while not ops or perf_counter() - start + ops[-1]["seconds"] <= seconds:
        before = updates()
        op = workload.run_op(main, next(seeds), after_op)
        op["updates"] = updates() - before
        ops.append(op)
    return ops


def updates_per_s(ops: list[dict]) -> float:
    return sum(op["updates"] for op in ops) / sum(op["seconds"] for op in ops)


def end_to_end(ops: list[dict], update_s: list[float], setup_s: list[float]) -> tuple[dict, dict]:
    p, tail, n = tail_percentile(np.asarray(update_s) * 1e3)
    failed = sum(op["failure"] is not None for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "updates_per_s": updates_per_s(ops),
        "update_ms_p50": float(np.median(update_s)) * 1e3,
        "update_ms_tail": tail,
        "failed_ratio": failed / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    basis = {"update_ms_tail_percentile": p, "update_samples": n, "setup_samples_s": setup_s}
    return metrics, basis


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        commit = result.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "workload_seed": seed,
    }


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(args) -> int:
    otfilter = import_program()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = WORKLOADS[args.workload]
    config_text = json.dumps(spec.get("config", {}))
    setup_s = measure_setup(work / "config.json" if "config" in spec else None, config_text)
    if "config" in spec:
        (work / "config.json").write_text(config_text)
    workload = Workload(otfilter, args.workload, args.seed, work)
    main = otfilter.cli.main

    update_s: list[float] = []
    timer = update_timer(otfilter, update_s)
    window = args.seconds / 2 if args.trace else args.seconds
    ops = closed_loop(workload, main, window, lambda: len(update_s))
    timer.restore()
    e2e, basis = end_to_end(ops, update_s, setup_s)

    record = {"workload": args.workload, "environment": environment(args.seed),
              "end_to_end": e2e, "basis": basis, "ops": ops}
    correct = all(op["failure"] is None for op in ops)
    if args.trace:
        tracer = Tracer(args.seed)
        tracer.install_program(otfilter)
        traced_main = tracer.wrap("cli.main", main)

        def next_op():
            tracer.count_written_bytes()
            tracer.op += 1

        tracer.op = 0
        traced_ops = closed_loop(workload, traced_main, window, lambda: tracer.updates, next_op)
        tracer.restore()
        tracer.write(work / "spans.json")
        # Overhead compares the same ops: the traced phase replays the seeds.
        same = min(len(ops), len(traced_ops))
        traced_ups = updates_per_s(traced_ops)
        overhead = updates_per_s(traced_ops[:same]) / updates_per_s(ops[:same])
        ops += traced_ops
        analysis = analyse(tracer.spans)
        metrics = layer_metrics(analysis, tracer.counts, overhead)
        checks = {
            "spans_nested": analysis["spans_nested"],
            "self_times_add_up": analysis["self_times_add_up"],
            "cross_check": cross_check(tracer.cross_check_samples),
        }
        correct = (correct and all(op["failure"] is None for op in traced_ops)
                   and checks["spans_nested"] and checks["self_times_add_up"]
                   and checks["cross_check"]["status"] != "failed")
        record.update(per_layer=metrics, trace_checks=checks, traced_updates_per_s=traced_ups,
                      update_self_ms_by_layer={k: v / 1e6 for k, v in
                                               analysis["update_self_ns_by_layer"].items()})
        units = declared("per_layer")
    else:
        metrics = {k: v for k, v in e2e.items() if k != "failed_ratio"}
        units = declared("end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    failed = sum(op["failure"] is not None for op in ops)
    record.update(correct=correct, attempted=len(ops), failed=failed)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"{args.workload}: seed {args.seed}, {len(ops)} ops, {failed} failed; "
          f"python {env['python']}, numpy {env['numpy']}, {env['nproc']} cpus ({env['cpu_model']})")
    e2e_units = declared("end_to_end") | {"failed_ratio": "ratio"}
    for name, value in e2e.items():
        note = (f"  (p{basis['update_ms_tail_percentile']:g} of {basis['update_samples']} updates)"
                if name == "update_ms_tail" else "")
        print(f"  {name} = {value:.6g} {e2e_units[name]}{note}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        print(f"  trace checks: {json.dumps(record['trace_checks'])}")
    for op in ops:
        if op["failure"]:
            print(f"  op seed {op['seed']} failed: {op['failure']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    codes = []
    for name in WORKLOADS:
        result = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        codes.append(result.returncode)
    return max(codes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
