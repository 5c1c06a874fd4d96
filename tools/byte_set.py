"""Record the CLI's output bytes over a fixed set of operations.

Usage: python tools/byte_set.py OUT_DIR

Runs 28 ``otfilter`` commands from this checkout's ``src/``, each in its own
subprocess with its own working directory ``OUT_DIR/<op>/`` and a relative
``--out out``.  Per op it keeps ``config.json`` (run ops), ``stdout.txt``,
``stderr.txt``, ``exit_code.txt`` and every file the command wrote under
``out/``.  ``otfilter run`` prints the resolved output directory, so the
absolute path of ``OUT_DIR`` is written as ``OUT_DIR`` in the captured
streams.  Two checkouts give the same bytes exactly when ``diff -r`` of their
two ``OUT_DIR``s is empty.  To record another revision, copy this file into
that checkout's ``tools/`` and run it there.

The ops, one run each unless noted, at seeds 0, 7 and 3: ``run`` at the
default config (CSV); the default config as JSON with ``--variant
otnleqma``; the ``pendulum-small-sq`` config; ``{"N": 12, "metric":
"sqeuclidean"}`` with 3 runs; ``{"N": 30, "projection_innovation":
"standard"}`` as JSON; ``sample`` of the bimodal and the annulus target at
n = 300.  Then ``{"N": 12, "metric": "sqeuclidean"}`` at seed 1961011246,
and ``validate-config`` of the default config.  Last, five ``run`` ops
whose configs are rejected (exit 2), so their ``config error`` lines are
recorded: a fractional ``N``, a repeated variant, an overflowing
``sigma_g`` squared, a negative rod length and an unknown key.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_SQ = {"N": 12, "metric": "sqeuclidean", "variants": ["otf", "otproj", "otma"]}
N12_SQ = {"N": 12, "metric": "sqeuclidean"}
N30_STANDARD = {"N": 30, "projection_innovation": "standard"}
BAD_CONFIGS = {
    "n-fraction": {"N": 12.5},
    "variants-repeated": {"variants": ["otf", "otf"]},
    "sigma_g-overflow": {"sigma_g": 1e200},
    "pendulum-negative": {"pendulum": {"L": -1}},
    "unknown-key": {"ensemble_inflation": 1.1},
}


def operations() -> list[tuple[str, dict | None, list[str]]]:
    """(name, config or None, CLI arguments after ``otfilter``)."""
    ops = []
    for seed in (0, 7, 3):
        s = str(seed)
        run = ["run", "--config", "config.json", "--runs", "1", "--seed", s, "--out", "out"]
        ops += [
            (f"run-default-csv-s{s}", {}, run),
            (f"run-default-json-otnleqma-s{s}", {},
             run + ["--format", "json", "--variant", "otnleqma"]),
            (f"run-small-sq-s{s}", SMALL_SQ, run),
            (f"run-n12-sq-3runs-s{s}", N12_SQ,
             ["run", "--config", "config.json", "--runs", "3", "--seed", s, "--out", "out"]),
            (f"run-n30-standard-json-s{s}", N30_STANDARD, run + ["--format", "json"]),
            (f"sample-bimodal-s{s}", None,
             ["sample", "--target", "bimodal", "--n", "300", "--seed", s, "--out", "out"]),
            (f"sample-annulus-s{s}", None,
             ["sample", "--target", "annulus", "--n", "300", "--seed", s, "--out", "out"]),
        ]
    ops.append(("run-n12-sq-s1961011246", N12_SQ,
                ["run", "--config", "config.json", "--runs", "1", "--seed", "1961011246",
                 "--out", "out"]))
    ops.append(("validate-default", {}, ["validate-config", "config.json"]))
    for name, config in BAD_CONFIGS.items():
        ops.append((f"run-config-error-{name}", config,
                    ["run", "--config", "config.json", "--runs", "1", "--out", "out"]))
    return ops


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, config, args in operations():
        op_dir = out_dir / name
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        if config is not None:
            (op_dir / "config.json").write_text(json.dumps(config) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "otfilter.cli", *args],
            cwd=op_dir, env=env, capture_output=True, text=True, check=False,
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (op_dir / f"{stream}.txt").write_text(text.replace(str(out_dir), "OUT_DIR"))
        (op_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
