"""Command-line entry points.

``otfilter run`` executes the Monte-Carlo study from a JSON config and
writes per-run time series plus an aggregate summary; ``otfilter sample``
draws from the demonstration targets; ``otfilter validate-config`` checks
a config without running anything.

Exit codes: 0 success, 2 configuration error, 3 runtime/solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, OTFilterError
from .filters import FilterVariant
from .harness import (
    config_from_json,
    config_to_dict,
    monte_carlo,
    write_file,
    write_outputs,
    write_samples,
)
from .sampling import (
    annulus_coverage,
    annulus_proposal,
    bimodal_target,
    ot_sample,
    uniform_annulus_target,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

VARIANT_CHOICES = tuple(v.value for v in FilterVariant) + ("all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfilter",
        description="Optimal-transport filtering with state equality constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Monte-Carlo pendulum study")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument(
        "--variant",
        choices=VARIANT_CHOICES,
        default=None,
        help="restrict to one variant (default: variants from the config)",
    )
    run.add_argument("--runs", type=int, default=None, help="override run count")
    run.add_argument("--seed", type=int, default=None, help="override base seed")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="time-series file format (summary is always JSON)")

    sample = sub.add_parser("sample", help="draw from a demonstration target")
    sample.add_argument("--target", choices=("bimodal", "annulus"), required=True)
    sample.add_argument("--n", type=int, default=500, help="sample count")
    sample.add_argument("--seed", type=int, default=0, help="random seed")
    sample.add_argument("--out", default="out", help="output directory")

    validate = sub.add_parser("validate-config", help="check a config file")
    validate.add_argument("path", help="JSON experiment config")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_json(args.config)
    overrides = {}
    if args.variant is not None:
        overrides["variants"] = args.variant
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    result = monte_carlo(config)
    written = write_outputs(result, args.out, args.format)
    for entry in result.aggregate:
        print(
            f"{entry.variant.value}: avg RMS constraint error "
            f"{entry.avg_rms_constraint_error:.6f} "
            f"({entry.runs_used} runs, {entry.runs_failed} failed)"
        )
    print(f"wrote {len(written)} files to {Path(args.out).resolve()}")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ConfigError(f"sample count must be at least 2, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out)
    if args.target == "bimodal":
        proposal = Ensemble(rng.uniform(-6.0, 6.0, size=(args.n, 1)))
        samples = ot_sample(proposal, bimodal_target())
        path = write_samples(samples.members, out_dir / "bimodal_samples.csv", ("x",))
        print(f"wrote {args.n} bimodal samples to {path}")
    else:
        r_in, r_out = 0.5, 1.0
        proposal = annulus_proposal(args.n, r_in, r_out, rng)
        samples = ot_sample(proposal, uniform_annulus_target(r_in, r_out))
        path = write_samples(
            samples.members, out_dir / "annulus_samples.csv", ("x", "y")
        )
        coverage = annulus_coverage(samples, r_in, r_out)
        diag_path = out_dir / "annulus_diagnostics.json"
        diagnostics = {
            "annulus_coverage": coverage,
            "n": args.n,
            "r_in": r_in,
            "r_out": r_out,
            "seed": args.seed,
        }
        write_file(diag_path, json.dumps(diagnostics, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.n} annulus samples to {path}")
        print(f"annulus coverage: {coverage:.4f} (diagnostics in {diag_path})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = config_from_json(args.path)
    print(json.dumps(config_to_dict(config), indent=1, sort_keys=True))
    print("config ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OTFilterError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
