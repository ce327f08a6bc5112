"""Command-line entry point: seeded policy comparisons with file reports.

Exit codes: 0 success, 1 runtime error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .experiment import (
    ALL_POLICIES,
    REPORT_FIELDS,
    ConfigError,
    ExperimentConfig,
    compare,
    config_from_dict,
    default_config,
    read_config_dict,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gflsim",
        description="Fuzzy-logic handoff simulation: run seeded policy "
                    "comparisons and write metric reports and event logs.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config (defaults apply when omitted)")
    parser.add_argument("--policy", choices=ALL_POLICIES + ("all",), default=None,
                        help="policy to run, or 'all' (default: config setting)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run a single replicate with this seed")
    parser.add_argument("--runs", type=int, default=None,
                        help="number of replicates, seeded 0..N-1")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: config setting)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="report/event file format (default: config setting)")
    parser.add_argument("--eq2-verbatim", action="store_true",
                        help="use the as-printed accelerated-speed formula "
                             "sqrt(2*a*t) instead of the derivative a*t")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for replicate runs "
                             "(default: one per CPU)")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace,
                     seeds_from_file: bool) -> ExperimentConfig:
    if args.policy is not None:
        policies = ALL_POLICIES if args.policy == "all" else (args.policy,)
        config = dataclasses.replace(config, policies=policies)
    if args.seed is not None and args.runs is not None:
        raise ConfigError("--seed and --runs are mutually exclusive")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be a non-negative integer")
        config = dataclasses.replace(config, seeds=(args.seed,))
    elif args.runs is not None:
        if args.runs < 1:
            raise ConfigError("--runs: must be a positive integer")
        if not seeds_from_file:
            config = dataclasses.replace(config, seeds=tuple(range(args.runs)))
        elif args.runs != len(config.seeds):
            raise ConfigError(
                f"--runs: {args.runs} conflicts with the {len(config.seeds)} "
                "seeds listed in the config"
            )
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    if args.format is not None:
        config = dataclasses.replace(config, output_format=args.format)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers: must be a positive integer")
        config = dataclasses.replace(config, workers=args.workers)
    if args.eq2_verbatim:
        world = dataclasses.replace(config.world, eq2_verbatim=True)
        config = dataclasses.replace(config, world=world)
    return config


def _print_report(report, out) -> None:
    width = max(len(m) for m in REPORT_FIELDS) + 2
    header = "metric".ljust(width) + "".join(p.rjust(12) for p in report.policies)
    print(header, file=out)
    for metric in REPORT_FIELDS:
        for stat in ("max", "min", "avg"):
            cells = []
            for kind in report.policies:
                value = getattr(getattr(report.rows[kind], metric), stat)
                cells.append(f"{value:12.2f}")
            print(f"{metric}.{stat}".ljust(width) + "".join(cells), file=out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            raw = read_config_dict(args.config)
            config = config_from_dict(raw)
            seeds_from_file = "seeds" in raw
        else:
            config = default_config()
            seeds_from_file = False
        config = _apply_overrides(config, args, seeds_from_file)
    except FileNotFoundError as exc:
        print(f"gflsim: config file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"gflsim: config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = compare(config)
    except OSError as exc:
        print(f"gflsim: i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"gflsim: error: {exc}", file=sys.stderr)
        return 1
    _print_report(report, sys.stdout)
    print(f"wrote {config.output_format} report and event logs to {config.output_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
