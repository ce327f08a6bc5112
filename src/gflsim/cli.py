"""Command-line entry point: seeded policy comparisons with file reports.

Exit codes: 0 success, 1 runtime error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .experiment import (
    ALL_POLICIES,
    REPORT_FIELDS,
    ConfigError,
    compare,
    config_from_dict,
    read_config_dict,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Each flag but --config sets the config key named in its help."""
    parser = argparse.ArgumentParser(
        prog="gflsim",
        description="Fuzzy-logic handoff simulation: run seeded policy "
                    "comparisons and write metric reports and event logs.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config (defaults apply when omitted)")
    parser.add_argument("--policy", choices=ALL_POLICIES + ("all",), default=None,
                        help="policy to run, or 'all' (key: policies)")
    replicates = parser.add_mutually_exclusive_group()
    replicates.add_argument("--seed", type=int, default=None,
                            help="run a single replicate with this seed (key: seeds)")
    replicates.add_argument("--runs", type=int, default=None,
                            help="number of replicates, seeded 0..N-1 unless the "
                                 "config lists seeds (key: runs)")
    parser.add_argument("--out", dest="output_dir", metavar="DIR", default=None,
                        help="output directory (key: output_dir)")
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"),
                        default=None, help="report/event file format (key: output_format)")
    parser.add_argument("--eq2-verbatim", action="store_true",
                        help="use the as-printed accelerated-speed formula "
                             "sqrt(2*a*t) instead of the derivative a*t "
                             "(key: world.eq2_verbatim)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for replicate runs "
                             "(key: workers; default: one per CPU this process may use)")
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    """The config file's keys, with the key of each given flag set over them."""
    raw = read_config_dict(args.config) if args.config is not None else {}
    if args.policy is not None:
        raw["policies"] = list(ALL_POLICIES) if args.policy == "all" else [args.policy]
    if args.seed is not None:
        raw["seeds"] = [args.seed]
        raw.pop("runs", None)
    for key in ("runs", "output_dir", "output_format", "workers"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.eq2_verbatim and isinstance(raw.setdefault("world", {}), dict):
        raw["world"]["eq2_verbatim"] = True
    return raw


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
        config = config_from_dict(_config_dict(args))
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
