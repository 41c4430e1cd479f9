"""Run every experiment family at one configuration and write all reports.

Reproduces the full result set for a single seed:

    python3 scripts/run_all.py --out-dir results/seed0
    python3 scripts/run_all.py --config my.cfg --set seed=1 --out-dir results/seed1

Families can be cherry-picked with --families; the heavyweight ones
(mitigation, prior_amount) land last so partial runs still leave the cheap
reports behind. All families share one world, one default federated run and
one reference MLP attack fit.
"""

from __future__ import annotations

import argparse
import sys
import time

from fedanon.config import ConfigError, build_config, config_hash
from fedanon.experiments import EXPERIMENT_FAMILIES, Stages, run_experiment
from fedanon.reporting import write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="FILE", help="key = value config document")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    parser.add_argument("--out-dir", default="results", metavar="DIR")
    parser.add_argument(
        "--families", nargs="+", choices=EXPERIMENT_FAMILIES, default=EXPERIMENT_FAMILIES,
        metavar="FAMILY",
        help="subset of experiment families (default: all)",
    )
    parser.add_argument("--format", choices=("json", "csv", "both"), default="both")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    try:
        cfg = build_config(args.config, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    formats = ("json", "csv") if args.format == "both" else (args.format,)
    print(f"config {config_hash(cfg)} seed {cfg.seed} -> {args.out_dir}")
    stages = Stages(cfg)
    for family in (f for f in EXPERIMENT_FAMILIES if f in args.families):
        started = time.perf_counter()
        report = run_experiment(cfg, family, stages)
        paths = write_report(report, args.out_dir, formats)
        print(f"  {family:<16} {time.perf_counter() - started:6.1f}s  {len(paths)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
