"""Command line entry points.

Subcommands: federate (run FL and dump the delta log), attack (run one or
more experiment families, or `all`, and write their reports), report
(re-emit a saved report in another format). Every config key is mirrored
as a --flag; precedence is flags > config file > defaults, for `out_dir`
too. `attack --seeds N [N ...]` runs the families once per seed, on one
`Stages` per seed; with more than one seed, each seed's reports go to
<out_dir>/seed<N>/ and each family gets a <family>_seedmean report in
<out_dir>.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .atomic import replace_files
from .blas import pin
from .config import ConfigError, ExperimentConfig, build_config
from .deltastore import write_records
from .experiments import EXPERIMENT_FAMILIES, Stages, run_experiment, utility_table
from .reporting import Report, report_from_json, seed_mean, table_to_csv, write_report

# what bad inputs or files make a run raise: one `error:` line, exit status 1
RUN_ERRORS = (ValueError, OSError, KeyError)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config document")
    parser.add_argument(
        "--out-dir", dest="cfg_out_dir", metavar="DIR", help="output directory"
    )
    for f in fields(ExperimentConfig):
        if f.name == "out_dir":
            continue
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{f.name}", metavar="V", help=argparse.SUPPRESS)


def _config_from_args(args: argparse.Namespace, **extra: str) -> ExperimentConfig:
    overrides = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return build_config(args.config, {**overrides, **extra})


def _formats(args: argparse.Namespace) -> tuple[str, ...]:
    return ("json", "csv") if args.format == "both" else (args.format,)


def _print_written(paths: list[Path]) -> None:
    for p in paths:
        print(f"wrote {p}")


def _cmd_federate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    pin()
    run = Stages(cfg).run
    out = Path(cfg.out_dir)
    write_records(out, run.records)
    replace_files({out / "utility.csv": table_to_csv(utility_table(run)).encode()})
    print(
        f"wrote {out}/manifest.json, deltas.bin, utility.csv "
        f"({len(run.records)} records, final score {run.utility[-1]:.3f})"
    )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    families = [f for f in EXPERIMENT_FAMILIES if f in args.family or "all" in args.family]
    if args.seeds is None:
        configs = [_config_from_args(args)]
    else:
        configs = [_config_from_args(args, seed=str(s)) for s in args.seeds]
    out = Path(configs[0].out_dir)
    per_seed: dict[str, list[Report]] = {family: [] for family in families}
    for cfg in configs:
        seed_dir = out if len(configs) == 1 else out / f"seed{cfg.seed}"
        stages = Stages(cfg)
        for family in families:
            report = run_experiment(cfg, family, stages)
            _print_written(write_report(report, seed_dir, _formats(args)))
            per_seed[family].append(report)
    if len(configs) == 1:
        return 0
    for family, reports in per_seed.items():
        summary = seed_mean(reports)
        _print_written(write_report(summary, out, _formats(args)))
        for t in summary.tables:
            print(f"\n{family}/{t.name} over seeds {args.seeds}")
            print("  " + "  ".join(t.columns))
            for row in t.rows:
                print("  " + "  ".join(f"{c:.3f}" if isinstance(c, float) else str(c) for c in row))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_json(Path(args.report).read_text(encoding="utf-8"))
    _print_written(write_report(report, args.out_dir or Path(args.report).parent, _formats(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedanon",
        description="federated learning deanonymization benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("federate", help="run FL and write the delta log")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_federate)

    p = sub.add_parser("attack", help="run experiment families end to end")
    _add_config_flags(p)
    p.add_argument(
        "--family", required=True, nargs="+", choices=(*EXPERIMENT_FAMILIES, "all"),
        metavar="FAMILY", help=f"one or more of {', '.join(EXPERIMENT_FAMILIES)}, or all",
    )
    p.add_argument(
        "--seeds", nargs="+", type=int, metavar="N",
        help="run once per seed; more than one writes seed<N>/ and seed means "
             "(default: the config's seed)",
    )
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("report", help="re-emit a saved JSON report")
    p.add_argument("--report", required=True, metavar="FILE")
    p.add_argument("--format", choices=("json", "csv", "both"), default="csv")
    p.add_argument("--out-dir", metavar="DIR")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seeds", None) is not None:
        if args.cfg_seed is not None:
            parser.error("give the seed by --seeds or by --seed, not both")
        if len(set(args.seeds)) != len(args.seeds):
            parser.error(f"--seeds repeats a seed: {args.seeds}")
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RUN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
