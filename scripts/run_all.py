"""Run experiment families at one configuration, over one seed or several.

Reproduces the full result set for a single seed:

    python3 scripts/run_all.py --out-dir results/seed0
    python3 scripts/run_all.py --config my.cfg --set seed=1 --out-dir results/seed1

The headline numbers (attack AP over chance, mitigation trade-offs) move a
fair bit between worlds, so single-seed tables overstate precision. Given
more than one seed, each seed's reports go to <out-dir>/seed<N>/ and each
family also gets a <family>_seedmean report in <out-dir>, whose float
columns become mean/lo/hi over the seeds:

    python3 scripts/run_all.py --seeds 0 1 2 --families reid_closed mitigation \
        --out-dir results/sweep

Families can be cherry-picked with --families; the heavyweight ones
(mitigation, prior_amount) land last so partial runs still leave the cheap
reports behind. All families of one seed share one world, one default
federated run and one reference MLP attack fit.
"""

from __future__ import annotations

import argparse
import sys
import time

from fedanon.cli import RUN_ERRORS
from fedanon.config import ConfigError, build_config, config_hash, read_config_file
from fedanon.experiments import EXPERIMENT_FAMILIES, Stages, run_experiment
from fedanon.reporting import Report, Table, write_report


def summarize(tables: list[Table]) -> Table:
    """Collapse one table's per-seed copies, matching rows by position.

    A column is a key, written once, when it is not a float column or when
    it lies in the leading run of columns that agree across seeds in every
    row, as a grid value such as mitigation's `value` does. Every other
    float column becomes mean/lo/hi. Key cells must agree across seeds."""
    base = tables[0]
    if any(len(t.rows) != len(base.rows) for t in tables):
        raise ValueError(f"table {base.name!r}: row counts differ across seeds")
    by_position = list(zip(*(t.rows for t in tables)))
    agrees = [all(row[i] == copies[0][i] for copies in by_position for row in copies)
              for i in range(len(base.columns))]
    leading = agrees.index(False) if False in agrees else len(agrees)
    is_stat = [i >= leading and any(isinstance(r[i], float) for r in base.rows)
               for i in range(len(base.columns))]
    columns: list[str] = []
    for name, stat in zip(base.columns, is_stat):
        columns += [f"{name}_mean", f"{name}_lo", f"{name}_hi"] if stat else [name]

    rows = []
    for position, copies in enumerate(by_position):
        keys = {tuple(c for c, stat in zip(row, is_stat) if not stat) for row in copies}
        if len(keys) != 1:
            raise ValueError(f"table {base.name!r}: row {position} differs across seeds in {keys}")
        row: list = []
        for cells, stat in zip(zip(*copies), is_stat):
            row += [sum(cells) / len(cells), min(cells), max(cells)] if stat else [cells[0]]
        rows.append(row)
    return Table(name=base.name, columns=columns, rows=rows)


def seed_mean(reports: list[Report]) -> Report:
    """One family's per-seed reports as one report. Its config records the
    seeds as "0,1,2" and its hash is over that config; the provenance seed
    is the first seed."""
    first = reports[0]
    config = {**first.config, "seed": ",".join(str(r.seed) for r in reports)}
    return Report(
        experiment=f"{first.experiment}_seedmean",
        config=config,
        seed=first.seed,
        version=first.version,
        config_hash=config_hash(config),
        tables=[summarize([r.table(t.name) for r in reports]) for t in first.tables],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="FILE", help="key = value config document")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, metavar="N",
        help="run once per seed; more than one writes seed<N>/ and seed means "
             "(default: the config's seed)",
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
    if "out_dir" in overrides:
        parser.error("give the output directory by --out-dir, not by --set out_dir=...")
    if args.seeds is not None:
        if "seed" in overrides:
            parser.error("give the seed by --seeds or by --set seed=..., not both")
        if len(set(args.seeds)) != len(args.seeds):
            parser.error(f"--seeds repeats a seed: {args.seeds}")

    formats = ("json", "csv") if args.format == "both" else (args.format,)
    families = [f for f in EXPERIMENT_FAMILIES if f in args.families]
    per_seed: dict[str, list[Report]] = {family: [] for family in families}
    try:
        if args.config is not None and "out_dir" in read_config_file(args.config):
            parser.error(f"{args.config} sets out_dir; give the output directory by --out-dir")
        if args.seeds is None:
            configs = [build_config(args.config, overrides)]
        else:
            configs = [build_config(args.config, {**overrides, "seed": str(s)}) for s in args.seeds]
        for cfg in configs:
            out_dir = args.out_dir if len(configs) == 1 else f"{args.out_dir}/seed{cfg.seed}"
            print(f"config {config_hash(cfg)} seed {cfg.seed} -> {out_dir}")
            stages = Stages(cfg)
            for family in families:
                started = time.perf_counter()
                report = run_experiment(cfg, family, stages)
                paths = write_report(report, out_dir, formats)
                print(f"  {family:<16} {time.perf_counter() - started:6.1f}s  {len(paths)} files")
                per_seed[family].append(report)
    except ConfigError as err:
        # a family may reject the config only once its run checks it
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RUN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(configs) == 1:
        return 0

    for family, reports in per_seed.items():
        summary = seed_mean(reports)
        write_report(summary, args.out_dir, formats)
        for t in summary.tables:
            print(f"\n{family}/{t.name} over seeds {args.seeds}")
            print("  " + "  ".join(t.columns))
            for row in t.rows:
                print("  " + "  ".join(f"{c:.3f}" if isinstance(c, float) else str(c) for c in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
