"""Repeat experiment families over several seeds and report seed means.

The headline numbers (attack AP over chance, mitigation trade-offs) move a
fair bit between worlds, so single-seed tables overstate precision. This
runs each requested family once per seed on that seed's shared stages,
writes the per-seed reports, and emits one summary table per result table
with every float column replaced by its mean/lo/hi over seeds:

    python3 scripts/seed_sweep.py --families reid_closed matching_closed --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import sys
import time

from fedanon.config import ConfigError, build_config
from fedanon.experiments import EXPERIMENT_FAMILIES, Stages, run_experiment
from fedanon.reporting import Report, Table, write_report


def summarize(tables: list[Table]) -> Table:
    """Collapse one table's per-seed copies: rows are matched by position
    and must agree on their non-float cells, float columns become
    mean/lo/hi."""
    base = tables[0]
    is_float = [any(isinstance(r[i], float) for r in base.rows) for i in range(len(base.columns))]
    columns: list[str] = []
    for name, f in zip(base.columns, is_float):
        columns += [f"{name}_mean", f"{name}_lo", f"{name}_hi"] if f else [name]

    if any(len(t.rows) != len(base.rows) for t in tables):
        raise ValueError(f"table {base.name!r}: row counts differ across seeds")
    rows = []
    for position, copies in enumerate(zip(*(t.rows for t in tables))):
        keys = {tuple(c for c, f in zip(row, is_float) if not f) for row in copies}
        if len(keys) != 1:
            raise ValueError(f"table {base.name!r}: row {position} differs across seeds in {keys}")
        row: list = []
        for cells, f in zip(zip(*copies), is_float):
            row += [sum(cells) / len(cells), min(cells), max(cells)] if f else [cells[0]]
        rows.append(row)
    return Table(name=base.name, columns=columns, rows=rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="FILE", help="key = value config document")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2], metavar="N")
    parser.add_argument(
        "--families", nargs="+", choices=EXPERIMENT_FAMILIES, metavar="FAMILY",
        default=["reid_closed", "matching_closed", "open_world", "iid_control"],
    )
    parser.add_argument("--out-dir", default="results/sweep", metavar="DIR")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()

    per_seed: dict[str, list[Report]] = {family: [] for family in args.families}
    for s in args.seeds:
        try:
            cfg = build_config(args.config, {**overrides, "seed": str(s)})
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        stages = Stages(cfg)
        for family in args.families:
            started = time.perf_counter()
            report = run_experiment(cfg, family, stages)
            write_report(report, f"{args.out_dir}/seed{s}")
            print(f"{family} seed {s}: {time.perf_counter() - started:.1f}s")
            per_seed[family].append(report)

    for family, reports in per_seed.items():
        summary = Report(
            experiment=f"{family}_seedmean",
            config=reports[0].config,
            seed=args.seeds[0],
            version=reports[0].version,
            config_hash=reports[0].config_hash,
            tables=[summarize([r.table(t.name) for r in reports]) for t in reports[0].tables],
        )
        write_report(summary, args.out_dir)
        for t in summary.tables:
            print(f"\n{family}/{t.name} over seeds {args.seeds}")
            print("  " + "  ".join(t.columns))
            for row in t.rows:
                print("  " + "  ".join(f"{c:.3f}" if isinstance(c, float) else str(c) for c in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
