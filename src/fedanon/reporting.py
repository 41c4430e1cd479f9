"""Result tables and their serialization.

Reports are deterministic: rerunning an experiment with the same config and
seed produces byte-identical JSON and CSV artifacts, so no wall-clock data
is ever written into them. CSV files are RFC-4180 (CRLF, quoted when
needed) with one file per table; floats are serialized via repr so the
round trip is exact. JSON reports are strict JSON (RFC 8259): a NaN cell
is written as `null`, and CSV writes it as `nan`. One family's reports
over several seeds collapse into one seed-mean report (`seed_mean`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn, Sequence

from .atomic import replace_files
from .config import config_hash

Cell = str | int | float

_NAME = re.compile(r"[A-Za-z0-9_]+")


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list[Cell]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row of width {len(row)} vs {len(self.columns)} columns"
                )


@dataclass
class Report:
    experiment: str
    config: dict[str, str]
    seed: int
    version: str
    config_hash: str
    tables: list[Table] = field(default_factory=list)

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(f"report has no table {name!r}; have {[t.name for t in self.tables]}")


def _cell_to_text(value: Cell) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_json(report: Report) -> str:
    doc = {
        "experiment": report.experiment,
        "provenance": {
            "seed": report.seed,
            "version": report.version,
            "config_hash": report.config_hash,
        },
        "config": report.config,
        "tables": {
            t.name: {
                "columns": t.columns,
                "rows": [[None if isinstance(c, float) and math.isnan(c) else c for c in row]
                         for row in t.rows],
            }
            for t in report.tables
        },
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def _reject_constant(token: str) -> NoReturn:
    raise ValueError(f"malformed report: {token} is not JSON; a NaN cell is written as null")


def report_from_json(text: str) -> Report:
    """Parse a report that `report_to_json` wrote. A missing key, a value
    of the wrong type, a table cell that is not a string or a number, or
    text that is not byte for byte what the writer emits for the parsed
    report raises ValueError. A `null` cell reads as NaN; the non-JSON
    tokens NaN and Infinity are rejected."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
        report = Report(
            experiment=str(doc["experiment"]),
            config=dict(doc["config"]),
            seed=int(doc["provenance"]["seed"]),
            version=str(doc["provenance"]["version"]),
            config_hash=str(doc["provenance"]["config_hash"]),
            tables=[
                Table(name=name, columns=list(t["columns"]),
                      rows=[[math.nan if c is None else c for c in r] for r in t["rows"]])
                for name, t in doc["tables"].items()
            ],
        )
    except (KeyError, TypeError, AttributeError, OverflowError) as err:
        raise ValueError(f"malformed report: {err!r}") from err
    for t in report.tables:
        for row in t.rows:
            for cell in row:
                if not isinstance(cell, (str, int, float)):
                    raise ValueError(f"table {t.name!r}: cell {cell!r} is not a string or a number")
    if report_to_json(report) != text:
        raise ValueError("report is not in the form the writer emits")
    return report


def table_to_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_cell_to_text(c) for c in row])
    return buf.getvalue()


def write_report(
    report: Report, out_dir, formats: Sequence[str] = ("json", "csv")
) -> list[Path]:
    """Emit the report as report_<experiment>.json and/or one
    <experiment>_<table>.csv per table, all or none of them; returns the
    written paths. Every experiment and table name must match
    [A-Za-z0-9_]+, so that each file lands in `out_dir`."""
    for name in (report.experiment, *(t.name for t in report.tables)):
        if not _NAME.fullmatch(name):
            raise ValueError(f"report name {name!r} must match {_NAME.pattern}")
    out = Path(out_dir)
    contents: dict[Path, bytes] = {}
    for fmt in formats:
        if fmt == "json":
            contents[out / f"report_{report.experiment}.json"] = report_to_json(report).encode()
        elif fmt == "csv":
            for t in report.tables:
                contents[out / f"{report.experiment}_{t.name}.csv"] = table_to_csv(t).encode()
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    out.mkdir(parents=True, exist_ok=True)
    replace_files(contents)
    return list(contents)


def summarize(tables: list[Table]) -> Table:
    """Collapse one table's per-seed copies, matching rows by position.

    A column is a key, written once, when it lies in the leading run of
    columns that agree across seeds in every row, as a grid value such as
    mitigation's `value` does. After that run, a float column and an int
    column that differs between seeds (a count such as `skipped_labels`)
    become mean/lo/hi. Key cells must agree across seeds."""
    base = tables[0]
    if any(len(t.rows) != len(base.rows) for t in tables):
        raise ValueError(f"table {base.name!r}: row counts differ across seeds")
    by_position = list(zip(*(t.rows for t in tables)))
    agrees = [all(row[i] == copies[0][i] for copies in by_position for row in copies)
              for i in range(len(base.columns))]
    leading = agrees.index(False) if False in agrees else len(agrees)
    is_stat = [i >= leading and (any(isinstance(r[i], float) for r in base.rows) or not agrees[i]
                                 and all(type(row[i]) is int for c in by_position for row in c))
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
