"""The benchmark's workloads and the checks on their outputs.

Each workload is one closed-loop client: one workload run at a time, in
this process, through fedanon's public entry points (`cli.main`,
`experiments.run_experiment`, `deltastore.read_records`,
`reporting.write_report`). The config seed is derived from the benchmark
seed. A workload returns its attack AP, its task score and the sha256 of
every file it wrote; a failed check raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from fedanon import cli, deltastore, experiments, reporting
from fedanon.config import build_config

from tracer import rebind

# The world every workload runs on: the default config with 10 rounds of
# 100 examples per user instead of 50 of 200, so one workload run takes a
# few seconds and a benchmark run can repeat it over several worlds.
WORLD = {"rounds": "10", "n_per_user": "100"}

# config overrides per workload, as `fedanon` flag values
OVERRIDES = {
    "quickstart": WORLD,
    "epoch_grid_dense": {**WORLD, "epoch_ranges": "10"},
    # one point per strategy: the anchor plus noise, bkg_repl, rand_aug, mm_aug
    "mitigation_sweep": {**WORLD, "noise_grid": "1.0", "repl_grid": "0.5", "aug_grid": "1.0"},
}

# worlds drawn per benchmark seed; `attack_ap` and `task_score` are means
# over them, which keeps them steady from seed to seed
WORLDS = 6

# a tiny world that runs every workload path and every span in seconds
SMOKE = {
    "users": "4", "rounds": "2", "n_per_user": "40", "background_size": "60",
    "epoch_ranges": "2",
}

QUICKSTART_FAMILIES = ("reid_closed", "matching_closed", "bias_profile")
MITIGATION_STRATEGIES = ["noise", "noise", "bkg_repl", "rand_aug", "mm_aug"]


class CheckFailed(Exception):
    """A workload's outputs are wrong or inconsistent."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def config_seed(seed: int, world: int = 0) -> int:
    """Config seed of one world, derived from the benchmark seed (any
    integer) and the world's index."""
    digest = hashlib.sha256(f"perfbench-seed:{seed}:world:{world}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def overrides_for(workload: str, seed: int, smoke: bool, world: int = 0) -> dict[str, str]:
    return {**OVERRIDES[workload], **(SMOKE if smoke else {}), "seed": str(config_seed(seed, world))}


@dataclass
class Outcome:
    attack_ap: float
    task_score: float
    digests: dict[str, str]  # file name -> sha256 of every file the run wrote


@dataclass(frozen=True)
class Federation:
    task_score: float  # final-round held-out accuracy
    records: int
    digest: str  # records_digest of the logged deltas


def records_digest(records) -> str:
    """sha256 over each record's identity, n_k and float32-rounded deltas,
    which is exactly what the delta log stores."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.round_t, r.device_id, r.user_id, r.role, r.n_k)).encode())
        for name, arr in r.delta.layers:
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return h.hexdigest()


class Federations:
    """Summaries of every `run_federated` call made during one workload
    run; only the summary is kept, so no deltas outlive their run."""

    def __init__(self) -> None:
        self.runs: list[Federation] = []

    def install(self) -> Callable[[], None]:
        def make(fn):
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                run = fn(*args, **kwargs)
                self.runs.append(
                    Federation(float(run.utility[-1]), len(run.records), records_digest(run.records))
                )
                return run

            return captured

        return rebind("fedanon.federated", "run_federated", make)


def digest_files(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def read_reports(out: Path, seed: str) -> dict[str, reporting.Report]:
    """Every report JSON must re-parse and re-serialize to the same bytes."""
    reports = {}
    for path in sorted(out.glob("report_*.json")):
        text = path.read_text(encoding="utf-8")
        report = reporting.report_from_json(text)
        require(reporting.report_to_json(report) == text, f"{path.name} does not round-trip")
        require(str(report.seed) == seed, f"{path.name} has seed {report.seed}, expected {seed}")
        reports[report.experiment] = report
    return reports


def column(table: reporting.Table, name: str) -> list:
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


def checked_outcome(attack_ap: float, task_score: float, out: Path) -> Outcome:
    for name, value in (("attack_ap", attack_ap), ("task_score", task_score)):
        require(math.isfinite(value) and 0.0 < value <= 1.0, f"{name} = {value!r} not in (0, 1]")
    return Outcome(attack_ap, task_score, digest_files(out))


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    require(code == 0, f"fedanon {argv[0]} exited with {code}")


def quickstart(overrides: dict[str, str], out: Path, feds: Federations) -> Outcome:
    """`fedanon federate`, read the log back, then three attack families."""
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in overrides.items()] + ["--out-dir", str(out)]
    _cli("federate", *flags)
    _, records = deltastore.read_records(out)
    logged = feds.runs[0]
    require(len(records) == logged.records, f"log holds {len(records)} records, run made {logged.records}")
    require(records_digest(records) == logged.digest, "delta log differs from the float32-rounded deltas")
    del records
    for family in QUICKSTART_FAMILIES:
        _cli("attack", "--family", family, *flags)

    reports = read_reports(out, overrides["seed"])
    require(sorted(reports) == sorted(QUICKSTART_FAMILIES), f"reports {sorted(reports)}")
    # the four federations ran one config, so they must agree exactly
    require(len(feds.runs) == 4 and len(set(feds.runs)) == 1, "federations at one config disagree")
    reid = reports["reid_closed"].table("reid")
    attack_ap = column(reid, "ap")[column(reid, "method").index("mlp")]
    task_score = column(reports["reid_closed"].table("utility"), "task_score")[-1]
    csv_score = float((out / "utility.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")[1])
    require(task_score == csv_score == logged.task_score, "final task scores disagree")
    return checked_outcome(attack_ap, task_score, out)


def epoch_grid_dense(overrides: dict[str, str], out: Path, feds: Federations) -> Outcome:
    """The epoch_grid family: every train range against every eval range."""
    cfg = build_config(None, overrides)
    reporting.write_report(experiments.run_experiment(cfg, "epoch_grid"), out)
    grid = read_reports(out, overrides["seed"])["epoch_grid"].table("epoch_grid")
    require(len(grid.rows) == cfg.epoch_ranges**2, f"{len(grid.rows)} grid cells")
    require(len(feds.runs) == 1, f"{len(feds.runs)} federations, expected 1")
    return checked_outcome(float(np.mean(column(grid, "ap"))), feds.runs[0].task_score, out)


def mitigation_sweep(overrides: dict[str, str], out: Path, feds: Federations) -> Outcome:
    """The mitigation family with one point per strategy."""
    cfg = build_config(None, overrides)
    reporting.write_report(experiments.run_experiment(cfg, "mitigation"), out)
    table = read_reports(out, overrides["seed"])["mitigation"].table("tradeoff")
    require(column(table, "strategy") == MITIGATION_STRATEGIES, f"strategies {column(table, 'strategy')}")
    require(len(feds.runs) == len(MITIGATION_STRATEGIES), f"{len(feds.runs)} federations")
    anchor = dict(zip(table.columns, table.rows[0]))
    require(anchor["value"] == 0.0 and anchor["utility"] == 1.0, f"bad anchor row {anchor}")
    require(anchor["task_score"] == feds.runs[0].task_score, "anchor task score is not its run's")
    return checked_outcome(anchor["attacker_ap"], anchor["task_score"], out)


WORKLOADS: dict[str, Callable[[dict[str, str], Path, Federations], Outcome]] = {
    "quickstart": quickstart,
    "epoch_grid_dense": epoch_grid_dense,
    "mitigation_sweep": mitigation_sweep,
}
