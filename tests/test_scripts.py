"""Smoke tests of scripts/run_all.py and scripts/seed_sweep.py on a tiny
config: each `main` exits 0, writes the expected files, and its reports
are the bytes that a fresh `run_experiment` gives."""

import importlib.util
from pathlib import Path

import pytest

from fedanon.config import build_config
from fedanon.experiments import run_experiment
from fedanon.reporting import Table, report_from_json, report_to_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY = {
    "users": "6", "classes": "5", "feature_dim": "12", "n_per_user": "60",
    "background_size": "200", "prior_fraction": "0.3", "hidden_dim": "8", "rounds": "4",
    "epoch_ranges": "2", "batch_size": "8", "eta": "0.5", "dataspace_set_sizes": "1,4",
}
SET_FLAGS = [flag for key, value in TINY.items() for flag in ("--set", f"{key}={value}")]

# one family that reads only the default run, one that federates a variant
# world next to it, and one that also attacks the raw world
FAMILIES = ("reid_closed", "iid_control", "dataspace")
TABLES = {"reid_closed": ("reid", "utility"), "iid_control": ("iid_control",), "dataspace": ("dataspace",)}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_files(family: str, suffix: str = "") -> set[str]:
    return {f"report_{family}{suffix}.json"} | {
        f"{family}{suffix}_{table}.csv" for table in TABLES[family]
    }


def fresh_json(family: str, seed: int = 0) -> str:
    return report_to_json(run_experiment(build_config(None, {**TINY, "seed": str(seed)}), family))


def test_run_all_writes_the_fresh_reports(tmp_path, capsys):
    out = tmp_path / "all"
    rc = load_script("run_all").main([*SET_FLAGS, "--out-dir", str(out), "--families", *FAMILIES])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == set().union(*(report_files(f) for f in FAMILIES))
    for family in FAMILIES:
        assert (out / f"report_{family}.json").read_text(encoding="utf-8") == fresh_json(family)
    printed = capsys.readouterr().out
    assert all(f in printed for f in FAMILIES)


def test_run_all_rejects_a_bad_config(tmp_path, capsys):
    rc = load_script("run_all").main(["--set", "epoch_ranges=51", "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "'epoch_ranges'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_seed_sweep_writes_per_seed_and_seedmean_reports(tmp_path, capsys):
    out = tmp_path / "sweep"
    families = FAMILIES[:2]
    rc = load_script("seed_sweep").main(
        [*SET_FLAGS, "--seeds", "0", "1", "--families", *families, "--out-dir", str(out)]
    )
    assert rc == 0
    for seed in (0, 1):
        assert {p.name for p in (out / f"seed{seed}").iterdir()} == set().union(
            *(report_files(f) for f in families)
        )
        for family in families:
            written = (out / f"seed{seed}" / f"report_{family}.json").read_text(encoding="utf-8")
            assert written == fresh_json(family, seed)
    top = {p.name for p in out.iterdir() if p.is_file()}
    assert top == set().union(*(report_files(f, "_seedmean") for f in families))

    summary = report_from_json((out / "report_reid_closed_seedmean.json").read_text(encoding="utf-8"))
    per_seed = [
        report_from_json((out / f"seed{s}" / "report_reid_closed.json").read_text(encoding="utf-8"))
        for s in (0, 1)
    ]
    reid = summary.table("reid")
    i_ap, i_mean = per_seed[0].table("reid").columns.index("ap"), reid.columns.index("ap_mean")
    for row, *seed_rows in zip(reid.rows, *(r.table("reid").rows for r in per_seed)):
        aps = [r[i_ap] for r in seed_rows]
        assert row[i_mean] == pytest.approx(sum(aps) / 2)
        assert row[i_mean + 1 : i_mean + 3] == [min(aps), max(aps)]
    assert "over seeds [0, 1]" in capsys.readouterr().out


def test_seed_sweep_matches_mitigation_rows_by_position(tmp_path):
    # the noise rows share their only non-float cell, the strategy
    grids = ["--set", "noise_grid=0.1,1.0", "--set", "repl_grid=0.5", "--set", "aug_grid=1.0"]
    out = tmp_path / "sweep"
    rc = load_script("seed_sweep").main(
        [*SET_FLAGS, *grids, "--seeds", "0", "1", "--families", "mitigation", "--out-dir", str(out)]
    )
    assert rc == 0
    summary = report_from_json(
        (out / "report_mitigation_seedmean.json").read_text(encoding="utf-8")
    ).table("tradeoff")
    per_seed = [
        report_from_json((out / f"seed{s}" / "report_mitigation.json").read_text(encoding="utf-8"))
        .table("tradeoff") for s in (0, 1)
    ]
    assert [row[0] for row in summary.rows] == ["noise", "noise", "noise", "bkg_repl", "rand_aug",
                                                "mm_aug"]
    i_value, i_ap = summary.columns.index("value_mean"), summary.columns.index("attacker_ap_mean")
    for row, *seed_rows in zip(summary.rows, *(t.rows for t in per_seed)):
        assert row[i_value : i_value + 3] == [seed_rows[0][1]] * 3
        aps = [r[2] for r in seed_rows]
        assert row[i_ap : i_ap + 3] == [sum(aps) / 2, min(aps), max(aps)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["noise", 0.1]], "row counts differ"),
        ([["noise", 0.1], ["mm_aug", 1.0]], "row 1 differs across seeds"),
    ],
)
def test_seed_sweep_summary_rejects_rows_that_do_not_line_up(rows, message):
    first = Table(name="tradeoff", columns=["strategy", "value"],
                  rows=[["noise", 0.1], ["rand_aug", 1.0]])
    other = Table(name="tradeoff", columns=["strategy", "value"], rows=rows)
    with pytest.raises(ValueError, match=message):
        load_script("seed_sweep").summarize([first, other])
