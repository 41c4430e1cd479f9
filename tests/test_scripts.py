"""Smoke tests of scripts/run_all.py on a tiny config, over one seed and
over several: `main` exits 0, writes the expected files, and its reports
are the bytes that a fresh `run_experiment` gives."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from fedanon import cli
from fedanon.config import build_config, config_hash
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


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--set", "epoch_ranges=51"], "'epoch_ranges'"),
        # every check passes until open_world's own, inside its run
        ([*SET_FLAGS, "--set", "users=4", "--families", "open_world"], "'seen_fractions'"),
    ],
    ids=["validate", "family"],
)
def test_run_all_rejects_a_bad_config(tmp_path, capsys, flags, key):
    rc = load_script("run_all").main([*flags, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# passes every check, but the one background row holds no example of the
# profile class
PROFILE_GAP = {"users": "4", "rounds": "3", "n_per_user": "20", "background_size": "1",
               "clusters_m": "1", "epoch_ranges": "2", "prior_kind": "profile",
               "profile_class": "3", "seed": "1"}


def test_run_all_reports_a_failing_family_in_the_cli_s_one_line(tmp_path, capsys):
    rc = load_script("run_all").main(
        [*(f for key, value in PROFILE_GAP.items() for f in ("--set", f"{key}={value}")),
         "--families", "reid_closed", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    flags = [f for key, value in PROFILE_GAP.items() for f in ("--" + key.replace("_", "-"), value)]
    assert cli.main(["federate", *flags, "--out-dir", str(tmp_path / "y")]) == 1
    assert err == capsys.readouterr().err == "error: background holds no examples of class 3\n"


@pytest.fixture(scope="module")
def two_seeds(tmp_path_factory):
    """`run_all --seeds 0 1` over two families: the output directory and
    what the script printed."""
    out = tmp_path_factory.mktemp("seeds") / "sweep"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = load_script("run_all").main(
            [*SET_FLAGS, "--seeds", "0", "1", "--families", *FAMILIES[:2], "--out-dir", str(out)]
        )
    assert rc == 0
    return out, printed.getvalue()


def test_run_all_seeds_writes_per_seed_and_seedmean_reports(two_seeds):
    out, printed = two_seeds
    families = FAMILIES[:2]
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
    assert "over seeds [0, 1]" in printed


def test_seedmean_report_records_the_seeds_it_averages(two_seeds, tmp_path):
    out, _ = two_seeds
    path = out / "report_reid_closed_seedmean.json"
    text = path.read_text(encoding="utf-8")
    summary = report_from_json(text)
    seed0 = report_from_json(
        (out / "seed0" / "report_reid_closed.json").read_text(encoding="utf-8")
    )
    assert summary.config == {**seed0.config, "seed": "0,1"}
    assert summary.config_hash == config_hash(summary.config) != seed0.config_hash
    rc = cli.main(["report", "--report", str(path), "--format", "json", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / path.name).read_text(encoding="utf-8") == text


def test_run_all_seed_means_match_mitigation_rows_by_position(tmp_path):
    # the noise rows share their strategy; each grid value is a key, not a
    # mean: (0.1 + 0.1 + 0.1) / 3 would read 0.10000000000000002
    grids = ["--set", "noise_grid=0.1", "--set", "repl_grid=0.7", "--set", "aug_grid=0.1"]
    out = tmp_path / "sweep"
    rc = load_script("run_all").main(
        [*SET_FLAGS, *grids, "--seeds", "0", "1", "2", "--families", "mitigation",
         "--out-dir", str(out)]
    )
    assert rc == 0
    summary = report_from_json(
        (out / "report_mitigation_seedmean.json").read_text(encoding="utf-8")
    ).table("tradeoff")
    per_seed = [
        report_from_json((out / f"seed{s}" / "report_mitigation.json").read_text(encoding="utf-8"))
        .table("tradeoff") for s in (0, 1, 2)
    ]
    assert [row[:2] for row in summary.rows] == [
        ["noise", 0.0], ["noise", 0.1], ["bkg_repl", 0.7], ["rand_aug", 0.1], ["mm_aug", 0.1]
    ]
    # chance_ap agrees across seeds too, but follows a measured column
    assert summary.columns[:3] + summary.columns[5:6] == [
        "strategy", "value", "attacker_ap_mean", "chance_ap_mean"
    ]
    for row, *seed_rows in zip(summary.rows, *(t.rows for t in per_seed)):
        aps = [r[2] for r in seed_rows]
        assert row[2:5] == [sum(aps) / 3, min(aps), max(aps)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["noise", 0.1]], "row counts differ"),
        ([["noise", 0.1], ["mm_aug", 1.0]], "row 1 differs across seeds"),
    ],
)
def test_seed_mean_summary_rejects_rows_that_do_not_line_up(rows, message):
    first = Table(name="tradeoff", columns=["strategy", "value"],
                  rows=[["noise", 0.1], ["rand_aug", 1.0]])
    other = Table(name="tradeoff", columns=["strategy", "value"], rows=rows)
    with pytest.raises(ValueError, match=message):
        load_script("run_all").summarize([first, other])


def test_run_all_seeds_0_writes_the_bytes_of_no_flag(tmp_path):
    run_all = load_script("run_all")
    for name, seeds in (("plain", []), ("seeds", ["--seeds", "0"])):
        args = [*SET_FLAGS, *seeds, "--families", *FAMILIES, "--out-dir", str(tmp_path / name)]
        assert run_all.main(args) == 0
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "seeds").iterdir())
    for p in plain:
        assert p.read_bytes() == (tmp_path / "seeds" / p.name).read_bytes()


@pytest.mark.parametrize(
    "flags", [["--seeds", "0", "1", "--set", "seed=3"], ["--seeds", "0", "0"]],
    ids=["set_seed", "repeat"],
)
def test_run_all_rejects_seeds_it_cannot_keep_apart(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        load_script("run_all").main([*SET_FLAGS, *flags, "--out-dir", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_all_rejects_an_out_dir_it_would_not_write_to(tmp_path, capsys):
    # the reports go to --out-dir; a config's out_dir would only be recorded
    flags = ["--set", f"out_dir={tmp_path / 'x'}", "--families", "reid_closed"]
    with pytest.raises(SystemExit) as exit_info:
        load_script("run_all").main([*SET_FLAGS, *flags, "--out-dir", str(tmp_path / "y")])
    assert exit_info.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_run_all_rejects_a_config_file_that_sets_out_dir(tmp_path, capsys):
    # as with --set out_dir=..., the file's out_dir would be recorded but not used
    config = tmp_path / "c.cfg"
    config.write_text(f"users = 6\nout_dir = {tmp_path / 'x'}\n", encoding="utf-8")
    flags = ["--config", str(config), "--families", "reid_closed"]
    with pytest.raises(SystemExit) as exit_info:
        load_script("run_all").main([*SET_FLAGS, *flags, "--out-dir", str(tmp_path / "y")])
    assert exit_info.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()
