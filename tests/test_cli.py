"""End-to-end command line checks on a miniature configuration: each
subcommand writes its documented artifacts, and config errors exit with
status 2 (operational errors with 1)."""

import argparse
import json
import re
from pathlib import Path

import pytest

from fedanon import experiments
from fedanon.cli import build_parser, main
from fedanon.deltastore import read_records
from fedanon.reporting import report_from_json

TINY = [
    "--users", "6",
    "--classes", "5",
    "--feature-dim", "12",
    "--n-per-user", "60",
    "--background-size", "200",
    "--prior-fraction", "0.3",
    "--hidden-dim", "8",
    "--rounds", "4",
    "--epoch-ranges", "2",
    "--batch-size", "8",
    "--eta", "0.5",
]


def test_federate_writes_delta_log(tmp_path):
    out = tmp_path / "fed"
    assert main(["federate", *TINY, "--out-dir", str(out)]) == 0
    manifest, records = read_records(out)
    assert manifest.rounds == 4
    assert len(records) == 4 * 12  # all devices sampled each round
    utility = (out / "utility.csv").read_bytes()
    assert utility.startswith(b"round,task_score\r\n")
    assert utility.count(b"\r\n") == 5  # header + one row per round


def test_attack_writes_report(tmp_path):
    out = tmp_path / "atk"
    rc = main(
        [
            "attack", *TINY,
            "--attack-methods", "chance,knn",
            "--family", "reid_closed",
            "--format", "json",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = report_from_json((out / "report_reid_closed.json").read_text(encoding="utf-8"))
    assert report.experiment == "reid_closed"
    assert [r[0] for r in report.table("reid").rows] == ["chance", "knn"]
    assert report.config["users"] == "6"


def test_attack_csv_format(tmp_path):
    out = tmp_path / "atk_csv"
    rc = main(
        [
            "attack", *TINY,
            "--attack-methods", "chance",
            "--family", "reid_closed",
            "--format", "csv",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    assert (out / "reid_closed_reid.csv").exists()
    assert (out / "reid_closed_utility.csv").exists()
    assert not (out / "report_reid_closed.json").exists()


def test_attack_runs_the_mitigation_family(tmp_path):
    out = tmp_path / "mit"
    rc = main(
        [
            "attack", *TINY,
            "--family", "mitigation",
            "--noise-grid", "0.1",
            "--repl-grid", "0.5",
            "--aug-grid", "0.5",
            "--clusters-m", "4",
            "--format", "json",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = report_from_json((out / "report_mitigation.json").read_text(encoding="utf-8"))
    tradeoff = report.table("tradeoff")
    assert [r[0] for r in tradeoff.rows] == ["noise", "noise", "bkg_repl", "rand_aug", "mm_aug"]
    assert tradeoff.rows[0][6] == 1.0  # anchor utility


def test_report_reemits_csv(tmp_path):
    out = tmp_path / "atk"
    main(
        [
            "attack", *TINY,
            "--attack-methods", "chance",
            "--family", "reid_closed",
            "--format", "json",
            "--out-dir", str(out),
        ]
    )
    rc = main(
        [
            "report",
            "--report", str(out / "report_reid_closed.json"),
            "--format", "csv",
            "--out-dir", str(tmp_path / "reemit"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "reemit" / "reid_closed_reid.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("users = 8\nclasses = 5\nfeature_dim = 12\nn_per_user = 60\n"
                        "background_size = 200\nhidden_dim = 8\nrounds = 3\nepoch_ranges = 3\n"
                        "prior_fraction = 0.3\n", encoding="utf-8")
    out = tmp_path / "fed"
    assert main(["federate", "--config", str(cfg_file), "--users", "6", "--out-dir", str(out)]) == 0
    manifest, _ = read_records(out)
    assert len(manifest.devices) == 12  # the flag's 6 users beat the file's 8
    assert manifest.rounds == 3  # taken from the file


def test_config_error_exits_2(capsys):
    assert main(["federate", "--users", "1"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["attack", "--family", "reid_closed", "--attack-methods", "ouija"]) == 2


@pytest.mark.parametrize(
    "key, family, flags",
    [
        ("attack_layer", "reid_closed", ["--model-kind", "linear"]),
        ("epoch_ranges", "epoch_grid", ["--rounds", "4", "--epoch-ranges", "5"]),
        ("rounds", "matching_closed", ["--rounds", "1", "--epoch-ranges", "1"]),
        ("clusters_m", "mitigation", ["--background-size", "60", "--clusters-m", "61"]),
        ("beta", "reid_closed", ["--beta", "nan"]),
        ("aug_grid", "mitigation", ["--mitigation-strategies", "rand_aug", "--aug-grid", "inf"]),
        # some epoch range misses a shadow device; the whole run samples all
        ("client_fraction", "epoch_grid", ["--client-fraction", "0.25"]),
        # of the holdout and seen users at seen fraction 0, only one is sampled
        ("client_fraction", "open_world",
         ["--users", "6", "--rounds", "10", "--client-fraction", "0.1", "--seed", "3"]),
    ],
)
def test_config_the_family_cannot_run_exits_2_before_any_world(
    tmp_path, monkeypatch, capsys, key, family, flags
):
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    rc = main(["attack", "--family", family, *flags, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"config key '{key}'" in capsys.readouterr().err


# 8 devices at C = 0.1: one device trains per round, and the anonymous
# devices of users 0, 2 and 3 are drawn but never their shadow devices
SPARSE = ["--users", "4", "--rounds", "6", "--n-per-user", "40", "--background-size", "60",
          "--client-fraction", "0.1"]


def test_federate_writes_a_log_that_no_family_could_attack(tmp_path):
    out = tmp_path / "fed"
    assert main(["federate", *SPARSE, "--out-dir", str(out)]) == 0
    manifest, records = read_records(out)
    assert manifest.rounds == 6
    assert len(records) == 6  # one device per round
    assert (out / "utility.csv").exists()


def test_attack_on_that_log_exits_2_naming_the_users_before_any_world(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    rc = main(["attack", "--family", "reid_closed", *SPARSE, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config key 'client_fraction'" in err
    assert "the anonymous but never the shadow devices of users [0, 2, 3]" in err
    assert list(tmp_path.iterdir()) == []


# a photoset prior splits whole albums, so every user's pool must keep two;
# at this shape and seed the test holdout leaves user 1 a single album
PHOTOSET = ["--prior-kind", "photoset", "--users", "4", "--rounds", "3", "--n-per-user", "4",
            "--test-fraction", "0.5", "--background-size", "60", "--epoch-ranges", "2"]


@pytest.mark.parametrize("command", [["federate"], ["attack", "--family", "reid_closed"]],
                         ids=["federate", "attack"])
@pytest.mark.parametrize("flags", [["--albums-per-user", "2", "--seed", "1"],
                                   ["--albums-per-user", "1"]], ids=["holdout", "one_album"])
def test_a_photoset_prior_left_one_album_exits_2_before_any_world(
    tmp_path, monkeypatch, capsys, command, flags
):
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    rc = main([*command, *PHOTOSET, *flags, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "config key 'albums_per_user'" in capsys.readouterr().err


def test_operational_error_exits_1(tmp_path, capsys):
    rc = main(["report", "--report", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


REPORT = {
    "experiment": "reid_closed",
    "provenance": {"seed": 0, "version": "0.1.0", "config_hash": "0123456789abcdef"},
    "config": {"users": "6"},
    "tables": {"reid": {"columns": ["method", "ap"], "rows": [["chance", 0.5]]}},
}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param([], id="not_an_object"),
        pytest.param({**REPORT, "tables": []}, id="tables_a_list"),
        pytest.param({**REPORT, "tables": {"reid": {"columns": "ab", "rows": []}}},
                     id="columns_a_string"),
        pytest.param({**REPORT, "experiment": "../../evil"}, id="experiment_a_path"),
        pytest.param({**REPORT, "tables": {"reid": {"columns": ["method", "ap"],
                                                    "rows": [[{"a": 1}, [1, 2]]]}}},
                     id="cells_not_scalars"),
    ],
)
def test_report_rejects_a_malformed_report(tmp_path, capsys, doc):
    src = tmp_path / "report.json"
    src.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    out = tmp_path / "out" / "x" / "y"
    assert main(["report", "--report", str(src), "--format", "both", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p for p in tmp_path.rglob("*") if p != src] == []


def test_report_rejects_a_report_holding_a_nan_token(tmp_path, capsys):
    # the writer emits a NaN cell as null; the bare token NaN is not JSON
    doc = {**REPORT, "tables": {"reid": {"columns": ["method", "ap"], "rows": [["chance", None]]}}}
    src = tmp_path / "report.json"
    src.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--report", str(src), "--format", "csv", "--out-dir", str(out)]) == 0
    assert (out / "reid_closed_reid.csv").read_bytes() == b"method,ap\r\nchance,nan\r\n"
    src.write_text(json.dumps(doc, indent=2).replace("null", "NaN"), encoding="utf-8")
    bad = tmp_path / "bad"
    assert main(["report", "--report", str(src), "--format", "both", "--out-dir", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN is not JSON" in err and "Traceback" not in err
    assert not bad.exists()


def test_readme_cli_table_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `fedanon ([\w-]+)[^`]*` \|", readme, flags=re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == list(sub.choices) == ["federate", "attack", "report"]


def test_readme_needs_table_maps_each_family_to_its_need():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| family | what it needs of the logged deltas |\n| --- | --- |\n")[1]
    rows = [re.findall(r"`(\w+)`", line.split(" | ")[0]) for line in table.split("\n\n")[0].splitlines()]
    assert sorted(f for row in rows for f in row) == sorted(experiments.NEEDS) == sorted(
        experiments.EXPERIMENT_FAMILIES)
    # one row per need: the families of a row share it, and no two rows do
    needs = [{experiments.NEEDS[f] for f in row} for row in rows]
    assert all(len(n) == 1 for n in needs) and len(set().union(*needs)) == len(rows)


def test_readme_layout_lists_every_script():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (line,) = re.findall(r"^scripts/ +(.+)$", readme, flags=re.MULTILINE)
    scripts = sorted(p.name for p in (root / "scripts").iterdir() if p.is_file())
    assert sorted(line.split(", ")) == scripts


def test_unknown_family_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["attack", "--family", "astrology"])
    assert "invalid choice" in capsys.readouterr().err


def test_attack_report_json_is_valid_json(tmp_path):
    out = tmp_path / "atk"
    main(
        [
            "attack", *TINY,
            "--attack-methods", "chance",
            "--family", "reid_closed",
            "--format", "json",
            "--out-dir", str(out),
        ]
    )
    doc = json.loads((out / "report_reid_closed.json").read_text(encoding="utf-8"))
    assert doc["experiment"] == "reid_closed"
    assert "provenance" in doc
