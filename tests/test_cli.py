"""End-to-end command line checks on a miniature configuration: each
subcommand writes its documented artifacts, and config errors exit with
status 2 (operational errors with 1)."""

import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import fedanon
from fedanon import experiments
from fedanon.cli import build_parser, main
from fedanon.config import build_config, config_hash
from fedanon.deltastore import MAGIC, read_records
from fedanon.experiments import run_experiment
from fedanon.reporting import Report, report_from_json, report_to_json

TINY_KEYS = {
    "users": "6", "classes": "5", "feature_dim": "12", "n_per_user": "60",
    "background_size": "200", "prior_fraction": "0.3", "hidden_dim": "8", "rounds": "4",
    "epoch_ranges": "2", "batch_size": "8", "eta": "0.5", "dataspace_set_sizes": "1,4",
}


def flags_of(keys: dict[str, str]) -> list[str]:
    return [flag for key, value in keys.items() for flag in ("--" + key.replace("_", "-"), value)]


TINY = flags_of(TINY_KEYS)


def test_federate_writes_delta_log(tmp_path, monkeypatch):
    runs = []
    run_federated = experiments.run_federated
    monkeypatch.setattr(experiments, "run_federated",
                        lambda *a, **k: runs.append(run_federated(*a, **k)) or runs[-1])
    out = tmp_path / "fed"
    assert main(["federate", *TINY, "--out-dir", str(out)]) == 0
    manifest, records = read_records(out)
    assert manifest.rounds == 4
    assert len(records) == 4 * 12  # all devices sampled each round
    # the payload is the run's in-memory delta matrix, in float32
    (run,) = runs
    assert (out / "deltas.bin").read_bytes() == MAGIC + run.records.deltas.astype("<f4").tobytes()
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


def test_every_exported_name_resolves():
    assert all(hasattr(fedanon, name) for name in fedanon.__all__)
    namespace = {}
    exec("from fedanon import *", namespace)
    assert set(fedanon.__all__) <= set(namespace)


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


# ------------------------------------------------- several families and seeds

# one family that reads only the default run, one that federates a variant
# world next to it, and one that also attacks the raw world
FAMILIES = ("reid_closed", "iid_control", "dataspace")
TABLES = {"reid_closed": ("reid", "utility"), "iid_control": ("iid_control",),
          "dataspace": ("dataspace",)}


def report_files(family: str, suffix: str = "") -> set[str]:
    return {f"report_{family}{suffix}.json"} | {
        f"{family}{suffix}_{table}.csv" for table in TABLES[family]
    }


def fresh_json(family: str, seed: int = 0) -> str:
    return report_to_json(
        run_experiment(build_config(None, {**TINY_KEYS, "seed": str(seed)}), family))


def test_attack_runs_several_families_to_the_fresh_reports(tmp_path, capsys):
    out = tmp_path / "all"
    rc = main(["attack", *TINY, "--out-dir", str(out), "--family", *FAMILIES])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == set().union(*(report_files(f) for f in FAMILIES))
    for family in FAMILIES:
        assert (out / f"report_{family}.json").read_text(encoding="utf-8") == fresh_json(family)
    printed = capsys.readouterr().out
    assert all(f in printed for f in FAMILIES)


def test_several_families_federate_once_and_write_the_bytes_of_single_runs(
    tmp_path, monkeypatch
):
    calls = []
    run_federated = experiments.run_federated
    monkeypatch.setattr(experiments, "run_federated",
                        lambda *a, **k: calls.append(1) or run_federated(*a, **k))
    families = ["reid_closed", "matching_closed"]
    assert main(["attack", *TINY, "--family", *families, "--out-dir", str(tmp_path / "both")]) == 0
    assert len(calls) == 1
    for family in families:
        assert main(["attack", *TINY, "--family", family, "--out-dir", str(tmp_path / family)]) == 0
    assert len(calls) == 3
    singles = {p.name: p.read_bytes() for f in families for p in (tmp_path / f).iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "both").iterdir()} == singles


def test_family_all_runs_every_family_in_order(tmp_path, monkeypatch):
    ran = []

    def run_experiment(cfg, family, stages):
        ran.append(family)
        return Report(experiment=family, config={}, seed=0, version="0", config_hash="0")

    monkeypatch.setattr("fedanon.cli.run_experiment", run_experiment)
    assert main(["attack", "--family", "all", "--out-dir", str(tmp_path)]) == 0
    assert ran == list(experiments.EXPERIMENT_FAMILIES)
    ran.clear()
    assert main(["attack", "--family", "mitigation", "reid_closed", "reid_closed",
                 "--out-dir", str(tmp_path)]) == 0
    assert ran == ["reid_closed", "mitigation"]


def test_reports_do_not_depend_on_the_directory_they_are_written_to(tmp_path):
    for name in ("a", "b"):
        args = ["attack", *TINY, "--attack-methods", "chance,knn", "--family", "reid_closed"]
        assert main([*args, "--out-dir", str(tmp_path / name / "deeper")]) == 0
    written = sorted((tmp_path / "a" / "deeper").iterdir())
    assert [p.name for p in written] == sorted(p.name for p in (tmp_path / "b" / "deeper").iterdir())
    for p in written:
        assert p.read_bytes() == (tmp_path / "b" / "deeper" / p.name).read_bytes()
    report = report_from_json(
        (tmp_path / "a" / "deeper" / "report_reid_closed.json").read_text(encoding="utf-8"))
    assert "out_dir" not in report.config
    assert report.config_hash == config_hash(build_config(None, {
        **TINY_KEYS, "attack_methods": "chance,knn", "out_dir": str(tmp_path / "a")}))


@pytest.mark.parametrize("seeds", [[], ["0", "1"]], ids=["one_seed", "two_seeds"])
@pytest.mark.parametrize(
    "in_file, flag, expected",
    [(False, None, "runs"), (True, None, "from_file"), (True, "from_flag", "from_flag")],
    ids=["default", "file", "flag_over_file"],
)
def test_out_dir_is_the_flag_over_the_file_over_the_default(
    tmp_path, monkeypatch, in_file, flag, expected, seeds
):
    monkeypatch.chdir(tmp_path)
    args = ["attack", *TINY, "--attack-methods", "chance", "--family", "reid_closed"]
    if in_file:
        (tmp_path / "c.cfg").write_text("out_dir = from_file\n", encoding="utf-8")
        args += ["--config", "c.cfg"]
    if flag is not None:
        args += ["--out-dir", flag]
    if seeds:
        args += ["--seeds", *seeds]
    assert main(args) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [expected]
    files = sorted(str(p.relative_to(tmp_path / expected)) for p in (tmp_path / expected).rglob("*.json"))
    if seeds:
        assert files == ["report_reid_closed_seedmean.json", "seed0/report_reid_closed.json",
                         "seed1/report_reid_closed.json"]
    else:
        assert files == ["report_reid_closed.json"]


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--epoch-ranges", "51"], "'epoch_ranges'"),
        # every check passes until open_world's own, inside its run
        ([*TINY, "--users", "4", "--family", "open_world"], "'seen_fractions'"),
    ],
    ids=["validate", "family"],
)
def test_attack_all_rejects_a_bad_config(tmp_path, capsys, flags, key):
    rc = main(["attack", "--family", "all", *flags, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# passes every check, but the one background row holds no example of the
# profile class
PROFILE_GAP = {"users": "4", "rounds": "3", "n_per_user": "20", "background_size": "1",
               "clusters_m": "1", "epoch_ranges": "2", "prior_kind": "profile",
               "profile_class": "3", "seed": "1"}


def test_a_failing_family_is_reported_in_one_line(tmp_path, capsys):
    rc = main(["attack", *flags_of(PROFILE_GAP), "--family", "reid_closed",
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert main(["federate", *flags_of(PROFILE_GAP), "--out-dir", str(tmp_path / "y")]) == 1
    assert err == capsys.readouterr().err == "error: background holds no examples of class 3\n"


def test_entry_points_compute_at_one_blas_thread_and_leave_it_there(
    tmp_path, monkeypatch, capsys, openblas
):
    seen = []
    run_federated = experiments.run_federated
    monkeypatch.setattr(experiments, "run_federated",
                        lambda *a, **k: seen.append(openblas.get()) or run_federated(*a, **k))
    out = ["--out-dir", str(tmp_path / "x")]
    gap = flags_of(PROFILE_GAP)

    def after(result):
        """`result` and the count the call left; then 2 again, so that the
        next call's pin shows."""
        count = openblas.get()
        openblas.set(2)
        return result, count

    assert after(main(["federate", *TINY, *out])) == (0, 1)
    assert after(main(["attack", *TINY, "--family", "reid_closed", *out])) == (0, 1)
    # the world build fails after the pin, the config check before it
    assert after(main(["federate", *gap, *out])) == (1, 1)
    assert after(main(["attack", *gap, "--family", "reid_closed", *out])) == (1, 1)
    assert after(main(["attack", *TINY, "--family", "reid_closed", "--users", "1"])) == (2, 2)
    report = run_experiment(build_config(overrides=TINY_KEYS), "reid_closed")
    assert after(report.experiment) == ("reid_closed", 1)
    assert seen == [1, 1, 1]  # each federation ran at one thread


@pytest.fixture(scope="module")
def two_seeds(tmp_path_factory):
    """`attack --seeds 0 1` over two families: the output directory and
    what the command printed."""
    out = tmp_path_factory.mktemp("seeds") / "sweep"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = main(["attack", *TINY, "--seeds", "0", "1", "--family", *FAMILIES[:2],
                   "--out-dir", str(out)])
    assert rc == 0
    return out, printed.getvalue()


def test_attack_seeds_writes_per_seed_and_seedmean_reports(two_seeds):
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
    rc = main(["report", "--report", str(path), "--format", "json", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / path.name).read_text(encoding="utf-8") == text


def test_attack_seed_means_match_mitigation_rows_by_position(tmp_path):
    # the noise rows share their strategy; each grid value is a key, not a
    # mean: (0.1 + 0.1 + 0.1) / 3 would read 0.10000000000000002
    grids = ["--noise-grid", "0.1", "--repl-grid", "0.7", "--aug-grid", "0.1"]
    out = tmp_path / "sweep"
    rc = main(["attack", *TINY, *grids, "--seeds", "0", "1", "2", "--family", "mitigation",
               "--out-dir", str(out)])
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


def test_attack_seeds_0_writes_the_bytes_of_no_flag(tmp_path):
    for name, seeds in (("plain", []), ("seeds", ["--seeds", "0"])):
        args = ["attack", *TINY, *seeds, "--family", *FAMILIES, "--out-dir", str(tmp_path / name)]
        assert main(args) == 0
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "seeds").iterdir())
    for p in plain:
        assert p.read_bytes() == (tmp_path / "seeds" / p.name).read_bytes()


@pytest.mark.parametrize(
    "flags", [["--seeds", "0", "1", "--seed", "3"], ["--seeds", "0", "0"]],
    ids=["set_seed", "repeat"],
)
def test_attack_rejects_seeds_it_cannot_keep_apart(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["attack", "--family", "all", *TINY, *flags, "--out-dir", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
