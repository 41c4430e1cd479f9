"""Experiment driver: every family produces its documented table schema
from one config object, identical configs reproduce identical reports,
sharing one config's stages across families changes no report byte, and
each stage runs the fewest times the families need."""

import collections
import dataclasses
import hashlib
import math
import re
import sys
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedanon import __version__, attacks, experiments, mitigation, nn
from fedanon.attacks import MlpReid, SiameseMatcher, SvmReid, reid_scores, train_reid
from fedanon.config import ConfigError, ExperimentConfig, build_config, config_hash, snapshot
from fedanon.experiments import (
    EXPERIMENT_FAMILIES,
    Stages,
    epoch_ranges,
    run_experiment,
    world_config_from,
)
from fedanon.federated import ROLE_ANONYMOUS, ROLE_SHADOW
from fedanon.reporting import report_to_json, table_to_csv
from fedanon.seeding import seed_from
from fedanon.world import gen_world, make_iid_control

FAST = ExperimentConfig(
    users=6,
    classes=5,
    feature_dim=12,
    n_per_user=60,
    beta=0.1,
    sigma_x=0.5,
    albums_per_user=3,
    background_size=200,
    prior_fraction=0.3,
    hidden_dim=8,
    rounds=10,
    client_fraction=1.0,
    batch_size=8,
    eta=0.5,
    seen_fractions=(0.0, 0.5),
    prior_grid=(1, 4),
    train_grid=(1, 4),
    epoch_ranges=2,
    dataspace_set_sizes=(1, 4),
    noise_grid=(0.1,),
    repl_grid=(0.5,),
    aug_grid=(0.5,),
    clusters_m=4,
    seed=0,
)


# a cap of 16 shadow rows, 64 prior examples and one epoch range keep every
# row of the default attack dataset (10 rounds, 14 prior examples a user)
ONE_FIT = dataclasses.replace(FAST, train_grid=(4, 16), prior_grid=(4, 64), epoch_ranges=1)


@pytest.fixture(scope="module")
def reports():
    return {family: run_experiment(FAST, family) for family in EXPERIMENT_FAMILIES}


def test_epoch_ranges_partition():
    assert epoch_ranges(50, 5) == [(1, 11), (11, 21), (21, 31), (31, 41), (41, 51)]
    ranges = epoch_ranges(10, 3)
    assert ranges[0][0] == 1 and ranges[-1][1] == 11
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo  # contiguous, half-open
    assert epoch_ranges(4, 4) == [(1, 2), (2, 3), (3, 4), (4, 5)]
    with pytest.raises(ValueError):
        epoch_ranges(10, 0)
    with pytest.raises(ValueError):
        epoch_ranges(10, 11)


def test_run_experiment_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown experiment family"):
        run_experiment(FAST, "astrology")


def test_report_provenance(reports):
    report = reports["reid_closed"]
    assert report.experiment == "reid_closed"
    assert report.seed == FAST.seed
    assert report.version == __version__
    assert report.config_hash == config_hash(FAST)
    assert report.config == snapshot(FAST)


def test_reid_closed_schema(reports):
    report = reports["reid_closed"]
    reid = report.table("reid")
    assert reid.columns == ["method", "ap", "chance_ap", "ioc", "top1", "top5", "skipped_labels"]
    assert [r[0] for r in reid.rows] == list(FAST.attack_methods)
    utility = report.table("utility")
    assert len(utility.rows) == FAST.rounds
    assert utility.rows[0][0] == 1 and utility.rows[-1][0] == FAST.rounds


def test_matching_closed_schema(reports):
    table = reports["matching_closed"].table("matching")
    assert table.columns == ["method", "ap", "chance_ap", "ioc", "n_pairs"]
    assert [r[0] for r in table.rows] == list(FAST.match_methods)
    assert all(r[4] == 2000 for r in table.rows)


def test_open_world_schema(reports):
    table = reports["open_world"].table("open_world")
    assert len(table.rows) == len(FAST.seen_fractions)
    by_fraction = {r[0]: r for r in table.rows}
    # 6 users: holdout 2, remaining 4 split by the seen fraction
    assert by_fraction[0.5][1:4] == [2, 2, 2]
    assert by_fraction[0.0][1:4] == [0, 4, 2]
    # with no seen users there is no reid task, only matching
    assert math.isnan(by_fraction[0.0][4])
    assert not math.isnan(by_fraction[0.0][7])


def test_prior_amount_schema(reports):
    table = reports["prior_amount"].table("prior_amount")
    assert [r[0] for r in table.rows] == list(FAST.prior_grid)
    assert all(r[2] > 0 for r in table.rows)


def test_train_amount_schema(reports):
    table = reports["train_amount"].table("train_amount")
    assert [r[0] for r in table.rows] == list(FAST.train_grid)
    # every user contributes exactly k shadow deltas after the cap
    assert [r[1] for r in table.rows] == [k * FAST.users for k in FAST.train_grid]


def test_layer_sweep_schema(reports):
    table = reports["layer_sweep"].table("layers")
    assert [r[0] for r in table.rows] == ["W1", "b1", "W2", "b2"]
    dims = {r[0]: r[1] for r in table.rows}
    assert dims["W1"] == FAST.hidden_dim * FAST.feature_dim
    assert dims["W2"] == FAST.classes * FAST.hidden_dim
    assert dims["b2"] == FAST.classes


def test_epoch_grid_schema(reports):
    table = reports["epoch_grid"].table("epoch_grid")
    assert len(table.rows) == FAST.epoch_ranges**2
    ranges = epoch_ranges(FAST.rounds, FAST.epoch_ranges)
    seen = {((r[0], r[1]), (r[2], r[3])) for r in table.rows}
    assert seen == {(tr, ev) for tr in ranges for ev in ranges}


def test_iid_control_schema(reports):
    table = reports["iid_control"].table("iid_control")
    assert [r[0] for r in table.rows] == ["biased", "iid"]
    assert all(r[3] > 0 for r in table.rows)


def test_dataspace_schema(reports):
    table = reports["dataspace"].table("dataspace")
    assert table.rows[0][0] == "delta"
    assert [r[0] for r in table.rows[1:]] == ["data_single", "data_set"]
    assert [r[1] for r in table.rows[1:]] == list(FAST.dataspace_set_sizes)


def test_bias_profile_schema(reports):
    report = reports["bias_profile"]
    consistency = report.table("consistency")
    assert len(consistency.rows) == FAST.users
    assert all(-1.0 <= r[1] <= 1.0 for r in consistency.rows)
    distances = report.table("distances")
    assert len(distances.rows) == FAST.users
    profiles = report.table("profiles")
    assert len(profiles.rows) == 2 * FAST.users
    assert profiles.columns[2:] == [f"class_{c}" for c in range(FAST.classes)]


def test_mitigation_schema(reports):
    table = reports["mitigation"].table("tradeoff")
    # anchor + one point per strategy grid entry
    assert len(table.rows) == 5
    anchor = table.rows[0]
    assert (anchor[0], anchor[1]) == ("noise", 0.0)
    assert anchor[6] == 1.0
    strategies = [r[0] for r in table.rows]
    assert strategies == ["noise", "noise", "bkg_repl", "rand_aug", "mm_aug"]


@pytest.mark.parametrize("family", ["reid_closed", "dataspace"])
def test_reports_are_reproducible(family):
    a = run_experiment(FAST, family)
    b = run_experiment(FAST, family)
    assert report_to_json(a) == report_to_json(b)


@pytest.mark.parametrize("order", ["registry", "reverse"])
def test_shared_stages_give_the_fresh_report_bytes(reports, order):
    families = EXPERIMENT_FAMILIES if order == "registry" else EXPERIMENT_FAMILIES[::-1]
    stages = Stages(FAST)
    for family in families:
        shared = run_experiment(FAST, family, stages)
        assert report_to_json(shared) == report_to_json(reports[family]), family


def test_run_experiment_rejects_stages_of_another_config():
    stages = Stages(FAST)
    other = dataclasses.replace(FAST, seed=1)
    with pytest.raises(ValueError, match="another config"):
        run_experiment(other, "reid_closed", stages)
    assert "world" not in vars(stages)  # rejected before any stage was built


def count_calls(monkeypatch, call_log) -> Callable[[], dict[str, int]]:
    """Record every call of the five stage functions a family can repeat,
    wherever the families reach them, in this process or a forked child;
    returns a function that counts the calls so far."""
    names = ("gen_world", "run_federated", "build_attack_dataset", "nn.train", "MlpReid.fit")

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            call_log.record(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiments, "gen_world", counted("gen_world", experiments.gen_world))
    for module in (experiments, mitigation):
        for name in ("run_federated", "build_attack_dataset"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(nn, "train", counted("nn.train", nn.train))
    fit = counted("MlpReid.fit", MlpReid.fit)
    monkeypatch.setattr(MlpReid, "fit", staticmethod(fit))

    def counts() -> dict[str, int]:
        seen = collections.Counter(fields[0] for fields in call_log.lines())
        return {name: seen[name] for name in names}

    return counts


def test_stages_build_each_stage_once(monkeypatch, call_log):
    counts = count_calls(monkeypatch, call_log)
    stages = Stages(FAST)
    assert stages.world is stages.world
    assert stages.run is stages.run
    assert len(stages.run.utility) == FAST.rounds
    assert stages.attack_set is stages.attack_set
    assert stages.reference_mlp is stages.reference_mlp
    assert counts()["MlpReid.fit"] == 1
    assert stages.reference_mlp.classes == stages.attack_set.users


# federations: the default run, the IID control, one per prior_grid entry
# that cuts and one per mitigated grid point
# attack datasets built from a delta log: the shared one 1, iid_control 1,
# layer_sweep 3, prior_amount 1 per cut, mitigation 4 (train_amount and
# epoch_grid select rows of the shared one, and mitigation's anchor attacks it)
# MLP fits: reference 1, iid_control 1, layer_sweep 3, train_amount and
# prior_amount 1 per cut, open_world 1, epoch_grid 1 per range that cuts,
# dataspace 1, mitigation 5 (its anchor is fit again in a forked child)
# A grid value that keeps every row (ONE_FIT's prior size 64, cap 16 and
# single epoch range) reads the shared stages and builds nothing.
@pytest.mark.parametrize("cfg, federations, datasets, fits", [
    pytest.param(FAST, 8, 11, 18, id="cut"),
    pytest.param(ONE_FIT, 7, 10, 14, id="whole"),
])
def test_all_families_on_one_stages_run_each_stage_the_fewest_times(
    monkeypatch, call_log, cfg, federations, datasets, fits
):
    counts = count_calls(monkeypatch, call_log)
    stages = Stages(cfg)
    for family in EXPERIMENT_FAMILIES:
        run_experiment(cfg, family, stages)
    assert counts() == {
        "gen_world": 1,
        "run_federated": federations,
        "build_attack_dataset": datasets,
        "nn.train": fits + federations * cfg.rounds,  # one call per fit and per round
        "MlpReid.fit": fits,
    }


def test_every_attack_fit_goes_through_train_reid_or_train_matcher(monkeypatch, call_log):
    # the one place where every attack fit can be timed or inspected
    doors = {attacks.train_reid.__code__, attacks.train_matcher.__code__}

    def watched(cls):
        fit = cls.fit

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in doors:
                frame = frame.f_back
            # (family, fitted class, the front door on the stack or "-")
            call_log.record(family, cls.__name__, frame.f_code.co_name if frame else "-")
            return fit(*args, **kwargs)

        return staticmethod(wrapper)

    for cls in (MlpReid, SvmReid, SiameseMatcher):
        monkeypatch.setattr(cls, "fit", watched(cls))
    stages = Stages(FAST)
    for family in EXPERIMENT_FAMILIES:
        run_experiment(FAST, family, stages)
    fits = call_log.lines()
    assert {name for _, name, _ in fits} == {"MlpReid", "SvmReid", "SiameseMatcher"}
    assert [(family, name) for family, name, door in fits if door == "-"] == []
    # the mitigation sweep fits in forked children: the anchor and its four
    # grid points, each through train_reid
    assert [(name, door) for family, name, door in fits if family == "mitigation"] == [
        ("MlpReid", "train_reid")
    ] * 5


# sha256 of the CSV of every table of every family at a nine-user config,
# with one mitigation point per strategy. The open-world, data-space,
# epoch-grid and train-amount digests were taken while those attacks still
# had fit and score functions of their own and re-filtered the delta log;
# the others were taken while devices still held copies of their rows and
# prediction ran a forward pass of its own. None of those changes moves a byte.
# The train-amount, prior-amount and mitigation digests were taken once the
# grid values that keep every row (caps 8 and 16 of 6 rounds, prior sizes 16
# and 64) quoted the reference fit, and every mitigation point was fit with
# its seed.
PINNED = {"users": "9", "rounds": "6", "n_per_user": "60", "background_size": "200"}
ONE_POINT_PER_STRATEGY = {"noise_grid": "1.0", "repl_grid": "0.5", "aug_grid": "1.0"}
TABLE_DIGESTS = {
    "reid_closed": {
        "reid": "a378785d27feb129d2e0181684136749bd035d37b16c651a5089a24d94ce34d3",
        "utility": "ba404b43bcbfb167b92f6569b40107702b2e9e655294285352c60c8e7603b058",
    },
    "matching_closed": {
        "matching": "b86d4535b5bccbb555c88e1bb19ba5e654b46f75259a86da478edc4f7b90437c",
    },
    "iid_control": {
        "iid_control": "7f668db78b6b79f53f71b16c8018eade28b28ef3dc8ab4a7c8ca921909ffb854",
    },
    "bias_profile": {
        "consistency": "218ae758dcadca11bfa6a76b5a303cbef8bae4de05e6e63e32a5af0a50b4837c",
        "distances": "3a431505df8b81e70808b2fcfb3376967cdc539769914985db4a9f88a9ddaeaf",
        "profiles": "3b3320f13e07d8a2d59e6a6ffa21101d7874c1a58822002c377ed7c6cd8c0e16",
    },
    "layer_sweep": {
        "layers": "e466117119b9aaad6f2f7435a549d7072ee20c3a782039a4eebee3adea06ff92",
    },
    "train_amount": {
        "train_amount": "bcb38bf89673bcc7fb04050d4702ea08c819481029be49cc8eec9a164350a018",
    },
    "open_world": {
        "open_world": "ea84ef07a5a072c5d6cfbffa7724e95dc745c04e0d6e19af8032633c668ecc46",
    },
    "epoch_grid": {
        "epoch_grid": "67ea40a463ec4475e8185288f70178f996fa5eecf9dd2327d3688f6287e05364",
    },
    "dataspace": {
        "dataspace": "ed4d799e86b946c5ad81d164e9b642987ebbc30dcec8a8d04cd8f4d13598688e",
    },
    "prior_amount": {
        "prior_amount": "d0f723b72a071106d809d1a9e958409536579e25b35732746a5fd0914c575e66",
    },
    "mitigation": {
        "tradeoff": "5b311df82c65f60b9202b3024171fb66732c99f9c3e3f278aa236380f84e461d",
    },
}


@pytest.fixture(scope="module")
def pinned_stages():
    return Stages(build_config(overrides=PINNED))


def test_every_family_has_pinned_tables():
    assert set(TABLE_DIGESTS) == set(EXPERIMENT_FAMILIES)


@pytest.mark.parametrize("family", TABLE_DIGESTS)
def test_family_table_keeps_its_pinned_bytes(family, pinned_stages):
    if family == "mitigation":
        report = run_experiment(build_config(overrides={**PINNED, **ONE_POINT_PER_STRATEGY}), family)
    else:
        report = run_experiment(pinned_stages.cfg, family, pinned_stages)
    digests = {t.name: hashlib.sha256(table_to_csv(t).encode()).hexdigest() for t in report.tables}
    assert digests == TABLE_DIGESTS[family]


def test_mitigation_grid_is_strategies_order_without_zero_entries():
    # the strategies run in STRATEGIES order whatever order the config lists
    # them in, and a zero grid entry adds no row: the anchor is the one row
    # at 0.0
    def tradeoff_csv(strategies, repl_grid, aug_grid):
        cfg = build_config(overrides={**PINNED, "mitigation_strategies": strategies,
                                      "noise_grid": "1.0", "repl_grid": repl_grid,
                                      "aug_grid": aug_grid})
        return table_to_csv(run_experiment(cfg, "mitigation").table("tradeoff"))

    shuffled = tradeoff_csv("mm_aug,bkg_repl,noise", "0,0.5", "0,1.0")
    assert shuffled == tradeoff_csv("noise,bkg_repl,mm_aug", "0.5", "1.0")
    values = [row.split(",")[1] for row in shuffled.splitlines()[1:]]
    assert [float(v) for v in values].count(0.0) == 1


def test_mitigation_sweep_without_grid_points_writes_the_anchor_row_alone():
    stages = Stages(build_config(overrides={**PINNED, "mitigation_strategies": "noise",
                                            "noise_grid": ""}))
    table = run_experiment(stages.cfg, "mitigation", stages).table("tradeoff")
    scores = reid_scores(stages.reference_mlp, stages.attack_set)
    assert table.rows == [["noise", 0.0, *scores, float(stages.run.utility[-1]), 1.0]]


# 48 shadow rows, so the attack MLP trains on 32-row batches, whose forward
# product OpenBLAS splits between its threads when it is not pinned
THREADED = {"users": "6", "rounds": "8", "n_per_user": "60", "background_size": "200"}


def test_report_bytes_do_not_depend_on_the_blas_pin(monkeypatch, openblas):
    cfg = build_config(overrides=THREADED)
    seen = []
    fit = MlpReid.fit
    monkeypatch.setattr(MlpReid, "fit",
                        staticmethod(lambda *a, **k: seen.append(openblas.get()) or fit(*a, **k)))
    pinned = report_to_json(run_experiment(cfg, "reid_closed"))
    assert seen == [1]
    monkeypatch.setattr(experiments, "pin", lambda: None)
    openblas.set(2)
    unpinned = report_to_json(run_experiment(cfg, "reid_closed"))
    assert seen == [1, 2]
    assert pinned == unpinned


def test_epoch_grid_fits_one_model_per_train_range(monkeypatch, call_log):
    stages = Stages(FAST)
    stages.attack_set
    counts = count_calls(monkeypatch, call_log)
    table = run_experiment(FAST, "epoch_grid", stages).table("epoch_grid")
    # each range selects its rounds' rows of the shared attack dataset: no
    # dataset is built, and one model is fit per range on its shadow rows
    assert counts()["build_attack_dataset"] == 0
    assert counts()["MlpReid.fit"] == FAST.epoch_ranges
    # every cell of a train row is scored by the one model fit with the
    # seed of the row's diagonal cell, on the anonymous rows of the cell's
    # eval range
    ranges = epoch_ranges(FAST.rounds, FAST.epoch_ranges)
    expected = []
    for lo, hi in ranges:
        diagonal = stages.attack_set.in_rounds(lo, hi)
        assert set(diagonal.train_rounds.tolist()) == set(range(lo, hi))
        model = train_reid(diagonal, "mlp", seed_from(FAST.seed, "grid", lo, lo))
        for ev in ranges:
            expected.append([lo, hi, *ev, *reid_scores(model, stages.attack_set.in_rounds(*ev))])
    assert table.rows == expected


def test_dataspace_fits_one_model_for_every_set_size(monkeypatch, call_log):
    stages = Stages(FAST)
    stages.reference_mlp
    counts = count_calls(monkeypatch, call_log)
    table = run_experiment(FAST, "dataspace", stages).table("dataspace")
    assert [r[1] for r in table.rows[1:]] == list(FAST.dataspace_set_sizes)
    assert counts()["MlpReid.fit"] == 1


def test_families_quote_the_one_reference_mlp_fit(reports):
    def row(family, table, key):
        t = reports[family].table(table)
        return next(r for r in t.rows if r[0] == key)

    reid = row("reid_closed", "reid", "mlp")[1:4]
    assert row("dataspace", "dataspace", "delta")[2:] == reid
    assert row("layer_sweep", "layers", FAST.attack_layer)[2:] == reid
    assert row("iid_control", "iid_control", "biased")[1:] == reid


@pytest.mark.parametrize("layer", ["W1", "b1", "b2"])
def test_bias_profile_reads_the_output_weights_whatever_the_attack_layer(reports, layer):
    report = run_experiment(dataclasses.replace(FAST, attack_layer=layer), "bias_profile")
    assert report.tables == reports["bias_profile"].tables


def test_bias_profile_names_before_any_world_every_device_that_logs_no_delta():
    # at this sampling rate some users' devices are never drawn; the replay
    # must name exactly the devices the real run logs no delta for
    cfg = dataclasses.replace(FAST, client_fraction=0.25)
    run = Stages(cfg).run
    logged = {(r.user_id, r.role) for r in run.records}
    missing = {(u, role) for u in range(cfg.users) for role in (ROLE_SHADOW, ROLE_ANONYMOUS)
               if (u, role) not in logged}
    assert (1, ROLE_ANONYMOUS) in missing
    stages = Stages(cfg)
    with pytest.raises(ConfigError, match="'client_fraction': bias_profile needs a delta from "
                                          "every device") as err:
        run_experiment(cfg, "bias_profile", stages)
    assert "world" not in vars(stages)
    named = re.findall(r"user (\d+) \((\w+)\)", str(err.value))
    assert {(int(u), role) for u, role in named} == missing
    assert len(named) == len(missing)


CLOSED_WORLD = [family for family, need in experiments.NEEDS.items()
                if need is experiments._closed_world_gap]


@pytest.mark.parametrize(
    "overrides, message",
    [
        # 8 devices at C = 0.1: one device trains per round
        pytest.param({"users": "4", "rounds": "6", "n_per_user": "40", "client_fraction": "0.1"},
                     r"samples the anonymous but never the shadow devices of users \[0, 2, 3\]",
                     id="shadow_unsampled"),
        pytest.param({"users": "4", "rounds": "6", "n_per_user": "40", "client_fraction": "0.1",
                      "seed": "7"}, "samples no anonymous device", id="anonymous_unsampled"),
        # 4 devices at C = 0.25: both rounds sample only user 0's devices
        pytest.param({"users": "2", "rounds": "2", "epoch_ranges": "2", "n_per_user": "40",
                      "background_size": "60", "client_fraction": "0.25", "seed": "1"},
                     r"deltas of 2 users to tell apart; the server samples the anonymous devices "
                     r"of users \[0\] only", id="one_user"),
    ],
)
def test_client_fraction_must_give_every_scored_user_a_shadow_delta(
    monkeypatch, overrides, message
):
    assert CLOSED_WORLD == ["reid_closed", "iid_control", "layer_sweep", "train_amount",
                            "dataspace", "prior_amount", "mitigation"]
    cfg = build_config(overrides=overrides)  # `federate` can run it
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    for family in CLOSED_WORLD:
        with pytest.raises(ConfigError, match=f"'client_fraction': {family} needs .*{message}"):
            run_experiment(cfg, family)
        experiments._check_needs(dataclasses.replace(cfg, client_fraction=1.0), family)


def test_matching_needs_two_users_a_side_one_on_both_and_a_shadow_pair_for_siamese():
    def sampled(shadow, anonymous):
        return {ROLE_SHADOW: [set(shadow), {shadow[0]}], ROLE_ANONYMOUS: [set(anonymous), set()]}

    gap = experiments._matching_gap
    assert gap(FAST, sampled([0, 1], [1, 2])) == ""
    assert "one user on both" in gap(FAST, sampled([0, 1], [2, 3]))
    assert "2 users on each side" in gap(FAST, sampled([0, 1], [1]))
    assert "2 users on each side" in gap(FAST, sampled([0], [0, 1]))
    one_each = {ROLE_SHADOW: [{0, 1}], ROLE_ANONYMOUS: [{0, 1}]}
    assert "2 shadow deltas of one device; the users log {0: 1, 1: 1}" in gap(FAST, one_each)
    no_siamese = dataclasses.replace(FAST, match_methods=("chance", "mlp_product"))
    assert gap(no_siamese, one_each) == ""


@pytest.mark.parametrize(
    "cfg, family, message",
    [
        pytest.param(dataclasses.replace(FAST, client_fraction=0.25), "epoch_grid",
                     r"rounds \[1, 6\) sample no delta of user 0 \(shadow_prior\)", id="fast_grid"),
        pytest.param(dataclasses.replace(FAST, client_fraction=0.25), "bias_profile",
                     r"rounds \[1, 11\) sample no delta of user 1 \(anonymous\)",
                     id="fast_bias"),
        # round 1 draws both shadow devices and no anonymous one
        pytest.param(ExperimentConfig(users=2, rounds=3, epoch_ranges=2, client_fraction=0.5),
                     "epoch_grid", r"rounds \[1, 2\) sample no delta of any anonymous device",
                     id="range_without_anonymous"),
        # 4 devices over 2 rounds: only user 0's two devices are drawn
        pytest.param(ExperimentConfig(users=2, rounds=2, epoch_ranges=2, n_per_user=40,
                                      background_size=60, client_fraction=0.25, seed=1),
                     "matching_closed", r"one user on both, and 2 shadow deltas of one device; "
                     r"the users log \{0: 1\} shadow and \{0: 1\} anonymous deltas",
                     id="matching_one_user"),
    ],
)
def test_a_family_rejects_a_client_fraction_that_leaves_it_a_device_unsampled(
    monkeypatch, cfg, family, message
):
    cfg = build_config(overrides=snapshot(cfg))
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    with pytest.raises(ConfigError, match=f"config key 'client_fraction': {family} needs .*{message}"):
        run_experiment(cfg, family)


def open_world_outcomes(cfg):
    """The error of the pre-world check and of the family itself (run on
    its own, past the check), each None when it passes."""
    outcomes = []
    for run in (lambda cfg: experiments._check_needs(cfg, "open_world"),
                lambda cfg: experiments.FAMILIES["open_world"](Stages(cfg))):
        try:
            run(cfg)
            outcomes.append(None)
        except ValueError as err:  # ConfigError is a ValueError
            outcomes.append(err)
    return outcomes


def test_open_world_check_raises_exactly_where_the_family_fails():
    raised = ran = 0
    for fraction in (0.1, 0.25):
        for seed in range(10):
            cfg = build_config(overrides=snapshot(
                dataclasses.replace(FAST, client_fraction=fraction, seed=seed)))
            check, family = open_world_outcomes(cfg)
            assert (check is None) == (family is None), (fraction, seed, check, family)
            if check is not None:
                assert isinstance(check, ConfigError) and "'client_fraction'" in str(check)
            raised += check is not None
            ran += check is None
    assert raised >= 2 and ran >= 2  # seeds 3 and 5 at C = 0.1 fail; most others run


@pytest.mark.parametrize(
    "seed, message",
    [
        # only user 5 is sampled of the holdout and seen users
        (3, r"shadow deltas from 2 of the holdout and seen users \[5\], .* they log \[1\]"),
        # two users, one shadow delta each: no positive pair
        (5, r"shadow deltas from 2 of the .* and 2 from one of them; they log \[1, 1\]"),
    ],
)
def test_open_world_rejects_a_client_fraction_before_any_world(monkeypatch, seed, message):
    cfg = build_config(overrides=snapshot(
        dataclasses.replace(FAST, client_fraction=0.1, seed=seed)))
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    with pytest.raises(ConfigError, match=f"config key 'client_fraction': open_world needs at "
                                          f"seen fraction 0.0, {message}"):
        run_experiment(cfg, "open_world")


def test_open_world_needs_two_anonymous_users_one_with_two_deltas():
    everyone = set(range(FAST.users))
    three = [everyone] * 3  # every device of a role logs 3 deltas
    assert experiments._open_world_gap(FAST, {ROLE_SHADOW: three, ROLE_ANONYMOUS: three}) == ""
    once = [everyone, set(), set()]
    gap = experiments._open_world_gap(FAST, {ROLE_SHADOW: three, ROLE_ANONYMOUS: once})
    assert "anonymous deltas from 2 of the seen and unseen users" in gap
    two_users = [{0, 1}] * 3
    assert "shadow deltas from 3 users; 2 log any" in experiments._open_world_gap(
        FAST, {ROLE_SHADOW: two_users, ROLE_ANONYMOUS: two_users})


def test_open_world_with_a_one_user_holdout_needs_a_seen_user(monkeypatch):
    # 4 users: the holdout is round(4/3) = 1 user, so at seen fraction 0 the
    # siamese matcher would have a single user to train on
    small = {"users": "4", "rounds": "6", "n_per_user": "40", "background_size": "60",
             "epoch_ranges": "2"}
    cfg = build_config(overrides=small)
    monkeypatch.setattr(experiments, "gen_world", lambda cfg: pytest.fail("a world was built"))
    with pytest.raises(ConfigError, match="config key 'seen_fractions': open_world needs at "
                                          "seen fraction 0.0, shadow deltas from 2"):
        run_experiment(cfg, "open_world")
    monkeypatch.undo()
    runnable = build_config(overrides={**small, "seen_fractions": "0.5,1"})
    assert len(run_experiment(runnable, "open_world").table("open_world").rows) == 2


@pytest.mark.parametrize("fraction", ["0.25", "0.1"])
def test_reid_closed_runs_at_the_default_shape_below_full_participation(fraction):
    # 40 devices over 50 rounds: a given device goes unsampled with
    # probability (1 - C)^50, so the whole run's closed world holds
    cfg = build_config(overrides={"client_fraction": fraction})
    report = run_experiment(cfg, "reid_closed")
    assert [row[0] for row in report.tables[0].rows] == list(cfg.attack_methods)


def test_every_family_runs_at_an_accepted_client_fraction():
    cfg = build_config(overrides=snapshot(dataclasses.replace(FAST, client_fraction=0.5)))
    stages = Stages(cfg)
    assert len(stages.run.records) == cfg.rounds * cfg.users  # half of the 2U devices per round
    for family in EXPERIMENT_FAMILIES:
        assert run_experiment(cfg, family, stages).tables


# small grids, so that one family costs tens of milliseconds
SMALL = {"n_per_user": "40", "background_size": "60", "feature_dim": "8", "hidden_dim": "8",
         "classes": "4", "prior_grid": "1", "train_grid": "1,2", "dataspace_set_sizes": "1,2",
         "noise_grid": "0.1", "repl_grid": "0.5", "aug_grid": "0.5", "clusters_m": "2"}


@st.composite
def small_configs(draw):
    rounds = draw(st.integers(2, 6))
    return {
        "users": str(draw(st.integers(2, 6))),
        "rounds": str(rounds),
        "epoch_ranges": str(draw(st.integers(1, rounds))),
        "client_fraction": draw(st.sampled_from(["0.1", "0.25", "0.5", "1"])),
        "seen_fractions": draw(st.sampled_from(["0,0.5,1", "0.5,1", "0"])),
        "match_methods": draw(st.sampled_from(["chance,mlp_product,siamese", "chance,mlp_product"])),
        "seed": str(draw(st.integers(0, 99))),
    }


@settings(max_examples=22, derandomize=True, deadline=None)
# matching_closed once failed here after the world was built, and the
# closed-world families reported AP = chance AP = 1: the 4 devices at
# C = 0.25 log one shadow and one anonymous delta, both of user 0
@example({"users": "2", "rounds": "2", "epoch_ranges": "2", "client_fraction": "0.25", "seed": "1"})
@given(small_configs())
def test_each_family_runs_or_rejects_the_config_before_any_world(overrides):
    try:
        cfg = build_config(overrides={**SMALL, **overrides})
    except ConfigError:
        return
    for family in EXPERIMENT_FAMILIES:
        stages = Stages(cfg)
        try:
            report = run_experiment(cfg, family, stages)
        except ConfigError:
            assert "world" not in vars(stages), family
            continue
        assert report.tables and all(t.rows for t in report.tables), family
        if family in CLOSED_WORLD:  # a closed world of one user ranks perfectly by chance
            chance = [r[t.columns.index("chance_ap")] for t in report.tables for r in t.rows
                      if "chance_ap" in t.columns]
            assert chance and all(c < 1.0 for c in chance), (family, chance)


def test_stages_federate_accepts_prebuilt_bundle():
    stages = Stages(FAST)
    bundle = make_iid_control(gen_world(world_config_from(FAST)), seed=3)
    run = stages.federate(bundle)
    assert run is not stages.run
    assert len(run.utility) == FAST.rounds
    assert {r.user_id for r in run.records} == set(bundle.user_ids())


def test_stages_dataset_builds_the_dataset_of_the_run_it_is_given():
    stages = Stages(FAST)
    # a copy of the world is another bundle: federated again, to the same rows
    other = stages.dataset(stages.federate(dataclasses.replace(stages.world)))
    assert "run" not in vars(stages)  # comparing with a stage builds none
    assert other is not stages.attack_set and other.users == stages.attack_set.users
    for name in ("train_x", "train_users", "train_rounds", "test_x", "test_users", "test_rounds"):
        np.testing.assert_array_equal(getattr(other, name), getattr(stages.attack_set, name))
    for k in (1, 2):
        assert stages.attack_set.capped(k, seed=0).train_x.shape[0] == k * FAST.users


def test_stages_hand_back_their_own_stage_for_the_stage_they_built_from():
    stages = Stages(FAST)
    assert stages.federate(stages.world) is stages.run
    assert stages.dataset(stages.run) is stages.attack_set
    assert stages.dataset(stages.run, FAST.attack_layer) is stages.attack_set
    assert stages.fit(stages.attack_set, seed=12345) is stages.reference_mlp
    b2 = stages.dataset(stages.run, "b2")
    assert b2.train_x.shape[1] == FAST.classes
    assert stages.fit(b2, seed=1) is not stages.reference_mlp
    # a selection that keeps every row is the dataset itself
    assert stages.attack_set.in_rounds(1, FAST.rounds + 1) is stages.attack_set


def rows_digest(train_x, train_y, classes) -> str:
    """One name for the training set of an MLP fit."""
    digest = hashlib.sha256(np.ascontiguousarray(train_x).tobytes())
    digest.update(np.ascontiguousarray(train_y).tobytes())
    digest.update(repr(tuple(int(c) for c in classes)).encode())
    return digest.hexdigest()


def test_each_training_set_is_fit_once_with_one_seed(monkeypatch, call_log):
    family = None
    fit = MlpReid.fit

    def recorded(train_x, train_y, classes, seed):
        call_log.record(family, rows_digest(train_x, train_y, classes), seed)
        return fit(train_x, train_y, classes, seed)

    monkeypatch.setattr(MlpReid, "fit", staticmethod(recorded))
    stages = Stages(ONE_FIT)
    reports = {}
    for family in EXPERIMENT_FAMILIES:
        reports[family] = run_experiment(ONE_FIT, family, stages)
    ds = stages.attack_set
    reference = rows_digest(ds.train_x, ds.encode(ds.train_users, ds.users), ds.users)
    first, repeats = {}, []
    for name, rows, seed in call_log.lines():
        if rows not in first:
            first[rows] = (name, seed)
        # only the mitigation sweep fits a training set again: its anchor,
        # in a forked child, with the reference fit's seed
        elif (name, rows, seed) != ("mitigation", reference, first[rows][1]):
            same_seed = seed == first[rows][1]
            repeats.append(f"{name} fits {first[rows][0]}'s rows again, "
                           f"{'with the same' if same_seed else 'with another'} seed")
    assert repeats == []
    assert [name for name, rows, _ in call_log.lines() if rows == reference] == [
        "reid_closed", "mitigation"]

    # so every cell that attacks the default dataset with the MLP reads one number
    def row(family, key, width):
        """The scores of the first row of `family`'s first table keyed `key`."""
        return next(r for r in reports[family].tables[0].rows if r[0] == key)[width:]

    reid = row("reid_closed", "mlp", 1)[:3]
    assert row("prior_amount", 64, 1) == reid
    assert row("train_amount", 16, 2) == reid
    assert row("epoch_grid", 1, 4) == reid
    assert row("layer_sweep", ONE_FIT.attack_layer, 2) == reid
    assert row("iid_control", "biased", 1) == reid
    assert row("dataspace", "delta", 2) == reid
    assert row("mitigation", "noise", 2)[:3] == reid  # the anchor comes first
