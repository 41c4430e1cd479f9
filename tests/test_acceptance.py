"""Thirteen acceptance gates for the benchmark, run on the default
experiment configuration (20 users, 10 classes, concentration 0.1, random
prior). Each test prints one `criterion NN PASS/FAIL` line with the
measured numbers. Gates 01-03 and 13 test the code against oracles and
against itself. Gates 04-12 judge the paper's claims on the tables the
reports print: each runs its family through `run_experiment` on the
module's one `Stages` per seed, so no gate computes a number a second
time. Criteria whose statement fixes a seed count use exactly those
seeds; the rest are evaluated as means over seeds {0, 1, 2}."""

import time
from dataclasses import replace

import numpy as np
import pytest

from fedanon import nn
from fedanon.config import ExperimentConfig
from fedanon.deltastore import read_records, write_records
from fedanon.experiments import (
    Stages,
    model_spec_from,
    round_config_from,
    run_experiment,
    world_config_from,
)
from fedanon.federated import RoundConfig, build_devices, server_round
from fedanon.metrics import average_precision
from fedanon.reporting import report_to_json
from fedanon.seeding import seed_from
from fedanon.world import gen_world

from sequential_oracle import backward, flat, gradient_step
from test_metrics import ap_by_summation
from test_nn import hidden_far_from_kink, numeric_grad, random_batch, random_spec

SEEDS = (0, 1, 2)
# gate 11's grid: the anchor, every level of the default noise_grid, and
# mm_aug at full strength
NOISE_LEVELS = (1e-2, 1e-1, 1.0, 1e1, 1e2)
MITIGATION_GRID = [("noise", 0.0), *(("noise", v) for v in NOISE_LEVELS), ("mm_aug", 1.0)]


def default_cfg(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def spearman(xs, ys) -> float:
    def ranks(values):
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        r[order] = np.arange(1, v.size + 1)
        for u in np.unique(v):
            tie = v == u
            if tie.sum() > 1:
                r[tie] = r[tie].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx**2).sum() * (ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0


@pytest.fixture(scope="module")
def pipelines():
    """The stages of one default federated run per seed, with its build time."""
    out = {}
    for s in SEEDS:
        started = time.perf_counter()
        stages = Stages(default_cfg(s))
        stages.run  # build the world and the federation inside the timing
        out[s] = (stages, time.perf_counter() - started)
    return out


def tables(stages: Stages, family: str) -> dict[str, list[dict]]:
    """The tables `family`'s report prints at `stages`, each a list of rows
    keyed by column."""
    report = run_experiment(stages.cfg, family, stages)
    return {t.name: [dict(zip(t.columns, row)) for row in t.rows] for t in report.tables}


def per_seed(pipelines, family: str) -> list[dict[str, list[dict]]]:
    return [tables(pipelines[s][0], family) for s in SEEDS]


def keyed(rows: list[dict]) -> dict:
    """`rows` by the value of their first column."""
    return {next(iter(row.values())): row for row in rows}


def mean(values) -> float:
    return float(np.mean(list(values)))


# ---------------------------------------------------------------------------


def test_criterion_01_federation_equals_pooled_descent():
    """All devices, one local epoch, full batches: every round must equal a
    pooled data-weighted full-batch gradient step."""
    started = time.perf_counter()
    cfg = default_cfg(0)
    bundle = gen_world(world_config_from(cfg))
    spec = model_spec_from(cfg)
    fed = RoundConfig(
        fraction_c=1.0, local_epochs=1, batch_size=10_000, eta=cfg.eta, rounds=10, seed=0
    )
    devices = build_devices(bundle)
    rows = np.concatenate([d.rows for d in devices])
    x, y = bundle.x[rows], bundle.y[rows]
    fed_params = nn.init_params(spec, seed_from(fed.seed, "init"))
    central = fed_params
    worst = 0.0
    for round_t in range(1, fed.rounds + 1):
        fed_params, _ = server_round(spec, fed_params, bundle.x, bundle.y, devices, fed, round_t)
        central = gradient_step(central, backward(spec, central, (x, y)), fed.eta)
        worst = max(worst, float(np.abs(flat(fed_params) - flat(central)).max()))
    elapsed = time.perf_counter() - started
    verdict(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"max_abs_diff={worst:.2e} (<=1e-9) elapsed={elapsed:.1f}s (<10s)",
    )


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst, checked, kinds = 0.0, 0, set()
    while checked < 100:
        spec = random_spec(rng)
        params = nn.init_params(spec, seed=int(rng.integers(1 << 30)))
        batch = random_batch(rng, spec, n=int(rng.integers(1, 5)))
        if not hidden_far_from_kink(spec, params, batch[0]):
            continue
        analytic = flat(backward(spec, params, batch))
        numeric = numeric_grad(spec, params, batch)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, float(rel))
        kinds.add(spec.kind)
        checked += 1
    verdict(
        2,
        worst <= 1e-4 and len(kinds) == len(nn.KINDS),
        f"100 cases over {len(kinds)} model kinds, "
        f"worst_rel_err={worst:.2e} (<=1e-4)",
    )


def test_criterion_03_average_precision_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if not labels.any():
            labels[int(rng.integers(n))] = True
        got = average_precision(scores, labels)
        worst = max(worst, abs(got - ap_by_summation(scores.tolist(), labels.tolist())))
    hand = average_precision(np.array([0.9, 0.8, 0.7]), np.array([True, False, True]))
    hand_err = abs(hand - 5.0 / 6.0)
    verdict(
        3,
        worst <= 1e-9 and hand_err <= 1e-9,
        f"1000 cases worst_err={worst:.1e}, hand_case_err={hand_err:.1e} (<=1e-9)",
    )


def test_criterion_04_reidentification_beats_chance(pipelines):
    started = time.perf_counter()
    reid = [keyed(t["reid"]) for t in per_seed(pipelines, "reid_closed")]
    build = sum(seconds for _, seconds in pipelines.values())
    elapsed = build + (time.perf_counter() - started)
    chance = mean(r["knn"]["chance_ap"] for r in reid)
    mlp, knn = mean(r["mlp"]["ap"] for r in reid), mean(r["knn"]["ap"] for r in reid)
    verdict(
        4,
        mlp >= 5 * chance and knn >= 3 * chance and elapsed < 300.0,
        f"mlp_ap={mlp:.3f} (>= {5 * chance:.3f}) knn_ap={knn:.3f} "
        f"(>= {3 * chance:.3f}) elapsed={elapsed:.0f}s (<300s)",
    )


def test_criterion_05_iid_control_kills_the_signal(pipelines):
    iocs = [keyed(t["iid_control"])["iid"]["ioc"] for t in per_seed(pipelines, "iid_control")]
    verdict(
        5,
        all(v <= 2.0 for v in iocs),
        "iid_ioc_per_seed=" + "/".join(f"{v:.2f}" for v in iocs) + " (each <=2.0)",
    )


def test_criterion_06_matching_attacks(pipelines):
    matching = [keyed(t["matching"]) for t in per_seed(pipelines, "matching_closed")]
    chance, product, siamese = (
        mean(m[method]["ap"] for m in matching) for method in ("chance", "mlp_product", "siamese")
    )
    verdict(
        6,
        product >= 0.75 and siamese >= 0.75 and abs(chance - 0.5) <= 0.05,
        f"mlp_product_ap={product:.3f} siamese_ap={siamese:.3f} (both >=0.75) "
        f"chance_ap={chance:.3f} (0.5 +/- 0.05)",
    )


def test_criterion_07_shadow_delta_budget_trend(pipelines):
    single_ok, rhos, singles, chances = [], [], [], []
    for t in per_seed(pipelines, "train_amount"):
        rows = t["train_amount"]
        single = keyed(rows)[1]
        singles.append(single["ap"])
        chances.append(single["chance_ap"])
        single_ok.append(single["ap"] > single["chance_ap"])
        rhos.append(spearman([r["deltas_per_user"] for r in rows], [r["ap"] for r in rows]))
    verdict(
        7,
        all(single_ok) and all(r >= 0.8 for r in rhos),
        "single_delta_ap=" + "/".join(f"{v:.2f}" for v in singles)
        + " (each > chance_ap " + "/".join(f"{v:.2f}" for v in chances)
        + "), spearman=" + "/".join(f"{r:.2f}" for r in rhos)
        + " (each >=0.8)",
    )


def test_criterion_08_open_world(pipelines):
    worlds = [keyed(t["open_world"]) for t in per_seed(pipelines, "open_world")]
    for w in worlds:
        assert {0.0, 0.5} <= w.keys(), f"open_world has seen fractions {sorted(w)}"
    half = mean(w[0.5]["reid_ioc"] for w in worlds)
    zero = mean(w[0.0]["match_ap"] for w in worlds)
    verdict(
        8,
        half >= 3.0 and zero >= 1.3 * 0.5,
        f"seen50_reid_ioc={half:.2f} (>=3.0) unseen_match_ap={zero:.3f} (>=0.65)",
    )


def test_criterion_09_every_layer_leaks(pipelines):
    layers = tables(pipelines[0][0], "layer_sweep")["layers"]
    iocs = {row["layer"]: row["ioc"] for row in layers}
    verdict(
        9,
        min(iocs.values()) > 1.5,
        "layer_ioc " + " ".join(f"{k}={v:.1f}" for k, v in iocs.items()) + " (each >1.5)",
    )


def test_criterion_10_round_range_grid(pipelines):
    grid = tables(pipelines[0][0], "epoch_grid")["epoch_grid"]
    shape = "x".join(str(len({row[k] for row in grid})) for k in ("train_lo", "eval_lo"))
    worst = min(row["ioc"] for row in grid)
    verdict(10, worst > 2.0, f"{shape} grid worst_cell_ioc={worst:.2f} (>2.0)")


def mitigation_stages(stages: Stages) -> Stages:
    """Stages at gate 11's config for `stages`' seed. Only the mitigation
    keys differ from `stages.cfg`, so it shares the world and the default
    federation of `stages`."""
    cfg = replace(stages.cfg, mitigation_strategies=("noise", "mm_aug"), aug_grid=(1.0,))
    for config_from in (world_config_from, round_config_from, model_spec_from):
        assert config_from(cfg) == config_from(stages.cfg)
    shared = Stages(cfg)
    shared.world, shared.run = stages.world, stages.run
    return shared


def test_criterion_11_matched_augmentation_beats_noise(pipelines):
    """mm_aug at full strength must cut the attack's increase-over-chance by
    half at near-baseline utility, and beat every noise level that keeps
    utility >= 0.85, on a majority of seeds."""
    wins, details = [], []
    for s in SEEDS:
        points = tables(mitigation_stages(pipelines[s][0]), "mitigation")["tradeoff"]
        grid = [(p["strategy"], p["value"]) for p in points]
        assert grid == MITIGATION_GRID, f"tradeoff grid {grid}"
        base, mm, noise = points[0], points[-1], points[1:-1]
        cut = 1.0 - (mm["privacy_ioc"] - 1.0) / (base["privacy_ioc"] - 1.0)
        usable_noise = [p["attacker_ap"] for p in noise if p["utility"] >= 0.85]
        best_noise = min(usable_noise, default=float("nan"))
        beats_noise = (not usable_noise) or mm["attacker_ap"] < best_noise
        wins.append(cut >= 0.5 and mm["utility"] >= 0.85 and beats_noise)
        details.append(
            f"s{s}: cut={cut:.0%} util={mm['utility']:.2f} mm_ap={mm['attacker_ap']:.2f}"
            f" best_noise_ap={best_noise:.2f}"
        )
    verdict(11, sum(wins) >= 2, f"{sum(wins)}/3 seeds win ({'; '.join(details)})")


def test_criterion_12_bias_signal_sanity(pipelines):
    win_fracs, own_means, gaps = [], [], []
    for t in per_seed(pipelines, "bias_profile"):
        dist = t["distances"]
        win_fracs.append(sum(r["inter_median"] > r["intra_median"] for r in dist) / len(dist))
        own = mean(r["self_consistency"] for r in t["consistency"])
        # every user has the same number of cross pairs, so the mean of the
        # per-user means is the mean over all cross pairs
        cross = mean(r["mean_cross_consistency"] for r in t["consistency"])
        own_means.append(own)
        gaps.append(own - cross)
    own_mean, gap = mean(own_means), mean(gaps)
    verdict(
        12,
        all(f >= 0.8 for f in win_fracs) and own_mean >= 0.5 and gap >= 0.2,
        f"inter>intra for {min(win_fracs):.0%}+ of users (>=80%), "
        f"own_consistency={own_mean:.2f} (>=0.5), gap_over_cross={gap:.2f} (>=0.2)",
    )


def test_criterion_13_determinism_and_persistence(tmp_path):
    cfg = default_cfg(0)
    # two independently built worlds and federations
    runs = [Stages(cfg) for _ in range(2)]
    dirs = []
    for i, stages in enumerate(runs):
        out = tmp_path / f"log{i}"
        write_records(out, stages.run.records)
        dirs.append(out)
    logs_equal = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("manifest.json", "deltas.bin")
    )

    _, loaded = read_records(dirs[0])
    round_trip_exact = np.array_equal(
        loaded.deltas, runs[0].run.records.deltas.astype(np.float32).astype(np.float64)
    )

    fast = ExperimentConfig(attack_methods=("chance", "knn"), seed=0)
    reports_equal = report_to_json(run_experiment(fast, "reid_closed")) == report_to_json(
        run_experiment(fast, "reid_closed")
    )
    verdict(
        13,
        logs_equal and round_trip_exact and reports_equal,
        f"delta_log_bytes_identical={logs_equal} float32_round_trip_exact={round_trip_exact} "
        f"report_bytes_identical={reports_equal}",
    )
