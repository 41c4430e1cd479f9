"""Thirteen acceptance gates for the benchmark, run on the default
experiment configuration (20 users, 10 classes, concentration 0.1, random
prior). Each test prints one `criterion NN PASS/FAIL` line with the
measured numbers. Criteria whose statement fixes a seed count use exactly
those seeds; the rest are evaluated as means over seeds {0, 1, 2}."""

import time

import numpy as np
import pytest

from fedanon import nn
from fedanon.attacks import (
    SiameseMatcher,
    bias_consistency,
    evaluate_matching,
    evaluate_reid,
    evaluate_reid_openworld,
    open_world_split,
    train_matcher,
    train_reid,
    train_reid_openworld,
    user_bias_profiles,
)
from fedanon.config import ExperimentConfig
from fedanon.deltastore import manifest_for, read_records, write_records
from fedanon.experiments import (
    Stages,
    epoch_ranges,
    model_spec_from,
    repr_config_from,
    round_config_from,
    run_experiment,
    world_config_from,
)
from fedanon.federated import ROLE_ANONYMOUS, ROLE_SHADOW, RoundConfig, build_devices, server_round
from fedanon.metrics import average_precision
from fedanon.mitigation import MitigationConfig, tradeoff_curve
from fedanon.reporting import report_to_json
from fedanon.seeding import seed_from
from fedanon.world import gen_world, intra_inter_distances, make_iid_control

from test_metrics import ap_by_summation
from test_nn import hidden_far_from_kink, numeric_grad, random_batch, random_spec

SEEDS = (0, 1, 2)


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


@pytest.fixture(scope="module")
def attack_sets(pipelines):
    return {s: stages.dataset() for s, (stages, _) in pipelines.items()}


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
    x = np.concatenate([d.x for d in devices])
    y = np.concatenate([d.y for d in devices])
    fed_params = nn.init_params(spec, seed_from(fed.seed, "init"))
    central = fed_params.copy()
    worst = 0.0
    for round_t in range(1, fed.rounds + 1):
        fed_params, _ = server_round(spec, fed_params, devices, fed, round_t)
        central = central - nn.backward(spec, central, (x, y)).scale(fed.eta)
        worst = max(worst, float(np.abs(fed_params.flat() - central.flat()).max()))
    elapsed = time.perf_counter() - started
    verdict(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"max_abs_diff={worst:.2e} (<=1e-9) elapsed={elapsed:.1f}s (<10s)",
    )


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst, checked, combos = 0.0, 0, set()
    while checked < 100:
        spec = random_spec(rng)
        params = nn.init_params(spec, seed=int(rng.integers(1 << 30)))
        batch = random_batch(rng, spec, n=int(rng.integers(1, 5)))
        if not hidden_far_from_kink(spec, params, batch[0]):
            continue
        analytic = nn.backward(spec, params, batch).flat()
        numeric = numeric_grad(spec, params, batch)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, float(rel))
        combos.add((spec.kind, spec.bias))
        checked += 1
    verdict(
        2,
        worst <= 1e-4 and len(combos) == len(nn.KINDS) * 2,
        f"100 cases over {len(combos)} kind x bias combinations, "
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


def test_criterion_04_reidentification_beats_chance(pipelines, attack_sets):
    started = time.perf_counter()
    mlp_aps, knn_aps, chances = [], [], []
    for s in SEEDS:
        ds = attack_sets[s]
        for method, sink in (("mlp", mlp_aps), ("knn", knn_aps)):
            model = train_reid(ds, method, seed_from(s, "attack", method))
            ev = evaluate_reid(model, ds)
            sink.append(ev.mean_ap)
        chances.append(ev.chance_ap)
    build = sum(seconds for _, seconds in pipelines.values())
    elapsed = build + (time.perf_counter() - started)
    chance = float(np.mean(chances))
    mlp, knn = float(np.mean(mlp_aps)), float(np.mean(knn_aps))
    verdict(
        4,
        mlp >= 5 * chance and knn >= 3 * chance and elapsed < 300.0,
        f"mlp_ap={mlp:.3f} (>= {5 * chance:.3f}) knn_ap={knn:.3f} "
        f"(>= {3 * chance:.3f}) elapsed={elapsed:.0f}s (<300s)",
    )


def test_criterion_05_iid_control_kills_the_signal():
    iocs = []
    for s in SEEDS:
        stages = Stages(default_cfg(s))
        bundle = make_iid_control(stages.world, seed_from(s, "iid-control"))
        ds = stages.dataset(stages.federate(bundle))
        model = train_reid(ds, "mlp", seed_from(s, "iid-attack", "iid"))
        iocs.append(evaluate_reid(model, ds).ioc)
    verdict(
        5,
        all(v <= 2.0 for v in iocs),
        "iid_ioc_per_seed=" + "/".join(f"{v:.2f}" for v in iocs) + " (each <=2.0)",
    )


def test_criterion_06_matching_attacks(attack_sets):
    results = {"chance": [], "mlp_product": [], "siamese": []}
    for s in SEEDS:
        ds = attack_sets[s]
        shadow_rows = ds.rows_by_user("train")
        anon_rows = ds.rows_by_user("test")
        for method, sink in results.items():
            model = train_matcher(ds, method, seed_from(s, "match", method))
            ev = evaluate_matching(
                model, shadow_rows, anon_rows, seed=seed_from(s, "match-eval", method)
            )
            sink.append(ev.ap)
    chance = float(np.mean(results["chance"]))
    product = float(np.mean(results["mlp_product"]))
    siamese = float(np.mean(results["siamese"]))
    verdict(
        6,
        product >= 0.75 and siamese >= 0.75 and abs(chance - 0.5) <= 0.05,
        f"mlp_product_ap={product:.3f} siamese_ap={siamese:.3f} (both >=0.75) "
        f"chance_ap={chance:.3f} (0.5 +/- 0.05)",
    )


def test_criterion_07_shadow_delta_budget_trend(pipelines):
    grid = (1, 2, 4, 8, 16)
    single_ok, rhos, singles = [], [], []
    for s in SEEDS:
        stages, _ = pipelines[s]
        aps = []
        for k in grid:
            ds = stages.dataset(max_train_per_user=k, seed=seed_from(s, "train-amount", k))
            model = train_reid(ds, "mlp", seed_from(s, "train-attack", k))
            ev = evaluate_reid(model, ds)
            aps.append(ev.mean_ap)
        singles.append(aps[0])
        single_ok.append(aps[0] > ev.chance_ap)
        rhos.append(spearman(grid, aps))
    verdict(
        7,
        all(single_ok) and all(r >= 0.8 for r in rhos),
        "single_delta_ap=" + "/".join(f"{v:.2f}" for v in singles)
        + " (each > chance 0.05), spearman="
        + "/".join(f"{r:.2f}" for r in rhos)
        + " (each >=0.8)",
    )


def test_criterion_08_open_world(pipelines):
    half_iocs, zero_aps = [], []
    for s in SEEDS:
        stages, _ = pipelines[s]
        ds = stages.attack_set
        split = open_world_split(ds.users, 0.5, seed_from(s, "ow-split"))
        model = train_reid_openworld(ds, split, seed_from(s, "ow-reid", repr(0.5)))
        half_iocs.append(evaluate_reid_openworld(model, ds, split).ioc)

        split0 = open_world_split(ds.users, 0.0, seed_from(s, "ow-split"))
        known = set(split0.holdout) | set(split0.seen)
        matcher_rows = {u: r for u, r in ds.rows_by_user("train").items() if u in known}
        matcher = SiameseMatcher.fit(matcher_rows, seed_from(s, "ow-siamese", repr(0.0)))
        eval_users = set(split0.seen) | set(split0.unseen)
        anon = {u: r for u, r in ds.rows_by_user("test").items() if u in eval_users}
        ev = evaluate_matching(matcher, anon, anon, seed=seed_from(s, "ow-match", repr(0.0)))
        zero_aps.append(ev.ap)
    half = float(np.mean(half_iocs))
    zero = float(np.mean(zero_aps))
    verdict(
        8,
        half >= 3.0 and zero >= 1.3 * 0.5,
        f"seen50_reid_ioc={half:.2f} (>=3.0) unseen_match_ap={zero:.3f} (>=0.65)",
    )


def test_criterion_09_every_layer_leaks(pipelines):
    from fedanon.attacks import build_attack_dataset
    from fedanon.deltastore import ReprConfig

    cfg = default_cfg(0)
    stages, _ = pipelines[0]
    iocs = {}
    for layer, _shape in stages.spec.layout():
        ds = build_attack_dataset(
            stages.run.records, ReprConfig(layer_name=layer, normalize=cfg.normalize)
        )
        model = train_reid(ds, "mlp", seed_from(cfg.seed, "layer", layer))
        iocs[layer] = evaluate_reid(model, ds).ioc
    worst = min(iocs.values())
    verdict(
        9,
        worst > 1.5,
        "layer_ioc " + " ".join(f"{k}={v:.1f}" for k, v in iocs.items()) + " (each >1.5)",
    )


def test_criterion_10_round_range_grid(pipelines):
    cfg = default_cfg(0)
    stages, _ = pipelines[0]
    ranges = epoch_ranges(cfg.rounds, 5)
    worst = np.inf
    for train_range in ranges:
        for eval_range in ranges:
            ds = stages.dataset(train_epoch_range=train_range, test_epoch_range=eval_range)
            model = train_reid(ds, "mlp", seed_from(cfg.seed, "grid", train_range[0], eval_range[0]))
            worst = min(worst, evaluate_reid(model, ds).ioc)
    verdict(10, worst > 2.0, f"5x5 grid worst_cell_ioc={worst:.2f} (>2.0)")


def test_criterion_11_matched_augmentation_beats_noise():
    """mm_aug at full strength must cut the attack's increase-over-chance by
    half at near-baseline utility, and beat every noise level that keeps
    utility >= 0.85, on a majority of seeds."""
    wins, details = [], []
    for s in SEEDS:
        cfg = default_cfg(s)
        bundle = gen_world(world_config_from(cfg))
        grid = [MitigationConfig("noise", sigma2=0.0, seed=s)]
        grid += [MitigationConfig("noise", sigma2=v, seed=s) for v in cfg.noise_grid]
        grid += [MitigationConfig("mm_aug", alpha=1.0, clusters_m=cfg.clusters_m, seed=s)]
        points = tradeoff_curve(
            bundle,
            model_spec_from(cfg),
            round_config_from(cfg),
            repr_config_from(cfg),
            grid,
            attack_seed=seed_from(s, "tradeoff"),
        )
        base = points[0]
        mm = next(p for p in points if p.strategy == "mm_aug")
        noise = [p for p in points if p.strategy == "noise" and p.value > 0]
        cut = 1.0 - (mm.privacy_ioc - 1.0) / (base.privacy_ioc - 1.0)
        usable_noise = [p for p in noise if p.utility >= 0.85]
        beats_noise = (not usable_noise) or mm.attacker_ap < min(
            p.attacker_ap for p in usable_noise
        )
        wins.append(cut >= 0.5 and mm.utility >= 0.85 and beats_noise)
        best_noise = min((p.attacker_ap for p in usable_noise), default=float("nan"))
        details.append(
            f"s{s}: cut={cut:.0%} util={mm.utility:.2f} mm_ap={mm.attacker_ap:.2f}"
            f" best_noise_ap={best_noise:.2f}"
        )
    verdict(11, sum(wins) >= 2, f"{sum(wins)}/3 seeds win ({'; '.join(details)})")


def test_criterion_12_bias_signal_sanity(pipelines):
    win_fracs, own_means, gaps = [], [], []
    for s in SEEDS:
        stages, _ = pipelines[s]
        dist = intra_inter_distances(stages.world, seed=seed_from(s, "distances"))
        wins = sum(1 for intra, inter in dist.values() if inter > intra)
        win_fracs.append(wins / len(dist))
        profiles = user_bias_profiles(stages.run.records, "W2")
        users = stages.world.user_ids()
        own = [
            bias_consistency(profiles[(u, ROLE_SHADOW)], profiles[(u, ROLE_ANONYMOUS)])
            for u in users
        ]
        cross = [
            bias_consistency(profiles[(u, ROLE_SHADOW)], profiles[(v, ROLE_ANONYMOUS)])
            for u in users
            for v in users
            if v != u
        ]
        own_means.append(float(np.mean(own)))
        gaps.append(float(np.mean(own)) - float(np.mean(cross)))
    own_mean, gap = float(np.mean(own_means)), float(np.mean(gaps))
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
        manifest = manifest_for(stages.run.records, stages.spec.layout(), cfg.rounds)
        out = tmp_path / f"log{i}"
        write_records(out, manifest, stages.run.records)
        dirs.append(out)
    logs_equal = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("manifest.json", "deltas.bin")
    )

    _, loaded = read_records(dirs[0])
    round_trip_exact = all(
        np.array_equal(
            back.delta.get(name), orig.delta.get(name).astype(np.float32).astype(np.float64)
        )
        for orig, back in zip(runs[0].run.records, loaded)
        for name in orig.delta.names
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
