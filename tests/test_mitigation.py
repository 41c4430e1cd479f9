"""Defense mechanics: noise moments, the k-means pool builder against a
brute-force 1-d oracle, data rewrite bookkeeping, and the tradeoff curve's
anchor row and seeds. The forked children that fit its attacks are tested
in test_forks."""

import dataclasses

import numpy as np
import pytest

from fedanon import mitigation
from fedanon.attacks import ReprConfig, build_attack_dataset, mlp_reid_scores, reference_seed
from fedanon.federated import ROLE_ANONYMOUS, ROLE_SHADOW, DeviceState, RoundConfig, run_federated
from fedanon.mitigation import (
    KMeansResult,
    MitigationConfig,
    apply_data_strategy,
    cluster_background,
    make_noise_hook,
    mitigate_bundle,
    tradeoff_curve,
)
from fedanon.nn import ModelSpec
from fedanon.seeding import rng_from, seed_from
from fedanon.world import gen_world

from broadcast_oracle import broadcast_squared_distances, traced_peak
from test_world import small_cfg


# ----------------------------------------------------------------- config


def test_mitigation_config_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        MitigationConfig("prayer", 1.0)
    for strategy in ("noise", "bkg_repl", "rand_aug", "mm_aug"):
        for value in (0.0, -0.5):
            with pytest.raises(ValueError, match="> 0"):
                MitigationConfig(strategy, value)
    with pytest.raises(ValueError, match="bkg_repl"):
        MitigationConfig("bkg_repl", 1.5)
    assert MitigationConfig("bkg_repl", 1.0).value == 1.0
    assert MitigationConfig("rand_aug", 2.0).value == 2.0


def test_mitigation_config_is_a_strategy_and_a_value():
    cfg = MitigationConfig("noise", 0.3)
    assert [f.name for f in dataclasses.fields(cfg)] == ["strategy", "value"]
    assert (cfg.strategy, cfg.value) == ("noise", 0.3)


# ------------------------------------------------------------------ noise


def make_delta(size=10_000, value=0.0):
    """One flat delta row."""
    return np.full(size, value)


def device_with_role(role):
    return DeviceState(device_id=0, user_id=0, role=role, rows=np.zeros(1, dtype=np.int64))


def noised(sigma2, seed, size=10_000):
    """A zero delta of anonymous device 0 after the noise hook of round 1."""
    return make_noise_hook(sigma2, seed)(1, device_with_role(ROLE_ANONYMOUS), make_delta(size))


def test_noise_moments():
    w = noised(4.0, seed=1)
    assert abs(w.mean()) < 0.1
    assert abs(w.std() - 2.0) < 0.1  # within 5% of sqrt(sigma2)


def test_noise_is_seeded():
    np.testing.assert_array_equal(noised(1.0, seed=7), noised(1.0, seed=7))
    assert not np.array_equal(noised(1.0, seed=7), noised(1.0, seed=8))
    # one stream per (seed, round, device)
    rng = rng_from(seed_from(7, "noise", 1, 0), "delta-noise")
    np.testing.assert_array_equal(noised(1.0, seed=7, size=16), rng.normal(0.0, 1.0, size=16))


def test_noise_hook_targets_anonymous_devices_only():
    hook = make_noise_hook(1.0, seed=0)
    delta = make_delta(size=16)
    assert hook(1, device_with_role(ROLE_SHADOW), delta) is delta
    assert not np.array_equal(hook(1, device_with_role(ROLE_ANONYMOUS), delta), delta)


def test_noise_hook_varies_by_round_and_device():
    hook = make_noise_hook(1.0, seed=0)
    delta = make_delta(size=16)
    a = hook(1, device_with_role(ROLE_ANONYMOUS), delta)
    b = hook(2, device_with_role(ROLE_ANONYMOUS), delta)
    assert not np.array_equal(a, b)


# ----------------------------------------------------------------- k-means


def brute_force_two_clusters(points):
    """Try every 2-partition of a tiny point set, return the minimal SSE."""
    n = len(points)
    best = np.inf
    for mask in range(1, 2**n - 1):
        members = [[], []]
        for i in range(n):
            members[(mask >> i) & 1].append(points[i])
        sse = 0.0
        for side in members:
            arr = np.asarray(side)
            sse += ((arr - arr.mean()) ** 2).sum()
        best = min(best, sse)
    return best


def test_kmeans_matches_brute_force_oracle():
    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    result = cluster_background(points, m=2, seed=0)
    np.testing.assert_allclose(sorted(result.centroids[:, 0]), [0.05, 10.05], atol=1e-12)
    assert result.sse_history[-1] == pytest.approx(
        brute_force_two_clusters(points[:, 0].tolist()), abs=1e-12
    )
    # the two close pairs end up together
    assert result.assignments[0] == result.assignments[1]
    assert result.assignments[2] == result.assignments[3]
    assert result.assignments[0] != result.assignments[2]


def test_kmeans_sse_never_increases():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 5))
    result = cluster_background(x, m=8, seed=1)
    history = np.asarray(result.sse_history)
    assert (np.diff(history) <= 1e-9).all()


def test_kmeans_single_cluster_is_global_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    result = cluster_background(x, m=1, seed=0)
    np.testing.assert_allclose(result.centroids[0], x.mean(axis=0), atol=1e-12)
    assert (result.assignments == 0).all()


def test_kmeans_degenerate_and_invalid():
    x = np.arange(6.0).reshape(3, 2)
    perfect = cluster_background(x, m=3, seed=0)
    assert perfect.sse_history[-1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        cluster_background(x, m=0, seed=0)
    with pytest.raises(ValueError):
        cluster_background(x, m=4, seed=0)
    with pytest.raises(ValueError):
        cluster_background(np.zeros((0, 2)), m=1, seed=0)


def test_kmeans_assigns_points_in_blocks():
    # 2000 points in 64-d against 50 centroids: the one-shot broadcast of the
    # assignment step holds a 51 MB (2000, 50, 64) difference tensor
    rng = np.random.default_rng(4)
    centers = 5.0 * rng.normal(size=(50, 64))
    x = centers[rng.integers(50, size=2000)] + rng.normal(size=(2000, 64))
    bound = 4 * 2**20
    assert traced_peak(cluster_background, x, 50, 0) < bound
    centroids = x[:50].copy()
    assert traced_peak(broadcast_squared_distances, x, centroids) > 5 * bound


def test_kmeans_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 4))
    a = cluster_background(x, m=5, seed=9)
    b = cluster_background(x, m=5, seed=9)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)


# ----------------------------------------------------------- data rewrites


# a device's own rows are 0..n-1 and pool rows start at POOL_START
POOL_START = 1000


def user_rows(n):
    return np.arange(n, dtype=np.int64)


def pool_rows(n):
    return POOL_START + np.arange(n, dtype=np.int64)


def test_zero_alpha_is_identity_for_all_strategies():
    mine, pool = user_rows(20), pool_rows(10)
    for strategy in ("bkg_repl", "rand_aug", "mm_aug"):
        for alpha in (0.0, 0.04):  # floor(alpha * 20) = 0 draws
            out = apply_data_strategy(mine, strategy, alpha, pool, seed=0)
            np.testing.assert_array_equal(out, mine)


def test_rand_aug_appends_floor_alpha_n():
    mine, pool = user_rows(50), pool_rows(30)
    out = apply_data_strategy(mine, "rand_aug", 2.0, pool, seed=0)
    assert len(out) == 150
    np.testing.assert_array_equal(out[:50], mine)  # originals kept, in order
    assert np.isin(out[50:], pool).all()  # appended rows are pool draws


def test_bkg_repl_preserves_size_and_replaces_exactly():
    mine, pool = user_rows(40), pool_rows(30)
    half = apply_data_strategy(mine, "bkg_repl", 0.5, pool, seed=0)
    assert len(half) == 40
    assert np.count_nonzero(half < POOL_START) == 20
    full = apply_data_strategy(mine, "bkg_repl", 1.0, pool, seed=0)
    assert len(full) == 40
    assert np.isin(full, pool).all()  # no original survives


def test_data_strategy_draws_with_replacement_when_pool_small():
    mine, pool = user_rows(50), pool_rows(3)
    out = apply_data_strategy(mine, "rand_aug", 1.0, pool, seed=0)
    assert len(out) == 100  # 50 appended from a pool of 3


# --------------------------------------------------------- bundle rewrites


def background_clusters(bundle, m, seed):
    """The k-means fit that the sweep hands `mm_aug` at `m` clusters and
    config seed `seed`."""
    return cluster_background(bundle.x[bundle.background], m, seed_from(seed, "mm-clusters"))


def test_mitigate_bundle_noise_passes_through():
    bundle = gen_world(small_cfg())
    assert mitigate_bundle(bundle, MitigationConfig("noise", 5.0), 0, None) is bundle


def test_mitigate_bundle_touches_only_private_splits():
    bundle = gen_world(small_cfg())
    out = mitigate_bundle(bundle, MitigationConfig("rand_aug", 1.0), 2, None)
    assert out.prior is bundle.prior
    assert out.test is bundle.test
    assert out.background is bundle.background
    for u in bundle.user_ids():
        n = len(bundle.private[u])
        assert len(out.private[u]) == 2 * n
        np.testing.assert_array_equal(out.private[u][:n], bundle.private[u])


def test_mitigate_bundle_seeds_each_users_draws_from_the_config_seed():
    bundle = gen_world(small_cfg())
    out = mitigate_bundle(bundle, MitigationConfig("bkg_repl", 0.5), 7, None)
    for u in bundle.user_ids():
        expect = apply_data_strategy(
            bundle.private[u], "bkg_repl", 0.5, bundle.background, seed_from(7, "user-data", u)
        )
        np.testing.assert_array_equal(out.private[u], expect)


def test_mitigate_bundle_mm_aug_draws_from_one_cluster_per_user():
    bundle = gen_world(small_cfg())
    result = background_clusters(bundle, 4, seed=5)
    out = mitigate_bundle(bundle, MitigationConfig("mm_aug", 1.0), 5, result)
    cluster_of = dict(zip(bundle.background.tolist(), result.assignments.tolist()))
    used = set()
    for u in bundle.user_ids():
        appended = out.private[u][len(bundle.private[u]) :]
        assert len(appended)
        picks = {cluster_of[r] for r in appended.tolist()}
        assert len(picks) == 1  # every draw comes from the user's one cluster
        used |= picks
    assert len(used) >= 2  # different users land on different clusters


def test_mm_aug_with_one_cluster_equals_rand_aug():
    bundle = gen_world(small_cfg())
    one = background_clusters(bundle, 1, seed=3)
    mm = mitigate_bundle(bundle, MitigationConfig("mm_aug", 0.5), 3, one)
    rand = mitigate_bundle(bundle, MitigationConfig("rand_aug", 0.5), 3, None)
    for u in bundle.user_ids():
        np.testing.assert_array_equal(mm.private[u], rand.private[u])


def test_mm_aug_user_of_an_empty_cluster_draws_from_the_background():
    bundle = gen_world(small_cfg())
    m = 4
    # every background row in cluster 0, so clusters 1..3 are empty
    clusters = KMeansResult(
        assignments=np.zeros(len(bundle.background), dtype=np.int64),
        centroids=np.zeros((m, bundle.x.shape[1])),
        sse_history=(0.0,),
    )
    mm = mitigate_bundle(bundle, MitigationConfig("mm_aug", 0.5), 3, clusters)
    rand = mitigate_bundle(bundle, MitigationConfig("rand_aug", 0.5), 3, None)
    picks = {u: int(rng_from(3, "mm-pick", u).integers(m)) for u in bundle.user_ids()}
    assert set(picks.values()) > {0}  # some user picks an empty cluster
    for u in bundle.user_ids():
        np.testing.assert_array_equal(mm.private[u], rand.private[u])


# ------------------------------------------------------------ tradeoff curve


def tiny_setup():
    """A small world and federation, and the anchor of its sweep: the
    attack dataset and final task score of the unmitigated run."""
    bundle = gen_world(small_cfg(users=6, n_per_user=40, background_size=100))
    spec = ModelSpec(kind="linear", input_dim=12, output_dim=5)
    fed = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=3, seed=0)
    repr_cfg = ReprConfig("W", normalize=True)
    run = run_federated(bundle, spec, fed)
    anchor = (build_attack_dataset(run.records, repr_cfg), run.utility[-1])
    return bundle, spec, fed, repr_cfg, anchor


def test_tradeoff_anchor_utility_is_exactly_one():
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    grid = [MitigationConfig("noise", 0.5), MitigationConfig("rand_aug", 0.5)]
    points = tradeoff_curve(bundle, spec, fed, repr_cfg, grid, anchor, 0, 4)
    assert [(p.strategy, p.value) for p in points] == [
        ("noise", 0.0),
        ("noise", 0.5),
        ("rand_aug", 0.5),
    ]
    first = points[0]
    assert first.utility == 1.0
    assert first.task_score == anchor[1]
    for p in points:
        assert p.utility == pytest.approx(p.task_score / first.task_score)
        assert p.privacy_ioc == pytest.approx(p.attacker_ap / p.chance_ap)


def test_tradeoff_anchor_row_attacks_the_given_dataset(monkeypatch, call_log):
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    calls = []
    for fn in (run_federated, build_attack_dataset):
        monkeypatch.setattr(mitigation, fn.__name__,
                            lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    # the fits run in forked children, so they are seen through the log
    monkeypatch.setattr(mitigation, "mlp_reid_scores", lambda ds, seed: call_log.record(
        "anchor" if ds is anchor[0] else "point", seed) or mlp_reid_scores(ds, seed))
    points = tradeoff_curve(bundle, spec, fed, repr_cfg, [MitigationConfig("noise", 0.5)],
                            anchor, 3, 4)
    # only the noise point federates and builds an attack dataset
    assert calls == [run_federated, build_attack_dataset]
    # every point is fit with the reference fit's seed at the config seed
    assert sorted(call_log.lines()) == [["anchor", str(reference_seed(3))],
                                        ["point", str(reference_seed(3))]]
    first = points[0]
    scores = [first.attacker_ap, first.chance_ap, first.privacy_ioc]
    assert scores == mlp_reid_scores(anchor[0], reference_seed(3))


def test_tradeoff_fits_kmeans_once_for_all_mm_aug_points(monkeypatch):
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    mm = [MitigationConfig("mm_aug", a) for a in (0.5, 1.0, 2.0)]
    # each point alone, with its own k-means fit
    alone = [tradeoff_curve(bundle, spec, fed, repr_cfg, [cfg], anchor, 1, 4)[1] for cfg in mm]
    calls = []
    monkeypatch.setattr(
        mitigation, "cluster_background",
        lambda *a, **k: calls.append(a[1:]) or cluster_background(*a, **k),
    )
    points = tradeoff_curve(bundle, spec, fed, repr_cfg, mm, anchor, 1, 4)
    assert calls == [(4, seed_from(1, "mm-clusters"))]
    assert points[1:] == alone
    tradeoff_curve(bundle, spec, fed, repr_cfg, [MitigationConfig("rand_aug", 0.5)], anchor, 1, 4)
    assert len(calls) == 1  # no mm_aug point, no k-means fit
