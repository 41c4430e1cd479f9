"""World generator checks: split bookkeeping for every prior kind, bias
strength as a function of the Dirichlet concentration, the IID control,
and exact save/load round-trips."""

import numpy as np
import pytest

from fedanon.world import (
    DatasetBundle,
    WorldConfig,
    features_of,
    gen_world,
    intra_inter_distances,
    labels_of,
    limit_prior,
    load_bundle,
    make_iid_control,
    save_bundle,
    split_prior,
    user_pref_at,
)


def small_cfg(**overrides):
    base = dict(
        users=6,
        classes=5,
        feature_dim=12,
        n_per_user=80,
        concentration=0.1,
        feature_noise=0.4,
        drift=0.3,
        albums_per_user=3,
        test_fraction=0.2,
        background_size=400,
        prior_kind="random",
        prior_fraction=0.3,
        seed=11,
    )
    base.update(overrides)
    return WorldConfig(**base)


def example_keys(examples):
    # (user, timestamp) identifies an example: timestamps are i/(n-1)
    return {(e.user_id, e.timestamp) for e in examples}


def user_kl_from_uniform(bundle):
    c = bundle.config.classes
    kls = []
    for u in bundle.user_ids():
        h = np.bincount(labels_of(bundle.user_examples[u]), minlength=c).astype(float)
        p = h / h.sum()
        nz = p > 0
        kls.append(float(np.sum(p[nz] * np.log(p[nz] * c))))
    return float(np.mean(kls))


# ---------------------------------------------------------------- structure


def test_world_structure_and_counts():
    cfg = small_cfg()
    b = gen_world(cfg)
    n_test = round(cfg.test_fraction * cfg.n_per_user)
    assert b.user_ids() == list(range(cfg.users))
    assert len(b.test) == cfg.users * n_test
    assert len(b.background) == cfg.background_size
    assert b.prototypes.shape == (cfg.classes, cfg.feature_dim)
    np.testing.assert_allclose(np.linalg.norm(b.prototypes, axis=1), 1.0, atol=1e-12)
    for u in b.user_ids():
        pool = b.user_examples[u]
        assert len(pool) == cfg.n_per_user - n_test
        assert len(b.prior[u]) + len(b.private[u]) == len(pool)
        assert all(e.user_id == u for e in pool)


def test_test_holdout_disjoint_from_pool():
    b = gen_world(small_cfg())
    pool_keys = set()
    for u in b.user_ids():
        pool_keys |= example_keys(b.user_examples[u])
    assert pool_keys.isdisjoint(example_keys(b.test))


def test_background_is_roughly_uniform_and_anonymous():
    cfg = small_cfg(background_size=2000, classes=10, feature_dim=16)
    b = gen_world(cfg)
    counts = np.bincount(labels_of(b.background), minlength=cfg.classes)
    # multinomial with p=1/10: std ~ 13.4, allow ~6 sigma
    assert np.all(np.abs(counts - 200) < 80)
    assert all(e.user_id == -1 and e.album_id == -1 for e in b.background)


def test_generation_is_deterministic():
    a = gen_world(small_cfg())
    b = gen_world(small_cfg())
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for u in a.user_ids():
        np.testing.assert_array_equal(
            features_of(a.user_examples[u]), features_of(b.user_examples[u])
        )
        np.testing.assert_array_equal(labels_of(a.prior[u]), labels_of(b.prior[u]))
    c = gen_world(small_cfg(seed=99))
    assert not np.array_equal(a.prototypes, c.prototypes)


def test_user_pref_interpolation():
    b = gen_world(small_cfg())
    p = b.users[0]
    np.testing.assert_array_equal(user_pref_at(p, 0.0, 0.7), p.pref_start)
    np.testing.assert_array_equal(user_pref_at(p, 0.9, 0.0), p.pref_start)
    np.testing.assert_allclose(user_pref_at(p, 1.0, 1.0), p.pref_end, atol=1e-15)
    mid = user_pref_at(p, 0.5, 1.0)
    np.testing.assert_allclose(mid, 0.5 * p.pref_start + 0.5 * p.pref_end, atol=1e-15)


# ------------------------------------------------------------- prior splits


def test_random_split_partitions_pool():
    b = gen_world(small_cfg(prior_kind="random"))
    for u in b.user_ids():
        keys_pool = example_keys(b.user_examples[u])
        keys_prior = example_keys(b.prior[u])
        keys_priv = example_keys(b.private[u])
        assert keys_prior | keys_priv == keys_pool
        assert keys_prior.isdisjoint(keys_priv)
        n = len(b.user_examples[u])
        assert len(b.prior[u]) == min(max(round(0.3 * n), 1), n - 1)


def test_chrono_split_takes_earliest():
    b = gen_world(small_cfg(prior_kind="chrono"))
    for u in b.user_ids():
        latest_prior = max(e.timestamp for e in b.prior[u])
        earliest_priv = min(e.timestamp for e in b.private[u])
        assert latest_prior <= earliest_priv


def test_photoset_split_keeps_albums_whole():
    b = gen_world(small_cfg(prior_kind="photoset", albums_per_user=4))
    for u in b.user_ids():
        prior_albums = {e.album_id for e in b.prior[u]}
        priv_albums = {e.album_id for e in b.private[u]}
        assert prior_albums.isdisjoint(priv_albums)
        assert priv_albums  # at least one whole album stays private
        assert len(b.prior[u]) >= 1


def test_profile_prior_is_curated_from_background():
    b = gen_world(small_cfg(prior_kind="profile", profile_class=2))
    for u in b.user_ids():
        assert all(e.y == 2 and e.user_id == -1 for e in b.prior[u])
        # the whole pool stays on the device
        assert example_keys(b.private[u]) == example_keys(b.user_examples[u])


def test_profile_kind_requires_class():
    with pytest.raises(ValueError):
        small_cfg(prior_kind="profile")


def test_split_prior_rejects_bad_inputs():
    b = gen_world(small_cfg())
    pool = b.user_examples[0]
    with pytest.raises(ValueError):
        split_prior(pool, "nope", 0.3)
    with pytest.raises(ValueError):
        split_prior(pool, "random", 0.0)
    with pytest.raises(ValueError):
        split_prior(pool, "random", 1.0)
    with pytest.raises(ValueError):
        split_prior(pool[:1], "random", 0.5)


def test_photoset_needs_multiple_albums():
    b = gen_world(small_cfg(albums_per_user=1))
    with pytest.raises(ValueError):
        split_prior(b.user_examples[0], "photoset", 0.3)


# ------------------------------------------------------------ bias strength


def test_bias_grows_as_concentration_shrinks():
    kls = [
        user_kl_from_uniform(gen_world(small_cfg(concentration=beta)))
        for beta in (10.0, 1.0, 0.1)
    ]
    assert kls[0] < kls[1] < kls[2]


def test_large_concentration_approaches_uniform():
    kl = user_kl_from_uniform(gen_world(small_cfg(concentration=1000.0, n_per_user=400)))
    assert kl < 0.05


def test_iid_control_removes_user_bias():
    b = gen_world(small_cfg())
    iid = make_iid_control(b)
    # same per-device example counts, same pooled label multiset
    for u in b.user_ids():
        assert len(iid.prior[u]) == len(b.prior[u])
        assert len(iid.private[u]) == len(b.private[u])
    pooled = sorted(
        e.y for u in b.user_ids() for e in b.prior[u] + b.private[u]
    )
    pooled_iid = sorted(
        e.y for u in iid.user_ids() for e in iid.prior[u] + iid.private[u]
    )
    assert pooled == pooled_iid
    assert user_kl_from_uniform(iid) < 0.3 * user_kl_from_uniform(b)


def test_iid_control_is_deterministic():
    b = gen_world(small_cfg())
    x = make_iid_control(b)
    y = make_iid_control(b)
    for u in b.user_ids():
        np.testing.assert_array_equal(features_of(x.prior[u]), features_of(y.prior[u]))


# -------------------------------------------------------------- geometry


def test_intra_inter_distance_stats():
    b = gen_world(small_cfg(concentration=0.05, feature_noise=0.3))
    stats = intra_inter_distances(b)
    assert set(stats) == set(b.user_ids())
    wins = sum(1 for intra, inter in stats.values() if inter > intra)
    # strongly biased users occupy a narrower slice of feature space
    assert wins >= len(stats) - 1


def test_limit_prior_caps_and_preserves():
    b = gen_world(small_cfg())
    cut = limit_prior(b, 5)
    for u in b.user_ids():
        assert len(cut.prior[u]) == min(5, len(b.prior[u]))
        assert example_keys(cut.prior[u]) <= example_keys(b.prior[u])
        # private side untouched
        assert example_keys(cut.private[u]) == example_keys(b.private[u])
    big = limit_prior(b, 10_000)
    for u in b.user_ids():
        assert example_keys(big.prior[u]) == example_keys(b.prior[u])
    with pytest.raises(ValueError):
        limit_prior(b, 0)


# ------------------------------------------------------------ persistence


def assert_bundles_equal(a: DatasetBundle, b: DatasetBundle):
    assert a.config == b.config
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for pa, pb in zip(a.users, b.users):
        np.testing.assert_array_equal(pa.pref_start, pb.pref_start)
        np.testing.assert_array_equal(pa.pref_end, pb.pref_end)
        for aa, ab in zip(pa.albums, pb.albums):
            np.testing.assert_array_equal(aa, ab)
    for u in a.user_ids():
        for side in ("user_examples", "prior", "private"):
            ea, eb = getattr(a, side)[u], getattr(b, side)[u]
            assert len(ea) == len(eb)
            for xa, xb in zip(ea, eb):
                np.testing.assert_array_equal(xa.x, xb.x)
                assert (xa.y, xa.timestamp, xa.album_id, xa.user_id) == (
                    xb.y,
                    xb.timestamp,
                    xb.album_id,
                    xb.user_id,
                )
    for section in ("test", "background"):
        ea, eb = getattr(a, section), getattr(b, section)
        assert len(ea) == len(eb)
        np.testing.assert_array_equal(features_of(ea), features_of(eb))
        np.testing.assert_array_equal(labels_of(ea), labels_of(eb))


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("random", {}),
        ("chrono", {}),
        ("photoset", {}),
        ("profile", {"profile_class": 1}),
    ],
)
def test_save_load_round_trip(tmp_path, kind, extra):
    b = gen_world(small_cfg(prior_kind=kind, **extra))
    path = tmp_path / "world.npz"
    save_bundle(path, b)
    assert_bundles_equal(b, load_bundle(path))


def test_save_load_round_trip_iid_control(tmp_path):
    iid = make_iid_control(gen_world(small_cfg()))
    path = tmp_path / "iid.npz"
    save_bundle(path, iid)
    assert_bundles_equal(iid, load_bundle(path))


def test_save_is_byte_deterministic(tmp_path):
    b = gen_world(small_cfg())
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_bundle(p1, b)
    save_bundle(p2, b)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "bad",
    [
        {"users": 1},
        {"classes": 1},
        {"concentration": 0.0},
        {"feature_noise": 0.0},
        {"drift": 1.5},
        {"test_fraction": 0.0},
        {"prior_fraction": 1.0},
        {"prior_kind": "mystery"},
        {"albums_per_user": 0},
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        small_cfg(**bad)
