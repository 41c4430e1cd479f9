"""World generator checks: split bookkeeping for every prior kind, bias
strength as a function of the Dirichlet concentration, the IID control,
and a pin of the generator's draws."""

import hashlib

import numpy as np
import pytest

from fedanon.seeding import seed_from
from fedanon.world import (
    DatasetBundle,
    WorldConfig,
    gen_world,
    intra_inter_distances,
    limit_prior,
    make_iid_control,
    split_prior,
    user_pref_at,
)

from broadcast_oracle import broadcast_intra_inter, traced_peak

COLUMNS = ("x", "y", "t", "album", "user")


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


def user_kl_from_uniform(bundle):
    c = bundle.config.classes
    kls = []
    for u in bundle.user_ids():
        h = np.bincount(bundle.y[bundle.user_examples[u]], minlength=c).astype(float)
        p = h / h.sum()
        nz = p > 0
        kls.append(float(np.sum(p[nz] * np.log(p[nz] * c))))
    return float(np.mean(kls))


# ---------------------------------------------------------------- structure


def test_world_structure_and_counts():
    cfg = small_cfg()
    b = gen_world(cfg)
    n_rows = cfg.users * cfg.n_per_user + cfg.background_size
    n_test = round(cfg.test_fraction * cfg.n_per_user)
    assert b.user_ids() == list(range(cfg.users))
    assert b.x.shape == (n_rows, cfg.feature_dim) and b.x.dtype == np.float64
    for name, dtype in (("y", np.int64), ("t", np.float64), ("album", np.int64), ("user", np.int64)):
        column = getattr(b, name)
        assert column.shape == (n_rows,) and column.dtype == dtype
    assert len(b.test) == cfg.users * n_test
    assert len(b.background) == cfg.background_size
    assert b.prototypes.shape == (cfg.classes, cfg.feature_dim)
    np.testing.assert_allclose(np.linalg.norm(b.prototypes, axis=1), 1.0, atol=1e-12)
    for u in b.user_ids():
        pool = b.user_examples[u]
        assert pool.dtype == np.int64
        assert len(pool) == cfg.n_per_user - n_test
        assert len(b.prior[u]) + len(b.private[u]) == len(pool)
        assert np.all(b.user[pool] == u)


def test_user_rows_come_first_then_background():
    cfg = small_cfg()
    b = gen_world(cfg)
    n_user_rows = cfg.users * cfg.n_per_user
    owners = np.repeat(np.arange(cfg.users), cfg.n_per_user)
    np.testing.assert_array_equal(b.user[:n_user_rows], owners)
    np.testing.assert_array_equal(b.background, np.arange(n_user_rows, len(b.y)))
    # each user's rows run through its timeline in order
    t = b.t[:n_user_rows].reshape(cfg.users, cfg.n_per_user)
    timeline = np.arange(cfg.n_per_user) / (cfg.n_per_user - 1)
    np.testing.assert_array_equal(t, np.tile(timeline, (cfg.users, 1)))


def test_test_holdout_disjoint_from_pool():
    cfg = small_cfg()
    b = gen_world(cfg)
    pools = np.concatenate([b.user_examples[u] for u in b.user_ids()])
    assert np.intersect1d(pools, b.test).size == 0
    np.testing.assert_array_equal(
        np.sort(np.concatenate([pools, b.test])), np.arange(cfg.users * cfg.n_per_user)
    )


def test_background_is_roughly_uniform_and_anonymous():
    cfg = small_cfg(background_size=2000, classes=10, feature_dim=16)
    b = gen_world(cfg)
    counts = np.bincount(b.y[b.background], minlength=cfg.classes)
    # multinomial with p=1/10: std ~ 13.4, allow ~6 sigma
    assert np.all(np.abs(counts - 200) < 80)
    assert np.all(b.user[b.background] == -1)
    assert np.all(b.album[b.background] == -1)
    assert np.all(b.t[b.background] == 0.0)


def assert_bundles_equal(a: DatasetBundle, b: DatasetBundle):
    assert a.config == b.config
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for pa, pb in zip(a.users, b.users, strict=True):
        np.testing.assert_array_equal(pa.pref_start, pb.pref_start)
        np.testing.assert_array_equal(pa.pref_end, pb.pref_end)
        for aa, ab in zip(pa.albums, pb.albums, strict=True):
            np.testing.assert_array_equal(aa, ab)
    for name in COLUMNS:
        ca, cb = getattr(a, name), getattr(b, name)
        assert ca.dtype == cb.dtype
        np.testing.assert_array_equal(ca, cb)
    assert a.user_ids() == b.user_ids()
    for side in ("user_examples", "prior", "private"):
        for u in a.user_ids():
            ra, rb = getattr(a, side)[u], getattr(b, side)[u]
            assert ra.dtype == rb.dtype == np.int64
            np.testing.assert_array_equal(ra, rb)
    for side in ("test", "background"):
        np.testing.assert_array_equal(getattr(a, side), getattr(b, side))



@pytest.mark.parametrize(
    "kind,extra",
    [
        ("random", {}),
        ("chrono", {}),
        ("photoset", {}),
        ("profile", {"profile_class": 1}),
    ],
)
def test_generation_is_deterministic(kind, extra):
    # nothing persists a world: every field, profiles and prototypes too,
    # must come back from the config that each report records
    a = gen_world(small_cfg(prior_kind=kind, **extra))
    assert_bundles_equal(a, gen_world(small_cfg(prior_kind=kind, **extra)))
    c = gen_world(small_cfg(prior_kind=kind, seed=99, **extra))
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
        pool, prior, private = b.user_examples[u], b.prior[u], b.private[u]
        assert set(prior) | set(private) == set(pool)
        assert set(prior).isdisjoint(private)
        n = len(pool)
        assert len(prior) == min(max(round(0.3 * n), 1), n - 1)


def test_chrono_split_takes_earliest():
    b = gen_world(small_cfg(prior_kind="chrono"))
    for u in b.user_ids():
        assert b.t[b.prior[u]].max() <= b.t[b.private[u]].min()


def test_photoset_split_keeps_albums_whole():
    b = gen_world(small_cfg(prior_kind="photoset", albums_per_user=4))
    for u in b.user_ids():
        prior_albums = set(b.album[b.prior[u]])
        priv_albums = set(b.album[b.private[u]])
        assert prior_albums.isdisjoint(priv_albums)
        assert priv_albums  # at least one whole album stays private
        assert len(b.prior[u]) >= 1


def test_profile_prior_is_curated_from_background():
    b = gen_world(small_cfg(prior_kind="profile", profile_class=2))
    for u in b.user_ids():
        assert np.isin(b.prior[u], b.background).all()
        assert np.all(b.y[b.prior[u]] == 2)
        # the whole pool stays on the device
        np.testing.assert_array_equal(b.private[u], b.user_examples[u])


def test_profile_kind_requires_class():
    with pytest.raises(ValueError):
        small_cfg(prior_kind="profile")


def test_split_prior_rejects_bad_inputs():
    b = gen_world(small_cfg())
    pool = b.user_examples[0]
    with pytest.raises(ValueError):
        split_prior(b, pool, "nope", 0.3, seed=0)
    with pytest.raises(ValueError):
        split_prior(b, pool, "random", 0.0, seed=0)
    with pytest.raises(ValueError):
        split_prior(b, pool, "random", 1.0, seed=0)
    with pytest.raises(ValueError):
        split_prior(b, pool[:1], "random", 0.5, seed=0)
    with pytest.raises(ValueError):
        split_prior(b, pool, "profile", 0.3, seed=0)


@pytest.mark.parametrize("seed", range(8))
def test_photoset_config_is_rejected_exactly_where_the_split_would_fail(seed):
    # the holdout does not depend on the prior kind, so a random-prior world
    # shows the pools a photoset prior would have to split
    shape = dict(users=4, n_per_user=4, test_fraction=0.5, background_size=60,
                 albums_per_user=2, seed=seed)
    pools = gen_world(small_cfg(**shape))
    fewest = min(np.unique(pools.album[pools.user_examples[u]]).size for u in pools.user_ids())
    if fewest >= 2:
        b = gen_world(small_cfg(**shape, prior_kind="photoset"))
        assert all(len(b.prior[u]) and len(b.private[u]) for u in b.user_ids())
    else:
        with pytest.raises(ValueError, match="^albums_per_user leaves user"):
            small_cfg(**shape, prior_kind="photoset")


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
    iid = make_iid_control(b, seed_from(b.config.seed, "iid"))
    # same per-device example counts, and the same pooled rows
    for u in b.user_ids():
        assert len(iid.prior[u]) == len(b.prior[u])
        assert len(iid.private[u]) == len(b.private[u])
    def pooled(bundle):
        return np.sort(np.concatenate([bundle.user_examples[u] for u in bundle.user_ids()]))

    np.testing.assert_array_equal(pooled(iid), pooled(b))
    assert iid.x is b.x
    assert user_kl_from_uniform(iid) < 0.3 * user_kl_from_uniform(b)


def test_iid_control_is_deterministic():
    # the IID control of a profile world puts background rows in private
    # splits and repeats some of them across priors
    for extra in ({}, {"prior_kind": "profile", "profile_class": 1}):
        b = gen_world(small_cfg(**extra))
        x = make_iid_control(b, seed_from(b.config.seed, "iid"))
        y = make_iid_control(gen_world(small_cfg(**extra)), seed_from(b.config.seed, "iid"))
        assert_bundles_equal(x, y)


# -------------------------------------------------------------- geometry


def test_intra_inter_distance_stats():
    b = gen_world(small_cfg(concentration=0.05, feature_noise=0.3))
    stats = intra_inter_distances(b, seed_from(b.config.seed, "distances"))
    assert set(stats) == set(b.user_ids())
    wins = sum(1 for intra, inter in stats.values() if inter > intra)
    # strongly biased users occupy a narrower slice of feature space
    assert wins >= len(stats) - 1


def test_intra_inter_distances_work_in_blocks():
    # pools of 320 rows against themselves and a 500-row sample: the one-shot
    # broadcast holds a 41 MB (320, 500, 32) difference tensor and its square
    bundle = gen_world(WorldConfig(users=2, n_per_user=400, feature_dim=32, background_size=10))
    bound = 8 * 2**20
    assert traced_peak(intra_inter_distances, bundle, 0) < bound
    assert traced_peak(broadcast_intra_inter, bundle, 0) > 5 * bound


def test_limit_prior_caps_and_preserves():
    b = gen_world(small_cfg())
    seed = seed_from(b.config.seed, "limit-prior")
    cut = limit_prior(b, 5, seed)
    for u in b.user_ids():
        assert len(cut.prior[u]) == min(5, len(b.prior[u]))
        assert set(cut.prior[u]) <= set(b.prior[u])
        # private side untouched
        np.testing.assert_array_equal(cut.private[u], b.private[u])
    # a cap no prior set reaches is the bundle itself
    assert limit_prior(b, 10_000, seed) is b
    assert limit_prior(b, max(len(b.prior[u]) for u in b.user_ids()), seed) is b
    with pytest.raises(ValueError):
        limit_prior(b, 0, seed)


# ------------------------------------------------------- pinned draws

# sha256 over the x, y, t, album and user values of every split, computed
# on the list-of-rows world that came before the columns; any change to a
# generator, split, IID or limit_prior draw changes one of these
WORLD_DIGESTS = {
    "random": "981969550a98eb76c3b434ff3bf6533f8eff19d7063769f86263cfba6ca38fa4",
    "chrono": "ee45c25868225dba24d914fc7dd70bf9f6605a89f1fcfa53ee993247172f376b",
    "photoset": "55dba9274040ea62ab2603c2671e97ea75b73e5fe2f333c874edac7443b02fa7",
    "profile": "5cbfbdcfb6c304fa813350927ec3dfe51a7ead3cf571df1d61610a1c0296507a",
    "random_iid": "2fcdd65743c23acf2b1411a9e928bdcc61d753e4e34651e2fc25cddffeed2605",
    "random_limit5": "bf967ae890386f5ba26367cc2a068ac1c07a8c82cdc0e604803a1794dd1a5bf1",
}


def world_digest(bundle):
    """Per-user splits in user order, each as its per-user row counts then
    the concatenated columns; then the test and background rows."""
    h = hashlib.sha256()

    def put(rows):
        for name, dtype in zip(COLUMNS, ("<f8", "<i8", "<f8", "<i8", "<i8")):
            h.update(np.ascontiguousarray(getattr(bundle, name)[rows], dtype=dtype).tobytes())

    users = bundle.user_ids()
    for side in ("user_examples", "prior", "private"):
        rows = [getattr(bundle, side)[u] for u in users]
        h.update(np.asarray([len(r) for r in rows], dtype="<i8").tobytes())
        put(np.concatenate(rows))
    for rows in (bundle.test, bundle.background):
        h.update(np.asarray([len(rows)], dtype="<i8").tobytes())
        put(rows)
    return h.hexdigest()


def test_world_draws_are_pinned():
    base = gen_world(small_cfg())
    worlds = {
        "random": base,
        "chrono": gen_world(small_cfg(prior_kind="chrono")),
        "photoset": gen_world(small_cfg(prior_kind="photoset")),
        "profile": gen_world(small_cfg(prior_kind="profile", profile_class=1)),
        "random_iid": make_iid_control(base, seed_from(base.config.seed, "iid")),
        "random_limit5": limit_prior(base, 5, seed_from(base.config.seed, "limit-prior")),
    }
    assert {name: world_digest(b) for name, b in worlds.items()} == WORLD_DIGESTS


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
