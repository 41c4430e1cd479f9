"""Attack mechanics on synthetic delta logs.

Fixtures put each user's deltas in a well-separated cluster, so any working
attack must approach AP 1.0 there and collapse under a label permutation;
the matching heads are additionally pinned by hand values and symmetry."""

import dataclasses
import hashlib

import numpy as np
import pytest

from fedanon.attacks import (
    KNN_K,
    UNSEEN_LABEL,
    ChanceMatcher,
    ChanceReid,
    KnnReid,
    MlpProductMatcher,
    MlpReid,
    ReprConfig,
    SiameseMatcher,
    SvmReid,
    bias_consistency,
    build_attack_dataset,
    class_bias_profile,
    dataspace_dataset,
    evaluate_matching,
    evaluate_reid,
    open_world_split,
    pair_rows,
    rmsprop_step,
    sample_balanced_pairs,
    train_matcher,
    train_reid,
    user_bias_profiles,
)
from fedanon import nn
from fedanon.deltastore import ROLE_ANONYMOUS, ROLE_SHADOW, DeltaRecord
from fedanon.nn import ParamVector
from fedanon.seeding import rng_from
from fedanon.world import gen_world

from broadcast_oracle import one_batch_matching, traced_peak
from sequential_oracle import flat, from_flat, log_of
from test_world import small_cfg

LAYER_SHAPE = (2, 4)  # flattens to 8-dim attack vectors
REPR = ReprConfig("W2", normalize=True)


def cluster_records(n_users=4, shadow_rows=10, anon_rows=5, noise=0.05, seed=0):
    """One tight delta cluster per user, both roles drawn from it."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_users, *LAYER_SHAPE))
    records = []
    for u in range(n_users):
        for role, count, id_base in (
            (ROLE_SHADOW, shadow_rows, n_users),
            (ROLE_ANONYMOUS, anon_rows, 0),
        ):
            for t in range(1, count + 1):
                delta = centers[u] + rng.normal(0.0, noise, size=LAYER_SHAPE)
                records.append(
                    DeltaRecord(
                        round_t=t,
                        device_id=id_base + u,
                        user_id=u,
                        role=role,
                        delta=ParamVector([("W2", delta)]),
                        n_k=20,
                    )
                )
    return records


@pytest.fixture(scope="module")
def cluster_ds():
    return build_attack_dataset(log_of(cluster_records()), REPR)


# ------------------------------------------------------------ dataset build


def test_build_dataset_routes_roles(cluster_ds):
    assert cluster_ds.train_x.shape == (40, 8)
    assert cluster_ds.test_x.shape == (20, 8)
    assert cluster_ds.users == (0, 1, 2, 3)
    assert set(cluster_ds.train_users.tolist()) == {0, 1, 2, 3}


def test_build_dataset_records_each_rows_round(cluster_ds):
    # user after user, each shadow device logs rounds 1..10, each anonymous one 1..5
    np.testing.assert_array_equal(cluster_ds.train_rounds, np.tile(np.arange(1, 11), 4))
    np.testing.assert_array_equal(cluster_ds.test_rounds, np.tile(np.arange(1, 6), 4))


def test_in_rounds_keeps_a_half_open_range_on_both_sides(cluster_ds):
    ds = cluster_ds.in_rounds(3, 5)
    assert ds.train_x.shape[0] == ds.test_x.shape[0] == 4 * 2
    assert set(ds.train_rounds.tolist()) == set(ds.test_rounds.tolist()) == {3, 4}
    in_range = np.isin(cluster_ds.train_rounds, [3, 4])
    np.testing.assert_array_equal(ds.train_x, cluster_ds.train_x[in_range])
    assert ds.users == cluster_ds.users
    with pytest.raises(ValueError, match=r"empty round range \[4, 4\)"):
        cluster_ds.in_rounds(4, 4)
    # only the shadow devices log rounds 6..10
    with pytest.raises(ValueError, match="at least one row on each side"):
        cluster_ds.in_rounds(6, 11)


def test_capped_draws_the_same_train_rows_per_seed(cluster_ds):
    a, b, c = cluster_ds.capped(3, 1), cluster_ds.capped(3, 1), cluster_ds.capped(3, 2)
    assert {u: int((a.train_users == u).sum()) for u in a.users} == dict.fromkeys(range(4), 3)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    assert not np.array_equal(a.train_rounds, c.train_rounds)
    np.testing.assert_array_equal(a.test_x, cluster_ds.test_x)  # the test side stays whole
    assert a.users == cluster_ds.users
    # each user's k rows are the seeded draw among its train rows in log order
    for u in a.users:
        rows = np.flatnonzero(cluster_ds.train_users == u)
        take = rng_from(1, "max-per-user", u).choice(len(rows), size=3, replace=False)
        np.testing.assert_array_equal(a.train_rounds[a.train_users == u],
                                      np.sort(cluster_ds.train_rounds[rows[take]]))


def test_capped_is_a_no_op_under_the_cap(cluster_ds):
    ds = cluster_ds.capped(10, 0)
    np.testing.assert_array_equal(ds.train_x, cluster_ds.train_x)
    np.testing.assert_array_equal(ds.train_rounds, cluster_ds.train_rounds)
    with pytest.raises(ValueError, match=">= 1"):
        cluster_ds.capped(0, 0)


def test_row_selections_keep_log_order(small_dataset):
    # a federated log is round after round, and each device logs one row a
    # round, so (user, round) names one row of a side
    for users, rounds in (("train_users", "train_rounds"), ("test_users", "test_rounds")):
        position = {key: i for i, key in enumerate(zip(getattr(small_dataset, users).tolist(),
                                                       getattr(small_dataset, rounds).tolist()))}
        for ds in (small_dataset.in_rounds(2, 7), small_dataset.capped(3, 1)):
            kept = [position[key]
                    for key in zip(getattr(ds, users).tolist(), getattr(ds, rounds).tolist())]
            assert kept == sorted(kept)


def two_layer_log(w1, w2):
    """An anonymous and a shadow record of user 0, both of delta (W1, W2)."""
    delta = ParamVector([("W1", np.asarray(w1, dtype=np.float64)),
                         ("W2", np.asarray(w2, dtype=np.float64))])
    return log_of([DeltaRecord(1, 0, 0, ROLE_ANONYMOUS, delta, 1),
                   DeltaRecord(1, 1, 0, ROLE_SHADOW, delta, 1)])


@pytest.mark.parametrize(
    "layer, normalize, w1, w2, want",
    [
        ("W2", True, np.arange(6).reshape(3, 2), [[3, 0, 0], [0, 4, 0]], [0.6, 0, 0, 0, 0.8, 0]),
        ("W1", False, np.arange(6).reshape(3, 2), np.zeros((2, 3)), np.arange(6)),
        ("W2", True, np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(6)),
    ],
    ids=["selects-and-normalizes", "unnormalized-row-major", "zero-row-passes-through"],
)
def test_build_dataset_rows_are_the_chosen_layer(layer, normalize, w1, w2, want):
    ds = build_attack_dataset(two_layer_log(w1, w2), ReprConfig(layer, normalize))
    for x in (ds.train_x, ds.test_x):
        np.testing.assert_allclose(x, [want], atol=1e-15)
        if normalize and np.any(want):
            assert np.linalg.norm(x[0]) == pytest.approx(1.0)


def test_build_dataset_rejects_an_unknown_layer():
    with pytest.raises(KeyError, match="W9"):
        build_attack_dataset(two_layer_log(np.zeros((3, 2)), np.zeros((2, 3))), ReprConfig("W9"))


def test_build_dataset_closed_world_violation():
    # drop user 3's shadow rows: its anonymous rows become unattributable,
    # which re-identification rejects when it scores them, while matching,
    # which needs no user labels, still runs
    records = [
        r for r in cluster_records() if not (r.role == ROLE_SHADOW and r.user_id == 3)
    ]
    ds = build_attack_dataset(log_of(records), REPR)
    assert ds.users == (0, 1, 2)
    assert 3 in set(ds.test_users.tolist())
    violation = r"closed-world violation: test users \[3\] have no training rows"
    with pytest.raises(ValueError, match=violation):
        evaluate_reid(train_reid(ds, "knn"), ds)
    matcher = train_matcher(ds, "siamese", seed=0)
    ev = evaluate_matching(matcher, ds.rows_by_user("train"), ds.rows_by_user("test"), n_pairs=40)
    assert 0.0 <= ev.ap <= 1.0


def test_build_dataset_needs_both_sides():
    only_shadow = [r for r in cluster_records() if r.role == ROLE_SHADOW]
    with pytest.raises(ValueError):
        build_attack_dataset(log_of(only_shadow), REPR)


def test_rows_by_user_grouping(cluster_ds):
    rows = cluster_ds.rows_by_user("train")
    assert set(rows) == {0, 1, 2, 3}
    assert all(v.shape == (10, 8) for v in rows.values())
    rows_test = cluster_ds.rows_by_user("test")
    assert all(v.shape == (5, 8) for v in rows_test.values())


def test_keep_selects_each_side_in_order_and_relabels_unseen_users(cluster_ds):
    kept = cluster_ds.keep(train=(2, 0), test=(1, 3, 2))
    assert kept.users == (0, 2)
    train_rows = np.isin(cluster_ds.train_users, (0, 2))
    np.testing.assert_array_equal(kept.train_x, cluster_ds.train_x[train_rows])
    np.testing.assert_array_equal(kept.train_users, cluster_ds.train_users[train_rows])
    test_rows = np.isin(cluster_ds.test_users, (1, 2, 3))
    np.testing.assert_array_equal(kept.test_x, cluster_ds.test_x[test_rows])
    np.testing.assert_array_equal(kept.test_users, cluster_ds.test_users[test_rows])
    relabelled = cluster_ds.keep((0, 1, 2), (1, 2, 3), unseen=(2, 3), users=(1, 0, UNSEEN_LABEL))
    assert relabelled.users == (1, 0, UNSEEN_LABEL)
    np.testing.assert_array_equal(
        relabelled.train_users,
        np.where(cluster_ds.train_users == 2, UNSEEN_LABEL, cluster_ds.train_users)[
            cluster_ds.train_users != 3],
    )
    assert set(relabelled.test_users.tolist()) == {1, UNSEEN_LABEL}
    with pytest.raises(ValueError, match="each side"):
        cluster_ds.keep(train=(0,), test=(77,))


# -------------------------------------------------------- re-identification


def test_chance_reid_uniform(cluster_ds):
    model = train_reid(cluster_ds, "chance")
    scores = model.predict(cluster_ds.test_x[:3])
    np.testing.assert_array_equal(scores, np.full((3, 4), 0.25))


@pytest.mark.parametrize("method", ["knn", "svm", "mlp"])
def test_separable_clusters_are_reidentified(cluster_ds, method):
    model = train_reid(cluster_ds, method, seed=0)
    ev = evaluate_reid(model, cluster_ds)
    assert ev.mean_ap > 0.95
    assert ev.top1 > 0.95
    assert ev.ioc == pytest.approx(ev.mean_ap / ev.chance_ap)
    assert ev.chance_ap == pytest.approx(0.25)


@pytest.mark.parametrize("method", ["svm", "mlp"])
def test_label_permutation_breaks_the_attack(cluster_ds, method):
    rng = np.random.default_rng(5)
    shuffled = dataclasses.replace(cluster_ds, train_users=rng.permutation(cluster_ds.train_users))
    ev = evaluate_reid(train_reid(shuffled, method, seed=0), shuffled)
    assert ev.mean_ap < 0.55  # near the 0.25 chance line, far below separable


def test_knn_votes_and_tie_break():
    model = KnnReid(
        np.array([[0.0], [0.0], [10.0], [10.0]]),
        np.array([0, 0, 1, 1]),
        classes=(0, 1),
        k=2,
    )
    np.testing.assert_array_equal(model.predict(np.array([[0.1]])), [[1.0, 0.0]])
    np.testing.assert_array_equal(model.predict(np.array([[9.9]])), [[0.0, 1.0]])
    # equidistant training rows: stable sort prefers the lower index
    tie = KnnReid(np.array([[0.0], [0.0]]), np.array([0, 1]), classes=(0, 1), k=1)
    np.testing.assert_array_equal(tie.predict(np.array([[0.0]])), [[1.0, 0.0]])


def test_knn_k_capped_at_train_size():
    model = KnnReid(np.zeros((3, 2)), np.zeros(3, dtype=int), classes=(0,), k=KNN_K)
    assert model.k == 3


def test_svm_scores_are_softmax_rows(cluster_ds):
    model = train_reid(cluster_ds, "svm", seed=0)
    assert isinstance(model, SvmReid)
    scores = model.predict(cluster_ds.test_x)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


def test_reid_determinism(cluster_ds):
    a = evaluate_reid(train_reid(cluster_ds, "mlp", seed=4), cluster_ds)
    b = evaluate_reid(train_reid(cluster_ds, "mlp", seed=4), cluster_ds)
    np.testing.assert_array_equal(a.preds.scores, b.preds.scores)


def test_mlp_fit_trains_through_nn_train(cluster_ds, monkeypatch):
    # the per-layer trace times attack fits by wrapping the module attribute
    # nn.train, so an MLP fit must reach the kernel through it
    calls = []
    real_train = nn.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(nn, "train", counting_train)
    y = cluster_ds.encode(cluster_ds.train_users, cluster_ds.users)
    model = MlpReid.fit(cluster_ds.train_x, y, cluster_ds.users, seed=0)
    assert isinstance(model, MlpReid)
    assert len(calls) == 1


def test_train_reid_rejects_unknown_method(cluster_ds):
    with pytest.raises(ValueError):
        train_reid(cluster_ds, "oracle")


def test_train_reid_rejects_userless_class(cluster_ds):
    crippled = dataclasses.replace(cluster_ds, users=(0, 1, 2, 3, 99))
    with pytest.raises(ValueError, match="99"):
        train_reid(crippled, "knn")


# ------------------------------------------------------------------ matching


def test_sample_balanced_pairs_cross_side():
    rng = np.random.default_rng(0)
    # user id sits in the first coordinate, so authorship is observable
    side_a = {u: np.array([[u, 0.0], [u, 1.0]]) for u in range(4)}
    side_b = {u: np.array([[u, 2.0], [u, 3.0]]) for u in range(4)}
    ia, ib, y = sample_balanced_pairs(side_a, side_b, 100, rng)
    assert ia.dtype == ib.dtype == np.int64
    x_a, x_b = pair_rows(side_a, side_b)
    a, b = x_a[ia], x_b[ib]
    assert y.sum() == 50
    same_author = a[:, 0] == b[:, 0]
    np.testing.assert_array_equal(same_author, y > 0.5)


def test_sample_balanced_pairs_same_side_distinct_rows():
    rng = np.random.default_rng(1)
    side = {u: np.stack([[u, i] for i in range(3)]).astype(float) for u in range(3)}
    ia, ib, y = sample_balanced_pairs(side, side, 60, rng)
    x_a, x_b = pair_rows(side, side)
    assert x_a is x_b  # one stack serves both sides
    a, b = x_a[ia], x_b[ib]
    pos = y > 0.5
    assert (a[pos, 0] == b[pos, 0]).all()
    assert (a[pos, 1] != b[pos, 1]).all()  # never the same row twice
    assert (ia[pos] != ib[pos]).all()
    assert (a[~pos, 0] != b[~pos, 0]).all()


# sha256 of the gathered (a, b, y) bytes, taken when the sampler still
# returned stacked rows; the index form must pick the same pairs
PAIR_DIGESTS = {
    "cross": "ac40dd6a20d9bc56dbcd4d426874ab7deaf21f8c6c2d86d7ba9cf13e32563649",
    "same": "b9203550f4be4100e8ff347abb8c5d1db7a773d5ebfcd7262fb18d30716b92e4",
}


@pytest.mark.parametrize("kind", PAIR_DIGESTS)
def test_sample_balanced_pairs_gathers_the_pinned_pairs(kind):
    # users inserted in reverse order, uneven row counts, partial overlap
    rng = np.random.default_rng(11)
    side_a = {u: rng.normal(size=(1 + u % 3, 5)) for u in reversed(range(5))}
    side_b = {u: rng.normal(size=(2 + u % 2, 5)) for u in reversed(range(1, 7))}
    same = {u: rng.normal(size=(1 + u % 4, 5)) for u in reversed(range(6))}
    sides = (side_a, side_b) if kind == "cross" else (same, same)
    ia, ib, y = sample_balanced_pairs(*sides, 301, np.random.default_rng(3))
    x_a, x_b = pair_rows(*sides)
    gathered = b"".join(v.tobytes() for v in (x_a[ia], x_b[ib], y))
    assert hashlib.sha256(gathered).hexdigest() == PAIR_DIGESTS[kind]


def test_sample_balanced_pairs_error_cases():
    rng = np.random.default_rng(2)
    singles = {u: np.zeros((1, 2)) for u in range(3)}
    with pytest.raises(ValueError, match="positive"):
        sample_balanced_pairs(singles, singles, 10, rng)
    lonely = {0: np.zeros((2, 2))}
    with pytest.raises(ValueError, match="2 users"):
        sample_balanced_pairs(lonely, lonely, 10, rng)


def test_chance_matcher_seeded():
    a = ChanceMatcher(seed=0).predict_pairs(np.zeros((5, 2)), np.zeros((5, 2)))
    b = ChanceMatcher(seed=0).predict_pairs(np.zeros((5, 2)), np.zeros((5, 2)))
    np.testing.assert_array_equal(a, b)
    assert ((a >= 0) & (a <= 1)).all()


class _StubReid:
    """Fixed posteriors, for pinning the product-matcher arithmetic."""

    def __init__(self, rows):
        self.rows = {tuple(r) for r in rows}  # noqa: unused, documents intent
        self._out = np.asarray(rows)

    def predict(self, x):
        return self._out[: np.atleast_2d(x).shape[0]]


def test_mlp_product_matcher_hand_values():
    pa = _StubReid([[0.6, 0.4]])
    matcher = MlpProductMatcher(pa)
    # same stub on both branches: max(0.6*0.6, 0.4*0.4) = 0.36
    assert matcher.predict_pairs(np.zeros(2), np.zeros(2))[0] == pytest.approx(0.36)
    mixed = MlpProductMatcher(_StubReid([[1.0, 0.0], [0.0, 1.0]]))
    scores = mixed.predict_pairs(np.zeros((2, 2)), np.zeros((2, 2)))
    # both rows come from the same stub; row products are [1, 1]
    np.testing.assert_allclose(scores, [1.0, 1.0])


def test_mlp_product_on_clusters(cluster_ds):
    matcher = train_matcher(cluster_ds, "mlp_product", seed=0)
    ev = evaluate_matching(
        matcher, cluster_ds.rows_by_user("train"), cluster_ds.rows_by_user("test"),
        n_pairs=400, seed=0,
    )
    assert ev.ap > 0.95
    assert ev.chance_ap == pytest.approx(0.5)
    assert ev.n_pairs == 400


def test_evaluate_matching_scores_pairs_in_blocks():
    # 8000 pairs of 4-d rows: scored in one batch, the siamese encoder holds
    # several (8000, 128) float64 activations of 8 MB each
    rng = np.random.default_rng(0)
    rows = {u: rng.normal(u, 0.1, size=(5, 4)) for u in range(4)}
    model = SiameseMatcher(SiameseMatcher.init_params(4, seed=0))
    bound = 5 * 2**20
    assert traced_peak(evaluate_matching, model, rows, rows, n_pairs=8000) < bound
    assert traced_peak(one_batch_matching, model, rows, rows, n_pairs=8000) > 5 * bound


def test_evaluate_matching_gathers_the_rows_of_one_block_at_a_time():
    # 8000 pairs of 160-d rows, the width of a default attack vector: the
    # pairs' rows gathered at once are two 10 MB (8000, 160) float64 arrays
    rng = np.random.default_rng(0)
    shadow = {u: rng.normal(u, 0.1, size=(10, 160)) for u in range(4)}
    anon = {u: rng.normal(u, 0.1, size=(5, 160)) for u in range(4)}
    model = SiameseMatcher(SiameseMatcher.init_params(160, seed=0))
    assert traced_peak(evaluate_matching, model, shadow, anon, n_pairs=8000) < 5 * 2**20


def test_rmsprop_first_step_value():
    # s = 0.1*g^2 = 0.1; step = lr*g/(sqrt(0.1)+1e-7) ~= 0.0031623
    params = ParamVector([("w", np.array([0.0]))])
    grad = ParamVector([("w", np.array([1.0]))])
    p, _ = rmsprop_step(params, grad, None)
    assert flat(p)[0] == pytest.approx(-0.0031623, abs=1e-6)


def test_siamese_is_symmetric_and_constant_on_self():
    params = SiameseMatcher.init_params(8, seed=3)
    model = SiameseMatcher(params)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    np.testing.assert_allclose(
        model.predict_pairs(a, b), model.predict_pairs(b, a), atol=1e-12
    )
    # distance 0 collapses the head to sigmoid(out_b), whatever the input
    self_scores = model.predict_pairs(a, a)
    expect = 1.0 / (1.0 + np.exp(-float(params.get("out_b")[0])))
    np.testing.assert_allclose(self_scores, expect, atol=1e-12)


def test_siamese_learns_cluster_matching(cluster_ds):
    matcher = train_matcher(cluster_ds, "siamese", seed=0)
    ev = evaluate_matching(
        matcher, cluster_ds.rows_by_user("train"), cluster_ds.rows_by_user("test"),
        n_pairs=400, seed=0,
    )
    assert ev.ap > 0.9


def test_siamese_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = SiameseMatcher.init_params(5, seed=1)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    _, grad = SiameseMatcher.loss_and_grad(params, a, b, y)
    eps = 1e-6
    vec = flat(params)
    num = np.zeros_like(vec)
    for i in range(vec.size):
        for sign, store in ((1.0, 0), (-1.0, 1)):
            bumped = vec.copy()
            bumped[i] += sign * eps
            p = from_flat(params, bumped)
            loss, _ = SiameseMatcher.loss_and_grad(p, a, b, y)
            if store == 0:
                hi = loss
            else:
                num[i] = (hi - loss) / (2 * eps)
    np.testing.assert_allclose(flat(grad), num, atol=1e-5)


def test_train_matcher_validation(cluster_ds):
    with pytest.raises(ValueError):
        train_matcher(cluster_ds, "psychic")
    one_user = cluster_ds.keep([0], [0])
    assert one_user.users == (0,)
    with pytest.raises(ValueError):
        train_matcher(one_user, "siamese")


# ---------------------------------------------------------------- open world


def test_open_world_split_arithmetic():
    split = open_world_split(range(9), seen_fraction=0.5, seed=0)
    assert len(split.holdout) == 3
    assert len(split.seen) == 3
    assert len(split.unseen) == 3
    combined = sorted(split.seen + split.unseen + split.holdout)
    assert combined == list(range(9))
    again = open_world_split(range(9), seen_fraction=0.5, seed=0)
    assert split == again
    assert open_world_split(range(9), 0.5, seed=1) != split


def test_open_world_split_extremes():
    all_seen = open_world_split(range(9), 1.0, seed=0)
    assert all_seen.unseen == ()
    none_seen = open_world_split(range(9), 0.0, seed=0)
    assert none_seen.seen == ()
    assert len(none_seen.unseen) == 6
    with pytest.raises(ValueError):
        open_world_split(range(9), 1.5)
    with pytest.raises(ValueError):
        open_world_split([1, 2], 0.5)


def open_world_dataset(ds, split):
    """The open-world copy of `ds` that the `open_world` family attacks."""
    return ds.keep(split.holdout + split.seen, split.seen + split.unseen,
                   unseen=split.holdout + split.unseen, users=(*split.seen, UNSEEN_LABEL))


def test_open_world_reid_classes_and_eval():
    records = cluster_records(n_users=9, shadow_rows=8, anon_rows=4)
    ds = build_attack_dataset(log_of(records), REPR)
    split = open_world_split(ds.users, seen_fraction=0.5, seed=0)
    open_ds = open_world_dataset(ds, split)
    model = train_reid(open_ds, "mlp", seed=0)
    assert model.classes == tuple(split.seen) + (UNSEEN_LABEL,)
    ev = evaluate_reid(model, open_ds)
    # seen + unseen users contribute their anonymous rows; holdout stays out
    assert ev.preds.labels.shape[0] == 4 * (len(split.seen) + len(split.unseen))
    assert ev.preds.scores.shape[1] == len(split.seen) + 1
    assert ev.ioc > 0.0


def test_open_world_training_validation(cluster_ds):
    from fedanon.attacks import OpenWorldSplit

    # no holdout users, or none with rows: the `unseen` class has no rows
    for holdout in ((), (77,)):
        split = OpenWorldSplit(seen=(0,), unseen=(1,), holdout=holdout)
        with pytest.raises(ValueError, match=r"users \[-1\] have no training rows"):
            train_reid(open_world_dataset(cluster_ds, split), "mlp")


# ---------------------------------------------------------------- data space


def test_dataspace_dataset_singletons_cover_pool():
    bundle = gen_world(small_cfg())
    ds = dataspace_dataset(bundle, set_size=1, seed=0)
    total_private = sum(len(bundle.private[u]) for u in bundle.user_ids())
    assert ds.test_x.shape[0] == total_private == ds.test_users.shape[0]
    assert ds.users == tuple(bundle.user_ids())
    for u in bundle.user_ids():
        assert int((ds.test_users == u).sum()) == len(bundle.private[u])
        np.testing.assert_array_equal(ds.train_x[ds.train_users == u], bundle.x[bundle.prior[u]])
    # raw examples belong to no federated round
    assert not ds.train_rounds.any() and not ds.test_rounds.any()
    assert ds.train_rounds.shape == ds.train_users.shape
    assert ds.test_rounds.shape == ds.test_users.shape


def test_dataspace_dataset_partition_sizes():
    bundle = gen_world(small_cfg())
    n0 = len(bundle.private[0])
    set_size = 7
    ds = dataspace_dataset(bundle, set_size=set_size, seed=0)
    per_user_groups = int((ds.test_users == 0).sum())
    assert per_user_groups == -(-n0 // set_size)  # ceil division
    big = dataspace_dataset(bundle, set_size=10_000, seed=0)
    assert int((big.test_users == 0).sum()) == 1
    with pytest.raises(ValueError):
        dataspace_dataset(bundle, set_size=0)


def test_dataspace_one_fit_serves_every_set_size():
    bundle = gen_world(small_cfg())
    single, grouped = (dataspace_dataset(bundle, size, seed=0) for size in (1, 7))
    np.testing.assert_array_equal(single.train_x, grouped.train_x)
    np.testing.assert_array_equal(single.train_users, grouped.train_users)
    model = train_reid(single, "mlp", seed=0)
    apart = evaluate_reid(train_reid(grouped, "mlp", seed=0), grouped)
    shared = evaluate_reid(model, grouped)
    np.testing.assert_array_equal(shared.preds.scores, apart.preds.scores)
    assert evaluate_reid(model, single).preds.scores.shape[0] == single.test_x.shape[0]


# ------------------------------------------------------------- bias profiles


def test_class_bias_profile_column_norms():
    np.testing.assert_allclose(
        class_bias_profile(np.array([[3.0, 0.0], [4.0, 0.0]])), [5.0, 0.0]
    )
    with pytest.raises(ValueError):
        class_bias_profile(np.zeros(3))


def test_bias_consistency_cosine():
    assert bias_consistency([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
    assert bias_consistency([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert bias_consistency([0.0, 0.0], [1.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        bias_consistency([1.0], [1.0, 2.0])


def test_user_bias_profiles_sum_each_users_rows_in_log_order():
    # the reference adds one record at a time; another order moves the last bits
    rng = np.random.default_rng(3)
    records = [
        DeltaRecord(t, u + 3 * (role == ROLE_SHADOW), u, role,
                    ParamVector([("W2", rng.normal(size=(3, 5)) * rng.exponential())]), 5)
        for t in range(1, 30) for u in range(3) for role in (ROLE_ANONYMOUS, ROLE_SHADOW)
    ]
    profiles = user_bias_profiles(log_of(records), "W2")
    assert list(profiles) == [(u, role) for u in range(3) for role in (ROLE_ANONYMOUS, ROLE_SHADOW)]
    for (user, role), profile in profiles.items():
        rows = [r.delta.get("W2") for r in records if (r.user_id, r.role) == (user, role)]
        total = rows[0]
        for w in rows[1:]:
            total = total + w
        assert np.array_equal(profile, class_bias_profile(total.T / len(rows)))


def test_user_bias_profiles_average_then_reduce():
    w_a = np.array([[1.0, 0.0], [0.0, 2.0]])
    w_b = np.array([[3.0, 0.0], [0.0, 4.0]])
    records = [
        DeltaRecord(1, 0, 0, ROLE_ANONYMOUS, ParamVector([("W2", w_a)]), 5),
        DeltaRecord(2, 0, 0, ROLE_ANONYMOUS, ParamVector([("W2", w_b)]), 5),
        DeltaRecord(1, 4, 0, ROLE_SHADOW, ParamVector([("W2", w_a)]), 5),
    ]
    profiles = user_bias_profiles(log_of(records), "W2")
    assert set(profiles) == {(0, ROLE_ANONYMOUS), (0, ROLE_SHADOW)}
    # anonymous mean is [[2, 0], [0, 3]]; transposed column norms are the
    # per-class magnitudes [2, 3]
    np.testing.assert_allclose(profiles[(0, ROLE_ANONYMOUS)], [2.0, 3.0])
    np.testing.assert_allclose(profiles[(0, ROLE_SHADOW)], [1.0, 2.0])
