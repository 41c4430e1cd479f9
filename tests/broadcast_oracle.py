"""Reference for the row-blocked kernels: each one as a single broadcast
over (n, m, d), or a single batch of pair scores, the way fedanon computed
it before it worked in blocks. The blocked kernels must agree with these
bit for bit (`np.array_equal`), and stay far below their peak memory. The
matching tests build their attack datasets from per-user rows here too."""

import tracemalloc

import numpy as np

from fedanon.attacks import AttackDataset, sample_balanced_pairs
from fedanon.metrics import average_precision
from fedanon.seeding import rng_from
from fedanon.world import DISTANCE_SAMPLE, _normalize_rows


def broadcast_squared_distances(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def broadcast_intra_inter(bundle, seed):
    """`world.intra_inter_distances` with one (n, n, d) and one (n, k, d)
    difference tensor per user."""
    order = bundle.user_ids()
    everything = np.concatenate([bundle.user_examples[u] for u in order])
    all_feats = _normalize_rows(bundle.x[everything])
    k = min(DISTANCE_SAMPLE, all_feats.shape[0])
    sample_idx = rng_from(seed, "dist-sample").choice(all_feats.shape[0], size=k, replace=False)
    sample = all_feats[sample_idx]
    out = {}
    for u in order:
        feats = _normalize_rows(bundle.x[bundle.user_examples[u]])
        d = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
        intra = float(np.median(d[np.triu_indices(feats.shape[0], k=1)]))
        inter = float(np.median(np.linalg.norm(feats[:, None, :] - sample[None, :, :], axis=2)))
        out[u] = (intra, inter)
    return out


def dataset_of(train, test=None):
    """An attack dataset whose train side holds the rows of `train`, a dict
    of each user's row array, one user after another in dict order, and
    whose test side holds those of `test` (default: `train`'s)."""
    def side(rows):
        users = np.concatenate([np.full(len(x), u, dtype=np.int64) for u, x in rows.items()])
        return np.concatenate(list(rows.values())), users

    train_x, train_users = side(train)
    test_x, test_users = side(train if test is None else test)
    return AttackDataset(train_x, train_users, test_x, test_users, tuple(sorted(train)),
                         np.zeros_like(train_users), np.zeros_like(test_users))


def one_batch_matching(model, ds, sides, n_pairs=2000, seed=0):
    """The scores and AP of `attacks.evaluate_matching` with every pair
    gathered at once and scored in one `predict_pairs` call."""
    x_a, rows_a = ds.side(sides[0])
    x_b, rows_b = (x_a, None) if sides[1] == sides[0] else ds.side(sides[1])
    ia, ib, y = sample_balanced_pairs(rows_a, rows_b, n_pairs, rng_from(seed, "match-eval"))
    scores = model.predict_pairs(x_a[ia], x_b[ib])
    return scores, average_precision(scores, y > 0.5)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that `fn(*args, **kwargs)` allocates, as tracemalloc
    counts them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
