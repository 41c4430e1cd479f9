"""Row-blocked kernels against their one-shot broadcast forms: the block
slicing covers every row once, and the distance, k-means and pair-scoring
results are bitwise those of the broadcast, also when the row count does
not divide the block, is below it, or is 1."""

import numpy as np
import pytest

from fedanon import mitigation
from fedanon.attacks import (
    MLP_HIDDEN,
    ChanceMatcher,
    MlpProductMatcher,
    SiameseMatcher,
    evaluate_matching,
    train_reid,
)
from fedanon.blocks import BLOCK_BYTES, row_blocks, squared_distances
from fedanon.mitigation import cluster_background
from fedanon.world import gen_world, intra_inter_distances

from broadcast_oracle import broadcast_intra_inter, broadcast_squared_distances, one_batch_matching
from test_world import small_cfg


@pytest.mark.parametrize("n, row_bytes", [(0, 8), (1, 8), (7, 2**17), (8, 2**17), (9, 2**17),
                                          (1000, 2560), (3, 2 * BLOCK_BYTES)])
def test_row_blocks_cover_every_row_once_within_the_budget(n, row_bytes):
    slices = list(row_blocks(n, row_bytes))
    covered = np.concatenate([np.arange(n)[s] for s in slices]) if slices else np.arange(0)
    np.testing.assert_array_equal(covered, np.arange(n))
    step = max(1, BLOCK_BYTES // row_bytes)
    assert all(s.stop - s.start == step for s in slices)  # the last slice may overrun n
    assert len(slices) == -(-n // step)


# (m, d) = (500, 32) gives 8 rows per block, (10, 32) gives 409
@pytest.mark.parametrize("n", [1, 5, 8, 13, 160])
@pytest.mark.parametrize("m, d", [(500, 32), (10, 32), (1, 3)])
def test_squared_distances_equal_the_broadcast(n, m, d):
    rng = np.random.default_rng(n * 1000 + m)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    out = squared_distances(a, b)
    assert out.shape == (n, m)
    np.testing.assert_array_equal(out, broadcast_squared_distances(a, b))
    # the square root is the broadcast L2 norm, bit for bit
    norm = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    np.testing.assert_array_equal(np.sqrt(out), norm)


@pytest.mark.parametrize("n_per_user", [5, 40, 203])
def test_intra_inter_distances_equal_the_broadcast(n_per_user):
    # pools of 4, 32 and 162 rows: below, across and far over a block
    bundle = gen_world(small_cfg(users=3, n_per_user=n_per_user, background_size=20))
    assert intra_inter_distances(bundle, 4) == broadcast_intra_inter(bundle, 4)


@pytest.mark.parametrize("n, m", [(1, 1), (7, 3), (410, 10), (1000, 10), (1234, 37)])
def test_kmeans_equals_the_broadcast_lloyd_step(monkeypatch, n, m):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 32))
    blocked = cluster_background(x, m, seed=2)
    monkeypatch.setattr(mitigation, "squared_distances", broadcast_squared_distances)
    broadcast = cluster_background(x, m, seed=2)
    np.testing.assert_array_equal(blocked.assignments, broadcast.assignments)
    np.testing.assert_array_equal(blocked.centroids, broadcast.centroids)
    assert blocked.sse_history == broadcast.sse_history


class _RecordingMatcher:
    """Scores a pair by its first input column; records each batch size."""

    def __init__(self):
        self.batches = []

    def predict_pairs(self, a, b):
        self.batches.append(len(a))
        return a[:, 0] - b[:, 0]


def test_evaluate_matching_scores_consecutive_blocks_of_pairs():
    rng = np.random.default_rng(0)
    rows = {u: rng.normal(u, 1.0, size=(4, 3)) for u in range(3)}
    model = _RecordingMatcher()
    ev = evaluate_matching(model, rows, rows, n_pairs=1300, seed=1)
    step = BLOCK_BYTES // (2 * MLP_HIDDEN * 8)  # 3 input columns < the 128-unit hidden layer
    assert model.batches == [step, step, 1300 - 2 * step]
    assert ev.ap == one_batch_matching(_RecordingMatcher(), rows, rows, 1300, seed=1)[1]


@pytest.mark.parametrize("n_pairs", [1300, 2000])
def test_evaluate_matching_equals_one_batch(small_dataset, n_pairs):
    shadow, anon = small_dataset.rows_by_user("train"), small_dataset.rows_by_user("test")
    models = [
        ChanceMatcher(seed=3),
        MlpProductMatcher(train_reid(small_dataset, "mlp", seed=1)),
        SiameseMatcher.fit(shadow, seed=2),
    ]
    for model in models:
        oracle = ChanceMatcher(seed=3) if isinstance(model, ChanceMatcher) else model
        ev = evaluate_matching(model, shadow, anon, n_pairs=n_pairs, seed=5)
        assert ev.ap == one_batch_matching(oracle, shadow, anon, n_pairs, seed=5)[1]
