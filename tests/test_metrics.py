"""Average precision is checked against a direct summation oracle on a
thousand random cases, plus the worked examples from the ranking
literature; increase-over-chance is pinned to known report figures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedanon.metrics import (
    ScoredPredictions,
    average_precision,
    chance_level,
    increase_over_chance,
    mean_ap,
    topk_accuracy,
)


def ap_by_summation(scores, labels):
    """Walk the ranking in stable score-descending order and accumulate
    precision at every positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(bool(l) for l in labels)
    total, hits = 0.0, 0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            hits += 1
            total += hits / rank
    return total / n_pos


def test_ap_hand_example():
    scores = np.array([0.9, 0.8, 0.7])
    labels = np.array([True, False, True])
    # precision 1/1 at rank 1 and 2/3 at rank 3, averaged over 2 positives
    assert average_precision(scores, labels) == pytest.approx(0.833333333, abs=1e-6)


def test_ap_perfect_and_inverted():
    labels = np.array([True, True, False, False])
    assert average_precision(np.array([4.0, 3.0, 2.0, 1.0]), labels) == 1.0
    worst = average_precision(np.array([1.0, 2.0, 3.0, 4.0]), labels)
    assert worst == pytest.approx(ap_by_summation([1, 2, 3, 4], labels))


def test_ap_oracle_thousand_cases():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if not labels.any():
            labels[int(rng.integers(n))] = True
        got = average_precision(scores, labels)
        want = ap_by_summation(scores.tolist(), labels.tolist())
        assert abs(got - want) <= 1e-9


def test_ap_ties_use_stable_order():
    scores = np.array([0.5, 0.5, 0.5])
    labels = np.array([False, True, False])
    assert average_precision(scores, labels) == pytest.approx(0.5)


def test_ap_requires_a_positive():
    with pytest.raises(ValueError):
        average_precision(np.array([1.0, 2.0]), np.array([False, False]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-100, 100), min_size=2, max_size=20),
    st.floats(0.1, 10.0),
    st.floats(-50, 50),
)
def test_ap_invariant_under_monotone_transform(scores, a, b):
    # integer scores keep gaps large enough that the affine map cannot
    # merge distinct values into a new tie
    rng = np.random.default_rng(len(scores))
    labels = rng.integers(0, 2, size=len(scores)).astype(bool)
    if not labels.any():
        labels[0] = True
    s = np.array(scores, dtype=np.float64)
    base = average_precision(s, labels)
    assert average_precision(a * s + b, labels) == pytest.approx(base, abs=1e-12)


def test_mean_ap_one_vs_rest():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    labels = np.array([0, 1, 0])
    result = mean_ap(ScoredPredictions(scores=scores, labels=labels))
    assert set(result.per_label) == {0, 1}
    assert result.mean_ap == pytest.approx(
        (result.per_label[0] + result.per_label[1]) / 2
    )
    assert result.skipped == ()


def test_mean_ap_skips_absent_labels():
    scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
    labels = np.array([0, 1])
    result = mean_ap(ScoredPredictions(scores=scores, labels=labels))
    assert result.skipped == (2,)
    assert 2 not in result.per_label


@st.composite
def scored_predictions(draw):
    n = draw(st.integers(1, 300))  # past 128 rows a sum runs pairwise
    n_labels = draw(st.integers(1, 6))
    # few distinct scores, so rankings tie; some labels may be absent
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    scores = draw(arrays(np.float64, (n, n_labels), elements=values))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, n_labels - 1)))
    return ScoredPredictions(scores=scores, labels=labels)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scored_predictions())
def test_mean_ap_per_label_is_average_precision_of_each_column_bitwise(preds):
    result = mean_ap(preds)
    present = [c for c in range(preds.n_labels) if (preds.labels == c).any()]
    assert list(result.per_label) == present
    assert result.skipped == tuple(c for c in range(preds.n_labels) if c not in present)
    for c in present:
        one = average_precision(preds.scores[:, c], preds.labels == c)
        assert np.float64(result.per_label[c]).tobytes() == np.float64(one).tobytes()


def test_topk_accuracy_hand_case():
    scores = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1], [0.3, 0.3, 0.4]])
    preds = ScoredPredictions(scores=scores, labels=np.array([1, 2, 2]))
    assert topk_accuracy(preds, k=1) == pytest.approx(2 / 3)
    assert topk_accuracy(preds, k=2) == pytest.approx(2 / 3)
    assert topk_accuracy(preds, k=3) == 1.0


def test_topk_ties_stable():
    # equal scores resolve by column order, first column wins
    scores = np.array([[0.5, 0.5]])
    assert topk_accuracy(ScoredPredictions(scores=scores, labels=np.array([0])), k=1) == 1.0
    assert topk_accuracy(ScoredPredictions(scores=scores, labels=np.array([1])), k=1) == 0.0


def test_increase_over_chance_report_figures():
    # the two flagship ratios quoted from the benchmark this mirrors
    assert increase_over_chance(0.537, 1 / 327) == pytest.approx(175.6, abs=0.1)
    assert increase_over_chance(0.91, 1 / 53) == pytest.approx(48.2, abs=0.1)


def test_increase_over_chance_rejects_nonpositive_chance():
    with pytest.raises(ValueError):
        increase_over_chance(0.5, 0.0)
    with pytest.raises(ValueError):
        increase_over_chance(0.5, -0.1)


def test_chance_level_balanced_and_skewed():
    per_label, mean = chance_level(np.array([0, 0, 1, 1]), 2)
    assert per_label == {0: 0.5, 1: 0.5}
    assert mean == pytest.approx(0.5)
    # mean of per-label prevalences (0.75 + 0.25)/2
    _, mean = chance_level(np.array([0, 0, 0, 1]), 2)
    assert mean == pytest.approx(0.5)
    per_label, mean = chance_level(np.array([2, 2, 2, 2, 7]), 8)
    assert per_label == {2: 0.8, 7: 0.2}
    assert mean == pytest.approx((0.8 + 0.2) / 2)


def test_scored_predictions_shape_validation():
    with pytest.raises(ValueError):
        ScoredPredictions(scores=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))
