"""Gradient correctness is established against central finite differences
before anything downstream is trusted; optimizer updates and the two
hand-computable device scenarios are pinned to exact values."""

import numpy as np
import pytest

from fedanon import nn
from fedanon.nn import ModelSpec, OptimizerConfig
from sequential_oracle import (
    backward, compute_loss, flat, from_flat, optimizer_step, oracle_forward, oracle_train,
)

RELU_KINK_GUARD = 1e-4  # keep finite-difference probes away from max(0, .) kinks


def random_spec(rng):
    kind = rng.choice(["linear", "mlp1"])
    in_dim = int(rng.integers(1, 6))
    out_dim = int(rng.integers(1, 5))
    hid = int(rng.integers(1, 6)) if kind == "mlp1" else 0
    return ModelSpec(kind=kind, input_dim=in_dim, hidden_dim=hid, output_dim=out_dim)


def random_batch(rng, spec, n):
    x = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.output_dim, size=n)
    return x, y


def numeric_grad(spec, params, batch, h=1e-6):
    """Central differences on the flattened parameter vector."""
    vec = flat(params)
    out = np.empty_like(vec)
    for i in range(vec.size):
        up = vec.copy(); up[i] += h
        dn = vec.copy(); dn[i] -= h
        lu = compute_loss(spec, from_flat(params, up), batch)
        ld = compute_loss(spec, from_flat(params, dn), batch)
        out[i] = (lu - ld) / (2 * h)
    return out


def hidden_far_from_kink(spec, params, x):
    if spec.kind != "mlp1":
        return True
    pre = x @ params["W1"].T + params["b1"]
    return np.all(np.abs(pre) > RELU_KINK_GUARD)


def test_gradients_match_finite_differences():
    # acceptance-grade oracle: 100 random model/batch combinations
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        spec = random_spec(rng)
        params = nn.init_params(spec, seed=int(rng.integers(1 << 30)))
        batch = random_batch(rng, spec, n=int(rng.integers(1, 5)))
        if not hidden_far_from_kink(spec, params, batch[0]):
            continue
        analytic = flat(backward(spec, params, batch))
        numeric = numeric_grad(spec, params, batch)
        denom = max(np.linalg.norm(numeric), 1e-8)
        rel = np.linalg.norm(analytic - numeric) / denom
        assert rel <= 1e-4, f"spec={spec} rel={rel}"
        checked += 1


def test_param_layouts():
    lin = ModelSpec(kind="linear", input_dim=3, output_dim=2)
    assert lin.layout() == [("W", (2, 3)), ("b", (2,))]
    mlp = ModelSpec(kind="mlp1", input_dim=3, hidden_dim=4, output_dim=2)
    assert mlp.layout() == [("W1", (4, 3)), ("b1", (4,)), ("W2", (2, 4)), ("b2", (2,))]


def test_init_params_biases_zero_weights_bounded():
    spec = ModelSpec(kind="mlp1", input_dim=5, hidden_dim=4, output_dim=3)
    params = nn.init_params(spec, seed=11)
    # one array per layer, in layout order
    assert [(n, a.shape) for n, a in params.items()] == spec.layout()
    assert np.all(params["b1"] == 0.0)
    assert np.all(params["b2"] == 0.0)
    a1 = np.sqrt(6.0 / (5 + 4))
    assert np.all(np.abs(params["W1"]) <= a1)
    a2 = np.sqrt(6.0 / (4 + 3))
    assert np.all(np.abs(params["W2"]) <= a2)
    again = nn.init_params(spec, seed=11)
    assert np.array_equal(flat(params), flat(again))


def test_softmax_rows_normalized_and_stable():
    z = np.array([[1000.0, 1000.0, 1000.0], [-1000.0, 0.0, 1000.0]])
    p = nn.softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(np.isfinite(p))
    assert np.allclose(p[0], [1 / 3, 1 / 3, 1 / 3])


def test_sigmoid_extremes_finite():
    z = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = nn.sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    assert np.allclose(s + nn.sigmoid(-z), 1.0)


def test_softmax_ce_loss_uniform_prediction():
    # zero logits -> uniform softmax -> loss = log(C)
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=4)
    params = {"W": np.zeros((4, 2)), "b": np.zeros(4)}
    loss = compute_loss(spec, params, (np.ones((3, 2)), np.array([0, 1, 3])))
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_sgd_momentum_two_steps():
    # v = mu*v - lr*g; w = w + v, worked by hand for two iterations
    cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9)
    params = {"w": np.array([1.0])}
    grad = {"w": np.array([2.0])}
    p1, state = optimizer_step(None, params, grad, cfg, iteration=0)
    assert flat(p1)[0] == pytest.approx(0.8)
    p2, _ = optimizer_step(state, p1, grad, cfg, iteration=1)
    # v2 = 0.9*(-0.2) - 0.2 = -0.38
    assert flat(p2)[0] == pytest.approx(0.42)


def test_sgd_lr_decay_schedule():
    cfg = OptimizerConfig(learning_rate=1.0, lr_decay=1.0)
    params = {"w": np.array([0.0])}
    grad = {"w": np.array([1.0])}
    p, state = optimizer_step(None, params, grad, cfg, iteration=0)
    assert flat(p)[0] == pytest.approx(-1.0)
    p, _ = optimizer_step(state, p, grad, cfg, iteration=1)
    # eta_1 = 1/(1+1) = 0.5
    assert flat(p)[0] == pytest.approx(-1.5)


def test_train_loss_decreases_on_separable_data():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-2, 0.3, size=(40, 2)), rng.normal(2, 0.3, size=(40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    spec = ModelSpec(kind="mlp1", input_dim=2, hidden_dim=6, output_dim=2)
    params = nn.init_params(spec, seed=1)
    before = compute_loss(spec, params, (x, y))
    layers = nn.train(spec, params, x, y, [np.arange(80)], epochs=5, batch_size=8,
                      config=OptimizerConfig(0.1), seeds=[2])
    trained = {name: a[0] for (name, _), a in zip(spec.layout(), layers)}
    after = compute_loss(spec, trained, (x, y))
    assert after < before * 0.5


def test_train_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    spec = ModelSpec(kind="linear", input_dim=3, output_dim=2)
    params = nn.init_params(spec, seed=4)

    def train(seed):
        return nn.train(spec, params, x, y, [np.arange(30)], epochs=3, batch_size=7,
                        config=OptimizerConfig(0.05), seeds=[seed])

    a, b, c = train(9), train(9), train(10)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not all(np.array_equal(u, v) for u, v in zip(a, c))


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
def test_train_matches_sequential_oracle(kind):
    # momentum, lr decay and a last partial batch of one row (41 = 5*8 + 1)
    rng = np.random.default_rng(8)
    spec = ModelSpec(kind=kind, input_dim=4, hidden_dim=6 if kind == "mlp1" else 0, output_dim=3)
    x = rng.normal(size=(41, 4))
    y = rng.integers(0, 3, size=41)
    params = nn.init_params(spec, seed=3)
    config = OptimizerConfig(0.05, momentum=0.9, lr_decay=1e-2)
    got = nn.train(spec, params, x, y, [np.arange(41)], epochs=3, batch_size=8, config=config,
                   seeds=[4])
    want = oracle_train(spec, params, x, y, epochs=3, batch_size=8, config=config, seed=4)
    assert [a.shape for a in got] == [(1, *b.shape) for b in want.values()]
    for a, b in zip(got, want.values()):
        assert np.array_equal(a[0], b)


def uneven_models(spec, rng):
    """One shared (X, Y) pair and seven row sets of it for a batch of 4: a
    one-row model, one whose size equals the batch, and sizes whose
    minibatches split a step into stacks of 1, 2, 3 and 4 rows. The sets
    are unsorted and overlap, as a bundle's splits may."""
    x = rng.normal(size=(20, spec.input_dim))
    y = rng.integers(0, spec.output_dim, size=20)
    rows = [rng.choice(20, size=n, replace=False) for n in (1, 4, 6, 7, 9, 13, 2)]
    return x, y, rows


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
def test_lockstep_momentum_matches_sequential_oracle(kind):
    # partial stacks gather, update and write back both the layers and the
    # momentum velocity; every model must still end where it trains alone
    rng = np.random.default_rng(12)
    spec = ModelSpec(kind=kind, input_dim=3, hidden_dim=5 if kind == "mlp1" else 0, output_dim=4)
    params = nn.init_params(spec, seed=7)
    x, y, rows = uneven_models(spec, rng)
    seeds = [100 + k for k in range(len(rows))]
    config = OptimizerConfig(0.05, momentum=0.9, lr_decay=1e-3)
    got = nn.train(spec, params, x, y, rows, epochs=2, batch_size=4, config=config, seeds=seeds)
    # one stack per layer, model k's parameters at index k
    assert [a.shape for a in got] == [(len(rows), *shape) for _, shape in spec.layout()]
    for k, (r, seed) in enumerate(zip(rows, seeds)):
        want = oracle_train(spec, params, x[r], y[r], epochs=2, batch_size=4, config=config,
                            seed=seed)
        for a, b in zip(got, want.values()):
            assert np.array_equal(a[k], b)


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
def test_consecutive_models_update_in_place_to_the_bits_of_a_gathered_stack(kind, monkeypatch):
    # models 2-3 and model 5 always step alone by row count, 0, 1 and 4
    # together: a range is a slice, updated in place, and the rest is
    # gathered and written back
    rng = np.random.default_rng(14)
    spec = ModelSpec(kind=kind, input_dim=3, hidden_dim=5 if kind == "mlp1" else 0, output_dim=4)
    params = nn.init_params(spec, seed=7)
    x, y = rng.normal(size=(20, 3)), rng.integers(0, 4, size=20)
    rows = [rng.choice(20, size=n, replace=False) for n in (6, 6, 3, 3, 6, 1)]
    seeds = range(len(rows))
    plan = nn._plan(rows, 2, 4, seeds, y, spec.output_dim)
    assert {(m.start, m.stop) for _, m, _, _ in plan if isinstance(m, slice)} == {(2, 4), (5, 6)}
    assert {tuple(m.tolist()) for _, m, _, _ in plan if not isinstance(m, slice)} == {(0, 1, 4)}
    config = OptimizerConfig(0.05, momentum=0.9, lr_decay=1e-3)

    def train():
        return nn.train(spec, params, x, y, rows, epochs=2, batch_size=4, config=config,
                        seeds=seeds)

    in_place = train()
    plan_of = nn._plan
    monkeypatch.setattr(nn, "_plan", lambda *a: [
        (t, np.arange(m.start, m.stop) if isinstance(m, slice) else m, idx, hit)
        for t, m, idx, hit in plan_of(*a)])
    for a, b in zip(in_place, train()):
        assert np.array_equal(a, b)


def test_lockstep_leaves_inputs_untouched():
    rng = np.random.default_rng(13)
    spec = ModelSpec(kind="mlp1", input_dim=3, hidden_dim=5, output_dim=4)
    params = nn.init_params(spec, seed=7)
    x, y, rows = uneven_models(spec, rng)
    params_before = from_flat(params, flat(params))
    before = [a.copy() for a in (x, y, *rows)]
    got = nn.train(spec, params, x, y, rows, epochs=2, batch_size=4,
                   config=OptimizerConfig(0.05, momentum=0.9), seeds=range(len(rows)))
    for a, b in zip(params.values(), params_before.values()):
        assert np.array_equal(a, b)
    for a, b in zip((x, y, *rows), before):
        assert np.array_equal(a, b)
    for i, a in enumerate(got):
        assert not any(np.shares_memory(a, b) for b in params.values())
        assert not any(np.shares_memory(a, b) for b in got[i + 1:])


def test_lockstep_rejects_seed_count_mismatch_and_bad_row_sets():
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=2)
    params = nn.init_params(spec, seed=1)
    x, y = np.ones((3, 2)), np.array([0, 1, 1])

    def train(rows, seeds):
        nn.train(spec, params, x, y, rows, epochs=1, batch_size=2, config=OptimizerConfig(0.1),
                 seeds=seeds)

    with pytest.raises(ValueError, match="1 seeds for 2 row sets"):
        train([[0, 1], [2]], [0])
    with pytest.raises(ValueError, match="0 seeds for 0 row sets"):
        train([], [])
    for bad in ([], [0, 3], [-1, 0]):
        with pytest.raises(ValueError, match=r"row ids in \[0, 3\)"):
            train([[0, 1], bad], [0, 1])


@pytest.mark.parametrize("labels", [[0.0, 1.0, 1.0], [0.0, 0.5, 1.0]])
def test_train_rejects_labels_that_are_not_an_integer_array(labels):
    # both callers pass int64 class indices; a float array is refused even
    # when every value is whole
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=2)
    params = nn.init_params(spec, seed=1)
    with pytest.raises(ValueError, match="targets must be integer class indices"):
        nn.train(spec, params, np.ones((3, 2)), np.array(labels), [np.arange(3)], epochs=1,
                 batch_size=2, config=OptimizerConfig(0.1), seeds=[0])


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
def test_forward_batch_gives_the_bits_of_plain_2d_products(kind):
    # prediction runs the kernel's stacked forward pass on one model
    rng = np.random.default_rng(14)
    spec = ModelSpec(kind=kind, input_dim=32, hidden_dim=16 if kind == "mlp1" else 0,
                     output_dim=10)
    like = nn.init_params(spec, seed=0)
    for n in (1, 4, 80, 400):
        params = from_flat(like, rng.normal(size=flat(like).size))
        x = rng.normal(size=(n, 32))
        assert np.array_equal(nn.forward_batch(spec, params, x), oracle_forward(spec, params, x)[1])


def test_train_zero_epochs_returns_fresh_arrays():
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=2)
    params = nn.init_params(spec, seed=1)
    x, y = np.ones((3, 2)), np.array([0, 1, 1])
    out = nn.train(spec, params, x, y, [np.arange(3)], epochs=0, batch_size=2,
                   config=OptimizerConfig(0.1), seeds=[0])
    for a, b in zip(out, params.values()):
        assert np.array_equal(a[0], b)
        assert not np.shares_memory(a, b)


def test_predict_proba_rows_sum_to_one(small_bundle):
    spec = ModelSpec(kind="mlp1", input_dim=16, hidden_dim=8, output_dim=5)
    params = nn.init_params(spec, seed=0)
    x = small_bundle.x[small_bundle.background[:20]]
    p = nn.predict_proba(spec, params, x)
    assert p.shape == (20, 5)
    assert np.allclose(p.sum(axis=1), 1.0)


# --- the flat-vector round trip of the finite-difference checks ------------


def test_flat_roundtrip():
    params = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}
    vec = flat(params)
    back = from_flat(params, vec * 2.0)
    assert np.array_equal(flat(back), vec * 2.0)
    assert [(n, a.shape) for n, a in back.items()] == [("a", (2, 3)), ("b", (2,))]


def test_optimizer_step_does_not_mutate_inputs():
    params = {"w": np.array([1.0, 2.0])}
    grad = {"w": np.array([0.5, 0.5])}
    snapshot = flat(params).copy()
    optimizer_step(None, params, grad, OptimizerConfig(0.1, momentum=0.5), iteration=0)
    assert np.array_equal(flat(params), snapshot)
