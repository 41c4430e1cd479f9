"""Federation mechanics: device update hand values, the aggregation rule,
sampling arithmetic, agreement of the lockstep round with the sequential
per-device oracle, and the equivalence oracle (one round of full-batch
single-epoch federation over all devices must equal one pooled gradient
step on the union of their data)."""

import numpy as np
import pytest

from fedanon import nn
from fedanon.deltastore import ROLES, DeltaLog, DeltaRecord, ParamVector
from fedanon.federated import (
    ROLE_ANONYMOUS,
    ROLE_SHADOW,
    DeviceState,
    RoundConfig,
    aggregate,
    build_devices,
    evaluate_task,
    run_federated,
    sample_devices,
    sampled_users,
    server_round,
)
from fedanon.nn import ModelSpec
from fedanon.seeding import seed_from
from fedanon.world import gen_world

from sequential_oracle import (
    backward, delta_of, flat, gradient_step, log_of, oracle_server_round,
)
from test_world import small_cfg


# two identical scalar examples of class 0
X1, Y1 = np.ones((2, 1)), np.zeros(2, dtype=np.int64)


def two_class_device(device_id=0):
    """A device holding both rows of (X1, Y1)."""
    return DeviceState(device_id=device_id, user_id=0, role=ROLE_ANONYMOUS, rows=np.arange(2))


LINEAR2 = ModelSpec(kind="linear", input_dim=1, output_dim=2)


def zero_params():
    return {"W": np.zeros((2, 1)), "b": np.zeros(2)}


def one_device_record(device, cfg, round_t=1, delta_hook=None):
    """The record of a round whose only device is `device`."""
    _, records = server_round(LINEAR2, zero_params(), X1, Y1, [device], cfg, round_t, delta_hook)
    (rec,) = records
    return rec


def test_device_update_one_epoch_hand_value():
    # softmax of zero logits is exactly [0.5, 0.5], so one full-batch step
    # moves W, and b alike since the input is 1, by eta * [0.5, -0.5]
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.8, rounds=1, seed=0)
    rec = one_device_record(two_class_device(), cfg)
    np.testing.assert_allclose(delta_of(rec)["W"], [[0.4], [-0.4]], atol=1e-15)
    np.testing.assert_allclose(delta_of(rec)["b"], [0.4, -0.4], atol=1e-15)
    assert rec.n_k == 2
    assert rec.round_t == 1
    assert rec.role == ROLE_ANONYMOUS


def test_device_update_two_epochs_hand_value():
    # second step sees logits W + b = [0.8, -0.8]; p0 = sigmoid(1.6), so
    # W and b gain another eta * (1 - p0) in each coordinate
    cfg = RoundConfig(fraction_c=1.0, local_epochs=2, batch_size=8, eta=0.8, rounds=1, seed=0)
    rec = one_device_record(two_class_device(), cfg)
    p0 = 1.0 / (1.0 + np.exp(-1.6))
    expect = 0.4 + 0.8 * (1.0 - p0)
    np.testing.assert_allclose(delta_of(rec)["W"], [[expect], [-expect]], atol=1e-12)
    np.testing.assert_allclose(delta_of(rec)["b"], [expect, -expect], atol=1e-12)


def test_device_update_caps_batch_at_device_size():
    # batch_size far above n_k must degrade to full-batch, not crash
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=10_000, eta=0.8, rounds=1, seed=0)
    rec = one_device_record(two_class_device(), cfg)
    np.testing.assert_allclose(delta_of(rec)["W"], [[0.4], [-0.4]], atol=1e-15)


def test_device_update_delta_hook_applied():
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.8, rounds=1, seed=0)
    seen = {}

    def spy(round_t, device, delta):
        seen["args"] = (round_t, device.device_id)
        return delta * 0.0

    rec = one_device_record(two_class_device(device_id=7), cfg, 3, spy)
    assert seen["args"] == (3, 7)
    np.testing.assert_array_equal(delta_of(rec)["W"], np.zeros((2, 1)))


# device sizes against batch_size 4: 1, 2 and 3 are below it, 5, 9 and 13
# are 1 (mod 4) and end each epoch on a one-row batch, 8 and 12 split evenly
ORACLE_SIZES = (13, 1, 8, 5, 2, 9, 3, 12)


def assorted_devices(spec, sizes=ORACLE_SIZES, seed=0):
    """Columns (x, y) and one device per size, holding that many distinct
    rows of them in shuffled order; the row sets overlap."""
    rng = np.random.default_rng(seed)
    pool = 2 * max(sizes)
    x = rng.normal(size=(pool, spec.input_dim))
    y = rng.integers(spec.output_dim, size=pool)
    devices = [
        DeviceState(device_id=i, user_id=i // 2, role=ROLES[i % 2],
                    rows=rng.choice(pool, size=n, replace=False))
        for i, n in enumerate(sizes)
    ]
    return x, y, devices


def assert_params_equal(a, b):
    assert list(a) == list(b)
    for x, y in zip(a.values(), b.values()):
        assert np.array_equal(x, y)


def assert_rounds_equal(got, want):
    """A round's (params, DeltaLog) equals the oracle's (params, records)."""
    (got_params, got_log), (want_params, want_records) = got, want
    assert_params_equal(got_params, want_params)
    columns = (got_log.round, got_log.device, got_log.user, got_log.role, got_log.n_k)
    assert list(zip(*(c.tolist() for c in columns))) == [
        (r.round_t, r.device_id, r.user_id, r.role, r.n_k) for r in want_records
    ]
    assert np.array_equal(got_log.deltas, np.stack([flat(delta_of(r)) for r in want_records]))


ORACLE_SPECS = [
    ModelSpec(kind="linear", input_dim=5, output_dim=3),
    ModelSpec(kind="mlp1", input_dim=5, hidden_dim=4, output_dim=3),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize(
    "schedule",
    [
        dict(fraction_c=1.0, local_epochs=1),
        dict(fraction_c=1.0, local_epochs=2),
        dict(fraction_c=0.5, local_epochs=1),
    ],
    ids=["all-1epoch", "all-2epochs", "half-1epoch"],
)
def test_server_round_matches_sequential_oracle(spec, schedule):
    x, y, devices = assorted_devices(spec)
    cfg = RoundConfig(batch_size=4, eta=0.8, rounds=3, seed=11, **schedule)
    params = nn.init_params(spec, seed=5)
    for round_t in range(1, cfg.rounds + 1):
        got = server_round(spec, params, x, y, devices, cfg, round_t)
        want = oracle_server_round(spec, params, x, y, devices, cfg, round_t)
        assert_rounds_equal(got, want)
        params = got[0]


def test_delta_hook_sees_each_sampled_device_once_in_id_order():
    spec = ORACLE_SPECS[1]
    x, y, devices = assorted_devices(spec)
    cfg = RoundConfig(fraction_c=0.5, local_epochs=1, batch_size=4, eta=0.8, rounds=1, seed=2)
    params = nn.init_params(spec, seed=5)
    calls = []

    def spy(round_t, device, delta):
        calls.append((round_t, device.device_id, device.role, delta.copy()))
        return delta * 0.5

    got = server_round(spec, params, x, y, devices, cfg, 4, spy)
    want = oracle_server_round(spec, params, x, y, devices, cfg, 4)
    assert [c[1] for c in calls] == [r.device_id for r in want[1]]
    assert len(calls) == 4
    for (round_t, device_id, role, delta), rec in zip(calls, want[1]):
        assert (round_t, role) == (4, devices[device_id].role)
        assert np.array_equal(delta, flat(delta_of(rec)))
    halved = oracle_server_round(spec, params, x, y, devices, cfg, 4, lambda t, d, dl: dl * 0.5)
    assert_rounds_equal(got, halved)


@pytest.mark.parametrize("bad_label", [-1, 3])
def test_server_round_rejects_bad_labels_before_training(bad_label):
    spec = ORACLE_SPECS[0]  # output_dim 3
    x, y, devices = assorted_devices(spec, sizes=(4, 4, 4))
    y[devices[-1].rows[0]] = bad_label
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=4, eta=0.8, rounds=1, seed=0)
    calls = []

    def spy(round_t, device, delta):
        calls.append(device.device_id)
        return delta

    with pytest.raises(ValueError, match="class index out of range"):
        server_round(spec, nn.init_params(spec, seed=0), x, y, devices, cfg, 1, spy)
    assert calls == []


def fake_record(delta_w, n_k, device_id=0):
    return DeltaRecord(
        round_t=1,
        device_id=device_id,
        user_id=0,
        role=ROLE_ANONYMOUS,
        delta=ParamVector([("W", np.asarray(delta_w, dtype=np.float64))]),
        n_k=n_k,
    )


def test_aggregate_weights_by_subset_counts():
    base = {"W": np.array([[1.0], [1.0]])}
    records = [fake_record([[3.0], [0.0]], n_k=30), fake_record([[0.0], [1.0]], n_k=10)]
    out = aggregate(base, log_of(records))
    # weights 0.75 and 0.25 over the participating records only
    np.testing.assert_allclose(out["W"], [[1.0 + 2.25], [1.0 + 0.25]], atol=1e-15)


def test_aggregate_single_record_is_plain_add():
    base = {"W": np.zeros((2, 1))}
    out = aggregate(base, log_of([fake_record([[2.0], [-1.0]], n_k=5)]))
    np.testing.assert_array_equal(out["W"], [[2.0], [-1.0]])


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate(zero_params(), DeltaLog.empty(0, LINEAR2.layout(), rounds=1))


def test_build_devices_layout():
    bundle = gen_world(small_cfg())
    devices = build_devices(bundle)
    u = len(bundle.user_ids())
    assert len(devices) == 2 * u
    for i, d in enumerate(devices[:u]):
        assert (d.device_id, d.user_id, d.role) == (i, i, ROLE_ANONYMOUS)
        assert d.rows is bundle.private[i]  # the split itself, not a copy
    for i, d in enumerate(devices[u:]):
        assert (d.device_id, d.user_id, d.role) == (u + i, i, ROLE_SHADOW)
        assert d.rows is bundle.prior[i]
        assert d.n_k == len(bundle.prior[i])


def test_sampled_users_replays_the_run_without_a_world():
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="linear", input_dim=12, output_dim=5)
    cfg = RoundConfig(fraction_c=0.25, batch_size=8, eta=0.5, rounds=4, seed=3)
    logged = {(r.round_t, r.role, r.user_id) for r in run_federated(bundle, spec, cfg).records}
    sampled = sampled_users(len(bundle.user_ids()), cfg)
    assert {(t + 1, role, u) for role, rounds in sampled.items()
            for t, users in enumerate(rounds) for u in users} == logged


def test_device_state_rejects_bad_role_and_empty():
    rows = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        DeviceState(device_id=0, user_id=0, role="spy", rows=rows)
    with pytest.raises(ValueError):
        DeviceState(device_id=0, user_id=0, role=ROLE_ANONYMOUS, rows=rows[:0])


def test_server_round_samples_expected_count():
    devices = [two_class_device(device_id=i) for i in range(12)]
    for frac, want in [(1.0, 12), (0.5, 6), (0.25, 3), (0.04, 1)]:
        cfg = RoundConfig(fraction_c=frac, local_epochs=1, batch_size=8, eta=0.1, rounds=1, seed=0)
        _, records = server_round(LINEAR2, zero_params(), X1, Y1, devices, cfg, round_t=1)
        assert len(records) == want
        ids = [r.device_id for r in records]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)  # without replacement


def test_server_round_sampling_is_seeded_per_round():
    devices = [two_class_device(device_id=i) for i in range(10)]
    cfg = RoundConfig(fraction_c=0.3, local_epochs=1, batch_size=8, eta=0.1, rounds=1, seed=5)
    _, a = server_round(LINEAR2, zero_params(), X1, Y1, devices, cfg, round_t=1)
    _, b = server_round(LINEAR2, zero_params(), X1, Y1, devices, cfg, round_t=1)
    assert [r.device_id for r in a] == [r.device_id for r in b]
    picks = {
        tuple(r.device_id for r in server_round(LINEAR2, zero_params(), X1, Y1, devices, cfg, t)[1])
        for t in range(1, 9)
    }
    assert len(picks) > 1  # different rounds draw different subsets


def test_federated_matches_pooled_gradient_descent():
    """With one local epoch, full batches, and every device sampled, T rounds
    of federation must equal T pooled full-batch gradient steps."""
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="mlp1", input_dim=12, hidden_dim=6, output_dim=5)
    cfg = RoundConfig(
        fraction_c=1.0, local_epochs=1, batch_size=10_000, eta=0.5, rounds=5, seed=3
    )
    run = run_federated(bundle, spec, cfg)

    rows = np.concatenate([d.rows for d in build_devices(bundle)])
    x, y = bundle.x[rows], bundle.y[rows]
    params = nn.init_params(spec, seed_from(cfg.seed, "init"))
    for _ in range(cfg.rounds):
        params = gradient_step(params, backward(spec, params, (x, y)), cfg.eta)

    diff = np.abs(flat(run.final_params) - flat(params)).max()
    assert diff <= 1e-9


def test_run_federated_shapes_and_determinism():
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="mlp1", input_dim=12, hidden_dim=6, output_dim=5)
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=4, seed=3)
    run = run_federated(bundle, spec, cfg)
    assert len(run.utility) == cfg.rounds
    assert len(run.records) == cfg.rounds * 2 * len(bundle.user_ids())
    assert all(0.0 <= u <= 1.0 for u in run.utility)
    assert np.isfinite(flat(run.final_params)).all()
    assert {r.round_t for r in run.records} == set(range(1, cfg.rounds + 1))

    again = run_federated(bundle, spec, cfg)
    np.testing.assert_array_equal(flat(run.final_params), flat(again.final_params))
    assert run.utility == again.utility


def test_each_round_trains_its_sampled_devices_in_one_nn_train_call(monkeypatch):
    # nn.train is the one training entry, so whatever wraps it sees the
    # federation's local training as well as the attack fits
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="linear", input_dim=12, output_dim=5)
    cfg = RoundConfig(fraction_c=0.25, batch_size=8, eta=0.5, rounds=4, seed=3)
    calls, real_train = [], nn.train

    def spy(spec, params, x, y, rows, *args, **kwargs):
        calls.append([np.array(r) for r in rows])
        return real_train(spec, params, x, y, rows, *args, **kwargs)

    monkeypatch.setattr(nn, "train", spy)
    run_federated(bundle, spec, cfg)
    devices = build_devices(bundle)
    assert len(calls) == cfg.rounds
    for t, rows in enumerate(calls, start=1):
        sampled = sample_devices(len(devices), cfg, t)
        assert len(rows) == len(sampled)
        for r, d in zip(rows, sampled):
            assert np.array_equal(r, devices[d].rows)


def test_run_federated_zero_hook_freezes_model():
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="linear", input_dim=12, output_dim=5)
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=2, seed=3)
    run = run_federated(bundle, spec, cfg, delta_hook=lambda t, d, delta: delta * 0.0)
    init = nn.init_params(spec, seed_from(cfg.seed, "init"))
    np.testing.assert_array_equal(flat(run.final_params), flat(init))


@pytest.mark.parametrize("layer", ["W1", "b2"])
def test_run_federated_rejects_a_non_finite_global_model(layer):
    # one anonymous delta of round 2 carries a NaN in one layer: the round's
    # average, and so the global model, is non-finite in that layer alone
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="mlp1", input_dim=12, hidden_dim=6, output_dim=5)
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=3, seed=3)
    cols = DeltaLog.empty(0, spec.layout(), cfg.rounds).columns()[layer]
    rounds = []

    def poison(round_t, device, delta):
        rounds.append(round_t)
        if round_t == 2 and device.role == ROLE_ANONYMOUS and device.user_id == 0:
            delta[cols.start] = np.nan
        return delta

    with pytest.raises(ValueError, match=f"^non-finite values in layer '{layer}'$"):
        run_federated(bundle, spec, cfg, delta_hook=poison)
    assert max(rounds) == 2


def test_evaluate_task_softmax_accuracy():
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=2)
    params = {"W": np.array([[1.0, 0.0], [0.0, 1.0]]), "b": np.zeros(2)}
    x = np.array([[3.0, 0.0], [0.0, 3.0], [2.0, 1.0]])
    y = np.array([0, 1, 1])  # third row argmaxes to class 0: wrong
    assert evaluate_task(spec, params, x, y) == pytest.approx(2 / 3)


@pytest.mark.parametrize(
    "bad",
    [
        {"fraction_c": 0.0},
        {"fraction_c": 1.5},
        {"local_epochs": 0},
        {"batch_size": 0},
        {"eta": 0.0},
        {"rounds": 0},
    ],
)
def test_round_config_validation(bad):
    kwargs = dict(fraction_c=1.0, local_epochs=1, batch_size=4, eta=0.1, rounds=1, seed=0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        RoundConfig(**kwargs)
