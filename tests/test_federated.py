"""Federation mechanics: device update hand values, the aggregation rule,
sampling arithmetic, and the equivalence oracle (one round of full-batch
single-epoch federation over all devices must equal one pooled gradient
step on the union of their data)."""

import numpy as np
import pytest

from fedanon import nn
from fedanon.federated import (
    ROLE_ANONYMOUS,
    ROLE_SHADOW,
    DeltaRecord,
    DeviceState,
    RoundConfig,
    aggregate,
    build_devices,
    device_update,
    evaluate_task,
    run_federated,
    server_round,
)
from fedanon.nn import ModelSpec, ParamVector
from fedanon.seeding import seed_from
from fedanon.world import Example, gen_world

from test_world import small_cfg


def two_class_device(n=2, device_id=0):
    """n identical scalar examples of class 0 on one device."""
    examples = [
        Example(x=np.array([1.0]), y=0, timestamp=0.0, album_id=0, user_id=0)
        for _ in range(n)
    ]
    return DeviceState(device_id=device_id, user_id=0, role=ROLE_ANONYMOUS, examples=examples)


LINEAR2 = ModelSpec(kind="linear", input_dim=1, output_dim=2, bias=False)


def zero_params():
    return ParamVector([("W", np.zeros((2, 1)))])


def test_device_update_one_epoch_hand_value():
    # softmax of zero logits is exactly [0.5, 0.5], so one full-batch step
    # moves W by eta * [0.5, -0.5]
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.8, rounds=1, seed=0)
    rec = device_update(LINEAR2, two_class_device(), zero_params(), cfg, round_t=1)
    np.testing.assert_allclose(rec.delta.get("W"), [[0.4], [-0.4]], atol=1e-15)
    assert rec.n_k == 2
    assert rec.round_t == 1
    assert rec.role == ROLE_ANONYMOUS


def test_device_update_two_epochs_hand_value():
    # second step sees logits [0.4, -0.4]; p0 = sigmoid(0.8), so
    # W gains another eta * (1 - p0) in each coordinate
    cfg = RoundConfig(fraction_c=1.0, local_epochs=2, batch_size=8, eta=0.8, rounds=1, seed=0)
    rec = device_update(LINEAR2, two_class_device(), zero_params(), cfg, round_t=1)
    p0 = 1.0 / (1.0 + np.exp(-0.8))
    expect = 0.4 + 0.8 * (1.0 - p0)
    np.testing.assert_allclose(rec.delta.get("W"), [[expect], [-expect]], atol=1e-12)


def test_device_update_caps_batch_at_device_size():
    # batch_size far above n_k must degrade to full-batch, not crash
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=10_000, eta=0.8, rounds=1, seed=0)
    rec = device_update(LINEAR2, two_class_device(), zero_params(), cfg, round_t=1)
    np.testing.assert_allclose(rec.delta.get("W"), [[0.4], [-0.4]], atol=1e-15)


def test_device_update_delta_hook_applied():
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.8, rounds=1, seed=0)
    seen = {}

    def spy(round_t, device, delta):
        seen["args"] = (round_t, device.device_id)
        return delta.scale(0.0)

    rec = device_update(LINEAR2, two_class_device(device_id=7), zero_params(), cfg, 3, spy)
    assert seen["args"] == (3, 7)
    np.testing.assert_array_equal(rec.delta.get("W"), np.zeros((2, 1)))


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
    base = ParamVector([("W", np.array([[1.0], [1.0]]))])
    records = [fake_record([[3.0], [0.0]], n_k=30), fake_record([[0.0], [1.0]], n_k=10)]
    out = aggregate(base, records)
    # weights 0.75 and 0.25 over the participating records only
    np.testing.assert_allclose(out.get("W"), [[1.0 + 2.25], [1.0 + 0.25]], atol=1e-15)


def test_aggregate_single_record_is_plain_add():
    base = ParamVector([("W", np.zeros((2, 1)))])
    out = aggregate(base, [fake_record([[2.0], [-1.0]], n_k=5)])
    np.testing.assert_array_equal(out.get("W"), [[2.0], [-1.0]])


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate(zero_params(), [])


def test_build_devices_layout():
    bundle = gen_world(small_cfg())
    devices = build_devices(bundle)
    u = len(bundle.user_ids())
    assert len(devices) == 2 * u
    for i, d in enumerate(devices[:u]):
        assert (d.device_id, d.user_id, d.role) == (i, i, ROLE_ANONYMOUS)
        assert d.n_k == len(bundle.private[i])
    for i, d in enumerate(devices[u:]):
        assert (d.device_id, d.user_id, d.role) == (u + i, i, ROLE_SHADOW)
        assert d.n_k == len(bundle.prior[i])


def test_device_state_rejects_bad_role_and_empty():
    ex = [Example(x=np.zeros(2), y=0, timestamp=0.0, album_id=0, user_id=0)]
    with pytest.raises(ValueError):
        DeviceState(device_id=0, user_id=0, role="spy", examples=ex)
    with pytest.raises(ValueError):
        DeviceState(device_id=0, user_id=0, role=ROLE_ANONYMOUS, examples=[])


def test_server_round_samples_expected_count():
    devices = [two_class_device(device_id=i) for i in range(12)]
    for frac, want in [(1.0, 12), (0.5, 6), (0.25, 3), (0.04, 1)]:
        cfg = RoundConfig(fraction_c=frac, local_epochs=1, batch_size=8, eta=0.1, rounds=1, seed=0)
        _, records = server_round(LINEAR2, zero_params(), devices, cfg, round_t=1)
        assert len(records) == want
        ids = [r.device_id for r in records]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)  # without replacement


def test_server_round_sampling_is_seeded_per_round():
    devices = [two_class_device(device_id=i) for i in range(10)]
    cfg = RoundConfig(fraction_c=0.3, local_epochs=1, batch_size=8, eta=0.1, rounds=1, seed=5)
    _, a = server_round(LINEAR2, zero_params(), devices, cfg, round_t=1)
    _, b = server_round(LINEAR2, zero_params(), devices, cfg, round_t=1)
    assert [r.device_id for r in a] == [r.device_id for r in b]
    picks = {
        tuple(r.device_id for r in server_round(LINEAR2, zero_params(), devices, cfg, t)[1])
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

    devices = build_devices(bundle)
    x = np.concatenate([d.x for d in devices])
    y = np.concatenate([d.y for d in devices])
    params = nn.init_params(spec, seed_from(cfg.seed, "init"))
    for _ in range(cfg.rounds):
        params = params - nn.backward(spec, params, (x, y)).scale(cfg.eta)

    diff = np.abs(run.final_params.flat() - params.flat()).max()
    assert diff <= 1e-9


def test_run_federated_shapes_and_determinism():
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="mlp1", input_dim=12, hidden_dim=6, output_dim=5)
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=4, seed=3)
    run = run_federated(bundle, spec, cfg)
    assert len(run.utility) == cfg.rounds
    assert len(run.records) == cfg.rounds * 2 * len(bundle.user_ids())
    assert all(0.0 <= u <= 1.0 for u in run.utility)
    assert np.isfinite(run.final_params.flat()).all()
    assert {r.round_t for r in run.records} == set(range(1, cfg.rounds + 1))

    again = run_federated(bundle, spec, cfg)
    np.testing.assert_array_equal(run.final_params.flat(), again.final_params.flat())
    assert run.utility == again.utility


def test_run_federated_zero_hook_freezes_model():
    bundle = gen_world(small_cfg())
    spec = ModelSpec(kind="linear", input_dim=12, output_dim=5)
    cfg = RoundConfig(fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=2, seed=3)
    run = run_federated(bundle, spec, cfg, delta_hook=lambda t, d, delta: delta.scale(0.0))
    init = nn.init_params(spec, seed_from(cfg.seed, "init"))
    np.testing.assert_array_equal(run.final_params.flat(), init.flat())


def test_evaluate_task_softmax_accuracy():
    spec = ModelSpec(kind="linear", input_dim=2, output_dim=2, bias=False)
    params = ParamVector([("W", np.array([[1.0, 0.0], [0.0, 1.0]]))])
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
