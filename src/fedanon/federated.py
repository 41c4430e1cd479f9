"""FederatedAveraging over the synthetic world.

Every user contributes two devices to the same run: an anonymous device
holding the private split and a shadow device holding the adversary's prior
split. The server samples devices per round, the sampled devices run their
local minibatch SGD in lockstep (one stacked computation per step), and
the global model moves by the data-weighted average of the local
parameter deltas (delta = local minus global; the weights are normalized
over the sampled subset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from .deltastore import ROLE_ANONYMOUS, ROLE_SHADOW, ROLES, DeltaLog
from .nn import ModelSpec, Params
from .seeding import rng_from, seed_from
from .world import DatasetBundle

# hook applied by a device to its outgoing delta, one flat row of the delta
# log (mitigations plug in here); the aggregation path never branches on it
DeltaHook = Callable[[int, "DeviceState", np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RoundConfig:
    """Server-side schedule. The reference defaults are device fraction 0.1
    with one local epoch; desk-scale experiments typically override the
    fraction to 1.0 to densify the delta log."""

    fraction_c: float = 0.1
    local_epochs: int = 1
    batch_size: int = 4
    eta: float = 0.8
    rounds: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction_c <= 1.0:
            raise ValueError("fraction_c must be in (0, 1]")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eta <= 0.0:
            raise ValueError("eta must be > 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass
class DeviceState:
    device_id: int
    user_id: int
    role: str
    rows: np.ndarray  # (n_k,) int64 row indices of the device's split into the world's columns

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown device role {self.role!r}")
        if not len(self.rows):
            raise ValueError(f"device {self.device_id} has no data")

    @property
    def n_k(self) -> int:
        return len(self.rows)


@dataclass
class FederatedRun:
    final_params: Params
    records: DeltaLog
    utility: list[float]  # per-round held-out task score


def build_devices(bundle: DatasetBundle) -> list[DeviceState]:
    """Two devices per user, one block of ids per role in `ROLES`
    order: anonymous ids 0..U-1, shadow ids U..2U-1. Each device holds its
    split's row indices into the bundle's columns, not a copy of the rows."""
    splits = {ROLE_ANONYMOUS: bundle.private, ROLE_SHADOW: bundle.prior}
    owners = [(role, u) for role in ROLES for u in bundle.user_ids()]
    return [DeviceState(device_id=i, user_id=u, role=role, rows=splits[role][u])
            for i, (role, u) in enumerate(owners)]


def aggregate(global_params: Params, records: DeltaLog) -> Params:
    """Apply the data-weighted average of the log's deltas to the global
    model, a fresh array per layer. Weights n_k / sum(n_k) are normalized
    over the log's rows, and the weighted rows are summed into one buffer
    in log order."""
    if not len(records):
        raise ValueError("cannot aggregate zero records")
    weights = records.n_k / float(records.n_k.sum())
    update = records.deltas[0] * weights[0]
    for row, weight in zip(records.deltas[1:], weights[1:]):
        update += row * weight
    return {name: global_params[name] + update[cols].reshape(global_params[name].shape)
            for name, cols in records.columns().items()}


def sample_devices(n_devices: int, cfg: RoundConfig, round_t: int) -> np.ndarray:
    """The ids of the max(1, round(C*K)) devices of K that the server
    samples without replacement in `round_t`, ascending. The draw depends
    only on the seed, the round, K and C."""
    m = max(1, int(round(cfg.fraction_c * n_devices)))
    return np.sort(rng_from(cfg.seed, "sample", round_t).choice(n_devices, size=m, replace=False))


def sampled_users(users: int, cfg: RoundConfig) -> dict[str, list[set[int]]]:
    """For each role, the users 0..users-1 whose device of that role the
    server samples in each of rounds 1..cfg.rounds (list index t-1), with
    the device ids of `build_devices`. It replays `sample_devices`, so it
    needs no world."""
    sampled = {role: [set() for _ in range(cfg.rounds)] for role in ROLES}
    for t in range(1, cfg.rounds + 1):
        for d in sample_devices(len(ROLES) * users, cfg, t).tolist():
            role, u = divmod(d, users)
            sampled[ROLES[role]][t - 1].add(u)
    return sampled


def server_round(
    spec: ModelSpec,
    global_params: Params,
    x: np.ndarray,
    y: np.ndarray,
    devices: list[DeviceState],
    cfg: RoundConfig,
    round_t: int,
    delta_hook: Optional[DeltaHook] = None,
    out: Optional[DeltaLog] = None,
) -> tuple[Params, DeltaLog]:
    """Sample max(1, round(C*K)) devices without replacement, train them all
    from the global model in one lockstep local SGD run, apply the delta
    hook in ascending device id order, and aggregate.

    Each device runs local_epochs of plain minibatch SGD on its rows of the
    columns (x, y) (batches of min(batch_size, n_k) rows, shuffled by the
    device's ("device-update", round, device id) stream); its delta is local
    minus global. The columns are checked before any training. The round's
    deltas fill the rows of `out`, one per sampled device (a fresh log when
    None), which is returned with the new global model."""
    if not devices:
        raise ValueError("no devices")
    sampled = [devices[i] for i in sample_devices(len(devices), cfg, round_t)]
    stacks = nn.train(
        spec, global_params, x, y, [d.rows for d in sampled],
        epochs=cfg.local_epochs, batch_size=cfg.batch_size, config=nn.OptimizerConfig(cfg.eta),
        seeds=[seed_from(cfg.seed, "device-update", round_t, d.device_id) for d in sampled],
    )
    log = DeltaLog.empty(len(sampled), spec.layout(), cfg.rounds) if out is None else out
    log.round[:] = round_t
    log.device[:] = [d.device_id for d in sampled]
    log.user[:] = [d.user_id for d in sampled]
    log.role[:] = [d.role for d in sampled]
    log.n_k[:] = [d.n_k for d in sampled]
    for (name, cols), stack in zip(log.columns().items(), stacks):
        np.subtract(stack.reshape(len(sampled), -1), global_params[name].reshape(-1),
                    out=log.deltas[:, cols])
    if delta_hook is not None:
        for device, row in zip(sampled, log.deltas):
            row[:] = delta_hook(round_t, device, row)
    return aggregate(global_params, log), log


def evaluate_task(spec: ModelSpec, params: Params, x: np.ndarray, y: np.ndarray) -> float:
    """Held-out task score: top-1 accuracy."""
    scores = nn.predict_proba(spec, params, x)
    return float((scores.argmax(axis=1) == np.asarray(y)).mean())


def run_federated(
    bundle: DatasetBundle,
    spec: ModelSpec,
    cfg: RoundConfig,
    delta_hook: Optional[DeltaHook] = None,
) -> FederatedRun:
    """Full run: T rounds over the bundle's device population, evaluating on
    the global test split each round and logging every delta. A round
    whose global model holds a non-finite value raises ValueError naming
    its first such layer."""
    devices = build_devices(bundle)
    params = nn.init_params(spec, seed_from(cfg.seed, "init"))
    test_x, test_y = bundle.x[bundle.test], bundle.y[bundle.test]
    per_round = len(sample_devices(len(devices), cfg, 1))  # the same in every round
    log = DeltaLog.empty(cfg.rounds * per_round, spec.layout(), cfg.rounds)
    utility: list[float] = []
    for round_t in range(1, cfg.rounds + 1):
        block = log.block((round_t - 1) * per_round, round_t * per_round)
        params, _ = server_round(
            spec, params, bundle.x, bundle.y, devices, cfg, round_t, delta_hook, block
        )
        for name, a in params.items():
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite values in layer {name!r}")
        utility.append(evaluate_task(spec, params, test_x, test_y))
    return FederatedRun(final_params=params, records=log, utility=utility)
