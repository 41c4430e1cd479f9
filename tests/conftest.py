"""Shared fixtures. The small world is sized so the full FL + attack path
stays under a second per run. The acceptance tests run the experiment
families at the default size, on one `Stages` per seed that their gates
share, and are the only slow part of the suite."""

import os

import numpy as np
import pytest

from fedanon import blas
from fedanon.attacks import ReprConfig, build_attack_dataset
from fedanon.federated import RoundConfig, run_federated
from fedanon.nn import ModelSpec
from fedanon.world import WorldConfig, gen_world

SMALL_WORLD = WorldConfig(
    users=6,
    classes=5,
    feature_dim=16,
    n_per_user=60,
    concentration=0.1,
    feature_noise=0.4,
    drift=0.3,
    albums_per_user=3,
    test_fraction=0.2,
    background_size=300,
    prior_kind="random",
    prior_fraction=0.4,
    seed=7,
)

SMALL_SPEC = ModelSpec(
    kind="mlp1", input_dim=16, hidden_dim=8, output_dim=5
)

SMALL_ROUNDS = RoundConfig(
    fraction_c=1.0, local_epochs=1, batch_size=8, eta=0.5, rounds=8, seed=3
)


@pytest.fixture(scope="session")
def small_bundle():
    return gen_world(SMALL_WORLD)


@pytest.fixture(scope="session")
def small_run(small_bundle):
    return run_federated(small_bundle, SMALL_SPEC, SMALL_ROUNDS)


@pytest.fixture(scope="session")
def small_dataset(small_run):
    repr_cfg = ReprConfig(layer_name="W2", normalize=True)
    return build_attack_dataset(small_run.records, repr_cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def openblas():
    """numpy's bundled OpenBLAS set to 2 threads, so a pin to one shows; its
    own count is put back afterwards."""
    threads = blas._openblas()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count fedanon sets")
    before = threads.get()
    threads.set(2)
    yield threads
    threads.set(before)


class CallLog:
    """Calls recorded as one appended line each, so that the calls made in
    forked children (the mitigation sweep's and epoch_grid's attack fits)
    are seen too."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def record(self, *fields) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("\t".join(map(str, fields)) + "\n")

    def lines(self) -> list[list[str]]:
        return [line.split("\t") for line in self.path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture()
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.tsv")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.
    Reaping every ended one keeps a leak from failing the tests after it."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            break
        left.append(pid or "one still running")
        if pid == 0:
            break
    if left:
        pytest.fail(f"the test left child processes: {left}")
