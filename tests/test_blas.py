"""`blas.pin()` sets numpy's bundled OpenBLAS to one thread once and never
sets the count back: after a fork, any later call that sets the count
starts an OpenBLAS worker that spins. Without a bundled OpenBLAS it does
nothing."""

import os

from fedanon import blas
from fedanon.blas import ThreadControl, pin
from fedanon.experiments import Stages, run_experiment

from test_experiments import FAST


def record_sets(monkeypatch, openblas, call_log) -> None:
    """Log every call that sets the count, with the process that made it."""
    def recorded(n):
        call_log.record(os.getpid(), n)
        openblas.set(n)

    monkeypatch.setattr(blas, "_openblas", lambda: ThreadControl(openblas.get, recorded))


def test_pin_sets_one_thread(openblas):
    pin()
    assert openblas.get() == 1


def test_pin_at_one_thread_sets_nothing(monkeypatch, openblas, call_log):
    record_sets(monkeypatch, openblas, call_log)
    pin()
    pin()
    assert call_log.lines() == [[str(os.getpid()), "1"]]


def test_families_that_fork_set_the_count_once_and_never_back(monkeypatch, openblas, call_log):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    record_sets(monkeypatch, openblas, call_log)
    stages = Stages(FAST)
    for family in ("epoch_grid", "epoch_grid", "mitigation"):
        run_experiment(FAST, family, stages)
    # one set, in this process, before the first fork: no child sets it
    assert call_log.lines() == [[str(os.getpid()), "1"]]
    assert openblas.get() == 1


def test_pin_is_a_no_op_without_a_bundled_openblas(monkeypatch):
    real = blas._openblas()
    count = real.get if real else lambda: None
    before = count()
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    pin()
    assert count() == before
