"""The fork helper: started calls join in start order, `map` returns its
values in item order however the items are split, a child's error or
early exit is raised here, no child outlives its block, and nothing a
family reports or builds depends on whether it forks."""

import os
import time

import pytest

from fedanon import mitigation
from fedanon.cli import main
from fedanon.experiments import FAMILIES, Stages, run_experiment
from fedanon.forks import Forks
from fedanon.mitigation import MitigationConfig, tradeoff_curve
from fedanon.reporting import report_to_json

from test_cli import TINY
from test_experiments import FAST
from test_mitigation import tiny_setup

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is not available")


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def test_forks_start_at_most_one_child_per_spare_cpu_and_join_in_start_order(monkeypatch):
    # with no spare CPU every call runs in place
    for cpus, limit in (({0}, 0), ({0, 1}, 1), ({0, 1, 2}, 2)):
        usable_cpus(monkeypatch, cpus)
        with Forks() as forks:
            assert forks.limit == (limit if hasattr(os, "fork") else 0)
            for value in range(5):
                forks.start(abs, -value)
                assert len(forks.running) <= limit
            assert forks.join() == [0, 1, 2, 3, 4]
        with Forks() as forks:
            for _ in range(3):
                forks.start(os.getpid)
            assert (set(forks.join()) == {os.getpid()}) == (forks.limit == 0)


def test_map_returns_every_value_in_item_order(monkeypatch):
    def square(i):
        return i * i

    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork", raising=False)
        for n in (0, 1, 2, 5):
            with Forks() as forks:
                assert forks.map(square, range(n)) == [i * i for i in range(n)]


@needs_fork
def test_map_splits_the_items_between_this_process_and_one_child_per_spare_cpu(monkeypatch):
    def pid_of(i):
        return os.getpid()

    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        usable_cpus(monkeypatch, cpus)
        with Forks() as forks:
            pids = forks.map(pid_of, range(7))
        ways = len(cpus)
        # on two CPUs this process takes items 0, 2, 4, 6 and one child the rest
        assert [pid == os.getpid() for pid in pids] == [i % ways == 0 for i in range(7)]
        assert len(set(pids)) == ways
        assert all(pids[i] == pids[i % ways] for i in range(7))
    # one item needs no child
    usable_cpus(monkeypatch, {0, 1})
    with Forks() as forks:
        assert forks.map(pid_of, [0]) == [os.getpid()]


def test_map_raises_a_childs_error_again_and_leaves_no_child(monkeypatch):
    usable_cpus(monkeypatch, {0, 1})

    def odd_fails(i):
        if i % 2:
            raise ValueError(f"item {i} failed in process {os.getpid()}")
        return i

    with pytest.raises(ValueError, match="item 1 failed") as err:
        with Forks() as forks:
            forks.map(odd_fails, range(4))
    if hasattr(os, "fork"):
        assert str(os.getpid()) not in str(err.value)


@needs_fork
def test_a_map_child_that_ends_without_a_result_names_the_call(monkeypatch):
    usable_cpus(monkeypatch, {0, 1})

    def odd_exits(i):
        if i % 2:
            os._exit(4)
        return i

    with pytest.raises(ChildProcessError,
                       match=rf"^{odd_exits.__qualname__} in child \d+ .*exit status 4"):
        with Forks() as forks:
            forks.map(odd_exits, range(4))


def test_a_childs_error_is_raised_again_with_its_type(monkeypatch):
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()

    def failing(ds, seed):
        raise ValueError(f"fit failed in process {os.getpid()}")

    monkeypatch.setattr(mitigation, "mlp_reid_scores", failing)
    with pytest.raises(ValueError, match="fit failed in process") as err:
        tradeoff_curve(bundle, spec, fed, repr_cfg, [MitigationConfig("noise", 0.5)], anchor, 0, 4)
    if Forks().limit:
        assert str(os.getpid()) not in str(err.value)


@needs_fork
def test_a_child_that_exits_without_a_result_is_an_error(monkeypatch, tmp_path, capsys):
    usable_cpus(monkeypatch, {0, 1})
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()

    def exits(ds, seed):
        os._exit(3)

    monkeypatch.setattr(mitigation, "mlp_reid_scores", exits)
    with pytest.raises(ChildProcessError, match="without a result.*exit status 3"):
        tradeoff_curve(bundle, spec, fed, repr_cfg, [MitigationConfig("noise", 0.5)], anchor, 0, 4)
    rc = main(["attack", *TINY, "--family", "mitigation", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {exits.__qualname__} in child") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_parent_error_partway_through_the_sweep_leaves_no_child(monkeypatch):
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    # the anchor's fit would outlast the test unless it is killed
    monkeypatch.setattr(mitigation, "mlp_reid_scores", lambda ds, seed: time.sleep(60))

    def federation_fails(*args, **kwargs):
        raise KeyError("no such device")

    monkeypatch.setattr(mitigation, "run_federated", federation_fails)
    usable_cpus(monkeypatch, {0, 1})  # with no spare CPU the anchor's fit would run in place
    grid = [MitigationConfig("noise", 0.5), MitigationConfig("rand_aug", 0.5)]
    started = time.perf_counter()
    with pytest.raises(KeyError, match="no such device"):
        tradeoff_curve(bundle, spec, fed, repr_cfg, grid, anchor, 0, 4)
    assert time.perf_counter() - started < 30
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_failed_fork_closes_both_ends_of_its_pipe(monkeypatch):
    # at a process limit os.fork raises BlockingIOError: the pipe made for
    # the child that never started must not stay open
    usable_cpus(monkeypatch, {0, 1})
    opened, real_pipe = [], os.pipe

    def pipe():
        fds = real_pipe()
        opened.extend(fds)
        return fds

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with Forks() as forks:
        with pytest.raises(BlockingIOError):
            forks.start(abs, -1)
        with pytest.raises(BlockingIOError):
            forks.map(abs, [1, 2])
        assert not forks.running
    assert len(opened) == 4
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_children_fit_at_one_blas_thread_and_the_count_stays_there(
    monkeypatch, openblas, call_log
):
    usable_cpus(monkeypatch, {0, 1})
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    fit = mitigation.mlp_reid_scores

    def recorded(ds, seed):
        call_log.record(os.getpid(), openblas.get())
        return fit(ds, seed)

    monkeypatch.setattr(mitigation, "mlp_reid_scores", recorded)
    grid = [MitigationConfig("noise", 0.5), MitigationConfig("mm_aug", 0.5)]
    points = tradeoff_curve(bundle, spec, fed, repr_cfg, grid, anchor, 0, 4)
    assert len(points) == 3
    assert [threads for _, threads in call_log.lines()] == ["1"] * 3
    if hasattr(os, "fork"):
        assert str(os.getpid()) not in {pid for pid, _ in call_log.lines()}
        # pinned before the first fork and never set back: a count set
        # after a fork starts an OpenBLAS worker that spins
        assert openblas.get() == 1


def test_the_rows_are_the_same_without_fork(monkeypatch):
    bundle, spec, fed, repr_cfg, anchor = tiny_setup()
    grid = [MitigationConfig(s, 0.5) for s in ("noise", "bkg_repl", "rand_aug", "mm_aug")]
    forked = tradeoff_curve(bundle, spec, fed, repr_cfg, grid, anchor, 2, 4)
    monkeypatch.delattr(os, "fork", raising=False)
    assert tradeoff_curve(bundle, spec, fed, repr_cfg, grid, anchor, 2, 4) == forked


@pytest.mark.parametrize("family", FAMILIES)
def test_a_family_reports_and_builds_the_same_without_fork(monkeypatch, family):
    # the stages built are the same set: no stage is built only in a child
    def run() -> tuple[str, set[str]]:
        stages = Stages(FAST)
        return report_to_json(run_experiment(FAST, family, stages)), set(vars(stages))

    usable_cpus(monkeypatch, {0, 1})
    forked = run()
    monkeypatch.delattr(os, "fork", raising=False)
    assert run() == forked
