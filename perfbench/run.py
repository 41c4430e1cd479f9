"""fedanon benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mitigation_sweep --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --check [--smoke]

`--trace 0` runs the workload once to warm up, then repeats it over the
seed's worlds in turn for up to `--seconds` (each world at least once),
with a set-up probe in a fresh interpreter after each run. It reports the
end-to-end metrics: timings as medians over those runs and probes,
`attack_ap` and `task_score` as means over the worlds. `--trace 1` runs
the workload once untraced and once traced on the seed's first world,
requires identical output files, writes the spans to perfbench/out/ as
JSONL and reports the per-layer metrics. `--check` is the benchmark's own
check: for every workload it repeats a seed, traces it, runs a second
seed, and requires that every traced function was called somewhere.
`--smoke` swaps in a tiny world.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The program is loaded from
src/ of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# relative to ROOT, the working directory: the quickstart reports record
# their output directory, and must not differ between checkouts
OUT = Path("perfbench") / "out"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "attack_ap": "ap",
    "task_score": "accuracy",
}
SETUP_PROBES = 7  # at least; one probe follows every timed workload run
# stop repeating when one more workload run could pass this many seconds
RUN_BUDGET_S = 150.0

SETUP_PROBE = """\
import sys
import fedanon, fedanon.experiments, fedanon.cli
from fedanon.config import build_config
build_config(None, dict(arg.split("=", 1) for arg in sys.argv[1:]))
print("ready", flush=True)
"""


def median_iqr(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "samples": values}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def setup_probe(overrides: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    fedanon and built the workload's config."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", SETUP_PROBE] + [f"{k}={v}" for k, v in overrides.items()]
    started = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_once(workload: str, overrides: dict[str, str], tracer=None):
    """One workload run in a fresh output directory; returns the outcome
    and its wall time. With a tracer, the run is wrapped in a root span."""
    from tracer import install
    from workloads import WORKLOADS, Federations

    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    feds = Federations()
    undo_trace = install(tracer) if tracer else None
    undo_capture = feds.install()
    # the previous run's garbage is not this run's cost, in time or memory
    gc.collect()
    try:
        started = perf_counter()
        root = tracer.open("workload", "bench") if tracer else None
        try:
            outcome = WORKLOADS[workload](overrides, out, feds)
        finally:
            if tracer:
                tracer.close(root)
        return outcome, perf_counter() - started
    finally:
        undo_capture()
        if undo_trace:
            undo_trace()
        shutil.rmtree(out, ignore_errors=True)


class Tally:
    """Workload runs attempted and failed. A run fails when it raises, when
    one of its checks fails, or when its outcome differs from the first
    outcome at the same config."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, object] = {}  # config -> first successful outcome

    def run(self, workload: str, overrides: dict[str, str], tracer=None):
        from workloads import CheckFailed

        self.attempted += 1
        key = json.dumps([workload, overrides], sort_keys=True)
        try:
            outcome, wall = run_once(workload, overrides, tracer)
            if self.first.setdefault(key, outcome) != outcome:
                raise CheckFailed("outputs differ between runs at one seed")
            return outcome, wall
        except Exception:  # counted in `failed`; the benchmark keeps going
            self.failed += 1
            traceback.print_exc()
            return None, None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def timed_run(workload: str, seed: int, smoke: bool, seconds: float, info: dict) -> dict:
    """End-to-end metrics, tracing off."""
    from workloads import WORLDS, overrides_for

    worlds = [overrides_for(workload, seed, smoke, world) for world in range(WORLDS)]
    tally = Tally()
    tally.run(workload, worlds[0])  # warm-up, not timed
    outcomes, walls, setup = {}, [], []
    started, runs = perf_counter(), 0
    while True:
        world = runs % WORLDS
        got, wall = tally.run(workload, worlds[world])
        runs += 1
        if runs == WORLDS:
            # peak over one pass through the worlds: later passes repeat the
            # work but not the peak, and how many fit depends on the host
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if wall is not None:
            outcomes.setdefault(world, got)
            walls.append(wall)
        # one probe per run, so set-up and workload times sample the same drift
        setup.append(setup_probe(worlds[0]))
        # stop before a run that would end past `seconds`, once every world ran
        next_end = (perf_counter() - started) * (runs + 1) / runs
        if runs >= WORLDS and (next_end > seconds or next_end > RUN_BUDGET_S):
            break
    setup += [setup_probe(worlds[0]) for _ in range(SETUP_PROBES - len(setup))]
    info["timings"] = {
        "wall_s": median_iqr(walls) if walls else None,
        "setup_s": median_iqr(setup),
    }
    info["failed_share"] = tally.failed / tally.attempted
    if len(outcomes) < WORLDS:
        return tally.result({})
    info["digests"] = [outcomes[world].digests for world in range(WORLDS)]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "attack_ap": statistics.fmean(o.attack_ap for o in outcomes.values()),
        "task_score": statistics.fmean(o.task_score for o in outcomes.values()),
    }
    return tally.result({k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()})


def traced_run(workload: str, overrides: dict[str, str], seed: int, info: dict) -> dict:
    """Per-layer metrics: one untraced run, then one traced run whose
    output files must be byte-identical."""
    from tracer import PER_LAYER_UNITS, Tracer, layer_metrics

    tally, tracer = Tally(), Tracer()
    outcome, untraced = tally.run(workload, overrides)
    _, traced = tally.run(workload, overrides, tracer)
    info["failed_share"] = tally.failed / tally.attempted
    if untraced is None or traced is None:
        return tally.result({})
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(spans)
    info["spans_file"] = str(spans)
    info["digests"] = outcome.digests
    values = layer_metrics(tracer.spans, traced, untraced)
    return tally.result({k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()})


def self_check(seed: int, smoke: bool) -> dict:
    """Repeat a seed, trace it, run a second seed; every traced function
    must be called by some workload."""
    from tracer import TRACED, Tracer, layer_metrics
    from workloads import WORKLOADS, overrides_for

    tally, seen = Tally(), set()
    for workload in WORKLOADS:
        overrides = overrides_for(workload, seed, smoke)
        tracer = Tracer()
        first, untraced = tally.run(workload, overrides)
        tally.run(workload, overrides)
        _, traced = tally.run(workload, overrides, tracer)
        seen |= {(s.layer, s.name) for s in tracer.spans}
        if traced is not None:
            accounted = layer_metrics(tracer.spans, traced, untraced or 0.0)["trace.accounted_share"]
            print(f"{workload}: traced time accounted for: {accounted:.6f}")
            if not 0.999 <= accounted <= 1.0:
                tally.fail(f"{workload}: self times do not add up to the traced wall time")
        other, _ = tally.run(workload, overrides_for(workload, seed + 1, smoke))
        if other is not None and first is not None and other.digests == first.digests:
            tally.fail(f"{workload}: seeds {seed} and {seed + 1} gave identical outputs")
        print(f"{workload}: {tally.attempted} runs attempted, {tally.failed} failed so far")
    missing = sorted({(layer, name) for _, _, layer, name, _, _ in TRACED} - seen)
    if missing:
        tally.fail(f"traced functions never called: {missing}")
    return tally.result({})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("quickstart", "epoch_grid_dense", "mitigation_sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny world, runs in seconds")
    parser.add_argument("--check", action="store_true", help="the benchmark's own check")
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")

    if not (SRC / "fedanon" / "__init__.py").is_file():
        print(f"fedanon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from workloads import WORLDS, config_seed, overrides_for

    info = {"machine": machine_facts(), "seed": args.seed,
            "config_seeds": [config_seed(args.seed, world) for world in range(WORLDS)],
            "smoke": args.smoke}
    if args.check:
        result = self_check(args.seed, args.smoke)
    else:
        info.update(workload=args.workload, trace=args.trace)
        if args.trace:
            overrides = overrides_for(args.workload, args.seed, args.smoke)
            result = traced_run(args.workload, overrides, args.seed, info)
        else:
            result = timed_run(args.workload, args.seed, args.smoke, args.seconds, info)
        for name, m in result["metrics"].items():
            print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
        if "failed_share" in info:
            print(f"{'failed_share':32} {info['failed_share']:>16.6g} fraction")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
