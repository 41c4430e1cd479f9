"""Span recorder for the traced benchmark run, installed from outside fedanon.

fedanon modules bind each other's functions with `from .x import y`, so a
function such as `run_federated` is held by `federated`, `experiments`,
`mitigation`, `cli` and the package itself. `rebind` replaces the function
in every fedanon module that holds it and returns an undo callback, so the
program's source is never edited.

A span has a name, a layer (the fedanon module it times), start and end
times, its parent span and a few attributes (method, rows, records,
bytes, keys). Spans stay in memory and are written once as JSONL. A span's
self time is its duration minus its children's durations; every second of
a traced workload run falls in exactly one span's self time, because the
benchmark opens a root span around the whole run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def rebind(module_name: str, attr: str, make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace `module_name.attr` by `make_wrapper(original)` in every loaded
    fedanon module that binds the same object; returns the undo callback."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    holders = [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "fedanon" or name.startswith("fedanon.")) and vars(mod).get(attr) is original
    ]
    for mod in holders:
        setattr(mod, attr, wrapper)

    def undo() -> None:
        for mod in holders:
            setattr(mod, attr, original)

    return undo


@dataclass
class Span:
    id: int
    parent: int  # -1 for the root
    name: str
    layer: str
    start: float
    end: float = math.nan
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, layer, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        before: Callable[..., dict] | None = None,
        after: Callable[..., dict] | None = None,
    ) -> Callable:
        """Time `fn` as a span. `before(bound_args)` and `after(result,
        bound_args)` return span attributes; they run outside the span, so
        their cost lands in the caller's self time, not in the layer's."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if (before or after) else None
            attrs = before(bound.arguments) if before else {}
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs.update(attrs)
            if after:
                span.attrs.update(after(result, bound.arguments))
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                         "start": s.start, "end": s.end, "attrs": s.attrs}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# what is traced, and the attributes each span records


def _world_key(a: dict) -> dict:
    return {"key": repr(a["cfg"])}


def _federation_key(a: dict) -> dict:
    """Identity of a federation's inputs: the device data, model, schedule
    and delta hook (a closure, fingerprinted by its captured values)."""
    hook = a.get("delta_hook")
    hook_id = None if hook is None else (
        hook.__qualname__, tuple(repr(c.cell_contents) for c in hook.__closure__ or ())
    )
    payload = pickle.dumps((a["bundle"], a["spec"], a["cfg"], hook_id), protocol=4)
    return {"key": hashlib.sha256(payload).hexdigest()}


def _federation_counts(run, a: dict) -> dict:
    """Local SGD steps from the inputs: each sampled device runs
    local_epochs passes of ceil(n_k / batch) minibatches per round."""
    cfg = a["cfg"]
    steps = sum(cfg.local_epochs * -(-r.n_k // min(cfg.batch_size, r.n_k)) for r in run.records)
    return {"records": len(run.records), "local_steps": steps, "rounds": cfg.rounds}


def _log_size(directory) -> int:
    from fedanon.deltastore import MANIFEST_NAME, PAYLOAD_NAME

    return sum((Path(directory) / n).stat().st_size for n in (MANIFEST_NAME, PAYLOAD_NAME))


def _fit_attrs(a: dict) -> dict:
    return {"method": a["method"], "rows": int(a["ds"].train_x.shape[0])}


# (module, function, layer, span name, before, after)
TRACED = (
    ("fedanon.world", "gen_world", "world", "gen_world", _world_key, None),
    ("fedanon.federated", "run_federated", "federated", "run_federated",
     _federation_key, _federation_counts),
    ("fedanon.federated", "server_round", "federated", "round", None, None),
    ("fedanon.nn", "train", "nn", "train", None, None),
    ("fedanon.deltastore", "write_records", "deltastore", "write", None,
     lambda res, a: {"records": len(a["records"]), "bytes": _log_size(a["path"])}),
    ("fedanon.deltastore", "read_records", "deltastore", "read", None,
     lambda res, a: {"records": len(res[1]), "bytes": _log_size(a["path"])}),
    ("fedanon.attacks", "build_attack_dataset", "attacks", "dataset", None,
     lambda ds, a: {"rows": int(ds.train_x.shape[0] + ds.test_x.shape[0])}),
    ("fedanon.attacks", "train_reid", "attacks", "fit", _fit_attrs, None),
    ("fedanon.attacks", "train_matcher", "attacks", "fit", _fit_attrs, None),
    ("fedanon.attacks", "evaluate_reid", "attacks", "eval", None, None),
    ("fedanon.attacks", "evaluate_matching", "attacks", "eval", None, None),
    ("fedanon.metrics", "mean_ap", "metrics", "mean_ap", None, None),
    ("fedanon.mitigation", "tradeoff_curve", "mitigation", "tradeoff", None,
     lambda points, a: {"points": len(points)}),
    ("fedanon.mitigation", "mitigate_bundle", "mitigation", "bundle", None, None),
    ("fedanon.mitigation", "cluster_background", "mitigation", "kmeans", None, None),
    ("fedanon.reporting", "write_report", "reporting", "write", None,
     lambda paths, a: {"bytes": sum(Path(p).stat().st_size for p in paths)}),
    ("fedanon.experiments", "run_experiment", "experiments", "run_experiment", None, None),
    ("fedanon.cli", "main", "cli", "main", None, None),
)

# layers whose self time is reported; "bench" is the benchmark's own glue
LAYERS = (
    "world", "federated", "nn", "deltastore", "attacks", "metrics",
    "mitigation", "reporting", "experiments", "cli", "bench",
)
FIT_METHODS = ("knn", "svm", "mlp", "siamese", "mlp_product")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function in TRACED; returns the undo callback."""
    undos = [
        rebind(module, attr, lambda fn, n=name, l=layer, b=before, a=after: tracer.wrap(fn, n, l, b, a))
        for module, attr, layer, name, before, after in TRACED
    ]

    def undo() -> None:
        for u in reversed(undos):
            u()

    return undo


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit, in output order; BENCHMARK.json lists the same names
PER_LAYER_UNITS: dict[str, str] = {
    "world.gen_s": "s", "world.gen_calls": "count", "world.useful_ratio": "ratio",
    "federated.run_s": "s", "federated.runs": "count", "federated.round_s": "s",
    "federated.records": "count", "federated.local_steps": "count",
    "federated.steps_per_s": "1/s", "federated.useful_ratio": "ratio",
    "nn.train_s.federated": "s", "nn.train_s.attacks": "s",
    "nn.train_calls.federated": "count", "nn.train_calls.attacks": "count",
    "deltastore.write_s": "s", "deltastore.read_s": "s",
    "deltastore.bytes": "bytes", "deltastore.records": "count",
    "attacks.dataset_s": "s", "attacks.dataset_rows": "count",
    **{f"attacks.fit_s.{m}": "s" for m in FIT_METHODS},
    "attacks.fits": "count", "attacks.fit_rows": "count", "attacks.eval_s": "s",
    "metrics.mean_ap_s": "s", "metrics.mean_ap_calls": "count",
    "mitigation.bundle_s": "s", "mitigation.kmeans_s": "s", "mitigation.points": "count",
    "reporting.write_s": "s", "reporting.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "fraction", "trace.spans": "count",
}


def layer_metrics(spans: list[Span], traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run. `<layer>.<fn>_s` is the
    inclusive time of the outermost spans of that kind (an mlp_product fit
    contains an mlp fit, which is not counted again); `<layer>.self_s`
    and `.share` are self time, which adds up to the traced wall time."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s.layer] += s.seconds - children.get(s.id, 0.0)

    def outermost(layer: str, name: str) -> list[Span]:
        picked = []
        for s in spans:
            if s.layer != layer or s.name != name:
                continue
            p = s.parent
            while p >= 0 and not (spans[p].layer == layer and spans[p].name == name):
                p = spans[p].parent
            if p < 0:
                picked.append(s)
        return picked

    def total(picked: list[Span], attr: str | None = None) -> float:
        return float(sum(s.attrs.get(attr, 0) if attr else s.seconds for s in picked))

    def ratio(picked: list[Span]) -> float:
        return len({s.attrs["key"] for s in picked}) / len(picked) if picked else 0.0

    gen = outermost("world", "gen_world")
    fed = outermost("federated", "run_federated")
    rounds = outermost("federated", "round")
    fits = outermost("attacks", "fit")
    train = outermost("nn", "train")
    train_by_parent = {"federated": [], "attacks": []}
    for s in train:
        parent_layer = spans[s.parent].layer if s.parent >= 0 else ""
        train_by_parent.setdefault(parent_layer, []).append(s)
    store_w = outermost("deltastore", "write")
    store_r = outermost("deltastore", "read")
    run_s = total(fed)
    steps = total(fed, "local_steps")
    accounted = sum(self_s.values())

    m: dict[str, float] = {
        "world.gen_s": total(gen),
        "world.gen_calls": len(gen),
        "world.useful_ratio": ratio(gen),
        "federated.run_s": run_s,
        "federated.runs": len(fed),
        "federated.round_s": total(rounds) / len(rounds) if rounds else 0.0,
        "federated.records": total(fed, "records"),
        "federated.local_steps": steps,
        "federated.steps_per_s": steps / run_s if run_s > 0 else 0.0,
        "federated.useful_ratio": ratio(fed),
        "nn.train_s.federated": total(train_by_parent["federated"]),
        "nn.train_s.attacks": total(train_by_parent["attacks"]),
        "nn.train_calls.federated": len(train_by_parent["federated"]),
        "nn.train_calls.attacks": len(train_by_parent["attacks"]),
        "deltastore.write_s": total(store_w),
        "deltastore.read_s": total(store_r),
        "deltastore.bytes": total(store_w + store_r, "bytes"),
        "deltastore.records": total(store_w + store_r, "records"),
        "attacks.dataset_s": total(outermost("attacks", "dataset")),
        "attacks.dataset_rows": total(outermost("attacks", "dataset"), "rows"),
        **{
            f"attacks.fit_s.{meth}": total([s for s in fits if s.attrs["method"] == meth])
            for meth in FIT_METHODS
        },
        "attacks.fits": len(fits),
        "attacks.fit_rows": total(fits, "rows"),
        "attacks.eval_s": total(outermost("attacks", "eval")),
        "metrics.mean_ap_s": total(outermost("metrics", "mean_ap")),
        "metrics.mean_ap_calls": len(outermost("metrics", "mean_ap")),
        "mitigation.bundle_s": total(outermost("mitigation", "bundle")),
        "mitigation.kmeans_s": total(outermost("mitigation", "kmeans")),
        "mitigation.points": total(outermost("mitigation", "tradeoff"), "points"),
        "reporting.write_s": total(outermost("reporting", "write")),
        "reporting.bytes": total(outermost("reporting", "write"), "bytes"),
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        **{f"{layer}.share": self_s[layer] / traced_wall_s for layer in LAYERS},
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.accounted_share": accounted / traced_wall_s,
        "trace.spans": len(spans),
    }
    assert list(m) == list(PER_LAYER_UNITS)
    return m
