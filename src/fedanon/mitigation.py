"""Anonymity defenses and the privacy/utility tradeoff benchmark.

All strategies are applied by the anonymous device only: the adversary's
shadow devices and prior data are never touched, and the federated
aggregation path is identical with and without mitigation. `noise` perturbs
the outgoing delta each round; the three data-side strategies (background
replacement, random augmentation, matched augmentation from a background
cluster) rewrite the device's private data before the run starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .attacks import (
    AttackDataset,
    ReprConfig,
    build_attack_dataset,
    mlp_reid_scores,
    reference_seed,
)
from .blocks import squared_distances
from .federated import (
    ROLE_ANONYMOUS,
    DeltaHook,
    DeviceState,
    RoundConfig,
    run_federated,
)
from .forks import Forks
from .nn import ModelSpec
from .seeding import rng_from, seed_from
from .world import DatasetBundle

STRATEGIES = ("noise", "bkg_repl", "rand_aug", "mm_aug")

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class MitigationConfig:
    """One point of the sweep: a strategy at strength `value` > 0, the noise
    variance per delta element for `noise` and the rows drawn relative to
    |D_u| for the data strategies."""

    strategy: str
    value: float

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if not self.value > 0.0:
            raise ValueError("value must be > 0")
        if self.strategy == "bkg_repl" and self.value > 1.0:
            raise ValueError("bkg_repl value must be in (0, 1]")


@dataclass
class TradeoffPoint:
    strategy: str
    value: float
    attacker_ap: float
    chance_ap: float
    privacy_ioc: float
    task_score: float
    utility: float  # task score normalized to 1.0 at the no-mitigation anchor


def make_noise_hook(sigma2: float, seed: int) -> DeltaHook:
    """Delta hook that adds elementwise zero-mean Gaussian noise of variance
    `sigma2` to anonymous devices' outgoing updates."""
    std = float(np.sqrt(sigma2))

    def hook(round_t: int, device: DeviceState, delta: np.ndarray) -> np.ndarray:
        if device.role != ROLE_ANONYMOUS:
            return delta
        rng = rng_from(seed_from(seed, "noise", round_t, device.device_id), "delta-noise")
        return delta + rng.normal(0.0, std, size=delta.shape)

    return hook


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    sse_history: tuple[float, ...]


def cluster_background(features: np.ndarray, m: int, seed: int) -> KMeansResult:
    """Deterministic k-means: k-means++ seeding, then Lloyd iterations to an
    assignment fixpoint or 100 iterations."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, d) matrix")
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"cluster count must be in [1, {n}], got {m}")
    rng = rng_from(seed, "kmeans")

    centroids = np.empty((m, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            pick = rng.choice(n, p=probs)
        else:
            pick = rng.integers(n)  # all points coincide with a centroid
        centroids[j] = x[pick]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    assignments = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        dist = squared_distances(x, centroids)
        new_assign = dist.argmin(axis=1)
        history.append(float(dist[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assignments) and len(history) > 1:
            break
        assignments = new_assign
        for j in range(m):
            members = x[assignments == j]
            if members.shape[0]:  # empty clusters keep their centroid
                centroids[j] = members.mean(axis=0)
    return KMeansResult(
        assignments=assignments, centroids=centroids, sse_history=tuple(history)
    )


def apply_data_strategy(
    rows: np.ndarray,
    strategy: str,
    alpha: float,
    pool: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Rewrite one device's row indices. bkg_repl swaps floor(alpha*n) rows
    for pool draws (size preserved); rand_aug and mm_aug append
    floor(alpha*n) pool draws. The pool is the background rows or one
    non-empty cluster of them."""
    n = len(rows)
    k = int(np.floor(alpha * n))
    if k == 0:
        return rows
    rng = rng_from(seed, "data-strategy")
    draws = pool[rng.choice(len(pool), size=k, replace=k > len(pool))]
    if strategy == "bkg_repl":
        out = rows.copy()
        out[rng.choice(n, size=k, replace=False)] = draws
        return out
    return np.concatenate([rows, draws])


def mitigate_bundle(
    bundle: DatasetBundle, cfg: MitigationConfig, seed: int, clusters: KMeansResult | None
) -> DatasetBundle:
    """Apply a data-side strategy to every user's private split at the
    mitigation seed `seed`. The prior splits, test split and background are
    returned untouched, and `noise` returns the bundle itself. `mm_aug`
    commits each user to one cluster of `clusters`, a k-means fit of the
    background rows, and falls back to the whole background when that
    cluster is empty."""
    if cfg.strategy == "noise":
        return bundle
    private = {}
    for u in bundle.user_ids():
        pool = bundle.background
        if cfg.strategy == "mm_aug":
            pick = int(rng_from(seed, "mm-pick", u).integers(len(clusters.centroids)))
            chosen = bundle.background[clusters.assignments == pick]
            pool = chosen if len(chosen) else bundle.background
        private[u] = apply_data_strategy(
            bundle.private[u], cfg.strategy, cfg.value, pool, seed_from(seed, "user-data", u)
        )
    return replace(bundle, private=private)


def tradeoff_curve(
    bundle: DatasetBundle,
    spec: ModelSpec,
    fed_cfg: RoundConfig,
    repr_cfg: ReprConfig,
    grid: Sequence[MitigationConfig],
    anchor: tuple[AttackDataset, float],
    seed: int,
    clusters_m: int,
) -> list[TradeoffPoint]:
    """The anchor's row (`noise`, 0.0), then one row per grid point, each
    attacked by the MLP re-identification attack on the one layer of
    `repr_cfg` (the config's `attack_layer`, `W2` by default). That need
    not be the layer that leaks most: the `layer_sweep` family scores each
    layer. Utility is normalized to 1.0 at the anchor.

    `anchor` is the attack dataset (at `repr_cfg`) and the final task score
    of the unmitigated federation of `bundle` at `fed_cfg`. Every grid point
    runs that federation again under its defense. Every seed derives from
    the config seed `seed`, and the `mm_aug` points share one k-means fit of
    the background at `clusters_m` clusters. Every row is fit with the
    reference fit's seed (`attacks.reference_seed`), so the anchor row is
    the reference fit's scores and each point differs from it only in its
    data.

    Each point's attack fit runs in a forked child as soon as its dataset
    exists, while this process federates the next point.
    """
    attack_seed = reference_seed(seed)
    anchor_ds, anchor_score = anchor

    def federated(cfg: MitigationConfig) -> float:
        """Run the federation under `cfg`, start the fit on its deltas and
        return its final task score; the run is freed on return."""
        hook = make_noise_hook(cfg.value, seed) if cfg.strategy == "noise" else None
        run = run_federated(mitigate_bundle(bundle, cfg, seed, clusters), spec, fed_cfg,
                            delta_hook=hook)
        fits.start(mlp_reid_scores, build_attack_dataset(run.records, repr_cfg), attack_seed)
        return run.utility[-1]

    with Forks() as fits:
        fits.start(mlp_reid_scores, anchor_ds, attack_seed)
        clusters = None
        if any(cfg.strategy == "mm_aug" for cfg in grid):
            clusters = cluster_background(
                bundle.x[bundle.background], clusters_m, seed_from(seed, "mm-clusters")
            )
        scores = [anchor_score, *(federated(cfg) for cfg in grid)]
        fitted = fits.join()
    keys = [("noise", 0.0), *((cfg.strategy, cfg.value) for cfg in grid)]
    return [
        TradeoffPoint(
            strategy=strategy,
            value=value,
            attacker_ap=ap,
            chance_ap=chance,
            privacy_ioc=ioc,
            task_score=score,
            utility=score / anchor_score if anchor_score != 0.0 else float("nan"),
        )
        for (strategy, value), score, (ap, chance, ioc) in zip(keys, scores, fitted)
    ]
