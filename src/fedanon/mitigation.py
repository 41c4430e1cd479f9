"""Anonymity defenses and the privacy/utility tradeoff benchmark.

All strategies are applied by the anonymous device only: the adversary's
shadow devices and prior data are never touched, and the federated
aggregation path is identical with and without mitigation. `noise` perturbs
the outgoing delta each round; the three data-side strategies (background
replacement, random augmentation, matched augmentation from a background
cluster) rewrite the device's private data before the run starts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .attacks import AttackDataset, build_attack_dataset, mlp_reid_scores
from .blocks import squared_distances
from .deltastore import ReprConfig
from .federated import (
    ROLE_ANONYMOUS,
    DeltaHook,
    DeviceState,
    RoundConfig,
    run_federated,
)
from .nn import ModelSpec, ParamVector
from .seeding import rng_from, seed_from
from .world import DatasetBundle

STRATEGIES = ("noise", "bkg_repl", "rand_aug", "mm_aug")

KMEANS_MAX_ITER = 100
DEFAULT_CLUSTERS = 10


@dataclass(frozen=True)
class MitigationConfig:
    strategy: str
    sigma2: float = 0.0  # noise variance per delta element
    alpha: float = 0.0  # data-strategy strength relative to |D_u|
    clusters_m: int = DEFAULT_CLUSTERS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be >= 0")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.strategy == "bkg_repl" and self.alpha > 1.0:
            raise ValueError("bkg_repl alpha must be in [0, 1]")
        if self.clusters_m < 1:
            raise ValueError("clusters_m must be >= 1")

    @property
    def value(self) -> float:
        return self.sigma2 if self.strategy == "noise" else self.alpha

    def is_identity(self) -> bool:
        return self.value == 0.0


@dataclass
class TradeoffPoint:
    strategy: str
    value: float
    attacker_ap: float
    chance_ap: float
    privacy_ioc: float
    task_score: float
    utility: float  # task score normalized to 1.0 at the no-mitigation anchor


def noise_perturb(delta: ParamVector, sigma2: float, seed: int) -> ParamVector:
    """Elementwise zero-mean Gaussian noise with variance sigma2."""
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be >= 0")
    if sigma2 == 0.0:
        return delta
    rng = rng_from(seed, "delta-noise")
    std = float(np.sqrt(sigma2))
    return ParamVector(
        [(name, arr + rng.normal(0.0, std, size=arr.shape)) for name, arr in delta.layers]
    )


def make_noise_hook(sigma2: float, seed: int) -> DeltaHook:
    """Delta hook that noises anonymous devices' outgoing updates."""

    def hook(round_t: int, device: DeviceState, delta: ParamVector) -> ParamVector:
        if device.role != ROLE_ANONYMOUS or sigma2 == 0.0:
            return delta
        return noise_perturb(delta, sigma2, seed_from(seed, "noise", round_t, device.device_id))

    return hook


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    sse_history: tuple[float, ...]


def cluster_background(features: np.ndarray, m: int, seed: int = 0) -> KMeansResult:
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
    cluster of them."""
    if strategy not in ("bkg_repl", "rand_aug", "mm_aug"):
        raise ValueError(f"not a data strategy: {strategy!r}")
    if strategy == "bkg_repl" and not 0.0 <= alpha <= 1.0:
        raise ValueError("bkg_repl alpha must be in [0, 1]")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    n = len(rows)
    k = int(np.floor(alpha * n))
    if k == 0:
        return rows
    if not len(pool):
        raise ValueError("empty draw pool")
    rng = rng_from(seed, "data-strategy")
    draws = pool[rng.choice(len(pool), size=k, replace=k > len(pool))]
    if strategy == "bkg_repl":
        out = rows.copy()
        out[rng.choice(n, size=k, replace=False)] = draws
        return out
    return np.concatenate([rows, draws])


def background_clusters(bundle: DatasetBundle, clusters_m: int, seed: int) -> KMeansResult:
    """The k-means clustering of the background rows that `mm_aug` draws
    from at `clusters_m` clusters and mitigation seed `seed`."""
    return cluster_background(
        bundle.x[bundle.background], clusters_m, seed_from(seed, "mm-clusters")
    )


def mitigate_bundle(
    bundle: DatasetBundle, cfg: MitigationConfig, clusters: KMeansResult | None = None
) -> DatasetBundle:
    """Apply a data-side strategy to every user's private split. The prior
    splits, test split and background are returned untouched; `noise` (and
    any zero-strength config) is an identity here. `mm_aug` draws from
    `clusters`, the `background_clusters` of `cfg`, fitted here when not
    given."""
    if cfg.strategy == "noise" or cfg.is_identity():
        return bundle
    order = bundle.user_ids()
    pools: dict[int, np.ndarray] = {}
    if cfg.strategy == "mm_aug":
        if clusters is None:
            clusters = background_clusters(bundle, cfg.clusters_m, cfg.seed)
        for u in order:
            # each user commits to one randomly assigned cluster
            pick = int(rng_from(cfg.seed, "mm-pick", u).integers(cfg.clusters_m))
            chosen = bundle.background[clusters.assignments == pick]
            pools[u] = chosen if len(chosen) else bundle.background
    else:
        for u in order:
            pools[u] = bundle.background
    private = {
        u: apply_data_strategy(
            bundle.private[u], cfg.strategy, cfg.alpha, pools[u], seed_from(cfg.seed, "user-data", u)
        )
        for u in order
    }
    return replace(bundle, private=private)


def tradeoff_curve(
    bundle: DatasetBundle,
    spec: ModelSpec,
    fed_cfg: RoundConfig,
    repr_cfg: ReprConfig,
    grid: Sequence[MitigationConfig],
    attack_seed: int = 0,
    anchor: tuple[AttackDataset, float] | None = None,
) -> list[TradeoffPoint]:
    """Re-run the federation and the strongest closed-world attack for every
    grid point; utility is normalized to 1.0 at the no-mitigation anchor.

    The grid must contain a zero-strength config to anchor the
    normalization. `anchor`, when given, is the attack dataset (at
    `repr_cfg`) and the final task score of the unmitigated federation of
    `bundle` at `fed_cfg`, and the anchor attacks that dataset instead of
    running the federation again. The `mm_aug` points share one background
    clustering per (clusters_m, seed).
    """
    if not any(cfg.is_identity() for cfg in grid):
        raise ValueError("grid must include the no-mitigation point")

    baseline: tuple[float, float, float, float] | None = None
    clusters = functools.cache(functools.partial(background_clusters, bundle))

    def run_point(cfg: MitigationConfig) -> tuple[float, float, float, float]:
        if cfg.is_identity() and anchor is not None:
            ds, score = anchor
        else:
            hook = make_noise_hook(cfg.sigma2, cfg.seed) if cfg.strategy == "noise" else None
            fit = clusters(cfg.clusters_m, cfg.seed) if cfg.strategy == "mm_aug" else None
            run = run_federated(mitigate_bundle(bundle, cfg, fit), spec, fed_cfg, delta_hook=hook)
            ds, score = build_attack_dataset(run.records, repr_cfg), run.utility[-1]
        ap, chance, ioc = mlp_reid_scores(ds, seed_from(attack_seed, "tradeoff-attack"))
        return ap, chance, ioc, score

    points: list[TradeoffPoint] = []
    for cfg in grid:
        if cfg.is_identity():
            if baseline is None:
                baseline = run_point(cfg)
            ap, chance, ioc, score = baseline
        else:
            ap, chance, ioc, score = run_point(cfg)
        points.append(
            TradeoffPoint(
                strategy=cfg.strategy,
                value=cfg.value,
                attacker_ap=ap,
                chance_ap=chance,
                privacy_ioc=ioc,
                task_score=score,
                utility=0.0,  # filled below once the anchor is known
            )
        )
    assert baseline is not None
    anchor_score = baseline[3]
    for p in points:
        p.utility = p.task_score / anchor_score if anchor_score != 0.0 else float("nan")
    return points

