"""Synthetic biased-user world generator.

Each user draws examples from a personal, Dirichlet-distributed class
preference that can drift over time and is modulated by per-album
sub-preferences. Features are Gaussian clouds around fixed unit-norm class
prototypes, so the classification task is learnable while per-user class
bias remains the dominant identity signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .seeding import rng_from, seed_from

PRIOR_KINDS = ("random", "chrono", "photoset", "profile")

# how tightly album sub-preferences concentrate around the user preference,
# and how much they weigh against the time-drifted preference when sampling
ALBUM_SHARPNESS = 20.0
ALBUM_BLEND = 0.5

_PREF_FLOOR = 1e-6  # Dirichlet parameters must stay strictly positive


@dataclass(frozen=True)
class WorldConfig:
    users: int = 20
    classes: int = 10
    feature_dim: int = 32
    n_per_user: int = 200
    concentration: float = 0.1  # Dirichlet parameter; smaller = more biased users
    feature_noise: float = 0.6  # stddev of the Gaussian cloud around a prototype
    drift: float = 0.3  # 0 = stationary preference, 1 = full interpolation
    albums_per_user: int = 3
    test_fraction: float = 0.2
    background_size: int = 2000
    prior_kind: str = "random"
    prior_fraction: float = 0.22
    profile_class: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.users < 2:
            raise ValueError("users must be >= 2")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.n_per_user < 4:
            raise ValueError("n_per_user must be >= 4")
        if self.concentration <= 0:
            raise ValueError("concentration must be > 0")
        if self.feature_noise <= 0:
            raise ValueError("feature_noise must be > 0")
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError("drift must be in [0, 1]")
        if self.albums_per_user < 1:
            raise ValueError("albums_per_user must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")
        if self.prior_kind not in PRIOR_KINDS:
            raise ValueError(f"prior_kind must be one of {PRIOR_KINDS}, got {self.prior_kind!r}")
        if not 0.0 < self.prior_fraction < 1.0:
            raise ValueError("prior_fraction must be in (0, 1)")
        if self.prior_kind == "profile" and not (
            self.profile_class is not None and 0 <= self.profile_class < self.classes
        ):
            raise ValueError("profile_class must name a class when prior_kind = profile")


@dataclass
class Example:
    x: np.ndarray
    y: int
    timestamp: float
    album_id: int
    user_id: int


@dataclass
class UserProfile:
    user_id: int
    pref_start: np.ndarray  # class preference at t=0
    pref_end: np.ndarray  # drift target at t=1
    albums: list[np.ndarray]  # per-album sub-preferences


@dataclass
class DatasetBundle:
    config: WorldConfig
    users: list[UserProfile]
    user_examples: dict[int, list[Example]]  # per-user pool after the test holdout
    prior: dict[int, list[Example]]
    private: dict[int, list[Example]]
    test: list[Example]
    background: list[Example]
    prototypes: np.ndarray  # (classes, feature_dim)

    def user_ids(self) -> list[int]:
        return sorted(self.user_examples)


def user_pref_at(profile: UserProfile, t: float, drift: float) -> np.ndarray:
    """Time-interpolated preference: (1 - t*drift)*start + t*drift*end."""
    w = t * drift
    return (1.0 - w) * profile.pref_start + w * profile.pref_end


def _draw_prototypes(rng: np.random.Generator, classes: int, dim: int) -> np.ndarray:
    for _ in range(64):
        raw = rng.normal(size=(classes, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if not np.all(norms > 0):
            continue
        protos = raw / norms
        gaps = np.linalg.norm(protos[:, None, :] - protos[None, :, :], axis=2)
        gaps[np.diag_indices(classes)] = np.inf
        if gaps.min() > 1e-6:
            return protos
    raise ValueError(f"cannot draw {classes} distinct unit prototypes in {dim} dimensions")


def _draw_pref(rng: np.random.Generator, classes: int, concentration: float) -> np.ndarray:
    pref = rng.dirichlet(np.full(classes, concentration))
    pref = np.clip(pref, _PREF_FLOOR, None)
    return pref / pref.sum()


def gen_background(
    count: int,
    classes: int,
    feature_dim: int,
    prototypes: np.ndarray,
    feature_noise: float,
    seed: int,
) -> list[Example]:
    """Uniform-class pool with the same feature model as user data."""
    if count < 1:
        raise ValueError("background count must be >= 1")
    rng = rng_from(seed, "background")
    out = []
    for _ in range(count):
        y = int(rng.integers(classes))
        x = prototypes[y] + rng.normal(0.0, feature_noise, size=feature_dim)
        out.append(Example(x=x, y=y, timestamp=0.0, album_id=-1, user_id=-1))
    return out


def _gen_user_examples(
    rng: np.random.Generator, profile: UserProfile, cfg: WorldConfig, prototypes: np.ndarray
) -> list[Example]:
    n, albums = cfg.n_per_user, cfg.albums_per_user
    out = []
    for i in range(n):
        t = i / (n - 1)
        album = min(i * albums // n, albums - 1)
        pref = user_pref_at(profile, t, cfg.drift)
        mix = (1.0 - ALBUM_BLEND) * pref + ALBUM_BLEND * profile.albums[album]
        mix = mix / mix.sum()
        y = int(rng.choice(cfg.classes, p=mix))
        x = prototypes[y] + rng.normal(0.0, cfg.feature_noise, size=cfg.feature_dim)
        out.append(Example(x=x, y=y, timestamp=t, album_id=album, user_id=profile.user_id))
    return out


def split_prior(
    examples: list[Example],
    kind: str,
    fraction: float,
    *,
    profile_class: int | None = None,
    background: list[Example] | None = None,
    seed: int = 0,
) -> tuple[list[Example], list[Example]]:
    """Divide one user's pool into the adversary's prior and the on-device
    private set.

    random: seeded IID partition. chrono: earliest fraction by timestamp.
    photoset: whole albums until the fraction is reached. profile: curated
    examples of `profile_class` drawn from the background stand in as the
    prior and the full user pool stays private.
    """
    if kind not in PRIOR_KINDS:
        raise ValueError(f"unknown prior kind {kind!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError("prior fraction must be in (0, 1)")
    n = len(examples)
    if n < 2:
        raise ValueError("need at least 2 examples to split")
    rng = rng_from(seed, "split", kind)
    n_prior = min(max(int(round(fraction * n)), 1), n - 1)

    if kind == "random":
        perm = rng.permutation(n)
        chosen = np.zeros(n, dtype=bool)
        chosen[perm[:n_prior]] = True
        prior = [examples[i] for i in range(n) if chosen[i]]
        private = [examples[i] for i in range(n) if not chosen[i]]
        return prior, private

    if kind == "chrono":
        order = np.argsort([e.timestamp for e in examples], kind="stable")
        prior_idx = set(order[:n_prior].tolist())
        prior = [examples[i] for i in sorted(prior_idx)]
        private = [examples[i] for i in range(n) if i not in prior_idx]
        return prior, private

    if kind == "photoset":
        album_ids = sorted({e.album_id for e in examples})
        if len(album_ids) < 2:
            raise ValueError("photoset split needs at least 2 albums per user")
        order = [album_ids[i] for i in rng.permutation(len(album_ids))]
        chosen_albums: set[int] = set()
        size = 0
        for album in order:
            if len(chosen_albums) == len(album_ids) - 1:
                break  # always leave at least one whole album private
            if size >= n_prior:
                break
            chosen_albums.add(album)
            size += sum(1 for e in examples if e.album_id == album)
        prior = [e for e in examples if e.album_id in chosen_albums]
        private = [e for e in examples if e.album_id not in chosen_albums]
        return prior, private

    # profile: curated class examples from the background, private = all user data
    if profile_class is None:
        raise ValueError("profile split requires profile_class")
    if background is None:
        raise ValueError("profile split requires a background pool")
    candidates = [e for e in background if e.y == profile_class]
    if not candidates:
        raise ValueError(f"background holds no examples of class {profile_class}")
    replace_draws = len(candidates) < n_prior
    idx = rng.choice(len(candidates), size=n_prior, replace=replace_draws)
    prior = [candidates[i] for i in np.sort(idx)]
    return prior, list(examples)


def gen_world(cfg: WorldConfig) -> DatasetBundle:
    """Build the full bundle: profiles, per-user pools, the prior/private
    split, a global test holdout, and the background pool."""
    prototypes = _draw_prototypes(rng_from(cfg.seed, "prototypes"), cfg.classes, cfg.feature_dim)
    background = gen_background(
        cfg.background_size, cfg.classes, cfg.feature_dim, prototypes, cfg.feature_noise, cfg.seed
    )

    users: list[UserProfile] = []
    user_examples: dict[int, list[Example]] = {}
    prior: dict[int, list[Example]] = {}
    private: dict[int, list[Example]] = {}
    test: list[Example] = []

    for u in range(cfg.users):
        rng_u = rng_from(cfg.seed, "user", u)
        pref_start = _draw_pref(rng_u, cfg.classes, cfg.concentration)
        pref_end = _draw_pref(rng_u, cfg.classes, cfg.concentration)
        albums = []
        for _ in range(cfg.albums_per_user):
            alpha = np.clip(ALBUM_SHARPNESS * pref_start, _PREF_FLOOR, None)
            album_pref = np.clip(rng_u.dirichlet(alpha), _PREF_FLOOR, None)
            albums.append(album_pref / album_pref.sum())
        profile = UserProfile(user_id=u, pref_start=pref_start, pref_end=pref_end, albums=albums)
        users.append(profile)

        examples = _gen_user_examples(rng_u, profile, cfg, prototypes)
        n_test = int(round(cfg.test_fraction * len(examples)))
        n_test = min(max(n_test, 1), len(examples) - 2)
        holdout = set(
            rng_from(cfg.seed, "holdout", u).choice(len(examples), size=n_test, replace=False).tolist()
        )
        pool = [examples[i] for i in range(len(examples)) if i not in holdout]
        test.extend(examples[i] for i in sorted(holdout))
        user_examples[u] = pool
        prior[u], private[u] = split_prior(
            pool,
            cfg.prior_kind,
            cfg.prior_fraction,
            profile_class=cfg.profile_class,
            background=background,
            seed=seed_from(cfg.seed, "prior", u),
        )

    return DatasetBundle(
        config=cfg,
        users=users,
        user_examples=user_examples,
        prior=prior,
        private=private,
        test=test,
        background=background,
        prototypes=prototypes,
    )


def make_iid_control(bundle: DatasetBundle, seed: int | None = None) -> DatasetBundle:
    """Unbias device data: permute the pooled union of all prior and private
    examples back into the same per-device slots, so every device keeps its
    example count but loses its owner's class bias."""
    if seed is None:
        seed = seed_from(bundle.config.seed, "iid")
    order = bundle.user_ids()
    slots: list[tuple[int, str]] = []
    pool: list[Example] = []
    for u in order:
        for e in bundle.prior[u]:
            slots.append((u, "prior"))
            pool.append(e)
        for e in bundle.private[u]:
            slots.append((u, "private"))
            pool.append(e)
    perm = rng_from(seed, "iid-permute").permutation(len(pool))
    prior: dict[int, list[Example]] = {u: [] for u in order}
    private: dict[int, list[Example]] = {u: [] for u in order}
    for (u, side), i in zip(slots, perm):
        (prior if side == "prior" else private)[u].append(pool[i])
    user_examples = {u: prior[u] + private[u] for u in order}
    return replace(bundle, user_examples=user_examples, prior=prior, private=private)


def limit_prior(bundle: DatasetBundle, max_examples: int, seed: int | None = None) -> DatasetBundle:
    """Cut every user's prior set down to at most `max_examples` (seeded)."""
    if max_examples < 1:
        raise ValueError("max_examples must be >= 1")
    if seed is None:
        seed = seed_from(bundle.config.seed, "limit-prior")
    prior: dict[int, list[Example]] = {}
    for u in bundle.user_ids():
        full = bundle.prior[u]
        if len(full) <= max_examples:
            prior[u] = list(full)
            continue
        idx = rng_from(seed, "limit", u).choice(len(full), size=max_examples, replace=False)
        prior[u] = [full[i] for i in np.sort(idx)]
    return replace(bundle, prior=prior)


def features_of(examples: Iterable[Example]) -> np.ndarray:
    return np.stack([e.x for e in examples])


def labels_of(examples: Iterable[Example]) -> np.ndarray:
    return np.asarray([e.y for e in examples], dtype=np.int64)


def intra_inter_distances(
    bundle: DatasetBundle, sample_size: int = 500, seed: int | None = None
) -> dict[int, tuple[float, float]]:
    """Per-user (intra, inter) median L2 distances on L2-normalized features.

    intra: median pairwise distance within the user's pool. inter: median
    distance from the user's pool to a seeded global sample of at most
    `sample_size` examples.
    """
    if seed is None:
        seed = seed_from(bundle.config.seed, "distances")
    order = bundle.user_ids()
    everything = [e for u in order for e in bundle.user_examples[u]]
    all_feats = _normalize_rows(features_of(everything))
    k = min(sample_size, all_feats.shape[0])
    sample_idx = rng_from(seed, "dist-sample").choice(all_feats.shape[0], size=k, replace=False)
    sample = all_feats[sample_idx]

    out: dict[int, tuple[float, float]] = {}
    for u in order:
        feats = _normalize_rows(features_of(bundle.user_examples[u]))
        if feats.shape[0] < 2:
            raise ValueError(f"user {u} needs >= 2 examples for distance stats")
        diffs = feats[:, None, :] - feats[None, :, :]
        d = np.linalg.norm(diffs, axis=2)
        intra = float(np.median(d[np.triu_indices(feats.shape[0], k=1)]))
        cross = np.linalg.norm(feats[:, None, :] - sample[None, :, :], axis=2)
        inter = float(np.median(cross))
        out[u] = (intra, inter)
    return out


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms


# ---------------------------------------------------------------------------
# bundle (de)serialization: single .npz with one section per split


def _pack_examples(examples: list[Example], dim: int) -> dict[str, np.ndarray]:
    n = len(examples)
    return {
        "x": np.stack([e.x for e in examples]) if n else np.zeros((0, dim)),
        "y": np.asarray([e.y for e in examples], dtype=np.int64),
        "t": np.asarray([e.timestamp for e in examples], dtype=np.float64),
        "album": np.asarray([e.album_id for e in examples], dtype=np.int64),
        "user": np.asarray([e.user_id for e in examples], dtype=np.int64),
    }


def _unpack_examples(data: dict[str, np.ndarray]) -> list[Example]:
    return [
        Example(
            x=data["x"][i].copy(),
            y=int(data["y"][i]),
            timestamp=float(data["t"][i]),
            album_id=int(data["album"][i]),
            user_id=int(data["user"][i]),
        )
        for i in range(data["y"].shape[0])
    ]


def save_bundle(path, bundle: DatasetBundle) -> None:
    """Write the bundle as a .npz file; identity sharing between the pool and
    the prior/private sides is encoded as per-slot side codes."""
    cfg = bundle.config
    order = bundle.user_ids()
    pool = [e for u in order for e in bundle.user_examples[u]]
    slot_user = np.asarray(
        [u for u in order for _ in bundle.user_examples[u]], dtype=np.int64
    )
    by_id = {id(e): i for i, e in enumerate(pool)}
    side = np.full(len(pool), -1, dtype=np.int64)
    curated: list[Example] = []
    curated_user: list[int] = []
    for u in order:
        for e in bundle.prior[u]:
            if id(e) in by_id:
                side[by_id[id(e)]] = 0
            else:
                curated.append(e)  # profile priors live outside the pool
                curated_user.append(u)
        for e in bundle.private[u]:
            side[by_id[id(e)]] = 1
    arrays: dict[str, np.ndarray] = {
        "config_json": np.frombuffer(
            json.dumps(
                {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}, sort_keys=True
            ).encode(),
            dtype=np.uint8,
        ),
        "prototypes": bundle.prototypes,
        "pref_start": np.stack([p.pref_start for p in bundle.users]),
        "pref_end": np.stack([p.pref_end for p in bundle.users]),
        "album_prefs": np.stack([np.stack(p.albums) for p in bundle.users]),
        "pool_side": side,
        "pool_slot_user": slot_user,
        "curated_slot_user": np.asarray(curated_user, dtype=np.int64),
    }
    for name, examples in (
        ("pool", pool),
        ("curated", curated),
        ("test", bundle.test),
        ("bkg", bundle.background),
    ):
        for key, arr in _pack_examples(examples, cfg.feature_dim).items():
            arrays[f"{name}_{key}"] = arr
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_bundle(path) -> DatasetBundle:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    cfg_dict = json.loads(bytes(arrays["config_json"]).decode())
    cfg = WorldConfig(**cfg_dict)

    def section(name: str) -> list[Example]:
        return _unpack_examples({k: arrays[f"{name}_{k}"] for k in ("x", "y", "t", "album", "user")})

    pool = section("pool")
    curated = section("curated")
    test = section("test")
    background = section("bkg")
    side = arrays["pool_side"]
    slot_user = arrays["pool_slot_user"]
    curated_user = arrays["curated_slot_user"]

    users = [
        UserProfile(
            user_id=u,
            pref_start=arrays["pref_start"][u].copy(),
            pref_end=arrays["pref_end"][u].copy(),
            albums=[arrays["album_prefs"][u, a].copy() for a in range(arrays["album_prefs"].shape[1])],
        )
        for u in range(arrays["pref_start"].shape[0])
    ]
    user_examples: dict[int, list[Example]] = {p.user_id: [] for p in users}
    prior: dict[int, list[Example]] = {p.user_id: [] for p in users}
    private: dict[int, list[Example]] = {p.user_id: [] for p in users}
    for e, s, u in zip(pool, side, slot_user):
        user_examples[int(u)].append(e)
        if s == 0:
            prior[int(u)].append(e)
        elif s == 1:
            private[int(u)].append(e)
    for e, u in zip(curated, curated_user):
        prior[int(u)].append(e)
    return DatasetBundle(
        config=cfg,
        users=users,
        user_examples=user_examples,
        prior=prior,
        private=private,
        test=test,
        background=background,
        prototypes=arrays["prototypes"].copy(),
    )
