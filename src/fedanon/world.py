"""Synthetic biased-user world generator.

Each user draws examples from a personal, Dirichlet-distributed class
preference that can drift over time and is modulated by per-album
sub-preferences. Features are Gaussian clouds around fixed unit-norm class
prototypes, so the classification task is learnable while per-user class
bias remains the dominant identity signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .blocks import squared_distances
from .seeding import rng_from, seed_from

PRIOR_KINDS = ("random", "chrono", "photoset", "profile")

# how tightly album sub-preferences concentrate around the user preference,
# and how much they weigh against the time-drifted preference when sampling
ALBUM_SHARPNESS = 20.0
ALBUM_BLEND = 0.5

_PREF_FLOOR = 1e-6  # Dirichlet parameters must stay strictly positive

# size of the global sample each user's inter-user distances are taken to
DISTANCE_SAMPLE = 500


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
        if self.prior_kind == "photoset":
            albums = _timeline_albums(self)
            kept = [np.unique(albums[~_held_out(self, u)]).size for u in range(self.users)]
            if min(kept) < 2:
                raise ValueError(f"albums_per_user leaves user {kept.index(1)} one album after the "
                                 "test holdout, and a photoset prior needs 2 per user")


def _timeline_albums(cfg: WorldConfig) -> np.ndarray:
    """The album of each position in a user's timeline, in consecutive runs."""
    position = np.arange(cfg.n_per_user, dtype=np.int64)
    return np.minimum(position * cfg.albums_per_user // cfg.n_per_user, cfg.albums_per_user - 1)


def _held_out(cfg: WorldConfig, u: int) -> np.ndarray:
    """Mask of the positions in user u's timeline that go to the test split."""
    n = cfg.n_per_user
    n_test = min(max(int(round(cfg.test_fraction * n)), 1), n - 2)
    held = np.zeros(n, dtype=bool)
    held[rng_from(cfg.seed, "holdout", u).choice(n, size=n_test, replace=False)] = True
    return held


@dataclass
class UserProfile:
    user_id: int
    pref_start: np.ndarray  # class preference at t=0
    pref_end: np.ndarray  # drift target at t=1
    albums: list[np.ndarray]  # per-album sub-preferences


@dataclass
class DatasetBundle:
    """Every generated example once, as columns: the user rows in generation
    order, then the background rows (t = 0, album = -1, user = -1). Each
    split is an int64 array of row indices into the columns, so a profile
    prior indexes background rows."""

    config: WorldConfig
    users: list[UserProfile]
    x: np.ndarray  # (N, feature_dim) float64
    y: np.ndarray  # (N,) int64 class
    t: np.ndarray  # (N,) float64 position in the owner's timeline, in [0, 1]
    album: np.ndarray  # (N,) int64
    user: np.ndarray  # (N,) int64 owner
    user_examples: dict[int, np.ndarray]  # per-user pool after the test holdout
    prior: dict[int, np.ndarray]
    private: dict[int, np.ndarray]
    test: np.ndarray
    background: np.ndarray
    prototypes: np.ndarray  # (classes, feature_dim)

    def user_ids(self) -> list[int]:
        return sorted(self.user_examples)


def user_pref_at(profile: UserProfile, t: float | np.ndarray, drift: float) -> np.ndarray:
    """Time-interpolated preference: (1 - t*drift)*start + t*drift*end; a
    column of times gives one preference per row."""
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
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-class pool with the same feature model as user data: (x, y)."""
    if count < 1:
        raise ValueError("background count must be >= 1")
    rng = rng_from(seed, "background")
    x = np.empty((count, feature_dim))
    y = np.empty(count, dtype=np.int64)
    for i in range(count):
        y[i] = rng.integers(classes)
        x[i] = prototypes[y[i]] + rng.normal(0.0, feature_noise, size=feature_dim)
    return x, y


def _gen_user_examples(
    rng: np.random.Generator, profile: UserProfile, cfg: WorldConfig, prototypes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One user's rows in timeline order: (x, y, t, album). Each row's
    class is the draw `rng.choice(classes, p=mix)` makes: its uniform
    searched in the cumulative mix, normalised by its last entry."""
    n = cfg.n_per_user
    t = np.arange(n, dtype=np.int64) / (n - 1)
    album = _timeline_albums(cfg)
    pref = user_pref_at(profile, t[:, None], cfg.drift)
    mix = (1.0 - ALBUM_BLEND) * pref + ALBUM_BLEND * np.asarray(profile.albums)[album]
    mix = mix / mix.sum(axis=1, keepdims=True)
    cdf = mix.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    x = np.empty((n, cfg.feature_dim))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        y[i] = cdf[i].searchsorted(rng.random(), side="right")
        x[i] = prototypes[y[i]] + rng.normal(0.0, cfg.feature_noise, size=cfg.feature_dim)
    return x, y, t, album


def split_prior(
    bundle: DatasetBundle,
    rows: np.ndarray,
    kind: str,
    fraction: float,
    *,
    profile_class: int | None = None,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Divide one user's pool rows into the adversary's prior and the
    on-device private set; both keep the order of `rows`.

    random: seeded IID partition. chrono: earliest fraction by timestamp.
    photoset: whole albums until the fraction is reached, keeping one
    private (`WorldConfig` ensures every pool holds 2). profile: seeded
    draws from the background rows of `profile_class` stand in as the prior
    and the full user pool stays private.
    """
    if kind not in PRIOR_KINDS:
        raise ValueError(f"unknown prior kind {kind!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError("prior fraction must be in (0, 1)")
    n = len(rows)
    if n < 2:
        raise ValueError("need at least 2 examples to split")
    rng = rng_from(seed, "split", kind)
    n_prior = min(max(int(round(fraction * n)), 1), n - 1)

    if kind == "profile":
        if profile_class is None:
            raise ValueError("profile split requires profile_class")
        candidates = bundle.background[bundle.y[bundle.background] == profile_class]
        if not candidates.size:
            raise ValueError(f"background holds no examples of class {profile_class}")
        idx = rng.choice(len(candidates), size=n_prior, replace=len(candidates) < n_prior)
        return candidates[np.sort(idx)], rows.copy()

    chosen = np.zeros(n, dtype=bool)
    if kind == "random":
        chosen[rng.permutation(n)[:n_prior]] = True
    elif kind == "chrono":
        chosen[np.argsort(bundle.t[rows], kind="stable")[:n_prior]] = True
    else:  # photoset
        albums = bundle.album[rows]
        album_ids = np.unique(albums)
        for taken, album in enumerate(album_ids[rng.permutation(len(album_ids))]):
            # always leave at least one whole album private
            if taken == len(album_ids) - 1 or chosen.sum() >= n_prior:
                break
            chosen |= albums == album
    return rows[chosen], rows[~chosen]


def gen_world(cfg: WorldConfig) -> DatasetBundle:
    """Build the full bundle: profiles, the user rows and their test
    holdout, the background rows, and the prior/private split."""
    prototypes = _draw_prototypes(rng_from(cfg.seed, "prototypes"), cfg.classes, cfg.feature_dim)
    bkg_x, bkg_y = gen_background(
        cfg.background_size, cfg.classes, cfg.feature_dim, prototypes, cfg.feature_noise, cfg.seed
    )

    n = cfg.n_per_user
    users: list[UserProfile] = []
    columns: list[tuple[np.ndarray, ...]] = []
    user_examples: dict[int, np.ndarray] = {}
    test: list[np.ndarray] = []
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
        columns.append(_gen_user_examples(rng_u, profile, cfg, prototypes))

        held = _held_out(cfg, u)
        rows = np.arange(u * n, (u + 1) * n, dtype=np.int64)
        test.append(rows[held])
        user_examples[u] = rows[~held]

    x, y, t, album = (np.concatenate(c) for c in zip(*columns))
    m = cfg.background_size
    no_owner = np.full(m, -1, dtype=np.int64)
    bundle = DatasetBundle(
        config=cfg,
        users=users,
        x=np.concatenate([x, bkg_x]),
        y=np.concatenate([y, bkg_y]),
        t=np.concatenate([t, np.zeros(m)]),
        album=np.concatenate([album, no_owner]),
        user=np.concatenate([np.repeat(np.arange(cfg.users, dtype=np.int64), n), no_owner]),
        user_examples=user_examples,
        prior={},
        private={},
        test=np.concatenate(test),
        background=np.arange(len(x), len(x) + m, dtype=np.int64),
        prototypes=prototypes,
    )
    for u, rows in user_examples.items():
        bundle.prior[u], bundle.private[u] = split_prior(
            bundle,
            rows,
            cfg.prior_kind,
            cfg.prior_fraction,
            profile_class=cfg.profile_class,
            seed=seed_from(cfg.seed, "prior", u),
        )
    return bundle


def make_iid_control(bundle: DatasetBundle, seed: int) -> DatasetBundle:
    """Unbias device data: permute the pooled union of all prior and private
    rows back into the same per-device slots, so every device keeps its
    example count but loses its owner's class bias."""
    order = bundle.user_ids()
    slots = [side[u] for u in order for side in (bundle.prior, bundle.private)]
    pool = np.concatenate(slots)
    shuffled = pool[rng_from(seed, "iid-permute").permutation(len(pool))]
    parts = np.split(shuffled, np.cumsum([len(s) for s in slots])[:-1])
    prior = {u: parts[2 * i] for i, u in enumerate(order)}
    private = {u: parts[2 * i + 1] for i, u in enumerate(order)}
    user_examples = {u: np.concatenate([prior[u], private[u]]) for u in order}
    return replace(bundle, user_examples=user_examples, prior=prior, private=private)


def limit_prior(bundle: DatasetBundle, max_examples: int, seed: int) -> DatasetBundle:
    """Cut every user's prior set down to at most `max_examples` (seeded):
    the bundle itself when no prior set is over the cap."""
    if max_examples < 1:
        raise ValueError("max_examples must be >= 1")
    if all(len(bundle.prior[u]) <= max_examples for u in bundle.user_ids()):
        return bundle
    prior: dict[int, np.ndarray] = {}
    for u in bundle.user_ids():
        full = bundle.prior[u]
        if len(full) <= max_examples:
            prior[u] = full
            continue
        idx = rng_from(seed, "limit", u).choice(len(full), size=max_examples, replace=False)
        prior[u] = full[np.sort(idx)]
    return replace(bundle, prior=prior)


def intra_inter_distances(bundle: DatasetBundle, seed: int) -> dict[int, tuple[float, float]]:
    """Per-user (intra, inter) median L2 distances on L2-normalized features.

    intra: median pairwise distance within the user's pool. inter: median
    distance from the user's pool to a seeded global sample of at most
    DISTANCE_SAMPLE examples.
    """
    order = bundle.user_ids()
    everything = np.concatenate([bundle.user_examples[u] for u in order])
    all_feats = _normalize_rows(bundle.x[everything])
    k = min(DISTANCE_SAMPLE, all_feats.shape[0])
    sample_idx = rng_from(seed, "dist-sample").choice(all_feats.shape[0], size=k, replace=False)
    sample = all_feats[sample_idx]

    out: dict[int, tuple[float, float]] = {}
    for u in order:
        feats = _normalize_rows(bundle.x[bundle.user_examples[u]])
        if feats.shape[0] < 2:
            raise ValueError(f"user {u} needs >= 2 examples for distance stats")
        d = np.sqrt(squared_distances(feats, feats))
        intra = float(np.median(d[np.triu_indices(feats.shape[0], k=1)]))
        inter = float(np.median(np.sqrt(squared_distances(feats, sample))))
        out[u] = (intra, inter)
    return out


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms

