"""Experiment configuration: defaults, key-value files, and flag overrides.

Config files are plain `key = value` lines (# comments allowed); every key
has a same-named --flag on the command line. Precedence is flags > file >
defaults. Unknown keys, non-finite floats and out-of-range values are
rejected, naming the key. The world, federation and model keys are
checked by the component configs built from them, the rest here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .attacks import MATCH_METHODS, REID_METHODS, ReprConfig
from .federated import RoundConfig
from .mitigation import STRATEGIES
from .nn import ModelSpec
from .world import WorldConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # world
    users: int = 20
    classes: int = 10
    feature_dim: int = 32
    n_per_user: int = 200
    beta: float = 0.1
    sigma_x: float = 0.6
    drift: float = 0.3
    albums_per_user: int = 3
    test_fraction: float = 0.2
    background_size: int = 2000
    prior_kind: str = "random"
    prior_fraction: float = 0.22
    profile_class: int = -1  # -1 = unset; required when prior_kind = profile
    # task model and federation
    model_kind: str = "mlp1"
    hidden_dim: int = 16
    rounds: int = 50
    client_fraction: float = 1.0
    local_epochs: int = 1
    batch_size: int = 4
    eta: float = 0.8
    # delta representation
    attack_layer: str = "W2"
    normalize: bool = True
    # attack recipe
    attack_methods: tuple[str, ...] = ("chance", "knn", "svm", "mlp")
    match_methods: tuple[str, ...] = ("chance", "mlp_product", "siamese")
    seen_fractions: tuple[float, ...] = (0.0, 0.5, 1.0)
    prior_grid: tuple[int, ...] = (1, 4, 16, 64)
    train_grid: tuple[int, ...] = (1, 2, 4, 8, 16)
    epoch_ranges: int = 5
    dataspace_set_sizes: tuple[int, ...] = (1, 4, 16)
    # mitigation sweep
    mitigation_strategies: tuple[str, ...] = ("noise", "bkg_repl", "rand_aug", "mm_aug")
    noise_grid: tuple[float, ...] = (1e-2, 1e-1, 1.0, 1e1, 1e2)
    repl_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    aug_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    clusters_m: int = 10
    # bookkeeping
    seed: int = 0
    out_dir: str = "runs"


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str) -> Any:
    default = _FIELDS[key].default
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered not in ("true", "false"):
                raise ValueError("expected true or false")
            return lowered == "true"
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            if raw == "":
                return ()
            parts = [p.strip() for p in raw.split(",")]
            element = default[0] if default else ""
            if isinstance(element, float):
                return tuple(float(p) for p in parts)
            if isinstance(element, int):
                return tuple(int(p) for p in parts)
            return tuple(parts)
        return raw
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: {err}") from None


def _canonical(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_canonical(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def snapshot(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical string form of every key that can change results, in
    declaration order: what a report records. `out_dir` only says where
    the results are written, so it is left out."""
    return {f.name: _canonical(getattr(cfg, f.name))
            for f in fields(ExperimentConfig) if f.name != "out_dir"}


def config_hash(cfg: ExperimentConfig | dict[str, str]) -> str:
    """Hash of a config's snapshot, or of the snapshot a report records."""
    values = cfg if isinstance(cfg, dict) else snapshot(cfg)
    text = "\n".join(f"{k} = {v}" for k, v in values.items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def read_config_file(path) -> dict[str, str]:
    """Raw key/value strings from a config document, each key set once."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def world_config_from(cfg: ExperimentConfig) -> WorldConfig:
    return WorldConfig(
        users=cfg.users,
        classes=cfg.classes,
        feature_dim=cfg.feature_dim,
        n_per_user=cfg.n_per_user,
        concentration=cfg.beta,
        feature_noise=cfg.sigma_x,
        drift=cfg.drift,
        albums_per_user=cfg.albums_per_user,
        test_fraction=cfg.test_fraction,
        background_size=cfg.background_size,
        prior_kind=cfg.prior_kind,
        prior_fraction=cfg.prior_fraction,
        profile_class=cfg.profile_class if cfg.profile_class >= 0 else None,
        seed=cfg.seed,
    )


def model_spec_from(cfg: ExperimentConfig) -> ModelSpec:
    return ModelSpec(
        kind=cfg.model_kind,
        input_dim=cfg.feature_dim,
        output_dim=cfg.classes,
        hidden_dim=cfg.hidden_dim if cfg.model_kind == "mlp1" else 0,
    )


def round_config_from(cfg: ExperimentConfig) -> RoundConfig:
    return RoundConfig(
        fraction_c=cfg.client_fraction,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        eta=cfg.eta,
        rounds=cfg.rounds,
        seed=cfg.seed,
    )


def repr_config_from(cfg: ExperimentConfig) -> ReprConfig:
    return ReprConfig(layer_name=cfg.attack_layer, normalize=cfg.normalize)


# component field -> config key, where the two names differ
_KEY_OF_FIELD = {
    "concentration": "beta",
    "feature_noise": "sigma_x",
    "fraction_c": "client_fraction",
    "kind": "model_kind",
}


def _require(cond: bool, key: str, message: str, value: Any) -> None:
    if not cond:
        raise ConfigError(f"config key {key!r}: {message} (got {value!r})")


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every key: the world, federation and model keys by building
    the component configs that own them, the remaining keys here. What a
    family needs of the devices the server samples is checked by
    `experiments.run_experiment`, for that family only."""
    for key, value in vars(cfg).items():
        entries = value if isinstance(value, tuple) else (value,)
        _require(all(math.isfinite(v) for v in entries if isinstance(v, float)), key,
                 "must be finite", value)
    for build in (world_config_from, round_config_from, model_spec_from):
        try:
            build(cfg)
        except ValueError as err:
            # component checks start their message with the field they reject
            field = str(err).split()[0]
            raise ConfigError(f"config key {_KEY_OF_FIELD.get(field, field)!r}: {err}") from None
    layers = [name for name, _ in model_spec_from(cfg).layout()]
    _require(
        cfg.attack_layer in layers, "attack_layer", f"must be a layer of the model {layers}",
        cfg.attack_layer,
    )
    _require(
        cfg.rounds >= 2, "rounds",
        "must be >= 2: the siamese matcher pairs two deltas of one device", cfg.rounds,
    )
    _require(
        1 <= cfg.epoch_ranges <= cfg.rounds, "epoch_ranges", "must be in [1, rounds]",
        cfg.epoch_ranges,
    )
    _require(
        1 <= cfg.clusters_m <= cfg.background_size, "clusters_m",
        "must be in [1, background_size]", cfg.clusters_m,
    )
    _require(cfg.seed >= 0, "seed", "must be >= 0", cfg.seed)
    for key, values, allowed in (
        ("attack_methods", cfg.attack_methods, REID_METHODS),
        ("match_methods", cfg.match_methods, MATCH_METHODS),
        ("mitigation_strategies", cfg.mitigation_strategies, STRATEGIES),
    ):
        _require(len(values) > 0, key, "must not be empty", values)
        for v in values:
            _require(v in allowed, key, f"must be drawn from {allowed}", v)
    for key, values in (("prior_grid", cfg.prior_grid), ("train_grid", cfg.train_grid),
                        ("dataspace_set_sizes", cfg.dataspace_set_sizes)):
        _require(len(values) > 0, key, "must not be empty", values)
        _require(all(v >= 1 for v in values), key, "entries must be >= 1", values)
    _require(len(cfg.seen_fractions) > 0, "seen_fractions", "must not be empty", cfg.seen_fractions)
    _require(
        all(0.0 <= v <= 1.0 for v in cfg.seen_fractions),
        "seen_fractions", "entries must be in [0, 1]", cfg.seen_fractions,
    )
    _require(all(v > 0 for v in cfg.noise_grid), "noise_grid", "entries must be > 0", cfg.noise_grid)
    _require(
        all(0.0 <= v <= 1.0 for v in cfg.repl_grid), "repl_grid", "entries must be in [0, 1]", cfg.repl_grid
    )
    _require(all(v >= 0 for v in cfg.aug_grid), "aug_grid", "entries must be >= 0", cfg.aug_grid)
    return cfg


def build_config(
    file_path: str | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Merge defaults, an optional config file, and raw string overrides
    (typically from command-line flags), then validate."""
    values: dict[str, Any] = {}
    if file_path is not None:
        for key, raw in read_config_file(file_path).items():
            values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return validate(ExperimentConfig(**values))
