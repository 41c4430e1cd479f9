"""Experiment families: generate world, federate, attack, report.

Each family is a function from the `Stages` of one ExperimentConfig to
result tables; all randomness derives from the config seed, so identical
configs reproduce identical tables, whether or not their stages are shared.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import __version__
from .attacks import (
    UNSEEN_LABEL,
    AttackDataset,
    MlpProductMatcher,
    MlpReid,
    ReprConfig,
    bias_consistency,
    build_attack_dataset,
    dataspace_dataset,
    evaluate_matching,
    evaluate_reid,
    open_world_split,
    reference_seed,
    reid_scores,
    train_matcher,
    train_reid,
    user_bias_profiles,
)
from .blas import pin
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    model_spec_from,
    repr_config_from,
    round_config_from,
    snapshot,
    world_config_from,
)
from .federated import ROLE_ANONYMOUS, ROLE_SHADOW, FederatedRun, run_federated, sampled_users
from .forks import Forks
from .mitigation import STRATEGIES, MitigationConfig, tradeoff_curve
from .reporting import Report, Table
from .seeding import seed_from
from .world import DatasetBundle, gen_world, intra_inter_distances, limit_prior, make_iid_control


class Stages:
    """The stages every family starts from, for one config: the world, the
    federated run on it, its attack dataset and the reference MLP attack
    fit on that dataset, each built on first use and then shared. Families
    derive variant worlds from `world` and never modify what they are
    handed, so one `Stages` can serve every family in any order.

    `federate`, `dataset` and `fit` are the one place that knows about
    reuse: handed a stage itself (not a copy of it) they return the next
    stage, so a variant that keeps every row reads the shared numbers."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = model_spec_from(cfg)

    @cached_property
    def world(self) -> DatasetBundle:
        return gen_world(world_config_from(self.cfg))

    @cached_property
    def run(self) -> FederatedRun:
        return run_federated(self.world, self.spec, round_config_from(self.cfg))

    @cached_property
    def attack_set(self) -> AttackDataset:
        """The attack dataset of `run` at the config's representation."""
        return build_attack_dataset(self.run.records, repr_config_from(self.cfg))

    @cached_property
    def reference_mlp(self) -> MlpReid:
        """The MLP re-identification attack fit on `attack_set`: every
        family that attacks the default dataset with the MLP reuses it."""
        return train_reid(self.attack_set, "mlp", reference_seed(self.cfg.seed))

    def _is(self, value: object, stage: str) -> bool:
        """Whether `value` is the stage named `stage`; a stage not built yet
        is nobody's input, so this builds none."""
        return vars(self).get(stage) is value

    def federate(self, bundle: DatasetBundle) -> FederatedRun:
        """FedAvg at this config on `bundle`, a variant of `world`: `run`
        when handed `world`."""
        if self._is(bundle, "world"):
            return self.run
        return run_federated(bundle, self.spec, round_config_from(self.cfg))

    def dataset(self, run: FederatedRun, layer: str | None = None) -> AttackDataset:
        """The attack dataset of `run`'s delta log at `layer` (default: the
        config's `attack_layer`): `attack_set` when handed `run` at that
        layer."""
        layer = self.cfg.attack_layer if layer is None else layer
        if layer == self.cfg.attack_layer and self._is(run, "run"):
            return self.attack_set
        return build_attack_dataset(run.records, ReprConfig(layer, self.cfg.normalize))

    def fit(self, ds: AttackDataset, seed: int) -> MlpReid:
        """The MLP re-identification attack fit on `ds` with `seed`:
        `reference_mlp` when handed `attack_set`, whatever `seed`."""
        if self._is(ds, "attack_set"):
            return self.reference_mlp
        return train_reid(ds, "mlp", seed)


def utility_table(run: FederatedRun) -> Table:
    """Held-out task score after each round."""
    return Table(
        name="utility",
        columns=["round", "task_score"],
        rows=[[t + 1, float(s)] for t, s in enumerate(run.utility)],
    )


def _reid_closed(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    ds = stages.attack_set
    rows = []
    for method in cfg.attack_methods:
        seed = seed_from(cfg.seed, "attack", method)
        model = stages.fit(ds, seed) if method == "mlp" else train_reid(ds, method, seed)
        ev = evaluate_reid(model, ds)
        rows.append(
            [method, float(ev.mean_ap), float(ev.chance_ap), float(ev.ioc), float(ev.top1),
             float(ev.top5), len(ev.skipped)]
        )
    table = Table(
        name="reid",
        columns=["method", "ap", "chance_ap", "ioc", "top1", "top5", "skipped_labels"],
        rows=rows,
    )
    return [table, utility_table(stages.run)]


def _matching_closed(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    ds = stages.attack_set
    shadow_rows = ds.rows_by_user("train")
    anon_rows = ds.rows_by_user("test")
    rows = []
    for method in cfg.match_methods:
        if method == "mlp_product":
            model = MlpProductMatcher(stages.reference_mlp)
        else:
            model = train_matcher(ds, method, seed_from(cfg.seed, "match", method))
        ev = evaluate_matching(
            model, shadow_rows, anon_rows, seed=seed_from(cfg.seed, "match-eval", method)
        )
        rows.append([method, float(ev.ap), float(ev.chance_ap), float(ev.ioc), ev.n_pairs])
    return [Table(name="matching", columns=["method", "ap", "chance_ap", "ioc", "n_pairs"], rows=rows)]


def _open_world(stages: Stages) -> list[Table]:
    """At each seen fraction the attack trains on the shadow deltas of the
    holdout and seen users and scores the anonymous deltas of the seen and
    unseen users: re-identification with the holdout and unseen users as
    one `unseen` class, and siamese matching among the anonymous deltas."""
    cfg = stages.cfg
    ds = stages.attack_set
    rows = []
    for fraction in cfg.seen_fractions:
        split = open_world_split(ds.users, fraction, seed_from(cfg.seed, "ow-split"))
        train, test = split.holdout + split.seen, split.seen + split.unseen
        if split.seen:
            open_ds = ds.keep(train, test, unseen=split.holdout + split.unseen,
                              users=(*split.seen, UNSEEN_LABEL))
            model = train_reid(open_ds, "mlp", seed_from(cfg.seed, "ow-reid", repr(fraction)))
            reid = reid_scores(model, open_ds)
        else:
            reid = [float("nan")] * 3
        known = ds.keep(train, test)
        matcher = train_matcher(known, "siamese", seed_from(cfg.seed, "ow-siamese", repr(fraction)))
        anon_rows = known.rows_by_user("test")
        ev = evaluate_matching(
            matcher, anon_rows, anon_rows, seed=seed_from(cfg.seed, "ow-match", repr(fraction))
        )
        rows.append(
            [float(fraction), len(split.seen), len(split.unseen), len(split.holdout), *reid,
             float(ev.ap), float(ev.chance_ap), float(ev.ioc)]
        )
    return [
        Table(
            name="open_world",
            columns=[
                "seen_fraction", "n_seen", "n_unseen", "n_holdout",
                "reid_ap", "reid_chance_ap", "reid_ioc",
                "match_ap", "match_chance_ap", "match_ioc",
            ],
            rows=rows,
        )
    ]


def _prior_amount(stages: Stages) -> list[Table]:
    """Shrink every user's prior data before the run (the shadow devices see
    fewer examples) and re-attack. A size that cuts no user's prior data
    reads the default run and its reference fit."""
    cfg = stages.cfg
    rows = []
    for m in cfg.prior_grid:
        bundle = limit_prior(stages.world, m, seed_from(cfg.seed, "prior-amount", m))
        ds = stages.dataset(stages.federate(bundle))
        model = stages.fit(ds, seed_from(cfg.seed, "prior-attack", m))
        rows.append([m, *reid_scores(model, ds)])
    return [
        Table(name="prior_amount", columns=["prior_examples", "ap", "chance_ap", "ioc"], rows=rows)
    ]


def _train_amount(stages: Stages) -> list[Table]:
    """Cap the number of shadow deltas per user available to the attack:
    each cap keeps a seeded draw of every user's rows of `attack_set`, and
    a cap that cuts no row reads the reference fit."""
    cfg = stages.cfg
    rows = []
    for k in cfg.train_grid:
        draw = seed_from(seed_from(cfg.seed, "train-amount", k), "train-side")
        ds = stages.attack_set.capped(k, draw)
        model = stages.fit(ds, seed_from(cfg.seed, "train-attack", k))
        rows.append([k, ds.train_x.shape[0], *reid_scores(model, ds)])
    return [
        Table(
            name="train_amount",
            columns=["deltas_per_user", "train_rows", "ap", "chance_ap", "ioc"],
            rows=rows,
        )
    ]


def _layer_sweep(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    rows = []
    for layer, shape in stages.spec.layout():
        ds = stages.dataset(stages.run, layer)
        model = stages.fit(ds, seed_from(cfg.seed, "layer", layer))
        rows.append([layer, int(np.prod(shape)), *reid_scores(model, ds)])
    return [Table(name="layers", columns=["layer", "dim", "ap", "chance_ap", "ioc"], rows=rows)]


def epoch_ranges(rounds: int, n_ranges: int) -> list[tuple[int, int]]:
    """Partition rounds 1..T into contiguous half-open ranges."""
    if n_ranges < 1 or n_ranges > rounds:
        raise ValueError("need 1 <= n_ranges <= rounds")
    bounds = np.linspace(1, rounds + 1, n_ranges + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_ranges)]


def _epoch_grid(stages: Stages) -> list[Table]:
    """Train the attack on one round range of shadow deltas, evaluate on
    another range of anonymous deltas, for every range pair. Each range
    keeps the rows of its rounds of `attack_set`: its shadow side trains
    and its anonymous side is scored. Each range's model is fit once, with
    the seed of its diagonal cell, and scored on every range's rows.

    The ranges' fits are independent, so they are split between this
    process and forked children (`Forks.map`). Every range's rows are
    selected here first, so a child builds no stage of its own."""
    cfg = stages.cfg
    ranges = epoch_ranges(cfg.rounds, cfg.epoch_ranges)
    sets = [stages.attack_set.in_rounds(lo, hi) for lo, hi in ranges]

    def train_row(train: tuple[tuple[int, int], AttackDataset]) -> list[list]:
        (lo, hi), train_ds = train
        model = stages.fit(train_ds, seed_from(cfg.seed, "grid", lo, lo))
        return [[lo, hi, *eval_range, *reid_scores(model, eval_ds)]
                for eval_range, eval_ds in zip(ranges, sets)]

    with Forks() as forks:
        rows = [row for cells in forks.map(train_row, zip(ranges, sets)) for row in cells]
    return [
        Table(
            name="epoch_grid",
            columns=["train_lo", "train_hi", "eval_lo", "eval_hi", "ap", "chance_ap", "ioc"],
            rows=rows,
        )
    ]


def _iid_control(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    iid = make_iid_control(stages.world, seed_from(cfg.seed, "iid-control"))
    rows = []
    for world, bundle in (("biased", stages.world), ("iid", iid)):
        ds = stages.dataset(stages.federate(bundle))
        model = stages.fit(ds, seed_from(cfg.seed, "iid-attack", world))
        rows.append([world, *reid_scores(model, ds)])
    return [Table(name="iid_control", columns=["world", "ap", "chance_ap", "ioc"], rows=rows)]


def _dataspace(stages: Stages) -> list[Table]:
    """Raw-example attack next to the delta-space baseline: one MLP fit on
    the users' prior examples scores every set size's private subsets."""
    cfg = stages.cfg
    seed = seed_from(cfg.seed, "dataspace")
    sets = [dataspace_dataset(stages.world, size, seed) for size in cfg.dataspace_set_sizes]
    model = train_reid(sets[0], "mlp", seed)
    rows = [["delta", 0, *reid_scores(stages.reference_mlp, stages.attack_set)]]
    for size, ds in zip(cfg.dataspace_set_sizes, sets):
        rows.append(["data_single" if size == 1 else "data_set", size, *reid_scores(model, ds)])
    return [
        Table(name="dataspace", columns=["input", "set_size", "ap", "chance_ap", "ioc"], rows=rows)
    ]


def _bias_profile(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    profiles = user_bias_profiles(stages.run.records, stages.spec.output_weight)
    users = stages.world.user_ids()
    rows = []
    for u in users:
        own = bias_consistency(profiles[(u, ROLE_SHADOW)], profiles[(u, ROLE_ANONYMOUS)])
        cross = [
            bias_consistency(profiles[(u, ROLE_SHADOW)], profiles[(v, ROLE_ANONYMOUS)])
            for v in users
            if v != u
        ]
        rows.append([u, float(own), float(np.mean(cross))])
    consistency = Table(
        name="consistency", columns=["user", "self_consistency", "mean_cross_consistency"], rows=rows
    )
    dist = intra_inter_distances(stages.world, seed_from(cfg.seed, "distances"))
    distance_rows = [[u, float(dist[u][0]), float(dist[u][1])] for u in users]
    distances = Table(name="distances", columns=["user", "intra_median", "inter_median"], rows=distance_rows)
    profile_rows = []
    for (u, role) in sorted(profiles):
        profile_rows.append([u, role] + [float(v) for v in profiles[(u, role)]])
    profile_table = Table(
        name="profiles",
        columns=["user", "role"] + [f"class_{c}" for c in range(cfg.classes)],
        rows=profile_rows,
    )
    return [consistency, distances, profile_table]


def _mitigation(stages: Stages) -> list[Table]:
    cfg = stages.cfg
    grids = {"noise": cfg.noise_grid, "bkg_repl": cfg.repl_grid,
             "rand_aug": cfg.aug_grid, "mm_aug": cfg.aug_grid}
    grid = [
        MitigationConfig(strategy, value)
        for strategy in STRATEGIES if strategy in cfg.mitigation_strategies
        for value in grids[strategy] if value > 0
    ]
    points = tradeoff_curve(
        stages.world, stages.spec, round_config_from(cfg), repr_config_from(cfg), grid,
        (stages.attack_set, stages.run.utility[-1]), cfg.seed, cfg.clusters_m,
    )
    rows = [
        [
            p.strategy, float(p.value), float(p.attacker_ap), float(p.chance_ap),
            float(p.privacy_ioc), float(p.task_score), float(p.utility),
        ]
        for p in points
    ]
    return [
        Table(
            name="tradeoff",
            columns=["strategy", "value", "attacker_ap", "chance_ap", "privacy_ioc",
                     "task_score", "utility"],
            rows=rows,
        )
    ]


# cheap families first, so an interrupted run over all of them still leaves
# most reports behind
FAMILIES = {
    "reid_closed": _reid_closed,
    "matching_closed": _matching_closed,
    "iid_control": _iid_control,
    "bias_profile": _bias_profile,
    "layer_sweep": _layer_sweep,
    "train_amount": _train_amount,
    "open_world": _open_world,
    "epoch_grid": _epoch_grid,
    "dataspace": _dataspace,
    "prior_amount": _prior_amount,
    "mitigation": _mitigation,
}
EXPERIMENT_FAMILIES = tuple(FAMILIES)


Sampled = dict[str, list[set[int]]]  # per role, the users each round samples


def _delta_counts(sampled: Sampled) -> tuple[Counter, Counter]:
    """How many shadow and how many anonymous deltas each user logs."""
    return tuple(Counter(u for users in sampled[role] for u in users)
                 for role in (ROLE_SHADOW, ROLE_ANONYMOUS))


def _closed_world_gap(cfg: ExperimentConfig, sampled: Sampled) -> str:
    """The default attack dataset spans every round, and re-identification
    scores each anonymous delta against the users with a shadow delta. With
    one scored user every ranking is perfect and chance AP is 1, so the
    anonymous deltas must come from 2 users (and then so must the shadow)."""
    shadow, anonymous = _delta_counts(sampled)
    if not anonymous:
        return "an anonymous delta to re-identify; the server samples no anonymous device"
    unsampled = sorted(anonymous.keys() - shadow.keys())
    if unsampled:
        return ("a shadow delta of every user it re-identifies; the server samples the anonymous "
                f"but never the shadow devices of users {unsampled}")
    return ("deltas of 2 users to tell apart; the server samples the anonymous devices of users "
            f"{sorted(anonymous)} only" if len(anonymous) < 2 else "")


def _matching_gap(cfg: ExperimentConfig, sampled: Sampled) -> str:
    """`_matching_closed` scores pairs of a shadow and an anonymous delta,
    negative pairs of 2 users and positive pairs of one, and the siamese
    matcher trains on pairs of one user's shadow deltas."""
    shadow, anonymous = _delta_counts(sampled)
    siamese = "siamese" in cfg.match_methods
    if (len(shadow) >= 2 and len(anonymous) >= 2 and shadow.keys() & anonymous.keys()
            and not (siamese and max(shadow.values()) < 2)):
        return ""
    return (f"deltas of 2 users on each side and of one user on both"
            f"{', and 2 shadow deltas of one device' if siamese else ''}; the users log "
            f"{dict(sorted(shadow.items()))} shadow and {dict(sorted(anonymous.items()))} anonymous deltas")


def _open_world_gap(cfg: ExperimentConfig, sampled: Sampled) -> str:
    """At each seen fraction the siamese matcher of `_open_world` trains on
    the shadow deltas of the holdout and seen users and is scored on the
    anonymous deltas of the seen and unseen users: each side needs 2 users,
    one of them with 2 deltas to form a positive pair."""
    shadow, anonymous = _delta_counts(sampled)
    users = sorted(shadow)
    if len(users) < 3:
        return f"shadow deltas from 3 users; {len(users)} log any"
    for fraction in cfg.seen_fractions:
        split = open_world_split(users, fraction, seed_from(cfg.seed, "ow-split"))
        for side, counts, names, group in (
            ("shadow", shadow, "holdout and seen", split.holdout + split.seen),
            ("anonymous", anonymous, "seen and unseen", split.seen + split.unseen),
        ):
            logged = [counts[u] for u in group if u in counts]
            if len(logged) < 2 or max(logged) < 2:
                return (f"at seen fraction {fraction!r}, {side} deltas from 2 of the {names} "
                        f"users {list(group)}, and 2 from one of them; they log {logged}")
    return ""


def _devices_gap(cfg: ExperimentConfig, sampled: Sampled, need: str,
                 spans: list[tuple[int, int]], roles: tuple[str, ...]) -> str:
    """`need` and what is missing, unless each span [lo, hi) of rounds
    samples every user's device of each of `roles`, and an anonymous one."""
    for lo, hi in spans:
        seen = {role: set().union(*rounds[lo - 1 : hi - 1]) for role, rounds in sampled.items()}
        missing = [f"user {u} ({role})" for u in range(cfg.users) for role in roles
                   if u not in seen[role]]
        if not seen[ROLE_ANONYMOUS]:
            missing.append("any anonymous device")
        if missing:
            return f"{need}; rounds [{lo}, {hi}) sample no delta of {', '.join(missing)}"
    return ""


# what each family needs of the logged deltas: a description of those missing, or ""
NEEDS = {
    **dict.fromkeys(("reid_closed", "iid_control", "layer_sweep", "train_amount", "dataspace",
                     "prior_amount", "mitigation"), _closed_world_gap),
    "matching_closed": _matching_gap,
    "open_world": _open_world_gap,
    # each range's model scores every range's anonymous deltas
    "epoch_grid": lambda cfg, sampled: _devices_gap(
        cfg, sampled, "every shadow device and some anonymous device in each epoch range",
        epoch_ranges(cfg.rounds, cfg.epoch_ranges), (ROLE_SHADOW,)),
    # each user's two devices are compared
    "bias_profile": lambda cfg, sampled: _devices_gap(
        cfg, sampled, "a delta from every device", [(1, cfg.rounds + 1)],
        (ROLE_SHADOW, ROLE_ANONYMOUS)),
}


def _check_needs(cfg: ExperimentConfig, family: str) -> None:
    """Raise a ConfigError before any world is built where `NEEDS[family]`
    finds a gap, at full participation (only `open_world` can have one: it
    needs 3 users, and 2 holdout and seen users at each seen fraction), then
    on the devices the server samples, which the config alone fixes."""
    everyone = [set(range(cfg.users))] * cfg.rounds
    gap = NEEDS[family](cfg, {ROLE_SHADOW: everyone, ROLE_ANONYMOUS: everyone})
    key = "users" if cfg.users < 3 else "seen_fractions"
    if not gap and cfg.client_fraction < 1.0:
        gap = NEEDS[family](cfg, sampled_users(cfg.users, round_config_from(cfg)))
        key = "client_fraction"
    if gap:
        raise ConfigError(f"config key {key!r}: {family} needs {gap} (got {getattr(cfg, key)!r})")


def run_experiment(cfg: ExperimentConfig, family: str, stages: Stages | None = None) -> Report:
    """Run one family; `stages` shares the world and federation of `cfg`
    across calls and is built fresh when not given."""
    if family not in FAMILIES:
        raise ValueError(f"unknown experiment family {family!r}; expected one of {EXPERIMENT_FAMILIES}")
    _check_needs(cfg, family)
    if stages is None:
        stages = Stages(cfg)
    elif stages.cfg != cfg:
        raise ValueError("stages were built for another config")
    pin()
    tables = FAMILIES[family](stages)
    return Report(
        experiment=family,
        config=snapshot(cfg),
        seed=cfg.seed,
        version=__version__,
        config_hash=config_hash(cfg),
        tables=tables,
    )
