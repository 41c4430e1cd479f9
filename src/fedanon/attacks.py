"""Deanonymization attacks over parameter deltas.

The adversary trains on shadow-device deltas (its prior knowledge) and is
evaluated on anonymous-device deltas from the same federated run. Attacks
come in two flavors: re-identification (score every known user for a given
delta) and matching (probability that two deltas share an author). Every
attack is fit on an `AttackDataset` by `train_reid` or `train_matcher`. The
open-world attack is re-identification on a copy of the dataset in which
held-out and unseen users form one explicit `unseen` class, and the
data-space attack fits the same classifier on raw examples instead of
deltas (`dataspace_dataset`). Round ranges and per-user caps of the shadow
deltas are row selections of one dataset, as the open-world copy is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from . import nn
from .blocks import row_blocks
from .deltastore import ROLE_ANONYMOUS, ROLE_SHADOW, DeltaLog
from .metrics import (
    ScoredPredictions,
    average_precision,
    chance_level,
    increase_over_chance,
    mean_ap,
    topk_accuracy,
)
from .nn import ModelSpec, Params
from .seeding import rng_from, seed_from
from .world import DatasetBundle

REID_METHODS = ("chance", "knn", "svm", "mlp")
MATCH_METHODS = ("chance", "mlp_product", "siamese")

KNN_K = 10

SVM_LR = 0.01
SVM_EPOCHS = 200
SVM_WEIGHT_DECAY = 1e-4

MLP_HIDDEN = 128
MLP_LR = 0.01
MLP_MOMENTUM = 0.9
MLP_LR_DECAY = 1e-6
MLP_EPOCHS = 100
MLP_BATCH = 32

SIAMESE_EMBED = 128
SIAMESE_LR = 1e-3
SIAMESE_EPOCHS = 50
# kept small on purpose: with a handful of training identities the metric
# memorizes them long before 50 epochs and stops transferring to new users
SIAMESE_PAIRS_PER_EPOCH = 64
SIAMESE_BATCH = 32
SIAMESE_RMS_DECAY = 0.9
SIAMESE_RMS_EPSILON = 1e-7

UNSEEN_LABEL = -1  # sentinel class id for the open-world `unseen` bucket


@dataclass(frozen=True)
class ReprConfig:
    """Which layer, flattened row-major, becomes the attack feature vector,
    and whether to L2 normalize it (zero vectors pass through unchanged)."""

    layer_name: str
    normalize: bool = True


@dataclass
class AttackDataset:
    """Shadow rows become the train side, anonymous rows the test side."""

    train_x: np.ndarray
    train_users: np.ndarray
    test_x: np.ndarray
    test_users: np.ndarray
    # the class order: the sorted distinct train users, or the order `keep`
    # was given, such as an open world's seen users and then UNSEEN_LABEL
    users: tuple[int, ...]
    # the federated round of each row; raw-example rows (`dataspace_dataset`)
    # belong to no round and carry round 0
    train_rounds: np.ndarray
    test_rounds: np.ndarray

    def encode(self, user_ids: np.ndarray, classes: Sequence[int]) -> np.ndarray:
        lookup = {u: i for i, u in enumerate(classes)}
        return np.asarray([lookup[int(u)] for u in user_ids], dtype=np.int64)

    def side(self, name: str) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The rows of side `name` ("train" or "test") and, for each of its
        users in ascending order, the int64 indices of that user's rows in
        side order."""
        if name not in ("train", "test"):
            raise ValueError(f"unknown side {name!r}; expected 'train' or 'test'")
        x, users = (self.train_x, self.train_users) if name == "train" else (self.test_x, self.test_users)
        return x, {int(u): np.flatnonzero(users == u) for u in np.unique(users)}

    def _select(self, on_train: np.ndarray, on_test: np.ndarray, unseen: Collection[int] = (),
                users: Sequence[int] | None = None) -> "AttackDataset":
        """The rows where the boolean masks `on_train` and `on_test` hold,
        each side in its order, with the rows of `unseen` users relabelled
        UNSEEN_LABEL. `users` is the class order (default: the sorted
        distinct kept train users)."""
        if not (on_train.any() and on_test.any()):
            raise ValueError("attack dataset needs at least one row on each side")
        train_users, test_users = (
            np.where(np.isin(ids, list(unseen)), UNSEEN_LABEL, ids)
            for ids in (self.train_users[on_train], self.test_users[on_test])
        )
        if users is None:
            users = sorted(set(train_users.tolist()))
        return AttackDataset(
            self.train_x[on_train], train_users, self.test_x[on_test], test_users, tuple(users),
            self.train_rounds[on_train], self.test_rounds[on_test],
        )

    def keep(self, train: Collection[int], test: Collection[int], unseen: Collection[int] = (),
             users: Sequence[int] | None = None) -> "AttackDataset":
        """The rows of the `train` users on the train side and of the `test`
        users on the test side, relabelled and ordered as `_select` does."""
        return self._select(np.isin(self.train_users, list(train)),
                            np.isin(self.test_users, list(test)), unseen, users)

    def in_rounds(self, lo: int, hi: int) -> "AttackDataset":
        """The rows of rounds [lo, hi) on both sides: the dataset itself
        when that is every row."""
        if lo >= hi:
            raise ValueError(f"empty round range [{lo}, {hi})")
        on_train = (lo <= self.train_rounds) & (self.train_rounds < hi)
        on_test = (lo <= self.test_rounds) & (self.test_rounds < hi)
        return self if on_train.all() and on_test.all() else self._select(on_train, on_test)

    def capped(self, k: int, seed: int) -> "AttackDataset":
        """At most `k` train rows per user: of a user u with more, the `k`
        that rng_from(seed, "max-per-user", u) draws from its train rows in
        order. The test side is kept whole, and both sides keep their order.
        With no user over the cap, the dataset itself."""
        if k < 1:
            raise ValueError(f"a per-user cap must be >= 1, got {k}")
        on_train = np.zeros(len(self.train_users), dtype=bool)
        for u in np.unique(self.train_users):
            rows = np.flatnonzero(self.train_users == u)
            if len(rows) > k:
                draw = rng_from(seed, "max-per-user", int(u))
                rows = rows[draw.choice(len(rows), size=k, replace=False)]
            on_train[rows] = True
        if on_train.all():
            return self
        return self._select(on_train, np.ones(len(self.test_users), dtype=bool))


def build_attack_dataset(records: DeltaLog, repr_cfg: ReprConfig) -> AttackDataset:
    """The attack dataset of a delta log: the shadow devices' deltas are the
    rows the attack trains on, and the anonymous devices' deltas the rows it
    scores. Each side keeps log order, and each row is the delta represented
    by `repr_cfg`, with its user and its round. Round ranges and per-user
    caps are row selections of the result (`in_rounds`, `capped`)."""
    train, test = records.role == ROLE_SHADOW, records.role == ROLE_ANONYMOUS
    if not (train.any() and test.any()):
        raise ValueError("attack dataset needs at least one record on each side")
    layer = records.layer(repr_cfg.layer_name)
    train_x, test_x = layer[train], layer[test]
    if repr_cfg.normalize:
        # one norm per row, as for a lone vector: a batched one can differ in the last bit
        for row in (*train_x, *test_x):
            norm = np.linalg.norm(row)
            if norm > 0.0:
                row /= norm
    train_users = records.user[train]
    return AttackDataset(
        train_x=train_x,
        train_users=train_users,
        test_x=test_x,
        test_users=records.user[test],
        users=tuple(sorted(set(train_users.tolist()))),
        train_rounds=records.round[train],
        test_rounds=records.round[test],
    )


# ---------------------------------------------------------------------------
# re-identification


class ChanceReid:
    """Uninformed baseline: uniform score over the known users."""

    def __init__(self, classes: Sequence[int]):
        self.classes = tuple(classes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.full((x.shape[0], len(self.classes)), 1.0 / len(self.classes))


class KnnReid:
    """K nearest neighbors by Euclidean distance; scores are vote fractions,
    distance ties resolved toward the lower training index."""

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, classes: Sequence[int], k: int):
        self.train_x = train_x
        self.train_y = train_y
        self.classes = tuple(classes)
        self.k = min(k, train_x.shape[0])

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        d2 = (
            (x**2).sum(axis=1, keepdims=True)
            - 2.0 * x @ self.train_x.T
            + (self.train_x**2).sum(axis=1)
        )
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes = self.train_y[nearest]
        scores = np.zeros((x.shape[0], len(self.classes)))
        for c in range(len(self.classes)):
            scores[:, c] = (votes == c).sum(axis=1) / self.k
        return scores


class SvmReid:
    """One-vs-rest linear scorers fit by full-batch hinge-loss gradient
    descent with L2 weight decay; scores are softmax over the margins."""

    def __init__(self, w: np.ndarray, b: np.ndarray, classes: Sequence[int]):
        self.w = w
        self.b = b
        self.classes = tuple(classes)

    @staticmethod
    def fit(train_x: np.ndarray, train_y: np.ndarray, classes: Sequence[int], seed: int) -> "SvmReid":
        n, dim = train_x.shape
        n_cls = len(classes)
        rng = rng_from(seed, "svm-init")
        w = nn.glorot_uniform(rng, (n_cls, dim))
        b = np.zeros(n_cls)
        signs = -np.ones((n, n_cls))
        signs[np.arange(n), train_y] = 1.0
        for _ in range(SVM_EPOCHS):
            margins = train_x @ w.T + b
            active = (1.0 - signs * margins) > 0.0
            g = -(signs * active) / n
            w = w - SVM_LR * (g.T @ train_x + 2.0 * SVM_WEIGHT_DECAY * w)
            b = b - SVM_LR * g.sum(axis=0)
        return SvmReid(w, b, classes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return nn.softmax(x @ self.w.T + self.b)


class MlpReid:
    """Single-hidden-layer (128 unit) softmax classifier over delta vectors,
    trained with momentum SGD."""

    def __init__(self, spec: ModelSpec, params: Params, classes: Sequence[int]):
        self.spec = spec
        self.params = params
        self.classes = tuple(classes)

    @staticmethod
    def fit(train_x: np.ndarray, train_y: np.ndarray, classes: Sequence[int], seed: int) -> "MlpReid":
        spec = ModelSpec(
            kind="mlp1",
            input_dim=train_x.shape[1],
            output_dim=len(classes),
            hidden_dim=MLP_HIDDEN,
        )
        layers = nn.train(
            spec,
            nn.init_params(spec, seed_from(seed, "mlp-init")),
            train_x,
            train_y,
            [np.arange(len(train_y))],
            epochs=MLP_EPOCHS,
            batch_size=MLP_BATCH,
            config=nn.OptimizerConfig(MLP_LR, momentum=MLP_MOMENTUM, lr_decay=MLP_LR_DECAY),
            seeds=[seed_from(seed, "mlp-train")],
        )
        params = {name: a[0] for (name, _), a in zip(spec.layout(), layers)}
        return MlpReid(spec, params, classes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return nn.predict_proba(self.spec, self.params, np.atleast_2d(x))


ReidModel = ChanceReid | KnnReid | SvmReid | MlpReid


def train_reid(ds: AttackDataset, method: str, seed: int) -> ReidModel:
    if method not in REID_METHODS:
        raise ValueError(f"unknown reid method {method!r}; expected one of {REID_METHODS}")
    classes = ds.users
    if method == "chance":
        return ChanceReid(classes)
    y = ds.encode(ds.train_users, classes)
    present = set(y.tolist())
    missing = [classes[i] for i in range(len(classes)) if i not in present]
    if missing:
        raise ValueError(f"users {missing} have no training rows")
    if method == "knn":
        return KnnReid(ds.train_x, y, classes, KNN_K)
    if method == "svm":
        return SvmReid.fit(ds.train_x, y, classes, seed)
    return MlpReid.fit(ds.train_x, y, classes, seed)


@dataclass
class ReidEvaluation:
    preds: ScoredPredictions
    mean_ap: float
    chance_ap: float
    ioc: float
    top1: float
    top5: float
    skipped: tuple[int, ...]


def evaluate_reid(model: ReidModel, ds: AttackDataset) -> ReidEvaluation:
    """Mean AP, chance AP and top-k accuracy on the test side of `ds`.
    Re-identification is closed-world: every test user must be one of the
    model's classes."""
    missing = sorted(set(ds.test_users.tolist()) - set(model.classes))
    if missing:
        raise ValueError(f"closed-world violation: test users {missing} have no training rows")
    preds = ScoredPredictions(
        scores=model.predict(ds.test_x), labels=ds.encode(ds.test_users, model.classes)
    )
    result = mean_ap(preds)
    _, chance = chance_level(preds.labels, len(model.classes))
    return ReidEvaluation(
        preds=preds,
        mean_ap=result.mean_ap,
        chance_ap=chance,
        ioc=increase_over_chance(result.mean_ap, chance),
        top1=topk_accuracy(preds, 1),
        top5=topk_accuracy(preds, 5),
        skipped=result.skipped,
    )


def reid_scores(model: ReidModel, ds: AttackDataset) -> list[float]:
    """[mean AP, chance AP, increase over chance] of a fitted
    re-identification model on the test side of `ds`."""
    ev = evaluate_reid(model, ds)
    return [float(ev.mean_ap), float(ev.chance_ap), float(ev.ioc)]


def reference_seed(seed: int) -> int:
    """The fit seed of the reference MLP attack at config seed `seed`: the
    one fit of the default attack dataset that every family scoring that
    dataset with the MLP quotes, and the seed of every mitigation point's
    fit, so that a point differs from its anchor only in its data."""
    return seed_from(seed, "attack", "mlp")


def mlp_reid_scores(ds: AttackDataset, seed: int) -> list[float]:
    """Fit the MLP re-identification attack on `ds` and return its
    `reid_scores`."""
    return reid_scores(train_reid(ds, "mlp", seed), ds)


# ---------------------------------------------------------------------------
# matching


class ChanceMatcher:
    """Seeded uniform match probability, independent of the inputs."""

    def __init__(self, seed: int):
        self._rng = rng_from(seed, "chance-matcher")

    def predict_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(a).shape[0]
        return self._rng.uniform(size=n)


class MlpProductMatcher:
    """Match probability max_u P[i=u] * P[j=u] from a trained reid MLP."""

    def __init__(self, reid: MlpReid):
        self.reid = reid

    def predict_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pa = self.reid.predict(np.atleast_2d(a))
        pb = self.reid.predict(np.atleast_2d(b))
        return (pa * pb).max(axis=1)


class SiameseMatcher:
    """Shared dense encoder (128 units, ReLU) per branch, elementwise
    absolute difference, then a single sigmoid output; trained with BCE and
    RMSProp on balanced pairs that are resampled every epoch."""

    def __init__(self, params: Params):
        self.params = params

    @staticmethod
    def init_params(input_dim: int, seed: int) -> Params:
        """The encoder (enc_W, enc_b) and head (out_w, out_b), in that order."""
        rng = rng_from(seed, "siamese-init")
        return {
            "enc_W": nn.glorot_uniform(rng, (SIAMESE_EMBED, input_dim)),
            "enc_b": np.zeros(SIAMESE_EMBED),
            "out_w": nn.glorot_uniform(rng, (1, SIAMESE_EMBED)),
            "out_b": np.zeros(1),
        }

    @staticmethod
    def forward(params: Params, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ea = np.maximum(a @ params["enc_W"].T + params["enc_b"], 0.0)
        eb = np.maximum(b @ params["enc_W"].T + params["enc_b"], 0.0)
        z = np.abs(ea - eb) @ params["out_w"].T + params["out_b"]
        return nn.sigmoid(z[:, 0])

    @staticmethod
    def loss_and_grad(
        params: Params, a: np.ndarray, b: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """The mean BCE of the pairs (a, b) with labels y, and its gradient:
        one fresh array per layer, in `init_params` order."""
        w1, b1 = params["enc_W"], params["enc_b"]
        w2, b2 = params["out_w"], params["out_b"]
        n = a.shape[0]
        z1a = a @ w1.T + b1
        z1b = b @ w1.T + b1
        ea = np.maximum(z1a, 0.0)
        eb = np.maximum(z1b, 0.0)
        diff = ea - eb
        dist = np.abs(diff)
        z = dist @ w2.T + b2
        p = nn.sigmoid(z[:, 0])
        pc = np.clip(p, nn.PROB_EPS, 1.0 - nn.PROB_EPS)
        loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
        dz = ((p - y) / n)[:, None]
        g_w2 = dz.T @ dist
        g_b2 = dz.sum(axis=0)
        ddist = dz @ w2
        dea = ddist * np.sign(diff)
        dz1a = dea * (z1a > 0.0)
        dz1b = -dea * (z1b > 0.0)
        g_w1 = dz1a.T @ a + dz1b.T @ b
        g_b1 = dz1a.sum(axis=0) + dz1b.sum(axis=0)
        return loss, [g_w1, g_b1, g_w2, g_b2]

    @staticmethod
    def fit(ds: AttackDataset, seed: int) -> "SiameseMatcher":
        """Fit on pairs of `ds`'s train rows by RMSProp at the siamese
        learning rate, in place: at each step every layer's running mean
        square s of its gradient g becomes rho*s + (1-rho)*g^2, from zero,
        and the layer moves by -lr*g/(sqrt(s)+eps)."""
        x, rows = ds.side("train")
        params = SiameseMatcher.init_params(x.shape[1], seed)
        mean_square = [np.zeros_like(w) for w in params.values()]
        for epoch in range(SIAMESE_EPOCHS):
            rng = rng_from(seed, "siamese-pairs", epoch)
            ia, ib, y = sample_balanced_pairs(rows, None, SIAMESE_PAIRS_PER_EPOCH, rng)
            a, b = x[ia], x[ib]
            for start in range(0, a.shape[0], SIAMESE_BATCH):
                sl = slice(start, start + SIAMESE_BATCH)
                _, grad = SiameseMatcher.loss_and_grad(params, a[sl], b[sl], y[sl])
                for w, s, g in zip(params.values(), mean_square, grad):
                    s *= SIAMESE_RMS_DECAY
                    s += (1.0 - SIAMESE_RMS_DECAY) * g**2
                    w -= SIAMESE_LR * g / (np.sqrt(s) + SIAMESE_RMS_EPSILON)
        return SiameseMatcher(params)

    def predict_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return SiameseMatcher.forward(self.params, np.atleast_2d(a), np.atleast_2d(b))


MatchModel = ChanceMatcher | MlpProductMatcher | SiameseMatcher


def sample_balanced_pairs(
    rows_a: dict[int, np.ndarray],
    rows_b: dict[int, np.ndarray] | None,
    n_pairs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half positive (same user), half negative (distinct users) pairs: the
    int64 row indices of each pair into the rows of side a and of side b,
    drawn from their per-user indices (`AttackDataset.side`), and its label
    (1.0 positive, 0.0 negative).

    With `rows_b=None` both rows come from side a, and positive pairs use
    two distinct rows, so a user needs at least 2 rows to occur as a
    positive.
    """
    same_side = rows_b is None
    rows_b = rows_a if same_side else rows_b
    users_a = sorted(rows_a)
    users_b = sorted(rows_b)
    if same_side:
        pos_users = [u for u in users_a if len(rows_a[u]) >= 2]
    else:
        pos_users = [u for u in users_a if u in rows_b]
    if not pos_users:
        raise ValueError("no user can form a positive pair")
    if len(users_a) < 2 or len(users_b) < 2:
        raise ValueError("need at least 2 users on each side for negative pairs")
    n_pos = n_pairs // 2
    n_neg = n_pairs - n_pos
    pick_a, pick_b = [], []
    for _ in range(n_pos):
        u = pos_users[rng.integers(len(pos_users))]
        if same_side:
            i, j = rng.choice(len(rows_a[u]), size=2, replace=False)
            pick_a.append(rows_a[u][i])
            pick_b.append(rows_a[u][j])
        else:
            pick_a.append(rows_a[u][rng.integers(len(rows_a[u]))])
            pick_b.append(rows_b[u][rng.integers(len(rows_b[u]))])
    for _ in range(n_neg):
        while True:
            u = users_a[rng.integers(len(users_a))]
            v = users_b[rng.integers(len(users_b))]
            if u != v:
                break
        pick_a.append(rows_a[u][rng.integers(len(rows_a[u]))])
        pick_b.append(rows_b[v][rng.integers(len(rows_b[v]))])
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    return np.asarray(pick_a, dtype=np.int64), np.asarray(pick_b, dtype=np.int64), labels


def train_matcher(ds: AttackDataset, method: str, seed: int) -> MatchModel:
    if method not in MATCH_METHODS:
        raise ValueError(f"unknown match method {method!r}; expected one of {MATCH_METHODS}")
    if len(ds.users) < 2:
        raise ValueError("matching needs at least 2 users")
    if method == "chance":
        return ChanceMatcher(seed)
    if method == "mlp_product":
        raise ValueError("mlp_product matching wraps a fitted MLP re-identification attack: "
                         "build MlpProductMatcher(train_reid(ds, 'mlp', seed))")
    return SiameseMatcher.fit(ds, seed)


@dataclass
class MatchEvaluation:
    ap: float
    chance_ap: float
    ioc: float
    n_pairs: int


def evaluate_matching(
    model: MatchModel,
    ds: AttackDataset,
    sides: tuple[str, str],
    n_pairs: int = 2000,
    *,
    seed: int,
) -> MatchEvaluation:
    """AP over a balanced set of pairs of a row of `ds`'s side `sides[0]`
    and a row of side `sides[1]` (two distinct rows when the names are
    equal), scored a block of pairs at a time, each block's rows gathered
    from the sides; chance is the positive prevalence (0.5 by
    construction)."""
    rng = rng_from(seed, "match-eval")
    x_a, rows_a = ds.side(sides[0])
    x_b, rows_b = (x_a, None) if sides[1] == sides[0] else ds.side(sides[1])
    ia, ib, y = sample_balanced_pairs(rows_a, rows_b, n_pairs, rng)
    # per pair, a matcher holds a row of each side's input or hidden layer
    width = max(x_a.shape[1], SIAMESE_EMBED, MLP_HIDDEN)
    blocks = row_blocks(len(y), 2 * width * x_a.itemsize)
    scores = np.concatenate([model.predict_pairs(x_a[ia[rows]], x_b[ib[rows]]) for rows in blocks])
    ap = average_precision(scores, y > 0.5)
    chance = float(y.mean())
    return MatchEvaluation(
        ap=ap, chance_ap=chance, ioc=increase_over_chance(ap, chance), n_pairs=n_pairs
    )


# ---------------------------------------------------------------------------
# open world


@dataclass(frozen=True)
class OpenWorldSplit:
    seen: tuple[int, ...]
    unseen: tuple[int, ...]
    holdout: tuple[int, ...]


def open_world_split(users: Sequence[int], seen_fraction: float, seed: int) -> OpenWorldSplit:
    """Hold out round(U/3) users to train the `unseen` class; split the rest
    into seen/unseen by `seen_fraction`."""
    if not 0.0 <= seen_fraction <= 1.0:
        raise ValueError("seen_fraction must be in [0, 1]")
    users = sorted(set(int(u) for u in users))
    if len(users) < 3:
        raise ValueError("open-world split needs at least 3 users")
    n_hold = max(1, int(round(len(users) / 3)))
    perm = rng_from(seed, "open-world").permutation(len(users))
    holdout = tuple(sorted(users[i] for i in perm[:n_hold]))
    rest = [users[i] for i in perm[n_hold:]]
    n_seen = int(round(len(rest) * seen_fraction))
    seen = tuple(sorted(rest[:n_seen]))
    unseen = tuple(sorted(rest[n_seen:]))
    return OpenWorldSplit(seen=seen, unseen=unseen, holdout=holdout)


# ---------------------------------------------------------------------------
# data-space attack


def dataspace_dataset(bundle: DatasetBundle, set_size: int, seed: int) -> AttackDataset:
    """Raw examples as an attack dataset: each user's prior examples train,
    and the feature means of the user's private subsets are scored.

    set_size 1 scores single examples. If a user holds fewer than set_size
    examples, one subset is drawn with replacement instead. The train side
    is the same at every set size, so one fit serves them all.
    """
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    users = bundle.user_ids()
    feats, test_users = [], []
    for u in users:
        x = bundle.x[bundle.private[u]]
        n = x.shape[0]
        rng = rng_from(seed, "dataspace-sets", u)
        if set_size > n:
            groups = [rng.choice(n, size=set_size, replace=True)]
        else:
            perm = rng.permutation(n)
            groups = [perm[s : s + set_size] for s in range(0, n, set_size)]
        feats += [x[g].mean(axis=0) for g in groups]
        test_users += [u] * len(groups)
    train_users = np.concatenate([np.full(len(bundle.prior[u]), u, dtype=np.int64) for u in users])
    return AttackDataset(
        train_x=np.concatenate([bundle.x[bundle.prior[u]] for u in users]),
        train_users=train_users,
        test_x=np.stack(feats),
        test_users=np.asarray(test_users, dtype=np.int64),
        users=tuple(users),
        train_rounds=np.zeros(len(train_users), dtype=np.int64),
        test_rounds=np.zeros(len(test_users), dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# class-bias profiles


def class_bias_profile(delta_matrix: np.ndarray) -> np.ndarray:
    """Column L2 norms of a (weights_per_class, classes) delta matrix."""
    m = np.asarray(delta_matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d delta matrix, got shape {m.shape}")
    return np.linalg.norm(m, axis=0)


def bias_consistency(profile_a: np.ndarray, profile_b: np.ndarray) -> float:
    """Cosine similarity between two class-bias profiles."""
    a = np.asarray(profile_a, dtype=np.float64)
    b = np.asarray(profile_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("profiles must have equal shapes")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def user_bias_profiles(records: DeltaLog, layer_name: str) -> dict[tuple[int, str], np.ndarray]:
    """Mean final-layer delta per (user, role), reduced to per-class norms.

    Each mean sums its rows in log order. The stored layer has shape
    (classes, inputs); its transpose is the (weights_per_class, classes)
    matrix the profile is defined over.
    """
    layer, shape = records.layer(layer_name), dict(records.layout)[layer_name]
    profiles = {}
    for user, role in dict.fromkeys(zip(records.user.tolist(), records.role.tolist())):
        rows = layer[(records.user == user) & (records.role == role)]
        profiles[(user, role)] = class_bias_profile(rows.sum(axis=0).reshape(shape).T / len(rows))
    return profiles
