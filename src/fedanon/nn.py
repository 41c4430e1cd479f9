"""Small dense models with hand-derived gradients.

Everything runs on float64 numpy arrays; 32-bit floats appear only at the
persistence boundary (see deltastore). Two architectures are supported: a
linear map and a one-hidden-layer ReLU network, both trained with softmax
cross-entropy. Gradients are written out explicitly and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .seeding import rng_from

# probability clamp applied before any log() of a predicted probability
PROB_EPS = 1e-7

KINDS = ("linear", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a softmax classifier; the parameter layout is a pure
    function of this description, so two models built from equal specs are
    always parameter-compatible."""

    kind: Literal["linear", "mlp1"]
    input_dim: int
    output_dim: int
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1 for mlp1")

    @property
    def output_weight(self) -> str:
        """Name of the output layer's (output_dim, inputs) weight matrix."""
        return "W" if self.kind == "linear" else "W2"

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        """Ordered (name, shape) pairs defining the parameter vector."""
        if self.kind == "linear":
            return [("W", (self.output_dim, self.input_dim)), ("b", (self.output_dim,))]
        return [
            ("W1", (self.hidden_dim, self.input_dim)), ("b1", (self.hidden_dim,)),
            ("W2", (self.output_dim, self.hidden_dim)), ("b2", (self.output_dim,)),
        ]


@dataclass
class ParamVector:
    """Ordered, named collection of dense float64 arrays.

    Two vectors are combinable only when their layouts (names and shapes,
    in order) match exactly.
    """

    layers: list[tuple[str, np.ndarray]]
    _by_name: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [n for n, _ in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names in ParamVector")
        self._by_name = {n: a for n, a in self.layers}

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(n, tuple(a.shape)) for n, a in self.layers]

    def get(self, name: str) -> np.ndarray:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r}; have {list(self._by_name)}") from None

    def __add__(self, other: "ParamVector") -> "ParamVector":
        if self.layout() != other.layout():
            raise ValueError(f"incompatible parameter layouts: {self.layout()} vs {other.layout()}")
        return ParamVector([(n, a + b) for (n, a), (_, b) in zip(self.layers, other.layers)])

    def validate_finite(self) -> None:
        for n, a in self.layers:
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite values in layer {n!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Momentum SGD whose step t has learning rate lr / (1 + lr_decay*t)."""

    learning_rate: float
    momentum: float = 0.0
    lr_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init of a (fan_out, fan_in) weight matrix on [-a, a] with
    a = sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Deterministic init: Glorot-uniform weights, zero biases."""
    rng = rng_from(seed)
    return ParamVector([
        (name, glorot_uniform(rng, shape) if name.startswith("W") else np.zeros(shape))
        for name, shape in spec.layout()
    ])


def forward_batch(spec: ModelSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, shape (n, output_dim): the training
    kernel's forward pass on a stack of one model."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected inputs of shape (n, {spec.input_dim}), got {x.shape}")
    layers = [params.get(name)[None] for name, _ in spec.layout()]
    return _stack_forward(spec, layers, x[None])[1][0]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _coerce_batch(spec: ModelSpec, batch) -> tuple[np.ndarray, np.ndarray]:
    """Check an (X, Y) pair against the spec: a non-empty (n, input_dim)
    input batch and one class index in [0, output_dim) per row."""
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) input batch, got shape {x.shape}")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"expected inputs of shape (n, {spec.input_dim}), got {x.shape}")
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("targets must be a class index per example")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(np.equal(np.mod(y, 1), 0)):
            raise ValueError("targets must be integer class indices")
        y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= spec.output_dim:
        raise ValueError(f"class index out of range [0, {spec.output_dim})")
    return x, y


def _dlogits(z: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Gradient of each model's mean softmax cross-entropy w.r.t. its
    logits, written over the logits z (G, r, output_dim); hit (G, r) holds
    the flat position in z of each row's true-class logit."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    z.reshape(-1)[hit] -= 1.0
    z /= hit.shape[1]
    return z


def _stack_forward(
    spec: ModelSpec, layers: list[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each model's input to its output layer (x itself for linear) and its
    logits (G, r, output_dim). `layers` holds one (G, *shape) array per
    entry of `spec.layout()`, the output layer last, and x is (G, r,
    input_dim)."""
    a = x
    if spec.kind == "mlp1":
        a = np.matmul(x, layers[0].transpose(0, 2, 1))
        a += layers[1][:, None, :]
        np.maximum(a, 0.0, out=a)
    z = np.matmul(a, layers[-2].transpose(0, 2, 1))
    z += layers[-1][:, None, :]
    return a, z


def _stack_grads(
    spec: ModelSpec, layers: list[np.ndarray], x: np.ndarray, hit: np.ndarray
) -> list[np.ndarray]:
    """Gradient of each model's mean minibatch loss, in fresh arrays, with
    `layers` and x as in `_stack_forward` and hit as in `_dlogits`. Each
    model's slice goes through the same 2-D products and row reductions as
    a lone model's would, so its gradient does not depend on which other
    models share the stack."""
    a, z = _stack_forward(spec, layers, x)
    dz = _dlogits(z, hit)
    output = [np.matmul(dz.transpose(0, 2, 1), a), dz.sum(axis=1)]
    if spec.kind == "linear":
        return output
    dz1 = np.matmul(dz, layers[2])
    dz1 *= a > 0.0
    return [np.matmul(dz1.transpose(0, 2, 1), x), dz1.sum(axis=1), *output]


def _sgd_velocity(
    config: OptimizerConfig, velocity: np.ndarray, grad: np.ndarray, iteration: int
) -> None:
    """Momentum SGD in place: velocity becomes mu*v - lr_t*g, with lr_t =
    lr / (1 + decay*iteration), and grad ends scaled by lr_t."""
    velocity *= config.momentum
    grad *= config.learning_rate / (1.0 + config.lr_decay * iteration)
    velocity -= grad


def _plan(
    rows: Sequence[np.ndarray], epochs: int, batch_size: int, seeds: Sequence[int],
    y: np.ndarray, classes: int,
) -> list[tuple[int, slice | np.ndarray, np.ndarray, np.ndarray]]:
    """Every stack of the lockstep kernel in training order: its step, its
    models (a slice when they are all of them), the (G, r) rows of x they
    visit and the flat position of each row's true-class logit in the
    stack's (G, r, classes) logits. Model k owns the rows rows[k] of x."""
    n = np.array([r.size for r in rows])
    batch = np.minimum(batch_size, n)
    steps_per_epoch = -(-n // batch)
    steps = epochs * steps_per_epoch
    offsets = np.cumsum(n) - n
    # the rows of x that each model visits, epoch after epoch
    stream = np.concatenate([np.zeros(0, dtype=np.intp)] + [
        r[rng.permutation(r.size)]
        for r, rng in zip(rows, map(rng_from, seeds)) for _ in range(epochs)])
    # one entry per minibatch, ordered by step, then row count, then model
    k = np.repeat(np.arange(n.size), steps)
    t = np.arange(k.size) - np.repeat(np.cumsum(steps) - steps, steps)
    epoch, j = np.divmod(t, steps_per_epoch[k])
    count = np.minimum(batch[k], n[k] - j * batch[k])
    first = epochs * offsets[k] + epoch * n[k] + j * batch[k]
    order = np.lexsort((k, count, t))
    k, t, count, first = k[order], t[order], count[order], first[order]
    opens = np.r_[True, (t[1:] != t[:-1]) | (count[1:] != count[:-1])]
    place = np.arange(k.size) - np.flatnonzero(opens)[np.cumsum(opens) - 1]
    plan = []
    for r in np.unique(count):
        m = np.flatnonzero(count == r)
        idx = stream[first[m, None] + np.arange(r)]
        hit = (place[m, None] * r + np.arange(r)) * classes + y[idx]
        bounds = np.r_[np.flatnonzero(opens[m]), m.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            models = slice(None) if hi - lo == n.size else k[m[lo:hi]]
            plan.append((int(t[m[lo]]), models, idx[lo:hi], hit[lo:hi]))
    return sorted(plan, key=lambda stack: stack[0])


def _train_lockstep(
    spec: ModelSpec,
    params: ParamVector,
    x: np.ndarray,
    y: np.ndarray,
    rows: Sequence[np.ndarray],
    epochs: int,
    batch_size: int,
    config: OptimizerConfig,
    seeds: Sequence[int],
) -> list[np.ndarray]:
    """Momentum SGD for len(rows) models of one spec, all starting from
    `params`, run in lockstep on one (X, Y) pair of inputs and class indices.

    Model k trains on the rows rows[k] of (x, y) for `epochs` epochs, in
    minibatches of min(batch_size, n_k) rows with the last partial batch
    included; each epoch visits its rows in a fresh permutation drawn from
    rng_from(seeds[k]). Its t-th step uses iteration t of the schedule. At
    each step the models whose minibatches have the same row count form
    one stack; nothing is padded, so every model ends exactly where it
    would have trained alone. All data is checked and all steps planned first.
    Returns one fresh (len(rows), *shape) array per layer of `spec.layout()`,
    model k's parameters at index k; the inputs are left untouched.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(rows) == 0 or len(seeds) != len(rows):
        raise ValueError(f"need one seed per row set, got {len(seeds)} seeds for {len(rows)} row sets")
    x, y = _coerce_batch(spec, (x, y))
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    if any(r.ndim != 1 or r.size == 0 or r.min() < 0 or r.max() >= y.size for r in rows):
        raise ValueError(f"every row set must be a non-empty list of row ids in [0, {y.size})")
    plan = _plan(rows, epochs, batch_size, seeds, y, spec.output_dim)

    layers = [np.repeat(params.get(name)[None], len(rows), axis=0) for name, _ in spec.layout()]
    velocity = [np.zeros_like(a) for a in layers]
    for t, models, idx, hit in plan:
        # views of the whole population, or a partial stack gathered once
        stack, stack_velocity = [a[models] for a in layers], [v[models] for v in velocity]
        grads = _stack_grads(spec, stack, x[idx], hit)
        for a, v, g in zip(stack, stack_velocity, grads):
            _sgd_velocity(config, v, g, t)
            a += v
        if not isinstance(models, slice):
            for whole, part in zip(layers + velocity, stack + stack_velocity):
                whole[models] = part
    return layers


def train(
    spec: ModelSpec,
    params: ParamVector,
    data,
    epochs: int,
    batch_size: int,
    config: OptimizerConfig,
    seed: int,
) -> ParamVector:
    """Minibatch momentum SGD with a deterministic per-epoch shuffle: the
    one-model case of the lockstep kernel.

    `data` is an (X, Y) pair of inputs and class indices. The last partial
    batch is included. Returns freshly allocated parameters; the inputs
    are left untouched.
    """
    x, y = data
    layers = _train_lockstep(spec, params, x, y, [np.arange(len(y))], epochs, batch_size, config, [seed])
    return ParamVector([(name, a[0]) for (name, _), a in zip(spec.layout(), layers)])


def predict_proba(spec: ModelSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a batch, one row per input."""
    return softmax(forward_batch(spec, params, x))
