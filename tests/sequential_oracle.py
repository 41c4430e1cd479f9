"""Reference for local training: every model trains alone, one minibatch
at a time, through plain 2-D products, the way fedanon trained before its
devices ran in lockstep. The lockstep kernel in `fedanon.nn` must agree
with it bit for bit (`np.array_equal`), because it stacks models without
padding and so performs the same float operations on each model. The
loss, its gradient, the lone-model update and the flat-vector round trip
that the finite-difference checks use live here too: only tests call
them."""

import numpy as np

from fedanon import nn
from fedanon.federated import DeltaRecord, aggregate
from fedanon.nn import ParamVector
from fedanon.seeding import rng_from, seed_from


def compute_loss(spec, params, batch):
    """Mean softmax cross-entropy of one batch."""
    x, y = nn._coerce_batch(spec, batch)
    p = nn.softmax(nn.forward_batch(spec, params, x))
    picked = np.clip(p[np.arange(x.shape[0]), y], nn.PROB_EPS, 1.0 - nn.PROB_EPS)
    return float(-np.log(picked).mean())


def backward(spec, params, batch):
    """Gradient of the mean batch loss, laid out like the parameters: the
    one-model case of the gradient the training kernel uses."""
    x, y = nn._coerce_batch(spec, batch)
    names = [name for name, _ in spec.layout()]
    hit = np.arange(y.size) * spec.output_dim + y
    grads = nn._stack_grads(spec, [params.get(n)[None] for n in names], x[None], hit[None])
    return ParamVector([(n, g[0]) for n, g in zip(names, grads)])


def flat(params):
    """Concatenation of all layers of a ParamVector in order (row-major per
    layer)."""
    return np.concatenate([a.ravel() for _, a in params.layers])


def from_flat(like, vec):
    """The vector `vec` cut into the layout of the ParamVector `like`."""
    vec = np.asarray(vec, dtype=np.float64)
    sizes = [a.size for _, a in like.layers]
    if vec.size != sum(sizes):
        raise ValueError(f"flat vector of size {vec.size} does not match layout {like.layout()}")
    out, pos = [], 0
    for (name, a), size in zip(like.layers, sizes):
        out.append((name, vec[pos : pos + size].reshape(a.shape).copy()))
        pos += size
    return ParamVector(out)


def optimizer_step(state, params, grad, config, iteration):
    """One momentum SGD update of a lone model; returns fresh params and
    velocities (None starts them at zero), leaving the inputs untouched."""
    params._check_compatible(grad)
    new_layers, new_state = [], {}
    for (name, w), (_, g) in zip(params.layers, grad.layers):
        v = np.zeros_like(w) if state is None else state[name].copy()
        nn._sgd_velocity(config, v, g.copy(), iteration)
        new_state[name] = v
        new_layers.append((name, w + v))
    return ParamVector(new_layers), new_state


def oracle_forward(spec, params, x):
    """The hidden activations (x itself for linear) and the logits of a
    lone model, through plain 2-D products."""
    if spec.kind == "linear":
        return x, x @ params.get("W").T + params.get("b")
    a1 = np.maximum(x @ params.get("W1").T + params.get("b1"), 0.0)
    return a1, a1 @ params.get("W2").T + params.get("b2")


def oracle_backward(spec, params, x, y):
    """Gradient of the mean softmax cross-entropy of one (x, y) batch."""
    a, z = oracle_forward(spec, params, x)
    dz = nn.softmax(z)
    dz[np.arange(x.shape[0]), y] -= 1.0
    dz /= x.shape[0]
    if spec.kind == "linear":
        return ParamVector([("W", dz.T @ x), ("b", dz.sum(axis=0))])
    dz1 = (dz @ params.get("W2")) * (a > 0.0)
    return ParamVector([("W1", dz1.T @ x), ("b1", dz1.sum(axis=0)),
                        ("W2", dz.T @ a), ("b2", dz.sum(axis=0))])


def oracle_train(spec, params, x, y, epochs, batch_size, config, seed):
    """Per-model minibatch loop: one permutation per epoch from
    rng_from(seed), last partial batch included."""
    rng = rng_from(seed)
    state = None
    iteration = 0
    for _ in range(epochs):
        perm = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            idx = perm[start : start + batch_size]
            grad = oracle_backward(spec, params, x[idx], y[idx])
            params, state = optimizer_step(state, params, grad, config, iteration)
            iteration += 1
    return params


def oracle_server_round(spec, global_params, x, y, devices, cfg, round_t, delta_hook=None):
    """One FedAvg round that trains the sampled devices one after another,
    each on a copy of its rows of (x, y)."""
    rng = rng_from(cfg.seed, "sample", round_t)
    m = max(1, int(round(cfg.fraction_c * len(devices))))
    records = []
    for i in np.sort(rng.choice(len(devices), size=m, replace=False)):
        device = devices[i]
        local = oracle_train(
            spec,
            global_params,
            x[device.rows],
            y[device.rows],
            epochs=cfg.local_epochs,
            batch_size=min(cfg.batch_size, device.n_k),
            config=nn.OptimizerConfig(cfg.eta),
            seed=seed_from(cfg.seed, "device-update", round_t, device.device_id),
        )
        delta = local - global_params
        if delta_hook is not None:
            delta = delta_hook(round_t, device, delta)
        records.append(
            DeltaRecord(round_t, device.device_id, device.user_id, device.role, delta, device.n_k)
        )
    return aggregate(global_params, records), records
