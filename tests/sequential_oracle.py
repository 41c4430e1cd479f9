"""Reference for local training: every model trains alone, one minibatch
at a time, through plain 2-D products, the way fedanon trained before its
devices ran in lockstep. The lockstep kernel in `fedanon.nn` must agree
with it bit for bit (`np.array_equal`), because it stacks models without
padding and so performs the same float operations on each model. Its
round aggregates a list of per-device records in record order, apart from
the production rule that sums the rows of one matrix. The loss, its
gradient, the lone-model update and the flat-vector round trip that the
finite-difference checks use live here too: only tests call them."""

import numpy as np

from fedanon import nn
from fedanon.deltastore import DeltaLog, DeltaRecord, ParamVector
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
    grads = nn._stack_grads(spec, [params[n][None] for n in names], x[None], hit[None])
    return {n: g[0] for n, g in zip(names, grads)}


def flat(params):
    """Concatenation of all layers of a parameter dict in order (row-major
    per layer)."""
    return np.concatenate([a.ravel() for a in params.values()])


def delta_of(record):
    """The layers of a DeltaRecord's delta as a parameter dict."""
    return dict(record.delta.layers)


def gradient_step(params, grad, eta):
    """`params` minus `eta` times `grad`, layer by layer."""
    assert list(params) == list(grad)
    return {n: a - eta * grad[n] for n, a in params.items()}


def log_of(records, rounds=None):
    """The DeltaLog of a list of DeltaRecords, rows in list order, of a run
    of `rounds` rounds (by default the last round a record names)."""
    fields = ("round_t", "device_id", "user_id", "role", "n_k")
    columns = [np.asarray([getattr(r, f) for r in records]) for f in fields]
    rounds = int(columns[0].max()) if rounds is None else rounds
    layout = [(n, a.shape) for n, a in records[0].delta.layers]
    return DeltaLog(*columns, layout, rounds, np.stack([flat(delta_of(r)) for r in records]))


def from_flat(like, vec):
    """The vector `vec` cut into the layout of the parameter dict `like`."""
    vec = np.asarray(vec, dtype=np.float64)
    sizes = [a.size for a in like.values()]
    if vec.size != sum(sizes):
        raise ValueError(f"flat vector of size {vec.size} does not match sizes {sizes}")
    out, pos = {}, 0
    for (name, a), size in zip(like.items(), sizes):
        out[name] = vec[pos : pos + size].reshape(a.shape).copy()
        pos += size
    return out


def optimizer_step(state, params, grad, config, iteration):
    """One momentum SGD update of a lone model; returns fresh params and
    velocities (None starts them at zero), leaving the inputs untouched."""
    assert list(params) == list(grad)
    new_params, new_state = {}, {}
    for name, w in params.items():
        v = np.zeros_like(w) if state is None else state[name].copy()
        nn._sgd_velocity(config, v, grad[name].copy(), iteration)
        new_state[name] = v
        new_params[name] = w + v
    return new_params, new_state


def oracle_forward(spec, params, x):
    """The hidden activations (x itself for linear) and the logits of a
    lone model, through plain 2-D products."""
    if spec.kind == "linear":
        return x, x @ params["W"].T + params["b"]
    a1 = np.maximum(x @ params["W1"].T + params["b1"], 0.0)
    return a1, a1 @ params["W2"].T + params["b2"]


def oracle_backward(spec, params, x, y):
    """Gradient of the mean softmax cross-entropy of one (x, y) batch."""
    a, z = oracle_forward(spec, params, x)
    dz = nn.softmax(z)
    dz[np.arange(x.shape[0]), y] -= 1.0
    dz /= x.shape[0]
    if spec.kind == "linear":
        return {"W": dz.T @ x, "b": dz.sum(axis=0)}
    dz1 = (dz @ params["W2"]) * (a > 0.0)
    return {"W1": dz1.T @ x, "b1": dz1.sum(axis=0), "W2": dz.T @ a, "b2": dz.sum(axis=0)}


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


def oracle_aggregate(global_params, records):
    """The global model plus the data-weighted average of the records'
    deltas, with weights n_k / sum(n_k) over the records, each weighted
    delta added into one buffer per layer in record order."""
    if not records:
        raise ValueError("cannot aggregate zero records")
    total = float(sum(r.n_k for r in records))
    first = records[0]
    update = {n: a * (first.n_k / total) for n, a in delta_of(first).items()}
    for r in records[1:]:
        delta = delta_of(r)
        assert list(update) == list(delta)
        for n, u in update.items():
            u += delta[n] * (r.n_k / total)
    return {n: a + update[n] for n, a in global_params.items()}


def oracle_server_round(spec, global_params, x, y, devices, cfg, round_t, delta_hook=None):
    """One FedAvg round that trains the sampled devices one after another,
    each on a copy of its rows of (x, y); the delta hook sees each delta
    flattened, as a row of the delta log."""
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
        delta = from_flat(local, flat(local) - flat(global_params))
        if delta_hook is not None:
            delta = from_flat(delta, delta_hook(round_t, device, flat(delta)))
        records.append(DeltaRecord(round_t, device.device_id, device.user_id, device.role,
                                   ParamVector(list(delta.items())), device.n_k))
    return oracle_aggregate(global_params, records), records
