"""Reverse-mode differentiation over model graphs, losses, and optimizers.

The ``Tape`` records each layer application (with the context its backward
needs) during a forward pass; ``backward`` walks the record in reverse and
fills a gradient buffer for every learned parameter.  Loss functions return
a ``Loss`` value (a float subclass) carrying the analytic gradient with
respect to the logits, so the chain starts from closed-form loss gradients
rather than a scalar graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError, ShapeError
from .nn import ModelGraph, model_input


class Tape:
    """Ordered record of one forward pass through a model."""

    def __init__(self, model: ModelGraph, x, mode):
        self.model = model
        self.x = x
        self.mode = mode
        self.records = []  # (layer, ctx) in forward order
        self.output = None
        self.grads = None

    def replay(self):
        """Re-run the recorded forward pass without touching BN statistics.

        Within one run this reproduces the recorded output bit-for-bit:
        train-mode normalization uses batch statistics, so suppressing the
        running-stat update changes nothing downstream.
        """
        h = self.x
        for layer in self.model.layers:
            h, _ = layer.forward(h, mode=self.mode, record=False,
                                 update_stats=False)
        return h


def forward(model: ModelGraph, batch, mode="train"):
    """Run a batch through the model; returns (logits, tape).

    ``batch`` is the model-layout input: (N, 4, Q, H, W) for quaternion
    models, (N, C, H, W) for real ones.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    tape = Tape(model, batch, mode)
    h = batch
    for layer in model.layers:
        h, ctx = layer.forward(h, mode=mode, record=True)
        tape.records.append((layer, ctx))
    tape.output = h
    model.forward_count += 1
    return h, tape


def inference(model: ModelGraph, batch, mode="eval", update_stats=True):
    """Forward pass without recording backward contexts."""
    h = batch
    for layer in model.layers:
        h, _ = layer.forward(h, mode=mode, record=False, update_stats=update_stats)
    model.forward_count += 1
    return h


class Loss(float):
    """Scalar loss value carrying d(loss)/d(logits) and its origin tape."""

    def __new__(cls, value, dlogits, tape=None):
        obj = float.__new__(cls, value)
        obj.dlogits = dlogits
        obj.tape = tape
        return obj


def _check_tape(z_obj, tape):
    if tape is not None and z_obj is not tape.output:
        raise ValueError("logits were not produced by this tape")


def softmax(z):
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z):
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def one_hot(labels, num_classes, dtype=np.float64):
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


def cross_entropy(z, y, tape=None):
    """Mean cross-entropy between one-hot labels y and softmax(z).

    Rows of y must be one-hot or, to support mixup, convex mixtures of
    one-hot rows (non-negative, summing to 1); anything else is rejected.
    """
    _check_tape(z, tape)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if z.shape != y.shape:
        raise ShapeError(f"logits {z.shape} vs labels {y.shape}")
    if np.any(y < 0) or np.any(np.abs(y.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("label rows must be one-hot (or convex mixtures)")
    logp = log_softmax(z)
    value = float(-(y * logp).sum() / z.shape[0])
    dlogits = (softmax(z) - y) / z.shape[0]
    return Loss(value, dlogits, tape)


def binary_cross_entropy(z, y, tape=None):
    """Mean per-class sigmoid cross-entropy for multi-label targets."""
    _check_tape(z, tape)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if z.shape != y.shape:
        raise ShapeError(f"logits {z.shape} vs labels {y.shape}")
    # stable log(1 + exp(-|z|)) formulation
    value = float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    p = 1.0 / (1.0 + np.exp(-z))
    dlogits = (p - y) / z.size
    return Loss(value, dlogits, tape)


def kl_divergence(p_teacher, p_student):
    """Mean KL(p_teacher || p_student) over rows; 0 log(0/q) counts as 0."""
    p_t = np.atleast_2d(np.asarray(p_teacher, dtype=float))
    p_s = np.atleast_2d(np.asarray(p_student, dtype=float))
    if p_t.shape != p_s.shape:
        raise ShapeError(f"distribution shapes differ: {p_t.shape} vs {p_s.shape}")
    for name, p in (("teacher", p_t), ("student", p_s)):
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError(f"{name} rows must sum to 1")
    mask = p_t > 0
    if np.any(mask & (p_s <= 0)):
        raise ValueError("student probability is 0 where teacher is positive")
    terms = np.zeros_like(p_t)
    terms[mask] = p_t[mask] * np.log(p_t[mask] / p_s[mask])
    return float(terms.sum() / p_t.shape[0])


def mse_loss(z, target, tape=None):
    """Mean squared error; handy for quadratic-objective tests."""
    _check_tape(z, tape)
    z = np.asarray(z, dtype=float)
    target = np.asarray(target, dtype=float)
    if z.shape != target.shape:
        raise ShapeError(f"logits {z.shape} vs target {target.shape}")
    diff = z - target
    value = float(np.mean(diff * diff))
    return Loss(value, 2.0 * diff / diff.size, tape)


def backward(tape: Tape, loss: Loss):
    """Accumulate d(loss)/d(parameter) for every learned parameter.

    Parameters that did not influence the loss keep zero gradients.  The
    loss must originate from this tape.
    """
    if not isinstance(loss, Loss):
        raise ValueError("loss must be a Loss produced by a loss function")
    if loss.tape is not tape:
        raise ValueError("loss was not produced from this tape")
    grads = {(lid, name): np.zeros_like(arr)
             for lid, _, name, arr in tape.model.all_params()}
    g = np.asarray(loss.dlogits, dtype=tape.output.dtype)
    if g.shape != tape.output.shape:
        raise ShapeError(f"loss gradient {g.shape} vs logits {tape.output.shape}")
    for layer, ctx in reversed(tape.records):
        g = layer.backward(g, ctx, grads)
    tape.grads = grads
    return grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class OptimState:
    """SGD or Adam state over a model's parameters."""

    def __init__(self, model: ModelGraph, kind="sgd", lr=0.01,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {kind!r}")
        self.model = model
        self.kind = kind
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}
        if kind == "adam":
            for lid, _, name, arr in model.all_params():
                self.m[(lid, name)] = np.zeros_like(arr)
                self.v[(lid, name)] = np.zeros_like(arr)

    def step(self, grads):
        """Apply one update in place; returns the model."""
        self.t += 1
        for lid, layer, name, arr in self.model.all_params():
            g = grads[(lid, name)]
            if g.shape != arr.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != parameter shape {arr.shape}"
                )
            if self.kind == "sgd":
                arr -= (self.lr * g).astype(arr.dtype, copy=False)
            else:
                m = self.m[(lid, name)]
                v = self.v[(lid, name)]
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * (g * g)
                mhat = m / (1 - self.beta1 ** self.t)
                vhat = v / (1 - self.beta2 ** self.t)
                arr -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(
                    arr.dtype, copy=False
                )
        return self.model

    # checkpoint hooks -----------------------------------------------------
    def state_meta(self):
        meta = {"kind": self.kind, "lr": self.lr, "t": self.t,
                "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
                "slots": []}
        for which, table in (("m", self.m), ("v", self.v)):
            for (lid, name), arr in table.items():
                meta["slots"].append({"key": f"{which}:{lid}:{name}",
                                      "shape": list(arr.shape)})
        return meta

    def state_arrays(self):
        return [arr for table in (self.m, self.v) for arr in table.values()]

    @classmethod
    def from_saved(cls, model, state):
        meta = state["meta"]
        opt = cls(model, meta["kind"], meta["lr"], meta["beta1"],
                  meta["beta2"], meta["eps"])
        opt.t = meta["t"]
        for key, arr in state["slots"].items():
            which, lid, name = key.split(":", 2)
            table = opt.m if which == "m" else opt.v
            table[(int(lid), name)] = arr
        return opt


def step(opt: OptimState, grads):
    """Functional alias for OptimState.step."""
    return opt.step(grads)


def mixup(batch_a, batch_b, labels_a, labels_b, lam=None, rng=None):
    """Convex combination of two batches and their (soft) labels.

    lam is drawn from Beta(1, 1) (uniform) when not given.
    """
    if lam is None:
        rng = rng or np.random.default_rng()
        lam = float(rng.beta(1.0, 1.0))
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    xa, xb = np.asarray(batch_a), np.asarray(batch_b)
    ya, yb = np.asarray(labels_a), np.asarray(labels_b)
    if xa.shape != xb.shape or ya.shape != yb.shape:
        raise ShapeError("mixup operands must share shapes")
    return lam * xa + (1 - lam) * xb, lam * ya + (1 - lam) * yb


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    iterations: int = 500
    lr: float = 1e-3
    batch_size: int = 16
    optimizer: str = "adam"
    seed: int = 0
    loss: str = "ce"  # "ce" (softmax) or "bce" (multi-label)
    eval_every: int = 50
    target_metric: float | None = None  # early stop once reached
    use_mixup: bool = False
    keep: str = "final"  # or "best" (best validation metric)


@dataclass
class TrainResult:
    model: ModelGraph
    history: list = field(default_factory=list)  # (iteration, loss, metric|None)
    best_metric: float = float("nan")
    iterations_run: int = 0


def evaluate_accuracy(model, features, labels, batch_size=64):
    """Top-1 accuracy for single-label data (integer labels)."""
    n = features.shape[0]
    correct = 0
    for start in range(0, n, batch_size):
        xb = model_input(model, features[start : start + batch_size])
        z = inference(model, xb, mode="eval")
        correct += int((z.argmax(axis=1) == labels[start : start + batch_size]).sum())
    return correct / n


def evaluate_metric(model, features, labels, task, batch_size=64):
    if task == "single":
        return evaluate_accuracy(model, features, labels, batch_size)
    from .metrics import mean_average_precision  # local import, avoids a cycle

    n = features.shape[0]
    scores = []
    for start in range(0, n, batch_size):
        xb = model_input(model, features[start : start + batch_size])
        scores.append(inference(model, xb, mode="eval"))
    return mean_average_precision(np.concatenate(scores), labels).value


def _snapshot(model):
    return [arr.copy() for _, _, _, arr in model.all_params()] + [
        arr.copy() for _, _, _, arr in model.all_buffers()
    ]


def _restore(model, snap):
    arrays = model.all_params() + model.all_buffers()
    for (lid, layer, name, _), saved in zip(arrays, snap):
        layer.set_array(name, saved.copy())


def train_loop(model, features, labels, config: TrainConfig,
               val_features=None, val_labels=None,
               loss_fn=None, log_rows=None):
    """Generic minibatch training shared by train, fine-tune, and distill.

    ``loss_fn(z, yb, tape, idx)`` may be supplied to override the loss (the
    distillation path uses this); by default softmax or sigmoid
    cross-entropy is chosen per ``config.loss``.  Deterministic given the
    config seed.  Raises DivergenceError on a non-finite loss.
    """
    task = model.task
    n = features.shape[0]
    rng = np.random.default_rng(config.seed)
    if config.optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {config.optimizer!r}")
    opt = OptimState(model, config.optimizer, config.lr)

    if task == "single" and labels.ndim == 1:
        dense = one_hot(labels, model.num_classes)
    else:
        dense = np.asarray(labels, dtype=float)

    if val_features is None:
        val_features, val_labels = features, labels
    result = TrainResult(model=model)
    best = -np.inf
    best_snap = None
    all_params = model.all_params()
    dtype = all_params[0][3].dtype if all_params else np.float32

    for it in range(1, config.iterations + 1):
        idx = rng.choice(n, size=min(config.batch_size, n), replace=False)
        xb = features[idx]
        yb = dense[idx]
        if config.use_mixup:
            perm = rng.permutation(len(idx))
            lam = float(rng.beta(1.0, 1.0))
            xb, yb = mixup(xb, xb[perm], yb, yb[perm], lam=lam)
        xb = model_input(model, xb).astype(dtype, copy=False)

        z, tape = forward(model, xb, mode="train")
        if loss_fn is not None:
            loss = loss_fn(z, yb, tape, idx)
        elif config.loss == "bce":
            loss = binary_cross_entropy(z, yb, tape)
        else:
            loss = cross_entropy(z, yb, tape)
        if not np.isfinite(float(loss)):
            raise DivergenceError(
                f"non-finite loss {float(loss)} at iteration {it} "
                f"(lr={config.lr}, optimizer={config.optimizer})"
            )
        grads = backward(tape, loss)
        opt.step(grads)

        metric = None
        if config.eval_every and (it % config.eval_every == 0 or it == config.iterations):
            metric = evaluate_metric(model, val_features, val_labels, task)
            if metric > best:
                best = metric
                if config.keep == "best":
                    best_snap = _snapshot(model)
            result.history.append((it, float(loss), metric))
            if log_rows is not None:
                log_rows.append((it, float(loss), metric))
            if config.target_metric is not None and metric >= config.target_metric:
                result.iterations_run = it
                break
        else:
            result.history.append((it, float(loss), None))
            if log_rows is not None:
                log_rows.append((it, float(loss), None))
        result.iterations_run = it

    if config.keep == "best" and best_snap is not None:
        _restore(model, best_snap)
    if best > -np.inf:
        result.best_metric = best
    return result
