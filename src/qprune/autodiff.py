"""Reverse-mode differentiation over model graphs, losses, and optimizers.

The ``Tape`` records each layer application (with the context its backward
needs) during a forward pass; ``backward`` walks the record in reverse and
fills one gradient array per dtype in the layout of the model's store
(``nn.Slots``), which the optimizers step in place.  Loss functions return
a ``Loss`` value (a float subclass) carrying the analytic gradient with
respect to the logits, so the chain starts from closed-form loss gradients
rather than a scalar graph.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DivergenceError, ShapeError
from .nn import ModelGraph, Slots, _backprop_layers, _run_layers, freeze, model_input


class Tape:
    """Ordered record of one forward pass through a model."""

    def __init__(self, model: ModelGraph, x, mode):
        self.model = model
        self.x = x
        self.mode = mode
        self.records = []  # (layer, ctx) in forward order
        self.output = None

    def replay(self):
        """Re-run the recorded forward pass without touching BN statistics.

        Within one run this reproduces the recorded output bit-for-bit:
        train-mode normalization uses batch statistics, so suppressing the
        running-stat update changes nothing downstream.
        """
        return _run_layers(self.model.layers, self.x, self.mode, update_stats=False)[0]


def _check_mode(mode):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def forward(model: ModelGraph, batch, mode="train"):
    """Run a batch through the model; returns (logits, tape).

    ``batch`` is the model-layout input: (N, 4, Q, H, W) for quaternion
    models, (N, C, H, W) for real ones.
    """
    _check_mode(mode)
    tape = Tape(model, batch, mode)
    tape.output, tape.records = _run_layers(model.layers, batch, mode, record=True)
    model.forward_count += 1
    return tape.output, tape


def inference(model: ModelGraph, batch, mode="eval", update_stats=True):
    """Forward pass without recording backward contexts."""
    _check_mode(mode)
    h, _ = _run_layers(model.layers, batch, mode, update_stats=update_stats)
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
    tape.model.sync_store()
    grads = Slots(tape.model.layout)
    g = np.asarray(loss.dlogits, dtype=tape.output.dtype)
    if g.shape != tape.output.shape:
        raise ShapeError(f"loss gradient {g.shape} vs logits {tape.output.shape}")
    # nothing reads the gradient of the model input
    _backprop_layers(tape.records, g, grads, input_grad=False)
    return grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class OptimState:
    """SGD or Adam on the parameter part of a model's store, with Adam's
    ``m`` and ``v`` Slots in its layout."""

    chunk = 1 << 16  # Adam's elements per chunk, whose arrays stay in cache

    def __init__(self, model: ModelGraph, kind="sgd", lr=0.01,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {kind!r}")
        if not 0 <= lr < np.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
        self.model = model
        self.kind = kind
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        model.sync_store()
        self.m, self.v = (Slots(model.layout if kind == "adam" else ()) for _ in "mv")

    def step(self, grads):
        """Apply one update in place; returns the model.  A plain dict of
        gradients is first copied into Slots."""
        self.t += 1
        store, layout = self.model.sync_store(), self.model.layout
        grads = grads if getattr(grads, "layout", None) == layout else Slots(layout, grads)
        if self.kind == "sgd":
            for dt, g in grads.flat.items():
                store[dt][: g.size] -= (self.lr * g).astype(dt, copy=False)
            return self.model
        if self.m.layout != layout:
            raise ShapeError("the model's parameters changed since the optimizer was built")
        # flat chunks, their two scratch arrays carved from one buffer
        work = np.empty(0, np.uint8)
        for dt, flat in grads.flat.items():
            views = (store[dt][: flat.size], flat, self.m.flat[dt], self.v.flat[dt])
            for i in range(0, flat.size, self.chunk):
                p, g, m, v = (x[i : i + self.chunk] for x in views)
                if work.nbytes < 2 * p.nbytes:
                    work = np.empty(2 * p.nbytes, np.uint8)
                # p -= lr * mhat / (sqrt(vhat) + eps), in its operation order
                a, b = work[: 2 * p.nbytes].view(dt).reshape(2, -1)
                m *= self.beta1
                m += np.multiply(1 - self.beta1, g, out=a)
                v *= self.beta2
                v += np.multiply(1 - self.beta2, np.multiply(g, g, out=a), out=a)
                np.divide(v, 1 - self.beta2 ** self.t, out=a)  # vhat
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(m, 1 - self.beta1 ** self.t, out=b)  # mhat
                b *= self.lr
                b /= a
                p -= b
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
            slot = (opt.m if which == "m" else opt.v).get((int(lid), name))
            if slot is None or slot.shape != arr.shape:
                raise ShapeError(f"optimizer slot {key} {arr.shape} does not fit the model")
            slot[...] = arr
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


def _check_batch_size(batch_size):
    if batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {batch_size}")


@functools.cache
def _blas_threads():
    """(get, set, stop) for numpy's bundled OpenBLAS, found once through
    ctypes, or None (another BLAS, or none bundled): get and set its thread
    count, and stop its thread pool (None if not exported), which it starts
    again when the count is next set or a call runs on more than 1 thread."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                return get, put, stop
    return None


_worker = None  # the thread that runs the odd batches of a parallel evaluation

if hasattr(os, "register_at_fork"):  # a forked child has no such thread
    os.register_at_fork(after_in_child=lambda: globals().update(_worker=None))


def _eval_logits(model, features, batch_size):
    """[(start, logits)] per batch, from one frozen snapshot of the model.

    When numpy's OpenBLAS runs 2 or more threads, the process may use 2
    CPUs and there are 2 or more batches, BLAS is set to 1 thread and its
    thread pool stopped; one persistent worker thread runs batches 1, 3,
    5, ... and the caller batches 0, 2, 4, ..., each whole.  The thread
    count is restored once every batch has finished.  Each batch is the
    serial computation, so the logits equal the serial ones bit for bit.
    Not reentrant across threads.
    """
    global _worker
    _check_batch_size(batch_size)
    frozen = freeze(model)
    starts = range(0, features.shape[0], batch_size)
    blas = _blas_threads()
    threads = blas[0]() if blas else 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if len(starts) < 2 or threads < 2 or (cpus or 1) < 2:
        return [(s, frozen(model_input(model, features[s : s + batch_size]))) for s in starts]

    def run(s):
        return _run_layers(frozen.layers, model_input(model, features[s : s + batch_size]))[0]

    if _worker is None:
        _worker = ThreadPoolExecutor(1, thread_name_prefix="qprune-eval")
    _, put, stop = blas
    odd = []
    put(1)
    if stop:  # else its idle thread spins on a core for ~0.1 s after a parallel call
        stop()
    try:
        odd.extend(_worker.submit(run, s) for s in starts[1::2])
        logits = [None] * len(starts)
        logits[::2] = [run(s) for s in starts[::2]]
        logits[1::2] = [f.result() for f in odd]
        model.forward_count += len(starts)
        return list(zip(starts, logits))
    finally:
        wait([f for f in odd if not f.cancel()])
        put(threads)


def evaluate_accuracy(model, features, labels, batch_size=64):
    """Top-1 accuracy for single-label data (integer labels)."""
    correct = sum(int((z.argmax(axis=1) == labels[start : start + batch_size]).sum())
                  for start, z in _eval_logits(model, features, batch_size))
    return correct / features.shape[0]


def evaluate_metric(model, features, labels, task, batch_size=64):
    if task == "single":
        return evaluate_accuracy(model, features, labels, batch_size)
    from .metrics import mean_average_precision  # local import, avoids a cycle

    scores = [z for _, z in _eval_logits(model, features, batch_size)]
    return mean_average_precision(np.concatenate(scores), labels).value


def train_loop(model, features, labels, config: TrainConfig,
               val_features=None, val_labels=None,
               loss_fn=None, log_rows=None):
    """Generic minibatch training shared by train, fine-tune, and distill.

    ``loss_fn(z, yb, tape)`` may be supplied to override the loss (the
    distillation path uses this); by default it is sigmoid cross-entropy
    for a multi-label model (``model.task == "multi"``) and softmax
    cross-entropy otherwise.  Each iteration appends one row (iteration,
    loss, metric or None) to ``log_rows``, which is also the result's
    ``history``, after its optimizer step and eval.  Deterministic given the
    config seed.  Raises DivergenceError on a non-finite loss.
    """
    task = model.task
    n = features.shape[0]
    rng = np.random.default_rng(config.seed)
    _check_batch_size(config.batch_size)
    if config.iterations < 0:
        raise ConfigError(f"iterations must be non-negative, got {config.iterations}")
    opt = OptimState(model, config.optimizer, config.lr)

    if task == "single" and labels.ndim == 1:
        dense = one_hot(labels, model.num_classes)
    else:
        dense = np.asarray(labels, dtype=float)

    if val_features is None:
        val_features, val_labels = features, labels
    result = TrainResult(model=model, history=[] if log_rows is None else log_rows)
    best = -np.inf
    best_snap = None
    dtype = next(iter(model.sync_store()), np.float32)  # the first parameter's

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
            loss = loss_fn(z, yb, tape)
        elif task == "multi":
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
                    best_snap = {dt: flat.copy() for dt, flat in model.sync_store().items()}
        result.history.append((it, float(loss), metric))
        result.iterations_run = it
        if (metric is not None and config.target_metric is not None
                and metric >= config.target_metric):
            break

    if config.keep == "best" and best_snap is not None:
        for dt, flat in model.sync_store().items():  # one copy per dtype
            flat[...] = best_snap[dt]
    if best > -np.inf:
        result.best_metric = best
    return result
