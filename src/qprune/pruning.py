"""Data-independent quaternion filter pruning.

A quaternion filter is the aligned slice of all four kernel banks plus its
quaternion bias.  Filter importance is scored layer-by-layer from weights
alone, using one of three methods:

* ``l1``: the summed l1 norms of the four component kernels.
* ``gm``: the summed l1 distances of each component to the component-wise
  geometric median of the layer's filters (low score = redundant filter
  near the median).
* ``op``: the summed largest singular values of each component reshaped to
  a (q_in, kh*kw) matrix, computed by one batched dense SVD.

Pruning removes the floor(p * M) lowest-scoring filters per targeted layer
and performs the matching surgery: the four kernel-bank slices and bias go
away, batch-norm channels follow, and the next weight-bearing layer loses
the corresponding input slices.  Fine-tuning afterwards recovers accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import TrainConfig, train_loop
from .exceptions import (
    DegenerateLayerError,
    FormatError,
    PlanError,
    SurgeryError,
)
from .nn import (
    AvgPool2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ModelGraph,
    QBatchNorm2d,
    QConv2d,
    QLinear,
    ReLU,
    ResidualBlock,
)

METHODS = ("l1", "gm", "op")


def l1_importance(layer: QConv2d):
    """Per-filter importance: sum of |w| over all four kernel banks."""
    if layer.q_out < 1:
        raise DegenerateLayerError("layer has no filters")
    return np.abs(np.asarray(layer.weights, dtype=np.float64)).sum(axis=(0, 2, 3, 4))


def geometric_median(points, tol=1e-8, max_iter=1000):
    """Weiszfeld iteration for the point minimizing sum ||x - x_j||_2.

    Converges when the step falls below ``tol`` or after ``max_iter``
    rounds.  When an iterate lands on a data point the iterate is nudged
    off it (deterministically) and iteration continues.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("need at least one point")
    if pts.shape[0] == 1:
        return pts[0].copy()

    y = pts.mean(axis=0)
    for _ in range(max_iter):
        diff = pts - y
        dist = np.sqrt((diff * diff).sum(axis=1))
        if np.all(dist < 1e-12):  # every point coincides with the iterate
            return y
        coincident = dist < 1e-12
        if np.any(coincident):
            direction = pts.mean(axis=0) - y
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                direction = np.ones_like(y)
                norm = np.linalg.norm(direction)
            y = y + 1e-9 * direction / norm
            continue
        w = 1.0 / dist
        y_new = (w[:, None] * pts).sum(axis=0) / w.sum()
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step < tol:
            break
    return y


def gm_importance(layer: QConv2d):
    """Per-filter summed l1 distance to the component-wise geometric median."""
    m = layer.q_out
    if m < 2:
        raise DegenerateLayerError(
            "geometric-median importance needs at least 2 filters"
        )
    weights = np.asarray(layer.weights, dtype=np.float64)
    scores = np.zeros(m)
    for o in range(4):
        flat = weights[o].reshape(m, -1)
        median = geometric_median(flat)
        scores += np.abs(flat - median[None, :]).sum(axis=1)
    return scores


def op_importance(layer: QConv2d):
    """Per-filter summed operator norms of the four component matrices,
    each component reshaped to (q_in, kh * kw)."""
    if layer.q_out < 1:
        raise DegenerateLayerError("layer has no filters")
    kh, kw = layer.kernel
    mats = np.asarray(layer.weights, dtype=np.float64).reshape(
        4, layer.q_out, layer.q_in, kh * kw)
    return np.linalg.svd(mats, compute_uv=False)[..., 0].sum(axis=0)


_IMPORTANCE = {"l1": l1_importance, "gm": gm_importance, "op": op_importance}


def importance_scores(layer, method):
    try:
        fn = _IMPORTANCE[method]
    except KeyError:
        raise PlanError(f"unknown importance method {method!r}; "
                        f"choose from {', '.join(METHODS)}") from None
    return fn(layer)


# ---------------------------------------------------------------------------
# prune plans
# ---------------------------------------------------------------------------

@dataclass
class PlanEntry:
    layer_index: int
    scores: np.ndarray  # (M,)
    removed: list = field(default_factory=list)  # sorted filter indices


@dataclass
class PrunePlan:
    method: str
    ratio: float
    entries: list = field(default_factory=list)

    def removal_counts(self):
        return {e.layer_index: len(e.removed) for e in self.entries}


def _check_target(model, idx):
    if not 0 <= idx < len(model.layers):
        raise PlanError(f"layer index {idx} out of range")
    layer = model.layers[idx]
    if isinstance(layer, ResidualBlock):
        raise PlanError(f"layer {idx} is a residual block; residual "
                        "interiors are not pruned")
    if not isinstance(layer, QConv2d):
        raise PlanError(
            f"layer {idx} ({layer.type_name}) is not a quaternion conv layer"
        )
    return layer


def build_prune_plan(model: ModelGraph, method, p, target_layers=None) -> PrunePlan:
    """Rank filters per targeted layer and select the floor(p*M) least
    important for removal; score ties break toward the lower index."""
    if not 0.0 <= p < 1.0:
        raise PlanError(f"pruning ratio must lie in [0, 1), got {p}")
    targets = list(model.prunable) if target_layers is None else list(target_layers)
    plan = PrunePlan(method=method, ratio=float(p))
    for idx in sorted(targets):
        layer = _check_target(model, idx)
        scores = importance_scores(layer, method)
        k = int(np.floor(p * layer.q_out))
        order = np.argsort(scores, kind="stable")  # ties: lower index first
        removed = sorted(int(i) for i in order[:k])
        plan.entries.append(PlanEntry(idx, scores, removed))
    return plan


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def _validate_plan(model, plan):
    for entry in plan.entries:
        layer = _check_target(model, entry.layer_index)
        m = layer.q_out
        if len(entry.scores) != m:
            raise SurgeryError(
                f"plan scored {len(entry.scores)} filters for layer "
                f"{entry.layer_index}, model has {m}"
            )
        removed = list(entry.removed)
        if len(set(removed)) != len(removed):
            raise SurgeryError(f"duplicate removal indices in layer {entry.layer_index}")
        if removed and (min(removed) < 0 or max(removed) >= m):
            raise SurgeryError(
                f"removal indices out of range for layer {entry.layer_index}"
            )
        if len(removed) >= m:
            raise SurgeryError(
                f"plan would remove every filter of layer {entry.layer_index}"
            )


def _slice_downstream(model, shapes, idx, keep, m_old):
    """Drop the pruned quaternion channels from whatever consumes layer idx."""
    j = idx + 1
    while j < len(model.layers):
        layer = model.layers[j]
        if isinstance(layer, QBatchNorm2d):
            if layer.q != m_old:
                raise SurgeryError(
                    f"batch norm at layer {j} has {layer.q} channels, "
                    f"expected {m_old}"
                )
            for name in ("gamma", "beta", "running_mean", "running_var"):
                layer.set_array(name, getattr(layer, name)[:, keep].copy())
            layer.q = len(keep)
        elif isinstance(layer, (ReLU, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten)):
            pass
        elif isinstance(layer, (QConv2d, QLinear)):
            if layer.q_in != m_old:
                raise SurgeryError(
                    f"{layer.type_name} at layer {j} consumes {layer.q_in} "
                    f"channels, expected {m_old}"
                )
            layer.weights = layer.weights[:, :, keep].copy()
            layer.q_in = len(keep)
            return
        elif isinstance(layer, Linear):
            # flattened plane-major features: view w as (out, 4, Q, H, W);
            # shapes[] holds post-layer shapes, so walk back to the last
            # rank-3 shape for the spatial dims entering the flatten
            spatial = None
            for back in range(j - 1, idx - 1, -1):
                if len(shapes[back]) == 3:
                    spatial = shapes[back]
                    break
            if spatial is None or spatial[0] != 4 * m_old:
                raise SurgeryError(
                    f"cannot map pruned channels into linear layer {j}"
                )
            _, h, w = spatial
            view = layer.w.reshape(layer.c_out, 4, m_old, h, w)
            layer.w = view[:, :, keep].reshape(layer.c_out, -1).copy()
            layer.c_in = layer.w.shape[1]
            return
        elif isinstance(layer, ResidualBlock):
            raise SurgeryError(
                f"pruned channels flow into residual block at layer {j}; "
                "residual interiors are not pruned"
            )
        else:
            raise SurgeryError(
                f"cannot propagate pruning through layer {j} ({layer.type_name})"
            )
        j += 1
    raise SurgeryError(f"no consumer found for pruned layer {idx}")


def apply_prune(model: ModelGraph, plan: PrunePlan) -> ModelGraph:
    """Structural filter removal; returns a new model, input untouched."""
    _validate_plan(model, plan)
    shapes = model.layer_shapes()
    pruned = model.clone()
    for entry in plan.entries:
        if not entry.removed:
            continue
        layer = pruned.layers[entry.layer_index]
        keep = [i for i in range(layer.q_out) if i not in set(entry.removed)]
        layer.weights = layer.weights[:, keep].copy()
        if layer.has_bias:
            layer.bias = layer.bias[:, keep].copy()
        m_old = layer.q_out
        layer.q_out = len(keep)
        _slice_downstream(pruned, shapes, entry.layer_index, keep, m_old)
    pruned.layer_shapes()  # shape-check the surgered graph
    return pruned


# ---------------------------------------------------------------------------
# plan serialization: a line-oriented text document for audit and replay
# ---------------------------------------------------------------------------

def plan_to_text(plan: PrunePlan) -> str:
    lines = ["QPLAN 1", f"method: {plan.method}", f"ratio: {plan.ratio:.9g}"]
    for entry in plan.entries:
        lines.append(f"layer {entry.layer_index}")
        lines.append("scores: " + " ".join(f"{s:.9g}" for s in entry.scores))
        lines.append("removed: " + " ".join(str(i) for i in entry.removed))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _plan_numbers(text, kind, what):
    try:
        return [kind(tok) for tok in text.split()]
    except ValueError:
        raise FormatError(f"QPLAN {what} {text.strip()!r} is not a list of numbers") from None


def plan_from_text(text: str) -> PrunePlan:
    """Parse a QPLAN document; any malformed line raises FormatError."""
    lines = [ln.rstrip("\n") for ln in text.strip().splitlines()]
    if not lines or lines[0] != "QPLAN 1":
        raise FormatError("not a QPLAN document")
    if lines[-1] != "end":
        raise FormatError("QPLAN document missing 'end' terminator")
    if (len(lines) < 4 or not lines[1].startswith("method: ")
            or not lines[2].startswith("ratio: ")):
        raise FormatError("QPLAN header must carry method and ratio")
    ratio = _plan_numbers(lines[2][7:], float, "ratio")
    if len(ratio) != 1:
        raise FormatError(f"QPLAN ratio {lines[2][7:]!r} is not one number")
    plan = PrunePlan(method=lines[1][8:].strip(), ratio=ratio[0])
    body = lines[3:-1]
    if len(body) % 3:
        raise FormatError("QPLAN layer entries need 'layer', 'scores' and 'removed' lines")
    for i in range(0, len(body), 3):
        head, scores, removed = body[i : i + 3]
        idx = _plan_numbers(head[6:], int, "layer index") if head.startswith("layer ") else []
        if len(idx) != 1:
            raise FormatError(f"expected 'layer <n>', got {head!r}")
        if not scores.startswith("scores:") or not removed.startswith("removed:"):
            raise FormatError(f"layer {idx[0]}: expected 'scores:' and 'removed:' lines")
        plan.entries.append(PlanEntry(
            idx[0], np.array(_plan_numbers(scores[7:], float, "scores")),
            _plan_numbers(removed[8:], int, "removed indices")))
    return plan


def save_plan(plan: PrunePlan, path):
    with open(path, "w") as fh:
        fh.write(plan_to_text(plan))


def load_plan(path) -> PrunePlan:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a QPLAN document") from None
    return plan_from_text(text)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def finetune(model: ModelGraph, dataset, config: TrainConfig,
             val_dataset=None, log_rows=None) -> ModelGraph:
    """Fine-tune a (pruned) model; returns the checkpoint with the best
    validation metric seen.  The input model is never mutated."""
    tuned = model.clone()
    cfg = TrainConfig(**{**config.__dict__, "keep": "best"})
    val_feats = val_labels = None
    if val_dataset is not None:
        val_feats, val_labels = val_dataset.features, val_dataset.labels
    train_loop(tuned, dataset.features, dataset.labels, cfg,
               val_features=val_feats, val_labels=val_labels,
               log_rows=log_rows)
    return tuned
