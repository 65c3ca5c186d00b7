"""Evaluation metrics and model-cost accounting.

Average precision uses the non-interpolated definition (mean of precision
at each positive's rank, ranks by descending score, ties broken by original
index).  Parameter counts tally every learned real scalar, so a quaternion
layer contributes four times its quaternion-parameter count.  MAC counts
charge a real convolution c_out*c_in*kh*kw MACs per output position and a
quaternion convolution 16*q_out*q_in*kh*kw (the Hamilton product costs 16
scalar multiplications; its additions fold into the accumulates).
Activations, pooling, and normalization count as zero MACs.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, FormatError, ShapeError, UndefinedMetricError
from .nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ModelGraph,
    ReLU,
    ResidualBlock,
    freeze,
)

CSV_COLUMNS = ("model", "method", "p", "metric", "value", "params", "macs",
               "time_s")


@dataclass
class EvalReport:
    """One evaluated (model, metric) row plus cost accounting."""

    model: str = ""
    method: str = ""
    p: float = 0.0
    metric: str = ""
    value: float = float("nan")
    params: int = 0
    macs: int = 0
    time_s: float = 0.0
    per_class: list = field(default_factory=list)

    def row(self):
        return {
            "model": self.model, "method": self.method,
            "p": f"{self.p:.9g}", "metric": self.metric,
            "value": f"{self.value:.9g}", "params": str(self.params),
            "macs": str(self.macs), "time_s": f"{self.time_s:.9g}",
        }

    def to_text(self):
        lines = [f"model: {self.model}"]
        if self.method:
            lines.append(f"method: {self.method}  p: {self.p:g}")
        lines.append(f"{self.metric}: {self.value:.6f}")
        lines.append(f"params: {self.params}")
        lines.append(f"macs: {self.macs}")
        if self.time_s:
            lines.append(f"time_s: {self.time_s:.6f}")
        return "\n".join(lines) + "\n"


def write_report_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())


def read_report_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ShapeError(f"{path}: empty CSV")
        for col in CSV_COLUMNS:
            if col not in reader.fieldnames:
                raise ShapeError(f"{path}: missing column {col!r}")
        rows = list(reader)
    for i, row in enumerate(rows, start=2):
        for col in ("p", "value", "params", "macs", "time_s"):
            try:
                if row[col] or col != "time_s":  # time_s may be empty
                    float(row[col])
            except (TypeError, ValueError):
                raise FormatError(f"{path}: line {i}: {col} {row[col]!r} "
                                  "is not a number") from None
    return rows


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------

def average_precision(scores, labels):
    """Non-interpolated AP of one class; needs at least one positive."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    n_pos = int((labels > 0).sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs a positive example")
    order = np.argsort(-scores, kind="stable")  # ties keep original order
    ranked = labels[order] > 0
    cum_pos = np.cumsum(ranked)
    ranks = np.arange(1, scores.size + 1)
    precision_at_pos = cum_pos[ranked] / ranks[ranked]
    return float(precision_at_pos.sum() / n_pos)


def mean_average_precision(score_matrix, label_matrix) -> EvalReport:
    """Mean of per-class APs over classes with at least one positive."""
    scores = np.asarray(score_matrix, dtype=float)
    labels = np.asarray(label_matrix)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    per_class = []
    skipped = []
    for g in range(scores.shape[1]):
        try:
            per_class.append(average_precision(scores[:, g], labels[:, g]))
        except UndefinedMetricError:
            per_class.append(None)
            skipped.append(g)
    valid = [ap for ap in per_class if ap is not None]
    if not valid:
        raise UndefinedMetricError("no class has a positive example")
    if skipped:
        warnings.warn(f"classes without positives skipped: {skipped}")
    return EvalReport(metric="mAP", value=float(np.mean(valid)),
                      per_class=per_class)


def fold_accuracy(folds):
    """Mean of per-fold accuracies; folds are (correct, total) pairs."""
    if not folds:
        raise UndefinedMetricError("need at least one fold")
    accs = []
    for correct, total in folds:
        if total <= 0:
            raise UndefinedMetricError("fold with no examples")
        accs.append(correct / total)
    return float(np.mean(accs))


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def count_params(model: ModelGraph) -> int:
    """Learned real scalars: kernels, biases, and BN affine parameters."""
    return int(sum(arr.size for _, _, _, arr in model.all_params()))


def _layer_macs(layer, in_shape):
    if isinstance(layer, (Conv2d, Linear)):
        # one MAC per real weight per output position; on a quaternion
        # layer's real widths that is 16*q_out*q_in per kernel tap
        return layer.c_in * math.prod(layer.kernel) * math.prod(layer.out_shape(in_shape))
    if isinstance(layer, ResidualBlock):
        total = 0
        shape = in_shape
        for inner in layer.layers:
            total += _layer_macs(inner, shape)
            shape = inner.out_shape(shape)
        return total
    if isinstance(layer, (ReLU, MaxPool2d, AvgPool2d, GlobalAvgPool2d,
                          Flatten, BatchNorm2d)):
        return 0
    raise ValueError(f"no MAC rule for layer {layer.type_name}")


def count_macs(model: ModelGraph, input_shape=None) -> int:
    """Multiply-accumulate count of one forward pass on a single item."""
    shape = tuple(input_shape) if input_shape is not None else model.input_shape
    total = 0
    for layer in model.layers:
        total += _layer_macs(layer, shape)
        shape = layer.out_shape(shape)
    return int(total)


def timed_inference(model: ModelGraph, batch, repeats=5) -> float:
    """Median wall-clock seconds of repeated forward passes of the frozen
    model (see ``nn.freeze``); freezing and one warmup pass are excluded.
    The passes use whatever BLAS thread count the process runs with
    (nothing here sets it), and meaningful numbers need a quiet machine."""
    if repeats < 3:
        raise ConfigError(f"need at least 3 repeats for a median, got {repeats}")
    frozen = freeze(model)
    frozen(batch)  # warmup
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        frozen(batch)
        times.append(time.perf_counter() - start)
    return float(np.median(times))
