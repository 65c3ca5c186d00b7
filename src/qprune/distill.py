"""Knowledge distillation: softened distributions and the combined loss.

A frozen teacher produces logits alongside the student each iteration; the
training objective blends supervised cross-entropy with the KL divergence
between temperature-softened teacher and student distributions:

    L = alpha * CE(y, softmax(z_s)) + (1 - alpha) * KL(p_t^T || p_s^T)

with p^T = softmax(z / T).  The KL term carries no T^2 factor by default;
``KDConfig.t2_scaling`` enables the conventional rescaling for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Loss,
    TrainConfig,
    _check_tape,
    cross_entropy,
    kl_divergence,
    softmax,
    train_loop,
)
from .exceptions import ConfigError, ShapeError
from .nn import ModelGraph, freeze, model_input
from .pruning import PrunePlan, apply_prune


@dataclass
class KDConfig:
    temperature: float = 2.0
    alpha: float = 0.5
    t2_scaling: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")


def softened_softmax(z, temperature):
    """softmax(z / T) per row; T > 0."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return softmax(np.asarray(z, dtype=float) / temperature)


def kd_total_loss(z_student, z_teacher, y, cfg: KDConfig, tape=None):
    """Weighted sum of supervised CE and softened-distribution KL.

    At alpha = 1 the value and gradient equal plain cross-entropy exactly.
    Returns a Loss whose gradient is taken with respect to the student
    logits (the teacher is constant).  The Loss also carries its terms:
    ``ce``, the cross-entropy, and ``kl``, the KL divergence before any
    T^2 scaling; both are filled at every alpha.
    """
    _check_tape(z_student, tape)
    z_s = np.atleast_2d(np.asarray(z_student, dtype=float))
    z_t = np.atleast_2d(np.asarray(z_teacher, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if z_s.shape != z_t.shape:
        raise ShapeError(f"student logits {z_s.shape} vs teacher {z_t.shape}")

    ce = cross_entropy(z_s, y)
    t = cfg.temperature
    p_s = softened_softmax(z_s, t)
    p_t = softened_softmax(z_t, t)
    kl = kl_divergence(p_t, p_s)
    if cfg.alpha == 1.0:
        loss = Loss(float(ce), ce.dlogits, tape)
    else:
        kl_term = kl
        kl_grad = (p_s - p_t) / (t * z_s.shape[0])
        if cfg.t2_scaling:
            kl_term = kl * (t * t)
            kl_grad = kl_grad * (t * t)
        value = cfg.alpha * float(ce) + (1.0 - cfg.alpha) * kl_term
        dlogits = cfg.alpha * ce.dlogits + (1.0 - cfg.alpha) * kl_grad
        loss = Loss(value, dlogits, tape)
    loss.ce, loss.kl = float(ce), kl
    return loss


def make_student_from_plan(teacher: ModelGraph, plan: PrunePlan,
                           seed=0) -> ModelGraph:
    """Freshly initialized model with the pruned teacher's architecture.

    Only shapes are taken from the surgery; no weights are copied.
    """
    student = apply_prune(teacher, plan)
    student.init_params(np.random.default_rng(seed))
    student.forward_count = 0
    student.name = (teacher.name + "-student") if teacher.name else "student"
    return student


def distill_train(teacher: ModelGraph, student: ModelGraph, dataset,
                  cfg: KDConfig, train_cfg: TrainConfig,
                  val_dataset=None, log_rows=None) -> ModelGraph:
    """Train the student against the frozen teacher with the KD loss.

    The teacher is frozen once per run and runs one eval-mode forward per
    iteration, on the student's batch (mixed up when the student's is);
    its parameters and statistics are never updated.
    ``log_rows``, when given, receives (iteration, ce_term, kl_term, total)
    tuples.  A multi-label teacher raises ConfigError: the KD loss is
    softmax-only.
    """
    if teacher.task == "multi":
        raise ConfigError("distillation needs a single-label teacher; "
                          "its KD loss is softmax-only")
    if teacher.num_classes != student.num_classes:
        raise ShapeError(
            f"teacher has {teacher.num_classes} classes, student "
            f"{student.num_classes}"
        )
    feats = dataset.features
    labels = dataset.labels
    kd_rows = [] if log_rows is None else log_rows
    frozen_teacher = freeze(teacher)

    def loss_fn(z, yb, tape):
        n, *_, h, w = tape.x.shape
        z_t = frozen_teacher(model_input(teacher, tape.x.reshape(n, 4, -1, h, w)))
        loss = kd_total_loss(z, z_t, yb, cfg, tape)
        kd_rows.append((len(kd_rows) + 1, loss.ce, loss.kl, float(loss)))
        return loss

    val_feats = val_labels = None
    if val_dataset is not None:
        val_feats, val_labels = val_dataset.features, val_dataset.labels
    train_loop(student, feats, labels, train_cfg,
               val_features=val_feats, val_labels=val_labels,
               loss_fn=loss_fn)
    return student
