"""Built-in desk-scale model specs.

``cnn-mini`` and ``qcnn-mini`` are one six-block feedforward CNN built
from one width table, whose real widths grow 16 -> 256; the
last three conv blocks carry most of the parameters and are the default
pruning targets.  ``cnn-mini`` is the real-valued control, consuming the
four-plane input as 4*Q ordinary channels; ``qcnn-mini`` is the quaternion
model of the same real widths, so its quaternion widths are the table
divided by 4.  ``qresnet-mini`` adds two residual blocks and marks the two
tail conv layers prunable.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ModelGraph,
    QBatchNorm2d,
    QConv2d,
    QLinear,
    ReLU,
    ResidualBlock,
)

MODEL_NAMES = ("qcnn-mini", "qresnet-mini", "cnn-mini")

# real widths of the six conv blocks; qcnn-mini's quaternion widths are these / 4
_WIDTHS = (16, 32, 64, 128, 256, 256)


def _plain_cnn(name, quaternion, num_classes, input_shape, task):
    """Six conv-BN-ReLU blocks of _WIDTHS, the first four average-pooled,
    then a pooled linear head; the last three convs are prunable."""
    conv, bn, div = (QConv2d, QBatchNorm2d, 4) if quaternion else (Conv2d, BatchNorm2d, 1)
    c_in = input_shape[0] // div
    layers = []
    prunable = []
    for b, width in enumerate(_WIDTHS):
        if b >= 3:
            prunable.append(len(layers))  # the conv index of this block
        c_out = width // div
        layers += [conv(c_in, c_out, (3, 3), padding=1), bn(c_out), ReLU()]
        if b < 4:
            layers.append(AvgPool2d(2))
        c_in = c_out
    layers.extend([GlobalAvgPool2d(), Flatten(), Linear(_WIDTHS[-1], num_classes)])
    return ModelGraph(layers, input_shape, num_classes, quaternion=quaternion,
                      task=task, name=name, prunable=prunable)


def qcnn_mini(num_classes, input_shape=(4, 32, 16), task="single"):
    return _plain_cnn("qcnn-mini", True, num_classes, input_shape, task)


def qresnet_mini(num_classes, input_shape=(4, 32, 16), task="single"):
    def res(q):
        return ResidualBlock([
            QConv2d(q, q, (3, 3), padding=1), QBatchNorm2d(q), ReLU(),
            QConv2d(q, q, (3, 3), padding=1), QBatchNorm2d(q),
        ])

    q0 = input_shape[0] // 4
    layers = [
        QConv2d(q0, 8, (3, 3), padding=1), QBatchNorm2d(8), ReLU(), AvgPool2d(2),
        res(8), AvgPool2d(2),
        res(8), AvgPool2d(2),
    ]
    prunable = [len(layers)]
    layers.extend([QConv2d(8, 16, (3, 3), padding=1), QBatchNorm2d(16), ReLU()])
    prunable.append(len(layers))
    layers.extend([QConv2d(16, 32, (3, 3), padding=1), QBatchNorm2d(32), ReLU()])
    layers.extend([GlobalAvgPool2d(), Flatten(), Linear(4 * 32, num_classes)])
    return ModelGraph(layers, input_shape, num_classes, quaternion=True,
                      task=task, name="qresnet-mini", prunable=prunable)


def cnn_mini(num_classes, input_shape=(4, 32, 16), task="single"):
    return _plain_cnn("cnn-mini", False, num_classes, input_shape, task)


_BUILDERS = {"qcnn-mini": qcnn_mini, "qresnet-mini": qresnet_mini,
             "cnn-mini": cnn_mini}


def build_model(name, num_classes, input_shape=(4, 32, 16), seed=0,
                task="single"):
    """Instantiate and initialize a named model spec."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        ) from None
    model = builder(num_classes, tuple(input_shape), task)
    model.init_params(np.random.default_rng(seed))
    return model


def reinitialize(model, seed):
    """Copy of a model with freshly drawn weights (architecture unchanged)."""
    fresh = model.clone()
    fresh.init_params(np.random.default_rng(seed))
    fresh.forward_count = 0
    return fresh
