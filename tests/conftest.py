"""Shared test helpers: finite-difference gradient checking and toy models."""

import numpy as np
import pytest

from qprune.autodiff import backward, forward, inference
from qprune.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
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


def finite_difference_check(model, x, make_loss, n_samples=100, h=1e-3,
                            rtol=1e-4, seed=0):
    """Compare analytic gradients with central differences on sampled params.

    ``make_loss(z, tape)`` must return a Loss; the same function evaluated
    with tape=None supplies the scalar objective for the +/- h probes.
    The error is |fd - analytic| / max(|fd|, |analytic|, 2e-3): a pure
    relative bound for gradients above 2e-3, and an absolute bound of
    rtol * 2e-3 = 2e-7 below it (central differences at h=1e-3 carry ~1e-8
    absolute noise, so no relative bound is certifiable for tiny gradients).
    Returns the worst error seen.
    """
    z, tape = forward(model, x, mode="train")
    grads = backward(tape, make_loss(z, tape))

    entries = []
    for lid, layer, name, arr in model.all_params():
        for flat in range(arr.size):
            entries.append((lid, layer, name, arr, flat))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(entries), size=min(n_samples, len(entries)),
                       replace=False)

    worst = 0.0
    for pick in picks:
        lid, layer, name, arr, flat = entries[pick]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + h
        lp = float(make_loss(inference(model, x, mode="train",
                                       update_stats=False), None))
        arr.flat[flat] = orig - h
        lm = float(make_loss(inference(model, x, mode="train",
                                       update_stats=False), None))
        arr.flat[flat] = orig
        fd = (lp - lm) / (2 * h)
        an = grads[(lid, name)].flat[flat]
        rel = abs(fd - an) / max(abs(fd), abs(an), 2e-3)
        worst = max(worst, rel)
        assert rel <= rtol, (
            f"{layer.type_name}.{name}[{flat}]: analytic {an} vs fd {fd} "
            f"(rel {rel:.2e})"
        )
    return worst


def gradcheck_init(model, rng, w_scale=0.06):
    """Weight/bias settings that keep the network differentiable around the
    current point: finite differences with h=1e-3 are only valid when no
    ReLU input sits near its kink, so batch-norm outputs are pushed to
    +/- 2 with a small spread, and weights stay small.
    """
    for layer in model.walk():
        for name, arr in layer.params():
            if name in ("w", "weights"):
                layer.set_array(
                    name, (rng.normal(size=arr.shape) * w_scale).astype(arr.dtype))
            elif name == "gamma":
                layer.set_array(
                    name, (0.35 + 0.1 * rng.random(arr.shape)).astype(arr.dtype))
            elif name == "beta":
                flat = np.full(arr.size, 2.0)
                flat[::4] = -2.0  # keep some channels dead for mask variety
                layer.set_array(name, flat.reshape(arr.shape).astype(arr.dtype))
            elif name in ("b", "bias"):
                layer.set_array(
                    name, (rng.normal(size=arr.shape) * 0.2).astype(arr.dtype))
    return model


def toy_quaternion_model(num_classes=3, dtype=np.float64, seed=0,
                         for_gradcheck=False):
    """Small quaternion stack exercising qconv, split BN, and both pool
    kinds.  For gradient checks the kink layers (ReLU, MaxPool) sit directly
    on the input so weight probes cannot flip their selections."""
    layers = [
        ReLU(),
        MaxPool2d(2),
        QConv2d(1, 2, (3, 3), padding=1, dtype=dtype),
        QBatchNorm2d(2, dtype=dtype),
        ReLU(),
        AvgPool2d(2),
        QConv2d(2, 3, (3, 3), padding=1, dtype=dtype),
        QBatchNorm2d(3, dtype=dtype),
        ReLU(),
        GlobalAvgPool2d(),
        Flatten(),
        Linear(12, num_classes, dtype=dtype),
    ]
    model = ModelGraph(layers, (4, 8, 8), num_classes, quaternion=True,
                       name="toy-q")
    rng = np.random.default_rng(seed)
    if for_gradcheck:
        gradcheck_init(model, rng)
    else:
        model.init_params(rng)
    return model


def toy_real_model(num_classes=2, dtype=np.float64, seed=0,
                   for_gradcheck=False):
    layers = [
        ReLU(),
        MaxPool2d(2),
        Conv2d(3, 4, (3, 3), padding=1, dtype=dtype),
        BatchNorm2d(4, dtype=dtype),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * 2 * 2, num_classes, dtype=dtype),
    ]
    model = ModelGraph(layers, (3, 8, 8), num_classes, quaternion=False,
                       name="toy-r")
    rng = np.random.default_rng(seed)
    if for_gradcheck:
        gradcheck_init(model, rng)
    else:
        model.init_params(rng)
    return model


def toy_residual_model(num_classes=2, dtype=np.float64, seed=0,
                       for_gradcheck=False):
    layers = [
        QConv2d(1, 2, (3, 3), padding=1, dtype=dtype),
        ResidualBlock([
            QConv2d(2, 2, (3, 3), padding=1, dtype=dtype),
            QBatchNorm2d(2, dtype=dtype),
            ReLU(),
            QConv2d(2, 2, (3, 3), padding=1, dtype=dtype),
            QBatchNorm2d(2, dtype=dtype),
        ]),
        GlobalAvgPool2d(),
        QLinear(2, 3, dtype=dtype),
        Flatten(),
        Linear(12, num_classes, dtype=dtype),
    ]
    model = ModelGraph(layers, (4, 6, 6), num_classes, quaternion=True,
                       name="toy-res")
    rng = np.random.default_rng(seed)
    if for_gradcheck:
        gradcheck_init(model, rng)
    else:
        model.init_params(rng)
    return model


def toy_nested_residual_model(num_classes=2, dtype=np.float64, seed=0,
                              for_gradcheck=False):
    """A residual block inside a residual block, as a .qprs header may
    describe it; every parameter sits at depth 1 or 2."""
    layers = [
        QConv2d(1, 2, (3, 3), padding=1, dtype=dtype),
        ResidualBlock([
            QConv2d(2, 2, (3, 3), padding=1, dtype=dtype),
            QBatchNorm2d(2, dtype=dtype),
            ReLU(),
            ResidualBlock([
                QConv2d(2, 2, (3, 3), padding=1, dtype=dtype),
                QBatchNorm2d(2, dtype=dtype),
            ]),
            QConv2d(2, 2, (1, 1), dtype=dtype),
            QBatchNorm2d(2, dtype=dtype),
        ]),
        GlobalAvgPool2d(),
        Flatten(),
        Linear(8, num_classes, dtype=dtype),
    ]
    model = ModelGraph(layers, (4, 6, 6), num_classes, quaternion=True,
                       name="toy-nested")
    rng = np.random.default_rng(seed)
    if for_gradcheck:
        gradcheck_init(model, rng)
    else:
        model.init_params(rng)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
