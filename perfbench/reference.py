"""Computations made apart from qprune, used to check its outputs.

Everything here works from the written definitions: the Hamilton product's
4x4 left-multiplication matrix, convolution as a sum of shifted slices,
batch norm / ReLU / pooling by their formulas, the QPRS byte layout, and
closed-form parameter and MAC counts of ``qcnn-mini``.  Only parameter
arrays and layer hyperparameters are read from the program's objects.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# Left multiplication w (x) x for w = r + i*I + j*J + k*K, as a signed 4x4
# block matrix over the components of x:
#     [ r  -i  -j  -k ]
#     [ i   r  -k   j ]
#     [ j   k   r  -i ]
#     [ k  -j   i   r ]
# Entry [o][c] = (component of w, sign) multiplying component c of x.
HAMILTON = (
    ((0, 1), (1, -1), (2, -1), (3, -1)),
    ((1, 1), (0, 1), (3, -1), (2, 1)),
    ((2, 1), (3, 1), (0, 1), (1, -1)),
    ((3, 1), (2, -1), (1, 1), (0, 1)),
)


def hamilton_kernel(banks):
    """Materialise (4, q_out, q_in, kh, kw) banks as a real
    (4*q_out, 4*q_in, kh, kw) kernel, plane-major on both axes."""
    _, q_out, q_in, kh, kw = banks.shape
    w = np.empty((4 * q_out, 4 * q_in, kh, kw))
    for o, row in enumerate(HAMILTON):
        for c, (comp, sign) in enumerate(row):
            w[o * q_out:(o + 1) * q_out, c * q_in:(c + 1) * q_in] = sign * banks[comp]
    return w


def conv2d(x, w, b, stride, padding):
    """Cross-correlation of (N, C, H, W) by shifted slices, one tap at a time."""
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, c_out, oh, ow))
    for a in range(kh):
        for c in range(kw):
            patch = xp[:, :, a:a + stride * oh:stride, c:c + stride * ow:stride]
            y += np.einsum("nchw,oc->nohw", patch, w[:, :, a, c])
    if b is not None:
        y += b.reshape(1, -1, 1, 1)
    return y


def batchnorm(x, gamma, beta, mean, var, eps, train):
    if train:
        mean = x.mean(axis=(0, 2, 3))
        var = ((x - mean.reshape(1, -1, 1, 1)) ** 2).mean(axis=(0, 2, 3))
    shape = (1, -1, 1, 1)
    return (gamma.reshape(shape) * (x - mean.reshape(shape))
            / np.sqrt(var.reshape(shape) + eps) + beta.reshape(shape))


def avgpool(x, window, stride):
    h, w = x.shape[-2:]
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    y = np.zeros(x.shape[:-2] + (oh, ow))
    for a in range(window):
        for c in range(window):
            y += x[..., a:a + stride * oh:stride, c:c + stride * ow:stride]
    return y / (window * window)


def model_params(model):
    """{(lid, name): float64 copy} of every parameter and buffer."""
    out = {}
    for layer in model.walk():
        for name, arr in layer.params() + layer.buffers():
            out[(layer.lid, name)] = np.array(arr, dtype=np.float64)
    return out


def forward(model, x, train, params=None):
    """Reference logits in float64.  ``x`` is (N, 4, Q, H, W) features;
    ``params`` overrides the model's arrays, keyed (lid, name)."""
    p = model_params(model) if params is None else params
    x = np.asarray(x, dtype=np.float64)
    h = x.reshape(x.shape[0], -1, *x.shape[-2:])  # planes as channels
    for layer in model.layers:
        h = _apply(layer, h, p, train)
    return h


def _apply(layer, h, p, train):
    t, lid = layer.type_name, layer.lid
    if t == "qconv2d":
        b = p.get((lid, "bias"))
        return conv2d(h, hamilton_kernel(p[(lid, "weights")]),
                      None if b is None else b.reshape(-1), layer.stride, layer.padding)
    if t == "conv2d":
        return conv2d(h, p[(lid, "w")], p.get((lid, "b")), layer.stride, layer.padding)
    if t in ("qbatchnorm2d", "batchnorm2d"):
        return batchnorm(h, p[(lid, "gamma")], p[(lid, "beta")],
                         p[(lid, "running_mean")], p[(lid, "running_var")],
                         layer.eps, train)
    if t == "relu":
        return np.maximum(h, 0.0)
    if t == "avgpool2d":
        return avgpool(h, layer.window, layer.stride)
    if t == "globalavgpool2d":
        return h.mean(axis=(-2, -1), keepdims=True)
    if t == "flatten":
        return h.reshape(h.shape[0], -1)
    if t == "linear":
        y = h @ p[(lid, "w")].T
        b = p.get((lid, "b"))
        return y if b is None else y + b
    if t == "residual":
        inner = h
        for sub in layer.layers:
            inner = _apply(sub, inner, p, train)
        return np.maximum(h + inner, 0.0)
    raise NotImplementedError(f"no reference for layer type {t!r}")


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def cross_entropy(z, labels):
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


# ---------------------------------------------------------------------------
# artifacts on disk
# ---------------------------------------------------------------------------

def read_qprs(path):
    """Parse a QPRS checkpoint: magic, u32 version, u64 header length, JSON
    header, then little-endian float32 arrays in header order.  Returns
    (header, {top-level layer index: {name: array}})."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"QPRS":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    lid_to_index = {}
    lid = 0
    for index, spec in enumerate(header["model"]["layers"]):
        lid_to_index[lid] = index
        lid += 1 + len(spec.get("layers", ()))
    arrays = {}
    offset = 16 + hlen
    for entry in header["payload"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, "<f4", count, offset).reshape(shape)
        index = lid_to_index.get(entry["lid"], -1)
        arrays.setdefault(index, {})[entry["name"]] = arr
        offset += 4 * count
    return header, arrays


def read_plan(path):
    """Parse a QPLAN text file into {layer index: (scores, removed)}."""
    entries = {}
    lines = Path(path).read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("layer "):
            scores = np.array([float(s) for s in lines[i + 1].split()[1:]])
            removed = [int(s) for s in lines[i + 2].split()[1:]]
            entries[int(line.split()[1])] = (scores, removed)
    return entries


# ---------------------------------------------------------------------------
# qcnn-mini in closed form
# ---------------------------------------------------------------------------

QCNN_WIDTHS = (4, 8, 16, 32, 64, 64)  # quaternion channels per conv block
QCNN_POOLED = 4  # blocks 0..3 end in a 2x2 average pool
QCNN_PRUNABLE = (3, 4, 5)  # blocks whose conv is a default pruning target


def qcnn_target_layers():
    """Layer index of each prunable block's conv: blocks before the pool
    boundary have 4 layers (conv, bn, relu, pool), later ones 3."""
    index = 0
    out = []
    for b in range(len(QCNN_WIDTHS)):
        if b in QCNN_PRUNABLE:
            out.append(index)
        index += 4 if b < QCNN_POOLED else 3
    return out


def qcnn_counts(num_classes, p=0.0, in_shape=(4, 32, 16)):
    """(params, macs) of qcnn-mini after removing floor(p*M) filters from
    each prunable block: 4*q_out*q_in*9 kernel + 4*q_out bias + 8*q_out BN
    scalars per block; 16*q_out*q_in*9 MACs per output position."""
    widths = [m - (int(np.floor(p * m)) if b in QCNN_PRUNABLE else 0)
              for b, m in enumerate(QCNN_WIDTHS)]
    q_in, h, w = in_shape[0] // 4, in_shape[1], in_shape[2]
    params = macs = 0
    for b, q in enumerate(widths):
        params += 4 * q * q_in * 9 + 4 * q + 8 * q
        macs += 16 * q * q_in * 9 * h * w
        if b < QCNN_POOLED:
            h, w = h // 2, w // 2
        q_in = q
    params += 4 * widths[-1] * num_classes + num_classes
    macs += 4 * widths[-1] * num_classes
    return params, macs
