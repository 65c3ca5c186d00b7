"""Quaternion and real network layers, model graphs, and checkpoint I/O.

Layers operate on batched arrays: real feature maps are (N, C, H, W) and
quaternion feature maps are (N, 4, Q, H, W), where the second axis holds the
(R, I, J, K) planes.  Every layer implements a hand-written backward pass so
a model can be trained without an external autodiff framework; the forward
methods optionally return the context needed by backward.

A quaternion layer is the real layer whose weight is tied by the Hamilton
product, and its class is a subclass of that layer's: QConv2d, QLinear and
QBatchNorm2d are Conv2d, Linear and BatchNorm2d (``isinstance(q_layer,
Conv2d)`` holds), and each op has one forward and one backward body.  The
subclass stores quaternion widths (q_in, q_out, q), with the real ones
(c_in = 4*q_in, ...) derived, and keeps its arrays on (4, Q) axes.  For
QConv2d and QLinear, ``real_weight()`` is ``hamilton_expand`` of the four
kernel banks, the signed 4x4 block matrix the shared body convolves or
multiplies with on the (N, 4*Q, ...) view of the input, and ``fold()``
maps the real weight gradient back onto the banks with ``hamilton_fold``,
the expansion's adjoint.  The tying is what yields the 4x kernel-parameter
reduction relative to a real layer of equal real width; it does not change
the MACs of a forward pass.
"""

from __future__ import annotations

import copy
import json
import math
import struct

import numpy as np

from .exceptions import (
    ConversionError,
    FormatError,
    ShapeError,
    TruncationError,
)
from .quaternion import HAMILTON_ROWS, QTensor

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = b"QPRS"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# convolution primitives
# ---------------------------------------------------------------------------

def conv_output_hw(h, w, kh, kw, stride, padding):
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"kernel ({kh}x{kw}) does not fit input ({h}x{w}) "
            f"with stride {stride}, padding {padding}"
        )
    return oh, ow


def _im2col(x, kh, kw, stride, padding):
    """Sliding patches of x (N, C, H, W) as the (N*OH*OW, kh*kw*C) row
    matrix of a GEMM.  x is copied once into a zero-padded channels-last
    buffer, so each patch row gathers kh runs of kw*C contiguous values."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False,
    )
    return windows.reshape(n * oh * ow, kh * kw * c), oh, ow


def _col2im(grad_taps, x_shape, kh, kw, stride, padding):
    """Scatter-add the per-tap row gradients (kh*kw, N*OH*OW, C) back to a
    gradient of shape x_shape: one slice-add per kernel tap into a
    zero-padded channels-last buffer."""
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    g = grad_taps.reshape(kh, kw, n, oh, ow, c)
    gx = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=grad_taps.dtype)
    for a in range(kh):
        for b in range(kw):
            gx[:, a : a + stride * oh : stride, b : b + stride * ow : stride] += g[a, b]
    return gx[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


def _conv_forward(x, w, b, stride, padding):
    """Real cross-correlation of x (N, C, H, W) with w (O, C, kh, kw) plus an
    optional bias (O,); returns (y, rows), rows being the _im2col row matrix
    that backward needs.  The GEMM multiplies w reordered to (O, kh*kw*C)
    by rows.T, so y is an (N, O, OH, OW) view of an (O, N, OH, OW) array."""
    o, _, kh, kw = w.shape
    rows, oh, ow = _im2col(x, kh, kw, stride, padding)
    y = w.transpose(0, 2, 3, 1).reshape(o, -1) @ rows.T
    if b is not None:
        y += b[:, None]
    return y.reshape(o, x.shape[0], oh, ow).transpose(1, 0, 2, 3), rows


def _conv_backward(grad_y, rows, w, x_shape, stride, padding, input_grad=True):
    """Gradients of _conv_forward; returns (gw, gb, gx), gx None when
    input_grad is false."""
    o, c, kh, kw = w.shape
    gm = grad_y.transpose(1, 0, 2, 3).reshape(o, -1)
    gw = (gm @ rows).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    if not input_grad:
        return gw, gm.sum(axis=1), None
    # one (N*OH*OW, C) product per kernel tap keeps each col2im run C*OW long
    grad_taps = gm.T @ w.transpose(2, 3, 0, 1).reshape(kh * kw, o, c)
    gx = _col2im(grad_taps, x_shape, kh, kw, stride, padding)
    return gw, gm.sum(axis=1), gx


def hamilton_expand(banks):
    """Quaternion weight banks (4, q_out, q_in, ...) to the real weight
    (4*q_out, 4*q_in, ...) whose (o, o') block is the signed bank of
    HAMILTON_ROWS[o][o']: the real layer the quaternion layer stands for,
    with the input-channel axis innermost in memory as the conv reads it."""
    _, q_out, q_in, *rest = banks.shape
    banks = np.moveaxis(banks, 2, -1)
    w = np.empty((4, q_out, *rest, 4, q_in), dtype=banks.dtype)
    for o, row in enumerate(HAMILTON_ROWS):
        for o_in, (comp, sign) in enumerate(row):
            w[o, ..., o_in, :] = sign * banks[comp]
    return np.moveaxis(w.reshape(4 * q_out, *rest, 4 * q_in), -1, 1)


def hamilton_fold(grad):
    """Adjoint of hamilton_expand: fold a real-weight gradient
    (4*q_out, 4*q_in, ...) back to the banks (4, q_out, q_in, ...)."""
    q_out, q_in = grad.shape[0] // 4, grad.shape[1] // 4
    rest = grad.shape[2:]
    g = np.moveaxis(grad, 1, -1).reshape(4, q_out, *rest, 4, q_in)
    banks = np.zeros((4, q_out, *rest, q_in), dtype=grad.dtype)
    for o, row in enumerate(HAMILTON_ROWS):
        for o_in, (comp, sign) in enumerate(row):
            banks[comp] += sign * g[o, ..., o_in, :]
    return np.moveaxis(banks, -1, 2)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Layer:
    """Base layer: parameters, buffers, forward with optional backward ctx.

    Every class in LAYER_TYPES binds forward and backward in its own body,
    a quaternion subclass by re-binding its real layer's, so that a
    per-class profiler wrapping those entries sees each type apart."""

    type_name = "layer"
    quaternion = False  # whether its maps carry channels on (4, Q) axes
    widths = ()  # attributes holding its channel counts, its spec's keys

    def __init__(self):
        self.lid = -1  # assigned by ModelGraph

    def params(self):
        """Ordered (name, array) pairs of learned parameters."""
        return []

    def buffers(self):
        """Ordered (name, array) pairs of non-learned state (e.g. BN stats)."""
        return []

    def set_array(self, name, arr):
        setattr(self, name, arr)

    def init_params(self, rng):
        pass

    def forward(self, x, mode="eval", record=False, update_stats=True):
        raise NotImplementedError

    def backward(self, grad_y, ctx, grads):
        raise NotImplementedError

    def out_shape(self, shape):
        return shape

    def axes(self, c):
        """The channel axes of c real channels in this layer's maps."""
        return (4, c // 4) if self.quaternion else (c,)

    def spec(self):
        return {"type": self.type_name, **{k: getattr(self, k) for k in self.widths}}

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.spec().items() if k != "type")
        return f"{self.__class__.__name__}({items})"


class _Weighted(Layer):
    """The weight (c_out, c_in, *kernel) and optional bias (c_out,) of
    Conv2d and Linear.  Their bodies read the weight through real_weight()
    and real_bias() and route its gradients through fold(), so that
    _HamiltonTie can swap in quaternion banks."""

    widths = ("c_in", "c_out")
    kernel = ()  # a Linear's; Conv2d sets its (kh, kw)

    def _init_weight(self, c_in, c_out, bias, dtype, kernel=()):
        self.c_in, self.c_out, self.has_bias = int(c_in), int(c_out), bool(bias)
        self.w = np.zeros((self.c_out, self.c_in, *kernel), dtype=dtype)
        self.b = np.zeros(self.c_out, dtype=dtype) if bias else None

    def params(self):
        return [("w", self.w)] + ([("b", self.b)] if self.has_bias else [])

    def real_weight(self):
        return self.w

    def real_bias(self):
        return self.b

    def fold(self, gw, gb):
        """Gradients of params() from those of real_weight() and real_bias()."""
        return gw, gb

    def init_params(self, rng):
        (name, w), *bias = self.params()
        scale = 1.0 / np.sqrt(self.c_in * math.prod(self.kernel))
        self.set_array(name, rng.uniform(-scale, scale, w.shape).astype(w.dtype))
        for name, b in bias:
            self.set_array(name, np.zeros_like(b))

    def _add_grads(self, grads, gw, gb):
        # zip stops at the weight when there is no bias
        for (name, _), g in zip(self.params(), self.fold(gw, gb)):
            grads[(self.lid, name)] += g


class _HamiltonTie:
    """What QConv2d and QLinear add to Conv2d and Linear: the weight is four
    banks (F_R, F_I, F_J, F_K) stacked as (4, q_out, q_in, *kernel), and the
    bias one quaternion per output channel, (4, q_out).  The layer is the
    real one of 4*q_in inputs and 4*q_out outputs whose weight
    hamilton_expand builds from the banks; backward folds the real weight
    gradient back onto them with hamilton_fold, the expansion's adjoint."""

    quaternion = True
    widths = ("q_in", "q_out")
    c_in = property(lambda self: 4 * self.q_in)
    c_out = property(lambda self: 4 * self.q_out)

    def _init_weight(self, q_in, q_out, bias, dtype, kernel=()):
        self.q_in, self.q_out, self.has_bias = int(q_in), int(q_out), bool(bias)
        self.weights = np.zeros((4, self.q_out, self.q_in, *kernel), dtype=dtype)
        self.bias = np.zeros((4, self.q_out), dtype=dtype) if bias else None

    def params(self):
        return [("weights", self.weights)] + ([("bias", self.bias)] if self.has_bias else [])

    def real_weight(self):
        return hamilton_expand(self.weights)

    def real_bias(self):
        return self.bias.reshape(-1) if self.has_bias else None

    def fold(self, gw, gb):
        return hamilton_fold(gw), gb.reshape(4, self.q_out)


class Conv2d(_Weighted):
    """Real 2D cross-correlation with optional bias."""

    type_name = "conv2d"

    def __init__(self, c_in, c_out, kernel=(3, 3), stride=1, padding=0,
                 bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self.stride, self.padding = int(stride), int(padding)
        self._init_weight(c_in, c_out, bias, dtype, self.kernel)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.shape[1:-2] != self.axes(self.c_in):
            raise ShapeError(f"{self.type_name} expects channel axes "
                             f"{self.axes(self.c_in)}, got input {x.shape}")
        n = x.shape[0]
        w = self.real_weight()
        y, rows = _conv_forward(x.reshape(n, self.c_in, *x.shape[-2:]), w,
                                self.real_bias(), self.stride, self.padding)
        ctx = {"rows": rows, "w": w, "x_shape": x.shape} if record else None
        return y.reshape(n, *self.axes(self.c_out), *y.shape[-2:]), ctx

    def backward(self, grad_y, ctx, grads):
        n, x_shape = grad_y.shape[0], ctx["x_shape"]
        gw, gb, gx = _conv_backward(
            grad_y.reshape(n, self.c_out, *grad_y.shape[-2:]), ctx["rows"],
            ctx["w"], (n, self.c_in, *x_shape[-2:]), self.stride, self.padding,
            ctx.get("input_grad", True))
        self._add_grads(grads, gw, gb)
        return None if gx is None else gx.reshape(x_shape)

    def out_shape(self, shape):
        c, h, w = shape
        if c != self.c_in:
            raise ShapeError(f"layer expects {self.c_in} real channels, got {c}")
        oh, ow = conv_output_hw(h, w, *self.kernel, self.stride, self.padding)
        return (self.c_out, oh, ow)

    def spec(self):
        return {**super().spec(), "kernel": list(self.kernel), "stride": self.stride,
                "padding": self.padding, "bias": self.has_bias}

    @classmethod
    def from_spec(cls, d):
        return cls(*(d[k] for k in cls.widths), d["kernel"], d["stride"],
                   d["padding"], d["bias"])


class QConv2d(_HamiltonTie, Conv2d):
    """Quaternion 2D convolution: Conv2d on the (N, 4*q_in, H, W) view of
    its (N, 4, q_in, H, W) input, with the weight tied by the Hamilton
    product (see _HamiltonTie)."""

    type_name = "qconv2d"
    forward, backward = Conv2d.forward, Conv2d.backward

    def __init__(self, q_in, q_out, kernel=(3, 3), stride=1, padding=0,
                 bias=True, dtype=DEFAULT_DTYPE):
        super().__init__(q_in, q_out, kernel, stride, padding, bias, dtype)


class BatchNorm2d(Layer):
    """Per-channel batch normalization."""

    type_name = "batchnorm2d"
    widths = ("channels",)

    def __init__(self, channels, eps=1e-5, momentum=0.9, dtype=DEFAULT_DTYPE):
        super().__init__()
        self._init_width(channels)
        self.eps, self.momentum = float(eps), float(momentum)
        shape = self.axes(self.channels)
        self.gamma = np.ones(shape, dtype=dtype)
        self.beta = np.zeros(shape, dtype=dtype)
        self.running_mean = np.zeros(shape, dtype=dtype)
        self.running_var = np.ones(shape, dtype=dtype)

    def _init_width(self, channels):
        self.channels = int(channels)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def init_params(self, rng):
        self.gamma = np.ones_like(self.gamma)
        self.beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros_like(self.running_mean)
        self.running_var = np.ones_like(self.running_var)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.shape[1:-2] != self.axes(self.channels):
            raise ShapeError(f"{self.type_name} expects channel axes "
                             f"{self.axes(self.channels)}, got input {x.shape}")
        x2 = x.reshape(x.shape[0], self.channels, *x.shape[-2:])
        rmean, rvar = self.running_mean.reshape(-1), self.running_var.reshape(-1)
        if mode == "train":
            mu = x2.mean(axis=(0, 2, 3))
            var = x2.var(axis=(0, 2, 3))
            if update_stats:
                rmean *= self.momentum
                rmean += (1.0 - self.momentum) * mu
                rvar *= self.momentum
                rvar += (1.0 - self.momentum) * var
        else:
            mu, var = rmean, rvar
        inv = 1.0 / np.sqrt(var + self.eps)
        gamma, beta = self.gamma.reshape(-1), self.beta.reshape(-1)
        if mode == "train" or record:
            xhat = (x2 - mu[None, :, None, None]) * inv[None, :, None, None]
        if mode == "train":
            y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        else:
            # fixed statistics fold into one scale and shift per channel
            scale = gamma * inv
            y = x2 * scale[None, :, None, None] + (beta - mu * scale)[None, :, None, None]
        ctx = {"xhat": xhat, "inv": inv, "mode": mode} if record else None
        return y.reshape(x.shape), ctx

    def backward(self, grad_y, ctx, grads):
        g = grad_y.reshape(grad_y.shape[0], self.channels, *grad_y.shape[-2:])
        xhat, inv = ctx["xhat"], ctx["inv"]
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        scale = (self.gamma.reshape(-1) * inv)[None, :, None, None]
        if ctx["mode"] == "train":
            m = g.shape[0] * g.shape[2] * g.shape[3]
            gx = scale / m * (m * g - dbeta[None, :, None, None]
                              - xhat * dgamma[None, :, None, None])
        else:
            gx = g * scale
        grads[(self.lid, "gamma")] += dgamma.reshape(self.gamma.shape)
        grads[(self.lid, "beta")] += dbeta.reshape(self.beta.shape)
        return gx.reshape(grad_y.shape)

    def out_shape(self, shape):
        if shape[0] != self.channels:
            raise ShapeError(f"layer expects {self.channels} real channels, got {shape[0]}")
        return shape

    def spec(self):
        return {**super().spec(), "eps": self.eps, "momentum": self.momentum}

    @classmethod
    def from_spec(cls, d):
        return cls(d[cls.widths[0]], d["eps"], d["momentum"])


class QBatchNorm2d(BatchNorm2d):
    """Split batch norm: BatchNorm2d over the 4*q real channels of a
    (N, 4, q, H, W) map, so each plane keeps its own statistics.
    Parameters and statistics are stored (4, q), the plane axis explicit."""

    type_name = "qbatchnorm2d"
    quaternion = True
    widths = ("q",)
    channels = property(lambda self: 4 * self.q)
    forward, backward = BatchNorm2d.forward, BatchNorm2d.backward

    def __init__(self, q, eps=1e-5, momentum=0.9, dtype=DEFAULT_DTYPE):
        super().__init__(q, eps, momentum, dtype)

    def _init_width(self, q):
        self.q = int(q)


class ReLU(Layer):
    """Elementwise max(0, x).  On quaternion maps this is the split
    activation: the same real nonlinearity applied to each plane."""

    type_name = "relu"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        y = np.maximum(x, 0)
        ctx = {"mask": x > 0} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        return grad_y * ctx["mask"]

    @classmethod
    def from_spec(cls, d):
        return cls()


def _pool_windows(x3, wh, ww, sh, sw):
    b, h, w = x3.shape
    if wh > h or ww > w:
        raise ShapeError(f"pool window ({wh}x{ww}) larger than input ({h}x{w})")
    oh = (h - wh) // sh + 1
    ow = (w - ww) // sw + 1
    s0, s1, s2 = x3.strides
    win = np.lib.stride_tricks.as_strided(
        x3, shape=(b, oh, ow, wh, ww),
        strides=(s0, s1 * sh, s2 * sw, s1, s2), writeable=False,
    )
    return win, oh, ow


class MaxPool2d(Layer):
    """Per-plane spatial max pooling over the trailing two axes."""

    type_name = "maxpool2d"

    def __init__(self, window=2, stride=None):
        super().__init__()
        self.window = int(window)
        self.stride = int(stride) if stride is not None else self.window

    def forward(self, x, mode="eval", record=False, update_stats=True):
        lead = x.shape[:-2]
        h, w = x.shape[-2:]
        x3 = x.reshape(-1, h, w)
        win, oh, ow = _pool_windows(x3, self.window, self.window, self.stride, self.stride)
        flat = win.reshape(x3.shape[0], oh, ow, -1)
        arg = flat.argmax(axis=-1)
        y3 = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        y = y3.reshape(lead + (oh, ow))
        ctx = None
        if record:
            ctx = {"arg": arg, "x_shape": x.shape, "ohw": (oh, ow)}
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        h, w = ctx["x_shape"][-2:]
        oh, ow = ctx["ohw"]
        arg = ctx["arg"]
        b = arg.shape[0]
        g3 = grad_y.reshape(b, oh, ow)
        gx = np.zeros((b, h, w), dtype=grad_y.dtype)
        bi, oi, oj = np.indices(arg.shape, sparse=False)
        hi = oi * self.stride + arg // self.window
        wi = oj * self.stride + arg % self.window
        np.add.at(gx, (bi, hi, wi), g3)
        return gx.reshape(ctx["x_shape"])

    def out_shape(self, shape):
        c, h, w = shape
        if self.window > h or self.window > w:
            raise ShapeError(f"pool window {self.window} larger than input ({h}x{w})")
        return (c, (h - self.window) // self.stride + 1,
                (w - self.window) // self.stride + 1)

    def spec(self):
        return {"type": self.type_name, "window": self.window, "stride": self.stride}

    @classmethod
    def from_spec(cls, d):
        return cls(d["window"], d["stride"])


class AvgPool2d(Layer):
    """Per-plane spatial average pooling over the trailing two axes."""

    type_name = "avgpool2d"

    def __init__(self, window=2, stride=None):
        super().__init__()
        self.window = int(window)
        self.stride = int(stride) if stride is not None else self.window

    def forward(self, x, mode="eval", record=False, update_stats=True):
        _, oh, ow = self.out_shape((0, *x.shape[-2:]))
        # in x's memory order, so that no add mixes two layouts
        y = np.zeros_like(x[..., :oh, :ow])
        s = self.stride
        for a in range(self.window):
            for b in range(self.window):
                y += x[..., a : a + s * oh : s, b : b + s * ow : s]
        y /= self.window * self.window
        ctx = {"x_shape": x.shape} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        oh, ow = grad_y.shape[-2:]
        g = grad_y / (self.window * self.window)
        gx = np.zeros(ctx["x_shape"], dtype=grad_y.dtype)
        s = self.stride
        for a in range(self.window):
            for b in range(self.window):
                gx[..., a : a + s * oh : s, b : b + s * ow : s] += g
        return gx

    out_shape = MaxPool2d.out_shape

    def spec(self):
        return {"type": self.type_name, "window": self.window, "stride": self.stride}

    @classmethod
    def from_spec(cls, d):
        return cls(d["window"], d["stride"])


class GlobalAvgPool2d(Layer):
    """Average over all spatial positions, keeping 1x1 spatial dims."""

    type_name = "globalavgpool2d"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        y = x.mean(axis=(-2, -1), keepdims=True).astype(x.dtype, copy=False)
        ctx = {"hw": x.shape[-2:]} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        h, w = ctx["hw"]
        return np.broadcast_to(grad_y / (h * w), grad_y.shape[:-2] + (h, w)).astype(
            grad_y.dtype, copy=False
        )

    def out_shape(self, shape):
        c, _, _ = shape
        return (c, 1, 1)

    @classmethod
    def from_spec(cls, d):
        return cls()


class Flatten(Layer):
    """Collapse everything after the batch axis.  Quaternion maps flatten
    plane-major: all R channels, then I, J, K."""

    type_name = "flatten"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        y = x.reshape(x.shape[0], -1)
        ctx = {"x_shape": x.shape} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        return grad_y.reshape(ctx["x_shape"])

    def out_shape(self, shape):
        n = 1
        for d in shape:
            n *= d
        return (n,)

    @classmethod
    def from_spec(cls, d):
        return cls()


class Linear(_Weighted):
    """Real fully-connected layer y = x W^T + b on flat or 1x1-pooled input."""

    type_name = "linear"

    def __init__(self, c_in, c_out, bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self._init_weight(c_in, c_out, bias, dtype)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        n, c, axes = x.shape[0], self.c_in, self.axes(self.c_in)
        if x.shape[1:] not in ((c,), (c, 1, 1), axes, axes + (1, 1)):
            raise ShapeError(f"{self.type_name} expects (N, {c}) features, flat, "
                             f"on axes {axes} or pooled to 1x1; got {x.shape}")
        x2 = x.reshape(n, c)
        w = self.real_weight()
        y = x2 @ w.T
        if self.has_bias:
            y = y + self.real_bias()
        ctx = {"x": x2, "w": w, "x_shape": x.shape} if record else None
        return y.reshape(n, *self.axes(self.c_out)), ctx

    def backward(self, grad_y, ctx, grads):
        g = grad_y.reshape(grad_y.shape[0], self.c_out)
        self._add_grads(grads, g.T @ ctx["x"], g.sum(axis=0))
        return (g @ ctx["w"]).reshape(ctx["x_shape"])

    def out_shape(self, shape):
        if tuple(shape) not in ((self.c_in,), (self.c_in, 1, 1)):
            raise ShapeError(f"{self.type_name} expects {self.c_in} features, flat "
                             f"or pooled to 1x1; got {tuple(shape)}")
        return (self.c_out,)

    def spec(self):
        return {**super().spec(), "bias": self.has_bias}

    @classmethod
    def from_spec(cls, d):
        return cls(*(d[k] for k in cls.widths), d["bias"])


class QLinear(_HamiltonTie, Linear):
    """Quaternion fully-connected layer: each output is a sum of Hamilton
    products of a quaternion weight with a quaternion input, plus a
    quaternion bias; Linear on the (N, 4*q_in) view of its (N, 4, q_in)
    input, with the weight tied (see _HamiltonTie)."""

    type_name = "qlinear"
    forward, backward = Linear.forward, Linear.backward

    def __init__(self, q_in, q_out, bias=True, dtype=DEFAULT_DTYPE):
        super().__init__(q_in, q_out, bias, dtype)


class ResidualBlock(Layer):
    """y = relu(x + inner(x)) for a shape-preserving inner layer stack."""

    type_name = "residual"

    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def params(self):
        return []

    def init_params(self, rng):
        for layer in self.layers:
            layer.init_params(rng)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        h = x
        inner = []
        for layer in self.layers:
            h, ctx = layer.forward(h, mode=mode, record=record,
                                   update_stats=update_stats)
            if record:
                inner.append((layer, ctx))
        if h.shape != x.shape:
            raise ShapeError(
                f"residual inner stack changed shape {x.shape} -> {h.shape}"
            )
        s = x + h
        y = np.maximum(s, 0)
        ctx = {"inner": inner, "mask": s > 0} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        g = grad_y * ctx["mask"]
        g_inner = g
        for layer, lctx in reversed(ctx["inner"]):
            g_inner = layer.backward(g_inner, lctx, grads)
        return g + g_inner

    def out_shape(self, shape):
        s = shape
        for layer in self.layers:
            s = layer.out_shape(s)
        if s != shape:
            raise ShapeError("residual inner stack must preserve shape")
        return shape

    def spec(self):
        return {"type": self.type_name, "layers": [l.spec() for l in self.layers]}

    @classmethod
    def from_spec(cls, d):
        return cls([build_layer(s) for s in d["layers"]])


LAYER_TYPES = {
    cls.type_name: cls
    for cls in (Conv2d, QConv2d, BatchNorm2d, QBatchNorm2d, ReLU, MaxPool2d,
                AvgPool2d, GlobalAvgPool2d, Flatten, Linear, QLinear,
                ResidualBlock)
}


def build_layer(spec):
    try:
        cls = LAYER_TYPES[spec["type"]]
    except KeyError:
        raise FormatError(f"unknown layer type {spec.get('type')!r}") from None
    return cls.from_spec(spec)


# ---------------------------------------------------------------------------
# model graph
# ---------------------------------------------------------------------------

class ModelGraph:
    """An ordered stack of layers with shape metadata.

    ``input_shape`` is always expressed in real-channel terms (C, H, W); a
    quaternion model consumes it as (4, C/4, H, W) plane-stacked input.
    ``prunable`` holds the default target layer indices for filter pruning.
    """

    def __init__(self, layers, input_shape, num_classes, quaternion,
                 task="single", name="", prunable=()):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.num_classes = int(num_classes)
        self.quaternion = bool(quaternion)
        self.task = task
        self.name = name
        self.prunable = list(prunable)
        self.forward_count = 0
        if self.quaternion and self.input_shape[0] % 4:
            raise ShapeError("quaternion model input channels must be divisible by 4")
        self._assign_ids()

    def _assign_ids(self):
        for lid, layer in enumerate(self.walk()):
            layer.lid = lid

    def walk(self):
        """All layers depth-first, entering residual blocks."""
        for layer in self.layers:
            yield layer
            if isinstance(layer, ResidualBlock):
                yield from layer.layers

    def all_params(self):
        """(lid, layer, name, array) for every learned parameter."""
        out = []
        for layer in self.walk():
            for name, arr in layer.params():
                out.append((layer.lid, layer, name, arr))
        return out

    def all_buffers(self):
        out = []
        for layer in self.walk():
            for name, arr in layer.buffers():
                out.append((layer.lid, layer, name, arr))
        return out

    def init_params(self, rng):
        for layer in self.walk():
            layer.init_params(rng)
        return self

    def clone(self):
        return copy.deepcopy(self)

    def astype(self, dtype):
        """Return a copy with all parameters and buffers cast to dtype."""
        m = self.clone()
        for layer in m.walk():
            for name, arr in layer.params() + layer.buffers():
                layer.set_array(name, arr.astype(dtype))
        return m

    def layer_shapes(self):
        """Per-layer output shapes in real-channel terms, starting from the
        model input."""
        shapes = []
        s = self.input_shape
        for layer in self.layers:
            s = layer.out_shape(s)
            shapes.append(s)
        return shapes

    def describe(self):
        return {
            "name": self.name,
            "quaternion": self.quaternion,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "task": self.task,
            "prunable": list(self.prunable),
            "layers": [l.spec() for l in self.layers],
        }

    @classmethod
    def from_description(cls, d):
        layers = [build_layer(s) for s in d["layers"]]
        return cls(layers, d["input_shape"], d["num_classes"], d["quaternion"],
                   d.get("task", "single"), d.get("name", ""),
                   d.get("prunable", ()))

    def __repr__(self):
        kind = "quaternion" if self.quaternion else "real"
        return (f"ModelGraph(name={self.name!r}, {kind}, "
                f"input={self.input_shape}, classes={self.num_classes}, "
                f"layers={len(self.layers)})")


def model_input(model, features):
    """Map plane-stacked features (N, 4, Q, H, W) to the model's input layout.

    Quaternion models consume the array as-is; real models receive the four
    planes as 4*Q ordinary channels (the multi-channel control setup).
    """
    feats = np.asarray(features)
    if feats.ndim != 5 or feats.shape[1] != 4:
        raise ShapeError(f"expected (N, 4, Q, H, W) features, got {feats.shape}")
    if model.quaternion:
        return feats
    n, _, q, h, w = feats.shape
    return feats.reshape(n, 4 * q, h, w)


# ---------------------------------------------------------------------------
# frozen-model inference
# ---------------------------------------------------------------------------

def _read_only(arr):
    arr.flags.writeable = False
    return arr


class _FrozenConv:
    """A Conv2d or QConv2d on its real weight, with a directly following
    eval-mode BN folded into the weight rows and bias (w*s, (b-mu)*s+beta,
    s = gamma/sqrt(var+eps)) and a following ReLU applied in place."""

    def __init__(self, conv, bn, relu):
        w, bias = conv.real_weight(), conv.real_bias()
        o, c, kh, kw = w.shape
        self.axes_in, self.axes = conv.axes(c), conv.axes(o)
        b = np.zeros(o, w.dtype) if bias is None else bias.copy()
        s = np.ones(o, w.dtype)
        if bn is not None:
            if bn.axes(bn.channels) != self.axes:
                raise ShapeError(f"batchnorm on channel axes {bn.axes(bn.channels)} "
                                 f"after a conv to {self.axes}")
            s = bn.gamma.reshape(-1) / np.sqrt(bn.running_var.reshape(-1) + bn.eps)
            b = (b - bn.running_mean.reshape(-1)) * s + bn.beta.reshape(-1)
        wk = w.transpose(0, 2, 3, 1).reshape(o, -1) * s[:, None]
        # (O, C, kh, kw) over (O, kh, kw, C) memory, as _conv_forward reads it
        self.w = _read_only(wk.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
        self.b = _read_only(b)
        self.stride, self.padding, self.relu = conv.stride, conv.padding, relu

    def forward(self, x, **_):
        if x.shape[1:-2] != self.axes_in:
            raise ShapeError(f"conv expects channel axes {self.axes_in}, got input {x.shape}")
        n = x.shape[0]
        y, _ = _conv_forward(x.reshape(n, self.w.shape[1], *x.shape[-2:]), self.w, self.b,
                             self.stride, self.padding)
        if self.relu:
            np.maximum(y, 0, out=y)
        return y.reshape(n, *self.axes, *y.shape[2:]), None


def _frozen_linear(layer):
    """A Linear on read-only copies of a Linear's or QLinear's real weight
    and bias, on the same channel axes."""
    frozen = Linear(layer.c_in, layer.c_out, layer.has_bias)
    frozen.quaternion = layer.quaternion
    frozen.w = _read_only(layer.real_weight().copy())
    if layer.has_bias:
        frozen.b = _read_only(layer.real_bias().copy())
    return frozen


def _freeze_stack(layers):
    frozen, rest = [], list(layers)
    while rest:
        layer = rest.pop(0)
        if isinstance(layer, Conv2d):
            bn = rest.pop(0) if rest and isinstance(rest[0], BatchNorm2d) else None
            relu = bool(rest) and isinstance(rest[0], ReLU)
            if relu:
                rest.pop(0)
            frozen.append(_FrozenConv(layer, bn, relu))
        elif isinstance(layer, Linear):
            frozen.append(_frozen_linear(layer))
        elif isinstance(layer, ResidualBlock):
            frozen.append(ResidualBlock(_freeze_stack(layer.layers)))
        else:  # its own eval forward, on a private copy
            frozen.append(copy.deepcopy(layer))
            for _, arr in frozen[-1].params() + frozen[-1].buffers():
                _read_only(arr)
    return frozen


class FrozenModel:
    """Eval-mode inference on a snapshot of a model's weights and BN
    statistics, built once by ``freeze``; later changes to the model do not
    reach it.  Each call adds 1 to the model's ``forward_count``."""

    def __init__(self, model: ModelGraph):
        self.model = model
        self.layers = tuple(_freeze_stack(model.layers))

    def __call__(self, batch):
        """The logits ``inference(model, batch)`` gives, to float rounding."""
        h = batch
        for layer in self.layers:
            h, _ = layer.forward(h)
        self.model.forward_count += 1
        return h


def freeze(model: ModelGraph) -> FrozenModel:
    """Expand, fold and copy the model's arrays once; see FrozenModel."""
    return FrozenModel(model)


# ---------------------------------------------------------------------------
# functional forms on QTensor / arrays
# ---------------------------------------------------------------------------

def _batched(x):
    """Accept a QTensor or a plane-stacked array; return (batch array, unwrap)."""
    if isinstance(x, QTensor):
        return x.data[None], lambda y: QTensor(y[0])
    arr = np.asarray(x)
    return arr, lambda y: y


def real_conv2d(layer: Conv2d, x):
    """Apply a real convolution layer to (N, C, H, W) or (C, H, W) input."""
    arr = np.asarray(x)
    squeeze = arr.ndim == 3
    if squeeze:
        arr = arr[None]
    y, _ = layer.forward(arr)
    return y[0] if squeeze else y


def qconv2d(layer: QConv2d, x):
    """Apply a quaternion convolution layer to a QTensor or batched planes."""
    arr, unwrap = _batched(x)
    y, _ = layer.forward(arr)
    return unwrap(y)


def split_activation(x, kind="relu"):
    """Apply a real activation independently to each quaternion plane."""
    if kind != "relu":
        raise ValueError(f"unsupported activation {kind!r}")
    arr, unwrap = _batched(x)
    y, _ = ReLU().forward(arr)
    return unwrap(y)


def split_batchnorm(x, state: QBatchNorm2d, mode="train"):
    """Normalize each plane with its own statistics held in ``state``."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    arr, unwrap = _batched(x)
    y, _ = state.forward(arr, mode=mode)
    return unwrap(y)


def split_pool(x, kind, window, stride=None):
    """Pool each plane independently; kind is 'max' or 'avg'."""
    if kind == "max":
        layer = MaxPool2d(window, stride)
    elif kind == "avg":
        layer = AvgPool2d(window, stride)
    else:
        raise ValueError(f"unsupported pool kind {kind!r}")
    arr, unwrap = _batched(x)
    y, _ = layer.forward(arr)
    return unwrap(y)


def qlinear(layer: QLinear, x):
    """Apply a quaternion fully-connected layer to (N, 4, q_in) or (4, q_in)."""
    arr = np.asarray(x)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[None]
    y, _ = layer.forward(arr)
    return y[0] if squeeze else y


# ---------------------------------------------------------------------------
# real -> quaternion architecture conversion
# ---------------------------------------------------------------------------

def convert_architecture(real_model: ModelGraph, seed=0) -> ModelGraph:
    """Build the quaternion equivalent of a real convolutional model.

    Every conv/linear width C becomes C/4 quaternion channels; the final
    classifier stays a real linear layer over the flattened planes.  Weights
    are freshly initialized (the conversion is architectural).
    """
    if real_model.quaternion:
        raise ConversionError("model is already quaternion-valued")
    if real_model.input_shape[0] % 4:
        raise ConversionError(
            f"input channel count {real_model.input_shape[0]} not divisible by 4"
        )

    linear_indices = [i for i, l in enumerate(real_model.layers)
                      if isinstance(l, Linear)]
    head = linear_indices[-1] if linear_indices else None

    def convert_layer(layer, idx, label):
        if layer.quaternion:
            raise ConversionError(f"layer {label}: {layer.type_name} is already quaternion")
        if isinstance(layer, Conv2d):
            if layer.c_in % 4 or layer.c_out % 4:
                raise ConversionError(
                    f"layer {label} (conv2d {layer.c_in}->{layer.c_out}): "
                    "channel counts not divisible by 4"
                )
            return QConv2d(layer.c_in // 4, layer.c_out // 4, layer.kernel,
                           layer.stride, layer.padding, layer.has_bias)
        if isinstance(layer, BatchNorm2d):
            if layer.channels % 4:
                raise ConversionError(
                    f"layer {label} (batchnorm2d {layer.channels}): "
                    "channel count not divisible by 4"
                )
            return QBatchNorm2d(layer.channels // 4, layer.eps, layer.momentum)
        if isinstance(layer, Linear):
            if idx == head:
                return Linear(layer.c_in, layer.c_out, layer.has_bias)
            if layer.c_in % 4 or layer.c_out % 4:
                raise ConversionError(
                    f"layer {label} (linear {layer.c_in}->{layer.c_out}): "
                    "feature counts not divisible by 4"
                )
            return QLinear(layer.c_in // 4, layer.c_out // 4, layer.has_bias)
        if isinstance(layer, ResidualBlock):
            return ResidualBlock([
                convert_layer(inner, None, f"{label}.{k}")
                for k, inner in enumerate(layer.layers)
            ])
        if isinstance(layer, (ReLU, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten)):
            return build_layer(layer.spec())
        raise ConversionError(f"layer {label}: cannot convert {layer.type_name}")

    layers = [convert_layer(l, i, str(i)) for i, l in enumerate(real_model.layers)]
    model = ModelGraph(layers, real_model.input_shape, real_model.num_classes,
                       quaternion=True, task=real_model.task,
                       name=(real_model.name + "-quat") if real_model.name else "",
                       prunable=real_model.prunable)
    model.init_params(np.random.default_rng(seed))
    return model


# ---------------------------------------------------------------------------
# checkpoint format: magic "QPRS", u32 version, u64 header length, JSON
# header, then raw little-endian float32 payloads in header order.
# ---------------------------------------------------------------------------

def _payload_arrays(model):
    for layer in model.walk():
        for name, arr in layer.params():
            yield layer, name, arr
        for name, arr in layer.buffers():
            yield layer, name, arr


def save_checkpoint(model: ModelGraph, path, optimizer=None):
    """Write a model (and optionally optimizer state) to a QPRS file."""
    header = {
        "format": CHECKPOINT_VERSION,
        "plane_order": "RIJK",
        "model": model.describe(),
        "payload": [
            {"lid": layer.lid, "name": name, "shape": list(arr.shape)}
            for layer, name, arr in _payload_arrays(model)
        ],
        "optimizer": None,
    }
    opt_arrays = []
    if optimizer is not None:
        meta = optimizer.state_meta()
        header["optimizer"] = meta
        opt_arrays = optimizer.state_arrays()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, _, arr in _payload_arrays(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        for arr in opt_arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Read a QPRS file; returns (model, optimizer_state dict or None).

    A header that does not decode, or whose model description, payload
    table or optimizer table is malformed or inconsistent, raises
    FormatError; a file that ends early raises TruncationError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a QPRS checkpoint")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    hlen = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + hlen:
        raise TruncationError(f"{path}: truncated header")
    try:
        return _read_checkpoint(raw, 16 + hlen, path)
    except FormatError:
        raise
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise FormatError(
            f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})"
        ) from None


def _read_checkpoint(raw, offset, path):
    header = json.loads(raw[16:offset].decode("utf-8"))
    model = ModelGraph.from_description(header["model"])
    if model.task not in ("single", "multi"):
        raise FormatError(f"{path}: unknown task {model.task!r}")
    # the described layers must chain, into one logit per class
    if model.layer_shapes()[-1:] != [(model.num_classes,)]:
        raise FormatError(f"{path}: the layers do not end in "
                          f"{model.num_classes} class logits")
    arrays = list(_payload_arrays(model))
    expected = [{"lid": layer.lid, "name": name, "shape": list(arr.shape)}
                for layer, name, arr in arrays]
    if header["payload"] != expected:
        raise FormatError(f"{path}: payload table does not match the model")
    for layer, name, arr in arrays:
        nbytes = 4 * arr.size
        if offset + nbytes > len(raw):
            raise TruncationError(f"{path}: payload ends before {name}")
        layer.set_array(name, np.frombuffer(
            raw[offset : offset + nbytes], dtype="<f4").reshape(arr.shape).copy())
        offset += nbytes

    opt_state = None
    meta = header.get("optimizer")
    if meta is not None:
        slots = {}
        for slot in meta["slots"]:
            shape = tuple(slot["shape"])
            if any(d < 0 for d in shape):
                raise FormatError(f"{path}: negative optimizer slot shape {shape}")
            nbytes = 4 * int(np.prod(shape)) if shape else 4
            if offset + nbytes > len(raw):
                raise TruncationError(f"{path}: truncated optimizer state")
            slots[slot["key"]] = np.frombuffer(
                raw[offset : offset + nbytes], dtype="<f4"
            ).reshape(shape).copy()
            offset += nbytes
        opt_state = {"meta": meta, "slots": slots}
    if offset != len(raw):
        raise TruncationError(f"{path}: {len(raw) - offset} trailing bytes")
    return model, opt_state
