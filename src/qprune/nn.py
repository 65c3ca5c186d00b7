"""Quaternion and real network layers, model graphs, and checkpoint I/O.

Layers operate on batched arrays: real feature maps are (N, C, H, W) and
quaternion feature maps are (N, 4, Q, H, W), where the second axis holds the
(R, I, J, K) planes.  Every layer implements a hand-written backward pass so
a model can be trained without an external autodiff framework; the forward
methods optionally return the context needed by backward.

A quaternion layer is the real layer whose weight is tied by the Hamilton
product: ``hamilton_expand`` fills the signed 4x4 block matrix of the four
kernel banks, and the layer then runs the one real convolution or matmul
on the (N, 4*Q, ...) view of its input.  The tying is what yields the 4x
kernel-parameter reduction relative to a real layer of equal real width.
Backward computes the real weight gradient and folds it back onto the
banks with ``hamilton_fold``, the adjoint of the expansion.
"""

from __future__ import annotations

import copy
import json
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
    """Base layer: parameters, buffers, forward with optional backward ctx."""

    type_name = "layer"

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

    def spec(self):
        return {"type": self.type_name}

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.spec().items() if k != "type")
        return f"{self.__class__.__name__}({items})"


class Conv2d(Layer):
    """Real 2D cross-correlation with optional bias."""

    type_name = "conv2d"

    def __init__(self, c_in, c_out, kernel=(3, 3), stride=1, padding=0,
                 bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.c_in, self.c_out = int(c_in), int(c_out)
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self.stride, self.padding = int(stride), int(padding)
        self.has_bias = bool(bias)
        kh, kw = self.kernel
        self.w = np.zeros((c_out, c_in, kh, kw), dtype=dtype)
        self.b = np.zeros(c_out, dtype=dtype) if bias else None

    def params(self):
        out = [("w", self.w)]
        if self.has_bias:
            out.append(("b", self.b))
        return out

    def init_params(self, rng):
        kh, kw = self.kernel
        scale = 1.0 / np.sqrt(self.c_in * kh * kw)
        self.w = rng.uniform(-scale, scale, self.w.shape).astype(self.w.dtype)
        if self.has_bias:
            self.b = np.zeros_like(self.b)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ShapeError(
                f"conv2d expects (N, {self.c_in}, H, W), got {x.shape}"
            )
        y, rows = _conv_forward(x, self.w, self.b, self.stride, self.padding)
        ctx = {"rows": rows, "x_shape": x.shape} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        gw, gb, gx = _conv_backward(grad_y, ctx["rows"], self.w, ctx["x_shape"],
                                    self.stride, self.padding,
                                    ctx.get("input_grad", True))
        grads[(self.lid, "w")] += gw
        if self.has_bias:
            grads[(self.lid, "b")] += gb
        return gx

    def out_shape(self, shape):
        c, h, w = shape
        if c != self.c_in:
            raise ShapeError(f"layer expects {self.c_in} channels, got {c}")
        oh, ow = conv_output_hw(h, w, *self.kernel, self.stride, self.padding)
        return (self.c_out, oh, ow)

    def spec(self):
        return {
            "type": self.type_name, "c_in": self.c_in, "c_out": self.c_out,
            "kernel": list(self.kernel), "stride": self.stride,
            "padding": self.padding, "bias": self.has_bias,
        }

    @classmethod
    def from_spec(cls, d):
        return cls(d["c_in"], d["c_out"], d["kernel"], d["stride"], d["padding"], d["bias"])


class QConv2d(Layer):
    """Quaternion 2D convolution as a Hamilton-expanded real convolution.

    ``weights`` stacks the four kernel banks (F_R, F_I, F_J, F_K) along the
    leading axis: shape (4, q_out, q_in, kh, kw).  The bias is one
    quaternion per output channel, shape (4, q_out).  Forward expands the
    banks once into the real (4*q_out, 4*q_in, kh, kw) kernel and runs the
    real convolution on the (N, 4*q_in, H, W) view of the input; backward
    folds the real kernel gradient back onto the banks.
    """

    type_name = "qconv2d"

    def __init__(self, q_in, q_out, kernel=(3, 3), stride=1, padding=0,
                 bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.q_in, self.q_out = int(q_in), int(q_out)
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self.stride, self.padding = int(stride), int(padding)
        self.has_bias = bool(bias)
        kh, kw = self.kernel
        self.weights = np.zeros((4, q_out, q_in, kh, kw), dtype=dtype)
        self.bias = np.zeros((4, q_out), dtype=dtype) if bias else None

    def params(self):
        out = [("weights", self.weights)]
        if self.has_bias:
            out.append(("bias", self.bias))
        return out

    def init_params(self, rng):
        kh, kw = self.kernel
        scale = 1.0 / np.sqrt(4 * self.q_in * kh * kw)
        self.weights = rng.uniform(-scale, scale, self.weights.shape).astype(
            self.weights.dtype
        )
        if self.has_bias:
            self.bias = np.zeros_like(self.bias)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.ndim != 5 or x.shape[1] != 4 or x.shape[2] != self.q_in:
            raise ShapeError(
                f"qconv2d expects (N, 4, {self.q_in}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        x2 = x.reshape(n, 4 * self.q_in, *x.shape[3:])
        wr = hamilton_expand(self.weights)
        b = self.bias.reshape(-1) if self.has_bias else None
        y, rows = _conv_forward(x2, wr, b, self.stride, self.padding)
        ctx = {"rows": rows, "w": wr, "x_shape": x2.shape} if record else None
        return y.reshape(n, 4, self.q_out, *y.shape[2:]), ctx

    def backward(self, grad_y, ctx, grads):
        n = grad_y.shape[0]
        g2 = grad_y.reshape(n, 4 * self.q_out, *grad_y.shape[3:])
        gw, gb, gx = _conv_backward(g2, ctx["rows"], ctx["w"], ctx["x_shape"],
                                    self.stride, self.padding,
                                    ctx.get("input_grad", True))
        grads[(self.lid, "weights")] += hamilton_fold(gw)
        if self.has_bias:
            grads[(self.lid, "bias")] += gb.reshape(4, self.q_out)
        return None if gx is None else gx.reshape(n, 4, self.q_in, *gx.shape[2:])

    def out_shape(self, shape):
        c, h, w = shape
        if c != 4 * self.q_in:
            raise ShapeError(f"layer expects {4 * self.q_in} real channels, got {c}")
        oh, ow = conv_output_hw(h, w, *self.kernel, self.stride, self.padding)
        return (4 * self.q_out, oh, ow)

    def spec(self):
        return {
            "type": self.type_name, "q_in": self.q_in, "q_out": self.q_out,
            "kernel": list(self.kernel), "stride": self.stride,
            "padding": self.padding, "bias": self.has_bias,
        }

    @classmethod
    def from_spec(cls, d):
        return cls(d["q_in"], d["q_out"], d["kernel"], d["stride"], d["padding"], d["bias"])


def _bn_forward(x2, gamma, beta, rmean, rvar, eps, momentum, mode, record, update_stats):
    """Core batch norm on (N, C, H, W) with per-channel parameters."""
    if mode == "train":
        mu = x2.mean(axis=(0, 2, 3))
        var = x2.var(axis=(0, 2, 3))
        if update_stats:
            rmean *= momentum
            rmean += (1.0 - momentum) * mu
            rvar *= momentum
            rvar += (1.0 - momentum) * var
    else:
        mu, var = rmean, rvar
    inv = 1.0 / np.sqrt(var + eps)
    if mode == "train" or record:
        xhat = (x2 - mu[None, :, None, None]) * inv[None, :, None, None]
    if mode == "train":
        y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    else:
        # fixed statistics fold into one scale and shift per channel
        scale = gamma * inv
        y = x2 * scale[None, :, None, None] + (beta - mu * scale)[None, :, None, None]
    ctx = {"xhat": xhat, "inv": inv, "mode": mode} if record else None
    return y, ctx


def _bn_backward(grad_y, ctx, gamma):
    xhat, inv = ctx["xhat"], ctx["inv"]
    dgamma = (grad_y * xhat).sum(axis=(0, 2, 3))
    dbeta = grad_y.sum(axis=(0, 2, 3))
    if ctx["mode"] == "train":
        m = grad_y.shape[0] * grad_y.shape[2] * grad_y.shape[3]
        gx = (gamma * inv)[None, :, None, None] / m * (
            m * grad_y
            - dbeta[None, :, None, None]
            - xhat * dgamma[None, :, None, None]
        )
    else:
        gx = grad_y * (gamma * inv)[None, :, None, None]
    return gx, dgamma, dbeta


class BatchNorm2d(Layer):
    """Per-channel batch normalization for real feature maps."""

    type_name = "batchnorm2d"

    def __init__(self, channels, eps=1e-5, momentum=0.9, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.channels = int(channels)
        self.eps, self.momentum = float(eps), float(momentum)
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

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
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects (N, {self.channels}, H, W), got {x.shape}")
        return _bn_forward(x, self.gamma, self.beta, self.running_mean,
                           self.running_var, self.eps, self.momentum,
                           mode, record, update_stats)

    def backward(self, grad_y, ctx, grads):
        gx, dgamma, dbeta = _bn_backward(grad_y, ctx, self.gamma)
        grads[(self.lid, "gamma")] += dgamma
        grads[(self.lid, "beta")] += dbeta
        return gx

    def spec(self):
        return {"type": self.type_name, "channels": self.channels,
                "eps": self.eps, "momentum": self.momentum}

    @classmethod
    def from_spec(cls, d):
        return cls(d["channels"], d["eps"], d["momentum"])


class QBatchNorm2d(Layer):
    """Split batch norm: each of the 4*Q planes keeps its own statistics.

    Parameters are stored (4, Q) so the plane axis stays explicit; the math
    is plain per-channel BN over the flattened 4*Q channels.
    """

    type_name = "qbatchnorm2d"

    def __init__(self, q, eps=1e-5, momentum=0.9, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.q = int(q)
        self.eps, self.momentum = float(eps), float(momentum)
        self.gamma = np.ones((4, q), dtype=dtype)
        self.beta = np.zeros((4, q), dtype=dtype)
        self.running_mean = np.zeros((4, q), dtype=dtype)
        self.running_var = np.ones((4, q), dtype=dtype)

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
        if x.ndim != 5 or x.shape[1] != 4 or x.shape[2] != self.q:
            raise ShapeError(f"split batchnorm expects (N, 4, {self.q}, H, W), got {x.shape}")
        n, _, q, h, w = x.shape
        x2 = x.reshape(n, 4 * q, h, w)
        y2, ctx = _bn_forward(
            x2, self.gamma.reshape(-1), self.beta.reshape(-1),
            self.running_mean.reshape(-1), self.running_var.reshape(-1),
            self.eps, self.momentum, mode, record, update_stats,
        )
        return y2.reshape(x.shape), ctx

    def backward(self, grad_y, ctx, grads):
        n, _, q, h, w = grad_y.shape
        gx, dgamma, dbeta = _bn_backward(
            grad_y.reshape(n, 4 * q, h, w), ctx, self.gamma.reshape(-1)
        )
        grads[(self.lid, "gamma")] += dgamma.reshape(4, q)
        grads[(self.lid, "beta")] += dbeta.reshape(4, q)
        return gx.reshape(grad_y.shape)

    def spec(self):
        return {"type": self.type_name, "q": self.q,
                "eps": self.eps, "momentum": self.momentum}

    @classmethod
    def from_spec(cls, d):
        return cls(d["q"], d["eps"], d["momentum"])


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


class Linear(Layer):
    """Real fully-connected layer y = x W^T + b."""

    type_name = "linear"

    def __init__(self, c_in, c_out, bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.c_in, self.c_out = int(c_in), int(c_out)
        self.has_bias = bool(bias)
        self.w = np.zeros((c_out, c_in), dtype=dtype)
        self.b = np.zeros(c_out, dtype=dtype) if bias else None

    def params(self):
        out = [("w", self.w)]
        if self.has_bias:
            out.append(("b", self.b))
        return out

    def init_params(self, rng):
        scale = 1.0 / np.sqrt(self.c_in)
        self.w = rng.uniform(-scale, scale, self.w.shape).astype(self.w.dtype)
        if self.has_bias:
            self.b = np.zeros_like(self.b)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise ShapeError(f"linear expects (N, {self.c_in}), got {x.shape}")
        y = x @ self.w.T
        if self.has_bias:
            y = y + self.b[None, :]
        ctx = {"x": x} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        grads[(self.lid, "w")] += grad_y.T @ ctx["x"]
        if self.has_bias:
            grads[(self.lid, "b")] += grad_y.sum(axis=0)
        return grad_y @ self.w

    def out_shape(self, shape):
        return (self.c_out,)

    def spec(self):
        return {"type": self.type_name, "c_in": self.c_in, "c_out": self.c_out,
                "bias": self.has_bias}

    @classmethod
    def from_spec(cls, d):
        return cls(d["c_in"], d["c_out"], d["bias"])


class QLinear(Layer):
    """Quaternion fully-connected layer: each output is a sum of Hamilton
    products of a quaternion weight with a quaternion input, plus a
    quaternion bias.  Weight banks are (4, q_out, q_in); input (N, 4, q_in).
    It runs as one real matmul with the Hamilton-expanded
    (4*q_out, 4*q_in) weight; backward folds that weight's gradient back
    onto the banks.
    """

    type_name = "qlinear"

    def __init__(self, q_in, q_out, bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.q_in, self.q_out = int(q_in), int(q_out)
        self.has_bias = bool(bias)
        self.weights = np.zeros((4, q_out, q_in), dtype=dtype)
        self.bias = np.zeros((4, q_out), dtype=dtype) if bias else None

    def params(self):
        out = [("weights", self.weights)]
        if self.has_bias:
            out.append(("bias", self.bias))
        return out

    def init_params(self, rng):
        scale = 1.0 / np.sqrt(4 * self.q_in)
        self.weights = rng.uniform(-scale, scale, self.weights.shape).astype(
            self.weights.dtype
        )
        if self.has_bias:
            self.bias = np.zeros_like(self.bias)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        squeezed = False
        if x.ndim == 5 and x.shape[-2:] == (1, 1):  # pooled feature maps
            x = x.reshape(x.shape[:3])
            squeezed = True
        if x.ndim != 3 or x.shape[1] != 4 or x.shape[2] != self.q_in:
            raise ShapeError(f"qlinear expects (N, 4, {self.q_in}), got {x.shape}")
        n = x.shape[0]
        x2 = x.reshape(n, 4 * self.q_in)
        wr = hamilton_expand(self.weights)
        y = x2 @ wr.T
        if self.has_bias:
            y = y + self.bias.reshape(-1)
        ctx = {"x2": x2, "w": wr, "squeezed": squeezed} if record else None
        return y.reshape(n, 4, self.q_out), ctx

    def backward(self, grad_y, ctx, grads):
        n = grad_y.shape[0]
        g2 = grad_y.reshape(n, 4 * self.q_out)
        grads[(self.lid, "weights")] += hamilton_fold(g2.T @ ctx["x2"])
        if self.has_bias:
            grads[(self.lid, "bias")] += g2.sum(axis=0).reshape(4, self.q_out)
        gx = (g2 @ ctx["w"]).reshape(n, 4, self.q_in)
        if ctx["squeezed"]:
            gx = gx.reshape(gx.shape + (1, 1))
        return gx

    def out_shape(self, shape):
        if len(shape) == 3 and shape[1:] != (1, 1):
            raise ShapeError("qlinear needs pooled (C, 1, 1) or flat input")
        return (4 * self.q_out,)

    def spec(self):
        return {"type": self.type_name, "q_in": self.q_in, "q_out": self.q_out,
                "bias": self.has_bias}

    @classmethod
    def from_spec(cls, d):
        return cls(d["q_in"], d["q_out"], d["bias"])


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
    """A Conv2d or QConv2d on its expanded weight, with a directly following
    eval-mode BN folded into the weight rows and bias (w*s, (b-mu)*s+beta,
    s = gamma/sqrt(var+eps)) and a following ReLU applied in place."""

    def __init__(self, conv, bn, relu):
        quaternion = isinstance(conv, QConv2d)
        w = hamilton_expand(conv.weights) if quaternion else conv.w
        bias = conv.bias if quaternion else conv.b
        o, c, kh, kw = w.shape
        b = np.zeros(o, w.dtype) if bias is None else bias.reshape(-1).copy()
        s = np.ones(o, w.dtype)
        if bn is not None:
            if bn.gamma.size != o:
                raise ShapeError(f"batchnorm of {bn.gamma.size} channels after "
                                 f"a conv of {o}")
            s = bn.gamma.reshape(-1) / np.sqrt(bn.running_var.reshape(-1) + bn.eps)
            b = (b - bn.running_mean.reshape(-1)) * s + bn.beta.reshape(-1)
        wk = w.transpose(0, 2, 3, 1).reshape(o, -1) * s[:, None]
        # (O, C, kh, kw) over (O, kh, kw, C) memory, as _conv_forward reads it
        self.w = _read_only(wk.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
        self.b = _read_only(b)
        self.stride, self.padding, self.relu = conv.stride, conv.padding, relu
        self.planes = (4, o // 4) if quaternion else (o,)

    def forward(self, x, **_):
        n = x.shape[0]
        x2 = x.reshape(n, -1, *x.shape[-2:])
        if x2.shape[1] != self.w.shape[1]:
            raise ShapeError(f"conv expects {self.w.shape[1]} real input "
                             f"channels, got {x.shape}")
        y, _ = _conv_forward(x2, self.w, self.b, self.stride, self.padding)
        if self.relu:
            np.maximum(y, 0, out=y)
        return y.reshape(n, *self.planes, *y.shape[2:]), None


class _FrozenQLinear:
    """A QLinear on its expanded weight."""

    def __init__(self, layer):
        self.q_in, self.q_out = layer.q_in, layer.q_out
        self.w = _read_only(hamilton_expand(layer.weights).T)
        b = layer.bias if layer.has_bias else np.zeros((4, layer.q_out), self.w.dtype)
        self.b = _read_only(b.reshape(-1).copy())

    def forward(self, x, **_):
        if x.shape[1:] not in ((4, self.q_in), (4, self.q_in, 1, 1)):
            raise ShapeError(f"qlinear expects (N, 4, {self.q_in}), got {x.shape}")
        y = x.reshape(x.shape[0], -1) @ self.w + self.b
        return y.reshape(x.shape[0], 4, self.q_out), None


def _freeze_stack(layers):
    frozen, rest = [], list(layers)
    while rest:
        layer = rest.pop(0)
        if isinstance(layer, (Conv2d, QConv2d)):
            bn_type = QBatchNorm2d if isinstance(layer, QConv2d) else BatchNorm2d
            bn = rest.pop(0) if rest and isinstance(rest[0], bn_type) else None
            relu = bool(rest) and isinstance(rest[0], ReLU)
            if relu:
                rest.pop(0)
            frozen.append(_FrozenConv(layer, bn, relu))
        elif isinstance(layer, QLinear):
            frozen.append(_FrozenQLinear(layer))
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
    model.layer_shapes()  # the described layers must chain
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
