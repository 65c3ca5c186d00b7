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

Each layer class declares its constructor arguments once, as ``widths``,
the attributes holding its channel counts, and ``fields``, the arguments
that follow them.  ``spec()`` and ``from_spec()`` read the two lists, and
so do the conversion to a quaternion model (which divides each width of
the real spec by 4), MAC counting and pruning surgery, which passes pruned
channels through any layer without widths.

A conv skips the kernel taps that only read padding (``_live_taps``), so
expansion, weight gradient and fold cover the live taps alone; a dead
tap's gradient stays 0.0.  ``freeze`` expands each weight whole, once.

A model's store lays each array out as its layer declares (``order``): a
conv weight with its input channels innermost, as the GEMMs, expansion and
fold read it, and every other array in C order.  Gradients and Adam's
moments share that layout; shapes and checkpoint bytes do not change.

Every conv runs one forward, whose GEMM layout follows the mode: a
train-mode map views channel-major (C, N, H, W) memory, which train-mode
batch norm reads fastest and sums most accurately, and an eval-mode map,
layer-wise or in a ``freeze`` snapshot of ordinary layers, channels-last.
Every backward hands its input gradient on in the memory layout of its
forward input (``_order``), so in training each map's gradient stays
channel-major and BN, ReLU and the residual add run on one layout: a conv
scatters channels-last, then makes one transposing copy, and a pool
allocates its gradient in the layout it recorded.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import struct

import numpy as np

from ._files import _write
from .exceptions import (
    ConfigError,
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


@functools.lru_cache(maxsize=None)
def _live_taps(h, w, kh, kw, stride, padding):
    """(oh, ow, ta, tb): per axis, the slice spanning the kernel taps a
    whose input index o*stride + a - padding lands in the map for some
    output o.  Every conv skips the other taps, which only read padding."""
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)

    def live(size, k, out):
        taps = [a for a in range(k) if max(0, -((a - padding) // stride))
                <= min(out - 1, (size - 1 + padding - a) // stride)]
        return slice(min(taps, default=0), max(taps, default=-1) + 1)

    return oh, ow, live(h, kh, oh), live(w, kw, ow)


def _order(a):  # a map's layout: its axes, outermost in memory first
    return tuple(sorted(range(a.ndim), key=lambda i: -a.strides[i]))


# the axes that undo the transpose to a layout (order a tuple)
_inverse = functools.lru_cache(maxsize=None)(lambda order: tuple(np.argsort(order)))


def _in_order(a, order):  # a itself if so laid out, else one transposing copy
    return np.ascontiguousarray(a.transpose(order)).transpose(_inverse(order))


def _laid_out(flat, shape, order):  # flat as an array of shape, laid out as order says
    return flat.reshape([shape[i] for i in order]).transpose(_inverse(order))


def _zeros(shape, dtype, order):  # zeros of shape, laid out as order says
    return _laid_out(np.zeros(math.prod(shape), dtype), shape, order)


def _im2col(x, kh, kw, stride, padding):
    """(rows, oh, ow): the patches of x (N, C, H, W) over the live
    taps as the (N*OH*OW, taps*C) row matrix of a GEMM.  x is copied once
    into a zero-padded channels-last buffer, so rows gather C-long runs."""
    n, c, h, w = x.shape
    oh, ow, ta, tb = _live_taps(h, w, kh, kw, stride, padding)
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp[:, ta.start :, tb.start :],
        shape=(n, oh, ow, ta.stop - ta.start, tb.stop - tb.start, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False,
    )
    return windows.reshape(n * oh * ow, -1), oh, ow


def _col2im(grad_taps, x_shape, kh, kw, stride, padding):
    """Scatter-add the row gradients (taps, N*OH*OW, C) of the live taps
    back to a gradient of shape x_shape: one slice-add per tap into a
    zero-padded channels-last buffer."""
    n, c, h, w = x_shape
    oh, ow, ta, tb = _live_taps(h, w, kh, kw, stride, padding)
    taps_a, taps_b = range(kh)[ta], range(kw)[tb]
    g = grad_taps.reshape(len(taps_a), len(taps_b), n, oh, ow, c)
    gx = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=grad_taps.dtype)
    for i, a in enumerate(taps_a):
        for j, b in enumerate(taps_b):
            gx[:, a : a + stride * oh : stride, b : b + stride * ow : stride] += g[i, j]
    return gx[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


# Row block of the eval-mode conv GEMM.  One call over all N*OH*OW rows
# (32768 for qcnn-mini's first conv at batch 64) leaves about 12 MB more of
# OpenBLAS's pack buffers resident; blocks of 2048 rows run as fast.
_EVAL_GEMM_ROWS = 2048


def _conv_forward(x, w, b, kernel, stride, padding, mode):
    """Real cross-correlation of x (N, C, H, W) with an (O, C, *kernel)
    weight, of which w holds the live taps (O, C, ta, tb), plus an optional
    bias (O,); returns (y, rows), rows being the _im2col row matrix that
    backward needs.  y is an (N, O, OH, OW) view: in train mode of the
    (O, N, OH, OW) product of w as (O, taps*C) with rows.T, in which
    train-mode BN reads each channel as one run; in eval mode of the
    channels-last product rows @ w.T, taken in row blocks."""
    o = w.shape[0]
    rows, oh, ow = _im2col(x, *kernel, stride, padding)
    wk = w.transpose(0, 2, 3, 1).reshape(o, -1)
    if mode == "train":
        y = wk @ rows.T
        if b is not None:
            y += b[:, None]
        return y.reshape(o, x.shape[0], oh, ow).transpose(1, 0, 2, 3), rows
    y = np.empty((rows.shape[0], o), dtype=np.result_type(rows, wk))
    for i in range(0, rows.shape[0], _EVAL_GEMM_ROWS):
        np.matmul(rows[i : i + _EVAL_GEMM_ROWS], wk.T, out=y[i : i + _EVAL_GEMM_ROWS])
    if b is not None:
        y += b
    return y.reshape(x.shape[0], oh, ow, o).transpose(0, 3, 1, 2), rows


def _conv_backward(grad_y, rows, w, kernel, x_shape, stride, padding, input_grad=True):
    """Gradients of _conv_forward; returns (gw, gb, gx), gw over the live
    taps of w only and gx None when input_grad is false."""
    o, c, kh, kw = w.shape  # kh, kw: the live taps
    gm = grad_y.transpose(1, 0, 2, 3).reshape(o, -1)
    gw = (gm @ rows).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    if not input_grad:
        return gw, gm.sum(axis=1), None
    # one (N*OH*OW, C) product per live tap keeps each col2im run C*OW long
    w_taps = w.transpose(2, 3, 0, 1).reshape(-1, o, c)
    gx = _col2im(gm.T @ w_taps, x_shape, *kernel, stride, padding)
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
            put = np.positive if sign > 0 else np.negative
            put(banks[comp], out=w[o, ..., o_in, :])
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
            add = np.add if sign > 0 else np.subtract
            add(banks[comp], g[o, ..., o_in, :], out=banks[comp])
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
    widths = ()  # attributes holding its channel counts
    fields = ()  # the constructor arguments after the widths, in order

    def __init__(self):
        self.lid = -1  # assigned by ModelGraph

    def params(self):
        """Ordered (name, array) pairs of learned parameters."""
        return []

    def buffers(self):
        """Ordered (name, array) pairs of non-learned state (e.g. BN stats)."""
        return []

    def set_array(self, name, arr):
        """Set an array; one of the current shape and dtype is written into
        the current one, so a view of a model's store stays one."""
        cur = getattr(self, name, None)
        if cur is None or (cur.shape, cur.dtype) != (arr.shape, arr.dtype):
            return setattr(self, name, arr)
        cur[...] = arr

    def init_params(self, rng):
        pass

    def order(self, name, ndim):  # array name's layout in the store: C unless declared
        return tuple(range(ndim))

    def forward(self, x, mode="eval", record=False, update_stats=True):
        raise NotImplementedError

    def backward(self, grad_y, ctx, grads):
        raise NotImplementedError

    def out_shape(self, shape):
        return shape

    def axes(self, c):
        """The channel axes of c real channels in this layer's maps."""
        return (4, c // 4) if self.quaternion else (c,)

    def _set_widths(self, *widths):
        for name, c in zip(self.widths, widths):
            setattr(self, name, int(c))
        if min(getattr(self, name) for name in self.widths) < 1:
            raise ConfigError(f"{self.type_name}: widths {widths} must be at least 1")

    def spec(self):
        """The layer's type and constructor arguments, widths then fields."""
        return {"type": self.type_name,
                **{k: getattr(self, k) for k in self.widths + self.fields}}

    @classmethod
    def from_spec(cls, d):
        return cls(*(d[k] for k in cls.widths + cls.fields))

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.spec().items() if k != "type")
        return f"{self.__class__.__name__}({items})"


class _Weighted(Layer):
    """The weight (c_out, c_in, *kernel) and optional bias (c_out,) of
    Conv2d and Linear.  Their bodies read the weight through real_weight()
    and real_bias() and route its gradients through fold(), so that
    _HamiltonTie can swap in quaternion banks.  A conv passes real_weight()
    and _add_grads() its live kernel taps, a pair of slices."""

    widths = ("c_in", "c_out")
    fields = ("bias",)
    kernel = ()  # a Linear's; Conv2d sets its (kh, kw)

    def _init_weight(self, c_in, c_out, bias, dtype, kernel=()):
        self._set_widths(c_in, c_out)
        self.has_bias = bool(bias)
        self.w = np.zeros((self.c_out, self.c_in, *kernel), dtype=dtype)
        self.b = np.zeros(self.c_out, dtype=dtype) if bias else None

    def params(self):
        return [("w", self.w)] + ([("b", self.b)] if self.has_bias else [])

    def real_weight(self, taps=()):
        return self.w[(..., *taps)]

    def order(self, name, ndim):  # the weight's input channels innermost, as GEMMs read them
        c = ndim - 1 - len(self.kernel) if name == self.params()[0][0] else ndim - 1
        return (*range(c), *range(c + 1, ndim), c)

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

    def _add_grads(self, grads, gw, gb, taps=()):
        # zip stops at the weight when there is no bias
        for (name, _), g, at in zip(self.params(), self.fold(gw, gb),
                                    ((..., *taps), ...)):
            grads[(self.lid, name)][at] += g

    def spec(self):
        # the key bias is the has_bias flag (on QConv2d, .bias is the
        # array), and the kernel is written as a list
        special = {"bias": self.has_bias, "kernel": list(self.kernel)}
        return {"type": self.type_name,
                **{k: special[k] if k in special else getattr(self, k)
                   for k in self.widths + self.fields}}


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
        self._set_widths(q_in, q_out)
        self.has_bias = bool(bias)
        self.weights = np.zeros((4, self.q_out, self.q_in, *kernel), dtype=dtype)
        self.bias = np.zeros((4, self.q_out), dtype=dtype) if bias else None

    def params(self):
        return [("weights", self.weights)] + ([("bias", self.bias)] if self.has_bias else [])

    def real_weight(self, taps=()):
        return hamilton_expand(self.weights[(..., *taps)] if taps else self.weights)

    def real_bias(self):
        return self.bias.reshape(-1) if self.has_bias else None

    def fold(self, gw, gb):
        return hamilton_fold(gw), gb.reshape(4, self.q_out)


class Conv2d(_Weighted):
    """Real 2D cross-correlation with optional bias."""

    type_name = "conv2d"
    fields = ("kernel", "stride", "padding", "bias")

    def __init__(self, c_in, c_out, kernel=(3, 3), stride=1, padding=0,
                 bias=True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self.stride, self.padding = int(stride), int(padding)
        if min(self.kernel) < 1 or self.stride < 1 or self.padding < 0:
            raise ConfigError(f"{self.type_name}: kernel {self.kernel} and stride "
                              f"{self.stride} must be at least 1, padding "
                              f"{self.padding} at least 0")
        self._init_weight(c_in, c_out, bias, dtype, self.kernel)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.shape[1:-2] != self.axes(self.c_in):
            raise ShapeError(f"{self.type_name} expects channel axes "
                             f"{self.axes(self.c_in)}, got input {x.shape}")
        n = x.shape[0]
        *_, ta, tb = _live_taps(*x.shape[-2:], *self.kernel, self.stride, self.padding)
        w = self.real_weight((ta, tb))
        y, rows = _conv_forward(x.reshape(n, self.c_in, *x.shape[-2:]), w,
                                self.real_bias(), self.kernel, self.stride,
                                self.padding, mode)
        ctx = ({"rows": rows, "w": w, "taps": (ta, tb), "x_shape": x.shape,
                "order": _order(x)} if record else None)
        return y.reshape(n, *self.axes(self.c_out), *y.shape[-2:]), ctx

    def backward(self, grad_y, ctx, grads):
        n, x_shape = grad_y.shape[0], ctx["x_shape"]
        gw, gb, gx = _conv_backward(
            grad_y.reshape(n, self.c_out, *grad_y.shape[-2:]), ctx["rows"],
            ctx["w"], self.kernel, (n, self.c_in, *x_shape[-2:]), self.stride,
            self.padding, ctx.get("input_grad", True))
        self._add_grads(grads, gw, gb, ctx["taps"])
        return None if gx is None else _in_order(gx.reshape(x_shape), ctx["order"])

    def out_shape(self, shape):
        c, h, w = shape
        if c != self.c_in:
            raise ShapeError(f"layer expects {self.c_in} real channels, got {c}")
        oh, ow = conv_output_hw(h, w, *self.kernel, self.stride, self.padding)
        return (self.c_out, oh, ow)


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
    fields = ("eps", "momentum")

    def __init__(self, channels, eps=1e-5, momentum=0.9, dtype=DEFAULT_DTYPE):
        super().__init__()
        self._set_widths(channels)
        self.eps, self.momentum = float(eps), float(momentum)
        if not (self.eps > 0 and 0 <= self.momentum <= 1):
            raise ConfigError(f"{self.type_name}: eps {self.eps} must be positive "
                              f"and momentum {self.momentum} in [0, 1]")
        shape = self.axes(self.channels)
        self.gamma = np.ones(shape, dtype=dtype)
        self.beta = np.zeros(shape, dtype=dtype)
        self.running_mean = np.zeros(shape, dtype=dtype)
        self.running_var = np.ones(shape, dtype=dtype)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def init_params(self, rng):
        for arr, value in ((self.gamma, 1), (self.beta, 0),
                           (self.running_mean, 0), (self.running_var, 1)):
            arr.fill(value)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        if x.shape[1:-2] != self.axes(self.channels):
            raise ShapeError(f"{self.type_name} expects channel axes "
                             f"{self.axes(self.channels)}, got input {x.shape}")
        x2 = x.reshape(x.shape[0], self.channels, *x.shape[-2:])
        rmean, rvar = self.running_mean.reshape(-1), self.running_var.reshape(-1)
        if mode == "train":
            mu = x2.mean(axis=(0, 2, 3))
            d = x2 - mu[None, :, None, None]
            # numpy's var (in its arithmetic) of the map centred once
            var = np.square(d).sum(axis=(0, 2, 3))
            np.true_divide(var, np.intp(d.size // self.channels), out=var,
                           casting="unsafe")
            if update_stats:
                rmean *= self.momentum
                rmean += (1.0 - self.momentum) * mu
                rvar *= self.momentum
                rvar += (1.0 - self.momentum) * var
        else:
            mu, var = rmean, rvar
        inv = 1.0 / np.sqrt(var + self.eps)
        gamma, beta = self.gamma.reshape(-1), self.beta.reshape(-1)
        if mode == "train":
            xhat = np.multiply(d, inv[None, :, None, None], out=d)
            y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        else:
            if record:
                xhat = (x2 - mu[None, :, None, None]) * inv[None, :, None, None]
            # fixed statistics fold into one scale and shift per channel
            scale = gamma * inv
            y = x2 * scale[None, :, None, None] + (beta - mu * scale)[None, :, None, None]
        ctx = {"xhat": xhat, "inv": inv, "mode": mode} if record else None
        return y.reshape(x.shape), ctx

    def backward(self, grad_y, ctx, grads):
        g = grad_y.reshape(grad_y.shape[0], self.channels, *grad_y.shape[-2:])
        xhat, inv = ctx["xhat"], ctx["inv"]
        t = g * xhat
        dgamma = t.sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        scale = (self.gamma.reshape(-1) * inv)[None, :, None, None]
        if ctx["mode"] == "train":
            # scale / m * (m * g - dbeta - xhat * dgamma), in place
            m = g.shape[0] * g.shape[2] * g.shape[3]
            gx = m * g
            gx -= dbeta[None, :, None, None]
            gx -= np.multiply(xhat, dgamma[None, :, None, None], out=t)
            gx *= scale / m
        else:
            gx = g * scale
        grads[(self.lid, "gamma")] += dgamma.reshape(self.gamma.shape)
        grads[(self.lid, "beta")] += dbeta.reshape(self.beta.shape)
        return gx.reshape(grad_y.shape)

    def out_shape(self, shape):
        if shape[0] != self.channels:
            raise ShapeError(f"layer expects {self.channels} real channels, got {shape[0]}")
        return shape


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


class _Pool2d(Layer):
    """A square window pooled per plane over the trailing two axes."""

    fields = ("window", "stride")

    def __init__(self, window=2, stride=None):
        super().__init__()
        self.window = int(window)
        self.stride = int(stride) if stride is not None else self.window
        if self.window < 1 or self.stride < 1:
            raise ConfigError(f"{self.type_name}: window {self.window} and "
                              f"stride {self.stride} must be at least 1")

    def out_shape(self, shape):
        c, h, w = shape
        if self.window > h or self.window > w:
            raise ShapeError(f"pool window {self.window} larger than input ({h}x{w})")
        return (c, (h - self.window) // self.stride + 1,
                (w - self.window) // self.stride + 1)

    def _taps(self, x_shape):
        """(oh, ow, taps): the pooled size of an input of x_shape and, for
        each window tap in row-major order, its strided index into x."""
        _, oh, ow = self.out_shape((0, *x_shape[-2:]))
        s = self.stride
        return oh, ow, [(..., slice(a, a + s * oh, s), slice(b, b + s * ow, s))
                        for a in range(self.window) for b in range(self.window)]


class MaxPool2d(_Pool2d):
    """Per-plane spatial max pooling; of tied taps the first in row-major
    order takes the gradient."""

    type_name = "maxpool2d"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        _, _, (first, *rest) = self._taps(x.shape)
        y = x[first].copy(order="K")  # in x's memory order, as AvgPool2d's
        arg = np.zeros_like(y, dtype=np.intp)
        for k, tap in enumerate(rest, start=1):
            wins = x[tap] > y
            np.copyto(y, x[tap], where=wins)
            arg[wins] = k
        ctx = {"arg": arg, "x_shape": x.shape, "order": _order(x)} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        *_, taps = self._taps(ctx["x_shape"])
        gx = _zeros(ctx["x_shape"], grad_y.dtype, ctx["order"])
        for k, tap in enumerate(taps):
            gx[tap] += np.where(ctx["arg"] == k, grad_y, 0)
        return gx


class AvgPool2d(_Pool2d):
    """Per-plane spatial average pooling."""

    type_name = "avgpool2d"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        oh, ow, taps = self._taps(x.shape)
        # in x's memory order, so that no add mixes two layouts
        y = np.zeros_like(x[..., :oh, :ow])
        for tap in taps:
            y += x[tap]
        y /= self.window * self.window
        ctx = {"x_shape": x.shape, "order": _order(x)} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        g = grad_y / (self.window * self.window)
        gx = _zeros(ctx["x_shape"], grad_y.dtype, ctx["order"])
        *_, taps = self._taps(gx.shape)
        for tap in taps:
            gx[tap] += g
        return gx


class GlobalAvgPool2d(Layer):
    """Average over all spatial positions, keeping 1x1 spatial dims."""

    type_name = "globalavgpool2d"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        y = x.mean(axis=(-2, -1), keepdims=True).astype(x.dtype, copy=False)
        ctx = {"hw": x.shape[-2:]} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        h, w = ctx["hw"]
        return np.broadcast_to(grad_y / (h * w), grad_y.shape[:-2] + (h, w))

    def out_shape(self, shape):
        c, _, _ = shape
        return (c, 1, 1)


class Flatten(Layer):
    """Collapse everything after the batch axis.  Quaternion maps flatten
    plane-major: all R channels, then I, J, K."""

    type_name = "flatten"

    def forward(self, x, mode="eval", record=False, update_stats=True):
        y = x.reshape(x.shape[0], -1)
        ctx = {"x_shape": x.shape, "order": _order(x)} if record else None
        return y, ctx

    def backward(self, grad_y, ctx, grads):
        # in the layout of the map, which the flat rows may have copied
        return _in_order(grad_y.reshape(ctx["x_shape"]), ctx["order"])

    def out_shape(self, shape):
        n = 1
        for d in shape:
            n *= d
        return (n,)


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
        return _in_order(g @ ctx["w"], _order(ctx["x"])).reshape(ctx["x_shape"])

    def out_shape(self, shape):
        if tuple(shape) not in ((self.c_in,), (self.c_in, 1, 1)):
            raise ShapeError(f"{self.type_name} expects {self.c_in} features, flat "
                             f"or pooled to 1x1; got {tuple(shape)}")
        return (self.c_out,)


class QLinear(_HamiltonTie, Linear):
    """Quaternion fully-connected layer: each output is a sum of Hamilton
    products of a quaternion weight with a quaternion input, plus a
    quaternion bias; Linear on the (N, 4*q_in) view of its (N, 4, q_in)
    input, with the weight tied (see _HamiltonTie)."""

    type_name = "qlinear"
    forward, backward = Linear.forward, Linear.backward

    def __init__(self, q_in, q_out, bias=True, dtype=DEFAULT_DTYPE):
        super().__init__(q_in, q_out, bias, dtype)


def _run_layers(layers, x, mode="eval", record=False, update_stats=True):
    """The one forward loop over a layer stack, be it a model's, a residual
    interior or a frozen snapshot: returns (y, records), records holding
    the (layer, ctx) pairs _backprop_layers reads when record is true."""
    records = []
    for layer in layers:
        x, ctx = layer.forward(x, mode=mode, record=record, update_stats=update_stats)
        if record:
            records.append((layer, ctx))
    return x, records


def _backprop_layers(records, g, grads, input_grad=True):
    """The one backward loop: g through the recorded stack in reverse,
    adding each layer's parameter gradients into grads.  Without
    input_grad the first layer is told that nothing reads its input
    gradient, which a conv then does not compute."""
    for k, (layer, ctx) in reversed(list(enumerate(records))):
        g = layer.backward(g, ctx if k or input_grad else {**ctx, "input_grad": False},
                           grads)
    return g


class ResidualBlock(Layer):
    """y = relu(x + inner(x)) for a shape-preserving inner layer stack."""

    type_name = "residual"

    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x, mode="eval", record=False, update_stats=True):
        h, inner = _run_layers(self.layers, x, mode, record, update_stats)
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
        return g + _backprop_layers(ctx["inner"], g, grads)

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

def _walk(layers):
    for layer in layers:
        yield layer
        if isinstance(layer, ResidualBlock):
            yield from _walk(layer.layers)


class Slots(dict):
    """(lid, name) -> a view of ``flat``, one array per dtype laid out as
    ``layout`` says (see ``ModelGraph``): zeros, or a copy of ``values``."""

    def __init__(self, layout, values=None):
        ends = {dt: start + math.prod(shape) for _, dt, start, shape, _ in layout}
        self.layout, self.flat = layout, {dt: np.zeros(n, dt) for dt, n in ends.items()}
        for key, dt, start, shape, order in layout:
            self[key] = _laid_out(self.flat[dt][start : start + math.prod(shape)], shape, order)
            if values is not None:
                if np.shape(values[key]) != shape:
                    raise ShapeError(f"{key}: shape {np.shape(values[key])} != {shape}")
                self[key][...] = values[key]


class ModelGraph:
    """An ordered stack of layers with shape metadata.

    ``input_shape`` is always expressed in real-channel terms (C, H, W); a
    quaternion model consumes it as (4, C/4, H, W) plane-stacked input.
    ``prunable`` holds the default target layer indices for filter pruning.

    ``store`` holds, per dtype, one flat array of every parameter and then
    every buffer of that dtype, each array a view of it in ``Layer.order``;
    ``layout`` lists ((lid, name), dtype, start, shape, order) of parameters.
    ``sync_store`` rebuilds the store once an array was replaced (by
    ``astype``, surgery or a plain attribute assignment).
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
        self._build_store()

    def _assign_ids(self):
        for lid, layer in enumerate(self.walk()):
            layer.lid = lid

    def _build_store(self):
        n, arrays = len(self.all_params()), self.all_params() + self.all_buffers()
        ends, layout = {}, []
        for lid, layer, name, arr in arrays:
            layout.append(((lid, name), arr.dtype, ends.get(arr.dtype, 0), arr.shape,
                           layer.order(name, arr.ndim)))
            ends[arr.dtype] = layout[-1][2] + arr.size
        store = Slots(layout, {(lid, name): arr for lid, _, name, arr in arrays})
        for (_, layer, name, _), view in zip(arrays, store.values()):
            setattr(layer, name, view)
        self.store, self._views, self.layout = store.flat, list(store.values()), tuple(layout[:n])

    def sync_store(self):
        """The store, rebuilt first if a layer array was replaced since."""
        arrays = [arr for *_, arr in self.all_params() + self.all_buffers()]
        if list(map(id, arrays)) != list(map(id, self._views)):
            self._build_store()
        return self.store

    def __getstate__(self):
        # a deep or pickled copy copies the layer arrays, then builds its store
        return {**self.__dict__, "store": {}, "_views": []}

    def walk(self):
        """All layers depth-first, entering residual blocks at any depth."""
        return _walk(self.layers)

    def all_params(self):
        """(lid, layer, name, array) for every learned parameter."""
        return [(l.lid, l, name, arr) for l in self.walk() for name, arr in l.params()]

    def all_buffers(self):
        return [(l.lid, l, name, arr) for l in self.walk() for name, arr in l.buffers()]

    def init_params(self, rng):
        for layer in self.walk():
            layer.init_params(rng)
        return self

    def clone(self):
        # the memo shares the source's arrays, so sync_store copies each once
        model = copy.deepcopy(self, {id(a): a for a in self._views})
        model.sync_store()
        return model

    def astype(self, dtype):
        """Return a copy with all parameters and buffers cast to dtype."""
        m = self.clone()
        for _, layer, name, arr in m.all_params() + m.all_buffers():
            layer.set_array(name, arr.astype(dtype))
        m.sync_store()
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


def _frozen(layer, bn):
    """A real Conv2d or Linear on the channel axes of a conv or linear layer,
    holding read-only copies of its real weight and bias, with the eval-mode
    BN bn, if given, folded into the weight rows and bias (w*s,
    (b-mu)*s+beta, s = gamma/sqrt(var+eps)).  The weight keeps the layout
    of the model's store, input channels innermost, as an _im2col row."""
    w, b = layer.real_weight(), layer.real_bias()
    s = np.ones(layer.c_out, w.dtype)
    if bn is not None:
        if bn.axes(bn.channels) != layer.axes(layer.c_out):
            raise ShapeError(f"batchnorm on channel axes {bn.axes(bn.channels)} "
                             f"after a conv to {layer.axes(layer.c_out)}")
        s = bn.gamma.reshape(-1) / np.sqrt(bn.running_var.reshape(-1) + bn.eps)
        b = ((0 if b is None else b) - bn.running_mean.reshape(-1)) * s + bn.beta.reshape(-1)
    real = Conv2d if isinstance(layer, Conv2d) else Linear
    frozen = real.from_spec({**layer.spec(), "c_in": layer.c_in, "c_out": layer.c_out,
                             "bias": b is not None})
    frozen.quaternion = layer.quaternion
    frozen.w = _read_only(w * s.reshape((-1,) + (1,) * (w.ndim - 1)))
    frozen.b = None if b is None else _read_only(b.copy())
    return frozen


def _freeze_stack(layers):
    frozen, rest = [], list(layers)
    while rest:
        layer = rest.pop(0)
        if isinstance(layer, _Weighted):
            folds = isinstance(layer, Conv2d) and rest and isinstance(rest[0], BatchNorm2d)
            frozen.append(_frozen(layer, rest.pop(0) if folds else None))
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
    reach it.  Its layers are ordinary ones: each conv or linear layer a
    real Conv2d or Linear on read-only copies of its real weight and bias,
    with a directly following BN folded in, and every other layer (ReLU
    included) a private read-only copy.  Each call adds 1 to the model's
    ``forward_count``."""

    def __init__(self, model: ModelGraph):
        self.model = model
        self.layers = tuple(_freeze_stack(model.layers))

    def __call__(self, batch):
        """The logits ``inference(model, batch)`` gives, to float rounding."""
        y, _ = _run_layers(self.layers, batch)
        self.model.forward_count += 1
        return y


def freeze(model: ModelGraph) -> FrozenModel:
    """Expand, fold and copy the model's arrays once; see FrozenModel."""
    return FrozenModel(model)


# ---------------------------------------------------------------------------
# functional forms on QTensor / arrays
# ---------------------------------------------------------------------------

def _on_planes(layer, x, **kwargs):
    """The layer's forward of plane-stacked batched input, or of a QTensor."""
    if isinstance(x, QTensor):
        return QTensor(layer.forward(x.data[None], **kwargs)[0][0])
    return layer.forward(np.asarray(x), **kwargs)[0]


def _item_or_batch(layer, x, rank):
    """The layer's forward of a batch x, or of one item x of the given rank."""
    arr = np.asarray(x)
    y, _ = layer.forward(arr[None] if arr.ndim == rank else arr)
    return y[0] if arr.ndim == rank else y


def real_conv2d(layer: Conv2d, x):
    """Apply a real convolution layer to (N, C, H, W) or (C, H, W) input."""
    return _item_or_batch(layer, x, 3)


def qconv2d(layer: QConv2d, x):
    """Apply a quaternion convolution layer to a QTensor or batched planes."""
    return _on_planes(layer, x)


def split_activation(x, kind="relu"):
    """Apply a real activation independently to each quaternion plane."""
    if kind != "relu":
        raise ValueError(f"unsupported activation {kind!r}")
    return _on_planes(ReLU(), x)


def split_batchnorm(x, state: QBatchNorm2d, mode="train"):
    """Normalize each plane with its own statistics held in ``state``."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    return _on_planes(state, x, mode=mode)


def split_pool(x, kind, window, stride=None):
    """Pool each plane independently; kind is 'max' or 'avg'."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unsupported pool kind {kind!r}")
    return _on_planes((MaxPool2d if kind == "max" else AvgPool2d)(window, stride), x)


def qlinear(layer: QLinear, x):
    """Apply a quaternion fully-connected layer to (N, 4, q_in) or (4, q_in)."""
    return _item_or_batch(layer, x, 2)


# ---------------------------------------------------------------------------
# real -> quaternion architecture conversion
# ---------------------------------------------------------------------------

def convert_architecture(real_model: ModelGraph, seed=0) -> ModelGraph:
    """Build the quaternion equivalent of a real convolutional model.

    Each layer with widths becomes its quaternion twin ``"q" + type_name``
    on the same spec with every width C divided into C/4 quaternion
    channels; the final classifier stays a real linear layer over the
    flattened planes, and a layer without widths is rebuilt as it is.
    Weights are freshly initialized (the conversion is architectural).
    """
    if real_model.quaternion:
        raise ConversionError("model is already quaternion-valued")
    if real_model.input_shape[0] % 4:
        raise ConversionError(
            f"input channel count {real_model.input_shape[0]} not divisible by 4"
        )
    head = max((i for i, l in enumerate(real_model.layers) if isinstance(l, Linear)),
               default=None)

    def convert_layer(layer, label, is_head=False):
        if layer.quaternion:
            raise ConversionError(f"layer {label}: {layer.type_name} is already quaternion")
        if type(layer) not in LAYER_TYPES.values():
            raise ConversionError(f"layer {label}: cannot convert {layer.type_name}")
        if isinstance(layer, ResidualBlock):
            return ResidualBlock([convert_layer(inner, f"{label}.{k}")
                                  for k, inner in enumerate(layer.layers)])
        spec = layer.spec()
        if not layer.widths or is_head:
            return build_layer(spec)
        widths = [spec[k] for k in layer.widths]
        if any(c % 4 for c in widths):
            raise ConversionError(
                f"layer {label} ({layer.type_name} {'->'.join(map(str, widths))}): "
                "channel counts not divisible by 4")
        twin = LAYER_TYPES["q" + layer.type_name]
        return twin.from_spec({**spec, **{k: c // 4 for k, c in zip(twin.widths, widths)}})

    layers = [convert_layer(l, str(i), i == head) for i, l in enumerate(real_model.layers)]
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
    return [(layer, name, arr) for layer in model.walk()
            for name, arr in layer.params() + layer.buffers()]


def save_checkpoint(model: ModelGraph, path, optimizer=None):
    """Write a model (and optionally optimizer state) to a QPRS file."""
    dtypes = sorted({arr.dtype.name for *_, arr in _payload_arrays(model)} - {"float32"})
    if dtypes:
        raise ConfigError(f"a QPRS checkpoint holds float32 arrays only; the model "
                          f"has {', '.join(dtypes)} arrays (cast it with astype)")
    header = {
        "format": CHECKPOINT_VERSION,
        "plane_order": "RIJK",
        "model": model.describe(),
        "payload": [
            {"lid": layer.lid, "name": name, "shape": list(arr.shape)}
            for layer, name, arr in _payload_arrays(model)
        ],
        "optimizer": None if optimizer is None else optimizer.state_meta(),
    }
    arrays = [arr for *_, arr in _payload_arrays(model)]
    arrays += [] if optimizer is None else optimizer.state_arrays()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    head = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)) + blob
    _write(path, itertools.chain([head], (np.ascontiguousarray(arr, dtype="<f4")
                                          for arr in arrays)))


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
    except (ValueError, KeyError, IndexError, TypeError, AttributeError,
            OverflowError) as exc:
        raise FormatError(
            f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})"
        ) from None


def _min_payload_bytes(specs):
    """A lower bound of the payload bytes of the layers specs describe:
    4 * prod(widths) * prod(kernel) per layer with widths, negatives as 0."""
    total = 0
    for spec in specs:
        cls = LAYER_TYPES.get(spec["type"])
        if cls is ResidualBlock:
            total += _min_payload_bytes(spec["layers"])
        elif cls is not None and cls.widths:
            dims = [spec[k] for k in cls.widths] + list(spec.get("kernel", ()))
            total += 4 * math.prod(max(0, int(d)) for d in dims)
    return total


def _read_checkpoint(raw, offset, path):
    header = json.loads(raw[16:offset].decode("utf-8"))
    # before any layer allocates what the header's widths ask for
    if _min_payload_bytes(header["model"]["layers"]) > len(raw) - offset:
        raise TruncationError(f"{path}: the described layers need more bytes "
                              f"than the {len(raw) - offset} the payload has")
    model = ModelGraph.from_description(header["model"])
    if model.task not in ("single", "multi"):
        raise FormatError(f"{path}: unknown task {model.task!r}")
    # the described layers must chain, into one logit per class
    if model.layer_shapes()[-1:] != [(model.num_classes,)]:
        raise FormatError(f"{path}: the layers do not end in "
                          f"{model.num_classes} class logits")
    arrays = _payload_arrays(model)
    expected = [{"lid": layer.lid, "name": name, "shape": list(arr.shape)}
                for layer, name, arr in arrays]
    if header["payload"] != expected:
        raise FormatError(f"{path}: payload table does not match the model")
    for _, name, arr in arrays:
        nbytes = 4 * arr.size
        if offset + nbytes > len(raw):
            raise TruncationError(f"{path}: payload ends before {name}")
        arr[...] = np.frombuffer(raw[offset : offset + nbytes], dtype="<f4").reshape(arr.shape)
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
