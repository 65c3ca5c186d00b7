"""Layer tests against nested-loop and block-matrix materialization oracles."""

import numpy as np
import pytest
from conftest import toy_nested_residual_model

from qprune.exceptions import ConfigError, ConversionError, ShapeError
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
    _live_taps,
    convert_architecture,
    hamilton_expand,
    hamilton_fold,
    qconv2d,
    qlinear,
    real_conv2d,
    split_activation,
    split_batchnorm,
    split_pool,
)
from qprune.quaternion import QTensor


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def loop_conv2d(x, w, bias, stride, pad):
    """Direct nested-loop cross-correlation: the ground truth for conv."""
    n, c_in, h, win = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (win + 2 * pad - kw) // stride + 1
    y = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for b in range(n):
        for d in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh,
                               j * stride : j * stride + kw]
                    y[b, d, i, j] = np.sum(patch * w[d])
            if bias is not None:
                y[b, d] += bias[d]
    return y


def materialize_block_weight(weights):
    """Expand quaternion banks (4, q_out, q_in, kh, kw) to the real
    (4*q_out, 4*q_in, kh, kw) kernel with the quaternion sign pattern.

    The sign/component pattern is written out explicitly here so the test
    does not share tables with the implementation.
    """
    wr, wi, wj, wk = weights
    rows = [
        [wr, -wi, -wj, -wk],
        [wi, wr, -wk, wj],
        [wj, wk, wr, -wi],
        [wk, -wj, wi, wr],
    ]
    return np.concatenate(
        [np.concatenate(row, axis=1) for row in rows], axis=0
    )


def quaternion_bias_to_real(bias):
    return bias.reshape(-1)  # (4, q_out) plane-major -> (4*q_out,)


# ---------------------------------------------------------------------------
# real convolution
# ---------------------------------------------------------------------------

# maps the kernel overhangs, where some taps only ever read zero padding
OVERHANG = [((3, 3), 1, 1, (2, 1)), ((3, 3), 1, 1, (1, 1)),
            ((5, 5), 1, 2, (2, 2)), ((3, 3), 2, 2, (3, 3))]


def conv_cases(hw, cases):
    """(kernel, stride, pad) cases on an hw input, then the OVERHANG cases,
    as parametrize values; the cases on hw keep their former ids."""
    return [pytest.param(k, s, p, size, id=f"kernel{i}-{s}-{p}"
                         + ("" if size == hw else "-on{}x{}".format(*size)))
            for i, (k, s, p, size) in enumerate([(*c, hw) for c in cases] + OVERHANG)]


class TestConv2d:
    def test_zero_weights(self):
        layer = Conv2d(2, 3, (3, 3), padding=1)
        x = np.random.default_rng(0).normal(size=(2, 2, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(real_conv2d(layer, x), 0)

    def test_identity_kernel(self):
        layer = Conv2d(1, 1, (1, 1), bias=False)
        layer.w = np.ones((1, 1, 1, 1), dtype=np.float32)
        x = np.random.default_rng(1).normal(size=(1, 1, 4, 6)).astype(np.float32)
        np.testing.assert_allclose(real_conv2d(layer, x), x, rtol=1e-6)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_nested_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(2)
        layer = Conv2d(4, 4, (3, 3), stride=stride, padding=pad, dtype=np.float64)
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, 4, 7, 6))
        got = real_conv2d(layer, x)
        want = loop_conv2d(x, layer.w, layer.b, stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-5)

    @pytest.mark.parametrize("kernel,stride,pad,hw", conv_cases((7, 9), [
        ((1, 8), 1, 2), ((4, 4), 3, 0), ((2, 3), 3, 2), ((4, 4), 1, 2), ((2, 3), 2, 0),
    ]))
    def test_kernel_shapes_match_nested_loop_oracle(self, kernel, stride, pad, hw):
        rng = np.random.default_rng(3)
        layer = Conv2d(3, 5, kernel, stride=stride, padding=pad, dtype=np.float64)
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, 3, *hw))
        want = loop_conv2d(x, layer.w, layer.b, stride, pad)
        np.testing.assert_allclose(real_conv2d(layer, x), want, rtol=1e-5)

    @pytest.mark.parametrize("h,w,kernel,stride,pad", [
        (2, 1, (3, 3), 1, 1), (1, 1, (3, 3), 1, 1), (2, 2, (5, 5), 1, 2),
        (3, 3, (3, 3), 2, 2), (7, 9, (2, 3), 3, 2), (1, 1, (1, 1), 10, 5),
        (1, 5, (3, 3), 3, 2), (9, 4, (4, 4), 3, 0),
    ])
    def test_live_taps_are_those_reading_the_map(self, h, w, kernel, stride, pad):
        oh, ow, ta, tb = _live_taps(h, w, *kernel, stride, pad)
        for size, k, out, taps in ((h, kernel[0], oh, ta), (w, kernel[1], ow, tb)):
            live = [a for a in range(k)
                    if any(0 <= o * stride + a - pad < size for o in range(out))]
            assert (taps.start, taps.stop) == ((live[0], live[-1] + 1) if live else (0, 0))

    def test_channel_major_input(self):
        # layer-wise conv outputs are (N, C, H, W) views of (C, N, H, W)
        # arrays, frozen ones of channels-last (N, H, W, C) arrays
        rng = np.random.default_rng(4)
        layer = Conv2d(4, 3, (3, 3), padding=1, dtype=np.float64)
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        for memory, order in (((4, 2, 6, 5), (1, 0, 2, 3)), ((2, 6, 5, 4), (0, 3, 1, 2))):
            x = rng.normal(size=memory).transpose(order)
            assert x.shape == (2, 4, 6, 5) and not x.flags.c_contiguous
            got = real_conv2d(layer, x)
            np.testing.assert_array_equal(got, real_conv2d(layer, np.ascontiguousarray(x)))
            np.testing.assert_allclose(got, loop_conv2d(x, layer.w, layer.b, 1, 1),
                                       rtol=1e-5)

    @pytest.mark.parametrize("kernel,stride,pad,hw", conv_cases((6, 9), [
        ((3, 3), 1, 1), ((2, 3), 3, 2), ((4, 4), 2, 0), ((1, 8), 1, 2),
    ]))
    def test_backward_matches_loop_central_difference(self, kernel, stride, pad, hw):
        # loss = sum(G * conv(x, w)): its gradients by central differences
        # of the nested-loop oracle, against Conv2d.backward
        rng = np.random.default_rng(5)
        layer = Conv2d(3, 4, kernel, stride=stride, padding=pad, dtype=np.float64)
        layer.lid = 0
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, 3, *hw))
        y, ctx = layer.forward(x, record=True)
        g = rng.normal(size=y.shape)
        grads = {(0, "w"): np.zeros_like(layer.w), (0, "b"): np.zeros_like(layer.b)}
        gx = layer.backward(g, ctx, grads)

        def loss(xv, wv):
            return float(np.sum(g * loop_conv2d(xv, wv, layer.b, stride, pad)))

        h = 1e-3
        for arr, analytic, pick in ((x, gx, rng.choice(x.size, min(40, x.size), replace=False)),
                                    (layer.w, grads[(0, "w")],
                                     rng.choice(layer.w.size, 40, replace=False))):
            for flat in pick:
                plus, minus = arr.copy(), arr.copy()
                plus.flat[flat] += h
                minus.flat[flat] -= h
                if arr is x:
                    fd = (loss(plus, layer.w) - loss(minus, layer.w)) / (2 * h)
                else:
                    fd = (loss(x, plus) - loss(x, minus)) / (2 * h)
                assert analytic.flat[flat] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_shape_error(self):
        layer = Conv2d(2, 3, (3, 3))
        with pytest.raises(ShapeError):
            real_conv2d(layer, np.zeros((1, 3, 5, 5)))

    def test_kernel_too_large(self):
        layer = Conv2d(1, 1, (5, 5))
        with pytest.raises(ShapeError):
            real_conv2d(layer, np.zeros((1, 1, 3, 3)))


# ---------------------------------------------------------------------------
# quaternion convolution
# ---------------------------------------------------------------------------

def random_qconv(rng, q_in, q_out, kernel=(3, 3), stride=1, padding=1,
                 dtype=np.float32):
    layer = QConv2d(q_in, q_out, kernel, stride, padding, dtype=dtype)
    layer.weights = rng.normal(size=layer.weights.shape).astype(dtype)
    layer.bias = rng.normal(size=layer.bias.shape).astype(dtype)
    return layer


class TestQConv2d:
    def test_zero_banks(self):
        layer = QConv2d(1, 2, (3, 3), padding=1, bias=False)
        x = np.random.default_rng(0).normal(size=(1, 4, 1, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(qconv2d(layer, x), 0)

    def test_real_unit_filter_is_identity(self):
        layer = QConv2d(1, 1, (1, 1), bias=False)
        layer.weights[0, 0, 0, 0, 0] = 1.0  # F_R = 1, imaginary banks 0
        t = QTensor(np.random.default_rng(3).normal(size=(4, 1, 4, 4)).astype(np.float32))
        out = qconv2d(layer, t)
        np.testing.assert_allclose(out.data, t.data, rtol=1e-6)

    @pytest.mark.parametrize("q_in,q_out,stride,pad", [
        (1, 1, 1, 0), (2, 3, 1, 1), (3, 2, 2, 1),
    ])
    def test_matches_block_matrix_oracle(self, q_in, q_out, stride, pad):
        rng = np.random.default_rng(10 * q_in + q_out)
        layer = random_qconv(rng, q_in, q_out, (3, 3), stride, pad)
        x = rng.normal(size=(2, 4, q_in, 6, 5)).astype(np.float32)
        got = qconv2d(layer, x)

        big = Conv2d(4 * q_in, 4 * q_out, (3, 3), stride, pad, dtype=np.float32)
        big.w = materialize_block_weight(layer.weights)
        big.b = quaternion_bias_to_real(layer.bias)
        n = x.shape[0]
        x_real = x.reshape(n, 4 * q_in, 6, 5)  # plane-major channel order
        want = real_conv2d(big, x_real).reshape(got.shape)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_float64_equivalence_tight(self):
        rng = np.random.default_rng(123)
        layer = random_qconv(rng, 2, 2, dtype=np.float64)
        x = rng.normal(size=(1, 4, 2, 5, 5))
        got = qconv2d(layer, x)
        big = Conv2d(8, 8, (3, 3), 1, 1, dtype=np.float64)
        big.w = materialize_block_weight(layer.weights)
        big.b = quaternion_bias_to_real(layer.bias)
        want = real_conv2d(big, x.reshape(1, 8, 5, 5)).reshape(got.shape)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_kernel_param_count_is_quarter(self):
        q = QConv2d(4, 8, (3, 3))
        r = Conv2d(16, 32, (3, 3))
        assert q.weights.size * 4 == r.w.size

    def test_shape_error(self):
        layer = QConv2d(2, 2, (3, 3))
        with pytest.raises(ShapeError):
            qconv2d(layer, np.zeros((1, 4, 3, 5, 5)))


# ---------------------------------------------------------------------------
# split activation / batch norm / pooling
# ---------------------------------------------------------------------------

class TestSplitOps:
    def test_relu_all_negative(self):
        t = QTensor(-np.ones((4, 1, 2, 2)))
        np.testing.assert_array_equal(split_activation(t).data, 0)

    def test_relu_all_positive(self):
        t = QTensor(np.full((4, 1, 2, 2), 0.5))
        np.testing.assert_array_equal(split_activation(t).data, t.data)

    def test_relu_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, 2, 3, 3))
        out = split_activation(QTensor(data))
        for idx in np.ndindex(data.shape):
            assert out.data[idx] == max(0.0, data[idx])

    def test_bn_train_normalizes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 2, 6, 6)).astype(np.float64)
        state = QBatchNorm2d(2, dtype=np.float64)
        y = split_batchnorm(x, state, mode="train")
        mean = y.mean(axis=(0, 3, 4))
        var = y.var(axis=(0, 3, 4))
        np.testing.assert_allclose(mean, 0.0, atol=1e-4)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bn_train_statistics_are_numpys_on_channel_major_input(self, dtype):
        # train-mode conv outputs are (N, C, H, W) views of (C, N, H, W)
        # memory; mean, var and xhat are those of numpy, bit for bit
        rng = np.random.default_rng(8)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 6, 5, 3)).astype(dtype)
        x = x.transpose(1, 0, 2, 3)
        bn = BatchNorm2d(8, momentum=0.0, dtype=dtype)  # running stats = batch's
        _, ctx = bn.forward(x, mode="train", record=True)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + bn.eps)
        np.testing.assert_array_equal(bn.running_mean, mean)
        np.testing.assert_array_equal(bn.running_var, var)
        np.testing.assert_array_equal(ctx["inv"], inv)
        np.testing.assert_array_equal(
            ctx["xhat"], (x - mean[None, :, None, None]) * inv[None, :, None, None])

    def test_bn_gamma_zero_gives_beta(self):
        state = QBatchNorm2d(1, dtype=np.float64)
        state.gamma = np.zeros_like(state.gamma)
        state.beta = np.full_like(state.beta, 0.75)
        x = np.random.default_rng(6).normal(size=(4, 4, 1, 3, 3))
        y = split_batchnorm(x, state, mode="train")
        np.testing.assert_allclose(y, 0.75)

    def test_bn_eval_closed_form(self):
        rng = np.random.default_rng(7)
        state = QBatchNorm2d(2, dtype=np.float64)
        state.gamma = rng.normal(size=(4, 2))
        state.beta = rng.normal(size=(4, 2))
        state.running_mean = rng.normal(size=(4, 2))
        state.running_var = rng.uniform(0.5, 2.0, size=(4, 2))
        x = rng.normal(size=(3, 4, 2, 4, 4))
        y = split_batchnorm(x, state, mode="eval")
        expect = ((x - state.running_mean[None, :, :, None, None])
                  / np.sqrt(state.running_var[None, :, :, None, None] + 1e-5)
                  * state.gamma[None, :, :, None, None]
                  + state.beta[None, :, :, None, None])
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_bn_state_mismatch(self):
        state = QBatchNorm2d(3)
        with pytest.raises(ShapeError):
            split_batchnorm(np.zeros((1, 4, 2, 3, 3), dtype=np.float32), state)

    def test_avg_pool_constant(self):
        t = QTensor(np.full((4, 1, 4, 4), 2.5))
        out = split_pool(t, "avg", 2)
        np.testing.assert_allclose(out.data, 2.5)

    def test_max_pool_small(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = QTensor.from_planes(plane, plane, plane, plane)
        out = split_pool(t, "max", 2)
        np.testing.assert_array_equal(out.data, 4.0)

    def test_pool_matches_nested_loop(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(4, 2, 6, 8))
        for k, s in ((2, 2), (3, 2), (2, 1)):  # window, stride
            for kind, fn in (("max", np.max), ("avg", np.mean)):
                out = split_pool(QTensor(data), kind, k, s).data
                assert out.shape == (4, 2, (6 - k) // s + 1, (8 - k) // s + 1)
                for p, c, i, j in np.ndindex(out.shape):
                    window = data[p, c, s * i : s * i + k, s * j : s * j + k]
                    assert out[p, c, i, j] == pytest.approx(fn(window))

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError):
            split_pool(QTensor(np.zeros((4, 1, 2, 2))), "max", 3)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_qbatchnorm_is_batchnorm_on_the_real_channels(mode):
    # QBatchNorm2d(q) on (N, 4, q, H, W) is BatchNorm2d(4q) on the
    # (N, 4q, H, W) view, with its (4, q) arrays flattened, bit for bit
    rng = np.random.default_rng(21)
    qbn, bn = QBatchNorm2d(3), BatchNorm2d(12)
    for name, _ in qbn.params() + qbn.buffers():
        value = rng.uniform(0.5, 2.0, size=(4, 3)).astype(np.float32)
        qbn.set_array(name, value)
        bn.set_array(name, value.reshape(-1).copy())
    x = rng.normal(size=(5, 4, 3, 6, 6)).astype(np.float32)
    yq, ctx_q = qbn.forward(x, mode=mode, record=True)
    yr, ctx_r = bn.forward(x.reshape(5, 12, 6, 6), mode=mode, record=True)
    assert yq.shape == x.shape
    np.testing.assert_array_equal(yq.reshape(yr.shape), yr)
    for name, arr in qbn.buffers():  # train mode moves both alike
        np.testing.assert_array_equal(arr.reshape(-1), getattr(bn, name))

    g = rng.normal(size=x.shape).astype(np.float32)
    grads_q = {(qbn.lid, n): np.zeros_like(a) for n, a in qbn.params()}
    grads_r = {(bn.lid, n): np.zeros_like(a) for n, a in bn.params()}
    gx_q = qbn.backward(g, ctx_q, grads_q)
    gx_r = bn.backward(g.reshape(yr.shape), ctx_r, grads_r)
    assert gx_q.shape == x.shape
    np.testing.assert_array_equal(gx_q.reshape(gx_r.shape), gx_r)
    for key, grad in grads_q.items():
        assert grad.shape == (4, 3)
        np.testing.assert_array_equal(grad.reshape(-1), grads_r[key])


def test_layer_shapes_check_every_incoming_width():
    pooled = [GlobalAvgPool2d(), Flatten()]
    assert ModelGraph(pooled + [Linear(8, 3)], (8, 4, 4), 3,
                      quaternion=False).layer_shapes()[-1] == (3,)
    qconv = QConv2d(1, 2, (3, 3))  # 8 real channels
    assert ModelGraph([qconv, GlobalAvgPool2d(), QLinear(2, 3)], (4, 8, 8), 3,
                      quaternion=True).layer_shapes()[-1] == (12,)
    for layers, input_shape in [
        (pooled + [Linear(99, 3)], (8, 4, 4)),  # 8 features, not 99
        ([qconv, GlobalAvgPool2d(), QLinear(5, 3)], (4, 8, 8)),  # 8, not 20
        ([Conv2d(4, 8, (3, 3)), BatchNorm2d(16)], (4, 8, 8)),  # 8, not 16
        ([qconv, QBatchNorm2d(3)], (4, 8, 8)),  # 8, not 12
    ]:
        with pytest.raises(ShapeError):
            ModelGraph(layers, input_shape, 3, layers[0].quaternion).layer_shapes()


@pytest.mark.parametrize("make", [
    lambda: AvgPool2d(2, 0), lambda: MaxPool2d(0), lambda: Conv2d(4, 4, (0, 3)),
    lambda: QConv2d(1, 1, (3, 3), stride=0), lambda: Conv2d(4, 4, (3, 3), padding=-1),
    lambda: Conv2d(0, 4), lambda: QConv2d(2, 0), lambda: Linear(4, 0),
    lambda: QLinear(0, 1), lambda: BatchNorm2d(0), lambda: QBatchNorm2d(0),
], ids=["pool_stride", "pool_window", "conv_kernel", "conv_stride", "conv_padding",
        "conv_width", "qconv_width", "linear_width", "qlinear_width", "bn_width",
        "qbn_width"])
def test_bad_layer_geometry_rejected_at_construction(make):
    with pytest.raises(ConfigError, match="at least"):
        make()


@pytest.mark.parametrize("eps,momentum", [(-1, 0.9), (0, 0.9), (float("nan"), 0.9),
                                          (1e-5, 2), (1e-5, -0.5)])
@pytest.mark.parametrize("bn", [BatchNorm2d, QBatchNorm2d])
def test_bad_batchnorm_fields_rejected_at_construction(bn, eps, momentum):
    with pytest.raises(ConfigError, match="eps .* must be positive and momentum"):
        bn(4, eps=eps, momentum=momentum)
    for bound in (0.0, 1.0):
        bn(4, momentum=bound)


def test_walk_enters_residual_blocks_at_any_depth():
    model = toy_nested_residual_model()
    assert [layer.type_name for layer in model.walk()] == [
        "qconv2d", "residual", "qconv2d", "qbatchnorm2d", "relu", "residual",
        "qconv2d", "qbatchnorm2d", "qconv2d", "qbatchnorm2d", "globalavgpool2d",
        "flatten", "linear"]
    assert [layer.lid for layer in model.walk()] == list(range(13))


def test_init_params_draws_each_layer_once():
    from qprune.models import qresnet_mini

    model = qresnet_mini(5)
    calls = []
    for layer in model.walk():
        init = layer.init_params
        layer.init_params = lambda rng, layer=layer, init=init: (
            calls.append(layer.lid), init(rng))
    model.init_params(np.random.default_rng(0))
    assert calls == list(range(27))  # 17 top-level layers, 2 x 5 interior


def test_every_layer_class_owns_forward_and_backward():
    # per-class tracing wraps the entries in each class's own namespace, so
    # a quaternion layer must not merely inherit its real layer's
    from qprune.nn import LAYER_TYPES

    for cls in LAYER_TYPES.values():
        assert {"forward", "backward"} <= set(vars(cls)), cls.__name__


def test_quaternion_layers_are_their_real_layers():
    qconv, qlin, qbn = QConv2d(2, 3, (1, 1)), QLinear(2, 3), QBatchNorm2d(3)
    assert isinstance(qconv, Conv2d) and isinstance(qlin, Linear)
    assert isinstance(qbn, BatchNorm2d)
    assert (qconv.c_in, qconv.c_out, qlin.c_in, qlin.c_out, qbn.channels) == (8, 12, 8, 12, 12)
    assert qconv.real_weight().shape == (12, 8, 1, 1)


# one layer of every type with non-default hyperparameters, and its spec
LAYER_SPECS = [
    (Conv2d(4, 8, (2, 3), stride=2, padding=1, bias=False),
     {"type": "conv2d", "c_in": 4, "c_out": 8, "kernel": [2, 3], "stride": 2,
      "padding": 1, "bias": False}),
    (QConv2d(2, 3, (1, 1)),
     {"type": "qconv2d", "q_in": 2, "q_out": 3, "kernel": [1, 1], "stride": 1,
      "padding": 0, "bias": True}),
    (BatchNorm2d(8, eps=1e-3, momentum=0.8),
     {"type": "batchnorm2d", "channels": 8, "eps": 1e-3, "momentum": 0.8}),
    (QBatchNorm2d(3, eps=1e-4, momentum=0.5),
     {"type": "qbatchnorm2d", "q": 3, "eps": 1e-4, "momentum": 0.5}),
    (ReLU(), {"type": "relu"}),
    (MaxPool2d(3, stride=1), {"type": "maxpool2d", "window": 3, "stride": 1}),
    (AvgPool2d(2), {"type": "avgpool2d", "window": 2, "stride": 2}),
    (GlobalAvgPool2d(), {"type": "globalavgpool2d"}),
    (Flatten(), {"type": "flatten"}),
    (Linear(12, 5, bias=False),
     {"type": "linear", "c_in": 12, "c_out": 5, "bias": False}),
    (QLinear(3, 2), {"type": "qlinear", "q_in": 3, "q_out": 2, "bias": True}),
    (ResidualBlock([QBatchNorm2d(2, momentum=0.7), ReLU()]),
     {"type": "residual", "layers": [
         {"type": "qbatchnorm2d", "q": 2, "eps": 1e-5, "momentum": 0.7},
         {"type": "relu"}]}),
]


def test_layer_specs_cover_every_layer_type():
    from qprune.nn import LAYER_TYPES

    assert sorted(type(layer).__name__ for layer, _ in LAYER_SPECS) == sorted(
        cls.__name__ for cls in LAYER_TYPES.values())


@pytest.mark.parametrize("layer,spec", LAYER_SPECS,
                         ids=[spec["type"] for _, spec in LAYER_SPECS])
def test_spec_round_trips_through_build_layer(layer, spec):
    from qprune.nn import build_layer

    assert layer.spec() == spec
    rebuilt = build_layer(spec)
    assert type(rebuilt) is type(layer) and rebuilt.spec() == spec
    assert [(n, a.shape) for n, a in rebuilt.params() + rebuilt.buffers()] == [
        (n, a.shape) for n, a in layer.params() + layer.buffers()]


# ---------------------------------------------------------------------------
# quaternion linear
# ---------------------------------------------------------------------------

class TestQLinear:
    def test_identity_weights(self):
        layer = QLinear(3, 3, bias=False)
        layer.weights[0] = np.eye(3, dtype=np.float32)  # real part = identity
        x = np.random.default_rng(9).normal(size=(4, 3)).astype(np.float32)
        np.testing.assert_allclose(qlinear(layer, x), x, rtol=1e-6)

    def test_zero_weights_gives_bias(self):
        layer = QLinear(2, 3)
        layer.bias = np.random.default_rng(10).normal(size=(4, 3)).astype(np.float32)
        out = qlinear(layer, np.ones((4, 2), dtype=np.float32))
        np.testing.assert_allclose(out, layer.bias, rtol=1e-6)

    def test_matches_hamilton_product_oracle(self):
        from qprune.quaternion import Quaternion, hamilton_product

        rng = np.random.default_rng(11)
        layer = QLinear(3, 2, dtype=np.float64)
        layer.weights = rng.normal(size=(4, 2, 3))
        layer.bias = rng.normal(size=(4, 2))
        x = rng.normal(size=(4, 3))
        out = qlinear(layer, x)
        for m in range(2):
            acc = np.array(list(Quaternion(*layer.bias[:, m])), dtype=float)
            for c in range(3):
                w = Quaternion(*layer.weights[:, m, c])
                q = Quaternion(*x[:, c])
                acc = acc + hamilton_product(w, q).as_array()
            np.testing.assert_allclose(out[:, m], acc, rtol=1e-6)

    def test_matches_real_linear_on_expanded_weight(self):
        rng = np.random.default_rng(15)
        layer = QLinear(3, 2, dtype=np.float64)
        layer.weights = rng.normal(size=(4, 2, 3))
        layer.bias = rng.normal(size=(4, 2))
        x = rng.normal(size=(5, 4, 3))
        real = Linear(12, 8, dtype=np.float64)
        real.w = materialize_block_weight(layer.weights)
        real.b = quaternion_bias_to_real(layer.bias)
        want, _ = real.forward(x.reshape(5, 12))
        np.testing.assert_allclose(qlinear(layer, x), want.reshape(5, 4, 2),
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# Hamilton expansion and its adjoint
# ---------------------------------------------------------------------------

class TestHamiltonExpand:
    @pytest.mark.parametrize("shape", [(4, 3, 2, 3, 3), (4, 3, 2, 1, 5), (4, 5, 3)])
    def test_matches_materialized_block_weight(self, shape):
        banks = np.random.default_rng(13).normal(size=shape)
        np.testing.assert_array_equal(hamilton_expand(banks),
                                      materialize_block_weight(banks))

    # (map, kernel, padding): 3 of 9 taps live, 3 of 5 columns live, all live
    LIVE_CASES = [((2, 1), (3, 3), 1), ((4, 2), (5, 5), 2), ((6, 5), (3, 3), 1)]

    @pytest.mark.parametrize("hw,kernel,pad", LIVE_CASES)
    def test_live_tap_expand_and_fold_are_the_full_ones_sliced(self, hw, kernel, pad):
        rng = np.random.default_rng(16)
        *_, ta, tb = _live_taps(*hw, *kernel, 1, pad)
        banks = rng.normal(size=(4, 3, 2, *kernel))
        np.testing.assert_array_equal(hamilton_expand(banks[..., ta, tb]),
                                      hamilton_expand(banks)[..., ta, tb])
        g = np.zeros((12, 8, *kernel))
        g[..., ta, tb] = rng.normal(size=g[..., ta, tb].shape)
        full = hamilton_fold(g)
        np.testing.assert_array_equal(hamilton_fold(g[..., ta, tb]), full[..., ta, tb])
        dead = np.ones(kernel, bool)
        dead[ta, tb] = False
        assert not full[..., dead].any()

    @pytest.mark.parametrize("hw,kernel,pad", LIVE_CASES)
    def test_bank_gradient_is_the_fold_of_the_real_one(self, hw, kernel, pad):
        # QConv2d's bank gradient, folded from its live taps, against the
        # real conv on the expanded weight, folded whole; a dead tap's is 0.0
        from qprune.autodiff import backward, forward, mse_loss

        rng = np.random.default_rng(17)
        qconv = QConv2d(2, 3, kernel, padding=pad)
        qconv.init_params(rng)
        qconv.bias = rng.normal(size=qconv.bias.shape).astype(np.float32)
        real = Conv2d(8, 12, kernel, padding=pad)
        real.w, real.b = qconv.real_weight(), qconv.real_bias()
        oh, ow, ta, tb = _live_taps(*hw, *kernel, 1, pad)
        x = rng.normal(size=(3, 4, 2, *hw)).astype(np.float32)
        target = rng.normal(size=(3, 12, oh, ow))
        grads = []
        for layer, xin in ((qconv, x), (real, x.reshape(3, 8, *hw))):
            model = ModelGraph([layer], (8, *hw), 1, quaternion=layer is qconv)
            z, tape = forward(model, xin)
            grads.append(backward(tape, mse_loss(z, target.reshape(z.shape), tape)))
        gq, gr = grads
        np.testing.assert_array_equal(gq[(0, "weights")], hamilton_fold(gr[(0, "w")]))
        dead = np.ones(kernel, bool)
        dead[ta, tb] = False
        assert np.all(gq[(0, "weights")][..., dead] == 0.0)
        assert not np.signbit(gq[(0, "weights")][..., dead]).any()

    @pytest.mark.parametrize("shape", [(4, 3, 2, 3, 3), (4, 5, 3)])
    def test_fold_is_adjoint(self, shape):
        rng = np.random.default_rng(14)
        a = rng.normal(size=shape)
        g = rng.normal(size=(4 * shape[1], 4 * shape[2]) + shape[3:])
        lhs = np.vdot(hamilton_expand(a), g)
        rhs = np.vdot(a, hamilton_fold(g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# architecture conversion
# ---------------------------------------------------------------------------

def small_real_model(c_in=4, noisy=False):
    layers = [
        Conv2d(c_in, 8, (3, 3), padding=1), BatchNorm2d(8), ReLU(), AvgPool2d(2),
        Conv2d(8, 16, (3, 3), padding=1), BatchNorm2d(16), ReLU(),
        GlobalAvgPool2d(), Flatten(), Linear(16, 3),
    ]
    model = ModelGraph(layers, (c_in, 8, 8), 3, quaternion=False, name="tiny")
    model.init_params(np.random.default_rng(0))
    return model


class TestConvertArchitecture:
    def test_grouping_rule(self):
        model = small_real_model()
        qmodel = convert_architecture(model, seed=1)
        conv0 = qmodel.layers[0]
        assert isinstance(conv0, QConv2d)
        assert (conv0.q_in, conv0.q_out) == (1, 2)  # 4->8 real becomes 1->2

    def test_empty_model(self):
        empty = ModelGraph([], (4, 4, 4), 2, quaternion=False)
        out = convert_architecture(empty)
        assert out.layers == [] and out.quaternion

    def test_indivisible_channels_named(self):
        layers = [Conv2d(4, 6, (3, 3), padding=1), Flatten(), Linear(6 * 16, 2)]
        model = ModelGraph(layers, (4, 4, 4), 2, quaternion=False)
        with pytest.raises(ConversionError, match="layer 0"):
            convert_architecture(model)

    def test_indivisible_input_rejected(self):
        model = ModelGraph([Flatten(), Linear(3 * 16, 2)], (3, 4, 4), 2,
                           quaternion=False)
        with pytest.raises(ConversionError, match="not divisible by 4"):
            convert_architecture(model)

    def test_preserves_end_to_end_shapes(self):
        model = small_real_model()
        qmodel = convert_architecture(model, seed=2)
        x = np.random.default_rng(12).normal(size=(2, 4, 1, 8, 8)).astype(np.float32)
        from qprune.autodiff import inference
        from qprune.nn import model_input

        zr = inference(model, model_input(model, x))
        zq = inference(qmodel, model_input(qmodel, x))
        assert zr.shape == zq.shape == (2, 3)

    def test_every_real_layer_type_against_literal_specs(self):
        # a hidden Linear becomes QLinear, the head stays Linear, residual
        # interiors are converted and hyperparameters carry over
        model = ModelGraph([
            Conv2d(4, 8, (3, 3), stride=2, padding=1), BatchNorm2d(8, 1e-3, 0.8),
            ReLU(), MaxPool2d(2, 1),
            ResidualBlock([Conv2d(8, 8, (3, 3), padding=1, bias=False),
                           BatchNorm2d(8), ReLU()]),
            AvgPool2d(2), GlobalAvgPool2d(), Flatten(), Linear(8, 16, bias=False),
            ReLU(), Linear(16, 3),
        ], (4, 12, 12), 3, quaternion=False)
        qmodel = convert_architecture(model)
        assert qmodel.quaternion
        assert [layer.spec() for layer in qmodel.layers] == [
            {"type": "qconv2d", "q_in": 1, "q_out": 2, "kernel": [3, 3], "stride": 2,
             "padding": 1, "bias": True},
            {"type": "qbatchnorm2d", "q": 2, "eps": 1e-3, "momentum": 0.8},
            {"type": "relu"},
            {"type": "maxpool2d", "window": 2, "stride": 1},
            {"type": "residual", "layers": [
                {"type": "qconv2d", "q_in": 2, "q_out": 2, "kernel": [3, 3],
                 "stride": 1, "padding": 1, "bias": False},
                {"type": "qbatchnorm2d", "q": 2, "eps": 1e-5, "momentum": 0.9},
                {"type": "relu"}]},
            {"type": "avgpool2d", "window": 2, "stride": 2},
            {"type": "globalavgpool2d"},
            {"type": "flatten"},
            {"type": "qlinear", "q_in": 2, "q_out": 4, "bias": False},
            {"type": "relu"},
            {"type": "linear", "c_in": 16, "c_out": 3, "bias": True},
        ]
        assert qmodel.layer_shapes()[-1] == (3,)

    def test_indivisible_residual_interior_named(self):
        model = ModelGraph([ResidualBlock([Conv2d(4, 4, (1, 1)), BatchNorm2d(6)])],
                           (4, 4, 4), 2, quaternion=False)
        with pytest.raises(ConversionError, match=r"layer 0\.1 \(batchnorm2d 6\)"):
            convert_architecture(model)

    def test_conv_kernel_params_quartered(self):
        model = small_real_model()
        qmodel = convert_architecture(model)
        for real_l, q_l in zip(model.layers, qmodel.layers):
            if isinstance(real_l, Conv2d):
                assert q_l.weights.size == real_l.w.size // 4


# ---------------------------------------------------------------------------
# parameter-count invariants on layer types
# ---------------------------------------------------------------------------

def test_real_conv_144_parameters():
    # 4-in/4-out 3x3 real conv, no bias: 16 kernels of 9 weights
    layer = Conv2d(4, 4, (3, 3), bias=False)
    assert sum(a.size for _, a in layer.params()) == 144


def test_qconv_36_parameters():
    # quaternion equivalent: 4 banks of 9, four times fewer
    layer = QConv2d(1, 1, (3, 3), bias=False)
    assert sum(a.size for _, a in layer.params()) == 36


@pytest.mark.parametrize("name", ["qcnn-mini", "qresnet-mini", "cnn-mini"])
def test_eval_forward_logits_equal_inference_bit_for_bit(name):
    # a recording eval pass must compute the same logits as inference,
    # although only the recording pass keeps what backward needs
    from qprune.autodiff import forward, inference
    from qprune.models import build_model
    from qprune.nn import model_input

    model = build_model(name, 4, (4, 32, 16), seed=1)
    x = model_input(model, np.random.default_rng(2).normal(
        size=(8, 4, 1, 32, 16)).astype(np.float32))
    inference(model, x, mode="train")  # move BN running stats off (0, 1)
    z, _ = forward(model, x, mode="eval")
    np.testing.assert_array_equal(z, inference(model, x, mode="eval"))


# ---------------------------------------------------------------------------
# frozen-model inference
# ---------------------------------------------------------------------------

def _rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def _calibrated(model, x):
    """The model with BN running statistics moved off (0, 1)."""
    from qprune.autodiff import inference

    for k in range(3):
        inference(model, x[k::3], mode="train")
    return model


def _spec_model(name):
    from qprune.models import build_model
    from qprune.pruning import apply_prune, build_prune_plan

    if name == "qcnn-mini-p50":
        base = build_model("qcnn-mini", 4, (4, 32, 16), seed=1)
        return apply_prune(base, build_prune_plan(base, "op", 0.5))
    return build_model(name, 4, (4, 32, 16), seed=1)


def _every_layer_type_models():
    """A quaternion and a real model that together use every layer type:
    BN folded with and without a ReLU, ReLU after a conv without BN, BN that
    follows no conv, convs without bias, residual blocks, and Flatten of
    both pooled vectors and spatial maps."""
    quaternion = ModelGraph([
        QConv2d(1, 2, (3, 3), padding=1), QBatchNorm2d(2), ReLU(), AvgPool2d(2),
        ResidualBlock([QConv2d(2, 2, (3, 3), padding=1, bias=False),
                       QBatchNorm2d(2), ReLU(), QConv2d(2, 2, (3, 3), padding=1)]),
        QBatchNorm2d(2), MaxPool2d(2), GlobalAvgPool2d(), QLinear(2, 3), ReLU(),
        Flatten(), Linear(12, 3),
    ], (4, 8, 8), 3, quaternion=True)
    real = ModelGraph([
        Conv2d(4, 8, (3, 3), stride=2, padding=1), ReLU(),
        Conv2d(8, 8, (2, 3), bias=False), BatchNorm2d(8), MaxPool2d(2, 1),
        BatchNorm2d(8), AvgPool2d(2), Flatten(), Linear(24, 3),
    ], (4, 16, 12), 3, quaternion=False)
    return quaternion, real


@pytest.mark.parametrize("name", ["qcnn-mini", "qcnn-mini-p50", "qresnet-mini",
                                  "cnn-mini"])
def test_frozen_logits_match_inference(name):
    from qprune.autodiff import inference
    from qprune.nn import freeze, model_input

    model = _spec_model(name)
    x = model_input(model, np.random.default_rng(2).normal(
        size=(48, 4, 1, 32, 16)).astype(np.float32))
    _calibrated(model, x)
    z = inference(model, x, mode="eval")
    z_frozen = freeze(model)(x)
    assert _rel_err(z_frozen, z) <= 1e-5
    np.testing.assert_array_equal(z_frozen.argmax(axis=1), z.argmax(axis=1))


def test_frozen_maps_are_channels_last_on_maps_the_kernel_overhangs():
    # on a 16x16 input the last two qcnn-mini convs run on 1x1 maps, where
    # only the centre tap of each 3x3 kernel reads the map
    from qprune.autodiff import inference
    from qprune.models import build_model
    from qprune.nn import freeze

    model = build_model("qcnn-mini", 4, (4, 16, 16), seed=1)
    x = np.random.default_rng(6).normal(size=(24, 4, 1, 16, 16)).astype(np.float32)
    _calibrated(model, x)
    z = inference(model, x, mode="eval")
    h, sizes = x, []
    for layer in freeze(model).layers:
        h, _ = layer.forward(h)
        if isinstance(layer, Conv2d):
            sizes.append(h.shape[-2:])
            assert np.moveaxis(h.reshape(24, -1, *h.shape[-2:]), 1, -1).flags.c_contiguous
    assert sizes[-2:] == [(1, 1), (1, 1)]
    assert _rel_err(h, z) <= 1e-5
    np.testing.assert_array_equal(h.argmax(axis=1), z.argmax(axis=1))


def test_frozen_covers_every_layer_type():
    from qprune.autodiff import inference
    from qprune.nn import LAYER_TYPES, freeze

    models = _every_layer_type_models()
    used = {layer.type_name for m in models for layer in m.walk()}
    assert used == set(LAYER_TYPES)
    rng = np.random.default_rng(4)
    for model in models:
        model.init_params(rng)
        x = rng.normal(size=(12, *model.input_shape)).astype(np.float32)
        if model.quaternion:
            x = x.reshape(12, 4, -1, *model.input_shape[1:])
        _calibrated(model, x)
        assert _rel_err(freeze(model)(x), inference(model, x, mode="eval")) <= 1e-5


def test_frozen_steps_are_ordinary_layers():
    # a conv or linear becomes a real Conv2d or Linear, and a ReLU stays
    from qprune.nn import LAYER_TYPES, _walk, freeze

    models = [_spec_model(name) for name in ("qcnn-mini", "qcnn-mini-p50",
                                             "qresnet-mini", "cnn-mini")]
    for model in models + list(_every_layer_type_models()):
        steps = list(_walk(freeze(model).layers))
        assert all(isinstance(step, tuple(LAYER_TYPES.values())) for step in steps)
        assert {type(step) for step in steps if isinstance(step, (Conv2d, Linear))} \
            <= {Conv2d, Linear}
        assert sum(isinstance(step, ReLU) for step in steps) == \
            sum(isinstance(layer, ReLU) for layer in model.walk())


def _without_batchnorm(layers):
    return [ResidualBlock(_without_batchnorm(layer.layers))
            if isinstance(layer, ResidualBlock) else layer
            for layer in layers if not isinstance(layer, BatchNorm2d)]


@pytest.mark.parametrize("name", ["qcnn-mini", "qresnet-mini", "cnn-mini"])
def test_frozen_logits_equal_layer_wise_eval_without_batchnorm(name):
    # with nothing to fold, a frozen step runs the layer's own eval forward
    from qprune.autodiff import inference
    from qprune.nn import freeze, model_input

    spec = _spec_model(name)
    model = ModelGraph(_without_batchnorm(spec.layers), spec.input_shape,
                       spec.num_classes, spec.quaternion)
    x = model_input(model, np.random.default_rng(8).normal(
        size=(10, 4, 1, 32, 16)).astype(np.float32))
    np.testing.assert_array_equal(freeze(model)(x), inference(model, x, mode="eval"))


@pytest.mark.parametrize("make", [lambda: Conv2d(8, 12, (3, 3), padding=1),
                                  lambda: QConv2d(2, 3, (3, 3), stride=2)],
                         ids=["conv2d", "qconv2d"])
def test_conv_map_layout_follows_the_mode(make):
    # channels-last in eval mode, channel-major (C, N, H, W) in train mode
    layer = make()
    rng = np.random.default_rng(9)
    layer.init_params(rng)
    x = rng.normal(size=(5, *layer.axes(layer.c_in), 6, 7)).astype(np.float32)
    y_eval, _ = layer.forward(x, mode="eval")
    y_train, _ = layer.forward(x, mode="train")
    maps = [y.reshape(5, layer.c_out, *y.shape[-2:]) for y in (y_eval, y_train)]
    assert np.moveaxis(maps[0], 1, -1).flags.c_contiguous
    assert maps[1].transpose(1, 0, 2, 3).flags.c_contiguous
    np.testing.assert_allclose(y_eval, y_train, rtol=1e-5, atol=1e-5)


def _stride_order(a):
    """a's axes longer than 1, outermost in memory first."""
    return [i for i in sorted(range(a.ndim), key=lambda i: -a.strides[i]) if a.shape[i] > 1]


@pytest.mark.parametrize("name", ["qcnn-mini", "qresnet-mini", "cnn-mini", "maxpool-stack"])
def test_train_backward_hands_on_the_layout_of_the_forward_input(name):
    # every layer's input gradient has its forward input's memory layout,
    # so the elementwise ops and reductions after it run on one layout
    from qprune.autodiff import backward, cross_entropy, forward, one_hot

    model = _spec_model(name) if name != "maxpool-stack" else ModelGraph([
        Conv2d(4, 8, (3, 3), padding=1), BatchNorm2d(8), ReLU(), MaxPool2d(2),
        Conv2d(8, 8, (3, 3), padding=1), ReLU(), MaxPool2d(2, 1), Flatten(),
        Linear(24, 4)], (4, 8, 4), 4, quaternion=False).init_params(np.random.default_rng(1))
    seen = {}  # layer -> [forward input's order, input gradient's order]
    for layer in model.walk():
        def fwd(x, *args, _layer=layer, _fwd=layer.forward, **kw):
            seen[_layer] = [_stride_order(x)]
            return _fwd(x, *args, **kw)

        def bwd(g, ctx, grads, _layer=layer, _bwd=layer.backward):
            gx = _bwd(g, ctx, grads)
            seen[_layer].append(None if gx is None else _stride_order(gx))
            return gx

        layer.forward, layer.backward = fwd, bwd
    c, h, w = model.input_shape
    x = np.random.default_rng(3).normal(
        size=(6, 4, c // 4, h, w) if model.quaternion else (6, c, h, w)).astype(np.float32)
    z, tape = forward(model, x, mode="train")
    backward(tape, cross_entropy(z, one_hot(np.arange(6) % 4, 4), tape))
    first = model.layers[0]
    assert seen.pop(first)[1] is None  # nothing reads the model input's gradient
    for layer, (order_x, order_gx) in seen.items():
        # GlobalAvgPool2d hands on a broadcast view: its spatial strides are
        # 0, so it has no stride order; the ReLU before it gets the mask's
        if not isinstance(layer, GlobalAvgPool2d):
            assert order_gx == order_x, (layer, order_x, order_gx)
    assert len(seen) == len(list(model.walk())) - 1


@pytest.mark.parametrize("window,stride", [(2, None), (2, 1), (3, 2)])
def test_maxpool_keeps_a_channel_major_input_layout(window, stride):
    # a train-mode map is a (C, N, H, W) view: the pooled map keeps that
    # order, with the values and gradients of the C-order input's
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 3, 7, 6)).astype(np.float32)
    x_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    pool = MaxPool2d(window, stride)
    y, ctx = pool.forward(x, record=True)
    y_major, ctx_major = pool.forward(x_major, record=True)
    assert _stride_order(y_major) == _stride_order(x_major) == [1, 0, 2, 3]
    np.testing.assert_array_equal(y_major, y)
    g = rng.normal(size=y.shape).astype(np.float32)
    g_major = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    gx = pool.backward(g, ctx, {})
    gx_major = pool.backward(g_major, ctx_major, {})
    assert _stride_order(gx_major) == [1, 0, 2, 3]
    np.testing.assert_array_equal(gx_major, gx)


def test_frozen_snapshot_is_independent_of_the_model():
    from qprune.autodiff import OptimState, cross_entropy, backward, forward, one_hot
    from qprune.nn import freeze

    rng = np.random.default_rng(5)
    model = _every_layer_type_models()[0].init_params(rng)
    x = rng.normal(size=(6, 4, 1, 8, 8)).astype(np.float32)
    _calibrated(model, x)
    before = [a.copy() for *_, a in model.all_params() + model.all_buffers()]
    frozen = freeze(model)
    z0 = frozen(x)
    for saved, (*_, a) in zip(before, model.all_params() + model.all_buffers()):
        np.testing.assert_array_equal(a, saved)

    z, tape = forward(model, x, mode="train")  # moves BN statistics too
    OptimState(model, "adam", 1e-2).step(
        backward(tape, cross_entropy(z, one_hot(rng.integers(0, 3, 6), 3), tape)))
    assert not np.array_equal(model.layers[0].weights, before[0])
    np.testing.assert_array_equal(frozen(x), z0)


def test_frozen_call_counts_one_forward():
    from qprune.nn import freeze

    model = _spec_model("qresnet-mini")
    x = np.zeros((2, 4, 1, 32, 16), dtype=np.float32)
    model.forward_count = 0
    frozen = freeze(model)
    assert model.forward_count == 0
    for k in range(1, 4):
        frozen(x)
        assert model.forward_count == k


def test_frozen_rejects_wrong_input_channels():
    from qprune.nn import freeze

    model = _spec_model("qcnn-mini")
    with pytest.raises(ShapeError):
        freeze(model)(np.zeros((2, 4, 2, 32, 16), dtype=np.float32))
    with pytest.raises(ShapeError):  # the right width on real channel axes
        freeze(model)(np.zeros((2, 4, 32, 16), dtype=np.float32))
