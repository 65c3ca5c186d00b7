"""Layer tests against nested-loop and block-matrix materialization oracles."""

import numpy as np
import pytest

from qprune.exceptions import ConversionError, ShapeError
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

    @pytest.mark.parametrize("kernel,stride,pad", [
        ((1, 8), 1, 2), ((4, 4), 3, 0), ((2, 3), 3, 2), ((4, 4), 1, 2), ((2, 3), 2, 0),
    ])
    def test_kernel_shapes_match_nested_loop_oracle(self, kernel, stride, pad):
        rng = np.random.default_rng(3)
        layer = Conv2d(3, 5, kernel, stride=stride, padding=pad, dtype=np.float64)
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, 3, 7, 9))
        want = loop_conv2d(x, layer.w, layer.b, stride, pad)
        np.testing.assert_allclose(real_conv2d(layer, x), want, rtol=1e-5)

    def test_channel_major_input(self):
        # conv outputs are (N, C, H, W) views of (C, N, H, W) arrays
        rng = np.random.default_rng(4)
        layer = Conv2d(4, 3, (3, 3), padding=1, dtype=np.float64)
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(4, 2, 6, 5)).transpose(1, 0, 2, 3)
        assert not x.flags.c_contiguous
        got = real_conv2d(layer, x)
        np.testing.assert_array_equal(got, real_conv2d(layer, np.ascontiguousarray(x)))
        np.testing.assert_allclose(got, loop_conv2d(x, layer.w, layer.b, 1, 1), rtol=1e-5)

    @pytest.mark.parametrize("kernel,stride,pad", [
        ((3, 3), 1, 1), ((2, 3), 3, 2), ((4, 4), 2, 0), ((1, 8), 1, 2),
    ])
    def test_backward_matches_loop_central_difference(self, kernel, stride, pad):
        # loss = sum(G * conv(x, w)): its gradients by central differences
        # of the nested-loop oracle, against Conv2d.backward
        rng = np.random.default_rng(5)
        layer = Conv2d(3, 4, kernel, stride=stride, padding=pad, dtype=np.float64)
        layer.lid = 0
        layer.w = rng.normal(size=layer.w.shape)
        layer.b = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(2, 3, 6, 9))
        y, ctx = layer.forward(x, record=True)
        g = rng.normal(size=y.shape)
        grads = {(0, "w"): np.zeros_like(layer.w), (0, "b"): np.zeros_like(layer.b)}
        gx = layer.backward(g, ctx, grads)

        def loss(xv, wv):
            return float(np.sum(g * loop_conv2d(xv, wv, layer.b, stride, pad)))

        h = 1e-3
        for arr, analytic, pick in ((x, gx, rng.choice(x.size, 40, replace=False)),
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
    assert qconv.spec() == {"type": "qconv2d", "q_in": 2, "q_out": 3, "kernel": [1, 1],
                            "stride": 1, "padding": 0, "bias": True}


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
    BN folded with and without a ReLU, ReLU fused without BN, BN that
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
