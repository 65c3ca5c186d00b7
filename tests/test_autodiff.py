"""Forward/backward machinery, losses, optimizers, and gradient checks."""

import math
import os
import threading

import numpy as np
import pytest
from conftest import (
    finite_difference_check,
    toy_nested_residual_model,
    toy_quaternion_model,
    toy_real_model,
    toy_residual_model,
)

from qprune import autodiff
from qprune.autodiff import (
    Loss,
    OptimState,
    TrainConfig,
    backward,
    binary_cross_entropy,
    cross_entropy,
    forward,
    inference,
    kl_divergence,
    mixup,
    mse_loss,
    one_hot,
    softmax,
    step,
    train_loop,
)
from qprune.exceptions import ConfigError, DivergenceError, ShapeError
from qprune.nn import Flatten, Linear, ModelGraph, freeze, model_input


def identity_linear_model(n):
    layer = Linear(n, n, bias=False, dtype=np.float64)
    layer.w = np.eye(n)
    return ModelGraph([layer], (n,), n, quaternion=False)


class TestForward:
    def test_zero_weight_model_zero_logits(self):
        model = toy_quaternion_model()
        for _, layer, name, arr in model.all_params():
            layer.set_array(name, np.zeros_like(arr))
        x = np.random.default_rng(0).normal(size=(2, 4, 1, 8, 8))
        z, _ = forward(model, x)
        np.testing.assert_array_equal(z, 0)

    def test_identity_linear(self):
        model = identity_linear_model(3)
        x = np.array([[1.0, -2.0, 0.5]])
        z, _ = forward(model, x)
        np.testing.assert_array_equal(z, x)

    def test_two_layer_compose_oracle(self):
        rng = np.random.default_rng(1)
        l1 = Linear(3, 4, dtype=np.float64)
        l2 = Linear(4, 2, dtype=np.float64)
        model = ModelGraph([l1, l2], (3,), 2, quaternion=False)
        model.init_params(rng)
        x = rng.normal(size=(5, 3))
        z, _ = forward(model, x)
        want = (x @ l1.w.T + l1.b) @ l2.w.T + l2.b
        np.testing.assert_allclose(z, want, rtol=1e-6)

    @pytest.mark.parametrize("mode", ["Train", "EVAL", "test"])
    def test_unknown_mode_rejected(self, mode):
        model = toy_quaternion_model()
        x = np.zeros((2, 4, 1, 8, 8))
        for run in (forward, inference):
            with pytest.raises(ValueError, match="mode must be"):
                run(model, x, mode=mode)
        assert model.forward_count == 0

    def test_tape_replay_bit_exact(self):
        model = toy_quaternion_model()
        x = np.random.default_rng(2).normal(size=(3, 4, 1, 8, 8))
        z, tape = forward(model, x, mode="train")
        np.testing.assert_array_equal(tape.replay(), z)


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        z = np.array([[100.0, 0.0, 0.0]])
        y = np.array([[1.0, 0.0, 0.0]])
        assert float(cross_entropy(z, y)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_ln_g(self):
        for g in (2, 5, 10):
            z = np.zeros((1, g))
            y = one_hot([0], g)
            assert float(cross_entropy(z, y)) == pytest.approx(math.log(g))

    def test_closed_form_value(self):
        # z=(2,0), y=(1,0) -> log(1 + e^-2)
        loss = cross_entropy(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert float(loss) == pytest.approx(math.log(1 + math.exp(-2)), rel=1e-9)
        assert float(loss) == pytest.approx(0.126928, abs=1e-6)

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((1, 2)), np.array([[0.5, 0.2]]))

    def test_nonnegative_and_zero_iff_onehot(self, rng):
        for _ in range(200):
            z = rng.normal(size=(1, 4)) * 5
            y = one_hot([int(rng.integers(4))], 4)
            val = float(cross_entropy(z, y))
            assert val >= 0.0
            p = softmax(z)
            if val < 1e-12:
                assert p[0, y[0].argmax()] > 1 - 1e-9


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_zero_log_zero(self):
        # teacher (1,0) vs student (0.5,0.5) -> 1*log(2) + 0
        assert kl_divergence([[1.0, 0.0]], [[0.5, 0.5]]) == pytest.approx(
            math.log(2), rel=1e-12)

    def test_closed_form(self):
        got = kl_divergence([[0.5, 0.5]], [[0.25, 0.75]])
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.143841, abs=1e-6)

    def test_student_zero_where_teacher_positive(self):
        with pytest.raises(ValueError):
            kl_divergence([[0.5, 0.5]], [[1.0, 0.0]])

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            kl_divergence([[0.5, 0.4]], [[0.5, 0.5]])

    def test_gibbs_inequality_random_pairs(self, rng):
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5))[None]
            q = rng.dirichlet(np.ones(5))[None]
            val = kl_divergence(p, q)
            assert val >= -1e-12
            if np.allclose(p, q):
                assert val == pytest.approx(0.0, abs=1e-12)


class TestBackward:
    def test_constant_loss_zero_grads(self):
        model = toy_quaternion_model()
        x = np.random.default_rng(3).normal(size=(2, 4, 1, 8, 8))
        z, tape = forward(model, x, mode="train")
        loss = Loss(1.0, np.zeros_like(z), tape)
        grads = backward(tape, loss)
        for g in grads.values():
            np.testing.assert_array_equal(g, 0)

    def test_scalar_square_gradient(self):
        # model output z = w * 1, loss = z^2; at w=3 the gradient is 6
        layer = Linear(1, 1, bias=False, dtype=np.float64)
        layer.w = np.array([[3.0]])
        model = ModelGraph([layer], (1,), 1, quaternion=False)
        x = np.array([[1.0]])
        z, tape = forward(model, x)
        loss = Loss(float(z[0, 0] ** 2), 2 * z, tape)
        grads = backward(tape, loss)
        assert grads[(layer.lid, "w")][0, 0] == pytest.approx(6.0)

    def test_foreign_loss_rejected(self):
        model = toy_real_model()
        x = np.random.default_rng(4).normal(size=(2, 3, 8, 8))
        _, tape = forward(model, x)
        z2, tape2 = forward(model, x)
        loss2 = cross_entropy(z2, one_hot([0, 1], 2), tape2)
        with pytest.raises(ValueError):
            backward(tape, loss2)

    @pytest.mark.parametrize("name", ["qcnn-mini", "cnn-mini"])
    def test_first_layer_input_gradient_not_computed(self, name, monkeypatch):
        from qprune import nn
        from qprune.models import build_model

        model = build_model(name, 3, (4, 16, 16), seed=2)
        x = nn.model_input(model, np.random.default_rng(6).normal(
            size=(4, 4, 1, 16, 16)).astype(np.float32))
        z, tape = forward(model, x, mode="train")
        loss = cross_entropy(z, one_hot([0, 1, 2, 0], 3), tape)
        col2im_calls = []
        real_col2im = nn._col2im
        monkeypatch.setattr(nn, "_col2im", lambda *a: col2im_calls.append(1)
                            or real_col2im(*a))
        grads = backward(tape, loss)
        convs = sum(isinstance(l, (nn.Conv2d, nn.QConv2d)) for l in model.walk())
        assert len(col2im_calls) == convs - 1

        # every layer computing its input gradient gives the same parameter
        # gradients, bit for bit
        full = {key: np.zeros_like(g) for key, g in grads.items()}
        g = np.asarray(loss.dlogits, dtype=z.dtype)
        for layer, ctx in reversed(tape.records):
            g = layer.backward(g, ctx, full)
        assert g.shape == x.shape and len(col2im_calls) == 2 * convs - 1
        for key in grads:
            np.testing.assert_array_equal(grads[key], full[key])

    def test_loss_must_come_from_tape_output(self):
        model = toy_real_model()
        x = np.random.default_rng(5).normal(size=(2, 3, 8, 8))
        _, tape = forward(model, x)
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 2)), one_hot([0, 1], 2), tape)


class TestGradientChecks:
    """Central finite differences (float64, h=1e-3) across layer types."""

    def _ce_loss(self, labels):
        def make(z, tape):
            return cross_entropy(z, one_hot(labels, z.shape[1]), tape)
        return make

    def test_quaternion_stack(self):
        model = toy_quaternion_model(seed=10, for_gradcheck=True)
        x = np.random.default_rng(20).normal(size=(4, 4, 1, 8, 8))
        finite_difference_check(model, x, self._ce_loss([0, 1, 2, 0]),
                                n_samples=120)

    def test_real_stack(self):
        model = toy_real_model(seed=11, for_gradcheck=True)
        x = np.random.default_rng(21).normal(size=(4, 3, 8, 8))
        finite_difference_check(model, x, self._ce_loss([0, 1, 1, 0]),
                                n_samples=120)

    def test_residual_and_qlinear_stack(self):
        model = toy_residual_model(seed=12, for_gradcheck=True)
        x = np.random.default_rng(22).normal(size=(3, 4, 1, 6, 6))
        finite_difference_check(model, x, self._ce_loss([0, 1, 0]),
                                n_samples=120)

    def test_residual_block_inside_residual_block(self):
        model = toy_nested_residual_model(seed=14, for_gradcheck=True)
        x = np.random.default_rng(24).normal(size=(3, 4, 1, 6, 6))
        finite_difference_check(model, x, self._ce_loss([0, 1, 0]),
                                n_samples=120)

    def test_bce_loss_path(self):
        model = toy_real_model(seed=13, for_gradcheck=True)
        x = np.random.default_rng(23).normal(size=(3, 3, 8, 8))
        y = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

        def make(z, tape):
            return binary_cross_entropy(z, y, tape)

        finite_difference_check(model, x, make, n_samples=60)

    def test_maxpool_backward_routing_oracle(self, rng):
        # direct oracle: gradient scatters to each window's argmax only, the
        # first maximum in row-major order when taps tie
        from qprune.nn import MaxPool2d

        for window, stride, ties in [(2, 2, False), (2, 2, True), (3, 1, False),
                                     (3, 1, True), (2, 3, True)]:
            pool = MaxPool2d(window, stride)
            x = rng.normal(size=(2, 3, 7, 7))
            if ties:
                x = np.round(x)
            y, ctx = pool.forward(x, record=True)
            g = rng.normal(size=y.shape)
            gx = pool.backward(g, ctx, {})
            want = np.zeros_like(x)
            for b, c, i, j in np.ndindex(y.shape):
                win = x[b, c, stride * i : stride * i + window, stride * j : stride * j + window]
                assert y[b, c, i, j] == win.max()
                a = np.unravel_index(win.argmax(), (window, window))
                want[b, c, stride * i + a[0], stride * j + a[1]] += g[b, c, i, j]
            np.testing.assert_allclose(gx, want, rtol=1e-12)


class TestOptimizers:
    def test_zero_gradients_no_change(self):
        model = toy_real_model()
        before = [a.copy() for _, _, _, a in model.all_params()]
        opt = OptimState(model, "adam", lr=0.1)
        grads = {(lid, n): np.zeros_like(a) for lid, _, n, a in model.all_params()}
        step(opt, grads)
        for (b, (_, _, _, a)) in zip(before, model.all_params()):
            np.testing.assert_array_equal(b, a)

    def test_sgd_update_rule(self):
        layer = Linear(1, 1, bias=False, dtype=np.float64)
        layer.w = np.array([[1.0]])
        model = ModelGraph([layer], (1,), 1, quaternion=False)
        opt = OptimState(model, "sgd", lr=0.1)
        step(opt, {(layer.lid, "w"): np.array([[1.0]])})
        assert layer.w[0, 0] == pytest.approx(0.9)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step with g=1 everywhere moves by ~lr
        layer = Linear(2, 2, bias=False, dtype=np.float64)
        layer.w = np.ones((2, 2))
        model = ModelGraph([layer], (2,), 2, quaternion=False)
        lr = 0.05
        opt = OptimState(model, "adam", lr=lr)
        step(opt, {(layer.lid, "w"): np.ones((2, 2))})
        # closed form: mhat=1, vhat=1 -> delta = lr/(1+eps)
        expected = 1.0 - lr / (1.0 + 1e-8)
        np.testing.assert_allclose(layer.w, expected, rtol=1e-12)

    def test_gradient_shape_mismatch(self):
        layer = Linear(2, 2, dtype=np.float64)
        model = ModelGraph([layer], (2,), 2, quaternion=False)
        opt = OptimState(model, "sgd", lr=0.1)
        with pytest.raises(ShapeError):
            step(opt, {(layer.lid, "w"): np.zeros((3, 3)),
                       (layer.lid, "b"): np.zeros(2)})

    def test_sgd_decreases_convex_quadratic(self):
        # loss = mean((z - t)^2), z = x W^T with x = I; curvature bound lr < 1
        layer = Linear(2, 2, bias=False, dtype=np.float64)
        layer.w = np.array([[2.0, 0.5], [-1.0, 1.5]])
        model = ModelGraph([layer], (2,), 2, quaternion=False)
        target = np.array([[0.0, 0.0], [0.0, 0.0]])
        x = np.eye(2)
        for lr in (0.9, 0.5, 0.1):
            layer.w = np.array([[2.0, 0.5], [-1.0, 1.5]])
            z, tape = forward(model, x)
            before = mse_loss(z, target, tape)
            opt = OptimState(model, "sgd", lr=lr)
            step(opt, backward(tape, before))
            z2, _ = forward(model, x)
            after = float(mse_loss(z2, target))
            assert after < float(before)

    @pytest.mark.parametrize("lr", [-1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_learning_rate_outside_its_domain(self, kind, lr):
        with pytest.raises(ConfigError):
            OptimState(toy_real_model(), kind, lr=lr)

    def test_zero_learning_rate_is_a_no_op(self):
        model = toy_real_model()
        before = [a.copy() for *_, a in model.all_params()]
        opt = OptimState(model, "adam", lr=0.0)
        step(opt, {(lid, n): np.ones_like(a) for lid, _, n, a in model.all_params()})
        for b, (*_, a) in zip(before, model.all_params()):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def textbook_adam(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        mhat, vhat = m / (1 - b1 ** t), v / (1 - b2 ** t)
        return p - lr * mhat / (np.sqrt(vhat) + eps), m, v

    def test_chunked_adam_equals_the_textbook_expression(self):
        # float32 and float64 weights of more than one chunk, and a weight
        # whose memory is not C-contiguous, whose flat view would be a copy
        layers = [Linear(300, 300), Linear(256, 300, dtype=np.float64), Linear(7, 5)]
        assert min(l.w.size for l in layers[:2]) > OptimState.chunk
        model = ModelGraph(layers, (300,), 5, quaternion=False)
        model.init_params(np.random.default_rng(0))
        layers[2].w = np.asfortranarray(layers[2].w)
        assert not layers[2].w.flags.c_contiguous
        ref = {(lid, n): (a.copy(), np.zeros_like(a), np.zeros_like(a))
               for lid, _, n, a in model.all_params()}
        opt = OptimState(model, "adam", lr=1e-2)
        rng = np.random.default_rng(1)
        for t in (1, 2, 3):
            grads = {(lid, n): np.asarray(rng.normal(size=a.shape), a.dtype)
                     for lid, _, n, a in model.all_params()}
            step(opt, grads)
            for lid, _, n, a in model.all_params():
                p, m, v = ref[(lid, n)]
                ref[(lid, n)] = p, m, v = self.textbook_adam(p, grads[(lid, n)], m, v,
                                                             t, 1e-2)
                np.testing.assert_array_equal(a, p)
                np.testing.assert_array_equal(opt.m[(lid, n)], m)
                np.testing.assert_array_equal(opt.v[(lid, n)], v)

    def test_dead_kernel_taps_stay_put(self):
        # on a 2x1 map a padded 3x3 kernel reads the map with its middle
        # column only: the others get a gradient of exactly 0.0 and Adam
        # leaves them where they are
        from qprune.nn import GlobalAvgPool2d, QConv2d

        model = ModelGraph([QConv2d(1, 2, (3, 3), padding=1), GlobalAvgPool2d(),
                            Flatten(), Linear(8, 3)], (4, 2, 1), 3, quaternion=True)
        model.init_params(np.random.default_rng(2))
        banks = model.layers[0].weights
        before = banks.copy()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4, 1, 2, 1)).astype(np.float32)
        train_loop(model, x, rng.integers(0, 3, 12),
                   TrainConfig(iterations=4, lr=1e-2, batch_size=6, seed=4, eval_every=0))
        np.testing.assert_array_equal(banks[..., [0, 2]], before[..., [0, 2]])
        assert not np.any(banks[..., 1] == before[..., 1])
        z, tape = forward(model, x)
        g = backward(tape, cross_entropy(z, one_hot(rng.integers(0, 3, 12), 3), tape))
        assert np.all(g[(0, "weights")][..., [0, 2]] == 0.0)
        assert not np.signbit(g[(0, "weights")][..., [0, 2]]).any()


class TestMixup:
    def test_lambda_one(self, rng):
        xa, xb = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        ya, yb = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        mx, my = mixup(xa, xb, ya, yb, lam=1.0)
        np.testing.assert_array_equal(mx, xa)
        np.testing.assert_array_equal(my, ya)

    def test_lambda_zero(self, rng):
        xa, xb = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        ya, yb = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        mx, my = mixup(xa, xb, ya, yb, lam=0.0)
        np.testing.assert_array_equal(mx, xb)
        np.testing.assert_array_equal(my, yb)

    def test_lambda_half_elementwise(self, rng):
        xa, xb = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        ya, yb = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mx, my = mixup(xa, xb, ya, yb, lam=0.5)
        for idx in np.ndindex(xa.shape):
            assert mx[idx] == pytest.approx((xa[idx] + xb[idx]) / 2)
        for idx in np.ndindex(ya.shape):
            assert my[idx] == pytest.approx((ya[idx] + yb[idx]) / 2)

    def test_lambda_out_of_range(self, rng):
        x = rng.normal(size=(1, 2))
        with pytest.raises(ValueError):
            mixup(x, x, x, x, lam=1.5)


class TestTrainLoop:
    def test_divergence_aborts(self):
        from qprune.nn import Conv2d, GlobalAvgPool2d, ReLU

        layers = [Conv2d(4, 4, (3, 3), padding=1, dtype=np.float32), ReLU(),
                  GlobalAvgPool2d(), Flatten(),
                  Linear(4, 2, dtype=np.float32)]
        model = ModelGraph(layers, (4, 8, 8), 2, quaternion=False)
        model.init_params(np.random.default_rng(0))
        feats = np.random.default_rng(6).normal(
            size=(8, 4, 1, 8, 8)).astype(np.float32)
        labels = np.array([0, 1] * 4)
        cfg = TrainConfig(iterations=10, lr=1e30, optimizer="sgd", seed=0,
                          eval_every=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_loop(model, feats, labels, cfg)

    def test_deterministic_given_seed(self):
        from qprune.models import build_model

        feats = np.random.default_rng(8).normal(
            size=(32, 4, 1, 16, 16)).astype(np.float32)
        labels = np.random.default_rng(9).integers(0, 2, size=32)
        outs = []
        for _ in range(2):
            model = build_model("qcnn-mini", 2, (4, 16, 16), seed=5)
            cfg = TrainConfig(iterations=5, lr=1e-3, seed=3, eval_every=0)
            train_loop(model, feats, labels, cfg)
            outs.append(np.concatenate([a.ravel() for _, _, _, a in
                                        model.all_params()]))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_negative_iterations_rejected(self):
        from qprune.exceptions import ConfigError

        model = identity_linear_model(2)
        with pytest.raises(ConfigError):
            train_loop(model, np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                       TrainConfig(iterations=-1))

    def test_multi_label_model_trains_on_sigmoid_cross_entropy(self):
        from qprune.features import synth_dataset
        from qprune.models import build_model

        ds = synth_dataset(4, 40, seed=2, frames=16, bins=16, multilabel=True)
        runs = []
        for loss_fn in (None, lambda z, yb, tape: binary_cross_entropy(z, yb, tape)):
            model = build_model("qcnn-mini", 4, (4, 16, 16), seed=1, task="multi")
            rows = []
            result = train_loop(model, ds.features, ds.labels,
                                TrainConfig(iterations=3, eval_every=3),
                                loss_fn=loss_fn, log_rows=rows)
            assert result.history is rows and result.iterations_run == 3
            runs.append(rows)
        assert runs[0] == runs[1]  # the default loss of a multi model is BCE
        assert [it for it, _, _ in runs[0]] == [1, 2, 3]
        assert 0.0 <= runs[0][-1][2] <= 1.0  # a mAP

    def test_eval_off_runs_no_hidden_eval(self):
        from qprune.models import build_model

        feats = np.random.default_rng(8).normal(
            size=(32, 4, 1, 16, 16)).astype(np.float32)
        labels = np.random.default_rng(9).integers(0, 2, size=32)
        model = build_model("qcnn-mini", 2, (4, 16, 16), seed=5)
        model.forward_count = 0
        cfg = TrainConfig(iterations=4, lr=1e-3, seed=3, eval_every=0)
        result = train_loop(model, feats, labels, cfg)
        assert model.forward_count == 4
        assert math.isnan(result.best_metric)


# ---------------------------------------------------------------------------
# evaluation split between the caller and one worker
# ---------------------------------------------------------------------------

SPECS = ["qcnn-mini", "qcnn-mini-p50", "qresnet-mini", "cnn-mini"]
EVAL_FEATURES = np.random.default_rng(4).normal(size=(70, 4, 1, 32, 16)).astype(np.float32)
MANY_FEATURES = np.random.default_rng(5).normal(size=(519, 4, 1, 32, 16)).astype(np.float32)


def _spec_model(name):
    from qprune.models import build_model
    from qprune.pruning import apply_prune, build_prune_plan

    spec, _, classes = name.partition("-c")  # "-c20": a head of 20 classes
    model = build_model(spec.removesuffix("-p50"), int(classes or 4), (4, 32, 16), seed=1)
    if spec.endswith("-p50"):
        model = apply_prune(model, build_prune_plan(model, "op", 0.5))
    inference(model, model_input(model, EVAL_FEATURES[:64]), mode="train")  # BN stats
    return model


def _serial_logits(model, batch_size, features=EVAL_FEATURES):
    frozen = freeze(model)
    return [(s, frozen(model_input(model, features[s : s + batch_size])))
            for s in range(0, len(features), batch_size)]


@pytest.fixture
def split(monkeypatch):
    """Puts _eval_logits on its parallel path: numpy's OpenBLAS, where
    found, else a stand-in control, runs 2 threads and 2 CPUs are reported.
    Yields the control and a list of (ran on the worker, logits), one entry
    per batch that _eval_logits' parallel path ran."""
    control = autodiff._blas_threads()
    if control is None:
        count = [1]
        control = (lambda: count[0], lambda k: count.__setitem__(0, k), None)
    before = control[0]()
    control[1](2)
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: control)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs, caller, run = [], threading.get_ident(), autodiff._run_layers

    def spy(layers, x, *args, **kwargs):
        out = run(layers, x, *args, **kwargs)
        runs.append((threading.get_ident() != caller, out[0]))
        return out

    monkeypatch.setattr(autodiff, "_run_layers", spy)
    yield control, runs
    control[1](before)


def _assert_same(got, want):
    assert [s for s, _ in got] == [s for s, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("batch_size", [1, 7, 16, 53, 64, 65, 100, 129])
@pytest.mark.parametrize("name", SPECS + ["qcnn-mini-c20", "cnn-mini-c50"])
def test_split_logits_are_the_serial_frozen_logits(split, name, batch_size):
    model = _spec_model(name)
    control, runs = split
    features = MANY_FEATURES[: 4 * batch_size + 3]  # five batches, the last of 3
    runs.clear()
    got = autodiff._eval_logits(model, features, batch_size)
    assert control[0]() == 2
    _assert_same(got, _serial_logits(model, batch_size, features))
    # the worker ran exactly the odd batches, the caller the even ones
    for on_worker, batches in ((True, got[1::2]), (False, got[::2])):
        assert [id(z) for w, z in runs if w == on_worker] == [id(z) for _, z in batches]
    runs.clear()  # one batch runs serially
    _assert_same(autodiff._eval_logits(model, features[:batch_size], batch_size),
                 _serial_logits(model, batch_size, features[:batch_size]))
    assert not runs


@pytest.mark.parametrize("how", ["no control", "one blas thread", "one cpu"])
@pytest.mark.parametrize("name", SPECS)
def test_serial_path_gives_the_same_logits(split, monkeypatch, name, how):
    model = _spec_model(name)
    control, runs = split
    want = autodiff._eval_logits(model, EVAL_FEATURES, 53)
    assert runs
    runs.clear()
    if how == "no control":
        monkeypatch.setattr(autodiff, "_blas_threads", lambda: None)
    elif how == "one blas thread":
        control[1](1)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _assert_same(autodiff._eval_logits(model, EVAL_FEATURES, 53), want)
    assert not runs


@pytest.mark.parametrize("batch_size", [1, 16, 23, 64, 70, 500])
def test_split_counts_one_forward_per_batch(split, batch_size):
    model = _spec_model("qcnn-mini")
    model.forward_count = 0
    autodiff.evaluate_accuracy(model, EVAL_FEATURES, np.zeros(70, int), batch_size)
    assert model.forward_count == -(-70 // batch_size)


@pytest.mark.parametrize("on", ["worker", "caller"])
def test_a_raising_layer_restores_the_blas_threads(split, monkeypatch, on):
    model = _spec_model("qcnn-mini")
    control, _ = split
    spy, caller, runs = autodiff._run_layers, threading.get_ident(), []

    def fail_third_run(layers, x, *args, **kwargs):
        if (threading.get_ident() != caller) == (on == "worker"):
            runs.append(len(x))
            if len(runs) == 3:
                raise RuntimeError("a layer failed")
        return spy(layers, x, *args, **kwargs)

    monkeypatch.setattr(autodiff, "_run_layers", fail_third_run)
    with pytest.raises(RuntimeError, match="a layer failed"):  # 9 batches: 5 caller, 4 worker
        autodiff._eval_logits(model, EVAL_FEATURES, 8)
    assert control[0]() == 2
    monkeypatch.setattr(autodiff, "_run_layers", spy)  # the worker still serves
    _assert_same(autodiff._eval_logits(model, EVAL_FEATURES, 16), _serial_logits(model, 16))
