"""Forward/backward machinery, losses, optimizers, and gradient checks."""

import math

import numpy as np
import pytest
from conftest import (
    finite_difference_check,
    toy_quaternion_model,
    toy_real_model,
    toy_residual_model,
)

from qprune.autodiff import (
    Loss,
    OptimState,
    TrainConfig,
    backward,
    binary_cross_entropy,
    cross_entropy,
    forward,
    kl_divergence,
    mixup,
    mse_loss,
    one_hot,
    softmax,
    step,
    train_loop,
)
from qprune.exceptions import DivergenceError, ShapeError
from qprune.nn import Flatten, Linear, ModelGraph


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

    def test_bce_loss_path(self):
        model = toy_real_model(seed=13, for_gradcheck=True)
        x = np.random.default_rng(23).normal(size=(3, 3, 8, 8))
        y = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

        def make(z, tape):
            return binary_cross_entropy(z, y, tape)

        finite_difference_check(model, x, make, n_samples=60)

    def test_maxpool_backward_routing_oracle(self, rng):
        # direct oracle: gradient scatters to each window's argmax only
        from qprune.nn import MaxPool2d

        pool = MaxPool2d(2)
        x = rng.normal(size=(2, 3, 6, 6))
        y, ctx = pool.forward(x, record=True)
        g = rng.normal(size=y.shape)
        gx = pool.backward(g, ctx, {})
        want = np.zeros_like(x)
        for b in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(3):
                        win = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        a = np.unravel_index(win.argmax(), (2, 2))
                        want[b, c, 2 * i + a[0], 2 * j + a[1]] += g[b, c, i, j]
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
