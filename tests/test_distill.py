"""Knowledge distillation tests: softened softmax, combined loss, training."""

import math

import numpy as np
import pytest

from qprune.autodiff import (
    TrainConfig,
    cross_entropy,
    evaluate_accuracy,
    forward,
    one_hot,
    softmax,
    train_loop,
)
from qprune.distill import (
    KDConfig,
    distill_train,
    kd_total_loss,
    make_student_from_plan,
    softened_softmax,
)
from qprune.exceptions import ConfigError, ShapeError
from qprune.features import synth_dataset
from qprune.pruning import build_prune_plan, apply_prune


class TestSoftenedSoftmax:
    def test_symmetric_logits(self):
        for t in (0.5, 1.0, 2.0, 10.0):
            np.testing.assert_allclose(
                softened_softmax(np.array([[0.0, 0.0]]), t), 0.5)

    def test_t1_is_plain_softmax(self, rng):
        z = rng.normal(size=(5, 7)) * 3
        np.testing.assert_array_equal(softened_softmax(z, 1.0), softmax(z))

    def test_closed_form_t2(self):
        got = softened_softmax(np.array([[2.0, 0.0]]), 2.0)[0]
        e = math.e
        np.testing.assert_allclose(got, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(got, [0.731059, 0.268941], atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        p = softened_softmax(rng.normal(size=(20, 9)) * 10, 2.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_large_temperature_approaches_uniform(self, rng):
        z = rng.normal(size=(4, 6)) * 5
        p = softened_softmax(z, 1e6)
        assert (p.max(axis=1) - p.min(axis=1)).max() <= 1e-5

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softened_softmax(np.zeros((1, 2)), 0.0)
        with pytest.raises(ValueError):
            KDConfig(temperature=-1.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan])
    def test_alpha_outside_zero_one(self, alpha):
        with pytest.raises(ConfigError, match="alpha must lie in"):
            KDConfig(alpha=alpha)


class TestKDTotalLoss:
    def test_alpha_one_equals_cross_entropy_bitwise(self, rng):
        z_s = rng.normal(size=(6, 4))
        z_t = rng.normal(size=(6, 4))
        y = one_hot(rng.integers(0, 4, size=6), 4)
        cfg = KDConfig(temperature=2.0, alpha=1.0)
        kd = kd_total_loss(z_s, z_t, y, cfg)
        ce = cross_entropy(z_s, y)
        assert float(kd) == float(ce)
        np.testing.assert_array_equal(kd.dlogits, ce.dlogits)

    def test_carries_ce_and_unscaled_kl_terms(self, rng):
        from qprune.autodiff import kl_divergence

        z_s = rng.normal(size=(5, 4))
        z_t = rng.normal(size=(5, 4))
        y = one_hot(rng.integers(0, 4, size=5), 4)
        want_kl = kl_divergence(softened_softmax(z_t, 3.0),
                                softened_softmax(z_s, 3.0))
        kls = []
        for alpha in (0.0, 0.5, 1.0):
            for t2 in (False, True):
                kd = kd_total_loss(z_s, z_t, y, KDConfig(3.0, alpha, t2))
                assert kd.ce == float(cross_entropy(z_s, y))
                kls.append(kd.kl)
        # one value at every alpha and scaling, from log-probabilities
        assert kls == [kls[0]] * 6 and kls[0] == pytest.approx(want_kl, rel=1e-12)

    def test_student_and_teacher_logits_of_other_shapes(self):
        with pytest.raises(ShapeError, match="student logits"):
            kd_total_loss(np.zeros((2, 3)), np.zeros((2, 4)), one_hot([0, 1], 3), KDConfig())

    def test_alpha_zero_identical_logits(self, rng):
        z = rng.normal(size=(3, 5))
        y = one_hot([0, 1, 2], 5)
        cfg = KDConfig(temperature=2.0, alpha=0.0)
        assert float(kd_total_loss(z, z.copy(), y, cfg)) == pytest.approx(0.0, abs=1e-12)

    def test_composed_closed_form(self):
        # alpha=.5, T=2, z_s=(2,0), z_t=(0,2), y=(1,0):
        # CE = log(1+e^-2); softened dists are (e,1)/(e+1) swapped, so
        # KL = (1 - 2/(e+1)) * 1 (log-ratio is exactly +/- 1)
        z_s = np.array([[2.0, 0.0]])
        z_t = np.array([[0.0, 2.0]])
        y = np.array([[1.0, 0.0]])
        cfg = KDConfig(temperature=2.0, alpha=0.5)
        e = math.e
        ce = math.log(1 + math.exp(-2))
        p_hi, p_lo = e / (e + 1), 1 / (e + 1)
        kl = p_lo * math.log(p_lo / p_hi) + p_hi * math.log(p_hi / p_lo)
        want = 0.5 * ce + 0.5 * kl
        assert float(kd_total_loss(z_s, z_t, y, cfg)) == pytest.approx(want, rel=1e-12)
        assert float(kd_total_loss(z_s, z_t, y, cfg)) == pytest.approx(0.294523, abs=1e-6)

    def test_nonnegative(self, rng):
        cfg = KDConfig(temperature=3.0, alpha=0.3)
        for _ in range(200):
            z_s = rng.normal(size=(2, 6)) * 4
            z_t = rng.normal(size=(2, 6)) * 4
            y = one_hot(rng.integers(0, 6, size=2), 6)
            assert float(kd_total_loss(z_s, z_t, y, cfg)) >= 0.0

    def test_small_temperature_stays_finite(self):
        # at T = 0.001 softmax(z_s / T) puts 0 on the teacher's class 1,
        # where softmax(z_t / T) puts 1: KL = (3 - 0) / T
        z_s = np.array([[3.0, 0.0, -2.0]])
        z_t = np.array([[0.0, 2.0, 1.0]])
        y = one_hot([1], 3)
        kd = kd_total_loss(z_s, z_t, y, KDConfig(temperature=0.001, alpha=0.5))
        assert kd.kl == pytest.approx(3000.0, rel=1e-12)
        assert float(kd) == pytest.approx(0.5 * kd.ce + 1500.0, rel=1e-12)
        assert np.isfinite(kd.dlogits).all()

    def test_t2_scaling_flag(self, rng):
        z_s = rng.normal(size=(4, 3))
        z_t = rng.normal(size=(4, 3))
        y = one_hot(rng.integers(0, 3, size=4), 3)
        t = 4.0
        plain = kd_total_loss(z_s, z_t, y, KDConfig(t, alpha=0.0))
        scaled = kd_total_loss(z_s, z_t, y, KDConfig(t, alpha=0.0, t2_scaling=True))
        assert float(scaled) == pytest.approx(t * t * float(plain), rel=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        cfg = KDConfig(temperature=2.0, alpha=0.4)
        z_s = rng.normal(size=(3, 5))
        z_t = rng.normal(size=(3, 5))
        y = one_hot([0, 2, 4], 5)
        loss = kd_total_loss(z_s, z_t, y, cfg)
        h = 1e-5
        for idx in np.ndindex(z_s.shape):
            zp = z_s.copy(); zp[idx] += h
            zm = z_s.copy(); zm[idx] -= h
            fd = (float(kd_total_loss(zp, z_t, y, cfg))
                  - float(kd_total_loss(zm, z_t, y, cfg))) / (2 * h)
            an = loss.dlogits[idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4


def tiny_teacher(seed=0):
    from qprune.models import build_model

    return build_model("qcnn-mini", 3, (4, 16, 16), seed=seed)


class TestStudentFromPlan:
    def test_p_zero_plan_same_architecture_fresh_weights(self):
        teacher = tiny_teacher(seed=1)
        plan = build_prune_plan(teacher, "l1", 0.0)
        student = make_student_from_plan(teacher, plan, seed=99)
        t_specs = [l.spec() for l in teacher.layers]
        s_specs = [l.spec() for l in student.layers]
        assert t_specs == s_specs
        t0 = teacher.layers[0].weights
        s0 = student.layers[0].weights
        assert not np.array_equal(t0, s0)

    def test_half_plan_shapes(self):
        teacher = tiny_teacher(seed=2)
        plan = build_prune_plan(teacher, "op", 0.5)
        student = make_student_from_plan(teacher, plan, seed=0)
        for entry in plan.entries:
            m = teacher.layers[entry.layer_index].q_out
            assert student.layers[entry.layer_index].q_out == m - len(entry.removed)

    def test_param_count_matches_pruned(self):
        from qprune.metrics import count_params

        teacher = tiny_teacher(seed=3)
        plan = build_prune_plan(teacher, "gm", 0.5)
        pruned = apply_prune(teacher, plan)
        student = make_student_from_plan(teacher, plan, seed=0)
        assert count_params(student) == count_params(pruned)


class TestDistillTrain:
    def test_initial_loss_zero_when_student_equals_teacher(self):
        # batch-norm-free model so train-mode student logits equal the
        # eval-mode teacher logits exactly
        from qprune.nn import (Flatten, GlobalAvgPool2d, Linear, ModelGraph,
                               QConv2d, ReLU)

        layers = [QConv2d(1, 4, (3, 3), padding=1, dtype=np.float32), ReLU(),
                  GlobalAvgPool2d(), Flatten(), Linear(16, 3, dtype=np.float32)]
        teacher = ModelGraph(layers, (4, 16, 16), 3, quaternion=True)
        teacher.init_params(np.random.default_rng(4))
        student = teacher.clone()
        ds = synth_dataset(3, 9, seed=0, frames=16, bins=16)
        rows = []
        cfg = TrainConfig(iterations=1, lr=0.0, optimizer="sgd", seed=7,
                          eval_every=0)
        distill_train(teacher, student, ds, KDConfig(alpha=0.0),
                      cfg, log_rows=rows)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-9)  # KL term
        assert rows[0][3] == pytest.approx(0.0, abs=1e-9)  # total at alpha=0

    def test_one_teacher_forward_per_iteration(self):
        teacher = tiny_teacher(seed=5)
        plan = build_prune_plan(teacher, "l1", 0.5)
        student = make_student_from_plan(teacher, plan, seed=1)
        ds = synth_dataset(3, 12, seed=1, frames=16, bins=16)
        teacher.forward_count = 0
        iters = 7
        cfg = TrainConfig(iterations=iters, lr=1e-3, seed=2, eval_every=0)
        distill_train(teacher, student, ds, KDConfig(), cfg)
        assert teacher.forward_count == iters

    def test_teacher_expanded_once_per_run(self, monkeypatch):
        from qprune import nn

        teacher = tiny_teacher(seed=5)
        student = make_student_from_plan(
            teacher, build_prune_plan(teacher, "l1", 0.5), seed=1)
        ds = synth_dataset(3, 12, seed=1, frames=16, bins=16)
        teacher_banks = {id(l.weights): 0 for l in teacher.walk()
                         if isinstance(l, nn.QConv2d)}
        real_expand = nn.hamilton_expand

        def counting_expand(banks):
            if id(banks) in teacher_banks:
                teacher_banks[id(banks)] += 1
            return real_expand(banks)

        monkeypatch.setattr(nn, "hamilton_expand", counting_expand)
        cfg = TrainConfig(iterations=5, lr=1e-3, seed=2, eval_every=0)
        distill_train(teacher, student, ds, KDConfig(), cfg)
        assert list(teacher_banks.values()) == [1] * 6

    def test_teacher_gets_the_students_mixed_batch(self, monkeypatch):
        from qprune import autodiff, distill
        from qprune.nn import freeze

        teacher = tiny_teacher(seed=5)
        student = make_student_from_plan(
            teacher, build_prune_plan(teacher, "l1", 0.5), seed=1)
        ds = synth_dataset(3, 12, seed=1, frames=16, bins=16)
        student_in, teacher_in = [], []
        real_forward = autodiff.forward

        def recording_forward(model, batch, mode="train"):
            student_in.append(batch)
            return real_forward(model, batch, mode)

        def recording_freeze(model):
            frozen = freeze(model)
            return lambda batch: teacher_in.append(batch) or frozen(batch)

        monkeypatch.setattr(autodiff, "forward", recording_forward)
        monkeypatch.setattr(distill, "freeze", recording_freeze)
        cfg = TrainConfig(iterations=3, lr=1e-3, seed=2, eval_every=0,
                          use_mixup=True)
        distill_train(teacher, student, ds, KDConfig(), cfg)
        assert len(teacher_in) == len(student_in) == 3
        for xt, xs in zip(teacher_in, student_in):
            np.testing.assert_array_equal(xt, xs)

    def test_multi_label_teacher_rejected(self):
        from qprune.exceptions import ConfigError
        from qprune.models import build_model

        teacher = build_model("qcnn-mini", 3, (4, 16, 16), seed=6, task="multi")
        student = build_model("qcnn-mini", 3, (4, 16, 16), seed=0, task="multi")
        ds = synth_dataset(3, 9, seed=2, frames=16, bins=16, multilabel=True)
        with pytest.raises(ConfigError, match="softmax"):
            distill_train(teacher, student, ds, KDConfig(), TrainConfig(iterations=1))
        assert teacher.forward_count == student.forward_count == 0

    def test_class_count_mismatch(self):
        from qprune.models import build_model

        teacher = tiny_teacher(seed=6)
        student = build_model("qcnn-mini", 4, (4, 16, 16), seed=0)
        ds = synth_dataset(3, 9, seed=2, frames=16, bins=16)
        with pytest.raises(ShapeError):
            distill_train(teacher, student, ds, KDConfig(),
                          TrainConfig(iterations=1))

    def test_kd_reaches_scratch_accuracy_on_toy_data(self):
        # paired training runs with matched budgets: the KD student must
        # land within one accuracy point of (or above) the CE-only student
        ds = synth_dataset(3, 90, seed=3, frames=16, bins=16)
        teacher = tiny_teacher(seed=7)
        tc = TrainConfig(iterations=250, lr=3e-3, batch_size=16, seed=11,
                         eval_every=50, target_metric=1.0)
        train_loop(teacher, ds.features, ds.labels, tc)

        plan = build_prune_plan(teacher, "op", 0.5)
        scratch = make_student_from_plan(teacher, plan, seed=21)
        kd_student = scratch.clone()

        budget = TrainConfig(iterations=300, lr=3e-3, batch_size=16, seed=13,
                             eval_every=50)
        train_loop(scratch, ds.features, ds.labels, budget)
        distill_train(teacher, kd_student, ds, KDConfig(alpha=0.5),
                      budget)
        acc_scratch = evaluate_accuracy(scratch, ds.features, ds.labels)
        acc_kd = evaluate_accuracy(kd_student, ds.features, ds.labels)
        assert acc_kd >= acc_scratch - 0.01
