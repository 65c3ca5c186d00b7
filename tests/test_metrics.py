"""Metric oracles (AP/mAP brute force), parameter/MAC accounting, timing."""

import numpy as np
import pytest

from qprune.exceptions import FormatError, ShapeError, UndefinedMetricError
from qprune.metrics import (
    EvalReport,
    average_precision,
    count_macs,
    count_params,
    fold_accuracy,
    mean_average_precision,
    read_report_csv,
    timed_inference,
    write_report_csv,
)
from qprune.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ModelGraph,
    QBatchNorm2d,
    QConv2d,
    QLinear,
    ReLU,
)


def brute_force_ap(scores, labels):
    """Exhaustive-rank AP: walk the ranking one example at a time,
    accumulating precision at each positive (stable ties by index)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    n_pos = sum(1 for l in labels if l > 0)
    for rank, i in enumerate(order, start=1):
        if labels[i] > 0:
            hits += 1
            total += hits / rank
    return total / n_pos


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert average_precision(scores, labels) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        scores = np.array([0.9, 0.5, 0.3])
        labels = np.array([1, 0, 1])
        assert average_precision(scores, labels) == pytest.approx((1 + 2 / 3) / 2)

    def test_single_positive_example(self):
        assert average_precision(np.array([0.5]), np.array([1])) == 1.0

    def test_no_positives(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.5, 0.4]), np.array([0, 0]))

    def test_ties_broken_by_original_index(self):
        scores = np.array([0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0])
        # with stable ordering the positive sits at rank 2
        assert average_precision(scores, labels) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 15))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            got = average_precision(scores, labels)
            want = brute_force_ap(scores.tolist(), labels.tolist())
            assert abs(got - want) <= 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0] = 1
        base = average_precision(scores, labels)
        for f in (lambda s: 2 * s + 3, np.tanh, lambda s: s ** 3):
            assert average_precision(f(scores), labels) == pytest.approx(base)


class TestMeanAveragePrecision:
    def test_perfect_scores(self):
        labels = np.eye(4, dtype=int)
        assert mean_average_precision(labels.astype(float), labels).value == 1.0

    def test_two_class_mean(self):
        scores = np.array([[0.9, 0.9], [0.1, 0.8], [0.5, 0.1]])
        labels = np.array([[1, 0], [0, 0], [1, 1]])
        rep = mean_average_precision(scores, labels)
        ap0 = average_precision(scores[:, 0], labels[:, 0])
        ap1 = average_precision(scores[:, 1], labels[:, 1])
        assert rep.value == pytest.approx((ap0 + ap1) / 2)

    def test_random_matrix_matches_oracle(self, rng):
        scores = rng.normal(size=(20, 5))
        labels = (rng.random((20, 5)) < 0.3).astype(int)
        labels[0] = 1  # every class has a positive
        rep = mean_average_precision(scores, labels)
        want = np.mean([brute_force_ap(scores[:, g].tolist(),
                                       labels[:, g].tolist())
                        for g in range(5)])
        assert abs(rep.value - want) <= 1e-12

    def test_empty_class_skipped_with_warning(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.4]])
        labels = np.array([[1, 0], [0, 0]])
        with pytest.warns(UserWarning):
            rep = mean_average_precision(scores, labels)
        assert rep.value == 1.0
        assert rep.per_class[1] is None

    def test_all_classes_empty(self):
        with pytest.raises(UndefinedMetricError):
            mean_average_precision(np.zeros((3, 2)), np.zeros((3, 2), dtype=int))


class TestFoldAccuracy:
    def test_all_correct(self):
        assert fold_accuracy([(5, 5), (3, 3)]) == 1.0

    def test_two_folds(self):
        assert fold_accuracy([(1, 2), (1, 1)]) == 0.75

    def test_random_folds_exact(self, rng):
        folds = [(int(rng.integers(0, t + 1)), int(t))
                 for t in rng.integers(1, 50, size=10)]
        want = sum(c / t for c, t in folds) / len(folds)
        assert fold_accuracy(folds) == pytest.approx(want, rel=1e-15)

    def test_zero_total_fold(self):
        with pytest.raises(UndefinedMetricError):
            fold_accuracy([(1, 2), (0, 0)])

    def test_no_folds(self):
        with pytest.raises(UndefinedMetricError, match="at least one fold"):
            fold_accuracy([])


@pytest.mark.parametrize("metric,scores,labels", [
    (average_precision, np.zeros(3), np.ones(2)),
    (average_precision, np.zeros((2, 1)), np.ones((2, 1))),  # not one class
    (mean_average_precision, np.zeros((2, 2)), np.ones((2, 3))),
    (mean_average_precision, np.zeros(2), np.ones(2)),  # not a matrix
], ids=["ap_lengths", "ap_matrix", "map_widths", "map_vector"])
def test_scores_and_labels_of_other_shapes(metric, scores, labels):
    with pytest.raises(ShapeError):
        metric(scores, labels)


class TestCountParams:
    def test_real_conv_4in_4out_is_144(self):
        model = ModelGraph([Conv2d(4, 4, (3, 3), bias=False)], (4, 8, 8), 1,
                           quaternion=False)
        assert count_params(model) == 144

    def test_quaternion_conv_is_36(self):
        model = ModelGraph([QConv2d(1, 1, (3, 3), bias=False)], (4, 8, 8), 1,
                           quaternion=True)
        assert count_params(model) == 36

    def test_empty_model(self):
        assert count_params(ModelGraph([], (4, 4, 4), 2, quaternion=True)) == 0

    def test_counts_bias_and_bn_affine(self):
        layers = [QConv2d(1, 2, (3, 3)), QBatchNorm2d(2)]
        model = ModelGraph(layers, (4, 8, 8), 1, quaternion=True)
        # kernels 4*2*1*9 = 72, bias 4*2 = 8, gamma+beta 2 * (4*2) = 16
        assert count_params(model) == 72 + 8 + 16

    def test_conversion_quarters_conv_kernels(self):
        from qprune.models import build_model
        from qprune.nn import convert_architecture

        real = build_model("cnn-mini", 4, (4, 32, 16), seed=0)
        quat = convert_architecture(real, seed=0)
        for rl, ql in zip(real.layers, quat.layers):
            if isinstance(rl, Conv2d):
                r = sum(a.size for n, a in rl.params() if n == "w")
                q = sum(a.size for n, a in ql.params() if n == "weights")
                assert q * 4 == r

    def test_prune_delta_matches_analytic_formula(self):
        from qprune.pruning import apply_prune, build_prune_plan

        layers = [
            QConv2d(1, 4, (3, 3), padding=1), QBatchNorm2d(4), ReLU(),
            QConv2d(4, 8, (3, 3), padding=1), QBatchNorm2d(8), ReLU(),
            GlobalAvgPool2d(), Flatten(), Linear(32, 3),
        ]
        model = ModelGraph(layers, (4, 8, 8), 3, quaternion=True,
                           prunable=[0])
        model.init_params(np.random.default_rng(0))
        plan = build_prune_plan(model, "l1", 0.5)
        k = len(plan.entries[0].removed)
        assert k == 2
        pruned = apply_prune(model, plan)
        # removed kernels: k * 4 banks * q_in(1) * 9; bias k * 4;
        # bn affine: k * 4 planes * 2; downstream conv input: 4 * 8 * k * 9
        delta = k * 4 * 1 * 9 + k * 4 + k * 8 + 4 * 8 * k * 9
        assert count_params(model) - count_params(pruned) == delta


class TestCountMacs:
    def test_hamilton_cost_anchor(self):
        # quaternion 1->1 3x3 at one output position: 16 * 9 = 144 MACs,
        # equal to a real 4->4 3x3 conv there, at a quarter the parameters
        q = ModelGraph([QConv2d(1, 1, (3, 3))], (4, 3, 3), 1, quaternion=True)
        r = ModelGraph([Conv2d(4, 4, (3, 3))], (4, 3, 3), 1, quaternion=False)
        assert count_macs(q) == 144
        assert count_macs(r) == 144
        assert count_params(q) < count_params(r)

    def test_one_by_one_conv_single_mac(self):
        model = ModelGraph([Conv2d(1, 1, (1, 1), bias=False)], (1, 1, 1), 1,
                           quaternion=False)
        assert count_macs(model) == 1

    def test_empty_model(self):
        assert count_macs(ModelGraph([], (4, 4, 4), 2, quaternion=True)) == 0

    def test_additive_over_layers(self):
        l1 = QConv2d(1, 2, (3, 3), padding=1)
        l2 = QConv2d(2, 4, (3, 3), padding=1)
        both = ModelGraph([l1, l2], (4, 8, 8), 1, quaternion=True)
        first = ModelGraph([QConv2d(1, 2, (3, 3), padding=1)], (4, 8, 8), 1,
                           quaternion=True)
        second = ModelGraph([QConv2d(2, 4, (3, 3), padding=1)], (8, 8, 8), 1,
                            quaternion=True)
        assert count_macs(both) == count_macs(first) + count_macs(second)

    def test_pool_bn_relu_cost_nothing(self):
        from qprune.nn import AvgPool2d, MaxPool2d

        layers = [ReLU(), MaxPool2d(2), QBatchNorm2d(1), AvgPool2d(2)]
        model = ModelGraph(layers, (4, 8, 8), 1, quaternion=True)
        assert count_macs(model) == 0

    def test_qlinear_macs(self):
        model = ModelGraph([GlobalAvgPool2d(), QLinear(2, 3), Flatten(),
                            Linear(12, 2)], (8, 4, 4), 2, quaternion=True)
        assert count_macs(model) == 16 * 3 * 2 + 12 * 2


class TestQResnetMiniCounts:
    """qresnet-mini at 4 classes on (4, 32, 16) input, derived per layer:
    a quaternion q_in -> q_out 3x3 conv holds 4*q_out*q_in*9 kernel and
    4*q_out bias scalars and costs 16*q_out*q_in*9 MACs per output
    position; a quaternion BN of q channels holds 2*4*q scalars."""

    def qconv(self, q_in, q_out, hw):
        return 4 * q_out * q_in * 9 + 4 * q_out, 16 * q_out * q_in * 9 * hw

    def test_params_and_macs_match_the_closed_form(self):
        from qprune.models import build_model

        model = build_model("qresnet-mini", 4, (4, 32, 16), seed=0)
        # (q_in, q_out, output map size): the stem at 32x16, each residual
        # block's two convs at 16x8 and 8x4, the two tail convs at 4x2
        convs = [(1, 8, 512), (8, 8, 128), (8, 8, 128), (8, 8, 32), (8, 8, 32),
                 (8, 16, 8), (16, 32, 8)]
        costs = [self.qconv(*c) for c in convs]
        bn = sum(2 * 4 * q_out for _, q_out, _ in convs)
        head = (4 * 32 * 4 + 4, 4 * 32 * 4)  # Linear(128, 4)
        params = sum(p for p, _ in costs) + bn + head[0]
        macs = sum(m for _, m in costs) + head[1]
        assert (params, macs) == (34116, 4276736)
        assert count_params(model) == params
        assert count_macs(model) == macs


class TestTimedInference:
    def _model(self):
        from qprune.models import build_model

        return build_model("qcnn-mini", 4, (4, 32, 16), seed=0)

    def test_returns_positive_finite(self):
        model = self._model()
        x = np.zeros((2, 4, 1, 32, 16), dtype=np.float32)
        t = timed_inference(model, x, repeats=3)
        assert np.isfinite(t) and t > 0

    def test_repeats_validated(self):
        model = self._model()
        x = np.zeros((1, 4, 1, 32, 16), dtype=np.float32)
        with pytest.raises(ValueError):
            timed_inference(model, x, repeats=2)

    def test_pruned_model_not_slower(self):
        from qprune.pruning import apply_prune, build_prune_plan

        model = self._model()
        pruned = apply_prune(model, build_prune_plan(model, "l1", 0.75))
        x = np.random.default_rng(0).normal(size=(8, 4, 1, 32, 16)).astype(np.float32)
        t_full = timed_inference(model, x, repeats=9)
        t_pruned = timed_inference(pruned, x, repeats=9)
        assert t_pruned <= t_full

    def test_larger_batch_takes_longer(self):
        model = self._model()
        rng = np.random.default_rng(1)
        small = rng.normal(size=(4, 4, 1, 32, 16)).astype(np.float32)
        big = rng.normal(size=(32, 4, 1, 32, 16)).astype(np.float32)
        t_small = timed_inference(model, small, repeats=9)
        t_big = timed_inference(model, big, repeats=9)
        assert t_big > t_small


class TestReportCSV:
    def test_round_trip(self, tmp_path):
        reports = [
            EvalReport(model="qcnn-mini", method="op", p=0.5,
                       metric="accuracy", value=0.97, params=1234,
                       macs=98765, time_s=0.01),
            EvalReport(model="cnn-mini", metric="mAP", value=0.5,
                       params=4000, macs=50000),
        ]
        path = tmp_path / "r.csv"
        write_report_csv(path, reports)
        rows = read_report_csv(path)
        assert len(rows) == 2
        assert rows[0]["model"] == "qcnn-mini"
        assert float(rows[0]["value"]) == pytest.approx(0.97)

    @pytest.mark.parametrize("column", ["p", "value", "params", "macs", "time_s"])
    def test_non_numeric_column_rejected(self, tmp_path, column):
        row = {"model": "m", "method": "op", "p": "0.5", "metric": "accuracy",
               "value": "0.9", "params": "10", "macs": "20", "time_s": ""}
        path = tmp_path / "r.csv"
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        assert len(read_report_csv(path)) == 1  # an empty time_s is allowed
        row[column] = "x"
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(FormatError):
            read_report_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("model,method,p\nqcnn-mini,op,0.5\n", ""):  # "" has no header
            path.write_text(text)
            with pytest.raises(FormatError):
                read_report_csv(path)
