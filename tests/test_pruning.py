"""Pruning tests: importance-score oracles, plan construction, surgery."""

import string

import numpy as np
import pytest

from qprune.autodiff import TrainConfig, inference
from qprune.exceptions import (
    DegenerateLayerError,
    FormatError,
    PlanError,
    SurgeryError,
)
from qprune.nn import (
    AvgPool2d,
    BatchNorm2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ModelGraph,
    QBatchNorm2d,
    QConv2d,
    QLinear,
    ReLU,
)
from qprune.pruning import (
    PlanEntry,
    PrunePlan,
    apply_prune,
    build_prune_plan,
    finetune,
    geometric_median,
    gm_importance,
    l1_importance,
    load_plan,
    op_importance,
    plan_from_text,
    plan_to_text,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gm_objective(point, pts):
    return float(np.linalg.norm(pts - point[None, :], axis=1).sum())


def grid_refined_median(pts, levels=4, width=21):
    """Brute-force geometric median by nested grid search (independent of
    Weiszfeld): start from the bounding box, zoom on the best cell."""
    lo = pts.min(axis=0) - 1e-3
    hi = pts.max(axis=0) + 1e-3
    best = None
    for _ in range(levels):
        axes = [np.linspace(l, h, width) for l, h in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, pts.shape[1])
        obj = np.linalg.norm(pts[None, :, :] - grid[:, None, :], axis=2).sum(axis=1)
        best = grid[obj.argmin()]
        span = (hi - lo) / (width - 1)
        lo, hi = best - span, best + span
    return best


def make_qconv(weights, q_in=1, kernel=(1, 1)):
    """QConv2d with explicit bank weights (4, M, q_in, kh, kw)."""
    weights = np.asarray(weights, dtype=np.float64)
    layer = QConv2d(q_in, weights.shape[1], kernel, dtype=np.float64)
    layer.weights = weights
    return layer


class TestL1Importance:
    def test_zero_filter(self):
        layer = QConv2d(2, 3, (3, 3))
        scores = l1_importance(layer)
        np.testing.assert_array_equal(scores, 0.0)

    def test_unit_components_score_four(self):
        # each component a 1x1x1 kernel holding 1 -> |1| * 4 components
        layer = make_qconv(np.ones((4, 2, 1, 1, 1)))
        np.testing.assert_array_equal(l1_importance(layer), 4.0)

    def test_matches_abs_sum_oracle(self, rng):
        layer = QConv2d(3, 5, (3, 3), dtype=np.float64)
        layer.weights = rng.normal(size=layer.weights.shape)
        scores = l1_importance(layer)
        for m in range(5):
            direct = sum(abs(float(v))
                         for v in layer.weights[:, m].ravel())
            assert scores[m] == pytest.approx(direct, rel=1e-12)


class TestGeometricMedian:
    def test_identical_points(self):
        pts = np.tile([1.5, -2.0], (6, 1))
        np.testing.assert_allclose(geometric_median(pts), [1.5, -2.0])

    def test_1d_median(self):
        got = geometric_median(np.array([0.0, 1.0, 10.0]))
        assert got[0] == pytest.approx(1.0, abs=1e-6)

    def test_singleton(self):
        np.testing.assert_array_equal(
            geometric_median(np.array([[3.0, 4.0]])), [3.0, 4.0])

    def test_objective_beats_grid_search(self, rng):
        pts = rng.normal(size=(10, 3))
        gm = geometric_median(pts)
        grid = grid_refined_median(pts)
        assert gm_objective(gm, pts) <= gm_objective(grid, pts) + 1e-4

    def test_collinear_with_median_on_point(self, rng):
        # median coincides with a data point: the guard must still converge
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
        gm = geometric_median(pts)
        assert gm_objective(gm, pts) <= gm_objective(np.array([1.0, 0.0]), pts) + 1e-6


class TestGMImportance:
    def test_identical_filters_zero(self):
        base = np.arange(4 * 1 * 9, dtype=np.float64).reshape(4, 1, 3, 3)
        weights = np.stack([base] * 5, axis=1)  # (4, 5, 1, 3, 3)
        layer = make_qconv(weights, q_in=1, kernel=(3, 3))
        np.testing.assert_allclose(gm_importance(layer), 0.0, atol=1e-6)

    def test_outlier_has_largest_score(self, rng):
        base = rng.normal(size=(4, 1, 3, 3))
        weights = np.stack([base] * 6, axis=1).copy()
        weights[:, 4] += 25.0  # far outlier
        layer = make_qconv(weights, q_in=1, kernel=(3, 3))
        scores = gm_importance(layer)
        assert scores.argmax() == 4
        assert scores[4] > 10 * np.delete(scores, 4).max() + 1.0

    def test_matches_grid_refined_oracle(self, rng):
        # 1x1 kernels with q_in=3 keep each component 3-dimensional so the
        # grid oracle is tractable
        weights = rng.normal(size=(4, 6, 3, 1, 1))
        layer = make_qconv(weights, q_in=3, kernel=(1, 1))
        scores = gm_importance(layer)
        oracle = np.zeros(6)
        for o in range(4):
            flat = weights[o].reshape(6, 3)
            med = grid_refined_median(flat, levels=6)
            oracle += np.abs(flat - med[None, :]).sum(axis=1)
        np.testing.assert_allclose(scores, oracle, atol=1e-4)

    def test_single_filter_degenerate(self):
        layer = QConv2d(1, 1, (3, 3))
        with pytest.raises(DegenerateLayerError):
            gm_importance(layer)


class TestOpImportance:
    def test_zero_filter(self):
        layer = QConv2d(2, 2, (3, 3))
        np.testing.assert_array_equal(op_importance(layer), 0.0)

    def test_identity_components_score_four(self):
        # each component reshapes to the 2x2 identity -> sigma_1 = 1 apiece
        eye = np.eye(2).reshape(2, 1, 2)
        weights = np.stack([eye[None]] * 4, axis=0).reshape(4, 1, 2, 1, 2)
        layer = make_qconv(weights, q_in=2, kernel=(1, 2))
        np.testing.assert_allclose(op_importance(layer), 4.0, rtol=1e-9)

    @staticmethod
    def _check_dense_svd_oracle(rng, q_in, kernel):
        weights = rng.normal(size=(4, 5, q_in) + kernel)
        layer = make_qconv(weights, q_in=q_in, kernel=kernel)
        scores = op_importance(layer)
        for m in range(5):
            want = sum(np.linalg.svd(weights[o, m].reshape(q_in, -1),
                                     compute_uv=False)[0] for o in range(4))
            assert abs(scores[m] - want) / want <= 1e-8

    def test_matches_dense_svd_oracle(self, rng):
        self._check_dense_svd_oracle(rng, 3, (3, 3))

    def test_spectral_norm_wide_matrices(self, rng):
        # wide (8 x 16), tall (16 x 8) and single-row (1 x 9) component
        # matrices
        for q_in, kernel in ((8, (4, 4)), (16, (1, 8)), (1, (3, 3))):
            self._check_dense_svd_oracle(rng, q_in, kernel)

    def test_column_permutation_invariance(self, rng):
        weights = rng.normal(size=(4, 3, 2, 3, 3))
        layer = make_qconv(weights, q_in=2, kernel=(3, 3))
        base = op_importance(layer)
        perm = rng.permutation(9)
        permuted = weights.reshape(4, 3, 2, 9)[..., perm].reshape(weights.shape)
        layer2 = make_qconv(permuted, q_in=2, kernel=(3, 3))
        np.testing.assert_allclose(op_importance(layer2), base, rtol=1e-8)


# ---------------------------------------------------------------------------
# models used for plan/surgery tests
# ---------------------------------------------------------------------------

def chain_model(seed=0, dtype=np.float32):
    layers = [
        QConv2d(1, 4, (3, 3), padding=1, dtype=dtype),
        QBatchNorm2d(4, dtype=dtype),
        ReLU(),
        QConv2d(4, 8, (3, 3), padding=1, dtype=dtype),
        QBatchNorm2d(8, dtype=dtype),
        ReLU(),
        GlobalAvgPool2d(),
        Flatten(),
        Linear(32, 3, dtype=dtype),
    ]
    model = ModelGraph(layers, (4, 8, 8), 3, quaternion=True,
                       name="chain", prunable=[0, 3])
    model.init_params(np.random.default_rng(seed))
    return model


def qlinear_tail_model(seed=0, dtype=np.float32):
    layers = [
        QConv2d(1, 6, (3, 3), padding=1, dtype=dtype),
        ReLU(),
        GlobalAvgPool2d(),
        QLinear(6, 4, dtype=dtype),
        Flatten(),
        Linear(16, 2, dtype=dtype),
    ]
    model = ModelGraph(layers, (4, 6, 6), 2, quaternion=True,
                       name="qtail", prunable=[0])
    model.init_params(np.random.default_rng(seed))
    return model


def flatten_tail_model(quaternion_head, seed=0):
    """A pruned conv's 2x2 map flattened into a QLinear or Linear head."""
    head = [QLinear(16, 3), Flatten(), Linear(12, 2)] if quaternion_head else [Linear(64, 2)]
    layers = [QConv2d(1, 4, (3, 3), padding=1), QBatchNorm2d(4), ReLU(), AvgPool2d(4),
              Flatten(), *head]
    model = ModelGraph(layers, (4, 8, 8), 2, quaternion=True, prunable=[0])
    return model.init_params(np.random.default_rng(seed))


def store_bytes(model):
    return {dt: flat.tobytes() for dt, flat in model.store.items()}


class TestBuildPrunePlan:
    def test_p_zero_empty_sets(self):
        plan = build_prune_plan(chain_model(), "l1", 0.0)
        assert all(e.removed == [] for e in plan.entries)

    def test_quarter_of_eight(self):
        plan = build_prune_plan(chain_model(), "l1", 0.25, target_layers=[3])
        assert len(plan.entries[0].removed) == 2  # floor(0.25 * 8)

    def test_lowest_scores_removed(self):
        # craft l1 scores [3, 1, 2, 0] via constant-magnitude banks
        layer_weights = np.zeros((4, 4, 1, 1, 1))
        for m, s in enumerate([3.0, 1.0, 2.0, 0.0]):
            layer_weights[:, m] = s / 4.0
        model = chain_model()
        model.layers[0] = make_qconv(layer_weights)
        model._assign_ids()
        plan = build_prune_plan(model, "l1", 0.5, target_layers=[0])
        assert plan.entries[0].removed == [1, 3]

    def test_tie_break_lower_index(self):
        layer_weights = np.zeros((4, 4, 1, 1, 1))
        for m, s in enumerate([1.0, 1.0, 0.0, 1.0]):
            layer_weights[:, m] = s / 4.0
        model = chain_model()
        model.layers[0] = make_qconv(layer_weights)
        model._assign_ids()
        plan = build_prune_plan(model, "l1", 0.5, target_layers=[0])
        assert plan.entries[0].removed == [0, 2]

    def test_bad_ratio(self):
        with pytest.raises(PlanError):
            build_prune_plan(chain_model(), "l1", 1.0)

    def test_non_qconv_target(self):
        with pytest.raises(PlanError):
            build_prune_plan(chain_model(), "l1", 0.5, target_layers=[2])

    def test_a_layer_targeted_twice(self):
        with pytest.raises(PlanError, match="layer 3 is targeted more than once"):
            build_prune_plan(chain_model(), "l1", 0.5, target_layers=[3, 0, 3])

    def test_residual_target_rejected(self):
        from qprune.models import build_model
        model = build_model("qresnet-mini", 4, (4, 16, 16), seed=0)
        residual_idx = next(i for i, l in enumerate(model.layers)
                            if l.type_name == "residual")
        with pytest.raises(PlanError):
            build_prune_plan(model, "l1", 0.5, target_layers=[residual_idx])

    def test_removal_count_invariant(self, rng):
        model = chain_model(seed=3)
        for method in ("l1", "gm", "op"):
            for p in (0.1, 0.25, 0.5, 0.75):
                plan = build_prune_plan(model, method, p)
                for e in plan.entries:
                    m = model.layers[e.layer_index].q_out
                    assert len(e.removed) == int(np.floor(p * m))

    def test_scale_invariant_ranking(self, rng):
        model = chain_model(seed=4)
        layer = model.layers[3]
        base = {m: np.argsort(fn(layer), kind="stable").tolist()
                for m, fn in (("l1", l1_importance), ("gm", gm_importance),
                              ("op", op_importance))}
        for c in (0.3, 2.0, 117.0):
            scaled = QConv2d(layer.q_in, layer.q_out, layer.kernel,
                             layer.stride, layer.padding, dtype=np.float64)
            scaled.weights = layer.weights.astype(np.float64) * c
            for m, fn in (("l1", l1_importance), ("gm", gm_importance),
                          ("op", op_importance)):
                assert np.argsort(fn(scaled), kind="stable").tolist() == base[m], \
                    f"{m} ranking changed under scale {c}"

    def test_l1_homogeneity(self, rng):
        layer = QConv2d(2, 4, (3, 3), dtype=np.float64)
        layer.weights = rng.normal(size=layer.weights.shape)
        base = l1_importance(layer)
        for c in (-2.0, 0.5, 7.0):
            scaled = QConv2d(2, 4, (3, 3), dtype=np.float64)
            scaled.weights = layer.weights * c
            np.testing.assert_allclose(l1_importance(scaled), abs(c) * base,
                                       rtol=1e-12)


class TestApplyPrune:
    def test_empty_plan_bit_identical(self, rng):
        model = chain_model(seed=5)
        plan = build_prune_plan(model, "l1", 0.0)
        pruned = apply_prune(model, plan)
        x = rng.normal(size=(2, 4, 1, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(inference(model, x),
                                      inference(pruned, x))

    def test_shapes_after_surgery(self):
        model = chain_model(seed=6)
        plan = build_prune_plan(model, "l1", 0.25, target_layers=[3])
        pruned = apply_prune(model, plan)
        assert pruned.layers[3].q_out == 6
        assert pruned.layers[4].q == 6  # batch norm follows
        assert pruned.layers[8].c_in == 24  # head loses 4 * 2 columns
        x = np.zeros((1, 4, 1, 8, 8), dtype=np.float32)
        assert inference(pruned, x).shape == (1, 3)

    def test_zero_mask_oracle_conv_consumer(self, rng):
        model = chain_model(seed=7)
        plan = build_prune_plan(model, "op", 0.5, target_layers=[0])
        pruned = apply_prune(model, plan)

        masked = model.clone()
        removed = plan.entries[0].removed
        masked.layers[0].weights[:, removed] = 0.0
        masked.layers[0].bias[:, removed] = 0.0
        masked.layers[3].weights[:, :, removed] = 0.0  # downstream input slices

        x = rng.normal(size=(4, 4, 1, 8, 8)).astype(np.float32)
        out_pruned = inference(pruned, x, mode="eval")
        out_masked = inference(masked, x, mode="eval")
        np.testing.assert_allclose(out_pruned, out_masked, rtol=1e-5, atol=1e-6)

    def test_zero_mask_oracle_linear_head(self, rng):
        model = chain_model(seed=8)
        plan = build_prune_plan(model, "gm", 0.5, target_layers=[3])
        pruned = apply_prune(model, plan)

        masked = model.clone()
        removed = plan.entries[0].removed
        masked.layers[3].weights[:, removed] = 0.0
        masked.layers[3].bias[:, removed] = 0.0
        head = masked.layers[8]
        view = head.w.reshape(3, 4, 8, 1, 1)
        view[:, :, removed] = 0.0

        x = rng.normal(size=(4, 4, 1, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(inference(pruned, x, mode="eval"),
                                   inference(masked, x, mode="eval"),
                                   rtol=1e-5, atol=1e-6)

    def test_qlinear_consumer(self, rng):
        model = qlinear_tail_model(seed=9)
        plan = build_prune_plan(model, "l1", 0.5, target_layers=[0])
        pruned = apply_prune(model, plan)
        assert pruned.layers[0].q_out == 3
        assert pruned.layers[3].q_in == 3
        x = rng.normal(size=(2, 4, 1, 6, 6)).astype(np.float32)
        assert inference(pruned, x).shape == (2, 2)

    @pytest.mark.parametrize("quaternion_head", [True, False], ids=["qlinear", "linear"])
    def test_zero_mask_oracle_head_after_a_flatten_of_a_2x2_map(self, rng, quaternion_head):
        model = flatten_tail_model(quaternion_head, seed=13)
        plan = build_prune_plan(model, "op", 0.5)
        pruned = apply_prune(model, plan)
        assert pruned.layers[5].c_in == 4 * 2 * 4  # four planes of 2 filters x 2x2

        masked = model.clone()
        removed = plan.entries[0].removed
        masked.layers[0].weights[:, removed] = 0.0
        masked.layers[0].bias[:, removed] = 0.0
        head = masked.layers[5]
        if quaternion_head:  # bank input q = filter * 4 + position
            head.weights.reshape(4, 3, 4, 4)[:, :, removed] = 0.0
        else:  # plane-major columns: plane, filter, position
            head.w.reshape(2, 4, 4, 4)[:, :, removed] = 0.0

        x = rng.normal(size=(4, 4, 1, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(inference(pruned, x, mode="eval"),
                                   inference(masked, x, mode="eval"),
                                   rtol=1e-5, atol=1e-6)

    def test_class_count_preserved(self, rng):
        model = chain_model(seed=10)
        for p in (0.25, 0.5, 0.75):
            plan = build_prune_plan(model, "l1", p)
            pruned = apply_prune(model, plan)
            x = rng.normal(size=(2, 4, 1, 8, 8)).astype(np.float32)
            assert inference(pruned, x).shape[1] == model.num_classes

    def test_inconsistent_plan_leaves_model_untouched(self):
        model = chain_model(seed=11)
        before = [a.copy() for _, _, _, a in model.all_params()]
        plan = PrunePlan("l1", 0.5, [PlanEntry(3, np.zeros(5), [0, 1])])
        with pytest.raises(SurgeryError):
            apply_prune(model, plan)
        for (b, (_, _, _, a)) in zip(before, model.all_params()):
            np.testing.assert_array_equal(b, a)

    def test_duplicate_indices_rejected(self):
        model = chain_model(seed=12)
        plan = PrunePlan("l1", 0.5, [PlanEntry(3, np.zeros(8), [1, 1])])
        with pytest.raises(SurgeryError):
            apply_prune(model, plan)


class TestSurgeryRaises:
    """Every refusal of apply_prune, each leaving the source model as it was."""

    def refused(self, model, entry, error=SurgeryError):
        before = store_bytes(model)
        with pytest.raises(error) as info:
            apply_prune(model, PrunePlan("l1", 0.5, [entry]))
        assert store_bytes(model) == before
        return str(info.value)

    def test_plan_layer_index_out_of_range(self):
        message = self.refused(chain_model(), PlanEntry(9, np.zeros(4), [0]), PlanError)
        assert "layer index 9 out of range" in message

    @pytest.mark.parametrize("removed", [[8], [-1], [0, 8]])
    def test_removal_index_out_of_range(self, removed):
        message = self.refused(chain_model(), PlanEntry(3, np.zeros(8), removed))
        assert "out of range for layer 3" in message

    def test_a_layer_listed_twice(self):
        model, entry = chain_model(), PlanEntry(3, np.zeros(8), [0])
        before = store_bytes(model)
        with pytest.raises(PlanError, match="layer 3 is targeted more than once"):
            apply_prune(model, PrunePlan("l1", 0.5, [entry, entry]))
        assert store_bytes(model) == before

    def test_removing_every_filter(self):
        message = self.refused(chain_model(), PlanEntry(0, np.zeros(4), [0, 1, 2, 3]))
        assert "every filter of layer 0" in message

    def test_channels_flowing_into_a_residual_block(self):
        from qprune.models import build_model
        model = build_model("qresnet-mini", 4, (4, 16, 16), seed=0)
        message = self.refused(model, PlanEntry(0, np.zeros(8), [0, 1]))
        assert "layer 4" in message and "residual" in message

    def test_real_batch_norm_consumer(self):
        layers = [QConv2d(1, 4, (1, 1)), BatchNorm2d(16), ReLU(), GlobalAvgPool2d(),
                  Flatten(), Linear(16, 3)]
        model = ModelGraph(layers, (4, 4, 4), 3, quaternion=True, prunable=[0])
        message = self.refused(model, PlanEntry(0, np.zeros(4), [1]))
        assert "layer 1" in message and "batchnorm2d" in message

    def test_input_width_not_whole_blocks(self):
        # 24 inputs are not 4 planes of 4 equal blocks (a graph that fails its shape check)
        layers = [QConv2d(1, 4, (1, 1)), GlobalAvgPool2d(), Flatten(), Linear(24, 3)]
        model = ModelGraph(layers, (4, 2, 2), 3, quaternion=True, prunable=[0])
        message = self.refused(model, PlanEntry(0, np.zeros(4), [2]))
        assert "layer 3" in message and "linear" in message

    def test_no_consumer(self):
        layers = [QConv2d(1, 4, (1, 1)), GlobalAvgPool2d(), Flatten()]
        model = ModelGraph(layers, (4, 2, 2), 16, quaternion=True, prunable=[0])
        message = self.refused(model, PlanEntry(0, np.zeros(4), [2]))
        assert "no consumer" in message and "layer 0" in message


class TestPlanSerialization:
    def test_text_round_trip(self):
        model = chain_model(seed=13)
        plan = build_prune_plan(model, "op", 0.5)
        back = plan_from_text(plan_to_text(plan))
        assert back.method == plan.method and back.ratio == plan.ratio
        for a, b in zip(plan.entries, back.entries):
            assert a.layer_index == b.layer_index
            assert a.removed == b.removed

    def test_replay_reproduces_pruned_checkpoint(self, tmp_path):
        from qprune.nn import save_checkpoint

        model = chain_model(seed=14)
        plan = build_prune_plan(model, "op", 0.5)
        first = tmp_path / "a.qprs"
        save_checkpoint(apply_prune(model, plan), first)

        replayed = plan_from_text(plan_to_text(plan))
        second = tmp_path / "b.qprs"
        save_checkpoint(apply_prune(model, replayed), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_document(self):
        with pytest.raises(Exception):
            plan_from_text("not a plan\n")

    def test_char_flips_raise_format_error(self):
        # one flipped character either still parses or is a FormatError,
        # never a bare parse error from int(), float() or a missing line
        text = plan_to_text(build_prune_plan(chain_model(seed=16), "l1", 0.5))
        rng = np.random.default_rng(0)
        for pos, ch in zip(rng.integers(0, len(text), 200),
                           rng.choice(list(string.printable), 200)):
            try:
                plan_from_text(text[:pos] + ch + text[pos + 1:])
            except FormatError:
                pass

    @pytest.mark.parametrize("doc", [
        "QPLAN 1\nmethod: l1\nratio: x\nend\n",
        "QPLAN 1\nmethod: l1\nratio: 0.5\nlayer 0\nscores: 1 2\nend\n",
        "QPLAN 1\nmethod: l1\nratio: 0.5\nlayer\nscores: 1\nremoved: \nend\n",
        "QPLAN 1\nmethod: l1\nratio: 0.5\nlayer 0\nscores: 1 z\nremoved: \nend\n",
        "QPLAN 1\nmethod: l1\nratio: 0.5\nlayer 0\nscores: 1\nremoved: 0.5\nend\n",
    ])
    def test_malformed_lines_are_format_errors(self, doc):
        with pytest.raises(FormatError):
            plan_from_text(doc)

    def test_undecodable_file_is_format_error(self, tmp_path):
        path = tmp_path / "bin.qplan"
        path.write_bytes(b"QPLAN 1\n\xff\xfe\nend\n")
        with pytest.raises(FormatError):
            load_plan(path)


class TestFinetune:
    def test_zero_iterations_unchanged(self):
        from qprune.features import synth_dataset

        model = chain_model(seed=15)
        ds = synth_dataset(3, 12, seed=0, frames=8, bins=8)
        cfg = TrainConfig(iterations=0, lr=0.01, seed=0, eval_every=0)
        tuned = finetune(model, ds, cfg)
        for (_, _, _, a), (_, _, _, b) in zip(model.all_params(),
                                              tuned.all_params()):
            np.testing.assert_array_equal(a, b)

    def test_lr_zero_parameters_unchanged(self):
        from qprune.features import synth_dataset

        model = chain_model(seed=16)
        ds = synth_dataset(3, 12, seed=1, frames=8, bins=8)
        cfg = TrainConfig(iterations=5, lr=0.0, optimizer="sgd", seed=0,
                          eval_every=0)
        tuned = finetune(model, ds, cfg)
        for (_, _, _, a), (_, _, _, b) in zip(model.all_params(),
                                              tuned.all_params()):
            np.testing.assert_array_equal(a, b)
