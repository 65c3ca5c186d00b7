"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk-scale stand-ins replace the paper-scale training runs; every stated
tolerance and runtime cap is asserted here.  Shared fixtures train one
4-class teacher on a 2000-sample synthetic dataset and reuse it across the
pipeline criteria.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    finite_difference_check,
    toy_quaternion_model,
    toy_real_model,
    toy_residual_model,
)

from qprune.autodiff import (
    TrainConfig,
    cross_entropy,
    evaluate_accuracy,
    inference,
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
from qprune.features import save_dataset, synth_dataset
from qprune.metrics import average_precision, count_params, mean_average_precision
from qprune.models import build_model
from qprune.nn import (
    Conv2d,
    load_checkpoint,
    model_input,
    real_conv2d,
    save_checkpoint,
)
from qprune.pruning import (
    apply_prune,
    build_prune_plan,
    finetune,
    geometric_median,
    gm_importance,
    l1_importance,
    op_importance,
    plan_from_text,
    plan_to_text,
)
from qprune.quaternion import Quaternion, hamilton_product

SEED = 42
INPUT_SHAPE = (4, 32, 16)


def announce(n, name, detail=""):
    print(f"ACCEPTANCE {n:02d} {name}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared desk-scale pipeline state
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_dataset():
    return synth_dataset(4, 2000, seed=SEED, frames=32, bins=16)


@pytest.fixture(scope="module")
def teacher(desk_dataset):
    model = build_model("qcnn-mini", 4, INPUT_SHAPE, seed=SEED)
    cfg = TrainConfig(iterations=2000, lr=3e-3, batch_size=16, seed=SEED,
                      eval_every=100, target_metric=0.97)
    result = train_loop(model, desk_dataset.features, desk_dataset.labels, cfg)
    return model, result


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_algebra_suite():
    start = time.perf_counter()
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    for e in (i, j, k):
        assert hamilton_product(e, e) == minus_one  # exact in float64
    assert hamilton_product(i, j) == k
    ij = hamilton_product(i, j).as_array()
    ji = hamilton_product(j, i).as_array()
    np.testing.assert_array_equal(ij, -ji)  # non-commutativity witness

    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        m, q = rng.normal(size=(2, 4))
        matrix = np.array([
            [m[0], -m[1], -m[2], -m[3]],
            [m[1], m[0], -m[3], m[2]],
            [m[2], m[3], m[0], -m[1]],
            [m[3], -m[2], m[1], m[0]],
        ])
        got = hamilton_product(Quaternion(*m), Quaternion(*q)).as_array()
        assert np.abs(got - matrix @ q).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "algebra suite", f"({elapsed:.2f}s)")


def test_criterion_02_convolution_equivalence():
    from qprune.nn import QConv2d, qconv2d

    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    for case in range(50):
        q_in = int(rng.integers(1, 4))
        q_out = int(rng.integers(1, 5))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        h = int(rng.integers(max(kh, 4), 10))
        w = int(rng.integers(max(kw, 4), 10))
        layer = QConv2d(q_in, q_out, (kh, kw), stride, pad, dtype=np.float32)
        layer.weights = rng.normal(size=layer.weights.shape).astype(np.float32)
        layer.bias = rng.normal(size=layer.bias.shape).astype(np.float32)
        x = rng.normal(size=(2, 4, q_in, h, w)).astype(np.float32)

        got = qconv2d(layer, x)

        # materialized signed block weight, written out independently
        wr, wi, wj, wk = layer.weights
        big = Conv2d(4 * q_in, 4 * q_out, (kh, kw), stride, pad,
                     dtype=np.float32)
        big.w = np.concatenate([
            np.concatenate([wr, -wi, -wj, -wk], axis=1),
            np.concatenate([wi, wr, -wk, wj], axis=1),
            np.concatenate([wj, wk, wr, -wi], axis=1),
            np.concatenate([wk, -wj, wi, wr], axis=1),
        ], axis=0)
        big.b = layer.bias.reshape(-1)
        want = real_conv2d(big, x.reshape(2, 4 * q_in, h, w)).reshape(got.shape)

        denom = max(float(np.abs(want).max()), 1e-6)
        assert float(np.abs(got - want).max()) / denom <= 1e-5, f"case {case}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(2, "convolution equivalence", f"(50 cases, {elapsed:.2f}s)")


def test_criterion_03_parameter_accounting():
    from qprune.nn import ModelGraph, QConv2d as QC, convert_architecture

    real = Conv2d(4, 4, (3, 3), bias=False)
    assert sum(a.size for _, a in real.params()) == 144
    quat = QC(1, 1, (3, 3), bias=False)
    assert sum(a.size for _, a in quat.params()) == 36

    cnn = build_model("cnn-mini", 4, INPUT_SHAPE, seed=0)
    qcnn = convert_architecture(cnn, seed=0)
    for rl, ql in zip(cnn.layers, qcnn.layers):
        if isinstance(rl, Conv2d):
            assert ql.weights.size * 4 == rl.w.size
    announce(3, "parameter accounting", "(144 real vs 36 quaternion; "
             "conversion quarters every conv kernel)")


def test_criterion_04_gradient_suite():
    start = time.perf_counter()

    def ce_loss(labels):
        def make(z, tape):
            return cross_entropy(z, one_hot(labels, z.shape[1]), tape)
        return make

    checks = [
        (toy_quaternion_model(seed=10, for_gradcheck=True),
         np.random.default_rng(20).normal(size=(4, 4, 1, 8, 8)),
         ce_loss([0, 1, 2, 0])),
        (toy_real_model(seed=11, for_gradcheck=True),
         np.random.default_rng(21).normal(size=(4, 3, 8, 8)),
         ce_loss([0, 1, 1, 0])),
        (toy_residual_model(seed=12, for_gradcheck=True),
         np.random.default_rng(22).normal(size=(3, 4, 1, 6, 6)),
         ce_loss([0, 1, 0])),
    ]
    total = 0
    for model, x, make in checks:
        n = min(120, sum(a.size for _, _, _, a in model.all_params()))
        finite_difference_check(model, x, make, n_samples=n, h=1e-3, rtol=1e-4)
        total += n

    # kd_total_loss gradient w.r.t. student logits
    rng = np.random.default_rng(23)
    cfg = KDConfig(temperature=2.0, alpha=0.4)
    z_s = rng.normal(size=(3, 5))
    z_t = rng.normal(size=(3, 5))
    y = one_hot([0, 2, 4], 5)
    loss = kd_total_loss(z_s, z_t, y, cfg)
    h = 1e-3
    for idx in np.ndindex(z_s.shape):
        zp = z_s.copy(); zp[idx] += h
        zm = z_s.copy(); zm[idx] -= h
        fd = (float(kd_total_loss(zp, z_t, y, cfg))
              - float(kd_total_loss(zm, z_t, y, cfg))) / (2 * h)
        an = loss.dlogits[idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 2e-3) <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(4, "gradient suite",
             f"({total} sampled parameters + KD logits, {elapsed:.1f}s)")


def test_criterion_05_pruning_oracles():
    from qprune.nn import QConv2d

    rng = np.random.default_rng(SEED + 5)

    # l1 matches the abs-sum oracle exactly; integer-valued weights make
    # every summation order exact, so equality is bitwise there
    layer = QConv2d(3, 6, (3, 3), dtype=np.float64)
    layer.weights = rng.integers(-99, 99, size=layer.weights.shape).astype(float)
    scores = l1_importance(layer)
    for m in range(6):
        assert scores[m] == sum(abs(float(v))
                                for v in layer.weights[:, m].ravel())
    layer.weights = rng.normal(size=layer.weights.shape)
    scores = l1_importance(layer)
    for m in range(6):
        oracle = math.fsum(abs(float(v)) for v in layer.weights[:, m].ravel())
        assert abs(scores[m] - oracle) <= 1e-12 * oracle

    # geometric median objective within 1e-4 of grid brute force
    def objective(y, pts):
        return float(np.linalg.norm(pts - y[None], axis=1).sum())

    for trial in range(3):
        pts = rng.normal(size=(int(rng.integers(4, 11)), 3))
        lo, hi = pts.min(0) - 1e-3, pts.max(0) + 1e-3
        best = None
        for _ in range(5):
            axes = [np.linspace(l, h, 17) for l, h in zip(lo, hi)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            objs = np.linalg.norm(pts[None] - grid[:, None], axis=2).sum(1)
            best = grid[objs.argmin()]
            span = (hi - lo) / 16
            lo, hi = best - span, best + span
        gm = geometric_median(pts)
        assert objective(gm, pts) <= objective(best, pts) + 1e-4

    # operator norm within 1e-8 relative of dense SVD, up to 8x16
    for shape in ((2, 4), (3, 9), (8, 16), (16, 8)):
        q_in, cols = shape
        layer = QConv2d(q_in, 4, (1, cols), dtype=np.float64)
        layer.weights = rng.normal(size=layer.weights.shape)
        got = op_importance(layer)
        for m in range(4):
            want = sum(np.linalg.svd(layer.weights[o, m].reshape(q_in, cols),
                                     compute_uv=False)[0] for o in range(4))
            assert abs(got[m] - want) / want <= 1e-8

    # plan sizes and scale invariance of rankings
    model = build_model("qcnn-mini", 4, INPUT_SHAPE, seed=7)
    for method, fn in (("l1", l1_importance), ("gm", gm_importance),
                       ("op", op_importance)):
        for p in (0.25, 0.5, 0.75):
            plan = build_prune_plan(model, method, p)
            for entry in plan.entries:
                m = model.layers[entry.layer_index].q_out
                assert len(entry.removed) == int(np.floor(p * m))
        layer = model.layers[model.prunable[0]]
        base = np.argsort(fn(layer), kind="stable").tolist()
        for c in (0.25, 3.0, 42.0):
            scaled = QConv2d(layer.q_in, layer.q_out, layer.kernel,
                             layer.stride, layer.padding, dtype=np.float64)
            scaled.weights = layer.weights.astype(np.float64) * c
            assert np.argsort(fn(scaled), kind="stable").tolist() == base
    announce(5, "pruning oracles",
             "(l1 exact, GM vs grid, OP vs SVD, plan sizes, scale invariance)")


def test_criterion_06_surgery_correctness():
    model = build_model("qcnn-mini", 4, INPUT_SHAPE, seed=9)
    rng = np.random.default_rng(SEED + 6)
    for p in (0.25, 0.5, 0.75):
        plan = build_prune_plan(model, "op", p)
        pruned = apply_prune(model, plan)

        masked = model.clone()
        consumers = {12: ("qconv", 16), 16: ("qconv", 19), 19: ("head", 24)}
        for entry in plan.entries:
            removed = entry.removed
            conv = masked.layers[entry.layer_index]
            conv.weights[:, removed] = 0.0
            conv.bias[:, removed] = 0.0
            kind, nxt = consumers[entry.layer_index]
            if kind == "qconv":
                masked.layers[nxt].weights[:, :, removed] = 0.0
            else:
                head = masked.layers[nxt]
                view = head.w.reshape(head.c_out, 4, conv.q_out, 1, 1)
                view[:, :, removed] = 0.0

        for _ in range(20):
            x = rng.normal(size=(2, 4, 1, 32, 16)).astype(np.float32)
            a = inference(pruned, x, mode="eval")
            b = inference(masked, x, mode="eval")
            denom = max(float(np.abs(b).max()), 1e-6)
            assert float(np.abs(a - b).max()) / denom <= 1e-5, f"p={p}"
    announce(6, "surgery correctness",
             "(zero-mask oracle, p in {0.25, 0.5, 0.75}, 20 inputs each)")


def test_criterion_07_desk_scale_prune_finetune(desk_dataset, teacher):
    start = time.perf_counter()
    model, result = teacher
    assert result.iterations_run <= 2000
    base_acc = evaluate_accuracy(model, desk_dataset.features,
                                 desk_dataset.labels)
    assert base_acc >= 0.95, f"teacher accuracy {base_acc}"

    plan = build_prune_plan(model, "op", 0.5)
    pruned = apply_prune(model, plan)
    cfg = TrainConfig(iterations=2000, lr=3e-3, batch_size=16, seed=SEED + 1,
                      eval_every=100, target_metric=min(1.0, base_acc),
                      keep="best")
    tuned = finetune(pruned, desk_dataset, cfg)
    tuned_acc = evaluate_accuracy(tuned, desk_dataset.features,
                                  desk_dataset.labels)
    assert tuned_acc >= base_acc - 0.02, (
        f"fine-tuned {tuned_acc:.4f} vs baseline {base_acc:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    announce(7, "desk-scale prune + fine-tune",
             f"(baseline {base_acc:.3f}, p=0.5 fine-tuned {tuned_acc:.3f}, "
             f"{elapsed:.0f}s)")


def test_criterion_08_prune_ft_vs_kd(desk_dataset, teacher, tmp_path):
    from qprune.cli import main

    start = time.perf_counter()
    model, _ = teacher
    budget = dict(iterations=600, lr=3e-3, batch_size=16, eval_every=100)
    rows = []
    for p in (0.25, 0.5):
        plan = build_prune_plan(model, "op", p)
        pruned = apply_prune(model, plan)
        ft_cfg = TrainConfig(seed=SEED + 2, keep="best", **budget)
        ft_model = finetune(pruned, desk_dataset, ft_cfg)
        acc_ft = evaluate_accuracy(ft_model, desk_dataset.features,
                                   desk_dataset.labels)

        student = make_student_from_plan(model, plan, seed=SEED + 3)
        kd_cfg = TrainConfig(seed=SEED + 2, **budget)
        distill_train(model, student, desk_dataset, KDConfig(alpha=0.5),
                      kd_cfg)
        acc_kd = evaluate_accuracy(student, desk_dataset.features,
                                   desk_dataset.labels)
        assert acc_ft >= acc_kd - 0.01, (
            f"p={p}: Prune_FT {acc_ft:.4f} vs KD {acc_kd:.4f}"
        )
        rows.append((p, acc_ft, acc_kd, ft_model, student))

    # emit the comparison through the CLI compare command
    data_dir = tmp_path / "data"
    save_dataset(
        synth_dataset(4, 200, seed=SEED, frames=32, bins=16), data_dir)
    csvs = []
    for p, _, _, ft_model, student in rows:
        for tag, m in (("prune_ft", ft_model), ("kd", student)):
            ck = tmp_path / f"{tag}_{p}.qprs"
            save_checkpoint(m, ck)
            out = tmp_path / f"eval_{tag}_{p}"
            assert main(["eval", "--checkpoint", str(ck), "--data",
                         str(data_dir), "--method", tag, "--ratio", str(p),
                         "--out", str(out)]) == 0
            csvs.append(str(out / "eval.csv"))
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--inputs", ",".join(csvs),
                 "--out", str(cmp_out)]) == 0
    assert (cmp_out / "compare.csv").is_file()

    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    detail = ", ".join(f"p={p}: FT {a:.3f} vs KD {b:.3f}"
                       for p, a, b, _, _ in rows)
    announce(8, "Prune_FT vs KD ordering", f"({detail}, {elapsed:.0f}s)")


def test_criterion_09_prune_kd_cost(desk_dataset, teacher):
    model, _ = teacher
    plan = build_prune_plan(model, "op", 0.5)
    pruned = apply_prune(model, plan)
    iters = 60
    budget = dict(iterations=iters, lr=1e-3, batch_size=16, eval_every=0,
                  seed=SEED + 4)

    ft_model = pruned.clone()
    ft_model.forward_count = 0
    t0 = time.perf_counter()
    train_loop(ft_model, desk_dataset.features, desk_dataset.labels,
               TrainConfig(**budget))
    t_ft = time.perf_counter() - t0
    ft_forwards = ft_model.forward_count

    kd_model = pruned.clone()
    kd_model.forward_count = 0
    model.forward_count = 0
    t0 = time.perf_counter()
    distill_train(model, kd_model, desk_dataset, KDConfig(alpha=0.5),
                  TrainConfig(**budget))
    t_kd = time.perf_counter() - t0
    kd_forwards = kd_model.forward_count + model.forward_count

    # eval_every=0 runs no eval, so the extra forwards are the teacher's
    assert kd_forwards - ft_forwards == iters
    assert model.forward_count == iters  # exactly one teacher pass per step
    assert t_kd / iters > t_ft / iters
    announce(9, "Prune_KD cost",
             f"(+{iters} teacher forwards; {t_kd / iters * 1e3:.1f}ms vs "
             f"{t_ft / iters * 1e3:.1f}ms per iteration)")


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(SEED + 10)

    def brute_force_ap(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        hits, total = 0, 0.0
        n_pos = sum(1 for l in labels if l > 0)
        for rank, i in enumerate(order, start=1):
            if labels[i] > 0:
                hits += 1
                total += hits / rank
        return total / n_pos

    for _ in range(200):
        n = int(rng.integers(2, 12))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        assert abs(average_precision(scores, labels)
                   - brute_force_ap(scores.tolist(), labels.tolist())) <= 1e-12

    scores = rng.normal(size=(20, 5))
    labels = (rng.random((20, 5)) < 0.3).astype(int)
    labels[0] = 1
    rep = mean_average_precision(scores, labels)
    want = np.mean([brute_force_ap(scores[:, g].tolist(), labels[:, g].tolist())
                    for g in range(5)])
    assert abs(rep.value - want) <= 1e-12

    # KD loss at alpha=1 equals CE bit for bit
    z_s = rng.normal(size=(8, 6))
    z_t = rng.normal(size=(8, 6))
    y = one_hot(rng.integers(0, 6, size=8), 6)
    kd = kd_total_loss(z_s, z_t, y, KDConfig(temperature=3.0, alpha=1.0))
    ce = cross_entropy(z_s, y)
    assert float(kd) == float(ce)
    np.testing.assert_array_equal(kd.dlogits, ce.dlogits)

    # softened softmax at T=1 equals softmax
    z = rng.normal(size=(10, 7)) * 4
    np.testing.assert_array_equal(softened_softmax(z, 1.0), softmax(z))
    announce(10, "metric oracles",
             "(AP/mAP vs brute force, KD@alpha=1 == CE, T=1 softmax)")


def test_criterion_11_format_round_trips(desk_dataset, tmp_path):
    from qprune.features import load_feature_file, save_feature_file
    from qprune.quaternion import QTensor

    # checkpoint round trip
    model = build_model("qresnet-mini", 4, INPUT_SHAPE, seed=11)
    p1, p2 = tmp_path / "a.qprs", tmp_path / "b.qprs"
    save_checkpoint(model, p1)
    back, _ = load_checkpoint(p1)
    save_checkpoint(back, p2)
    assert p1.read_bytes() == p2.read_bytes()

    # feature file round trip
    t = QTensor(np.random.default_rng(0).normal(size=(4, 1, 12, 6)).astype(np.float32))
    f1, f2 = tmp_path / "a.qfea", tmp_path / "b.qfea"
    save_feature_file(f1, t)
    save_feature_file(f2, load_feature_file(f1))
    assert f1.read_bytes() == f2.read_bytes()

    # plan replay: same checkpoint in, byte-identical pruned checkpoint out
    base = build_model("qcnn-mini", 4, INPUT_SHAPE, seed=12)
    plan = build_prune_plan(base, "op", 0.5)
    k1, k2 = tmp_path / "p1.qprs", tmp_path / "p2.qprs"
    save_checkpoint(apply_prune(base, plan), k1)
    save_checkpoint(apply_prune(base, plan_from_text(plan_to_text(plan))), k2)
    assert k1.read_bytes() == k2.read_bytes()

    # same-seed training runs produce byte-identical checkpoints
    blobs = []
    for run in range(2):
        m = build_model("qcnn-mini", 4, INPUT_SHAPE, seed=13)
        cfg = TrainConfig(iterations=25, lr=1e-3, seed=13, eval_every=0)
        train_loop(m, desk_dataset.features[:200], desk_dataset.labels[:200],
                   cfg)
        path = tmp_path / f"run{run}.qprs"
        save_checkpoint(m, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    announce(11, "format round trips",
             "(checkpoint, feature file, plan replay, same-seed training)")
