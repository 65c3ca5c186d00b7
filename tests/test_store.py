"""The flat parameter store: every parameter and buffer of a model is a
view of one array per dtype, which gradients and Adam's moments mirror."""

import copy
import json
import pickle
import struct

import numpy as np
import pytest
from conftest import toy_residual_model

from qprune.autodiff import (
    OptimState,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    one_hot,
    step,
    train_loop,
)
from qprune.exceptions import ShapeError
from qprune.models import build_model
from qprune.nn import (
    Conv2d,
    Flatten,
    Linear,
    ModelGraph,
    load_checkpoint,
    model_input,
    save_checkpoint,
)
from qprune.pruning import apply_prune, build_prune_plan


def assert_stored(model):
    """Each array a view of its dtype's store, the views tiling the store."""
    arrays = [arr for *_, arr in model.all_params() + model.all_buffers()]
    for arr in arrays:
        assert arr.base is model.store[arr.dtype]
    for dt, flat in model.store.items():
        assert sum(a.size for a in arrays if a.dtype == dt) == flat.size


def assert_copied(clone, source):
    """Equal arrays, none sharing memory with the source's store."""
    pairs = zip(clone.all_params() + clone.all_buffers(),
                source.all_params() + source.all_buffers())
    for (*_, a), (*_, b) in pairs:
        np.testing.assert_array_equal(a, b)
        assert not any(np.shares_memory(a, flat) for flat in source.store.values())


def batch(model, n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4, 1, 16, 16)).astype(np.float32)
    return x, rng.integers(0, model.num_classes, n)


def small_qcnn(seed=0):
    return build_model("qcnn-mini", 3, (4, 16, 16), seed=seed)


def store_bytes(model):
    return {dt: flat.tobytes() for dt, flat in model.store.items()}


class TestEveryArrayIsAView:
    def test_after_build_init_and_clone(self):
        model = small_qcnn()
        assert_stored(model)
        model.init_params(np.random.default_rng(1))
        assert_stored(model)
        clone = model.clone()
        assert_stored(clone)
        assert_copied(clone, model)
        # a plain deep copy or pickle drops the store, then rebuilds its own
        for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            other.sync_store()
            assert_stored(other)
            assert_copied(other, model)

    def test_after_astype(self):
        model = small_qcnn().astype(np.float64)
        assert list(model.store) == [np.dtype(np.float64)]
        assert_stored(model)

    def test_after_apply_prune(self):
        model = small_qcnn()
        pruned = apply_prune(model, build_prune_plan(model, "l1", 0.5))
        assert_stored(pruned)
        assert_stored(model)

    def test_after_load_checkpoint(self, tmp_path):
        save_checkpoint(small_qcnn(), tmp_path / "m.qprs")
        back, _ = load_checkpoint(tmp_path / "m.qprs")
        assert_stored(back)

    def test_after_a_best_checkpoint_restore(self):
        model = small_qcnn()
        x, y = batch(model, 12)
        held = model.layers[0].weights
        result = train_loop(model, x, y, TrainConfig(iterations=6, lr=1e-2, batch_size=4,
                                                     eval_every=2, keep="best"))
        assert result.best_metric == max(m for *_, m in result.history if m is not None)
        assert_stored(model)
        assert model.layers[0].weights is held

    def test_after_a_plain_attribute_assignment(self):
        model = toy_residual_model()
        layer = model.layers[0]
        layer.weights = np.asfortranarray(np.full(layer.weights.shape, 0.5,
                                                  layer.weights.dtype))
        model.sync_store()
        assert_stored(model)
        assert np.all(layer.weights == 0.5) and layer.weights.flags.c_contiguous

    def test_set_array_of_the_same_shape_writes_through(self):
        model = small_qcnn()
        layer = model.layers[1]
        held = layer.gamma
        layer.set_array("gamma", np.full_like(held, 2.0))
        assert layer.gamma is held and np.all(held == 2.0)
        assert_stored(model)


def test_training_a_clone_leaves_the_original_unchanged():
    model = small_qcnn()
    before = store_bytes(model)
    clone = model.clone()
    x, y = batch(model, 12)
    train_loop(clone, x, y, TrainConfig(iterations=3, lr=1e-2, batch_size=4, eval_every=0))
    assert store_bytes(clone) != before
    assert store_bytes(model) == before
    assert_stored(model)


def test_two_dtypes_two_stores():
    layers = [Flatten(), Linear(16, 8), Linear(8, 3, dtype=np.float64)]
    model = ModelGraph(layers, (4, 2, 2), 3, quaternion=False)
    model.init_params(np.random.default_rng(0))
    assert list(model.store) == [np.dtype(np.float32), np.dtype(np.float64)]
    assert [f.size for f in model.store.values()] == [16 * 8 + 8, 8 * 3 + 3]
    assert_stored(model)
    clone = model.clone()
    assert_stored(clone)
    assert_copied(clone, model)
    x = np.random.default_rng(1).normal(size=(5, 4, 2, 2)).astype(np.float32)
    z, tape = forward(model, x)
    grads = backward(tape, cross_entropy(z, one_hot([0, 1, 2, 0, 1], 3), tape))
    assert {dt: g.size for dt, g in grads.flat.items()} == {
        dt: f.size for dt, f in model.store.items()}
    for key, g in grads.items():
        assert g.base is grads.flat[g.dtype]
    before = {dt: f.copy() for dt, f in model.store.items()}
    OptimState(model, "adam", 1e-2).step(grads)
    assert all(not np.array_equal(before[dt], f) for dt, f in model.store.items())


def test_optimizer_moments_are_views_in_the_parameter_layout():
    model = small_qcnn()
    opt = OptimState(model, "adam", 1e-3)
    assert list(opt.m) == [key for key, *_ in model.layout]
    assert list(opt.m) == [(lid, name) for lid, _, name, _ in model.all_params()]
    for table in (opt.m, opt.v):
        for (lid, name), arr in table.items():
            assert arr.base is table.flat[arr.dtype]
    x, y = batch(model)
    z, tape = forward(model, x, mode="train")
    opt.step(backward(tape, cross_entropy(z, one_hot(y, 3), tape)))
    assert all(np.any(m != 0) for m in opt.m.values())


def test_a_changed_layout_is_refused_by_adam():
    layer = Linear(4, 3)
    model = ModelGraph([Flatten(), layer], (4, 1, 1), 3, quaternion=False)
    opt = OptimState(model, "adam", 1e-3)
    layer.w = np.zeros((3, 5), np.float32)  # surgery the optimizer did not see
    grads = {(layer.lid, "w"): np.ones((3, 5), np.float32),
             (layer.lid, "b"): np.ones(3, np.float32)}
    with pytest.raises(ShapeError, match="changed since the optimizer was built"):
        step(opt, grads)


def saved_and_loaded(model, tmp_path):
    save_checkpoint(model, tmp_path / "m.qprs")
    return load_checkpoint(tmp_path / "m.qprs")[0]


MADE = {
    "build": lambda model, tmp_path: model,
    "clone": lambda model, tmp_path: model.clone(),
    "astype": lambda model, tmp_path: model.astype(np.float64),
    "apply_prune": lambda model, tmp_path: apply_prune(
        model, build_prune_plan(model, "l1", 0.5)),
    "load_checkpoint": saved_and_loaded,
}


@pytest.mark.parametrize("spec,how", [
    (spec, how) for spec in ("qcnn-mini", "qresnet-mini", "cnn-mini") for how in MADE
    if (spec, how) != ("cnn-mini", "apply_prune")])  # l1 scores quaternion convs only
def test_conv_weights_store_input_channels_innermost(tmp_path, spec, how):
    # every conv weight, its gradient slot and Adam's m and v are laid out
    # (O, kh, kw, C), banks (4, q_out, kh, kw, q_in), as the GEMMs read
    # them; every other array is C order
    model = MADE[how](build_model(spec, 3, (4, 16, 16), seed=0), tmp_path)
    x, y = batch(model)
    x = model_input(model, x).astype(next(iter(model.store)))
    z, tape = forward(model, x, mode="train")
    grads = backward(tape, cross_entropy(z, one_hot(y, 3), tape))
    opt = OptimState(model, "adam", 1e-3)
    weights = {(l.lid, l.params()[0][0]) for l in model.walk() if isinstance(l, Conv2d)}
    strided = 0
    for lid, _, name, arr in model.all_params():
        for a in (arr, grads[(lid, name)], opt.m[(lid, name)], opt.v[(lid, name)]):
            if (lid, name) in weights:
                assert np.moveaxis(a, -3, -1).flags.c_contiguous, (lid, name, a.strides)
                strided += not a.flags.c_contiguous
            else:
                assert a.flags.c_contiguous, (lid, name, a.strides)
    assert strided  # the rule is not met by shapes alone
    opt.step(grads)
    assert_stored(model)


def test_checkpoint_payload_is_the_c_order_bytes_of_each_array(tmp_path):
    model = small_qcnn()
    x, y = batch(model)
    opt = OptimState(model, "adam", 1e-3)
    z, tape = forward(model, x, mode="train")
    opt.step(backward(tape, cross_entropy(z, one_hot(y, 3), tape)))
    assert not model.layers[4].weights.flags.c_contiguous
    save_checkpoint(model, tmp_path / "m.qprs", optimizer=opt)
    raw = (tmp_path / "m.qprs").read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16 : 16 + hlen])
    arrays = {(lid, name): arr for lid, _, name, arr in model.all_params() + model.all_buffers()}
    logical = [arrays[(e["lid"], e["name"])] for e in header["payload"]]
    logical += [*opt.m.values(), *opt.v.values()]
    assert raw[16 + hlen :] == b"".join(a.astype("<f4").tobytes(order="C") for a in logical)
