"""Checkpoint format tests: bit-exact round trips and error handling."""

import json
import struct

import numpy as np
import pytest

from qprune.autodiff import OptimState, backward, cross_entropy, forward, one_hot
from qprune.exceptions import FormatError, TruncationError
from qprune.models import build_model
from qprune.nn import (
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ModelGraph,
    QConv2d,
    QLinear,
    load_checkpoint,
    save_checkpoint,
)


def params_blob(model):
    return b"".join(arr.tobytes() for _, _, _, arr in model.all_params())


class TestCheckpointRoundTrip:
    def test_bit_exact_params_and_buffers(self, tmp_path):
        model = build_model("qcnn-mini", 4, (4, 32, 16), seed=3)
        path = tmp_path / "m.qprs"
        save_checkpoint(model, path)
        back, opt = load_checkpoint(path)
        assert opt is None
        assert params_blob(back) == params_blob(model)
        assert back.describe() == model.describe()

    def test_residual_model_round_trip(self, tmp_path):
        model = build_model("qresnet-mini", 5, (4, 32, 16), seed=4)
        path = tmp_path / "r.qprs"
        save_checkpoint(model, path)
        back, _ = load_checkpoint(path)
        assert params_blob(back) == params_blob(model)
        assert back.describe() == model.describe()

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = build_model("cnn-mini", 3, (4, 32, 16), seed=5)
        p1, p2 = tmp_path / "a.qprs", tmp_path / "b.qprs"
        save_checkpoint(model, p1)
        back, _ = load_checkpoint(p1)
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_forward_matches(self, tmp_path):
        from qprune.autodiff import inference

        model = build_model("qcnn-mini", 4, (4, 16, 16), seed=6)
        path = tmp_path / "f.qprs"
        save_checkpoint(model, path)
        back, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 4, 1, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(inference(model, x), inference(back, x))

    def test_optimizer_state_round_trip(self, tmp_path):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=7)
        opt = OptimState(model, "adam", lr=1e-3)
        x = np.random.default_rng(1).normal(size=(4, 4, 1, 16, 16)).astype(np.float32)
        z, tape = forward(model, x, mode="train")
        grads = backward(tape, cross_entropy(z, one_hot([0, 1, 2, 0], 3), tape))
        opt.step(grads)

        path = tmp_path / "o.qprs"
        save_checkpoint(model, path, optimizer=opt)
        back, state = load_checkpoint(path)
        restored = OptimState.from_saved(back, state)
        assert restored.t == opt.t and restored.kind == "adam"
        for key, arr in opt.m.items():
            np.testing.assert_array_equal(restored.m[key], arr)
        for key, arr in opt.v.items():
            np.testing.assert_array_equal(restored.v[key], arr)


class TestCheckpointErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qprs"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.qprs"
        path.write_bytes(b"QPRS" + struct.pack("<I", 99) + struct.pack("<Q", 0))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=8)
        path = tmp_path / "t.qprs"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(TruncationError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=9)
        path = tmp_path / "g.qprs"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncationError):
            load_checkpoint(path)

    def test_header_byte_flips_raise_format_error(self, tmp_path):
        # a flipped header byte either still loads or is a FormatError,
        # never a decode, JSON or lookup error
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=10)
        opt = OptimState(model, "adam", lr=1e-3)
        path = tmp_path / "c.qprs"
        save_checkpoint(model, path, optimizer=opt)
        raw = path.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        rng = np.random.default_rng(0)
        bad = tmp_path / "flipped.qprs"
        for pos, mask in zip(rng.integers(16, 16 + hlen, 200), rng.integers(1, 256, 200)):
            buf = bytearray(raw)
            buf[pos] ^= int(mask)
            bad.write_bytes(bytes(buf))
            try:
                load_checkpoint(bad)
            except FormatError:
                pass

    def test_payload_table_must_match_model(self, tmp_path):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=11)
        path = tmp_path / "p.qprs"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        # swap the shape of the first payload entry without changing lengths
        swapped = raw.replace(b'"shape": [4, 4, 1, 3, 3]', b'"shape": [4, 1, 4, 3, 3]', 1)
        assert swapped != raw
        path.write_bytes(swapped)
        with pytest.raises(FormatError, match="payload table"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers,input_shape,quaternion", [
        ([GlobalAvgPool2d(), Flatten(), Linear(99, 3)], (8, 4, 4), False),
        ([QConv2d(1, 2, (3, 3)), GlobalAvgPool2d(), QLinear(5, 3), Flatten(),
          Linear(12, 3)], (4, 8, 8), True),
    ], ids=["linear_width", "qlinear_width"])
    def test_layers_must_chain(self, tmp_path, layers, input_shape, quaternion):
        path = tmp_path / "w.qprs"
        save_checkpoint(ModelGraph(layers, input_shape, 3, quaternion), path)
        with pytest.raises(FormatError, match="malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        ({"task": "foo"}, "unknown task"),
        ({"num_classes": -2}, "-2 class logits"),
        ({"num_classes": 5}, "5 class logits"),
    ], ids=["task", "num_classes_negative", "num_classes_not_logits"])
    def test_task_and_class_count_must_fit(self, tmp_path, edit, match):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=12)
        path = tmp_path / "t.qprs"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16 : 16 + hlen])
        header["model"].update(edit)
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)
