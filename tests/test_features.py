"""Audio feature pipeline tests: STFT/mel oracles, quaternion encoding,
feature file format, and synthetic datasets."""

import numpy as np
import pytest

from qprune import features
from qprune.exceptions import FormatError, ShapeError, TruncationError
from qprune.features import (
    LOG_FLOOR,
    LabeledDataset,
    MelSpectrogram,
    encode_quaternion_features,
    load_dataset,
    load_feature_file,
    mel_filterbank,
    save_dataset,
    save_feature_file,
    save_manifest,
    synth_dataset,
    wav_to_mel,
)
from qprune.quaternion import QTensor


class TestWavToMel:
    def test_silence_hits_log_floor_everywhere(self):
        mel = wav_to_mel(np.zeros(32000))
        np.testing.assert_array_equal(mel.values, np.log(LOG_FLOOR))

    def test_silence_is_frame_invariant(self):
        mel = wav_to_mel(np.zeros(48000))
        assert np.ptp(mel.values, axis=0).max() == 0.0

    def test_pure_sine_peaks_at_its_mel_bin(self):
        # oracle from the filterbank construction: a tone at the center
        # frequency of band b must maximize band b's response
        _, centers = mel_filterbank()
        sr = 32000
        t = np.arange(sr) / sr
        for b in (8, 20, 40):
            tone = 0.5 * np.sin(2 * np.pi * centers[b] * t)
            mel = wav_to_mel(tone)
            interior = mel.values[10:-10]
            assert np.all(interior.argmax(axis=1) == b), f"band {b}"

    def test_ten_second_clip_gives_exactly_1000_frames(self):
        # unpadded arithmetic gives floor((320000 - 1024)/320) + 1 = 997;
        # the reflect padding of window - hop samples tops this up to 1000
        assert (320000 - 1024) // 320 + 1 == 997
        mel = wav_to_mel(np.random.default_rng(0).normal(size=320000) * 0.1)
        assert mel.frames == 1000
        assert mel.bins == 64

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            wav_to_mel(np.zeros(0))

    def test_wrong_rate_needs_override(self):
        clip = np.zeros(22050)
        with pytest.raises(ValueError):
            wav_to_mel(clip, sample_rate=22050)
        mel = wav_to_mel(clip, sample_rate=22050, allow_other_rate=True)
        assert mel.sample_rate == 22050

    def test_int16_input_accepted(self):
        pcm = (np.random.default_rng(1).normal(size=32000) * 3000).astype(np.int16)
        mel = wav_to_mel(pcm)
        assert np.all(np.isfinite(mel.values))


class TestQuaternionEncoding:
    def test_constant_psi_zero_derivatives(self):
        # including the log-floor constant, whose triple is inexact: the
        # difference-structured stencils must still cancel it exactly
        for c in (3.25, np.log(1e-10), -0.1):
            psi = np.full((16, 8), c)
            q = encode_quaternion_features(psi)
            np.testing.assert_array_equal(q.data[0, 0], psi)
            np.testing.assert_array_equal(q.data[1:], 0.0)

    def test_ramp_first_derivative_one(self):
        t = np.arange(20, dtype=float)
        psi = np.tile(t[:, None], (1, 5))
        q = encode_quaternion_features(psi)
        np.testing.assert_allclose(q.data[1, 0, 1:-1], 1.0)
        np.testing.assert_allclose(q.data[2, 0, 1:-1], 0.0, atol=1e-12)
        np.testing.assert_allclose(q.data[3, 0, 2:-2], 0.0, atol=1e-12)

    def test_random_psi_matches_direct_stencils(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=(12, 6))
        q = encode_quaternion_features(psi)
        t_n = psi.shape[0]
        # independent stencil evaluation, written longhand
        for f in range(6):
            col = psi[:, f]
            for t in range(1, t_n - 1):
                assert q.data[1, 0, t, f] == pytest.approx(
                    (col[t + 1] - col[t - 1]) / 2, rel=1e-12)
                assert q.data[2, 0, t, f] == pytest.approx(
                    col[t + 1] - 2 * col[t] + col[t - 1], rel=1e-12)
            for t in range(2, t_n - 2):
                assert q.data[3, 0, t, f] == pytest.approx(
                    (col[t + 2] - 2 * col[t + 1] + 2 * col[t - 1] - col[t - 2]) / 2,
                    rel=1e-12)

    def test_linearity_exact_on_integer_grids(self):
        # integer-valued inputs keep every stencil operation exact in
        # float64, so linearity holds bitwise
        rng = np.random.default_rng(3)
        p1 = rng.integers(-50, 50, size=(10, 4)).astype(np.float64)
        p2 = rng.integers(-50, 50, size=(10, 4)).astype(np.float64)
        a, b = 2.0, -3.0
        left = encode_quaternion_features(a * p1 + b * p2).data
        right = a * encode_quaternion_features(p1).data \
            + b * encode_quaternion_features(p2).data
        np.testing.assert_array_equal(left, right)

    def test_linearity_random_floats(self):
        rng = np.random.default_rng(13)
        p1, p2 = rng.normal(size=(2, 10, 4))
        a, b = 2.5, -1.25
        left = encode_quaternion_features(a * p1 + b * p2).data
        right = a * encode_quaternion_features(p1).data \
            + b * encode_quaternion_features(p2).data
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-13)

    def test_polynomial_annihilation(self):
        # k-th derivative stencil kills polynomials of degree k-1 on the
        # interior (margin k//2 + 1 frames per side)
        t = np.arange(24, dtype=float)
        for k, deg in ((1, 0), (2, 1), (3, 2)):
            psi = np.tile((t ** deg)[:, None], (1, 3))
            q = encode_quaternion_features(psi)
            margin = 2 if k == 3 else 1
            np.testing.assert_allclose(
                q.data[k, 0, margin:-margin], 0.0, atol=1e-9)

    def test_too_few_frames(self):
        with pytest.raises(ShapeError):
            encode_quaternion_features(np.zeros((6, 4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batched_derivative_equals_per_sample_bitwise(self, dtype):
        psi = np.random.default_rng(14).normal(size=(3, 5, 7, 3)).astype(dtype)
        for k in (1, 2, 3):
            batched = features._temporal_derivative(psi, k)
            assert batched.shape == psi.shape and batched.dtype == dtype
            for idx in np.ndindex(psi.shape[:2]):
                single = features._temporal_derivative(psi[idx], k)
                assert batched[idx].tobytes() == single.tobytes(), (k, idx)


class TestFeatureFiles:
    def test_round_trip_qtensor_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        t = QTensor(rng.normal(size=(4, 1, 9, 5)).astype(np.float32))
        path = tmp_path / "x.qfea"
        save_feature_file(path, t)
        back = load_feature_file(path)
        assert isinstance(back, QTensor)
        assert back.data.tobytes() == t.data.tobytes()

    def test_round_trip_mel_float64(self, tmp_path):
        rng = np.random.default_rng(5)
        mel = MelSpectrogram(rng.normal(size=(20, 8)))
        path = tmp_path / "m.qfea"
        save_feature_file(path, mel)
        back = load_feature_file(path)
        assert isinstance(back, MelSpectrogram)
        assert back.values.tobytes() == mel.values.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qfea"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.qfea"
        save_feature_file(path, QTensor(np.ones((4, 1, 8, 4), dtype=np.float32)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncationError):
            load_feature_file(path)

    def test_non_finite_payload_names_the_file(self, tmp_path):
        for bad in (np.nan, np.inf):
            values = np.ones((4, 1, 8, 4), dtype=np.float32)
            values[2, 0, 3, 1] = bad
            path = tmp_path / "nan.qfea"
            save_feature_file(path, values)
            with pytest.raises(FormatError, match="nan.qfea: .*non-finite"):
                load_feature_file(path)

    def test_save_load_save_identical_bytes(self, tmp_path):
        t = QTensor(np.random.default_rng(6).normal(size=(4, 2, 6, 6)).astype(np.float32))
        p1, p2 = tmp_path / "a.qfea", tmp_path / "b.qfea"
        save_feature_file(p1, t)
        save_feature_file(p2, load_feature_file(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestSynthDataset:
    def test_same_seed_identical(self):
        a = synth_dataset(3, 30, seed=9)
        b = synth_dataset(3, 30, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_dataset(3, 30, seed=9)
        b = synth_dataset(3, 30, seed=10)
        assert not np.array_equal(a.features, b.features)

    def test_balanced_partition(self):
        ds = synth_dataset(3, 32, seed=0)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_two_class_linearly_separable(self):
        # a one-layer model must reach 100% train accuracy
        from qprune.autodiff import TrainConfig, evaluate_accuracy, train_loop
        from qprune.nn import Flatten, Linear, ModelGraph

        ds = synth_dataset(2, 40, seed=1, frames=16, bins=8)
        n_features = 4 * 1 * 16 * 8
        model = ModelGraph([Flatten(), Linear(n_features, 2)],
                           (4, 16, 8), 2, quaternion=True)
        model.init_params(np.random.default_rng(0))
        cfg = TrainConfig(iterations=300, lr=0.01, seed=0, eval_every=50,
                          target_metric=1.0)
        train_loop(model, ds.features, ds.labels, cfg)
        assert evaluate_accuracy(model, ds.features, ds.labels) == 1.0

    def test_multilabel_mode(self):
        ds = synth_dataset(4, 20, seed=2, multilabel=True)
        assert ds.task == "multi"
        assert ds.labels.shape == (20, 4)
        assert np.all(ds.labels.sum(axis=1) >= 1)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 10)
        with pytest.raises(ValueError):
            synth_dataset(4, 3)

    @staticmethod
    def _per_sample_reference(num_classes, num_samples, seed, frames, bins,
                              noise, multilabel):
        # one sample at a time through the public encoder, drawing from the
        # RNG in the documented order: templates, permutation, then per
        # sample the extra multi-label class, the amplitude and the noise
        rng = np.random.default_rng(seed)
        spectral, temporal = features._class_templates(num_classes, bins,
                                                       frames, rng)
        feats = np.empty((num_samples, 4, 1, frames, bins), dtype=np.float32)
        labels = np.zeros((num_samples, num_classes) if multilabel
                          else num_samples, dtype=np.int64)
        for slot, n in enumerate(rng.permutation(num_samples)):
            g = slot % num_classes
            psi = np.outer(temporal[g], spectral[g])
            if multilabel:
                labels[n, g] = 1
                if rng.integers(0, 2):
                    g2 = int(rng.integers(num_classes))
                    psi = psi + np.outer(temporal[g2], spectral[g2])
                    labels[n, g2] = 1
            else:
                labels[n] = g
            amp = rng.uniform(0.8, 1.2)
            psi = amp * psi + noise * rng.normal(size=(frames, bins))
            feats[n] = encode_quaternion_features(psi).data
        return feats, labels

    @pytest.mark.parametrize("chunk", [1, 3, None])  # samples per chunk
    @pytest.mark.parametrize("kw", [
        dict(num_samples=33),
        dict(num_samples=10, multilabel=True),
        dict(num_samples=17, frames=7, bins=3),
        dict(num_samples=12, frames=40, bins=5, noise=0.3, multilabel=True),
    ])
    def test_bytes_equal_per_sample_encoding(self, monkeypatch, kw, chunk):
        args = dict(num_classes=4, seed=7, frames=32, bins=16, noise=0.05,
                    multilabel=False)
        args.update(kw)
        if chunk is not None:  # None keeps the library's own chunk size
            monkeypatch.setattr(features, "_CHUNK_VALUES",
                                chunk * args["frames"] * args["bins"])
        ds = synth_dataset(**args)
        feats, labels = self._per_sample_reference(**args)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == feats.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


class TestManifestLoader:
    def test_round_trip(self, tmp_path):
        ds = synth_dataset(3, 12, seed=3, frames=10, bins=6)
        save_dataset(ds, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == 3 and back.task == "single"

    def test_multilabel_round_trip(self, tmp_path):
        ds = synth_dataset(3, 10, seed=4, frames=10, bins=6, multilabel=True)
        save_dataset(ds, tmp_path / "m")
        back = load_dataset(tmp_path / "m")
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.task == "multi"

    def test_equals_stacked_file_loads_with_mel_files(self, tmp_path):
        rng = np.random.default_rng(15)
        objs = [QTensor(rng.normal(size=(4, 1, 9, 5)).astype(np.float32)),
                MelSpectrogram(rng.normal(size=(9, 5))),
                QTensor(rng.normal(size=(4, 1, 9, 5))),  # a float64 payload
                MelSpectrogram(rng.normal(size=(9, 5)).astype(np.float32))]
        for n, obj in enumerate(objs):
            save_feature_file(tmp_path / features.SAMPLE_FILE.format(n), obj)
        save_manifest(tmp_path, [0, 1, 0, 1], 2, "single")
        want = []
        for n in range(len(objs)):
            obj = load_feature_file(tmp_path / features.SAMPLE_FILE.format(n))
            if isinstance(obj, MelSpectrogram):
                obj = encode_quaternion_features(obj)
            want.append(obj.data.astype(np.float32))
        got = load_dataset(tmp_path).features
        assert got.dtype == np.float32 and got.shape == (4, 4, 1, 9, 5)
        assert got.tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("corrupt,error", [
        (lambda raw: b"NOPE" + raw[4:], FormatError),
        (lambda raw: raw[:28], TruncationError),  # rank 4 needs 52 header bytes
        (lambda raw: raw[:-4], TruncationError),
    ], ids=["wrong_magic", "truncated_dims", "short_payload"])
    def test_bad_sample_file_raises_typed_error(self, tmp_path, corrupt, error):
        save_dataset(synth_dataset(3, 6, seed=5, frames=10, bins=6), tmp_path)
        path = tmp_path / features.SAMPLE_FILE.format(4)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(error, match=path.name):
            load_dataset(tmp_path)

    def test_shape_mismatch_names_file_and_shapes(self, tmp_path):
        save_dataset(synth_dataset(3, 6, seed=5, frames=10, bins=6), tmp_path)
        save_feature_file(tmp_path / features.SAMPLE_FILE.format(2),
                          np.zeros((4, 1, 8, 6), dtype=np.float32))
        with pytest.raises(FormatError) as info:
            load_dataset(tmp_path)
        msg = str(info.value)
        assert "sample_00002.qfea" in msg and "sample_00000.qfea" in msg
        assert "(4, 1, 8, 6)" in msg and "(4, 1, 10, 6)" in msg

    def test_non_finite_sample_names_the_file(self, tmp_path):
        save_dataset(synth_dataset(3, 6, seed=5, frames=10, bins=6), tmp_path)
        values = np.zeros((4, 1, 10, 6), dtype=np.float32)
        values[0, 0, 0, 0] = np.nan
        save_feature_file(tmp_path / features.SAMPLE_FILE.format(5), values)
        with pytest.raises(FormatError, match="sample_00005.qfea"):
            load_dataset(tmp_path)

    def test_short_mel_sample_names_the_file(self, tmp_path):
        # a rank-2 mel file is encoded on load, which needs 7 frames
        save_dataset(synth_dataset(3, 6, seed=5, frames=10, bins=6), tmp_path)
        save_feature_file(tmp_path / features.SAMPLE_FILE.format(3),
                          MelSpectrogram(np.ones((5, 6))))
        with pytest.raises(FormatError, match="sample_00003.qfea: need at least 7 frames"):
            load_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_unknown_task_rejected(self, tmp_path):
        save_dataset(synth_dataset(3, 6, seed=5, frames=10, bins=6), tmp_path / "d")
        meta = tmp_path / "d" / "dataset.txt"
        meta.write_text(meta.read_text().replace("task=single", "task=foo"))
        with pytest.raises(FormatError, match="task 'foo'"):
            load_dataset(tmp_path / "d")
