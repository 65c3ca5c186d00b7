"""End-to-end CLI tests: the full features -> train -> prune -> distill ->
eval -> compare pipeline on a small synthetic dataset."""

import json
import struct
import wave

import numpy as np
import pytest

from qprune.autodiff import OptimState
from qprune.cli import main
from qprune.features import (save_dataset, save_feature_file, synth_dataset,
                              write_wav)
from qprune.models import build_model
from qprune.nn import save_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["features", "synth", "--classes", "3", "--samples", "45",
                 "--frames", "16", "--bins", "16", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--data", str(data_dir), "--model", "qcnn-mini",
                 "--iterations", "120", "--lr", "0.003", "--seed", "3",
                 "--target-metric", "1.0", "--out", str(out)])
    assert code == 0
    return out


class TestFeaturesCommand:
    def test_synth_outputs(self, data_dir):
        assert (data_dir / "manifest.csv").is_file()
        assert (data_dir / "dataset.txt").is_file()
        assert len(list(data_dir.glob("*.qfea"))) == 45

    def test_wav_mode_with_class_dirs(self, tmp_path):
        rng = np.random.default_rng(0)
        for cls in ("drum", "flute"):
            d = tmp_path / "wavs" / cls
            d.mkdir(parents=True)
            for k in range(2):
                write_wav(d / f"{cls}_{k}.wav",
                          rng.normal(size=16000).astype(np.float32) * 0.1)
        out = tmp_path / "feats"
        code = main(["features", "wav", "--input", str(tmp_path / "wavs"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "manifest.csv").read_bytes() == (
            b"file,label\nsample_00000.qfea,0\nsample_00001.qfea,0\n"
            b"sample_00002.qfea,1\nsample_00003.qfea,1\n")
        assert (out / "dataset.txt").read_bytes() == b"num_classes=2\ntask=single\n"
        assert (out / "classes.txt").read_text().split() == ["drum", "flute"]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["features", "synth", "--classes", "2", "--samples",
                         "6", "--frames", "8", "--bins", "8", "--seed", "7",
                         "--out", str(out)]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, trained):
        assert (trained / "model.qprs").is_file()
        log = (trained / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,loss,metric"
        assert len(log) > 1

    def test_reaches_target_on_toy_data(self, trained):
        rows = (trained / "train_log.csv").read_text().splitlines()[1:]
        metric_vals = [float(r.split(",")[2]) for r in rows if r.split(",")[2]]
        assert metric_vals[-1] >= 0.95

    def test_same_seed_bit_identical_checkpoints(self, tmp_path, data_dir):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", str(data_dir), "--model",
                         "qcnn-mini", "--iterations", "15", "--seed", "9",
                         "--out", str(out)]) == 0
            outs.append((out / "model.qprs").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_iterations_checkpoint_is_init(self, tmp_path, data_dir):
        out = tmp_path / "init"
        assert main(["train", "--data", str(data_dir), "--model", "qcnn-mini",
                     "--iterations", "0", "--seed", "4",
                     "--out", str(out)]) == 0
        from qprune.models import build_model
        from qprune.nn import load_checkpoint

        back, _ = load_checkpoint(out / "model.qprs")
        fresh = build_model("qcnn-mini", 3, (4, 16, 16), seed=4)
        for (_, _, _, a), (_, _, _, b) in zip(back.all_params(),
                                              fresh.all_params()):
            np.testing.assert_array_equal(a, b)

    def test_missing_data_is_config_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestPruneCommand:
    def test_outputs_and_param_decrease(self, tmp_path, trained, data_dir):
        out = tmp_path / "pruned"
        code = main(["prune", "--checkpoint", str(trained / "model.qprs"),
                     "--method", "op", "--ratio", "0.5",
                     "--out", str(out)])
        assert code == 0
        assert (out / "plan.qplan").is_file()
        assert (out / "pruned.qprs").is_file()
        report = (out / "prune_report.txt").read_text()
        assert "params" in report and "macs" in report

        from qprune.metrics import count_params
        from qprune.nn import load_checkpoint

        full, _ = load_checkpoint(trained / "model.qprs")
        pruned, _ = load_checkpoint(out / "pruned.qprs")
        assert count_params(pruned) < count_params(full)

    def test_ratio_zero_forward_identical(self, tmp_path, trained, data_dir):
        out = tmp_path / "p0"
        assert main(["prune", "--checkpoint", str(trained / "model.qprs"),
                     "--method", "l1", "--ratio", "0.0",
                     "--out", str(out)]) == 0
        from qprune.autodiff import inference
        from qprune.features import load_dataset
        from qprune.nn import load_checkpoint, model_input

        full, _ = load_checkpoint(trained / "model.qprs")
        pruned, _ = load_checkpoint(out / "pruned.qprs")
        ds = load_dataset(data_dir)
        x = model_input(full, ds.features[:4])
        np.testing.assert_array_equal(inference(full, x),
                                      inference(pruned, x))

    def test_replay_reproduces_checkpoint(self, tmp_path, trained):
        out1 = tmp_path / "first"
        assert main(["prune", "--checkpoint", str(trained / "model.qprs"),
                     "--method", "gm", "--ratio", "0.25",
                     "--out", str(out1)]) == 0
        # replay: apply the emitted plan to the same checkpoint
        from qprune.nn import load_checkpoint, save_checkpoint
        from qprune.pruning import apply_prune, load_plan

        model, _ = load_checkpoint(trained / "model.qprs")
        plan = load_plan(out1 / "plan.qplan")
        replayed = tmp_path / "replayed.qprs"
        save_checkpoint(apply_prune(model, plan), replayed)
        assert replayed.read_bytes() == (out1 / "pruned.qprs").read_bytes()

    def test_corrupt_checkpoint_one_line_error(self, tmp_path, trained, capsys):
        raw = bytearray((trained / "model.qprs").read_bytes())
        raw[16] ^= 0xFF  # the first byte of the JSON header
        bad = tmp_path / "bad.qprs"
        bad.write_bytes(bytes(raw))
        code = main(["prune", "--checkpoint", str(bad), "--method", "l1",
                     "--ratio", "0.5", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_finetune_path(self, tmp_path, trained, data_dir):
        out = tmp_path / "ft"
        code = main(["prune", "--checkpoint", str(trained / "model.qprs"),
                     "--method", "op", "--ratio", "0.5", "--data",
                     str(data_dir), "--finetune-iterations", "30",
                     "--lr", "0.003", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert (out / "finetuned.qprs").is_file()
        assert (out / "finetune_log.csv").is_file()

    def test_surgery_into_a_residual_block_one_line_error(self, tmp_path, capsys):
        from qprune.models import build_model
        from qprune.nn import save_checkpoint

        ckpt = tmp_path / "qresnet.qprs"
        save_checkpoint(build_model("qresnet-mini", 3, (4, 16, 16), seed=0), ckpt)
        capsys.readouterr()
        code = main(["prune", "--checkpoint", str(ckpt), "--layers", "0",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "residual" in err
        assert not (tmp_path / "o").exists()


class TestDistillCommand:
    def test_student_from_plan_params_match(self, tmp_path, trained, data_dir):
        pruned_out = tmp_path / "pr"
        assert main(["prune", "--checkpoint", str(trained / "model.qprs"),
                     "--method", "op", "--ratio", "0.5",
                     "--out", str(pruned_out)]) == 0
        out = tmp_path / "kd"
        code = main(["distill", "--teacher", str(trained / "model.qprs"),
                     "--plan", str(pruned_out / "plan.qplan"),
                     "--data", str(data_dir), "--iterations", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        from qprune.metrics import count_params
        from qprune.nn import load_checkpoint

        student, _ = load_checkpoint(out / "student.qprs")
        pruned, _ = load_checkpoint(pruned_out / "pruned.qprs")
        assert count_params(student) == count_params(pruned)
        log = (out / "distill_log.csv").read_text().splitlines()
        assert log[0] == "iteration,ce,kl,total"

    def test_alpha_one_matches_ce_only_training(self, tmp_path, data_dir, trained):
        # same student architecture, same seed: the alpha=1 distill loss
        # series must equal a plain CE training run exactly
        kd_out = tmp_path / "kd1"
        assert main(["distill", "--teacher", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--alpha", "1.0",
                     "--iterations", "12", "--seed", "17",
                     "--out", str(kd_out)]) == 0
        ce_out = tmp_path / "ce"
        assert main(["train", "--data", str(data_dir), "--model", "qcnn-mini",
                     "--iterations", "12", "--seed", "17",
                     "--out", str(ce_out)]) == 0
        kd_rows = (kd_out / "distill_log.csv").read_text().splitlines()[1:]
        ce_rows = (ce_out / "train_log.csv").read_text().splitlines()[1:]
        kd_total = [r.split(",")[3] for r in kd_rows]
        ce_loss = [r.split(",")[1] for r in ce_rows]
        assert kd_total == ce_loss

    def test_runs_no_evaluation(self, tmp_path, data_dir, trained, monkeypatch):
        # keep="final", no target and discarded rows: nothing reads one
        from qprune import autodiff

        calls = []
        real = autodiff.evaluate_metric
        monkeypatch.setattr(autodiff, "evaluate_metric",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert main(["distill", "--teacher", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--iterations", "3",
                     "--out", str(tmp_path / "kd")]) == 0
        assert calls == []

    def test_missing_teacher_exit_2(self, tmp_path, data_dir):
        code = main(["distill", "--teacher", str(tmp_path / "missing.qprs"),
                     "--data", str(data_dir), "--out", str(tmp_path / "o")])
        assert code == 2


class TestEvalCompareCommands:
    def test_eval_outputs(self, tmp_path, trained, data_dir):
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 0
        rows = (out / "eval.csv").read_text().splitlines()
        assert rows[0] == "model,method,p,metric,value,params,macs,time_s"
        assert "accuracy" in rows[1]

    def test_eval_deterministic(self, tmp_path, trained, data_dir):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                         "--data", str(data_dir), "--out", str(out)]) == 0
            outs.append((out / "eval.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_params_match_count(self, tmp_path, trained, data_dir):
        out = tmp_path / "ep"
        assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        from qprune.metrics import count_params, read_report_csv
        from qprune.nn import load_checkpoint

        model, _ = load_checkpoint(trained / "model.qprs")
        row = read_report_csv(out / "eval.csv")[0]
        assert int(row["params"]) == count_params(model)

    def test_eval_counts_the_macs_of_the_data_it_evaluates(self, tmp_path, trained):
        from qprune.metrics import count_macs, read_report_csv
        from qprune.nn import load_checkpoint

        model, _ = load_checkpoint(trained / "model.qprs")  # trained on 16 frames
        data = tmp_path / "long"
        save_dataset(synth_dataset(3, 6, seed=0, frames=32, bins=16), data)
        assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                     "--data", str(data), "--out", str(tmp_path / "ev")]) == 0
        macs = int(read_report_csv(tmp_path / "ev" / "eval.csv")[0]["macs"])
        assert macs == count_macs(model, (4, 32, 16)) != count_macs(model)

    def test_eval_multilabel_reports_map(self, tmp_path):
        data = tmp_path / "mdata"
        assert main(["features", "synth", "--classes", "3", "--samples", "18",
                     "--frames", "16", "--bins", "16", "--multilabel",
                     "--seed", "2", "--out", str(data)]) == 0
        model_out = tmp_path / "mtrain"
        assert main(["train", "--data", str(data), "--model", "qcnn-mini",
                     "--iterations", "5", "--seed", "0",
                     "--out", str(model_out)]) == 0
        out = tmp_path / "meval"
        assert main(["eval", "--checkpoint", str(model_out / "model.qprs"),
                     "--data", str(data), "--out", str(out)]) == 0
        assert "mAP" in (out / "eval.csv").read_text()

    def test_compare_single_input_identity(self, tmp_path, trained, data_dir):
        ev = tmp_path / "ev1"
        assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--out", str(ev)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", "--inputs", str(ev / "eval.csv"),
                     "--out", str(out)]) == 0
        import csv

        with open(ev / "eval.csv") as fh:
            original = list(csv.DictReader(fh))
        with open(out / "compare.csv") as fh:
            merged = list(csv.DictReader(fh))
        assert merged == original

    def test_compare_merges_and_sorts(self, tmp_path, trained, data_dir):
        evs = []
        for i, (method, ratio) in enumerate((("op", "0.5"), ("l1", "0.25"))):
            ev = tmp_path / f"e{i}"
            assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                         "--data", str(data_dir), "--method", method,
                         "--ratio", ratio, "--out", str(ev)]) == 0
            evs.append(str(ev / "eval.csv"))
        out = tmp_path / "cmp2"
        assert main(["compare", "--inputs", ",".join(evs),
                     "--out", str(out)]) == 0
        rows = (out / "compare.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[1] == "l1"  # sorted by method after model

    def test_unlabelled_eval_has_empty_method_and_zero_p(self, tmp_path,
                                                          trained, data_dir):
        out = tmp_path / "plain"
        assert main(["eval", "--checkpoint", str(trained / "model.qprs"),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        from qprune.metrics import read_report_csv

        row = read_report_csv(out / "eval.csv")[0]
        assert row["method"] == "" and float(row["p"]) == 0.0
        assert "method:" not in (out / "eval.txt").read_text()

    def test_compare_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,method\nqcnn-mini,op\n")
        code = main(["compare", "--inputs", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_compare_nine_row_grid(self, tmp_path):
        # Prune_FT vs KD vs Prune_KD rows for p in {0.25, 0.5, 0.75}
        from qprune.metrics import EvalReport, write_report_csv

        csvs = []
        for i, method in enumerate(("prune_ft", "kd", "prune_kd")):
            for j, p in enumerate((0.25, 0.5, 0.75)):
                rep = EvalReport(model="qcnn-mini", method=method, p=p,
                                 metric="accuracy", value=0.9 - 0.01 * j,
                                 params=1000, macs=2000)
                path = tmp_path / f"in_{i}_{j}.csv"
                write_report_csv(path, [rep])
                csvs.append(str(path))
        out = tmp_path / "grid"
        assert main(["compare", "--inputs", ",".join(csvs),
                     "--out", str(out)]) == 0
        rows = (out / "compare.csv").read_text().splitlines()
        assert len(rows) == 10  # header + 9-row grid
        methods = [r.split(",")[1] for r in rows[1:]]
        ps = [float(r.split(",")[2]) for r in rows[1:]]
        assert methods == sorted(methods)
        for k in range(0, 9, 3):
            assert ps[k : k + 3] == sorted(ps[k : k + 3])


class TestConfigFile:
    def test_config_file_values_used_and_overridden(self, tmp_path, data_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training setup\n"
            "model=qcnn-mini\n"
            "iterations=4\n"
            "lr=0.002\n"
        )
        out = tmp_path / "cfgout"
        code = main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--iterations", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        assert len(rows) == 2  # CLI flag wins over the file's 4

    def test_unknown_key_rejected(self, tmp_path, data_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modle=qcnn-mini\n")
        code = main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_usage_error_exit_2(self):
        assert main(["train", "--model", "not-a-model"]) == 2

    def test_file_values_equal_flag_values(self, tmp_path, data_dir, trained):
        # every option set away from its default, once as flags and once
        # through a config file: the artifacts must match byte for byte
        settings = {
            "train": {"model": "cnn-mini", "iterations": "6", "lr": "0.002",
                      "batch_size": "8", "optimizer": "sgd",
                      "val_fraction": "0.2", "mixup": "true",
                      "target_metric": "0.5", "seed": "5"},
            "prune": {"method": "gm", "ratio": "0.25", "layers": "12,16",
                      "finetune_iterations": "4", "lr": "0.002",
                      "batch_size": "8", "optimizer": "sgd",
                      "val_fraction": "0.25", "seed": "6"},
            "distill": {"alpha": "0.7", "temperature": "3",
                        "t2_scaling": "true", "iterations": "4",
                        "lr": "0.002", "batch_size": "12",
                        "optimizer": "sgd", "val_fraction": "0.3",
                        "seed": "7"},
        }
        teacher = str(trained / "model.qprs")
        for source in ("flags", "file"):
            run = tmp_path / source
            inputs = {
                "train": ["--data", str(data_dir)],
                "prune": ["--checkpoint", teacher, "--data", str(data_dir)],
                "distill": ["--teacher", teacher, "--data", str(data_dir),
                            "--plan", str(run / "prune" / "plan.qplan")],
            }
            for command, values in settings.items():
                argv = [command, *inputs[command], "--out", str(run / command)]
                if source == "flags":
                    for key, value in values.items():
                        flag = "--" + key.replace("_", "-")
                        argv += [flag] if value == "true" else [flag, value]
                else:
                    cfg = tmp_path / f"{command}.cfg"
                    cfg.write_text("".join(f"{k}={v}\n"
                                           for k, v in values.items()))
                    argv += ["--config", str(cfg)]
                assert main(argv) == 0
        report = (tmp_path / "flags" / "prune" / "prune_report.txt").read_text()
        assert "method=gm p=0.25" in report
        flag_files = sorted(f for f in (tmp_path / "flags").rglob("*")
                            if f.is_file())
        assert len(flag_files) == 9
        for f in flag_files:
            twin = tmp_path / "file" / f.relative_to(tmp_path / "flags")
            assert f.read_bytes() == twin.read_bytes(), f.name


def _edit(name, old, new):
    def edit(dataset_dir):
        path = dataset_dir / name
        path.write_text(path.read_text().replace(old, new, 1))
    return edit


def _edit_bytes(name, old, new):
    def edit(dataset_dir):
        path = dataset_dir / name
        path.write_bytes(path.read_bytes().replace(old, new, 1))
    return edit


def _sample(n, values):
    def edit(dataset_dir):
        save_feature_file(dataset_dir / f"sample_{n:05d}.qfea",
                          np.asarray(values, dtype=np.float32))
    return edit


def _write(name, text):
    def write(dataset_dir):
        (dataset_dir / name).write_text(text)
    return write


def _patch(name, offset, packed):
    def patch(dataset_dir):
        path = dataset_dir / name
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(packed)] = packed
        path.write_bytes(bytes(raw))
    return patch


def _config(text):
    def write(tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)
    return write


def _file(name, text):
    def write(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def _bytes(name, raw):
    def write(tmp_path):
        path = tmp_path / name
        path.write_bytes(raw)
        return str(path)
    return write


def _wav(channels, sample_width):
    def write(tmp_path):
        path = tmp_path / "clip.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(sample_width)
            fh.setframerate(16000)
            fh.writeframes(bytes(channels * sample_width * 1600))
        return str(path)
    return write


def _clip(length, rate):
    def write(tmp_path):
        write_wav(tmp_path / "clip.wav", np.zeros(length), rate)
        return str(tmp_path / "clip.wav")
    return write


def _empty_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    return str(tmp_path / "empty")


def _clips(*lengths):
    """One class directory per clip, clip n lengths[n] samples of silence."""
    def write(tmp_path):
        for n, length in enumerate(lengths):
            (tmp_path / "clips" / f"c{n}").mkdir(parents=True)
            write_wav(tmp_path / "clips" / f"c{n}" / "clip.wav", np.zeros(length))
        return str(tmp_path / "clips")
    return write


def _checkpoint(edit):
    """A checkpoint with Adam state, its bytes rewritten by edit."""
    def write(tmp_path):
        model = build_model("qcnn-mini", 3, (4, 16, 16), seed=0)
        path = tmp_path / "edited.qprs"
        save_checkpoint(model, path, optimizer=OptimState(model, "adam", lr=1e-3))
        path.write_bytes(edit(path.read_bytes()))
        return str(path)
    return write


def _negative_slot_shape(raw):
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16 : 16 + hlen])
    header["optimizer"]["slots"][0]["shape"] = [-1, 4]
    blob = json.dumps(header, sort_keys=True).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :]


def _eval_csv(**fields):
    def write(tmp_path):
        row = {"model": "m", "method": "op", "p": "0.5", "metric": "accuracy",
               "value": "0.9", "params": "10", "macs": "20", "time_s": "0",
               **fields}
        path = tmp_path / "eval.csv"
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        return str(path)
    return write


# (id, argv after the command's inputs, dataset edit, exit code); settings
# errors exit 2 and file-format errors exit 1
MALFORMED = [
    ("distill_alpha", ["distill", "--alpha", "2"], None, 2),
    ("distill_temperature", ["distill", "--temperature", "0"], None, 2),
    ("eval_time_repeats", ["eval", "--time-repeats", "2"], None, 2),
    ("eval_batch_size", ["eval", "--batch-size", "-1"], None, 2),
    ("train_batch_size", ["train", "--batch-size", "0"], None, 2),
    ("train_val_fraction", ["train", "--val-fraction", "1.5"], None, 2),
    ("train_empty_split", ["train", "--val-fraction", "0.95"], None, 2),
    ("features_classes", ["features", "synth", "--classes", "1"], None, 2),
    ("features_frames", ["features", "synth", "--frames", "4"], None, 2),
    ("features_bins", ["features", "synth", "--bins", "-3"], None, 2),
    ("config_optimizer", ["train", "--config", _config("optimizer=rmsprop\n")],
     None, 2),
    ("train_iterations", ["train", "--iterations", "-5"], None, 2),
    ("distill_iterations", ["distill", "--iterations", "-1"], None, 2),
    ("prune_finetune_iterations", ["prune", "--finetune-iterations", "-1"],
     None, 2),
    ("prune_ratio", ["prune", "--ratio", "2"], None, 2),
    ("config_missing", ["train", "--config", lambda tmp: str(tmp / "none.cfg")],
     None, 2),
    ("config_no_equals", ["train", "--config", _config("lr 0.1\n")], None, 2),
    ("config_bad_boolean", ["train", "--config", _config("mixup=maybe\n")], None, 2),
    ("config_bad_number", ["train", "--config", _config("lr=fast\n")], None, 2),
    ("config_not_utf8", ["train", "--config", _bytes("run.cfg", b"lr=\xff\n")], None, 2),
    ("prune_layers_not_integers", ["prune", "--layers", "x"], None, 2),
    ("compare_without_inputs", ["compare"], None, 2),
    ("wav_missing", ["features", "wav", "--input", lambda tmp: str(tmp / "missing.wav")],
     None, 2),
    ("wav_dir_without_wavs", ["features", "wav", "--input", _empty_dir], None, 2),
    ("eval_without_checkpoint", ["eval", "--checkpoint", ""], None, 2),
    ("eval_without_out", ["eval", "--out", ""], None, 2),
    ("compare_p_not_number", ["compare", "--inputs", _eval_csv(p="x")], None, 1),
    ("compare_macs_not_number", ["compare", "--inputs", _eval_csv(macs="")],
     None, 1),
    ("manifest_no_comma", ["eval"],
     _edit("manifest.csv", "sample_00000.qfea,", "sample_00000.qfea "), 1),
    ("label_not_integer", ["eval"],
     _edit("manifest.csv", "sample_00000.qfea,", "sample_00000.qfea,x"), 1),
    ("num_classes_not_integer", ["eval"],
     _edit("dataset.txt", "num_classes=3", "num_classes=three"), 1),
    ("label_out_of_range", ["eval"],
     _edit("manifest.csv", "sample_00000.qfea,", "sample_00000.qfea,7"), 1),
    ("manifest_no_header", ["eval"], _edit("manifest.csv", "file,label\n", ""), 1),
    ("manifest_no_samples", ["eval"], _write("manifest.csv", "file,label\n"), 1),
    ("manifest_not_utf8", ["train"],
     _edit_bytes("manifest.csv", b"sample_00000.qfea,", b"sample_00000.qfea\xff,"), 1),
    ("dataset_txt_not_utf8", ["train"],
     _edit_bytes("dataset.txt", b"task=single", b"task=\xfe\xffsingle"), 1),
    ("sample_version", ["eval"],
     _patch("sample_00000.qfea", 4, struct.pack("<I", 9)), 1),
    ("sample_dtype_code", ["eval"],
     _patch("sample_00000.qfea", 8, struct.pack("<I", 7)), 1),
    ("sample_rank", ["eval"], _sample(0, np.zeros((4, 16, 16))), 1),
    ("task_unknown", ["train"], _edit("dataset.txt", "task=single", "task=foo"), 1),
    ("sample_shape_differs", ["train"], _sample(3, np.zeros((4, 1, 8, 16))), 1),
    ("sample_not_finite", ["train"], _sample(3, np.full((4, 1, 16, 16), np.nan)),
     1),
    ("sample_mel_too_short", ["train"], _sample(3, np.ones((5, 4))), 1),
    # the single-label checkpoint against multi-label data
    ("distill_multi_label", ["distill"],
     _edit("dataset.txt", "task=single", "task=multi"), 2),
    ("prune_finetune_multi_label", ["prune", "--finetune-iterations", "1"],
     _edit("dataset.txt", "task=single", "task=multi"), 2),
    ("eval_multi_label", ["eval"], _edit("dataset.txt", "task=single", "task=multi"), 2),
    # the 3-class checkpoint against 6-class data
    ("distill_other_class_count", ["distill"],
     _edit("dataset.txt", "num_classes=3", "num_classes=6"), 2),
    ("prune_finetune_other_class_count", ["prune", "--finetune-iterations", "1"],
     _edit("dataset.txt", "num_classes=3", "num_classes=6"), 2),
    ("eval_other_class_count", ["eval"],
     _edit("dataset.txt", "num_classes=3", "num_classes=6"), 2),
]


@pytest.mark.parametrize("argv,edit,code", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_one_line_error(tmp_path, trained, argv, edit, code,
                                        capsys):
    data = tmp_path / "data"
    save_dataset(synth_dataset(3, 6, seed=0, frames=16, bins=16), data)
    if edit is not None:
        edit(data)
    ckpt = str(trained / "model.qprs")
    inputs = {"train": ["--data", str(data)],
              "distill": ["--teacher", ckpt, "--data", str(data),
                          "--iterations", "1"],
              "prune": ["--checkpoint", ckpt, "--data", str(data)],
              "eval": ["--checkpoint", ckpt, "--data", str(data)],
              "features": [], "compare": []}
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    capsys.readouterr()
    # the case's own flags come last, so they override the inputs' and --out
    assert main([argv[0], *inputs[argv[0]], "--out", str(tmp_path / "o"),
                 *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.rglob("*.qprs"))
    assert not (tmp_path / "o").exists()


# (id, argv after the command's inputs, what the error says): each reaches
# one raise of an input boundary, and exits 1 with that one line
BOUNDARY_RAISES = [
    ("wav_stereo", ["features", "wav", "--input", _wav(2, 2)], "only mono WAV"),
    ("wav_8_bit", ["features", "wav", "--input", _wav(1, 1)], "only 16-bit PCM WAV"),
    ("checkpoint_truncated_header",
     ["eval", "--checkpoint", _checkpoint(lambda raw: raw[:40])], "truncated header"),
    ("checkpoint_negative_slot_shape",
     ["eval", "--checkpoint", _checkpoint(_negative_slot_shape)],
     "negative optimizer slot shape (-1, 4)"),
    ("plan_ratio_not_one_number",
     ["distill", "--plan", _file("bad.qplan", "QPLAN 1\nmethod: op\nratio: 0.5 0.25\n"
                                 "layer 12\nscores: 1 2\nremoved: 0\nend\n")],
     "QPLAN ratio '0.5 0.25' is not one number"),
    ("csv_not_utf8", ["compare", "--inputs", _bytes("eval.csv", b"model,p\n\xff\xfe,0\n")],
     "eval.csv: not a UTF-8 CSV"),
    ("wav_riff_only", ["features", "wav", "--input", _bytes("clip.wav", b"RIFF")],
     "clip.wav: not a WAV file"),
    ("wav_not_riff", ["features", "wav", "--input", _bytes("clip.wav", bytes(range(100)))],
     "clip.wav: not a WAV file"),
    ("wav_clip_lengths_differ", ["features", "wav", "--input", _clips(8000, 12000)],
     "clips must have one length"),
    ("wav_other_rate", ["features", "wav", "--input", _clip(8000, 8000)],
     "clip.wav: sample rate 8000 != 32000"),
    ("wav_empty_clip", ["features", "wav", "--input", _clip(0, 32000)], "clip.wav: empty clip"),
    ("csv_field_too_large", ["compare", "--inputs", _eval_csv(model="m" * 200000)],
     "eval.csv: not a CSV"),
    ("prune_layers_twice", ["prune", "--layers", "8,8"], "layer 8 is targeted more than once"),
    ("plan_layer_twice",
     ["distill", "--plan", _file("twice.qplan", "QPLAN 1\nmethod: op\nratio: 0.5\n"
                                 + "layer 12\nscores: 1 2\nremoved: 0\n" * 2 + "end\n")],
     "layer 12 is targeted more than once"),
]


@pytest.mark.parametrize("argv,says", [case[1:] for case in BOUNDARY_RAISES],
                         ids=[case[0] for case in BOUNDARY_RAISES])
def test_boundary_raise_one_line_error(tmp_path, trained, data_dir, argv, says, capsys):
    inputs = {"eval": ["--checkpoint", str(trained / "model.qprs"), "--data", str(data_dir)],
              "distill": ["--teacher", str(trained / "model.qprs"), "--data", str(data_dir)],
              "prune": ["--checkpoint", str(trained / "model.qprs")],
              "features": [], "compare": []}
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    capsys.readouterr()
    assert main([argv[0], *inputs[argv[0]], *argv[1:], "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "prune", "distill"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("by", ["flag", "config"])
def test_learning_rate_outside_its_domain(tmp_path, capsys, command, value, by):
    # refused before any input is read or --out made: the dataset is missing
    lr = ([f"--lr={value}"] if by == "flag"
          else ["--config", _config(f"lr={value}\n")(tmp_path)])
    capsys.readouterr()
    assert main([command, "--data", str(tmp_path / "missing"), *lr,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "lr" in err and "is not a finite number >= 0" in err, err
    assert not (tmp_path / "o").exists()


# (command, option, bad value): each refused by the option's domain
OUT_OF_DOMAIN = [
    ("train", "batch_size", "0"), ("eval", "batch_size", "0"),
    ("distill", "batch_size", "-2"),
    ("train", "iterations", "-1"), ("distill", "iterations", "-1"),
    ("eval", "time_repeats", "1"), ("eval", "time_repeats", "2"),
    ("eval", "time_repeats", "-1"),
    ("distill", "temperature", "0"), ("distill", "temperature", "-1"),
    ("distill", "temperature", "nan"),
    ("distill", "alpha", "-0.1"), ("distill", "alpha", "1.5"), ("distill", "alpha", "nan"),
    ("train", "val_fraction", "1"), ("prune", "val_fraction", "-0.1"),
    ("distill", "val_fraction", "nan"),
    ("train", "target_metric", "nan"), ("train", "target_metric", "inf"),
    ("features", "classes", "1"), ("features", "frames", "6"), ("features", "bins", "0"),
    ("features", "seed", "-1"), ("train", "seed", "-1"), ("distill", "seed", "-1"),
]


@pytest.mark.parametrize("command,option,value", OUT_OF_DOMAIN,
                         ids=["-".join(row) for row in OUT_OF_DOMAIN])
@pytest.mark.parametrize("by", ["flag", "config"])
def test_option_outside_its_domain(tmp_path, capsys, trained, data_dir, command,
                                   option, value, by):
    # refused before the (real) inputs are read or --out made
    ckpt = str(trained / "model.qprs")
    inputs = {"train": ["--data", str(data_dir)],
              "prune": ["--checkpoint", ckpt, "--data", str(data_dir),
                        "--finetune-iterations", "1"],
              "distill": ["--teacher", ckpt, "--data", str(data_dir)],
              "eval": ["--checkpoint", ckpt, "--data", str(data_dir)],
              "features": ["synth"]}
    bad = ([f"--{option.replace('_', '-')}={value}"] if by == "flag"
           else ["--config", _config(f"{option}={value}\n")(tmp_path)])
    capsys.readouterr()
    assert main([command, *inputs[command], *bad, "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"'{value}' is not " in err and out == "", (out, err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("samples", ["2", "0", "-1"])
def test_fewer_samples_than_classes_makes_no_out(tmp_path, capsys, samples):
    capsys.readouterr()
    assert main(["features", "synth", "--samples", samples,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "need one sample per class" in err, err
    assert not (tmp_path / "o").exists()


def test_short_mel_sample_error_names_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    save_dataset(synth_dataset(3, 6, seed=0, frames=16, bins=16), data)
    _sample(3, np.ones((5, 4)))(data)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "sample_00003.qfea: need at least 7 frames" in err
