"""Command-line pipeline: features, train, prune, distill, eval, compare.

Every command is deterministic given its config and seed; artifacts carry
no timestamps, so re-running a command reproduces its outputs byte for
byte (timing values only appear when explicitly requested).  Exit codes:
0 success, 1 runtime failure, 2 usage or config error.

Each command's options are declared once, in ``COMMANDS``.  Config files
are flat ``key=value`` text with ``#`` comments; keys are the long flag
names with underscores, and a file value is cast and checked like the same
flag.  Command-line flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff, distill, features, metrics, models, nn, pruning
from ._files import _read_text, _write
from .exceptions import ConfigError, FormatError, QPruneError


class Opt(NamedTuple):
    """One option of one command: a ``--flag`` and a config-file key."""
    type: type = str
    default: object = None
    choices: tuple = ()
    help: str | None = None
    positional: bool = False
    domain: tuple = ()  # (test of the parsed value, what the test requires)


def _at_least(n):
    return (lambda v: v >= n, f">= {n}")


_FRACTION = (lambda v: 0 <= v < 1, "in [0, 1)")
_SHARED = {"seed": Opt(int, 0, domain=_at_least(0)),
           "out": Opt(help="output directory")}
_TRAINING = {
    **_SHARED,
    "data": Opt(),
    "lr": Opt(float, 1e-3, domain=(lambda v: v >= 0 and np.isfinite(v), "a finite number >= 0")),
    "batch_size": Opt(int, 16, domain=_at_least(1)),
    "optimizer": Opt(str, "adam", ("sgd", "adam")),
    "val_fraction": Opt(float, 0.0, domain=_FRACTION),
}
_ITERATIONS = Opt(int, 500, domain=_at_least(0))

# command -> (help, option table); ``cmd_<command>`` runs it
COMMANDS = {
    "train": ("train a model spec on a feature dataset", {
        **_TRAINING,
        "data": Opt(help="feature dataset directory"),
        "model": Opt(str, "qcnn-mini", models.MODEL_NAMES),
        "iterations": _ITERATIONS,
        "target_metric": Opt(float, domain=(np.isfinite, "a finite number")),
        "mixup": Opt(bool, False),
    }),
    "prune": ("score, prune, and optionally fine-tune", {
        **_TRAINING,
        "data": Opt(help="dataset for fine-tuning"),
        "checkpoint": Opt(),
        "method": Opt(str, "op", pruning.METHODS),
        "ratio": Opt(float, 0.5, domain=_FRACTION),
        "layers": Opt(str, "default",
                      help="comma-separated layer indices or 'default'"),
        "finetune_iterations": Opt(int, 0, domain=_at_least(0)),
    }),
    "distill": ("train a student against a teacher", {
        **_TRAINING,
        "teacher": Opt(),
        "plan": Opt(help="prune plan defining the student shape"),
        "alpha": Opt(float, 0.5, domain=(lambda v: 0 <= v <= 1, "in [0, 1]")),
        "temperature": Opt(float, 2.0, domain=(lambda v: v > 0, "> 0")),
        "t2_scaling": Opt(bool, False),
        "iterations": _ITERATIONS,
    }),
    "eval": ("evaluate a checkpoint on a dataset", {
        **_SHARED,
        "checkpoint": Opt(),
        "data": Opt(),
        "method": Opt(str, "", help="label for the report row"),
        "ratio": Opt(float, 0.0, help="label for the report row"),
        "time_repeats": Opt(int, 0, domain=(lambda v: v == 0 or v >= 3, "0 or >= 3")),
        "batch_size": _TRAINING["batch_size"],
    }),
    "compare": ("merge eval CSVs into one table", {
        **_SHARED,
        "inputs": Opt(help="comma-separated eval CSV paths"),
    }),
    "features": ("build feature datasets", {
        **_SHARED,
        "mode": Opt(str, None, ("synth", "wav"), positional=True),
        "classes": Opt(int, 4, domain=_at_least(2)),
        "samples": Opt(int, 200),
        "frames": Opt(int, 32, domain=_at_least(7)),
        "bins": Opt(int, 16, domain=_at_least(1)),
        "multilabel": Opt(bool, False),
        "input": Opt(help="wav file or directory"),
        "allow_other_rate": Opt(bool, False),
    }),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _cast(opt, raw, where):
    """The one conversion of a flag or config-file string to a value."""
    if opt.type is bool:
        if raw.lower() not in ("true", "false", "1", "0"):
            raise ConfigError(f"{where}: boolean expected, got {raw!r}")
        return raw.lower() in ("true", "1")
    try:
        value = opt.type(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from None
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"{where}: {raw!r} is not one of "
                          f"{', '.join(opt.choices)}")
    if opt.domain and not opt.domain[0](value):
        raise ConfigError(f"{where}: {raw!r} is not {opt.domain[1]}")
    return value


def _parse_config_file(path, table):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(_read_text(path, "config file", ConfigError).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in table:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _cast(table[key], raw, f"{path}:{lineno}: {key}")
    return values


def _merge(args, table):
    """Flags override config-file values, which override table defaults."""
    file_values = _parse_config_file(args.config, table) if args.config else {}
    cfg = {}
    for name, opt in table.items():
        raw = getattr(args, name)
        if raw is not None:
            cfg[name] = _cast(opt, raw, name if opt.positional else _flag(name))
        else:
            cfg[name] = file_values.get(name, opt.default)
    return cfg


def _require_file(path, what):
    if not path:
        raise ConfigError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _out_dir(cfg):
    if not cfg["out"]:
        raise ConfigError("missing required --out directory")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(cfg):
    data_dir = _require_file(cfg["data"], "dataset directory")
    ds = features.load_dataset(data_dir)
    if cfg["val_fraction"]:
        train_ds, val_ds = features.split_dataset(ds, cfg["val_fraction"],
                                                  seed=cfg["seed"])
    else:
        train_ds, val_ds = ds, None
    print(f"dataset: {len(ds)} samples, {ds.num_classes} classes, "
          f"task={ds.task}")
    return train_ds, val_ds


def _write_log(path, columns, rows):
    """A training log: the iteration, then each value to .9g, None empty."""
    cell = lambda v: "" if v is None else f"{v:.9g}"
    lines = [columns] + [",".join([str(it), *map(cell, values)]) for it, *values in rows]
    _write(path, "\n".join(lines) + "\n")


def _check_task(ds, model):
    if ds.task != model.task:
        raise ConfigError(f"the dataset's task is {ds.task}, the checkpoint's "
                          f"{model.task}")
    if ds.num_classes != model.num_classes:
        raise ConfigError(f"the dataset has {ds.num_classes} classes, the checkpoint "
                          f"{model.num_classes}")


def _input_shape(ds):
    """A model's (real channels, H, W) input for the dataset's features."""
    shape = ds.features.shape[2:]
    return (4 * shape[0],) + shape[1:]


def _train_config(cfg, **command_fields):
    return autodiff.TrainConfig(
        lr=cfg["lr"], batch_size=cfg["batch_size"],
        optimizer=cfg["optimizer"], seed=cfg["seed"],
        **command_fields)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(cfg):
    train_ds, val_ds = _load_data(cfg)
    out = _out_dir(cfg)
    model = models.build_model(cfg["model"], train_ds.num_classes,
                               _input_shape(train_ds), seed=cfg["seed"],
                               task=train_ds.task)
    rows = []
    tc = _train_config(cfg, iterations=cfg["iterations"],
                       target_metric=cfg["target_metric"],
                       use_mixup=cfg["mixup"])
    autodiff.train_loop(model, train_ds.features, train_ds.labels, tc,
                        val_features=None if val_ds is None else val_ds.features,
                        val_labels=None if val_ds is None else val_ds.labels,
                        log_rows=rows)
    nn.save_checkpoint(model, out / "model.qprs")
    _write_log(out / "train_log.csv", "iteration,loss,metric", rows)
    final_metric = next((m for _, _, m in reversed(rows) if m is not None),
                        float("nan"))
    print(f"trained {cfg['model']}: final metric {final_metric:.4f} "
          f"-> {out / 'model.qprs'}")
    return 0


def _parse_layers(spec_text):
    if spec_text in ("", "default"):
        return None  # model's default prunable set
    try:
        return [int(tok) for tok in spec_text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse --layers {spec_text!r}") from None


def cmd_prune(cfg):
    ckpt = _require_file(cfg["checkpoint"], "checkpoint")
    model, _ = nn.load_checkpoint(ckpt)
    if cfg["finetune_iterations"]:
        train_ds, val_ds = _load_data(cfg)
        _check_task(train_ds, model)
    plan = pruning.build_prune_plan(model, cfg["method"], cfg["ratio"],
                                    _parse_layers(cfg["layers"]))
    pruned = pruning.apply_prune(model, plan)
    out = _out_dir(cfg)
    pruning.save_plan(plan, out / "plan.qplan")
    nn.save_checkpoint(pruned, out / "pruned.qprs")

    before = (metrics.count_params(model), metrics.count_macs(model))
    after = (metrics.count_params(pruned), metrics.count_macs(pruned))
    report = (f"model={model.name or 'model'} method={cfg['method']} "
              f"p={cfg['ratio']:g} params {before[0]} -> {after[0]} "
              f"macs {before[1]} -> {after[1]}\n")
    _write(out / "prune_report.txt", report)
    print(report.strip())

    if cfg["finetune_iterations"]:
        rows = []
        tc = _train_config(cfg, iterations=cfg["finetune_iterations"])
        tuned = pruning.finetune(pruned, train_ds, tc, val_dataset=val_ds,
                                 log_rows=rows)
        nn.save_checkpoint(tuned, out / "finetuned.qprs")
        _write_log(out / "finetune_log.csv", "iteration,loss,metric", rows)
        print(f"fine-tuned {cfg['finetune_iterations']} iterations "
              f"-> {out / 'finetuned.qprs'}")
    return 0


def cmd_distill(cfg):
    teacher_path = _require_file(cfg["teacher"], "teacher checkpoint")
    train_ds, val_ds = _load_data(cfg)
    teacher, _ = nn.load_checkpoint(teacher_path)
    _check_task(train_ds, teacher)
    if cfg["plan"]:
        plan = pruning.load_plan(_require_file(cfg["plan"], "prune plan"))
        student = distill.make_student_from_plan(teacher, plan,
                                                 seed=cfg["seed"])
    else:
        student = models.reinitialize(teacher, cfg["seed"])
    out = _out_dir(cfg)
    kd_cfg = distill.KDConfig(temperature=cfg["temperature"],
                              alpha=cfg["alpha"],
                              t2_scaling=cfg["t2_scaling"])
    kd_rows = []
    # nothing reads its evaluations: keep="final", no target, rows discarded
    tc = _train_config(cfg, iterations=cfg["iterations"], eval_every=0)
    distill.distill_train(teacher, student, train_ds, kd_cfg, tc,
                          val_dataset=val_ds, log_rows=kd_rows)
    nn.save_checkpoint(student, out / "student.qprs")
    _write_log(out / "distill_log.csv", "iteration,ce,kl,total", kd_rows)
    print(f"distilled student ({metrics.count_params(student)} params) "
          f"-> {out / 'student.qprs'}")
    return 0


def cmd_eval(cfg):
    ckpt = _require_file(cfg["checkpoint"], "checkpoint")
    model, _ = nn.load_checkpoint(ckpt)
    ds = features.load_dataset(_require_file(cfg["data"], "dataset directory"))
    _check_task(ds, model)
    out = _out_dir(cfg)
    value = autodiff.evaluate_metric(model, ds.features, ds.labels, ds.task,
                                     batch_size=cfg["batch_size"])
    rep = metrics.EvalReport(
        model=model.name or "model", method=cfg["method"], p=cfg["ratio"],
        metric="mAP" if ds.task == "multi" else "accuracy",
        value=value, params=metrics.count_params(model),
        macs=metrics.count_macs(model, _input_shape(ds)),
    )
    if cfg["time_repeats"]:
        batch = nn.model_input(model, ds.features[: min(8, len(ds))]).astype(
            np.float32)
        rep.time_s = metrics.timed_inference(model, batch,
                                             repeats=cfg["time_repeats"])
    metrics.write_report_csv(out / "eval.csv", [rep])
    _write(out / "eval.txt", rep.to_text())
    print(rep.to_text().strip())
    return 0


def cmd_compare(cfg):
    paths = [p for p in (cfg["inputs"] or "").split(",") if p]
    if not paths:
        raise ConfigError("compare needs --inputs CSV paths")
    rows = []
    for p in paths:
        rows.extend(metrics.read_report_csv(_require_file(p, "eval CSV")))
    out = _out_dir(cfg)
    rows.sort(key=lambda r: (r["model"], r["method"], float(r["p"]),
                             r["metric"]))
    metrics.write_report_csv(out / "compare.csv", rows)
    widths = {k: max(len(k), *(len(str(r.get(k, ""))) for r in rows))
              for k in metrics.CSV_COLUMNS}
    header = "  ".join(k.ljust(widths[k]) for k in metrics.CSV_COLUMNS)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(str(r.get(k, "")).ljust(widths[k])
                               for k in metrics.CSV_COLUMNS))
    _write(out / "compare.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_features(cfg):
    # --samples' bound depends on --classes, so no option domain states it
    if cfg["mode"] == "synth" and cfg["samples"] < cfg["classes"]:
        raise ConfigError(f"--samples: {cfg['samples']} is fewer than --classes "
                          f"{cfg['classes']}; need one sample per class")
    if cfg["mode"] == "synth":
        ds = features.synth_dataset(cfg["classes"], cfg["samples"],
                                    seed=cfg["seed"], frames=cfg["frames"],
                                    bins=cfg["bins"],
                                    multilabel=cfg["multilabel"])
        out = _out_dir(cfg)
        features.save_dataset(ds, out)
        print(f"wrote {len(ds)} synthetic samples "
              f"({ds.num_classes} classes, task={ds.task}) to {out}")
        return 0
    src = _require_file(cfg["input"], "wav input")
    class_dirs = [] if src.is_file() else sorted(d for d in src.iterdir()
                                                 if d.is_dir())
    class_names = [d.name for d in class_dirs]
    if src.is_file():
        wavs = [(src, 0)]
    elif class_dirs:
        wavs = [(w, g) for g, d in enumerate(class_dirs)
                for w in sorted(d.glob("*.wav"))]
    else:
        wavs = [(w, 0) for w in sorted(src.glob("*.wav"))]
    if not wavs:
        raise ConfigError(f"no .wav files under {src}")
    encoded = []  # every clip read and encoded before any file is written
    for wav_path, _ in wavs:
        pcm, rate = features.read_wav(wav_path)
        try:
            mel = features.wav_to_mel(pcm, rate, allow_other_rate=cfg["allow_other_rate"])
            encoded.append(features.encode_quaternion_features(mel).data)
        except QPruneError as exc:  # name the clip
            raise type(exc)(f"{wav_path}: {exc}") from None
        if encoded[-1].shape != encoded[0].shape:
            raise FormatError(f"{wav_path}: {encoded[-1].shape} features, but {wavs[0][0]} "
                              f"has {encoded[0].shape}; clips must have one length")
    out = _out_dir(cfg)
    features.save_dataset(features.LabeledDataset(
        np.stack(encoded), np.array([g for _, g in wavs]), max(2, len(class_names))), out)
    if class_names:
        _write(out / "classes.txt", "\n".join(class_names) + "\n")
    print(f"encoded {len(wavs)} clips to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qprune",
        description="Quaternion CNN compression: pruning and distillation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, table) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        # values stay strings here; _merge casts flags and file values alike
        for name, opt in table.items():
            kw = dict(help=opt.help, metavar="{" + ",".join(opt.choices) + "}"
                      if opt.choices else None)
            if opt.positional:
                p.add_argument(name, **kw)
            elif opt.type is bool:
                p.add_argument(_flag(name), dest=name, action="store_const",
                               const="true", **kw)
            else:
                p.add_argument(_flag(name), dest=name, **kw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge(args, COMMANDS[args.command][1])
        return int(globals()[f"cmd_{args.command}"](cfg) or 0)
    except (QPruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
