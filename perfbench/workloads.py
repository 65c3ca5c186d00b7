"""The three benchmark workloads: train, infer and pipeline.

Each workload is a closed loop of one caller in one process.  ``setup``
builds every input from the seed (run several times; its median is
``setup_s``), ``round`` runs one fixed set of timed operations (its wall
time is ``round_s``) and appends timing samples of its parts, and ``checks`` verifies the outputs afterwards, outside the
timed regions, against ``reference`` or against properties the method must
have.  Calls into qprune go through module attributes so that a tracer
installed between rounds sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from qprune import autodiff, cli, features, models, nn, pruning

MODELS = ("qcnn-mini", "qcnn-mini-p50", "qresnet-mini", "cnn-mini")
NUM_CLASSES = 4
INPUT_SHAPE = (4, 32, 16)
PRUNE_RATIO = 0.5
STUDENT_FLOOR = 0.6  # KD student accuracy floor after the pipeline's budget

SIZES = {
    # samples: dataset size; steps: train steps per model per round;
    # teacher_passes: KD-teacher calls per infer round; iterations: CLI
    # train / fine-tune / distill budgets; repeats: eval --time-repeats.
    "full": dict(samples=2000, steps=10, teacher_passes=20,
                 iterations=(100, 100, 100), repeats=5),
    "token": dict(samples=96, steps=3, teacher_passes=3,
                  iterations=(100, 100, 100), repeats=3),
}


def build(name, seed):
    """A model spec by name; ``qcnn-mini-p50`` is qcnn-mini after op
    pruning at p=0.5, the shape the pipeline fine-tunes."""
    if name == "qcnn-mini-p50":
        base = models.build_model("qcnn-mini", NUM_CLASSES, INPUT_SHAPE, seed=seed)
        plan = pruning.build_prune_plan(base, "op", PRUNE_RATIO)
        return pruning.apply_prune(base, plan)
    return models.build_model(name, NUM_CLASSES, INPUT_SHAPE, seed=seed)


def _set_label(tracer, label):
    if tracer is not None:
        tracer.label = label


class Workload:
    name = ""
    # (name, unit, better) of the parts of a round whose samples round()
    # appends; printed for diagnosis, not part of the JSON result
    details = ()

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = Path(workdir)
        self.samples = defaultdict(list)
        self.rounds_run = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, fn, *args, **kwargs):
        """Run one counted operation; an exception marks it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def run_checks(self, items):
        """items: (name, callable returning (ok, detail)).  Returns rows."""
        rows = []
        for name, fn in items:
            self.attempted += 1
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashing check is a failed check
                ok, detail = False, repr(exc)
            if not ok:
                self.failed += 1
            rows.append((name, bool(ok), detail))
        return rows

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# train: train_loop with eval off on four model specs
# ---------------------------------------------------------------------------

class StepLog(list):
    """``log_rows`` for ``train_loop``, which appends one row per iteration
    after the optimizer step; the append times bound each train step."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def append(self, row):
        self.stamps.append(time.perf_counter())
        super().append(row)


class Train(Workload):
    name = "train"
    details = tuple((f"train_step_ms.{m}", "ms", "lower") for m in MODELS)

    def setup(self):
        ds = features.synth_dataset(NUM_CLASSES, self.size["samples"], seed=self.seed)
        self.features, self.labels = ds.features, ds.labels
        self.models = {m: build(m, self.seed + 1 + i) for i, m in enumerate(MODELS)}
        self.initial = {m: model.clone() for m, model in self.models.items()}
        self.losses = defaultdict(list)

    def round(self, tracer):
        r = self.rounds_run
        self.rounds_run += 1
        val = slice(0, 16)  # train_loop evaluates once at its end even with eval off
        for name in MODELS:
            log = StepLog()
            cfg = autodiff.TrainConfig(
                iterations=self.size["steps"], batch_size=16, optimizer="adam",
                seed=self.seed * 10007 + r, eval_every=0)
            _set_label(tracer, name)
            self.op(autodiff.train_loop, self.models[name], self.features,
                    self.labels, cfg, val_features=self.features[val],
                    val_labels=self.labels[val], log_rows=log)
            # one step = batch draw, forward, loss, backward and Adam
            self.samples[f"train_step_ms.{name}"].extend(
                1e3 * (b - a) for a, b in zip(log.stamps, log.stamps[1:]))
            self.losses[name].extend(loss for _, loss, _ in log)

    def checks(self):
        items = []
        for name in MODELS:
            items += [
                (f"reference_forward.{name}", lambda n=name: self._check_forward(n)),
                (f"finite_difference.{name}", lambda n=name: self._check_gradient(n)),
                (f"loss_falls.{name}", lambda n=name: self._check_loss(n)),
                (f"finite_params.{name}", lambda n=name: self._check_finite(n)),
            ]
        return self.run_checks(items)

    def _check_forward(self, name):
        model = self.models[name]
        x = self.features[:16]
        z, _ = autodiff.forward(model.clone(), nn.model_input(model, x), mode="train")
        err = ref.rel_err(z, ref.forward(model, x, train=True))
        return err <= 1e-4, f"train-mode logits rel err {err:.2e} (tol 1e-4)"

    def _check_gradient(self, name):
        """Directional derivative of the float64 CE loss along d, from
        ``backward`` versus a central difference of the reference forward."""
        model = self.initial[name].astype(np.float64)
        x = self.features[8:16].astype(np.float64)
        y = self.labels[8:16]
        z, tape = autodiff.forward(model, nn.model_input(model, x), mode="train")
        grads = autodiff.backward(tape, autodiff.cross_entropy(
            z, autodiff.one_hot(y, NUM_CLASSES), tape))
        keys = [(lid, pname) for lid, _, pname, _ in model.all_params()]
        rng = np.random.default_rng(self.seed)
        gnorm = np.sqrt(sum(float((grads[k] ** 2).sum()) for k in keys))
        rand = {k: rng.normal(size=grads[k].shape) for k in keys}
        rnorm = np.sqrt(sum(float((v ** 2).sum()) for v in rand.values()))
        d = {k: grads[k] / gnorm + rand[k] / rnorm for k in keys}
        analytic = sum(float((grads[k] * d[k]).sum()) for k in keys)
        base = ref.model_params(model)
        eps = 1e-8  # at 1e-6 a ReLU kink fell inside the step for some seeds

        def loss_at(sign):
            p = dict(base)
            for k in keys:
                p[k] = base[k] + sign * eps * d[k]
            return ref.cross_entropy(ref.forward(model, x, True, p), y)

        numeric = (loss_at(1) - loss_at(-1)) / (2 * eps)
        err = abs(numeric - analytic) / abs(analytic)
        return err <= 1e-4, f"directional derivative rel err {err:.2e} (tol 1e-4)"

    def _check_loss(self, name):
        """Mean loss of the first steps from initialisation against the
        last quarter of the run (later quarters plateau near zero)."""
        losses = self.losses[name]
        k, tail = max(1, min(5, len(losses) // 4)), max(1, len(losses) // 4)
        first, last = float(np.mean(losses[:k])), float(np.mean(losses[-tail:]))
        return last < first, (f"mean loss of first {k} steps {first:.4f}, "
                              f"of last {tail} {last:.4f}")

    def _check_finite(self, name):
        bad = [f"{lid}:{p}" for lid, _, p, arr in self.models[name].all_params()
               if not np.all(np.isfinite(arr))]
        return not bad, "all parameters finite" if not bad else f"non-finite: {bad}"


# ---------------------------------------------------------------------------
# infer: eval-mode inference only
# ---------------------------------------------------------------------------

class Infer(Workload):
    name = "infer"
    details = tuple((f"eval_samples_per_s.{m}", "samples/s", "higher")
                       for m in MODELS) + (("teacher_pass_ms", "ms", "lower"),)

    def setup(self):
        ds = features.synth_dataset(NUM_CLASSES, self.size["samples"], seed=self.seed)
        self.features, self.labels = ds.features, ds.labels
        self.models = {}
        rng = np.random.default_rng(self.seed)
        for i, name in enumerate(MODELS):
            model = build(name, self.seed + 1 + i)
            # give eval-mode batch norm running statistics that are not 1/0
            for _ in range(3):
                idx = rng.choice(len(self.labels), size=64, replace=False)
                autodiff.inference(model, nn.model_input(model, self.features[idx]),
                                   mode="train")
            self.models[name] = model
        self.teacher = self.models["qcnn-mini"]
        self.teacher_batches = [
            nn.model_input(self.teacher, self.features[
                rng.choice(len(self.labels), size=16, replace=False)]).astype(np.float32)
            for _ in range(self.size["teacher_passes"])]
        self.accuracy = defaultdict(set)

    def round(self, tracer):
        self.rounds_run += 1
        n = len(self.labels)
        # teacher passes go between the evaluations, so that their samples
        # spread over the round as the evaluations' do
        for i, name in enumerate(MODELS):
            _set_label(tracer, name)
            t0 = time.perf_counter()
            acc = self.op(autodiff.evaluate_accuracy, self.models[name],
                          self.features, self.labels, batch_size=64)
            dt = time.perf_counter() - t0
            if acc is not None:
                self.samples[f"eval_samples_per_s.{name}"].append(n / dt)
                self.accuracy[name].add(acc)
            _set_label(tracer, "teacher")
            for xb in self.teacher_batches[i::len(MODELS)]:
                t0 = time.perf_counter()
                z = self.op(autodiff.inference, self.teacher, xb, mode="eval")
                dt = time.perf_counter() - t0
                if z is not None:
                    self.samples["teacher_pass_ms"].append(1e3 * dt)

    def checks(self):
        items = []
        for name in MODELS:
            items += [
                (f"batch_independent.{name}", lambda n=name: self._check_batches(n)),
                (f"reference_forward.{name}", lambda n=name: self._check_forward(n)),
                (f"accuracy_from_logits.{name}", lambda n=name: self._check_accuracy(n)),
            ]
        return self.run_checks(items)

    def _logits(self, model, x, batch):
        return np.concatenate([
            autodiff.inference(model, nn.model_input(model, x[i:i + batch]), mode="eval")
            for i in range(0, len(x), batch)])

    def _check_batches(self, name):
        x = self.features[:64]
        model = self.models[name]
        err = ref.rel_err(self._logits(model, x, 16), self._logits(model, x, 64))
        return err <= 1e-5, f"batch 16 vs 64 logits rel err {err:.2e} (tol 1e-5)"

    def _check_forward(self, name):
        model = self.models[name]
        x = self.features[16:32]
        z = autodiff.inference(model, nn.model_input(model, x), mode="eval")
        err = ref.rel_err(z, ref.forward(model, x, train=False))
        return err <= 1e-4, f"eval-mode logits rel err {err:.2e} (tol 1e-4)"

    def _check_accuracy(self, name):
        """Accuracy recomputed from the logits of all samples at batch 64,
        the last partial batch included, against every timed round's."""
        model, y = self.models[name], self.labels
        correct = int((self._logits(model, self.features, 64).argmax(axis=1) == y).sum())
        acc = correct / len(y)
        rounds = sorted(self.accuracy[name])
        return rounds == [acc], (f"argmax accuracy {acc:.6f} over {len(y)} samples; "
                                 f"timed rounds returned {rounds}")


# ---------------------------------------------------------------------------
# pipeline: the desk compression pipeline through qprune.cli.main
# ---------------------------------------------------------------------------

ROLES = ("teacher", "pruned", "finetuned", "student")


class Pipeline(Workload):
    name = "pipeline"
    details = (("stage_s.train", "s", "lower"), ("stage_s.finetune", "s", "lower"),
               ("stage_s.distill", "s", "lower"), ("stage_s.eval", "s", "lower"))

    def setup(self):
        self.dir = self.workdir / f"pipeline-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        ds = features.synth_dataset(NUM_CLASSES, self.size["samples"], seed=self.seed)
        self.features, self.labels = ds.features, ds.labels
        d = self.dir
        s = str(self.seed)
        it_train, it_ft, it_kd = (str(i) for i in self.size["iterations"])
        data = str(d / "data")
        teacher = str(d / "teacher" / "model.qprs")
        ckpt = {"teacher": teacher, "pruned": str(d / "ft" / "pruned.qprs"),
                "finetuned": str(d / "ft" / "finetuned.qprs"),
                "student": str(d / "kd" / "student.qprs")}
        self.checkpoints = ckpt

        def evaluate(role):
            return ("eval", f"eval.{role}", [
                "eval", "--checkpoint", ckpt[role], "--data", data,
                "--method", "" if role == "teacher" else "op",
                "--ratio", "0" if role == "teacher" else str(PRUNE_RATIO),
                "--time-repeats", str(self.size["repeats"]),
                "--out", str(d / f"eval_{role}")])

        # (stage metric or None, tracer label, argv); each eval follows the
        # stage that wrote its checkpoint, so that stage_s.eval is spread
        # over the round as the other stages are
        stages = [
            (None, "features", ["features", "synth", "--classes", str(NUM_CLASSES),
                                "--samples", str(self.size["samples"]), "--seed", s,
                                "--out", data]),
            ("train", "train", ["train", "--data", data, "--model", "qcnn-mini",
                                "--iterations", it_train, "--seed", s,
                                "--out", str(d / "teacher")]),
            evaluate("teacher"),
        ]
        for method in pruning.METHODS:
            stages.append((None, f"prune.{method}", [
                "prune", "--checkpoint", teacher, "--method", method,
                "--ratio", str(PRUNE_RATIO), "--out", str(d / f"prune_{method}")]))
        stages += [
            ("finetune", "finetune", [
                "prune", "--checkpoint", teacher, "--method", "op",
                "--ratio", str(PRUNE_RATIO), "--data", data,
                "--finetune-iterations", it_ft, "--seed", s,
                "--out", str(d / "ft")]),
            evaluate("pruned"),
            evaluate("finetuned"),
            ("distill", "distill", [
                "distill", "--teacher", teacher, "--plan", str(d / "ft" / "plan.qplan"),
                "--data", data, "--iterations", it_kd, "--seed", s,
                "--out", str(d / "kd")]),
            evaluate("student"),
            ("eval", "compare", [
                "compare", "--inputs",
                ",".join(str(d / f"eval_{role}" / "eval.csv") for role in ROLES),
                "--out", str(d / "compare")]),
        ]
        self.stages = stages

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"qprune {' '.join(argv[:2])} exited {rc}")
        return rc

    def round(self, tracer):
        self.rounds_run += 1
        shutil.rmtree(self.dir, ignore_errors=True)
        totals = defaultdict(float)
        for stage, label, argv in self.stages:
            _set_label(tracer, label)
            t0 = time.perf_counter()
            self.op(self._cli, argv)
            if stage is not None:
                totals[stage] += time.perf_counter() - t0
        for stage, secs in totals.items():
            self.samples[f"stage_s.{stage}"].append(secs)

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- checks on the last round's artifacts ----------------------------
    def checks(self):
        self.accuracy = {}
        items = [("dataset_on_disk", self._check_dataset),
                 ("counts_closed_form", self._check_counts)]
        for method in pruning.METHODS:
            items.append((f"plan_removals.{method}",
                          lambda m=method: self._check_plan(self.dir / f"prune_{m}")))
        items += [("plan_removals.finetune", lambda: self._check_plan(self.dir / "ft")),
                  ("l1_scores_abs_sum", self._check_l1),
                  ("op_scores_svd", self._check_op),
                  ("accuracy_floors", self._check_accuracy),
                  ("eval_csv_values", self._check_eval_csv),
                  ("checkpoint_round_trip", self._check_round_trip)]
        return self.run_checks(items)

    def _check_dataset(self):
        ds = features.load_dataset(self.dir / "data")
        ok = np.array_equal(ds.features, self.features) and np.array_equal(ds.labels, self.labels)
        return ok, f"{len(ds)} samples on disk equal synth_dataset(seed={self.seed})"

    def _check_counts(self):
        want = {0.0: ref.qcnn_counts(NUM_CLASSES), PRUNE_RATIO: ref.qcnn_counts(NUM_CLASSES, PRUNE_RATIO)}
        (p0, m0), (p1, m1) = want[0.0], want[PRUNE_RATIO]
        line = f"params {p0} -> {p1} macs {m0} -> {m1}"
        bad = []
        for sub in [f"prune_{m}" for m in pruning.METHODS] + ["ft"]:
            text = (self.dir / sub / "prune_report.txt").read_text()
            if line not in text:
                bad.append(f"{sub}: {text.strip()}")
        for role in ROLES:
            row = self._eval_row(role)
            params, macs = want[0.0 if role == "teacher" else PRUNE_RATIO]
            if (int(row["params"]), int(row["macs"])) != (params, macs):
                bad.append(f"eval_{role}: {row['params']} params, {row['macs']} macs")
        return not bad, "; ".join(bad) or f"closed form {line}"

    def _check_plan(self, sub):
        entries = ref.read_plan(sub / "plan.qplan")
        targets = ref.qcnn_target_layers()
        bad = []
        if sorted(entries) != targets:
            bad.append(f"targets {sorted(entries)} != {targets}")
        for index, (scores, removed) in entries.items():
            k = int(np.floor(PRUNE_RATIO * len(scores)))
            lowest = sorted(int(i) for i in np.argsort(scores, kind="stable")[:k])
            if len(removed) != k or sorted(removed) != lowest:
                bad.append(f"layer {index}: removed {len(removed)} of {len(scores)}, "
                           f"want the {k} lowest")
        return not bad, "; ".join(bad) or f"floor(p*M) lowest-scored filters at {targets}"

    def _teacher_banks(self):
        _, arrays = ref.read_qprs(self.checkpoints["teacher"])
        return {i: np.asarray(arrays[i]["weights"], dtype=np.float64)
                for i in ref.qcnn_target_layers()}

    def _compare_scores(self, method, expected, tol):
        entries = ref.read_plan(self.dir / f"prune_{method}" / "plan.qplan")
        worst = max(float(np.max(np.abs(entries[i][0] - want) / np.abs(want)))
                    for i, want in expected.items())
        return worst <= tol, f"max rel diff {worst:.2e} (tol {tol:g})"

    def _check_l1(self):
        return self._compare_scores("l1", {
            i: np.abs(w).sum(axis=(0, 2, 3, 4)) for i, w in self._teacher_banks().items()},
            1e-6)

    def _check_op(self):
        """The program's power iteration stops after 500 steps or when an
        estimate changes by under 1e-10; on a nearly degenerate top pair of
        singular values it is then off by up to ~1e-2 (0.6% seen on random
        initial weights), so the tolerance is 2e-2, not rounding level."""
        expected = {}
        for i, w in self._teacher_banks().items():
            _, q_out, q_in, kh, kw = w.shape
            expected[i] = np.array([
                sum(np.linalg.svd(w[o, m].reshape(q_in, kh * kw), compute_uv=False)[0]
                    for o in range(4)) for m in range(q_out)])
        return self._compare_scores("op", expected, 2e-2)

    def _accuracy(self, role):
        if role not in self.accuracy:
            model, _ = nn.load_checkpoint(self.checkpoints[role])
            z = np.concatenate([
                autodiff.inference(model, nn.model_input(model, self.features[i:i + 64]))
                for i in range(0, len(self.labels), 64)])
            self.accuracy[role] = float((z.argmax(axis=1) == self.labels).mean())
        return self.accuracy[role]

    def _check_accuracy(self):
        t, f, s = (self._accuracy(r) for r in ("teacher", "finetuned", "student"))
        ok = t >= 0.95 and f >= t - 0.02 and s >= STUDENT_FLOOR
        return ok, (f"teacher {t:.4f} (>= 0.95), fine-tuned {f:.4f} (>= teacher - 0.02), "
                    f"student {s:.4f} (>= {STUDENT_FLOOR})")

    def _eval_row(self, role):
        with open(self.dir / f"eval_{role}" / "eval.csv", newline="") as fh:
            return next(csv.DictReader(fh))

    def _check_eval_csv(self):
        bad = []
        for role in ROLES:
            value = float(self._eval_row(role)["value"])
            if abs(value - self._accuracy(role)) > 1e-9:
                bad.append(f"{role}: csv {value} vs logits {self._accuracy(role)}")
        with open(self.dir / "compare" / "compare.csv", newline="") as fh:
            rows = len(list(csv.DictReader(fh)))
        if rows != len(ROLES):
            bad.append(f"compare.csv has {rows} rows")
        return not bad, "; ".join(bad) or "eval.csv values equal accuracy from logits"

    def _check_round_trip(self):
        paths = sorted(self.dir.glob("*/*.qprs"))
        bad = []
        for path in paths:
            model, _ = nn.load_checkpoint(path)
            copy = path.with_suffix(".roundtrip")
            nn.save_checkpoint(model, copy)
            if copy.read_bytes() != path.read_bytes():
                bad.append(path.name)
            copy.unlink()
        ok = not bad and len(paths) == 4 + len(pruning.METHODS)  # + teacher, ft pair, student
        return ok, f"{len(paths)} checkpoints byte-identical after load/save" if ok else f"differ: {bad}"


WORKLOADS = {w.name: w for w in (Train, Infer, Pipeline)}
