"""Span tracer that instruments qprune from the outside.

``Tracer.install()`` wraps every public function of every ``qprune``
module, ``OptimState.step`` and the ``forward``/``backward`` methods of
every layer class.  Each call records a span (name, parent span, start,
end) in memory; nothing in the library is edited, and ``uninstall()``
restores the original objects.  Names bound by ``from x import f`` and
functions held in module-level dicts (such as the pruning method table)
are replaced too, so calls between modules are traced as well.

Per-layer metrics are derived from the spans after the traced phase and
divided by the number of workload rounds traced, so they read "per round"
and compare across commits whatever the run length.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans whose second positional argument is a batch: record its length.
_BATCH_ARG = {"autodiff.forward", "autodiff.evaluate_metric"}

# Layer types the per-layer metrics name.  QLinear, MaxPool2d and Flatten
# are traced as well but appear in no model spec or do no arithmetic.
LAYER_TYPES = ("QConv2d", "Conv2d", "QBatchNorm2d", "BatchNorm2d", "AvgPool2d",
               "ReLU", "GlobalAvgPool2d", "Linear", "ResidualBlock")
GEMM_TYPES = ("QConv2d", "Conv2d", "Linear")

# The per-layer metrics of the JSON result.  A traced run prints every
# metric its workload exercises; the result holds only those that every
# workload exercises, so that each run reports each of them measured: the
# layer types of qcnn-mini, which all three workloads run, and module-wide
# shares.  Backward is folded into ``total_s`` because infer runs none.
QCNN_TYPES = ("QConv2d", "QBatchNorm2d", "ReLU", "AvgPool2d", "GlobalAvgPool2d", "Linear")
PER_LAYER = tuple(f"nn.{t}.{m}" for t in QCNN_TYPES for m in ("fwd_s", "total_s", "calls")) + (
    "nn.QConv2d.fwd_gflops", "nn.Linear.fwd_gflops", "nn.layer_share_pct",
    "autodiff.self_s", "autodiff.forward_passes", "trace.overhead_pct")


def layer_macs(layer, y_shape):
    """MACs per item under ``metrics.count_macs``'s rule: 16 per Hamilton
    product, c_out*c_in*kh*kw per real conv output, c_out*c_in per linear."""
    name = type(layer).__name__
    if name == "QConv2d":
        kh, kw = layer.kernel
        return 16 * layer.q_out * layer.q_in * kh * kw * y_shape[-2] * y_shape[-1]
    if name == "Conv2d":
        kh, kw = layer.kernel
        return layer.c_out * layer.c_in * kh * kw * y_shape[-2] * y_shape[-1]
    if name == "Linear":
        return layer.c_out * layer.c_in
    return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, t0, t1, batch]
        self.stack = []
        self.label = ""  # set by the workload: which model or stage runs
        self.values = {}  # metric name -> value captured from a call
        self.counters = defaultdict(float)
        self.instances = {}  # (label, lid, type, in_shape) -> stats
        self._instance_of = {}  # id(layer) -> key of its latest forward
        self._undo = []

    # -- recording ------------------------------------------------------
    def _run(self, name, fn, args, kwargs, batch=0):
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, batch]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs), rec
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def span(self, name):
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def _wrap_function(self, name, fn):
        tracer = self
        batch_arg = name in _BATCH_ARG
        hook = _POST_HOOKS.get(name)

        def traced(*args, **kwargs):
            batch = 0
            if batch_arg and len(args) > 1 and hasattr(args[1], "shape"):
                batch = args[1].shape[0]
            if name == "autodiff.train_loop" and tracer._in("distill.distill_train"):
                inner = kwargs.get("loss_fn")
                if inner is not None:
                    kwargs["loss_fn"] = lambda *a: tracer._run(
                        "distill.loss_fn", inner, a, {})[0]
            result, _ = tracer._run(name, fn, args, kwargs, batch)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_layer_method(self, cls, method):
        fn = cls.__dict__[method]
        tname = cls.__name__
        name = f"nn.{tname}.{'fwd' if method == 'forward' else 'bwd'}"
        tracer = self

        def traced(layer, x, *args, **kwargs):
            result, rec = tracer._run(name, fn, (layer, x) + args, kwargs, x.shape[0])
            dt = rec[3] - rec[2]
            if method == "forward":
                key = (tracer.label, layer.lid, tname, tuple(x.shape[1:]))
                st = tracer.instances.get(key)
                if st is None:
                    st = tracer.instances[key] = {
                        "macs": layer_macs(layer, result[0].shape),
                        "fwd_s": 0.0, "fwd_calls": 0, "fwd_items": 0,
                        "bwd_s": 0.0, "bwd_calls": 0, "bwd_items": 0}
                tracer._instance_of[id(layer)] = key
                st["fwd_s"] += dt
                st["fwd_calls"] += 1
                st["fwd_items"] += x.shape[0]
            else:
                st = tracer.instances[tracer._instance_of[id(layer)]]
                st["bwd_s"] += dt
                st["bwd_calls"] += 1
                st["bwd_items"] += x.shape[0]
            return result

        traced.__wrapped__ = fn
        return traced

    def _in(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    # -- installation ---------------------------------------------------
    def install(self):
        from qprune import autodiff, nn

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qprune" or key.startswith("qprune.")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap_function(f"{short}.{attr}", obj))

        def swap(container, key, obj, setter):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setter(container, key, entry[1])
                self._undo.append((setter, container, key, obj))

        def set_item(d, k, v):
            d[k] = v

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                swap(mod, attr, obj, setattr)
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        swap(obj, k, v, set_item)

        classes = [(cls, m) for cls in nn.LAYER_TYPES.values()
                   for m in ("forward", "backward") if m in cls.__dict__]
        for cls, method in classes:
            self._undo.append((setattr, cls, method, cls.__dict__[method]))
            setattr(cls, method, self._wrap_layer_method(cls, method))
        step = autodiff.OptimState.__dict__["step"]
        self._undo.append((setattr, autodiff.OptimState, "step", step))
        autodiff.OptimState.step = self._wrap_function("autodiff.OptimState.step", step)

    def uninstall(self):
        for setter, container, key, obj in reversed(self._undo):
            setter(container, key, obj)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------
    def summarize(self, rounds):
        """Per-layer metrics, each per traced round: {name: (value, unit)}."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            incl[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = defaultdict(float)
        for i, (name, _, t0, t1, _) in enumerate(self.spans):
            self_time[name] += t1 - t0 - child[i]

        def under(i, ancestor):
            i = self.spans[i][1]
            while i >= 0:
                if self.spans[i][0] == ancestor:
                    return True
                i = self.spans[i][1]
            return False

        r = float(rounds)
        out = {}

        def is_layer(name):
            return name.startswith("nn.") and name.endswith((".fwd", ".bwd"))

        round_s = sum(t1 - t0 for name, parent, t0, t1, _ in self.spans
                      if parent < 0 and name.endswith(".round"))
        layer_s = sum(t1 - t0 for name, parent, t0, t1, _ in self.spans
                      if is_layer(name) and not (parent >= 0 and is_layer(self.spans[parent][0])))

        def put(name, value, unit):
            out[name] = (value, unit)

        for t in LAYER_TYPES:
            n = calls.get(f"nn.{t}.fwd", 0)
            if not n:
                continue
            times = self_time if t == "ResidualBlock" else incl
            put(f"nn.{t}.fwd_s", times[f"nn.{t}.fwd"] / r, "s")
            if calls.get(f"nn.{t}.bwd"):
                put(f"nn.{t}.bwd_s", times[f"nn.{t}.bwd"] / r, "s")
            put(f"nn.{t}.total_s", (times[f"nn.{t}.fwd"] + times[f"nn.{t}.bwd"]) / r, "s")
            put(f"nn.{t}.calls", n / r, "count")
        for t in GEMM_TYPES:
            rows = [st for (_, _, typ, _), st in self.instances.items() if typ == t]
            if not rows:
                continue
            for d in ("fwd", "bwd"):
                flops = sum((2 if d == "fwd" else 4) * st["macs"] * st[f"{d}_items"]
                            for st in rows)
                secs = sum(st[f"{d}_s"] for st in rows)
                if secs > 0:
                    put(f"nn.{t}.{d}_gflops", flops / secs / 1e9, "GFLOP/s")

        simple = {
            "nn.save_checkpoint_s": ["nn.save_checkpoint"],
            "nn.load_checkpoint_s": ["nn.load_checkpoint"],
            "autodiff.forward_s": ["autodiff.forward"],
            "autodiff.backward_s": ["autodiff.backward"],
            "autodiff.loss_s": ["autodiff.cross_entropy",
                                "autodiff.binary_cross_entropy",
                                "autodiff.kl_divergence"],
            "autodiff.optim_step_s": ["autodiff.OptimState.step"],
            "autodiff.inference_s": ["autodiff.inference"],
            "distill.kd_loss_s": ["distill.kd_total_loss"],
            "distill.loss_fn_s": ["distill.loss_fn"],
            "pruning.score_s.l1": ["pruning.l1_importance"],
            "pruning.score_s.gm": ["pruning.gm_importance"],
            "pruning.score_s.op": ["pruning.op_importance"],
            "pruning.apply_prune_s": ["pruning.apply_prune"],
            "pruning.plan_io_s": ["pruning.save_plan", "pruning.load_plan"],
            "features.synth_dataset_s": ["features.synth_dataset"],
            "features.save_dataset_s": ["features.save_dataset"],
            "features.load_dataset_s": ["features.load_dataset"],
            "metrics.timed_inference_s": ["metrics.timed_inference"],
        }
        for cmd in ("features", "train", "prune", "distill", "eval", "compare"):
            simple[f"cli.{cmd}_s"] = [f"cli.cmd_{cmd}"]
        for metric, names in simple.items():
            if any(calls.get(n) for n in names):
                put(metric, sum(incl[n] for n in names) / r, "s")

        if calls.get("nn.save_checkpoint"):
            put("nn.checkpoint_bytes", self.counters["checkpoint_bytes"] / r, "B")
        if calls.get("features.load_feature_file"):
            put("features.files_read", calls["features.load_feature_file"] / r, "count")
            put("features.bytes_read", self.counters["bytes_read"] / r, "B")
        passes = calls.get("autodiff.forward", 0) + calls.get("autodiff.inference", 0)
        if passes:
            put("autodiff.forward_passes", passes / r, "count")

        if calls.get("autodiff.train_loop"):
            eval_s = eval_items = train_items = 0.0
            for i, (name, _, t0, t1, batch) in enumerate(self.spans):
                if name == "autodiff.evaluate_metric" and under(i, "autodiff.train_loop"):
                    eval_s += t1 - t0
                    eval_items += batch
                elif name == "autodiff.forward" and under(i, "autodiff.train_loop"):
                    train_items += batch
            put("autodiff.evaluate_s", eval_s / r, "s")
            if train_items:
                put("autodiff.eval_samples_per_train_sample",
                    eval_items / train_items, "ratio")

        steps = calls.get("distill.loss_fn", 0)
        if steps:
            per_step = defaultdict(int)
            teacher_s = 0.0
            for i, (name, _, t0, t1, _) in enumerate(self.spans):
                if name in ("autodiff.inference", "autodiff.cross_entropy",
                            "autodiff.kl_divergence") and under(i, "distill.loss_fn"):
                    per_step[name] += 1
                    if name == "autodiff.inference":
                        teacher_s += t1 - t0
            put("distill.teacher_inference_s", teacher_s / r, "s")
            put("distill.teacher_passes_per_step",
                per_step["autodiff.inference"] / steps, "ratio")
            put("distill.ce_calls_per_step",
                per_step["autodiff.cross_entropy"] / steps, "ratio")
            put("distill.kl_calls_per_step",
                per_step["autodiff.kl_divergence"] / steps, "ratio")

        if round_s > 0:
            put("nn.layer_share_pct", 100.0 * layer_s / round_s, "%")
        put("autodiff.self_s", sum(v for name, v in self_time.items()
                                   if name.startswith("autodiff.")) / r, "s")

        for name, value in self.values.items():
            put(name, value, "count")
        return out

    def instance_table(self):
        """Rows per layer instance: label, lid, type, input shape, calls,
        mean fwd/bwd ms per call and computed GFLOP/s."""
        rows = []
        for (label, lid, typ, shape), st in sorted(
                self.instances.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][3])):
            row = {"label": label, "lid": lid, "type": typ, "in_shape": list(shape),
                   "fwd_calls": st["fwd_calls"], "bwd_calls": st["bwd_calls"],
                   "fwd_ms": 1e3 * st["fwd_s"] / max(st["fwd_calls"], 1),
                   "bwd_ms": 1e3 * st["bwd_s"] / max(st["bwd_calls"], 1)}
            for d, mult in (("fwd", 2), ("bwd", 4)):
                if st["macs"] and st[f"{d}_s"] > 0:
                    row[f"{d}_gflops"] = mult * st["macs"] * st[f"{d}_items"] / st[f"{d}_s"] / 1e9
            rows.append(row)
        return rows

    def write(self, path, meta):
        """Write spans and the instance table as JSON once the run ends."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(meta)
        doc["span_fields"] = ["name", "parent", "t0", "t1", "batch"]
        doc["spans"] = self.spans
        doc["instances"] = self.instance_table()
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _count_checkpoint_bytes(tracer, args, result):
    tracer.counters["checkpoint_bytes"] += os.path.getsize(args[1])


def _count_bytes_read(tracer, args, result):
    tracer.counters["bytes_read"] += os.path.getsize(args[0])


def _record_macs(tracer, args, result):
    if tracer.label.startswith("eval."):
        tracer.values[f"metrics.count_macs.{tracer.label[5:]}"] = int(result)


_POST_HOOKS = {
    "nn.save_checkpoint": _count_checkpoint_bytes,
    "features.load_feature_file": _count_bytes_read,
    "metrics.count_macs": _record_macs,
}


def format_table(rows):
    lines = [f"{'label':<22} {'lid':>3} {'type':<16} {'in_shape':<16} "
             f"{'fwd_n':>6} {'fwd_ms':>8} {'bwd_ms':>8} {'fwd_GF/s':>8} {'bwd_GF/s':>8}"]
    for r in rows:
        lines.append(
            f"{r['label']:<22} {r['lid']:>3} {r['type']:<16} "
            f"{'x'.join(map(str, r['in_shape'])):<16} {r['fwd_calls']:>6} "
            f"{r['fwd_ms']:>8.3f} {r['bwd_ms']:>8.3f} "
            f"{r.get('fwd_gflops', float('nan')):>8.2f} "
            f"{r.get('bwd_gflops', float('nan')):>8.2f}")
    return "\n".join(lines)

