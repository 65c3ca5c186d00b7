"""Fast self-check of the benchmark code.

    python3 perfbench/selfcheck.py

Runs every workload at token size (96 samples, a few steps), untraced and
traced, checks included, and asserts that each run is correct and that
its result holds exactly the metrics BENCHMARK.json declares, with their
units: every end-to-end metric untraced, every per-layer metric traced.
Then it breaks things on purpose (a sign of the reference Hamilton matrix,
a layer's backward, an accuracy that skips the last partial batch,
pipeline artifacts on disk) and asserts that the matching check fails.  Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run  # fixes BLAS threads before numpy loads

SEED = 3


def run_token(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                       "--trace", str(trace), "--size", "token"])
    text = out.getvalue()
    assert rc == 0, f"{workload} trace={trace}: exit {rc}\n{text}"
    result = json.loads(text.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: checks failed\n{text}"
    assert result["attempted"] >= 1
    return result["metrics"]


def expect_fail(rows_or_result, what):
    ok = rows_or_result[0]
    assert not ok, f"{what}: check still passes: {rows_or_result[1]}"
    print(f"ok  {what} is caught: {rows_or_result[1]}")


def mutations():
    import reference as ref
    import workloads
    from qprune import autodiff, nn

    train = workloads.Train(SEED, "token", run.OUT)
    train.setup()
    row = list(ref.HAMILTON[1])
    saved = ref.HAMILTON
    ref.HAMILTON = (saved[0], ((1, -1),) + tuple(row[1:]), saved[2], saved[3])
    try:
        expect_fail(train._check_forward("qcnn-mini"), "a wrong sign in the Hamilton matrix")
    finally:
        ref.HAMILTON = saved

    original = nn.ReLU.backward
    nn.ReLU.backward = lambda self, g, ctx, grads: 1.01 * original(self, g, ctx, grads)
    try:
        expect_fail(train._check_gradient("cnn-mini"), "a 1% error in ReLU.backward")
    finally:
        nn.ReLU.backward = original

    infer = workloads.Infer(SEED, "token", run.OUT)
    infer.setup()
    evaluate = autodiff.evaluate_accuracy

    def full_batches_only(model, x, y, batch_size=64):
        n = len(y) // batch_size * batch_size
        return evaluate(model, x[:n], y[:n], batch_size) * n / len(y)

    autodiff.evaluate_accuracy = full_batches_only
    try:
        infer.round(None)
    finally:
        autodiff.evaluate_accuracy = evaluate
    expect_fail(infer._check_accuracy("qcnn-mini"),
                "an evaluate_accuracy that skips the last partial batch")

    pipe = workloads.Pipeline(SEED, "token", run.OUT)
    pipe.setup()
    try:
        pipe.round(None)
        assert pipe.failed == 0, pipe.errors
        rows = pipe.checks()
        assert all(ok for _, ok, _ in rows), rows

        plan = pipe.dir / "prune_l1" / "plan.qplan"
        text = plan.read_text()
        lines = text.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("removed: "))
        lines[i] = lines[i].rsplit(" ", 1)[0]
        plan.write_text("\n".join(lines) + "\n")
        expect_fail(pipe._check_plan(pipe.dir / "prune_l1"), "a plan removing one filter too few")
        j = next(k for k, line in enumerate(lines) if line.startswith("scores: "))
        first = lines[j].split()[1]
        lines[j] = lines[j].replace(first, repr(float(first) * 1.001), 1)
        plan.write_text("\n".join(lines) + "\n")
        expect_fail(pipe._check_l1(), "an l1 score off by 0.1%")
        plan.write_text(text)

        csv_path = pipe.dir / "eval_student" / "eval.csv"
        header, row = csv_path.read_text().splitlines()[:2]
        cells = row.split(",")
        cells[4] = repr(float(cells[4]) - 1.0 / len(pipe.labels))
        csv_path.write_text(header + "\n" + ",".join(cells) + "\n")
        pipe.accuracy = {}
        expect_fail(pipe._check_eval_csv(), "an eval.csv accuracy one sample off")

        ckpt = pipe.dir / "kd" / "student.qprs"
        ckpt.write_bytes(ckpt.read_bytes() + b"\0")
        try:
            result = pipe._check_round_trip()
        except Exception as exc:  # the loader refusing the file also counts
            result = (False, repr(exc))
        expect_fail(result, "a checkpoint with a trailing byte")
    finally:
        pipe.cleanup()


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in ("train", "infer", "pipeline"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run_token(workload, trace)
            units = {m["name"]: m["unit"] for m in spec[kind]}
            assert set(metrics) == set(units), (
                f"{workload} trace={trace}: reports {sorted(metrics)}, "
                f"BENCHMARK.json declares {sorted(units)}")
            for name, m in metrics.items():
                assert m["unit"] == units[name], f"{name}: unit {m['unit']} != {units[name]}"
                value = m["value"]
                assert type(value) in (int, float) and math.isfinite(value), (name, m)
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, checks pass")
    mutations()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
