"""Benchmark of the qprune compression pipeline.

    python3 perfbench/run.py --workload {train,infer,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qprune is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics (``setup_s``,
``peak_rss_mb`` and ``round_s`` on every workload); with ``--trace 1`` it
runs the workload untraced for half the time, then traced for the other
half, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Spans of a traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # set-ups before the first round and after the checks
SETUP_GAP = 5.0  # seconds of rounds between two set-ups inside a run

# BLAS threads are fixed before numpy loads: at most the 2 this benchmark
# was calibrated on, never more than the CPUs this process may use.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "infer", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "token"), default="full",
                   help="token: tiny inputs, for the self-check only")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref[:12]
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()[:12]
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "qprune").glob("*.py")))
    return {"git": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(THREADS), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed,
            "src_qprune_lines": src_lines}


def timed_setup(workload):
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def run_phase(workload, seconds, tracer=None, between=None):
    """Run whole rounds while the next is predicted to end within
    ``seconds`` (at least one), calling ``between`` before every round but
    the first; returns per-round wall times and the samples the rounds
    appended."""
    workload.samples.clear()
    durations = []
    start = time.perf_counter()
    while True:
        if durations and between is not None:
            between()
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            workload.round(None)
        else:
            with tracer.span(f"bench.{workload.name}.round"):
                workload.round(tracer)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return durations, {k: list(v) for k, v in workload.samples.items()}


def describe(samples):
    """Median and sample count; with >= 40 samples also the highest
    percentile that still has at least 10 samples beyond it."""
    n = len(samples)
    text = f"median={statistics.median(samples):.6g} n={n}"
    if n >= 40:
        q = max(p for p in (75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10)
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        text += f" p{q:g}={cuts[int(q * 10) - 1]:.6g}"
    return text


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qprune" / "__init__.py").is_file():
        print(f"error: no qprune sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import PER_LAYER, Tracer, format_table

    env = environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"run: workload={args.workload} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} loop=closed clients=1")

    def make():
        return workloads.WORKLOADS[args.workload](args.seed, args.size, OUT)

    w = make()
    try:
        setup = [timed_setup(w) for _ in range(SETUP_REPEATS)]

        tracer = None
        if args.trace:
            base_rounds, base = run_phase(w, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                rounds, samples = run_phase(w, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            # set-ups of throwaway instances between rounds, at most one per
            # SETUP_GAP seconds, and after the checks (a pipeline set-up
            # clears the artifacts they read), so that the set-up samples
            # span the run, a run of one round included, and a slow spell of
            # a few seconds moves neither them nor the round samples alone
            last = [time.perf_counter()]

            def between():
                if time.perf_counter() - last[0] >= SETUP_GAP:
                    setup.append(timed_setup(make()))
                    last[0] = time.perf_counter()

            rounds, samples = run_phase(w, args.seconds, between=between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_rows = w.checks()
        if not args.trace:
            setup += [timed_setup(make()) for _ in range(SETUP_REPEATS)]
    finally:
        w.cleanup()

    print(f"rounds: {len(rounds)} median_round_s={statistics.median(rounds):.4g}")
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["round_s"] = (statistics.median(rounds), "s")
        print(f"setup_s  s  lower  {describe(setup)}")
        print(f"peak_rss_mb  MB  lower  value={peak_rss_mb:.6g} n=1")
        print(f"round_s  s  lower  {describe(rounds)}")
        for name, unit, better in w.details:
            if samples.get(name):
                print(f"  part {name}  {unit}  {better}  {describe(samples[name])}")
    else:
        overhead = 100.0 * (statistics.median(rounds) / statistics.median(base_rounds) - 1.0)
        print(f"trace overhead: round {statistics.median(base_rounds):.4g} s untraced, "
              f"{statistics.median(rounds):.4g} s traced ({overhead:+.2f}%)")
        for name, unit, _ in w.details:
            if samples.get(name) and base.get(name):
                a, b = statistics.median(base[name]), statistics.median(samples[name])
                print(f"  part {name}: untraced {a:.6g} {unit}, traced {b:.6g} {unit} "
                      f"({100.0 * (b / a - 1.0):+.2f}%)")
        layer = tracer.summarize(len(rounds))
        layer["trace.overhead_pct"] = (overhead, "%")
        print("per-layer metrics, per round (* = in the JSON result):")
        for name in sorted(layer):
            value, unit = layer[name]
            mark = "*" if name in PER_LAYER else " "
            print(f"{mark} {name}  {unit}  value={value:.6g}")
        metrics = {name: layer[name] for name in PER_LAYER}
        table = tracer.instance_table()
        print("per-layer-instance table (label = model or pipeline stage):")
        print(format_table(table))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(path), {"workload": args.workload, "env": env,
                                 "rounds": len(rounds)})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    correct = all(ok for _, ok, _ in check_rows)
    for name, ok, detail in check_rows:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for err in w.errors[:10]:
        print(f"error: {err}")
    print(f"operations: attempted={w.attempted} failed={w.failed}")
    print(json.dumps({"correct": correct, "attempted": w.attempted, "failed": w.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
