"""Compare two source checkouts on one workload in alternating pairs.

    python3 perfbench/compare.py --base ../parent --head . --workload train \
        --pairs 10

Both checkouts run for the head's BENCHMARK.json run_seconds.  Pair i
runs seed FIRST_SEED + i on both, base first on even pairs and head first
on odd ones.  For every end-to-end metric it prints each side's median and
quartiles, how many pairs the head won (ties count for neither) and a
verdict under the benchmark's rule: a gain needs at least 10 pairs, 9/10
of them won and a median difference larger than the base's own quartile
spread; a regression is a head median worse than the base's
by more than the metric's bound in BENCHMARK.json; a spread wider than the
bound leaves the metric unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 100


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"warning: {checkout} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, type=Path)
    p.add_argument("--head", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    base, head = [], []
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = [(args.base, base), (args.head, head)]
        for checkout, sink in order if i % 2 == 0 else reversed(order):
            sink.append(run(checkout, args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", flush=True)

    for name in sorted(set(base[0]) & set(head[0])):
        m = metrics.get(name, {"better": "lower", "bound": 0.0})
        a = [r[name] for r in base]
        b = [r[name] for r in head]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
        qa, qb = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = sign * (mb - ma) / ma
        spread = (qa[2] - qa[0]) / ma
        if wins >= 0.9 * len(a) and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "gain" if len(a) >= 10 else "gain? (fewer than 10 pairs)"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
        elif spread > m["bound"] and not all(sign * (y - x) < 0 for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{name:34s} base {ma:10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
              f"head {mb:10.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
              f"head wins {wins}/{len(a)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
