"""Steadiness of the benchmark: run each workload N times and summarise.

    python3 qcabench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]
                               [--trace 0] [--save FILE] [--compare EARLIER.json]

Run from the root of a qcalab checkout. Run i of a workload uses seed
first-seed + i. For every metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), the quartile spread as a share of the
median, the largest relative spread (max - min) / median, and the bound from
BENCHMARK.json; it also prints each workload's failed share. All results are
saved as JSON (default qcabench/runs/steady-<time>.json). With --compare, the
medians are set against an earlier saved set, as a regression check would.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(results: list, bounds: dict) -> list:
    """One row per metric: name, median, q1, q3, quartile spread, max spread, bound."""
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows.append((name, med, q1, q3, (q3 - q1) / med if med else 0.0,
                     (max(values) - min(values)) / med if med else 0.0, bounds.get(name)))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    save = args.save or os.path.join(HERE, "runs", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(save)), exist_ok=True)

    collected = {}
    for workload in names:
        collected[workload] = []
        for i in range(args.runs):
            start = time.monotonic()
            result = run_once(workload, args.first_seed + i, bench["run_seconds"], args.trace)
            collected[workload].append(result)
            print(f"{workload} seed {args.first_seed + i}: {time.monotonic() - start:.1f} s wall, "
                  f"correct={result['correct']} failed {result['failed']}/{result['attempted']}", flush=True)
        with open(save, "w", encoding="utf-8") as fh:
            json.dump(collected, fh, indent=1)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    ok = True
    for workload, results in collected.items():
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        exact = len({r["failed"] / r["attempted"] for r in results}) == 1
        ok &= exact and all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, failed/attempted {', '.join(shares)}"
              f"{'' if exact else '  <- failed share differs between runs'}")
        print(f"  {'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'max/med':>8s} {'bound':>6s}")
        before = {row[0]: row[1] for row in summarise(earlier[workload], bounds)} if earlier else {}
        for name, med, q1, q3, iqr, spread, bound in summarise(results, bounds):
            flag = ""
            if bound is not None and iqr > bound:
                flag, ok = "  <- spread above bound", False
            elif bound is not None and iqr > bound / 3:
                flag = "  <- spread above a third of the bound"
            if name in before and bound is not None:
                change = (med - before[name]) / before[name]
                flag += f"  median {change:+.3f} vs earlier"
                if change > bound:
                    flag, ok = flag + " <- worse than the bound", False
            bound_text = f"{bound:6.3f}" if bound is not None else ""
            print(f"  {name:45s} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {spread:8.4f} {bound_text:>6s}{flag}")
    print(f"\nsaved {save}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
