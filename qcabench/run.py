"""qcalab benchmark: one workload, one seed, one result line.

    python3 qcabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcalab checkout. The run starts one fresh worker
process that runs an untimed warm-up pass and timed passes until their
wall times add up to S seconds. Each pass runs every study of the workload
once; after each pass, with the worker waiting, this process checks every
study's output and then times one fresh start (setup_s), until it has
ten; the rest are timed once the worker has exited. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer ones
(from a worker with wrappers installed) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread for the worker and for the checks; fixed here, before
# numpy is imported, and passed to every process this run starts.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402

# Fresh starts timed for setup_s, one after each pass, so that their median
# spans the whole run: starts timed one after another agree with each other
# but not with those a few seconds later, as the machine's speed drifts.
# Traced runs take them too, so that their passes run as the untraced do.
SETUP_SAMPLES = 10
DEADLINE_S = 150.0  # stop asking for passes after this long, whatever --seconds says


def fail(message: str) -> int:
    print(f"qcabench: {message}", file=sys.stderr)
    return 2


class Worker:
    """A fresh `worker.py` process, spoken to one JSON line at a time."""

    def __init__(self, args, rundir: str, setup_only: bool = False):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rundir", rundir, "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def setup_sample(args, rundir: str) -> float:
    """Wall time from a fresh interpreter until qcalab is imported and the inputs are made."""
    worker = Worker(args, rundir, setup_only=True)
    try:
        return worker.receive()["ready"] - worker.started
    finally:
        worker.proc.wait()
        worker.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcalab", "__init__.py")):
        return fail("no src/qcalab here; run from the root of a qcalab checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    rundir = os.path.join(HERE, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        result = run(args, bench, rundir, root)
    finally:
        for name in os.listdir(rundir):
            if not name.startswith("trace-"):
                os.remove(os.path.join(rundir, name))
        if not os.listdir(rundir):
            os.rmdir(rundir)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def tally(checker, ops, pass_index: int):
    """Check each operation of one pass: (attempted, failed, unexpected problems).

    A failing operation is counted and the next one is still checked; only
    problems other than the known spectral_norm fault are unexpected.
    """
    failed = 0
    unexpected = []
    for op in ops:
        problems = checker.check(op)
        failed += bool(problems)
        unexpected += [f"pass {pass_index}: {msg}" for kind, msg in problems if kind != checks.KNOWN_FAULT]
    return len(ops), failed, unexpected


def run(args, bench: dict, rundir: str, root: str):
    """Warm-up and timed passes, each with its checks and a set-up sample; the result object."""
    begun = time.monotonic()
    checker = checks.Checker(args.workload, args.seed, rundir)
    attempted = failed = 0
    unexpected = []
    pass_seconds = []
    setup_samples = []
    worker = Worker(args, rundir)
    try:
        ready = worker.receive()
        if not ready["qcalab"].startswith(os.path.join(root, "src") + os.sep):
            fail(f"imported qcalab from {ready['qcalab']}, not from this checkout")
            return None
        while True:
            worker.send("next")
            report = worker.receive()
            if report["pass"] > 0:
                pass_seconds.append(report["seconds"])
            counted = tally(checker, report["ops"], report["pass"])
            attempted, failed, unexpected = attempted + counted[0], failed + counted[1], unexpected + counted[2]
            print(f"pass {report['pass']}: {report['seconds']:.4f} s", flush=True)
            if len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_sample(args, rundir))
            if sum(pass_seconds) >= args.seconds or time.monotonic() - begun > DEADLINE_S:
                break
        worker.send("stop")
        done = worker.receive()
        worker.proc.wait()
    finally:
        worker.close()
    setup_samples += [setup_sample(args, rundir) for _ in range(SETUP_SAMPLES - len(setup_samples))]

    for message in unexpected:
        print(f"FAILED {message}")
    for kind, message in sorted({p for _, problems in checker.verified.values() for p in problems}):
        if kind == checks.KNOWN_FAULT:
            print(f"known fault: {message}")
    if args.trace:
        print(f"traced pass_s {statistics.median(pass_seconds):.4f} s over {len(pass_seconds)} passes")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in done["per_layer"].items()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_seconds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
