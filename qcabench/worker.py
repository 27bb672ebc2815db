"""The process that runs a workload's passes; started fresh by run.py.

Protocol: one JSON object per line on the original stdout. The worker
announces `ready` once qcalab is imported and the inputs are made, then
runs one pass for every `next` line read from stdin, saves each study's
output under the run directory, reports the pass's wall time, and on
`stop` reports its peak RSS (and, when tracing, the per-layer metrics).
With `--setup-only` it reports `ready` and exits: run.py times several of
these fresh starts for setup_s.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def send(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def plain(output):
    """Study output as plain data for the checking process."""
    from qcalab.dirac import WalkField
    from qcalab.state import SparseState

    if isinstance(output, WalkField):
        return {"psi_plus": output.psi_plus, "psi_minus": output.psi_minus}
    if isinstance(output, SparseState):
        return {"terms": {c.cells: a for c, a in output.terms.items()}}
    return output


def traced_metrics(tracer, timed_passes: int, args) -> dict:
    """Per-layer figures per timed pass; an exact 0 where no pass reached a function."""
    import tracing

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer.write(os.path.join(args.rundir, f"trace-{args.workload}-{args.seed}.jsonl"))
    return tracing.layer_metrics(tracer, names, timed_passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import qcalab
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.rundir)
    send({"ready": time.monotonic(), "qcalab": os.path.abspath(qcalab.__file__)})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, qcalab)
    passes = 0
    for line in sys.stdin:
        if line.strip() != "next":
            break
        gc.collect()
        start = time.perf_counter()
        outputs = workloads.run_pass(args.workload, inputs, tracer)
        seconds = time.perf_counter() - start
        for name, output in outputs:
            with open(os.path.join(args.rundir, name + ".pkl"), "wb") as fh:
                pickle.dump(plain(output), fh, protocol=pickle.HIGHEST_PROTOCOL)
        ops = [name for name, _ in outputs]
        del outputs
        if tracer is not None and passes == 0:
            tracer.reset()  # the warm-up pass stays out of the figures
        passes += 1
        send({"pass": passes - 1, "seconds": seconds, "ops": ops})
    done = {"done": True, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None and passes > 1:
        done["per_layer"] = traced_metrics(tracer, passes - 1, args)
    send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
