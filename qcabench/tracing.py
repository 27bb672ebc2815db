"""Spans around qcalab's public functions, recorded from outside the program.

`install` wraps every public function defined in a layer module and puts
the wrapper on every module attribute that names the function, because the
modules import each other's functions by name (`structure.support_of` is
`operators.support_of`). Spans stay in memory as (name, start, end, parent)
and are written out when the run ends. Nothing here is installed in an
untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "dirac", "pqca", "state", "operators", "structure", "trotter")

# cli's other public functions (`run`, `build_config`) are steps of `main`;
# left unwrapped, main's self time holds all of the CLI's own work: argument
# handling, formatting and output.
ONLY = {"cli": ("main",)}

# Bytes one site-step of the two-component walk must at least read and write:
# psi_plus and psi_minus in and out, complex128 each. A computed figure, not
# a measured one.
WALK_BYTES_PER_SITE_STEP = 4 * 16


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, amount: float):
        self.counts[key] += amount

    def calls(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    def write(self, path: str):
        """Write the counts, then one span per line, to a JSON-lines file."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Sum per span name of duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[idx] if e > start and s < end]
        out[name] += (end - start) - covered_length(inside)
    return dict(out)


def _dense_dims(objs, dense_cls):
    for obj in objs:
        if isinstance(obj, dense_cls):
            yield obj.dim
        inner = getattr(obj, "h", None)
        if isinstance(inner, dense_cls):
            yield inner.dim


def _counters(dense_cls):
    """Count functions by span name, and the one every other structure span gets."""

    def walk_evolve(counts, args, kwargs, result):
        steps = kwargs.get("steps", args[3] if len(args) > 3 else None)
        site_steps = args[0].grid_size * steps
        counts["dirac.walk_evolve.site_steps"] += site_steps
        counts["dirac.walk_evolve.bytes_computed"] += WALK_BYTES_PER_SITE_STEP * site_steps

    def pqca_step(counts, args, kwargs, result):
        counts["pqca.pqca_step.terms_in"] += len(args[0])
        counts["pqca.pqca_step.terms_out"] += len(result)

    def structure_dims(counts, args, kwargs, result):
        dims = list(_dense_dims(list(args) + list(kwargs.values()) + [result], dense_cls))
        if dims:
            key = "structure.max_dense_dim"
            counts[key] = max(counts[key], max(dims))

    def causality_check(counts, args, kwargs, result):
        ring = args[0].ring
        counts["structure.causality_check.images"] += ring.cell_count * ring.local_dim**2
        structure_dims(counts, args, kwargs, result)

    named = {
        "dirac.walk_evolve": walk_evolve,
        "pqca.pqca_step": pqca_step,
        "structure.causality_check": causality_check,
    }
    return named, structure_dims


def install(tracer: Tracer, package):
    """Wrap the public functions of every layer module of `package`.

    Returns a function that puts the original functions back.
    """
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    named, structure_dims = _counters(package.operators.DenseOperator)
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer in ONLY and attr not in ONLY[layer]:
                continue
            name = f"{layer}.{attr}"
            default = structure_dims if layer == "structure" else None
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, named.get(name, default)))
    restore = []
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
                restore.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in restore:
            setattr(mod, attr, obj)

    return uninstall


# Counts that are a maximum over the run, not a sum over passes.
MAXIMA = ("structure.max_dense_dim",)


def layer_metrics(tracer: Tracer, names, passes: int) -> dict:
    """Per-pass values of the per-layer metrics named in BENCHMARK.json.

    `<function>.self_s` is the function's self time, `<function>.calls` its
    call count, rates divide a count by the self time, and every other name
    is a count recorded at the function's boundary.
    """
    selfs = self_times(tracer.spans)
    calls = tracer.calls()
    counts = tracer.counts
    rates = {
        "dirac.walk_evolve.site_steps_per_s": ("dirac.walk_evolve.site_steps", "dirac.walk_evolve"),
        "pqca.pqca_step.terms_per_s": ("pqca.pqca_step.terms_out", "pqca.pqca_step"),
    }
    out = {}
    for name in names:
        fn, _, kind = name.rpartition(".")
        if name in rates:
            count, span = rates[name]
            out[name] = counts[count] / selfs[span] if selfs.get(span) else 0.0
        elif name in MAXIMA:
            out[name] = counts.get(name, 0)
        elif kind == "self_s":
            out[name] = selfs.get(fn, 0.0) / passes
        elif kind == "calls":
            out[name] = calls.get(fn, 0) / passes
        else:
            out[name] = counts.get(name, 0) / passes
        if kind != "self_s" and name not in rates and float(out[name]).is_integer():
            out[name] = int(out[name])
    return out
