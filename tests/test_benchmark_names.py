"""The per-layer metrics in BENCHMARK.json name qcalab functions; a metric
whose function is deleted, renamed or moved reads 0 without failing, so
this checks every such name against the package."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_every_per_layer_metric_names_a_public_function():
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    checked = 0
    for name in names:
        parts = name.split(".")
        if len(parts) != 3:  # a run-wide count such as structure.max_dense_dim
            continue
        layer, function, _ = parts
        module = importlib.import_module(f"qcalab.{layer}")
        fn = getattr(module, function, None)
        # the benchmark's tracer wraps only public functions defined in the layer
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__ and not function.startswith("_"), name
        checked += 1
    assert checked > 0
