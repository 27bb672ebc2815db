"""The four workloads: inputs made from the seed, and one pass of studies.

Every workload drives one group of qcalab's modules and leaves the others
nearly idle. Sizes are fixed; the seed moves only values (masses, steps,
packet shapes, particle placements, seeded unitaries), so a pass does the
same amount of work whatever the seed. Studies that users run from the
command line go through `qcalab.cli.main(argv)` in-process; the sparse
engine has no subcommand and is driven through its library calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

WORKLOADS = ("walk_endpoint", "walk_trace", "sparse_scatter", "dense_verify")

# walk_endpoint
ENDPOINT_GRID = 65536
ENDPOINT_STEPS = 1000
CONVERGE_GRID = 16384
CONVERGE_MODE = 256
CONVERGE_TIME = 4.0
CONVERGE_EPS = (0.032, 0.016, 0.008, 0.004)

# walk_trace
TRACE_GRID = 512
TRACE_STEPS = 400

# sparse_scatter
SEPARATED_STEPS = 12
SEPARATED_PARTICLES = 3
COLLISION_STEPS = 8
COLLISION_OFFSETS = (0, 2, 4, 6)
D3_STEPS = 3
D3_RING = 6
D3_ONE_PARTICLE = (1, 2, 3, 6)
D3_TWO_PARTICLES = (4, 5, 7, 8)
CROSSCHECK_GRID = 2048
CROSSCHECK_STEPS = 50
CROSSCHECK_WIDTH = 40.0
CROSSCHECK_MODE = 7
CROSSCHECK_MASS = 0.9
CROSSCHECK_EPS = 0.3

# dense_verify
DIRAC_CAUSALITY_CELLS = 8
LOCALIZE_CELLS = 4
XOR_LENGTH = 5
SIGNAL_LENGTH = 6
# Fixed inputs, not drawn from the seed: the splitting-error comparison on
# them fails every time because of the spectral_norm fault, so the failed
# share of a run is the same on every seed.
TROTTER_ARGV = ("trotter", "--hamiltonian", "random", "--seed", "1", "--cells", "8", "--dt", "0.2,0.1,0.05")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _f(x: float) -> str:
    return repr(float(x))


def gaussian(grid: int, center: float, sigma: float, mode: int) -> np.ndarray:
    x = np.arange(grid)
    amp = np.exp(-((x - center) ** 2) / (4.0 * sigma * sigma)) * np.exp(2j * math.pi * mode * x / grid)
    return amp / np.linalg.norm(amp)


def make_inputs(workload: str, seed: int, rundir: str) -> dict:
    """Everything a pass needs, made from the seed alone (plus output paths)."""
    rng = _rng(workload, seed)
    if workload == "walk_endpoint":
        from qcalab.dirac import WalkField

        packets = [
            gaussian(ENDPOINT_GRID, rng.uniform(0, ENDPOINT_GRID), rng.uniform(50, 400), int(rng.integers(-2000, 2001)))
            for _ in range(2)
        ]
        weight = rng.uniform(0.2, 0.8)
        field = WalkField(math.sqrt(weight) * packets[0], math.sqrt(1 - weight) * packets[1])
        return {
            "field": field,
            "mass": rng.uniform(0.3, 1.5),
            "eps": rng.uniform(0.02, 0.08),
            "converge_argv": [
                "converge", "--mass", _f(rng.uniform(0.3, 1.5)), "--mode", str(CONVERGE_MODE),
                "--time", _f(CONVERGE_TIME), "--eps", ",".join(map(_f, CONVERGE_EPS)),
                "--grid", str(CONVERGE_GRID),
            ],
        }
    if workload == "walk_trace":
        init = "gauss:{}:{}:{}:{}".format(
            _f(rng.uniform(100, TRACE_GRID - 100)), _f(rng.uniform(4, 20)),
            int(rng.integers(-20, 21)), ("plus", "minus")[int(rng.integers(2))],
        )
        return {
            "argv": [
                "walk", "--grid", str(TRACE_GRID), "--steps", str(TRACE_STEPS),
                "--mass", _f(rng.uniform(0.3, 1.5)), "--epsilon", _f(rng.uniform(0.05, 0.2)),
                "--init", init,
                "--out", os.path.join(rundir, "walk.csv"),
                "--dump-state", os.path.join(rundir, "walk.dump"),
            ],
        }
    if workload == "sparse_scatter":
        from qcalab.dirac import dirac_scattering_unitary
        from qcalab.pqca import Pqca, ScatteringUnitary
        from qcalab.state import Alphabet, Configuration, SparseState
        from qcalab.dirac import WalkField

        # m*eps in [0.5, 1.0] keeps cos and sin above 0.47, so no amplitude
        # of the product states comes near the 1e-14 pruning threshold
        eps = rng.uniform(0.2, 0.5)
        mass = rng.uniform(0.5, 1.0) / eps
        gaps = rng.integers(30, 60, size=SEPARATED_PARTICLES - 1)
        separated = tuple(int(x) for x in int(rng.integers(-50, 50)) + np.concatenate([[0], np.cumsum(gaps)]))
        base = 2 * int(rng.integers(-25, 25))  # even, so every seed packs the blocks alike
        collided = tuple(base + o for o in COLLISION_OFFSETS)
        # index 3a + b for left symbol a, right symbol b: one Haar-random
        # block on the four one-particle states and one on the four
        # two-particle states, so the rule keeps the particle number
        u3 = np.eye(9, dtype=np.complex128)
        for sector in (D3_ONE_PARTICLE, D3_TWO_PARTICLES):
            u3[np.ix_(sector, sector)] = haar_unitary(rng, len(sector))
        d3_symbols = tuple(int(s) for s in rng.integers(1, 3, size=2))
        two = Alphabet(2)
        basis = lambda cells: SparseState(two, 1, {Configuration(1, tuple(((x,), 1) for x in cells)): 1.0})
        # how many amplitudes clear the pruning threshold depends on the
        # packet's width, momentum, mass and step, so those are fixed and the
        # seed moves only the packet's position, which leaves the work alone
        cc = gaussian(CROSSCHECK_GRID, CROSSCHECK_GRID / 2 + int(rng.integers(-300, 301)), CROSSCHECK_WIDTH,
                      CROSSCHECK_MODE)
        return {
            "mass": mass,
            "eps": eps,
            "dirac": Pqca(dirac_scattering_unitary(mass, eps)),
            "separated": separated,
            "separated_state": basis(separated),
            "collided": collided,
            "collided_state": basis(collided),
            "u3": u3,
            "d3": Pqca(ScatteringUnitary(3, 1, u3)),
            "d3_state": SparseState(
                Alphabet(3), 1, {Configuration(1, (((2,), d3_symbols[0]), ((3,), d3_symbols[1]))): 1.0}
            ),
            "cc_field": WalkField(cc, np.zeros_like(cc)),
        }
    if workload == "dense_verify":
        mass, eps = _f(rng.uniform(0.3, 1.5)), _f(rng.uniform(0.1, 0.5))
        dirac = ["--mass", mass, "--epsilon", eps]
        causality = ["causality", "--system", "dirac", "--cells", str(DIRAC_CAUSALITY_CELLS)] + dirac
        return {
            "mass": float(mass),
            "eps": float(eps),
            "argvs": {
                "causality_dirac": causality,
                "causality_dirac_nb0": causality + ["--neighbourhood=0", "--expect", "fail"],
                "causality_xor": ["causality", "--system", "xor", "--length", str(XOR_LENGTH), "--expect", "fail"],
                "localize_dirac": ["localize", "--system", "dirac", "--cells", str(LOCALIZE_CELLS)] + dirac,
                "localize_product": [
                    "localize", "--system", "product", "--cells", str(LOCALIZE_CELLS),
                    "--seed", str(int(rng.integers(0, 2**31))),
                ],
                "trotter": list(TROTTER_ARGV),
                "signal": ["signal", "--length", str(SIGNAL_LENGTH)],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def run_cli(argv, tracer=None) -> dict:
    """One CLI study in-process, with its stdout and stderr captured."""
    from qcalab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tracer is not None:
        written = len(result["stdout"]) + len(result["stderr"])
        for flag in ("--out", "--dump-state"):
            if flag in argv:
                written += os.path.getsize(argv[argv.index(flag) + 1])
        tracer.count("cli.main.output_bytes", written)
    return result


def run_pass(workload: str, inputs: dict, tracer=None) -> list:
    """Every study of the workload once, in order; [(operation, output)]."""
    from qcalab import dirac, pqca

    if workload == "walk_endpoint":
        return [
            ("converge", run_cli(inputs["converge_argv"], tracer)),
            ("walk_evolve", dirac.walk_evolve(inputs["field"], inputs["mass"], inputs["eps"], ENDPOINT_STEPS)),
        ]
    if workload == "walk_trace":
        return [("walk", run_cli(inputs["argv"], tracer))]
    if workload == "sparse_scatter":
        return [
            ("separated", pqca.pqca_evolve(inputs["separated_state"], inputs["dirac"], SEPARATED_STEPS)),
            ("collision", pqca.pqca_evolve(inputs["collided_state"], inputs["dirac"], COLLISION_STEPS)),
            ("generic_d3", pqca.pqca_evolve(inputs["d3_state"], inputs["d3"], D3_STEPS)),
            (
                "crosscheck",
                dirac.walk_vs_engine_crosscheck(CROSSCHECK_MASS, CROSSCHECK_EPS, CROSSCHECK_STEPS, inputs["cc_field"]),
            ),
        ]
    if workload == "dense_verify":
        return [(name, run_cli(argv, tracer)) for name, argv in inputs["argvs"].items()]
    raise ValueError(f"unknown workload {workload!r}")
