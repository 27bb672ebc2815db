"""Command-line entry point: every study as one subcommand.

Subcommands: walk, converge, trotter, localize, causality, signal,
quiescence. Outputs are CSV (17 significant digits, '.' decimal separator)
or plain-text reports; identical configuration and seed produce
byte-identical output. Exit status: 0 = pass, 1 = scientific-check failure,
2 = usage error. Long flag names only; `--config FILE` supplies key=value
defaults that explicit flags override; every subcommand accepts
`--selftest` to run its module's invariant battery instead of the study.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .dirac import (
    WalkField,
    convergence_study,
    dirac_plane_wave,
    dirac_scattering_unitary,
    gaussian_field,
    step_count,
    walk_evolve,
    walk_step,
    walk_vs_engine_crosscheck,
)
from .gformat import SLOT_WORDS, ascii_bytes, g_slots, text_words
from .operators import identity_operator, spectral_norm, unitarity_defect
from .pqca import (
    Pqca,
    ScatteringUnitary,
    check_quiescence,
    composed_step_operator,
    load_unitary,
    pqca_as_ring_operator,
    regroup_pairs,
)
from .state import MAX_DENSE_DIM, Configuration, RingSpace, SparseState, Alphabet, dump_state
from .structure import (
    build_localization,
    causality_check,
    composed_step_causality,
    lift_classical,
    permutation_causality,
    quiescence_preserving_local,
    signalling_demo,
    single_cell_product,
    xor_lifted,
    xor_window_step,
)
from .trotter import (
    TwoCellHamiltonian,
    exchange_coupling,
    random_coupling,
    splitting_error,
    trotter_vs_pqca_crosscheck,
)

PASS_TOL = 1e-10
# Largest --grid of walk and converge, checked before anything of grid length
# is made. The walk keeps six complex128 arrays of grid length alive (the field
# and the stepper's current and next pairs): 384 MiB at 2^22 sites, with 96 MiB
# more in the x column of the CSV.
MAX_GRID = 1 << 22
# Largest grid x steps count of site-steps one walk or converge run may take,
# checked before any step: about a minute at ~3.5 ns per site-step.
MAX_SITE_STEPS = 1 << 34
_WALK_ARRAY_BYTES = 6 * 16
# The walk CSV is written a block at a time. A block's rows are uint64 words:
# t and ",x" in _TEXT_WORDS words each (at most 23 and 24 bytes, as
# ",1.2345678901234567e-308"), the five value slots of g_slots and the
# newline, all NUL-padded; its text is their non-NUL bytes, written in one
# call. A block holds whole slices of the grid, _CSV_ROWS rows at most, or
# _CSV_ROWS sites of one slice where the grid is longer. Its buffers take a
# few hundred kB, which the allocator reuses from block to block.
_CSV_ROWS = 1024
_TEXT_WORDS = 3
# Largest basis of `causality --system xor|identity`, checked before any array
# of one entry per basis word is made: 3^11 words (xor --length 11) take about
# 2 s, 2^18 (identity --cells 18) about 3 s on one core.
MAX_WORDS = 1 << 18
# `trotter` refuses a dt with dt * N * ||h|| at or past this: N ||h|| bounds
# ||H||, and there the phase error eps * dt * ||H|| of exp(-i dt H) reaches
# one radian.
MAX_PHASE = 2.0**52


@dataclass
class RunConfig:
    """One validated CLI invocation."""

    subcommand: str
    params: dict
    out: str = "-"
    seed: int = 0
    digits: int = 17
    selftest: bool = False


class UsageError(Exception):
    pass


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _open_for_writing(flag: str, path: str, binary: bool = False):
    """`path` opened for writing ASCII text, or bytes; a path that cannot be
    opened is a usage error naming `flag`."""
    try:
        return open(path, "wb") if binary else open(path, "w", encoding="ascii")
    except OSError as exc:
        raise UsageError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from exc


def _open_output(path: str, binary: bool = False):
    """`--out`: `path` opened for writing, or stdout (left open, a text
    stream) for `-`."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return _open_for_writing("--out", path, binary)


def _load_unitary_file(path: str):
    try:
        return load_unitary(path)
    except OSError as exc:
        raise UsageError(f"--unitary-file: cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(path: str, text: str):
    with _open_output(path) as fh:
        fh.write(text)


def _parse_floats(text: str, flag: str):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag}: empty list")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag}: expected finite numbers, got {text!r}")
    return values


def _parse_offsets(text: str, flag: str):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _init_field(kind: str, name: str, parse, text: str):
    """One field of an `--init` spec, parsed by `int` or `float`."""
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if parse is int else "a finite number"
        raise UsageError(f"--init: {kind} {name} must be {what}, got {text!r}")
    return value


def _parse_init(spec: str, grid: int) -> WalkField:
    parts = spec.split(":")
    kind = parts[0]
    component = "plus"
    if parts and parts[-1] in ("plus", "minus"):
        component = parts[-1]
        parts = parts[:-1]
    if kind == "delta" and len(parts) == 2:
        site = _init_field(kind, "SITE", int, parts[1])
        if not (0 <= site < grid):
            raise UsageError(f"--init: delta site {site} violates 0 <= site < grid ({grid})")
        pp = np.zeros(grid, dtype=np.complex128)
        pm = np.zeros(grid, dtype=np.complex128)
        (pp if component == "plus" else pm)[site] = 1.0
        return WalkField(pp, pm)
    if kind == "gauss" and len(parts) in (3, 4):
        center = _init_field(kind, "CENTER", float, parts[1])
        sigma = _init_field(kind, "SIGMA", float, parts[2])
        mode = _init_field(kind, "MODE", int, parts[3]) if len(parts) == 4 else 0
        if sigma <= 0:
            raise UsageError("--init: gauss sigma must be positive")
        try:
            return gaussian_field(grid, center, sigma, mode, component)
        except ValueError as exc:
            raise UsageError(f"--init: {exc}") from None
    raise UsageError(
        f"--init: expected delta:SITE[:plus|minus] or gauss:CENTER:SIGMA[:MODE][:plus|minus], got {spec!r}"
    )


def _check_grid(grid: int):
    """`--grid` of walk and converge: even, at least 2 and at most MAX_GRID,
    checked before any array of that length is made."""
    if grid < 2 or grid % 2 != 0:
        raise UsageError("--grid: must be a positive even integer")
    if grid > MAX_GRID:
        raise UsageError(
            f"--grid: {grid} sites exceed the limit of {MAX_GRID}; the walk's arrays "
            f"alone would take {_WALK_ARRAY_BYTES * grid} bytes"
        )


def _check_site_steps(flag: str, steps: int, grid: int):
    """`steps` walk steps on `grid` sites, refused over MAX_SITE_STEPS."""
    if steps * grid > MAX_SITE_STEPS:
        raise UsageError(
            f"{flag}: {steps} steps on {grid} sites make {steps * grid} site-steps, "
            f"over the limit of {MAX_SITE_STEPS}"
        )


def _over_cap(base: int, count: int, cap: int = MAX_DENSE_DIM) -> bool:
    """Whether base**count basis states exceed `cap`. It compares
    logarithms, so a huge count builds no huge integer."""
    return count * math.log2(base) > math.log2(cap)


def _check_dense(flag: str, base: int, count: int):
    """A dense study of base**count basis states, refused over MAX_DENSE_DIM
    with the bytes of one complex128 matrix, before any array is made."""
    if not _over_cap(base, count):
        return
    bits = 4 + 2 * count * math.log2(base)  # log2 of 16 * dim^2
    size = f"{2.0**bits:.3g}" if bits < 1000 else f"2^{bits:.0f}"
    raise UsageError(
        f"{flag}: dense dimension {base}^{count} exceeds cap {MAX_DENSE_DIM}; "
        f"one matrix would take {size} bytes"
    )


def _probabilities(pp: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """Python's `abs(plus) ** 2 + abs(minus) ** 2` per site, bit for bit:
    np.hypot is the modulus of a complex and np.float_power calls the libm
    `pow` that `**` calls; np.square and np.power differ from it in the
    last bit."""
    return np.add(*(np.float_power(np.hypot(a.real, a.imag), 2.0) for a in (pp, pm)))


def _walk_to_wire_state(f: WalkField) -> SparseState:
    """Lossless interleaved-wire encoding of a walk field as a one-particle
    sparse state: cell 2k carries psi_plus(k), cell 2k+1 carries psi_minus(k)."""
    terms = {}
    for k in range(f.grid_size):
        if f.psi_plus[k] != 0:
            terms[Configuration(1, (((2 * k,), 1),))] = complex(f.psi_plus[k])
        if f.psi_minus[k] != 0:
            terms[Configuration(1, (((2 * k + 1,), 1),))] = complex(f.psi_minus[k])
    return SparseState(Alphabet(2), 1, terms)


# ---------------------------------------------------------------------------
# studies


def _run_walk(cfg: RunConfig) -> int:
    p = cfg.params
    mass, eps, steps, grid = p["mass"], p["epsilon"], p["steps"], p["grid"]
    if eps <= 0:
        raise UsageError("--epsilon: must be positive")
    if mass < 0:
        raise UsageError("--mass: must be >= 0")
    if steps < 0:
        raise UsageError("--steps: must be >= 0")
    _check_grid(grid)
    _check_site_steps("--steps", steps, grid)
    f = _parse_init(p["init"], grid)
    spec = f".{cfg.digits}g"
    xs = text_words([f",{k * eps:{spec}}" for k in range(grid)], _TEXT_WORDS)
    per_block = max(1, _CSV_ROWS // grid)
    width = min(grid, _CSV_ROWS)
    rows = np.zeros((per_block, width, 2 * _TEXT_WORDS + 5 * SLOT_WORDS + 1), dtype=np.uint64)
    rows[..., -1] = text_words(["\n"], 1)[0, 0]
    with _open_output(cfg.out, binary=True) as fh:

        def write(data: np.ndarray):
            # stdout is a text stream: it gets the same bytes as ASCII text
            fh.write(data.tobytes().decode("ascii") if cfg.out == "-" else data)

        write(np.frombuffer(b"t,x,re_plus,im_plus,re_minus,im_minus,prob\n", dtype=np.uint8))
        for first in range(0, steps + 1, per_block):
            fields = []
            for s in range(first, min(first + per_block, steps + 1)):
                fields.append(f)
                if s < steps:
                    f = walk_step(f, mass, eps)
            block = rows[: len(fields)]
            block[..., :_TEXT_WORDS] = text_words(
                [format(s * eps, spec) for s in range(first, first + len(fields))], _TEXT_WORDS
            )[:, None, :]
            for lo in range(0, grid, width):
                sites = slice(lo, lo + width)
                pp = np.array([g.psi_plus[sites] for g in fields])
                pm = np.array([g.psi_minus[sites] for g in fields])
                values = np.stack((pp.real, pp.imag, pm.real, pm.imag, _probabilities(pp, pm)), axis=-1)
                part = block[:, : pp.shape[1]]
                part[..., _TEXT_WORDS : 2 * _TEXT_WORDS] = xs[sites]
                part[..., 2 * _TEXT_WORDS : -1] = g_slots(values, cfg.digits).reshape(part.shape[:2] + (-1,))
                write(ascii_bytes(part))
    if p["dump_state"]:
        with _open_for_writing("--dump-state", p["dump_state"]) as fh:
            fh.write(dump_state(_walk_to_wire_state(f), cfg.digits))
    return 0


def _run_converge(cfg: RunConfig) -> int:
    p = cfg.params
    if p["mass"] < 0:
        raise UsageError("--mass: must be >= 0")
    if p["time"] <= 0:
        raise UsageError("--time: must be positive")
    _check_grid(p["grid"])
    eps_list = p["eps"]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise UsageError("--eps: list must be strictly decreasing")
    steps = 0
    for eps in eps_list:
        with contextlib.suppress(ValueError):  # the study skips this eps
            steps += step_count(p["time"], eps)
    _check_site_steps("--time/--eps", steps, p["grid"])
    result = convergence_study(p["mass"], p["mode"], p["time"], eps_list, p["grid"])
    d = cfg.digits
    lines = ["epsilon,l2_error,local_order"]
    for row in result.rows:
        lines.append(
            ",".join((_fmt(row.eps, d), _fmt(row.l2_error, d), _fmt(row.local_order, d)))
        )
    _write_output(cfg.out, "\n".join(lines) + "\n")
    for eps, reason in result.skipped:
        print(f"skipped eps={eps}: {reason}", file=sys.stderr)
    print(f"fitted order: {_fmt(result.fitted_order, 6)}", file=sys.stderr)
    return 0


def _run_trotter(cfg: RunConfig) -> int:
    p = cfg.params
    cells = p["cells"]
    if cells < 2 or cells % 2 != 0:
        raise UsageError("--cells: must be an even integer >= 2")
    _check_dense("--cells", 2, cells)
    dts = p["dt"]
    if any(dt <= 0 for dt in dts):
        raise UsageError("--dt: values must be positive")
    if p["hamiltonian"] == "exchange":
        h = exchange_coupling()
    elif p["hamiltonian"] == "random":
        h = random_coupling(2, cfg.seed)
    else:
        raise UsageError("--hamiltonian: must be 'exchange' or 'random'")
    bound = cells * spectral_norm(h.matrix)
    for dt in dts:
        if dt * bound >= MAX_PHASE:
            raise UsageError(
                f"--dt: {dt!r} makes dt * cells * ||h|| reach 2^52, "
                "where the phases carry no correct digit"
            )
    ring = RingSpace(cells, 2)
    d = cfg.digits
    lines = ["dt,splitting_error,order_estimate"]
    prev = None
    for dt, err in zip(dts, splitting_error(h, ring, dts)):
        if prev is None or err <= 0 or prev[1] <= 0 or dt == prev[0]:
            order = math.nan
        else:
            order = math.log(err / prev[1]) / math.log(dt / prev[0])
        lines.append(",".join((_fmt(dt, d), _fmt(err, d), _fmt(order, d))))
        prev = (dt, err)
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0


def _localization_instance(system: str, cells: int, mass: float, eps: float, seed: int):
    if system == "identity":
        ring = RingSpace(cells, 2)
        return identity_operator(ring), (0,)
    if system == "product":
        ring = RingSpace(cells, 2)
        return single_cell_product(ring, quiescence_preserving_local(2, seed)), (0,)
    if system == "dirac":
        if cells % 2 != 0:
            raise UsageError("--cells: dirac layer needs an even ring")
        ring = RingSpace(cells, 2)
        pq = Pqca(dirac_scattering_unitary(mass, eps))
        j = pqca_as_ring_operator(pq, ring, "even")
        blocks = {}
        for x in range(cells):
            anchor = x - (x % 2)
            blocks[x] = {anchor, anchor + 1}
        return j, blocks
    raise UsageError("--system: must be identity, product or dirac")


def _run_localize(cfg: RunConfig) -> int:
    p = cfg.params
    if p["cells"] < 2:
        raise UsageError("--cells: must be >= 2")
    if p["epsilon"] <= 0:
        raise UsageError("--epsilon: must be positive")
    _check_dense("--cells", 4, p["cells"])  # the doubled register
    g, nbhd = _localization_instance(
        p["system"], p["cells"], p["mass"], p["epsilon"], cfg.seed
    )
    loc = build_localization(g, nbhd)
    lines = [f"localization report: system={p['system']} cells={p['cells']}"]
    for x, (supp, allowed) in enumerate(zip(loc.k_supports, loc.allowed)):
        lines.append(
            f"cell {x}: update-gate support {set(supp) or '{}'} within allowed {set(allowed)}"
        )
    lines.append(f"commutation residual: {_fmt(loc.commutation_residual, 6)}")
    lines.append(f"product-identity defect: {_fmt(loc.product_defect, 6)}")
    lines.append(f"HE-EG defect: {_fmt(loc.he_eg_defect, 6)}")
    ok = (
        loc.supports_contained()
        and loc.commutation_residual < PASS_TOL
        and loc.he_eg_defect < PASS_TOL
    )
    lines.append("verdict: pass" if ok else "verdict: fail")
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _check_words(flag: str, base: int, count: int):
    """A basis permutation of base**count words, refused over MAX_WORDS
    before any array is made."""
    if _over_cap(base, count, MAX_WORDS):
        raise UsageError(
            f"{flag}: {base}^{count} basis states exceed the cap of {MAX_WORDS} states; "
            "the check indexes the basis permutation, no matrix"
        )


def _causality_report(p: dict, nbhd) -> tuple:
    """The report, with the cell count and local dimension it speaks of."""
    system, cells, length = p["system"], p["cells"], p["length"]
    if system not in ("identity", "dirac", "xor", "file"):
        raise UsageError("--system: must be identity, dirac, xor or file")
    if cells < 1:
        raise UsageError("--cells: must be positive")
    if length < 1:
        raise UsageError("--length: must be positive")
    if system == "identity":
        _check_words("--cells", 2, cells)
        return permutation_causality(np.arange(2**cells), cells, 2, nbhd), cells, 2
    if system == "xor":
        _check_words("--length", 3, length)
        image = lift_classical(xor_window_step, length)
        return permutation_causality(image, length, 3, nbhd, periodic=False), length, 3
    if system == "file" and not p["unitary_file"]:
        raise UsageError("--unitary-file: required for --system file")
    if cells % 4 != 0:
        raise UsageError("--cells: composed step needs a multiple of 4 for supercells")
    if system == "dirac":
        u = dirac_scattering_unitary(p["mass"], p["epsilon"])
    else:
        u = _load_unitary_file(p["unitary_file"])
    report = composed_step_causality(Pqca(u), cells, nbhd)
    return report, cells // 2, u.alphabet_size**2


def _run_causality(cfg: RunConfig) -> int:
    p = cfg.params
    if p["expect"] not in ("pass", "fail"):
        raise UsageError("--expect: must be 'pass' or 'fail'")
    nbhd = p["neighbourhood"]
    report, cells, local_dim = _causality_report(p, nbhd)
    lines = [
        f"causality report: system={p['system']} cells={cells} "
        f"local_dim={local_dim} neighbourhood={list(nbhd)} periodic={report.periodic}"
    ]
    per_cell: dict = {x: set() for x in range(cells)}
    for w in report.witnesses:
        per_cell[w.cell].update(w.support)
    for x in range(cells):
        if per_cell[x]:
            lines.append(f"cell {x}: offending image support {sorted(per_cell[x])}")
    if report.witnesses:
        w = report.witnesses[0]
        lines.append(
            f"witness: observable unit {w.unit} at cell {w.cell} has image support "
            f"{list(w.support)} outside allowed {list(w.allowed)}"
        )
    lines.append("verdict: pass" if report.passed else "verdict: fail")
    _write_output(cfg.out, "\n".join(lines) + "\n")
    expected = p["expect"] == "pass"
    return 0 if report.passed == expected else 1


def _run_signal(cfg: RunConfig) -> int:
    p = cfg.params
    if p["length"] < 3:
        raise UsageError("--length: must be >= 3 (sender, bulk, receiver)")
    if _over_cap(3, p["length"]):
        raise UsageError(
            f"--length: 3^{p['length']} basis states exceed the cap of {MAX_DENSE_DIM} "
            "states; the study steps state vectors, no matrix"
        )
    rep = signalling_demo(p["length"])
    d = cfg.digits
    lines = [
        f"signalling report: length={rep.length}",
        f"receiver trace distance before step: {_fmt(rep.before, d)}",
        f"receiver trace distance after step: {_fmt(rep.after, d)}",
        f"sender phase-flip maps c+ to c- with max deviation: {_fmt(rep.phase_flip_defect, d)}",
    ]
    ok = rep.before < PASS_TOL and abs(rep.after - 1.0) < PASS_TOL and rep.phase_flip_defect < 1e-12
    lines.append("verdict: pass" if ok else "verdict: fail")
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _run_quiescence(cfg: RunConfig) -> int:
    p = cfg.params
    if p["unitary_file"]:
        u = _load_unitary_file(p["unitary_file"])
        label = p["unitary_file"]
    else:
        if p["epsilon"] <= 0:
            raise UsageError("--epsilon: must be positive")
        u = dirac_scattering_unitary(p["mass"], p["epsilon"])
        label = f"dirac mass={p['mass']} epsilon={p['epsilon']}"
    ud = unitarity_defect(u.matrix)
    qd = check_quiescence(u)
    d = cfg.digits
    lines = [
        f"quiescence report: {label}",
        f"unitarity defect: {_fmt(ud, d)}",
        f"quiescence defect: {_fmt(qd, d)}",
    ]
    ok = ud < PASS_TOL and qd < PASS_TOL
    lines.append("verdict: pass" if ok else "verdict: fail")
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# selftests: each subcommand's module invariants, pass/fail via exit code


def _adversarial_floats(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` random float64 bit patterns (subnormals, infinities and NaNs
    among them), every power of ten with its neighbours one ulp away, exact
    binary fractions (2i + 1) 2**-k whose decimal expansions end in a 5,
    signed zeros and the extremes, each with both signs."""
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    k = np.arange(1, 61)
    values = [
        np.frombuffer(rng.bytes(8 * size), dtype=np.float64),
        tens,
        np.nextafter(tens, 0.0),
        np.nextafter(tens, np.inf),
        (2 * rng.integers(0, 2**20, size=k.size) + 1) * np.ldexp(1.0, -k),
        np.array([0.0, np.inf, np.nan, np.finfo(np.float64).max, 5e-324]),
    ]
    return np.concatenate(values + [-v for v in values])


def _selftest_walk(seed: int):
    rng = np.random.default_rng(seed)
    for trial in range(3):
        grid = 32
        f = WalkField(
            rng.normal(size=grid) + 1j * rng.normal(size=grid),
            rng.normal(size=grid) + 1j * rng.normal(size=grid),
        ).normalized()
        g = walk_evolve(f, 0.4, 0.2, 50)
        assert abs(g.norm() - 1.0) < 1e-12, f"norm drift {abs(g.norm() - 1)}"
    yield "norm conservation"
    k = 2 * math.pi * 3 / (64 * 0.1)
    w0 = dirac_plane_wave(k, 0.0, 0.0, 64, 0.1)
    w1 = walk_evolve(w0, 0.0, 0.1, 10)
    ref = dirac_plane_wave(k, 0.0, 1.0, 64, 0.1)
    assert w1.l2_distance(ref) < 1e-12, "zero-mass transport not exact"
    yield "zero-mass exact transport"
    # margins sized so the transported tail never reaches the boundary,
    # where the periodic walk and the unbounded lattice would disagree
    init = gaussian_field(128, 64.0, 3.0)
    assert walk_vs_engine_crosscheck(0.5, 0.3, 8, init) < 1e-12, "engine crosscheck"
    yield "one-particle sector matches the block automaton"
    sample = _adversarial_floats(np.random.default_rng(seed), 20000)
    for digits in (17, 3):
        text = ascii_bytes(g_slots(sample, digits)).tobytes().decode("ascii")
        expected = "".join([f",%.{digits}g" % v for v in sample.tolist()])
        assert text == expected, f"CSV number slots differ from %.{digits}g"
    yield f"CSV number slots print as Python's %.17g and %.3g on {sample.size} adversarial floats"


def _selftest_converge(seed: int):
    res = convergence_study(0.5, 1, 1.0, [0.1, 0.05, 0.025, 0.0125], 64)
    assert not res.skipped, f"unexpected skips {res.skipped}"
    assert 0.7 <= res.fitted_order <= 1.3, f"fitted order {res.fitted_order}"
    yield "fitted refinement order inside [0.7, 1.3]"
    res0 = convergence_study(0.0, 1, 1.0, [0.1, 0.05], 64)
    assert all(r.l2_error < 1e-12 for r in res0.rows), "massless errors not ~0"
    yield "massless walk reproduces the analytic wave exactly"


def _selftest_trotter(seed: int):
    ring = RingSpace(4, 2)
    hd = TwoCellHamiltonian(2, np.diag([0.0, 0.7, -0.3, 1.1]).astype(complex))
    assert splitting_error(hd, ring, [0.3])[0] < 1e-12, "diagonal split not exact"
    yield "commuting parts split exactly"
    h = random_coupling(2, seed)
    errs = splitting_error(h, ring, [0.1, 0.05, 0.025])
    for a, b in zip(errs, errs[1:]):
        assert 0.2 <= b / a <= 0.35, f"ratio {b / a} outside [0.2, 0.35]"
    yield "second-order splitting-error scaling"
    rng = np.random.default_rng(seed)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert trotter_vs_pqca_crosscheck(h, ring, 0.1, 50, v) < 1e-8, "automaton/split mismatch"
    yield "automaton equals the split evolution"


def _selftest_localize(seed: int):
    for system in ("identity", "product", "dirac"):
        g, nbhd = _localization_instance(system, 4, 0.5, 0.3, seed)
        loc = build_localization(g, nbhd)
        assert loc.supports_contained(), f"{system}: support escaped"
        assert loc.he_eg_defect < PASS_TOL, f"{system}: defect {loc.he_eg_defect}"
        assert loc.commutation_residual < PASS_TOL, f"{system}: commutation"
        yield f"{system}: local commuting gates with intertwining defect < 1e-10"


def _selftest_causality(seed: int):
    rep = permutation_causality(np.arange(16), 4, 2, (0,))
    assert rep.passed, "identity not causal with trivial neighbourhood"
    assert rep == causality_check(identity_operator(RingSpace(4, 2)), (0,)), "identity reports differ"
    yield "identity is causal with trivial neighbourhood; index-map and dense reports agree"
    pq = Pqca(dirac_scattering_unitary(0.5, 0.3))
    assert composed_step_causality(pq, 8, (-1, 0, 1)).passed, "composed step not causal on supercells"
    yield "composed two-phase step causal with supercell neighbourhood {-1,0,1}"
    g2 = regroup_pairs(composed_step_operator(pq, RingSpace(8, 2)))
    for nbhd in ((-1, 0, 1), (0,)):
        window = composed_step_causality(pq, 8, nbhd)
        assert window == causality_check(g2, nbhd), f"window and dense reports differ for {nbhd}"
    yield "light-cone window report equals the dense 8-cell ring's"
    nbhd = (-2, -1, 0, 1, 2)
    rep = permutation_causality(lift_classical(xor_window_step, 4), 4, 3, nbhd, periodic=False)
    assert not rep.passed, "lifted xor rule unexpectedly causal"
    assert rep == causality_check(xor_lifted(4), nbhd, periodic=False), "xor reports differ"
    yield "lifted xor rule is not causal; index-map and dense reports agree"


def _selftest_signal(seed: int):
    for length in (3, 4, 5):
        rep = signalling_demo(length)
        assert rep.before < 1e-12 and abs(rep.after - 1.0) < 1e-12 and rep.phase_flip_defect == 0.0
        yield f"length {length}: distance 0 before, 1 after, exact phase flip"


def _selftest_quiescence(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = dirac_scattering_unitary(rng.uniform(0, 2), rng.uniform(0.01, 1))
        assert unitarity_defect(u.matrix) < 1e-12 and check_quiescence(u) < 1e-12
    yield "seeded scattering unitaries are unitary and quiescence-preserving"
    bad = np.eye(4)[:, [2, 1, 0, 3]].astype(complex)
    defect = check_quiescence(ScatteringUnitary(2, 1, bad))
    assert abs(defect - math.sqrt(2)) < 1e-12, f"expected sqrt(2), got {defect}"
    yield "non-quiescent unitary is detected"


_SELFTESTS = {
    "walk": _selftest_walk,
    "converge": _selftest_converge,
    "trotter": _selftest_trotter,
    "localize": _selftest_localize,
    "causality": _selftest_causality,
    "signal": _selftest_signal,
    "quiescence": _selftest_quiescence,
}

_RUNNERS = {
    "walk": _run_walk,
    "converge": _run_converge,
    "trotter": _run_trotter,
    "localize": _run_localize,
    "causality": _run_causality,
    "signal": _run_signal,
    "quiescence": _run_quiescence,
}


def run(cfg: RunConfig) -> int:
    """Execute exactly one study (or its selftest battery)."""
    if cfg.selftest:
        try:
            for line in _SELFTESTS[cfg.subcommand](cfg.seed):
                print(f"ok {cfg.subcommand}: {line}")
        except AssertionError as exc:
            print(f"FAIL {cfg.subcommand}: {exc}")
            return 1
        return 0
    return _RUNNERS[cfg.subcommand](cfg)


# ---------------------------------------------------------------------------
# argument wiring


@dataclass(frozen=True)
class _Opt:
    name: str
    parse: object
    default: object
    help: str


_COMMON = [
    _Opt("out", str, "-", "output path ('-' = stdout)"),
    _Opt("seed", int, 0, "seed for any randomized corpus"),
    _Opt("digits", int, 17, "significant digits in emitted numbers"),
]

_SUBCOMMANDS = {
    "walk": [
        _Opt("mass", float, 0.0, "particle mass (inverse length, hbar = c = 1)"),
        _Opt("epsilon", float, 0.1, "grid step"),
        _Opt("steps", int, 10, "number of walk steps"),
        _Opt("grid", int, 64, "periodic grid size (even)"),
        _Opt("init", str, "delta:32", "delta:SITE[:plus|minus] or gauss:CENTER:SIGMA[:MODE][:plus|minus]"),
        _Opt("dump-state", str, "", "also dump the final field in the sparse text format"),
    ],
    "converge": [
        _Opt("mass", float, 0.5, "particle mass"),
        _Opt("mode", int, 1, "integer momentum index on the fixed grid"),
        _Opt("time", float, 1.0, "total physical time"),
        _Opt("eps", "float_list", [0.1, 0.05, 0.025, 0.0125], "comma-separated decreasing step list"),
        _Opt("grid", int, 64, "fixed grid size (even)"),
    ],
    "trotter": [
        _Opt("cells", int, 4, "ring size (even)"),
        _Opt("dt", "float_list", [0.1, 0.05, 0.025], "comma-separated time slices"),
        _Opt("hamiltonian", str, "exchange", "coupling: exchange or random (seeded)"),
    ],
    "localize": [
        _Opt("system", str, "dirac", "identity, product or dirac"),
        _Opt("cells", int, 4, "ring size"),
        _Opt("mass", float, 0.5, "mass for the dirac layer"),
        _Opt("epsilon", float, 0.3, "step for the dirac layer"),
    ],
    "causality": [
        _Opt("system", str, "dirac", "identity, dirac, xor or file"),
        _Opt("cells", int, 8, "ring size in raw cells (multiple of 4 for composed steps)"),
        _Opt("mass", float, 0.5, "mass for the dirac step"),
        _Opt("epsilon", float, 0.3, "step for the dirac step"),
        _Opt("length", int, 4, "window length for the xor lifting"),
        _Opt("neighbourhood", "offsets", (-1, 0, 1), "comma-separated offsets"),
        _Opt("expect", str, "pass", "expected verdict: pass or fail"),
        _Opt("unitary-file", str, "", "scattering unitary file for --system file"),
    ],
    "signal": [
        _Opt("length", int, 6, "word length (>= 3)"),
    ],
    "quiescence": [
        _Opt("mass", float, 0.5, "mass of the built-in scattering unitary"),
        _Opt("epsilon", float, 0.3, "step of the built-in scattering unitary"),
        _Opt("unitary-file", str, "", "check a scattering unitary loaded from file instead"),
    ],
}


def _convert(opt: _Opt, raw: str):
    if opt.parse == "float_list":
        return _parse_floats(raw, f"--{opt.name}")
    if opt.parse == "offsets":
        return _parse_offsets(raw, f"--{opt.name}")
    try:
        value = opt.parse(raw)
    except ValueError as exc:
        raise UsageError(f"--{opt.name}: invalid value {raw!r}") from exc
    if opt.parse is float and not math.isfinite(value):
        raise UsageError(f"--{opt.name}: expected a finite number, got {raw!r}")
    return value


# every subcommand's option names: one config file may serve several
_OPTION_NAMES = {o.name for opts in (*_SUBCOMMANDS.values(), _COMMON) for o in opts}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"--config: {path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _OPTION_NAMES:
                    raise UsageError(f"--config: {path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it as it was, so each
    `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="qcalab",
        description="simulation and structural verification workbench for block cellular automata",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for opt in opts + _COMMON:
            p.add_argument(f"--{opt.name}", default=None, help=opt.help, metavar="V")
        p.add_argument("--config", default=None, help="key=value defaults file", metavar="FILE")
        p.add_argument("--selftest", action="store_true", help="run the module invariant battery")
    return parser


_VALUE_FLAGS = {"--config", *(f"--{name}" for name in _OPTION_NAMES)}


def _attach_dash_values(argv) -> list:
    """Rewrite `--flag -2,-1` as `--flag=-2,-1`: argparse takes a separate
    value that starts with '-' for a flag unless it is one plain number."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_config(argv) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(_attach_dash_values(argv))
    opts = _SUBCOMMANDS[args.subcommand] + _COMMON
    file_values = _load_config_file(args.config) if args.config else {}
    params = {}
    for opt in opts:
        attr = opt.name.replace("-", "_")
        raw = getattr(args, attr)
        if raw is None and opt.name in file_values:
            raw = file_values[opt.name]
        params[attr] = opt.default if raw is None else _convert(opt, raw)
    cfg = RunConfig(
        subcommand=args.subcommand,
        params={k: v for k, v in params.items() if k not in ("out", "seed", "digits")},
        out=params["out"],
        seed=params["seed"],
        digits=params["digits"],
        selftest=args.selftest,
    )
    if cfg.digits < 1 or cfg.digits > 17:
        raise UsageError("--digits: must be between 1 and 17")
    if cfg.seed < 0:
        raise UsageError("--seed: must be an unsigned integer")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
        return run(cfg)
    except SystemExit as exc:
        # argparse ends its own usage errors (2) and --help (0) by exiting
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
