"""Two-component walk for a free spin-1/2 particle on a 1D periodic grid.

The scattering unitary mixes a left-moving and a right-moving occupancy with
amplitudes cos(m*eps) (transmission) and -i*sin(m*eps) (direction flip); its
one-particle sector is the update

    psi_plus(t+eps, x)  = c * psi_plus(t, x-eps)  - i s * psi_minus(t, x)
    psi_minus(t+eps, x) = c * psi_minus(t, x+eps) - i s * psi_plus(t, x)

whose first-order continuum limit is the 1+1D free-particle equation
d_t psi = -sigma3 d_x psi - i m sigma1 psi (the mass couples the two
components). Analytic plane-wave references and convergence studies against
them live here, as does the crosscheck identifying the walk with the
one-particle sector of the block automaton.

The stepper `walk_evolve` advances large grids in cache-sized tiles, each
gathered with a halo of as many sites as it is stepped before its interior
is written back. Every amplitude still gets the same IEEE operations in the
same order as the plain whole-grid recurrence, so the tiling never shows in
a printed digit, a signed zero or a crosscheck bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pqca import Pqca, ScatteringUnitary, _one_cell_terms, _Stepper


@dataclass
class WalkField:
    """Component amplitudes sampled on grid points x = step*k, k = 0..M-1."""

    psi_plus: np.ndarray = field(repr=False)
    psi_minus: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.psi_plus = np.asarray(self.psi_plus, dtype=np.complex128)
        self.psi_minus = np.asarray(self.psi_minus, dtype=np.complex128)
        if self.psi_plus.shape != self.psi_minus.shape or self.psi_plus.ndim != 1:
            raise ValueError("component arrays must be 1D and of equal length")

    @property
    def grid_size(self) -> int:
        return self.psi_plus.shape[0]

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2))
        )

    def normalized(self) -> "WalkField":
        n = self.norm()
        if not 0 < n < math.inf:  # also refuses nan
            raise ValueError(f"cannot normalize a field of norm {n}")
        return WalkField(self.psi_plus / n, self.psi_minus / n)

    def copy(self) -> "WalkField":
        return WalkField(self.psi_plus.copy(), self.psi_minus.copy())

    def l2_distance(self, other: "WalkField") -> float:
        return float(
            np.sqrt(
                np.sum(np.abs(self.psi_plus - other.psi_plus) ** 2)
                + np.sum(np.abs(self.psi_minus - other.psi_minus) ** 2)
            )
        )


def dirac_scattering_unitary(mass: float, eps: float) -> ScatteringUnitary:
    """4x4 block unitary: empty and doubly-occupied blocks fixed, the
    one-particle middle block [[-i s, c], [c, -i s]] with c = cos(m*eps),
    s = sin(m*eps). At zero mass occupancies cross the block unchanged."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mass < 0:
        raise ValueError("mass must be >= 0")
    c = math.cos(mass * eps)
    s = math.sin(mass * eps)
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, -1j * s, c, 0],
            [0, c, -1j * s, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    return ScatteringUnitary(2, 1, m)


# Tile width and halo of `walk_evolve`, chosen by a sweep at one thread on a
# core with a 2 MiB L2 (65536 and 16384 sites, 1000 steps; tiles of 4096 to
# 32768 sites, halos of 64 to 512). At 16384 sites the five tile rows take
# 1.3 MiB, inside L2 with room for the whole-grid arrays streaming through.
# Narrower tiles pay numpy's fixed cost per call on fewer sites (8192: about
# 10% slower); wider ones spill L2 (32768: about 45% slower). The halo
# hardly matters in that range: each round adds a gather and a copy-out per
# tile and about _HALO / _TILE of redundant sites per step.
_TILE = 16384
_HALO = 128


def walk_step(f: WalkField, mass: float, eps: float) -> WalkField:
    """One update of the two recurrence lines with periodic wraparound."""
    return walk_evolve(f, mass, eps, 1)


def walk_evolve(f: WalkField, mass: float, eps: float, steps: int) -> WalkField:
    """`steps` updates of the two recurrence lines, in cache-sized tiles.

    The grid is cut into ceil(n / _TILE) tiles of nearly equal width. A
    round advances every tile k = min(_HALO, steps left) steps: the tile
    and k sites of periodic halo on each side are gathered into small
    buffers, stepped on a window that loses one site per side per step
    (the halo absorbs the shift of each line), and the tile's interior is
    written out. Each round reads only the previous round's output, so
    tiles are independent, and the working set of a round stays in cache
    while the whole grid may not.

    Each amplitude is computed as `c * shifted - (1j * s) * other`, the same
    IEEE operations in the same order as the plain recurrence, so the result
    is bitwise that recurrence (signed zeros and subnormals included),
    however the grid is tiled. The input field is not modified.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    c = math.cos(mass * eps)
    flip = 1j * math.sin(mass * eps)
    cur = np.array((f.psi_plus, f.psi_minus))
    nxt = np.empty_like(cur)
    n = f.grid_size
    tiles = -(-n // _TILE)
    edges = [n * i // tiles for i in range(tiles + 1)]
    # rows: the two components, their next values, and the flip products
    bufs = np.empty((5, -(-n // tiles) + 2 * min(_HALO, steps)), dtype=np.complex128)
    tmp = bufs[4]
    left = steps
    while left:
        k = min(_HALO, left)
        for a, b in zip(edges, edges[1:]):
            w = b - a + 2 * k
            if k < n:
                # the halo wraps past each end of the grid by at most n sites
                head, tail = max(k - a, 0), max(b + k - n, 0)
                np.copyto(bufs[:2, :head], cur[:, n - head :])
                np.copyto(bufs[:2, head : w - tail], cur[:, a - k + head : b + k - tail])
                np.copyto(bufs[:2, w - tail : w], cur[:, :tail])
            else:
                np.take(cur, np.arange(a - k, b + k), axis=1, out=bufs[:2, :w], mode="wrap")
            p, m, q, r = bufs[:4, :w]
            # Step lo leaves sites lo..w-lo-1 exact. The scalar stays the
            # first operand: numpy's fused complex multiply is not symmetric
            # in the sign of a zero that a product underflows to.
            for lo in range(1, k + 1):
                hi = w - lo
                # psi_plus moves right: q[x] = c * p[x-1] - flip * m[x]
                np.multiply(c, p[lo - 1 : hi - 1], out=q[lo:hi])
                np.multiply(flip, m[lo:hi], out=tmp[lo:hi])
                np.subtract(q[lo:hi], tmp[lo:hi], out=q[lo:hi])
                # psi_minus moves left: r[x] = c * m[x+1] - flip * p[x]
                np.multiply(c, m[lo + 1 : hi + 1], out=r[lo:hi])
                np.multiply(flip, p[lo:hi], out=tmp[lo:hi])
                np.subtract(r[lo:hi], tmp[lo:hi], out=r[lo:hi])
                p, q = q, p
                m, r = r, m
            nxt[0, a:b] = p[k : w - k]
            nxt[1, a:b] = m[k : w - k]
        cur, nxt = nxt, cur
        left -= k
    return WalkField(cur[0], cur[1])


def _positive_branch_spinor(k: float, mass: float) -> tuple:
    """Normalized eigenvector of k*sigma3 + m*sigma1 at +sqrt(k^2+m^2),
    first nonzero component positive real."""
    omega = math.sqrt(k * k + mass * mass)
    if omega == 0.0:
        return (1.0, 0.0), 0.0
    if omega + k > 1e-12 * omega:
        v = np.array([omega + k, mass])
    else:
        # massless left-mover: the +|k| eigenvector of k*sigma3 for k < 0
        v = np.array([0.0, 1.0])
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1])), omega


def dirac_plane_wave(
    k: float, mass: float, t: float, grid_size: int, step: float
) -> WalkField:
    """Analytic positive-frequency plane wave u*exp(i(k x - omega t)) sampled
    on the grid, omega = sqrt(k^2 + m^2); normalized over the grid.

    `k` must be grid-commensurate: k = 2*pi*j/(grid_size*step) for integer j.
    """
    circumference = grid_size * step
    j_exact = k * circumference / (2 * math.pi)
    j = round(j_exact)
    if abs(j_exact - j) > 1e-9:
        raise ValueError(
            f"momentum {k} is not grid-commensurate; nearest valid mode index is j={j} "
            f"(k={2 * math.pi * j / circumference})"
        )
    (u0, u1), omega = _positive_branch_spinor(k, mass)
    x = step * np.arange(grid_size)
    phase = np.exp(1j * (k * x - omega * t)) / math.sqrt(grid_size)
    return WalkField(u0 * phase, u1 * phase)


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    l2_error: float
    local_order: float  # nan on the first usable row


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple
    fitted_order: float
    skipped: tuple  # (eps, reason) pairs


def step_count(total_time: float, eps: float) -> int:
    """total_time / eps as a whole number of walk steps, within 1e-9. A
    ValueError gives the reason there is none: eps is not positive, or the
    quotient is not an integer (an infinite one included)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_exact = total_time / eps
    if not math.isfinite(n_exact) or abs(n_exact - round(n_exact)) > 1e-9:
        raise ValueError(f"total_time/eps = {n_exact} is not an integer")
    return round(n_exact)


def convergence_study(
    mass: float,
    mode: int,
    total_time: float,
    eps_list,
    grid_size: int = 64,
) -> ConvergenceResult:
    """Refinement study at fixed grid size and fixed integer mode.

    Each entry uses the momentum k = 2*pi*mode/(grid_size*eps) commensurate
    with the grid, samples the analytic plane wave at t=0, evolves
    total_time/eps steps, and measures the grid L2 distance to the analytic
    wave at t=total_time. Holding the mode fixed on a fixed grid keeps the
    points-per-wavelength resolution constant while eps shrinks; in this
    family the scheme's accuracy is first order. (At fixed physical momentum
    the update is a symmetric split per mode and converges at second order
    instead.) Returns per-eps errors, pairwise local orders, and the log-log
    least-squares slope; entries whose preconditions fail are skipped and
    reported.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if grid_size < 2 or grid_size % 2 != 0:
        raise ValueError("grid size must be a positive even integer")
    rows = []
    skipped = []
    for eps in eps_list:
        try:
            n_steps = step_count(total_time, eps)
        except ValueError as exc:
            skipped.append((eps, str(exc)))
            continue
        k = 2 * math.pi * mode / (grid_size * eps)
        init = dirac_plane_wave(k, mass, 0.0, grid_size, eps)
        ref = dirac_plane_wave(k, mass, total_time, grid_size, eps)
        evolved = walk_evolve(init, mass, eps, n_steps)
        rows.append((eps, evolved.l2_distance(ref)))
    out = []
    prev = None
    for eps, err in rows:
        if prev is None or err <= 0 or prev[1] <= 0:
            order = math.nan
        else:
            order = math.log(err / prev[1]) / math.log(eps / prev[0])
        out.append(ConvergenceRow(eps, err, order))
        prev = (eps, err)
    usable = [(e, r) for e, r in rows if r > 0]
    if len(usable) >= 2:
        slope = np.polyfit(
            np.log([e for e, _ in usable]), np.log([r for _, r in usable]), 1
        )[0]
        fitted = float(slope)
    else:
        fitted = math.nan
    return ConvergenceResult(tuple(out), fitted, tuple(skipped))


def gaussian_field(
    grid_size: int,
    center: float,
    sigma: float,
    mode: int = 0,
    component: str = "plus",
) -> WalkField:
    """Normalized Gaussian packet with an optional momentum phase.

    `mode` is the integer momentum index (phase exp(2 pi i mode x / M)).
    A packet the grid cannot sample is refused: its exponent overflows at a
    site, or its largest amplitude squares below the normal float range.
    """
    if component not in ("plus", "minus"):
        raise ValueError("component must be 'plus' or 'minus'")
    x = np.arange(grid_size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponent = (x - center) ** 2 / (4.0 * sigma * sigma)
    what = f"gauss packet at {center!r} with sigma {sigma!r} cannot be sampled on the grid"
    if not np.isfinite(exponent).all():
        raise ValueError(f"{what}: (x - center)^2 / (4 sigma^2) overflows")
    amp = np.exp(-exponent).astype(np.complex128)
    peak = float(amp.real.max())
    if not peak * peak >= np.finfo(np.float64).tiny:
        raise ValueError(
            f"{what}: its largest site amplitude, {peak!r}, squares below the normal float range"
        )
    amp *= np.exp(2j * math.pi * mode * x / grid_size)
    zero = np.zeros(grid_size, dtype=np.complex128)
    f = WalkField(amp, zero) if component == "plus" else WalkField(zero, amp)
    return f.normalized()


def _read_copy(copy, pp: np.ndarray, pm: np.ndarray, plus_parity: int) -> float:
    """Add a packed checkerboard copy's one-particle terms inside the grid
    to the field (psi_plus at sites of `plus_parity`, psi_minus at the
    others); return the largest modulus of its other terms (0.0 if none)."""
    amp, start, points, symbols = copy
    single = np.flatnonzero(np.diff(start) == 1)
    cell = start[single]
    x = points[cell, 0]
    inside = (symbols[cell] == 1) & (x >= 0) & (x < len(pp))
    outside = np.ones(len(amp), dtype=bool)
    outside[single[inside]] = False
    x, sector = x[inside], amp[single[inside]]
    plus = x % 2 == plus_parity
    pp[x[plus]] += sector[plus]
    pm[x[~plus]] += sector[~plus]
    # np.hypot is Python's abs of a complex, bit for bit
    return float(np.hypot(amp.real[outside], amp.imag[outside]).max(initial=0.0))


def walk_vs_engine_crosscheck(mass: float, eps: float, steps: int, init: WalkField) -> float:
    """Max modulus deviation between the walk recurrence and the block
    automaton acting on the embedded one-particle state, over all steps,
    sites and components. The init must keep its support inside the grid
    window for the whole run (the sparse lattice does not wrap).

    The field splits into two checkerboard copies, each a one-particle
    state of the automaton: copy A holds psi_plus on even sites and
    psi_minus on odd ones (right-movers on the left cells of even-anchored
    blocks) and steps even phase first; copy B holds the complement and
    steps odd phase first. Both stay packed (`pqca._Packed`) and are read
    back into a field after every step; anything outside the one-particle
    sector or the grid window counts as deviation by its modulus. The
    result is the same float, bit for bit, as stepping the copies as
    `SparseState`s with `pqca_step`.
    """
    if init.grid_size % 2 != 0:
        raise ValueError("crosscheck requires an even grid")
    stepper = _Stepper(Pqca(dirac_scattering_unitary(mass, eps)).scattering)
    sites = np.arange(init.grid_size)
    even = sites % 2 == 0
    ones = np.ones(init.grid_size, dtype=np.int64)
    copy_a = _one_cell_terms(sites[:, None], ones, np.where(even, init.psi_plus, init.psi_minus))
    copy_b = _one_cell_terms(sites[:, None], ones, np.where(even, init.psi_minus, init.psi_plus))
    f = init.copy()
    deviation = 0.0
    for s in range(steps):
        copy_a = stepper.step(copy_a, s % 2)
        copy_b = stepper.step(copy_b, 1 - s % 2)
        f = walk_step(f, mass, eps)
        pp = np.zeros(init.grid_size, dtype=np.complex128)
        pm = np.zeros(init.grid_size, dtype=np.complex128)
        parity = (s + 1) % 2
        leak = max(_read_copy(copy_a, pp, pm, parity), _read_copy(copy_b, pp, pm, 1 - parity))
        deviation = max(
            deviation,
            leak,
            float(np.max(np.abs(pp - f.psi_plus))),
            float(np.max(np.abs(pm - f.psi_minus))),
        )
    return deviation
