"""Bridge from nearest-neighbour Hamiltonians to the block automaton.

A two-cell Hermitian coupling h with h|00> = 0 generates a ring Hamiltonian
H = sum_x h_x (periodic). Exponentiating h over one time slice yields a
quiescence-preserving scattering unitary, so the even/odd split evolution
exp(-i dt H_o) exp(-i dt H_e) *is* a two-phase automaton step, and is built
as that automaton's composed step; the distance to the exact exp(-i dt H) is
the second-order splitting error measured here in spectral norm.

H and the split both commute with T^2, the translation by two cells, so
the error is taken block by block in T^2's momentum sectors: N/2 blocks of
about d^N / (N/2) rows each, read from the full-size matrices by one gather
and one FFT. A run over several dt shares one eigendecomposition of each
block of H: each exact block of exp(-i dt H) is its eigenvectors scaled by
the dt's phases, times their adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DenseOperator,
    _eigh_exp,
    hermitian_exp,
    hermiticity_defect,
    op_at,
    spectral_norm,
)
from .pqca import Pqca, ScatteringUnitary, apply_phase, composed_step_operator
from .state import RingSpace

QUIESCENT_ROW_TOL = 1e-12


@dataclass(frozen=True)
class TwoCellHamiltonian:
    """Hermitian coupling on two adjacent cells that annihilates |00>."""

    local_dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d2 = self.local_dim * self.local_dim
        if m.shape != (d2, d2):
            raise ValueError(f"coupling must be {d2}x{d2}, got {m.shape}")
        herm = hermiticity_defect(m)
        if herm > HERMITICITY_TOL:
            raise ValueError(f"coupling is not Hermitian: defect {herm:.3e}")
        quiet = float(np.linalg.norm(m[:, 0]))
        if quiet > QUIESCENT_ROW_TOL:
            raise ValueError(f"coupling does not annihilate |00>: norm {quiet:.3e}")
        object.__setattr__(self, "matrix", m)


def exchange_coupling(strength: float = 1.0, doubly_occupied_energy: float = 0.0) -> TwoCellHamiltonian:
    """The named qubit exchange instance: hopping between |01> and |10>,
    optional energy on |11>; |00> is annihilated by construction."""
    h = np.zeros((4, 4), dtype=np.complex128)
    h[1, 2] = h[2, 1] = strength
    h[3, 3] = doubly_occupied_energy
    return TwoCellHamiltonian(2, h)


def random_coupling(local_dim: int = 2, seed: int = 0) -> TwoCellHamiltonian:
    """Seeded generic coupling: symmetrized complex Gaussian matrix with the
    |00> row and column zeroed."""
    rng = np.random.default_rng(seed)
    d2 = local_dim * local_dim
    a = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    h = (a + a.conj().T) / 2.0
    h[0, :] = 0.0
    h[:, 0] = 0.0
    return TwoCellHamiltonian(local_dim, h)


@dataclass(frozen=True)
class GlobalHamiltonian:
    """H = sum_x h_x on a ring, split into even-x and odd-x parts."""

    total: DenseOperator = field(repr=False)
    even: DenseOperator = field(repr=False)
    odd: DenseOperator = field(repr=False)


def _coupling_terms(h: TwoCellHamiltonian, ring: RingSpace):
    """(x, h_x as a dense matrix) for x = 0..N-1, h_x on cells (x, x+1 mod N),
    one term alive at a time."""
    n, d = ring.cell_count, ring.local_dim
    if d != h.local_dim:
        raise ValueError("ring local dimension does not match the coupling")
    if n < 2 or n % 2 != 0:
        raise ValueError("ring must have an even number of cells, at least 2")
    return ((x, op_at(ring, (x, (x + 1) % n), h.matrix).matrix) for x in range(n))


def _ring_hamiltonian(h: TwoCellHamiltonian, ring: RingSpace) -> np.ndarray:
    """H = sum_x h_x alone, summed in increasing x as in
    `build_global_hamiltonian`, so the two totals are the same bits."""
    terms = _coupling_terms(h, ring)
    total = np.zeros((ring.dim, ring.dim), dtype=np.complex128)
    for _, term in terms:
        total += term
    return total


def build_global_hamiltonian(h: TwoCellHamiltonian, ring: RingSpace) -> GlobalHamiltonian:
    """Sum the coupling over all adjacent pairs with periodic wraparound.

    h_x acts on cells (x, x+1 mod N); the even part collects even x (the
    couplings inside even-anchored blocks), the odd part the rest.
    """
    terms = _coupling_terms(h, ring)
    total = np.zeros((ring.dim, ring.dim), dtype=np.complex128)
    parts = [np.zeros_like(total), np.zeros_like(total)]
    for x, term in terms:
        total += term
        parts[x % 2] += term
    return GlobalHamiltonian(
        DenseOperator(ring, total), DenseOperator(ring, parts[0]), DenseOperator(ring, parts[1])
    )


def trotter_pqca(h: TwoCellHamiltonian, dt: float) -> Pqca:
    """The automaton induced by one time slice: scattering unitary
    exp(-i dt h). Quiescence holds automatically because h|00> = 0."""
    u = hermitian_exp(h.matrix, dt)
    return Pqca(ScatteringUnitary(h.local_dim, 1, u))


def _pair_shift_orbits(ring: RingSpace):
    """The orbits of T^2, the translation by two cells (one supercell of
    `regroup_pairs`), on the basis words: each orbit's smallest word r_o,
    its size p_o, and images[o, m], the index of T^(2m) r_o for m < N/2.
    T^2 moves the contents of cells 0 and 1, the two most significant
    digits, to cells N-2 and N-1: a rotation of the index's digits."""
    q, pair = ring.cell_count // 2, ring.local_dim**2
    rest = ring.dim // pair

    def shift(w):
        return w % rest * pair + w // rest

    words = np.arange(ring.dim)
    lowest, image = words.copy(), words
    for _ in range(q - 1):
        image = shift(image)
        np.minimum(lowest, image, out=lowest)
    reps = np.flatnonzero(lowest == words)
    images = np.empty((len(reps), q), dtype=reps.dtype)
    images[:, 0] = reps
    for m in range(1, q):
        images[:, m] = shift(images[:, m - 1])
    sizes = q // np.count_nonzero(images == reps[:, None], axis=1)
    return reps, sizes, images


def _sector_blocks(x: np.ndarray, orbits) -> list:
    """The blocks of x, which commutes with T^2, in T^2's momentum sectors
    k = 0 .. N/2 - 1:

        X_k[o, o'] = sqrt(p_o p_o') ifft_m(x[r_o, T^(2m) r_o'])[k]

    over the orbits o, o' whose sizes p have k p = 0 (mod N/2). That is one
    gather of R x R x N/2 entries (R orbits) and one FFT; no Fourier matrix
    and no full-size product is made."""
    reps, sizes, images = orbits
    q = images.shape[1]
    coeffs = np.fft.ifft(x[reps][:, images], axis=2)
    coeffs *= np.sqrt(np.outer(sizes, sizes))[:, :, None]
    blocks = []
    for k in range(q):
        keep = np.flatnonzero(k * sizes % q == 0)
        blocks.append(coeffs[keep[:, None], keep, k])
    return blocks


def splitting_error(h: TwoCellHamiltonian, ring: RingSpace, dts) -> list:
    """Spectral-norm distance between exp(-i dt H) and the even/odd split
    exp(-i dt H_o) exp(-i dt H_e), built as the composed step of
    `trotter_pqca(h, dt)`, for each dt of `dts` in order. Second order in
    dt; zero when the parts commute.

    Both operators commute with T^2, so their difference is block-diagonal
    in T^2's momentum sectors and its norm is the largest of the blocks'.
    H is built once, refused unless Hermitian, and each of its blocks is
    eigendecomposed once, for all the dts together. Each dt then builds its
    split, takes that split's blocks, and compares each with the block's
    eigenvectors scaled by the dt's phases, times their adjoint. Each error
    is the same float as a call with that dt alone, and within 1e-13 of the
    full-size difference's norm while dt * N * ||h|| is under about 1000."""
    total = _ring_hamiltonian(h, ring)
    defect = hermiticity_defect(total)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    orbits = _pair_shift_orbits(ring)
    sectors = [np.linalg.eigh(block) for block in _sector_blocks(total, orbits)]
    del total  # only the blocks' eigenvectors are kept from one dt to the next

    def error(dt):
        split = composed_step_operator(trotter_pqca(h, dt), ring).matrix
        blocks = _sector_blocks(split, orbits)
        return max(spectral_norm(_eigh_exp(w, v, dt) - b) for (w, v), b in zip(sectors, blocks))

    return [error(dt) for dt in dts]


def trotter_vs_pqca_crosscheck(
    h: TwoCellHamiltonian, ring: RingSpace, dt: float, steps: int, init: np.ndarray
) -> float:
    """Max deviation between the automaton's alternating phases
    (`apply_phase`) and the split exponentials applied to `init`: the same
    maps built two ways, so the deviation is floating-point accumulation only."""
    v = np.asarray(init, dtype=np.complex128)
    if v.shape != (ring.dim,):
        raise ValueError(f"init length {v.shape} does not match ring dimension {ring.dim}")
    pq = trotter_pqca(h, dt)
    parts = build_global_hamiltonian(h, ring)
    split = (hermitian_exp(parts.even.matrix, dt), hermitian_exp(parts.odd.matrix, dt))
    va = vb = v
    deviation = 0.0
    for s in range(steps):
        va = apply_phase(va, pq, ring, ("even", "odd")[s % 2])
        vb = split[s % 2] @ vb
        deviation = max(deviation, float(np.max(np.abs(va - vb))))
    return deviation

