"""Bridge from nearest-neighbour Hamiltonians to the block automaton.

A two-cell Hermitian coupling h with h|00> = 0 generates a ring Hamiltonian
H = sum_x h_x (periodic). Exponentiating h over one time slice yields a
quiescence-preserving scattering unitary, so the even/odd split evolution
exp(-i dt H_o) exp(-i dt H_e) *is* a two-phase automaton step, and is built
as that automaton's composed step; the distance to the exact exp(-i dt H) is
the second-order splitting error measured here in spectral norm. A run over
several dt shares one eigendecomposition of H: each exact exp(-i dt H) is
its eigenvectors scaled by the dt's phases, times their adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DenseOperator,
    _eigh_exp,
    _hermitian_eigh,
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


def splitting_error(h: TwoCellHamiltonian, ring: RingSpace, dts) -> list:
    """Spectral-norm distance between exp(-i dt H) and the even/odd split
    exp(-i dt H_o) exp(-i dt H_e), built as the composed step of
    `trotter_pqca(h, dt)`, for each dt of `dts` in order. Second order in
    dt; zero when the parts commute.

    H is built and eigendecomposed once, for all the dts together. Each
    exact exponential is then the scale-and-product step of `hermitian_exp`
    on those eigenvectors, so each error is the same float as a call with
    that dt alone. The eigenvectors are the one full-size array kept from one dt to
    the next; each dt's split is built before its exact exponential."""
    w, v = _hermitian_eigh(_ring_hamiltonian(h, ring))

    def error(dt):
        # the split's and the difference's arrays die with this frame
        split = composed_step_operator(trotter_pqca(h, dt), ring).matrix
        diff = _eigh_exp(w, v, dt)
        diff -= split
        del split
        return spectral_norm(diff)

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

