"""Bridge from nearest-neighbour Hamiltonians to the block automaton.

A two-cell Hermitian coupling h with h|00> = 0 generates a ring Hamiltonian
H = sum_x h_x (periodic). Exponentiating h over one time slice yields a
quiescence-preserving scattering unitary, so the even/odd split evolution
exp(-i dt H_o) exp(-i dt H_e) *is* a two-phase automaton step, and is built
as that automaton's composed step; the distance to the exact exp(-i dt H) is
the second-order splitting error measured here in spectral norm.

H and the split both commute with T^2, the translation by two cells, so
the error is taken block by block in T^2's momentum sectors: N/2 blocks of
about d^N / (N/2) rows each. The blocks are read by one gather and one FFT
from the operators' rows at T^2's orbit representatives, about d^N / (N/2)
of them, and only those rows are built: H's from the coupling's rows, the
split's by applying the transposed phases to one-hot columns. No d^N x d^N
matrix is made. A run over several dt shares one eigendecomposition of
each block of H: each exact block of exp(-i dt H) is its eigenvectors
scaled by the dt's phases, times their adjoint.
"""

from __future__ import annotations

import functools
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
from .pqca import Pqca, ScatteringUnitary, apply_phase
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


def _check_ring(h: TwoCellHamiltonian, ring: RingSpace):
    if ring.local_dim != h.local_dim:
        raise ValueError("ring local dimension does not match the coupling")
    if ring.cell_count < 2 or ring.cell_count % 2 != 0:
        raise ValueError("ring must have an even number of cells, at least 2")


def _coupling_terms(h: TwoCellHamiltonian, ring: RingSpace):
    """(x, h_x as a dense matrix) for x = 0..N-1, h_x on cells (x, x+1 mod N),
    one term alive at a time."""
    _check_ring(h, ring)
    n = ring.cell_count
    return ((x, op_at(ring, (x, (x + 1) % n), h.matrix).matrix) for x in range(n))


def _hamiltonian_rows(h: TwoCellHamiltonian, ring: RingSpace, words: np.ndarray) -> np.ndarray:
    """The rows of H = sum_x h_x at the basis words `words`, summed from
    zero in increasing x as `build_global_hamiltonian` sums its full-size
    total, so they are the same bits as that total's rows. Row w of h_x
    holds row a of h, a the digits of w at cells (x, x+1 mod N), at the d^2
    words that agree with w off those two cells; every other entry of h_x
    is a zero, which adds nothing."""
    _check_ring(h, ring)
    n, d = ring.cell_count, ring.local_dim
    weights = d ** np.arange(n - 1, -1, -1)
    digits = words[:, None] // weights % d
    high, low = np.divmod(np.arange(d * d), d)
    rows = np.zeros((len(words), ring.dim), dtype=np.complex128)
    at = np.arange(len(words))[:, None]
    for x in range(n):
        y = (x + 1) % n
        rest = words - digits[:, x] * weights[x] - digits[:, y] * weights[y]
        columns = rest[:, None] + high * weights[x] + low * weights[y]
        rows[at, columns] += h.matrix[digits[:, x] * d + digits[:, y]]
    return rows


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


def _split_rows(u: np.ndarray, ring: RingSpace, words: np.ndarray) -> np.ndarray:
    """The rows at the basis words `words` of the composed step U_o U_e of
    the two-cell scattering unitary u on the ring, with no full-size matrix:
    (U_o U_e)[words] = (U_e^T U_o^T E)^T, E the one-hot columns at `words`.

    U_e^T applies u^T on each block axis of a column, the block-axis
    reshape of `pqca.apply_phase`: one `matmul` per block, written into a
    second buffer of E's size, the two buffers taking turns. With Q the
    rotation of a word's digits by one cell (w_0 w_1 ... w_N-1 to w_1 ...
    w_N-1 w_0), U_o[a, c] = U_e[Q a, Q c]: U_o^T E is U_e^T on the one-hot
    columns at Q `words`, its rows then taken at Q a."""
    n, d = ring.cell_count, ring.local_dim
    rest = ring.dim // d
    x = np.zeros((ring.dim, len(words)), dtype=np.complex128)
    x[words % rest * d + words // rest, np.arange(len(words))] = 1.0
    y = np.empty_like(x)

    def even(x, y):
        for k in range(n // 2):
            shape = (d ** (2 * k), d * d, -1)
            np.matmul(u.T, x.reshape(shape), out=y.reshape(shape))
            x, y = y, x
        return x, y

    x, y = even(x, y)
    np.copyto(y.reshape(d, rest, -1), x.reshape(rest, d, -1).transpose(1, 0, 2))
    return even(y, x)[0].T


def _sector_blocks(rows_at, orbits) -> list:
    """The blocks of an operator x that commutes with T^2, in T^2's
    momentum sectors k = 0 .. N/2 - 1, from x's rows at the orbit
    representatives r_o alone:

        X_k[o, o'] = sqrt(p_o p_o') ifft_m(x[r_o, T^(2m) r_o'])[k]

    over the orbits o, o' whose sizes p have k p = 0 (mod N/2). `rows_at`
    builds x's rows at given basis words; it is asked for the R
    representatives' rows (R orbits), which are gathered to R x R x N/2
    entries and dropped. The entries are Fourier transformed in place, a
    half at a time, so the transform's output never adds a second array of
    their size. No Fourier matrix and no full-size product is made."""
    reps, sizes, images = orbits
    q = images.shape[1]
    coeffs = rows_at(reps)[:, images]
    half = -(-len(reps) // 2)
    for part in (slice(None, half), slice(half, None)):
        coeffs[part] = np.fft.ifft(coeffs[part], axis=2)
    blocks = []
    for k in range(q):
        keep = np.flatnonzero(k * sizes % q == 0)
        block = coeffs[keep[:, None], keep, k]
        block *= np.sqrt(np.outer(sizes[keep], sizes[keep]))
        blocks.append(block)
    return blocks


def _sector_hermiticity_defect(blocks) -> float:
    """sqrt(sum_k ||X_k - X_k^dag||_F^2) over an operator's sector blocks:
    ||X - X^dag||_F, since the sector basis is unitary."""
    return float(np.linalg.norm([hermiticity_defect(b) for b in blocks]))


def splitting_error(h: TwoCellHamiltonian, ring: RingSpace, dts) -> list:
    """Spectral-norm distance between exp(-i dt H) and the even/odd split
    exp(-i dt H_o) exp(-i dt H_e), the composed step of `trotter_pqca(h,
    dt)`, for each dt of `dts` in order. Second order in dt; zero when the
    parts commute.

    Both operators commute with T^2, so their difference is block-diagonal
    in T^2's momentum sectors and its norm is the largest of the blocks'.
    The blocks need only the operators' rows at T^2's orbit
    representatives, about d^N / (N/2) of them, and only those rows are
    built: no d^N x d^N array is made. H's blocks are refused unless
    Hermitian together, sqrt(sum_k ||H_k - H_k^dag||_F^2) within
    HERMITICITY_TOL; the sector basis is unitary, so that is
    ||H - H^dag||_F. Each block is eigendecomposed once, for all the dts
    together. Each dt then builds its split's rows, takes their blocks,
    and compares each with the block's eigenvectors scaled by the dt's
    phases, times their adjoint. Each error is the same float as a call
    with that dt alone, and within 1e-13 of the full-size difference's norm
    while dt * N * ||h|| is under about 1000."""
    orbits = _pair_shift_orbits(ring)
    blocks = _sector_blocks(functools.partial(_hamiltonian_rows, h, ring), orbits)
    defect = _sector_hermiticity_defect(blocks)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    sectors = [np.linalg.eigh(b) for b in blocks]
    del blocks  # only the blocks' eigenvectors are kept from one dt to the next

    def error(dt):
        u = trotter_pqca(h, dt).scattering.matrix
        split = _sector_blocks(functools.partial(_split_rows, u, ring), orbits)
        return max(spectral_norm(_eigh_exp(w, v, dt) - b) for (w, v), b in zip(sectors, split))

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

