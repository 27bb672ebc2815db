"""Reference constructions the tests compare the library against: the full
density matrix of a pure state, its partial trace, product states
assembled factor by factor, the XOR rule and its lifting one word at a
time, the XOR signalling study through dense matrices, the causality of a basis permutation through its dense 0/1
matrix, and the Trotter splitting error from full-size matrices with the
dense momentum basis that block-diagonalizes them."""

import itertools

import numpy as np

from qcalab.operators import (
    DenseOperator,
    DensityMatrix,
    _eigh_exp,
    _hermitian_eigh,
    op_at,
    reduced_density_from_vector,
    spectral_norm,
    trace_distance,
)
from qcalab.pqca import composed_step_operator
from qcalab.state import RingSpace
from qcalab.structure import EMPTY, F_SYM, T_SYM, SignallingReport, causality_check, xor_lifted, xor_plus
from qcalab.trotter import TwoCellHamiltonian, _coupling_terms, trotter_pqca


def density_from_vector(vector: np.ndarray, ring: RingSpace) -> DensityMatrix:
    v = np.asarray(vector, dtype=np.complex128)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector has no density matrix")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()), tuple(range(ring.cell_count)), ring.local_dim)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the cell subset `keep` (labels, kept in
    ascending order). Empty subset reduces to the 1x1 matrix [trace]."""
    keep = tuple(sorted(keep))
    labels = rho.cells
    if any(k not in labels for k in keep):
        raise ValueError(f"keep set {keep} not contained in cells {labels}")
    n = len(labels)
    d = rho.local_dim
    if not keep:
        return DensityMatrix(np.array([[np.trace(rho.matrix)]]), (), d)
    positions = [labels.index(k) for k in keep]
    t = rho.matrix.reshape([d] * (2 * n))
    subs = list(range(n))
    subs += [n + i if i in positions else i for i in range(n)]
    out = positions + [n + i for i in positions]
    reduced = np.einsum(t, subs, out)
    dk = d ** len(keep)
    return DensityMatrix(reduced.reshape(dk, dk), keep, d)


def tensor_state(ring: RingSpace, factors) -> np.ndarray:
    """Assemble a full-register vector from factors on disjoint cell groups.

    `factors` is a list of (cells, vector) pairs whose cell groups partition
    the register; each vector is indexed mixed-radix over its own cells.
    """
    d = ring.local_dim
    cells_order = []
    full = np.array([1.0 + 0.0j])
    for cells, vec in factors:
        cells = tuple(cells)
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (d ** len(cells),):
            raise ValueError(f"factor on cells {cells} has wrong length {vec.shape}")
        cells_order.extend(cells)
        full = np.kron(full, vec)
    if sorted(cells_order) != list(range(ring.cell_count)):
        raise ValueError(f"factors do not partition the register: {sorted(cells_order)}")
    src = [cells_order.index(c) for c in range(ring.cell_count)]
    return full.reshape([d] * ring.cell_count).transpose(src).reshape(-1)


def xor_word_step(symbols: tuple) -> tuple:
    """The XOR rule on one window word, symbol by symbol with `xor_plus`."""
    n = len(symbols)
    return tuple(xor_plus(symbols[i], symbols[i + 1] if i + 1 < n else EMPTY) for i in range(n))


def word_by_word_lift(step, window_length: int, alphabet_size: int = 3) -> np.ndarray:
    """The index map of a word step, one word (a tuple) at a time."""
    d = alphabet_size
    image = np.empty(d**window_length, dtype=np.intp)
    for index, word in enumerate(itertools.product(range(d), repeat=window_length)):
        target = 0
        for s in step(word):
            target = target * d + s
        image[index] = target
    return image


def dense_signalling_demo(length: int) -> SignallingReport:
    """`structure.signalling_demo` as it was built from dense matrices: the
    lifted step is the 0/1 matrix `xor_lifted(length)` times each state,
    and the sender's phase flip is Z = diag(1, -1, 1) placed on cell 0 by
    `op_at`, times c+."""
    if length < 3:
        raise ValueError("signalling demo needs a word of length >= 3")
    f_hat = xor_lifted(length)
    ring = f_hat.ring
    c_plus = np.zeros(ring.dim, dtype=np.complex128)
    c_minus = np.zeros(ring.dim, dtype=np.complex128)
    idx_f = ring.index_of((F_SYM,) * length)
    idx_t = ring.index_of((T_SYM,) * length)
    c_plus[idx_f] = c_plus[idx_t] = 1.0 / np.sqrt(2.0)
    c_minus[idx_f] = 1.0 / np.sqrt(2.0)
    c_minus[idx_t] = -1.0 / np.sqrt(2.0)
    bob = (length - 1,)
    before = trace_distance(
        reduced_density_from_vector(c_plus, ring, bob),
        reduced_density_from_vector(c_minus, ring, bob),
    )
    after = trace_distance(
        reduced_density_from_vector(f_hat.matrix @ c_plus, ring, bob),
        reduced_density_from_vector(f_hat.matrix @ c_minus, ring, bob),
    )
    z_alice = op_at(ring, (0,), np.diag([1.0, -1.0, 1.0]).astype(np.complex128))
    phase_flip_defect = float(np.max(np.abs(z_alice.matrix @ c_plus - c_minus)))
    return SignallingReport(length, before, after, phase_flip_defect)


def permutation_matrix(image: np.ndarray, cells: int, local_dim: int) -> DenseOperator:
    """The 0/1 matrix of |w> -> |image[w]> on `cells` cells of `local_dim` levels."""
    matrix = np.zeros((len(image), len(image)), dtype=np.complex128)
    matrix[image, np.arange(len(image))] = 1.0
    return DenseOperator(RingSpace(cells, local_dim), matrix)


def dense_permutation_causality(image, cells, local_dim, neighbourhood, *, periodic=True):
    """`structure.permutation_causality` as the dense check on the 0/1 matrix."""
    g = permutation_matrix(image, cells, local_dim)
    return causality_check(g, neighbourhood, periodic=periodic)


def _ring_hamiltonian(h: TwoCellHamiltonian, ring: RingSpace) -> np.ndarray:
    """H = sum_x h_x alone, summed in increasing x as in
    `build_global_hamiltonian`, so the two totals are the same bits."""
    terms = _coupling_terms(h, ring)
    total = np.zeros((ring.dim, ring.dim), dtype=np.complex128)
    for _, term in terms:
        total += term
    return total


def dense_splitting_error(h: TwoCellHamiltonian, ring: RingSpace, dts) -> list:
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


def momentum_basis(ring: RingSpace):
    """Dense unitary F whose columns are the momentum states of T^2, the
    translation that moves the content of cell i+2 to cell i, and the sizes
    of its sectors. Orbits are walked symbol tuple by symbol tuple. The
    state of momentum k on the orbit of smallest word r and size p is
    p^(-1/2) sum_{j<p} e^(2 pi i k j / q) |T^(2j) r>, q = N/2, and it exists
    when k p = 0 (mod q). Columns run through the sectors k = 0 .. q-1 in
    turn, each in the order of the orbits' smallest words."""
    q = ring.cell_count // 2
    orbits = []
    for word in range(ring.dim):
        orbit, symbols = [word], ring.symbols_of(word)
        while True:
            symbols = symbols[2:] + symbols[:2]
            image = ring.index_of(symbols)
            if image == word:
                break
            orbit.append(image)
        if min(orbit) == word:
            orbits.append(orbit)
    columns, sizes = [], []
    for k in range(q):
        sector = [orbit for orbit in orbits if k * len(orbit) % q == 0]
        for orbit in sector:
            column = np.zeros(ring.dim, dtype=np.complex128)
            column[orbit] = np.exp(2j * np.pi * k * np.arange(len(orbit)) / q) / np.sqrt(len(orbit))
            columns.append(column)
        sizes.append(len(sector))
    return np.array(columns).T, sizes
