"""Reference constructions the tests compare the library against: the full
density matrix of a pure state, its partial trace, product states
assembled factor by factor, and the XOR signalling study through dense
matrices."""

import numpy as np

from qcalab.operators import DensityMatrix, op_at, reduced_density_from_vector, trace_distance
from qcalab.state import RingSpace
from qcalab.structure import F_SYM, T_SYM, SignallingReport, xor_lifted


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
