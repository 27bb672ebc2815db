"""Reference constructions the tests compare the library against: the full
density matrix of a pure state, its partial trace, and product states
assembled factor by factor."""

import numpy as np

from qcalab.operators import DensityMatrix
from qcalab.state import RingSpace


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
