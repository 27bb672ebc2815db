"""Dense operators on a finite cell register: reduced states,
minimal-support extraction, Hermitian exponentials and trace distance.
Everything is plain numpy; sizes are capped by RingSpace.

`op_at` places a local matrix on cells S of a register, identity
elsewhere, as one dense matrix: ring Hamiltonian terms, block phases on
rotated cells, commutators on a few subcells, right-subcell extensions.
Tensor powers over adjacent cells are `np.kron` chains, and a phase map on
vectors (`pqca.apply_phase`) is applied without any matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .state import RingSpace

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class DenseOperator:
    """Complex square matrix over the full Hilbert space of a cell register."""

    ring: RingSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] != self.ring.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match ring dimension {self.ring.dim}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.ring.dim


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a cell subset."""

    matrix: np.ndarray = field(repr=False)
    cells: tuple = ()
    local_dim: int = 2

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        herm = hermiticity_defect(m)
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1")
        low = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
        if low < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def identity_operator(ring: RingSpace) -> DenseOperator:
    return DenseOperator(ring, np.eye(ring.dim, dtype=np.complex128))


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m^dag m - I."""
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m - m^dag."""
    return float(np.linalg.norm(m - m.conj().T))


def reduced_density_from_vector(vector: np.ndarray, ring: RingSpace, keep) -> DensityMatrix:
    """Reduced state of a pure state on the cell subset `keep`, contracted
    directly from the vector (no full density matrix is materialized)."""
    keep = tuple(sorted(keep))
    n, d = ring.cell_count, ring.local_dim
    v = np.asarray(vector, dtype=np.complex128)
    if v.shape != (ring.dim,):
        raise ValueError(f"vector length {v.shape} does not match ring dimension {ring.dim}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector has no reduced state")
    v = v / norm
    if not keep:
        return DensityMatrix(np.array([[1.0 + 0.0j]]), (), d)
    if any(not (0 <= k < n) for k in keep):
        raise ValueError(f"keep set {keep} outside cells 0..{n - 1}")
    t = v.reshape([d] * n)
    order = [i for i in range(n) if i not in keep] + list(keep)
    dk = d ** len(keep)
    flat = t.transpose(order).reshape(-1, dk)
    return DensityMatrix(flat.T @ flat.conj(), keep, d)


def _digit_matrix(n: int, d: int) -> np.ndarray:
    """d^n x (n d) 0/1 matrix whose column x d + k marks the basis states
    with symbol k at cell x (cell 0 is the most significant digit)."""
    digits = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
    return (digits[:, :, None] == np.arange(d)).reshape(d**n, n * d).astype(np.float64)


def support_of(op: DenseOperator, tol: float = SUPPORT_TOL) -> tuple:
    """Minimal cell set outside of which `op` acts as the identity.

    A cell belongs to the support iff some commutator of `op` with a matrix
    unit E_ij at that cell has Frobenius norm above `tol`. Over the cell's
    d x d blocks B_kl of `op`,

        ||[op, E_ij]||^2 = ||B_ii - B_jj||^2
                           + sum_{k != i} ||B_ki||^2 + sum_{l != j} ||B_jl||^2.

    Every cell's table of block norms ||B_kl||^2 comes from one product:
    with the digit matrix P (column (x, k) marks the basis states with
    symbol k at cell x), P^T |op|^2 P holds cell x's table as its diagonal
    d x d block (x, x). The two sums off the diagonal add only entries of
    off-diagonal blocks, all nonnegative, so they keep their relative
    accuracy. Taking them as a row or column total minus the diagonal block
    would not: that block's squared norm grows like dim/d, and any leak
    below its ulp cancels away. The differences B_ii - B_jj, needed only
    where the off-diagonal mass is below the bound, subtract two strided
    views of `op`. So commutator norms are resolved down to `tol` at any
    dim, and no per-cell copy of `op` is made.
    """
    n, d = op.ring.cell_count, op.ring.local_dim
    m = np.ascontiguousarray(op.matrix)
    pairs = m.view(np.float64).reshape(m.shape + (2,))
    sq = np.einsum("ijk,ijk->ij", pairs, pairs)
    p = _digit_matrix(n, d)
    tables = (p.T @ (sq @ p)).reshape(n, d, n, d)
    cells = np.arange(n)
    off_sq = tables[cells, :, cells, :]  # off_sq[x, k, l] = ||B_kl||^2 at cell x
    off_sq[:, range(d), range(d)] = 0.0
    # off[x, i, j]: the two sums over blocks off the diagonal
    off = off_sq.sum(axis=1)[:, :, None] + off_sq.sum(axis=2)[:, None, :]
    bound = tol * tol
    support = []
    for cell in range(n):
        shape = (d**cell, d, d ** (n - cell - 1))
        blocks = m.reshape(shape + shape)  # B_kl is blocks[:, k, :, :, l]
        if np.any(off[cell] > bound) or any(
            np.linalg.norm(blocks[:, i, :, :, i] - blocks[:, j, :, :, j]) ** 2
            + max(off[cell, i, j], off[cell, j, i])
            > bound
            for i, j in itertools.combinations(range(d), 2)
        ):
            support.append(cell)
    return tuple(support)


def _hermitian_eigh(h: np.ndarray):
    """Eigenvalues and eigenvectors of h, refused unless h is Hermitian."""
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return np.linalg.eigh(h)


def _eigh_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) from h's eigendecomposition (w, v): v scaled by the
    phases, times v^dag. v is conjugated in place for the product and back
    after, which is exact, so no conjugated copy is made and v is left as
    it was for the next t."""
    scaled = v * np.exp(-1j * t * w)
    out = scaled @ np.conjugate(v, out=v).T
    np.conjugate(v, out=v)
    return out


def hermitian_exp(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i t h) for the Hermitian matrix h, via eigendecomposition."""
    return _eigh_exp(*_hermitian_eigh(h), t)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma, clamped to
    [0, 1]: for orthogonal states the rounded sum can exceed 1 by an ulp."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("density matrix dimension mismatch")
    diff = rho.matrix - sigma.matrix
    half = 0.5 * np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)))
    return min(float(half), 1.0)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD)."""
    return float(np.linalg.norm(m, 2))


def op_at(ring: RingSpace, cells, local: np.ndarray) -> DenseOperator:
    """`local` on the ordered cells `cells`, identity on every other cell.

    `local` is d^k x d^k for k distinct cells; its first tensor factor sits
    on cells[0] (most significant), its last on cells[-1]. The result is
    written in place through a transposed 2n-axis view of one dim x dim
    array, so nothing else of full size is allocated.
    """
    n, d = ring.cell_count, ring.local_dim
    cells = tuple(int(c) for c in cells)
    k = len(cells)
    if len(set(cells)) != k:
        raise ValueError(f"cells {cells} are not distinct")
    if any(not (0 <= c < n) for c in cells):
        raise ValueError(f"cells {cells} outside ring of {n} cells")
    local = np.asarray(local, dtype=np.complex128)
    if local.shape != (d**k, d**k):
        raise ValueError(f"local matrix must be {d**k}x{d**k} for {k} cells, got {local.shape}")
    rest = [c for c in range(n) if c not in cells]
    r = n - k
    out = np.empty((ring.dim, ring.dim), dtype=np.complex128)
    # axes of `view`: rows of cells, rows of rest, columns of cells, columns of rest
    order = [*cells, *rest]
    view = out.reshape([d] * (2 * n)).transpose(order + [n + c for c in order])
    np.multiply(
        local.reshape([d] * k + [1] * r + [d] * k + [1] * r),
        np.eye(d**r).reshape([1] * k + [d] * r + [1] * k + [d] * r),
        out=view,
    )
    return DenseOperator(ring, out)


def translation_operator(ring: RingSpace) -> DenseOperator:
    """One-cell cyclic translation: content of cell i+1 moves to cell i."""
    dim = ring.dim
    p = np.zeros((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        symbols = ring.symbols_of(idx)
        rotated = symbols[1:] + symbols[:1]
        p[ring.index_of(rotated), idx] = 1.0
    return DenseOperator(ring, p)
