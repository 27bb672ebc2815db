"""Partitioned-automaton stepper.

One scattering unitary acts synchronously on a staggered block partition:
blocks anchored at even coordinates on even steps, shifted by (1,...,1) on
odd steps (step count starts at 0 = even). The sparse backend materializes
only blocks that touch occupied cells, which is exact because the
scattering unitary fixes the all-empty block state; the dense backend
builds the same phase map as a matrix on a periodic ring, the odd phase
being the even one placed on the cells rotated by one.

The sparse step expands each term into branches, one per choice of output
column entry in each of its blocks, and sums the branches that reach the
same configuration. The sum is keyed on the plain sorted cell tuple, which
hashes and compares in C, and one `Configuration` is built per distinct
output only. The sum is Kahan-compensated, starting from 0j, in the order
the branches arise (terms in insertion order, blocks by ascending anchor,
column entries by row). That order and the arithmetic
`y = a - comp; t = s + y; comp = (t - s) - y` fix every bit of the output
amplitudes, signed zeros included; reordering them changes the last bits
and the printed digits of studies built on this stepper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .operators import DenseOperator, op_at, unitarity_defect
from .state import MAX_DENSE_DIM, PRUNE_THRESHOLD, Configuration, RingSpace, SparseState

QUIESCENCE_TOL = 1e-10


@dataclass(frozen=True)
class ScatteringUnitary:
    """Block unitary over a hypercube of 2^n cells with local dimension d.

    Basis convention for n = 1: index d*a + b where a is the symbol of the
    block's left cell and b the right cell (left cell most significant); for
    general n the block's cells are the offsets {0,1}^n in lexicographic
    order, first offset most significant. Unitarity is enforced here;
    quiescence preservation is measured by `check_quiescence` and enforced
    when the unitary is wrapped into a `Pqca`.
    """

    alphabet_size: int
    dimension: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        m = np.asarray(self.matrix, dtype=np.complex128)
        expected = self.alphabet_size ** (2**self.dimension)
        if m.shape != (expected, expected):
            raise ValueError(f"scattering matrix must be {expected}x{expected}, got {m.shape}")
        defect = unitarity_defect(m)
        if defect > 1e-10:
            raise ValueError(f"scattering matrix is not unitary: defect {defect:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def block_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def block_offsets(self) -> tuple:
        return tuple(itertools.product((0, 1), repeat=self.dimension))


def check_quiescence(u: ScatteringUnitary) -> float:
    """Norm of U|0...0> - |0...0>."""
    col = u.matrix[:, 0].copy()
    col[0] -= 1.0
    return float(np.linalg.norm(col))


@dataclass(frozen=True)
class Pqca:
    """A scattering unitary with the staggered two-phase stepping convention.

    Construction rejects unitaries whose quiescence defect exceeds
    `QUIESCENCE_TOL`: without a fixed empty block the sparse support would
    grow unboundedly.
    """

    scattering: ScatteringUnitary

    def __post_init__(self):
        defect = check_quiescence(self.scattering)
        if defect > QUIESCENCE_TOL:
            raise ValueError(f"scattering unitary does not preserve quiescence: defect {defect:.3e}")


def _block_anchor(point, parity: int) -> tuple:
    return tuple(p - ((p - parity) % 2) for p in point)


def pqca_step(state: SparseState, pqca: Pqca, phase: str) -> SparseState:
    """Apply the scattering unitary on every block of one phase's partition.

    Only blocks intersecting the support of some term are materialized; all
    other blocks are fixed by quiescence preservation. Support grows by at
    most one cell per axis per step and the norm is preserved within 1e-12.
    """
    if phase not in ("even", "odd"):
        raise ValueError(f"phase must be 'even' or 'odd', got {phase!r}")
    u = pqca.scattering
    if state.alphabet.size != u.alphabet_size or state.dimension != u.dimension:
        raise ValueError("state alphabet/dimension does not match the scattering unitary")
    parity = 0 if phase == "even" else 1
    d = u.alphabet_size
    offsets = u.block_offsets
    ncells = len(offsets)
    matrix = u.matrix
    dimension = state.dimension
    # per-column decode of the scattering matrix, shared by every block
    column_outs = []
    for idx in range(u.block_dim):
        column = matrix[:, idx]
        outs = []
        for row in np.nonzero(np.abs(column) > PRUNE_THRESHOLD)[0]:
            rest = int(row)
            symbols = []
            for _ in range(ncells):
                rest, s = divmod(rest, d)
                symbols.append(s)
            symbols.reverse()
            outs.append((tuple(symbols), complex(column[row])))
        column_outs.append(outs)
    # sorted cell tuple -> [sum, compensation]
    acc: dict = {}
    for config, amp in state.terms.items():
        occupied = dict(config.cells)
        if dimension == 1:
            anchors = sorted({p[0] - ((p[0] - parity) % 2) for p in occupied})
        else:
            anchors = sorted({_block_anchor(p, parity) for p in occupied})
        branches = [((), amp)]
        for anchor in anchors:
            # this block's output fragments: its occupied cells and coefficient
            if dimension == 1:
                left, right = (anchor,), (anchor + 1,)
                idx = d * occupied.get(left, 0) + occupied.get(right, 0)
                fragments = [
                    ((((left, s0),) if s0 else ()) + (((right, s1),) if s1 else ()), coef)
                    for (s0, s1), coef in column_outs[idx]
                ]
            else:
                block_cells = [tuple(a + o for a, o in zip(anchor, off)) for off in offsets]
                idx = 0
                for cell in block_cells:
                    idx = idx * d + occupied.get(cell, 0)
                fragments = [
                    (tuple((cell, s) for cell, s in zip(block_cells, symbols) if s), coef)
                    for symbols, coef in column_outs[idx]
                ]
            branches = [
                (cells + add, a * coef) for cells, a in branches for add, coef in fragments
            ]
        if dimension != 1:
            # ascending anchors and in-block offsets keep only 1D cells sorted
            branches = [(tuple(sorted(cells)), a) for cells, a in branches]
        for cells, a in branches:
            pair = acc.get(cells)
            if pair is None:
                pair = acc[cells] = [0j, 0j]
            s, comp = pair
            y = a - comp
            t = s + y
            pair[0] = t
            pair[1] = (t - s) - y
    terms = {
        Configuration._from_sorted(dimension, cells): s
        for cells, (s, _) in acc.items()
        if abs(s) > PRUNE_THRESHOLD
    }
    return SparseState._from_checked(state.alphabet, dimension, terms)


def pqca_evolve(
    state: SparseState, pqca: Pqca, steps: int, start_phase: str = "even"
) -> SparseState:
    """Alternate even/odd phases for `steps` steps (even first by default)."""
    flip = {"even": "odd", "odd": "even"}
    if start_phase not in flip:
        raise ValueError(f"start_phase must be 'even' or 'odd', got {start_phase!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    phase = start_phase
    for _ in range(steps):
        state = pqca_step(state, pqca, phase)
        phase = flip[phase]
    return state


def pqca_as_ring_operator(pqca: Pqca, ring: RingSpace, phase: str) -> DenseOperator:
    """Dense matrix of one phase map on a periodic ring (even cell count).

    The even phase is the plain tensor power of the scattering unitary over
    blocks (0,1), (2,3), ...; the odd phase is that same operator placed on
    the rotated cells (1, 2, ..., N-1, 0), which puts its blocks at (1,2),
    ..., (N-1,0).
    """
    u = pqca.scattering
    if u.dimension != 1:
        raise ValueError("ring operators are defined for 1D automata")
    if ring.local_dim != u.alphabet_size:
        raise ValueError("ring local dimension does not match the scattering unitary")
    if ring.cell_count % 2 != 0:
        raise ValueError(f"ring size {ring.cell_count} is odd; blocks cannot tile both phases")
    if phase not in ("even", "odd"):
        raise ValueError(f"phase must be 'even' or 'odd', got {phase!r}")
    j = np.array([[1.0 + 0.0j]])
    for _ in range(ring.cell_count // 2):
        j = np.kron(j, u.matrix)
    if phase == "odd":
        return op_at(ring, (*range(1, ring.cell_count), 0), j)
    return DenseOperator(ring, j)


def composed_step_operator(pqca: Pqca, ring: RingSpace) -> DenseOperator:
    """Dense matrix of one full even-then-odd step on the ring."""
    even = pqca_as_ring_operator(pqca, ring, "even")
    odd = pqca_as_ring_operator(pqca, ring, "odd")
    return DenseOperator(ring, odd.matrix @ even.matrix)


def regroup_pairs(op: DenseOperator) -> DenseOperator:
    """Reinterpret an operator on 2M cells as acting on M supercells of two
    cells each (local dimension d^2). The mixed-radix index convention makes
    this a relabelling of the same matrix. One composed two-phase step is
    causal with neighbourhood {-1, 0, +1} in supercell units, while on raw
    cells its reach is parity-dependent ({-2..+1} on even cells, {-1..+2}
    on odd ones)."""
    ring = op.ring
    if ring.cell_count % 2 != 0:
        raise ValueError("pair regrouping needs an even number of cells")
    grouped = RingSpace(ring.cell_count // 2, ring.local_dim**2)
    return DenseOperator(grouped, op.matrix)


def save_unitary(u: ScatteringUnitary, path):
    """Text format: header `d n`, then one row per matrix row as `re im` pairs."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{u.alphabet_size} {u.dimension}\n")
        for row in u.matrix:
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")


def _header_int(path, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: header field {name} must be an integer, got {text!r}") from None


def _row_entry(path, lineno: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: entry {text!r} is not a number") from None


def load_unitary(path) -> ScatteringUnitary:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: header must be 'd n'")
        d, n = (_header_int(path, name, text) for name, text in zip("dn", header))
        if d < 2:
            raise ValueError(f"{path}: header field d must be >= 2, got {d}")
        if n < 1:
            raise ValueError(f"{path}: header field n must be >= 1, got {n}")
        # d ** (2**n) by n squarings, stopped once past the cap, so a large n
        # never builds a huge integer
        dim = d
        for _ in range(n):
            if dim > MAX_DENSE_DIM:
                break
            dim *= dim
        if dim > MAX_DENSE_DIM:
            raise ValueError(
                f"{path}: header fields d={d}, n={n} give a block dimension d^(2^n) "
                f"above the cap {MAX_DENSE_DIM}"
            )
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = [_row_entry(path, lineno, text) for text in line.split()]
            if len(parts) != 2 * dim:
                raise ValueError(f"{path}:{lineno}: expected {2 * dim} numbers, got {len(parts)}")
            rows.append([complex(parts[2 * k], parts[2 * k + 1]) for k in range(dim)])
        if len(rows) != dim:
            raise ValueError(f"{path}: expected {dim} matrix rows, got {len(rows)}")
    return ScatteringUnitary(d, n, np.array(rows))
