"""Partitioned-automaton stepper.

One scattering unitary acts synchronously on a staggered block partition:
blocks anchored at even coordinates on even steps, shifted by (1,...,1) on
odd steps (step count starts at 0 = even). The sparse backend materializes
only blocks that touch occupied cells, which is exact because the
scattering unitary fixes the all-empty block state. On a periodic ring,
`apply_phase` is the dense action of a phase on vectors and
`pqca_as_ring_operator` its assembly as a matrix.

The sparse step expands each term into branches, one per choice of output
row (fragment) of the block's column in each of its blocks, and sums the
branches that reach the same configuration. Its definition is sequential,
and that sequence fixes every bit of the result, signed zeros included:
branches in generation order (terms in insertion order, blocks by
ascending anchor, fragments by row), each amplitude the running product
`a * c0 * c1 * ...`, each sum Kahan-compensated from 0j as
`y = a - comp; t = s + y; comp = (t - s) - y`, outputs in order of first
occurrence, pruned at `PRUNE_THRESHOLD`. Reordering any of it changes the
last bits and the printed digits of studies built on this stepper.

The stepper computes exactly that sequence on arrays:

- Packed form (`_Packed`): amplitudes, per-term cell offsets, points and
  symbols, terms in order and cells sorted by point. `pqca_evolve` packs
  once, steps, and builds the `Configuration` dict once; the walk/engine
  crosscheck in `dirac` stays packed throughout.
- Branch numbers: a term's branches are numbered in mixed radix over its
  blocks, first block most significant, which is generation order. A
  chunk of branches is formed from its numbers by index arithmetic.
- Canonical key: a configuration is its blocks' non-empty (anchor, row)
  pairs by ascending anchor. The pairs are cut into groups of g by their
  position in that sequence, not by block level (an empty block output
  shifts the rest), each group one int64 code. A trie (`_Trie`) interns
  the sequences of codes as int64 nodes, so equal configurations get
  equal keys whichever term or chunk they come from. g is as large as
  int64 keys allow, up to the step's block depth, so most chunks are
  keyed in one intern call.
- Real-part product: amplitudes are multiplied on float64 parts as
  `(ar*br - ai*bi, ar*bi + ai*br)`, running amplitude first, which is
  Python's complex product; numpy's complex `*` differs from it in the
  last bit for about half of random operands.
- Rank-level Kahan: a chunk's branches are sorted stably by key, and level
  r updates every key's r-th branch at once. Chunks come in generation
  order, so each sum meets its branches in the sequential order and does
  the same IEEE operations; complex + and - act on each part alone, in
  numpy as in Python.
- hypot pruning: Python's abs of a complex is hypot, and `np.hypot` gives
  the same bits where `np.abs` does not always.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import UNITARITY_TOL, DenseOperator, op_at, unitarity_defect
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
        if defect > UNITARITY_TOL:
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


# Branches are formed and keyed in chunks of at least this many, in
# generation order, so a chunk's temporaries stay small. A step takes at
# most _CHUNKS chunks: each intern call inserts its new keys into the
# trie's sorted table, a copy of the whole table, and a chunk makes one
# call per group of pairs (one when the group size reaches the depth).
_CHUNK = 1 << 12
_CHUNKS = 64


class _Packed(NamedTuple):
    """A sparse state as arrays, terms in order.

    Term t has amplitude `amp[t]` (complex128) and the cells
    `start[t]:start[t+1]` of `points` (int64, one row of n coordinates per
    cell) and `symbols` (int64, nonzero), sorted by point as in
    `Configuration.cells`. No two terms hold the same configuration.
    """

    amp: np.ndarray
    start: np.ndarray
    points: np.ndarray
    symbols: np.ndarray


def _pack(state: SparseState) -> _Packed:
    configs = state.terms.keys()
    cells = [cell for config in configs for cell in config.cells]
    start = np.zeros(len(configs) + 1, dtype=np.int64)
    np.cumsum([len(config.cells) for config in configs], out=start[1:])
    points = np.array([p for p, _ in cells], dtype=np.int64).reshape(len(cells), state.dimension)
    symbols = np.array([s for _, s in cells], dtype=np.int64)
    return _Packed(np.array(list(state.terms.values()), dtype=np.complex128), start, points, symbols)


def _one_cell_terms(points: np.ndarray, symbols: np.ndarray, amp: np.ndarray) -> _Packed:
    """One term per cell, in the given order, each holding one cell; terms
    whose amplitude is at or below `PRUNE_THRESHOLD` are left out, as
    `SparseState` would leave them out."""
    keep = np.hypot(amp.real, amp.imag) > PRUNE_THRESHOLD
    return _Packed(
        amp[keep],
        np.arange(np.count_nonzero(keep) + 1, dtype=np.int64),
        np.asarray(points, dtype=np.int64)[keep],
        np.asarray(symbols, dtype=np.int64)[keep],
    )


def _unpack(packed: _Packed, alphabet, dimension: int) -> SparseState:
    """The packed state as a `SparseState`, built _CHUNK terms at a time;
    every configuration holding a given cell shares one `(point, symbol)`
    tuple."""
    amp, start, points, symbols = packed
    counts = np.diff(start)
    shared: dict = {}
    terms: dict = {}
    for lo in range(0, len(amp), _CHUNK):
        hi = min(lo + _CHUNK, len(amp))
        part = slice(start[lo], start[hi])
        which, rows = _row_ids(*points[part].T, symbols[part])
        distinct = zip(map(tuple, points[part][rows].tolist()), symbols[part][rows].tolist())
        chosen = [shared.setdefault(cell, cell) for cell in distinct]
        cells = map(chosen.__getitem__, which.tolist())
        terms.update(
            (Configuration._from_sorted(dimension, tuple(itertools.islice(cells, count))), z)
            for count, z in zip(counts[lo:hi].tolist(), amp[lo:hi].tolist())
        )
    return SparseState._from_checked(alphabet, dimension, terms)


def _row_ids(*columns: np.ndarray):
    """Dense ids of the rows of equal-length columns, in lexicographic
    order, and one row index holding each id."""
    order = np.lexsort(columns[::-1])
    head = np.ones(len(order), dtype=bool)
    repeat = head[1:]  # a view: whether a sorted row equals the one before
    for column in columns:
        ordered = column[order]
        repeat &= ordered[1:] == ordered[:-1]
    np.logical_not(repeat, out=repeat)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(head) - 1
    return ids, order[head]


def _group_size(pair_radix: int, total: int, depth: int) -> int:
    """How many (anchor, row) pairs one trie code holds: the largest
    k <= depth for which `total` branches of up to `depth` pairs, in
    ceil(depth / k) codes each, key in int64; 1 when none does, and then
    `_Trie` refuses. Every pair code is below `pair_radix` >= 2, so no k
    above 62 fits."""
    fits = (
        k
        for k in range(1, min(depth, 62) + 1)
        if (total * -(-depth // k) + 1) * pair_radix**k < 2**63
    )
    return max(fits, default=1)


class _Trie:
    """Canonical int64 keys for sequences of (anchor, row) pairs, each pair
    coded as anchor id * block_dim + row with row > 0, below `pair_radix`.

    The pairs go `group` at a time into one code, first pair most
    significant, `code * pair_radix + pair`; only a sequence's last group
    may hold fewer. No pair is 0, so a code's leading digit tells how many
    pairs it holds, and a short group needs no padding. Node 0 is the empty
    sequence; `intern(parent, code)` gives the node of sequence `parent`
    followed by the group `code`, the same node whichever term or chunk
    asks for it.
    """

    def __init__(self, pair_radix: int, group: int, max_nodes: int):
        self.pair_radix = pair_radix
        self.group = group
        self.radix = pair_radix**group
        if max_nodes * self.radix >= 2**63:
            raise OverflowError("too many branches to key in int64")
        self.keys = np.empty(0, dtype=np.int64)  # sorted parent * radix + code
        self.nodes = np.empty(0, dtype=np.int64)  # the node of each key
        self.count = 1

    def intern(self, parent: np.ndarray, code: np.ndarray) -> np.ndarray:
        values = parent * self.radix + code
        order = np.argsort(values)  # equal values are runs in any sorted order
        head = np.ones(len(values), dtype=bool)
        head[1:] = values[order[1:]] != values[order[:-1]]
        distinct = values[order[head]]
        at = np.searchsorted(self.keys, distinct)
        old = at < len(self.keys)
        old[old] = self.keys[at[old]] == distinct[old]
        node = np.empty(len(distinct), dtype=np.int64)
        node[old] = self.nodes[at[old]]
        fresh = np.flatnonzero(~old)
        node[fresh] = np.arange(self.count, self.count + len(fresh))
        self.count += len(fresh)
        self.keys = np.insert(self.keys, at[fresh], distinct[fresh])
        self.nodes = np.insert(self.nodes, at[fresh], node[fresh])
        values[order] = node[np.cumsum(head) - 1]
        return values

    def unfold(self, node: np.ndarray) -> list:
        """The pairs of each node's sequence, last first: one array per
        position, `group` per code, 0 above a short code's first pair and
        where a sequence has run out."""
        key = np.zeros(self.count, dtype=np.int64)
        key[self.nodes] = self.keys
        pairs = []
        while node.any():
            code = key[node] % self.radix
            for _ in range(self.group):
                code, pair = np.divmod(code, self.pair_radix)
                pairs.append(pair)
            node = key[node] // self.radix
        return pairs


def _blocks(stepper: "_Stepper", state: _Packed, parity: int):
    """The blocks of a packed state: the cells of one term that share an
    anchor, terms in order and a term's anchors ascending. Returns each
    block's term, its anchor's half coordinates (anchor = 2 * half +
    parity) and its column of the scattering matrix."""
    amp, start, points, symbols = state
    term = np.repeat(np.arange(len(amp)), np.diff(start))
    half = (points - parity) // 2
    offset = ((points - parity) % 2 * stepper.offset_bits).sum(axis=1)
    if stepper.dimension > 1:
        # in 1D the sorted cells already come by ascending anchor
        order = np.lexsort((*half.T[::-1], term))
        term, half, offset, symbols = term[order], half[order], offset[order], symbols[order]
    head = np.ones(len(term), dtype=bool)
    head[1:] = (term[1:] != term[:-1]) | (half[1:] != half[:-1]).any(axis=1)
    first = np.flatnonzero(head)
    column = np.add.reduceat(symbols * stepper.weight[offset], first) if len(first) else first
    return term[first], half[first], column


class _Branches:
    """The branches of one phase step of a packed state.

    A block is the cells of one term that share an anchor; a term's blocks
    go by ascending anchor. A branch picks one output row (fragment) of
    the block's column for each block of its term. A term's branches are
    numbered in mixed radix over its blocks, first block most significant,
    and terms follow each other: the order in which the sequential loop
    generated them.
    """

    def __init__(self, stepper: "_Stepper", state: _Packed, parity: int):
        nterms = len(state.amp)
        term, half, self.column = _blocks(stepper, state, parity)
        self.anchor, rows = _row_ids(*half.T)
        self.anchors = half[rows]
        self.col_start, self.col_count = stepper.col_start, stepper.col_count
        count = stepper.col_count[self.column]
        self.nblocks = np.bincount(term, minlength=nterms)
        self.first_block = np.cumsum(self.nblocks) - self.nblocks
        self.depth = int(self.nblocks.max(initial=0))
        self.stride = np.empty(len(term), dtype=np.int64)
        branches = np.ones(nterms, dtype=np.int64)
        for level in range(self.depth - 1, -1, -1):
            deep = np.flatnonzero(self.nblocks > level)
            b = self.first_block[deep] + level
            self.stride[b] = branches[deep]
            branches[deep] *= count[b]
        self.start = np.zeros(nterms + 1, dtype=np.int64)
        np.cumsum(branches, out=self.start[1:])
        self.total = int(self.start[-1])

    def levels(self, lo: int, hi: int):
        """The term of each branch lo, ..., hi - 1, and an iterator over
        the block levels giving which of them have a block there, the
        block, and its fragment."""
        first, end = np.count_nonzero(self.start <= lo) - 1, np.count_nonzero(self.start < hi)
        edges = self.start[first : end + 1].copy()
        edges[0], edges[-1] = lo, hi
        t = np.repeat(np.arange(first, end), np.diff(edges))
        return t, self._fragments(t, np.arange(lo, hi) - self.start[t])

    def _fragments(self, t: np.ndarray, index: np.ndarray):
        nblocks, first_block = self.nblocks[t], self.first_block[t]
        for level in range(self.depth):
            active = nblocks > level
            b = np.where(active, first_block + level, 0)
            column = self.column[b]
            yield active, b, self.col_start[column] + index // self.stride[b] % self.col_count[column]


class _KahanSums:
    """Kahan-compensated sums per trie node, fed the branches in generation
    order, with each node's first branch.

    A chunk's branches join their nodes' sums in rank levels: level r holds
    each node's r-th branch in the chunk, so every sum sees the IEEE
    operations `y = a - comp; t = s + y; comp = (t - s) - y` of the
    sequential loop in the same order. Complex + and - act on real and
    imaginary parts apart, as Python's do.
    """

    def __init__(self, total: int):
        self.total = total  # "no branch yet" in `first`
        self.sums = np.zeros(1024, dtype=np.complex128)
        self.comps = np.zeros(1024, dtype=np.complex128)
        self.first = np.full(1024, total, dtype=np.int64)

    def add(self, lo: int, key: np.ndarray, z: np.ndarray, nodes: int):
        """Branches lo, lo + 1, ... with nodes `key` and amplitudes `z`."""
        if nodes > len(self.first):
            extra = max(nodes, 2 * len(self.first)) - len(self.first)
            self.sums = np.concatenate((self.sums, np.zeros(extra, dtype=np.complex128)))
            self.comps = np.concatenate((self.comps, np.zeros(extra, dtype=np.complex128)))
            self.first = np.concatenate((self.first, np.full(extra, self.total, dtype=np.int64)))
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.ones(len(key), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        heads = np.flatnonzero(head)
        # chunks come in generation order: a node's first chunk holds its first branch
        unseen = self.first[key[heads]] == self.total
        self.first[key[heads][unseen]] = lo + order[heads][unseen]
        rank = np.arange(len(key)) - heads[np.cumsum(head) - 1]
        by_rank = np.argsort(rank, kind="stable")
        end = 0
        for size in np.bincount(rank).tolist():
            at = by_rank[end : end + size]
            end += size
            node = key[at]
            y = z[order[at]] - self.comps[node]
            old = self.sums[node]
            new = old + y
            self.comps[node] = (new - old) - y
            self.sums[node] = new

    def outputs(self):
        """The nodes with a branch, in order of first branch, and their sums,
        without sums at or below PRUNE_THRESHOLD. Python's abs of a complex
        is hypot, and np.hypot gives the same bits."""
        final = np.flatnonzero(self.first < self.total)
        final = final[np.argsort(self.first[final], kind="stable")]
        final = final[np.hypot(self.sums[final].real, self.sums[final].imag) > PRUNE_THRESHOLD]
        return final, self.sums[final]


class _Stepper:
    """Array stepper for one scattering unitary: its column tables, built
    once and shared by every step."""

    def __init__(self, u: ScatteringUnitary):
        n, nrows = u.dimension, u.block_dim
        self.dimension = n
        self.block_dim = nrows
        # column c's outputs: rows frag_row[col_start[c]:col_start[c+1]],
        # ascending, with |entry| above PRUNE_THRESHOLD
        cols, rows = np.nonzero(np.abs(u.matrix.T) > PRUNE_THRESHOLD)
        self.col_start = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=nrows), out=self.col_start[1:])
        self.col_count = np.diff(self.col_start)
        self.frag_row = rows
        coef = u.matrix[rows, cols]
        self.coef_re = coef.real.copy()
        self.coef_im = coef.imag.copy()
        # a block's column is sum(symbol * weight[offset]) over its cells,
        # offsets numbered as in `block_offsets`, first most significant
        self.weight = u.alphabet_size ** np.arange(2**n - 1, -1, -1, dtype=np.int64)
        self.offset_bits = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # the nonzero cells of each row: offset vectors and symbols, ascending
        row_symbols = (np.arange(nrows)[:, None] // self.weight) % u.alphabet_size
        row_of, offset_of = np.nonzero(row_symbols)
        self.row_cell_count = np.count_nonzero(row_symbols, axis=1)
        self.row_cell_start = np.cumsum(self.row_cell_count) - self.row_cell_count
        self.row_cell_offset = np.array(u.block_offsets, dtype=np.int64)[offset_of]
        self.row_cell_symbol = row_symbols[row_of, offset_of]

    def step(self, state: _Packed, parity: int) -> _Packed:
        """One phase: the blocks anchored at `parity` + 2Z on every axis."""
        return self._cells(*self._sum(state, parity))

    def _sum(self, state: _Packed, parity: int):
        """The outputs in order of first occurrence, without those at or
        below PRUNE_THRESHOLD: the (anchor, row) pairs of each
        (`_Trie.unfold`), its amplitude, and the anchor points by id. The
        branches are formed and summed a chunk at a time, in generation
        order."""
        branches = _Branches(self, state, parity)
        pair_radix = len(branches.anchors) * self.block_dim
        group = _group_size(pair_radix, branches.total, branches.depth)
        trie = _Trie(pair_radix, group, branches.total * -(-branches.depth // group) + 1)
        sums = _KahanSums(branches.total)
        chunk = max(_CHUNK, -(-branches.total // _CHUNKS))
        for lo in range(0, branches.total, chunk):
            key, z = self._chunk(state.amp, branches, trie, lo, min(lo + chunk, branches.total))
            sums.add(lo, key, z, trie.count)
        nodes, amp = sums.outputs()
        return trie.unfold(nodes), amp, 2 * branches.anchors + parity

    def _chunk(self, amp: np.ndarray, branches: _Branches, trie: _Trie, lo: int, hi: int):
        """Keys and amplitudes of branches lo, ..., hi - 1.

        A branch's amplitude a * c0 * c1 * ... keeps the running amplitude
        first and is written out on real parts, as Python's complex product
        is. Its key folds its non-empty (anchor, row) pairs, by ascending
        anchor, into group codes and those into a trie node: equal
        configurations, equal keys. A full group, a code of `group` digits,
        is interned when the branch's next pair comes, and the rest after
        the last level, so a chunk whose branches hold at most one group
        makes one intern call.
        """
        t, levels = branches.levels(lo, hi)
        key = np.zeros(len(t), dtype=np.int64)
        code = np.zeros(len(t), dtype=np.int64)
        ar, ai = amp.real[t], amp.imag[t]
        for level, (active, b, frag) in enumerate(levels):
            cr, ci = self.coef_re[frag], self.coef_im[frag]
            ar, ai = (
                np.where(active, ar * cr - ai * ci, ar),
                np.where(active, ar * ci + ai * cr, ai),
            )
            row = self.frag_row[frag]
            grow = active & (row != 0)
            if level >= trie.group:
                full = np.flatnonzero(grow & (code >= trie.radix // trie.pair_radix))
                if len(full):
                    key[full] = trie.intern(key[full], code[full])
                    code[full] = 0
            code = np.where(grow, code * trie.pair_radix + branches.anchor[b] * self.block_dim + row, code)
        rest = np.flatnonzero(code)
        if len(rest):
            key[rest] = trie.intern(key[rest], code[rest])
        z = np.empty(len(t), dtype=np.complex128)
        z.real, z.imag = ar, ai
        return key, z

    def _cells(self, pairs: list, amp: np.ndarray, corners: np.ndarray) -> _Packed:
        """The packed outputs, each one's cells built from its (anchor, row)
        pairs (`_Trie.unfold`) and sorted by point."""
        start = np.zeros(len(amp) + 1, dtype=np.int64)
        for pair in pairs:
            start[1:] += self.row_cell_count[pair % self.block_dim]
        np.cumsum(start, out=start)
        points = np.empty((start[-1], self.dimension), dtype=np.int64)
        symbols = np.empty(start[-1], dtype=np.int64)
        fill = start[1:].copy()
        for pair in pairs:
            # pairs come last first, by descending anchor: each one's cells
            # go before those already written
            row = pair % self.block_dim
            count = self.row_cell_count[row]
            fill -= count
            owner = np.repeat(np.arange(len(row)), count)
            within = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
            cell = self.row_cell_start[row[owner]] + within
            at = fill[owner] + within
            points[at] = corners[pair[owner] // self.block_dim] + self.row_cell_offset[cell]
            symbols[at] = self.row_cell_symbol[cell]
        if self.dimension > 1:
            owner = np.repeat(np.arange(len(amp)), np.diff(start))
            order = np.lexsort((*points.T[::-1], owner))
            points, symbols = points[order], symbols[order]
        return _Packed(amp, start, points, symbols)


def _check_match(state: SparseState, pqca: Pqca):
    u = pqca.scattering
    if state.alphabet.size != u.alphabet_size or state.dimension != u.dimension:
        raise ValueError("state alphabet/dimension does not match the scattering unitary")


def pqca_step(state: SparseState, pqca: Pqca, phase: str) -> SparseState:
    """Apply the scattering unitary on every block of one phase's partition.

    Only blocks intersecting the support of some term are materialized; all
    other blocks are fixed by quiescence preservation. Support grows by at
    most one cell per axis per step and the norm is preserved within 1e-12.
    This is `pqca_evolve` for one step starting at `phase`.
    """
    if phase not in ("even", "odd"):
        raise ValueError(f"phase must be 'even' or 'odd', got {phase!r}")
    return pqca_evolve(state, pqca, 1, phase)


def pqca_evolve(
    state: SparseState, pqca: Pqca, steps: int, start_phase: str = "even"
) -> SparseState:
    """Alternate even/odd phases for `steps` steps (even first by default).

    The state stays packed between steps, which changes no bit: the result
    equals `steps` one-step calls, each packing and unpacking its state.
    """
    if start_phase not in ("even", "odd"):
        raise ValueError(f"start_phase must be 'even' or 'odd', got {start_phase!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_match(state, pqca)
    stepper = _Stepper(pqca.scattering)
    packed = _pack(state)
    parity = 0 if start_phase == "even" else 1
    for k in range(steps):
        packed = stepper.step(packed, (parity + k) % 2)
    return _unpack(packed, state.alphabet, state.dimension)


def _ring_rule(pqca: Pqca, ring: RingSpace, phase: str) -> ScatteringUnitary:
    u = pqca.scattering
    if u.dimension != 1:
        raise ValueError("ring operators are defined for 1D automata")
    if ring.local_dim != u.alphabet_size:
        raise ValueError("ring local dimension does not match the scattering unitary")
    if ring.cell_count % 2 != 0:
        raise ValueError(f"ring size {ring.cell_count} is odd; blocks cannot tile both phases")
    if phase not in ("even", "odd"):
        raise ValueError(f"phase must be 'even' or 'odd', got {phase!r}")
    return u


def apply_phase(array: np.ndarray, pqca: Pqca, ring: RingSpace, phase: str) -> np.ndarray:
    """One phase map on a ring vector, or on each column of a batch, in
    O(dim * d^2) work per column. The leading d^N axis splits into N/2 block
    axes of size d^2, and one stacked `matmul` applies the scattering
    unitary on each. The odd phase first moves cell 0's axis to the end,
    which pairs the cells (1,2), ..., (N-1,0), and moves it back after."""
    u = _ring_rule(pqca, ring, phase)
    n, d = ring.cell_count, ring.local_dim
    a = np.asarray(array, dtype=np.complex128)
    if a.ndim not in (1, 2) or a.shape[0] != ring.dim:
        raise ValueError(f"array shape {a.shape} does not start with ring dimension {ring.dim}")
    cells = a.reshape([d] * n + [-1])
    if phase == "odd":
        cells = np.moveaxis(cells, 0, n - 1)
    for k in range(n // 2):
        cells = np.matmul(u.matrix, cells.reshape(d ** (2 * k), d * d, -1))
    if phase == "odd":
        cells = np.moveaxis(cells.reshape([d] * n + [-1]), n - 1, 0)
    return cells.reshape(a.shape)


def pqca_as_ring_operator(pqca: Pqca, ring: RingSpace, phase: str) -> DenseOperator:
    """Dense matrix of one phase map on a periodic ring (even cell count).

    The even phase is the plain tensor power of the scattering unitary over
    blocks (0,1), (2,3), ...; the odd phase is that same operator placed on
    the rotated cells (1, 2, ..., N-1, 0), which puts its blocks at (1,2),
    ..., (N-1,0).
    """
    u = _ring_rule(pqca, ring, phase)
    j = np.array([[1.0 + 0.0j]])
    for _ in range(ring.cell_count // 2):
        j = np.kron(j, u.matrix)
    if phase == "odd":
        return op_at(ring, (*range(1, ring.cell_count), 0), j)
    return DenseOperator(ring, j)


def composed_step_operator(pqca: Pqca, ring: RingSpace) -> DenseOperator:
    """Dense matrix of one full even-then-odd step on the ring: the odd
    phase applied to the columns of the even one, with no full-size product."""
    even = pqca_as_ring_operator(pqca, ring, "even").matrix
    return DenseOperator(ring, apply_phase(even, pqca, ring, "odd"))


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
