"""Finitely-supported lattice configurations and their Hilbert space.

A configuration assigns a symbol from a finite alphabet to every point of
Z^n, with all but finitely many cells holding the distinguished empty
symbol 0. States are finite superpositions of configurations, stored as a
sparse amplitude map. A small dense companion (`RingSpace`) fixes the
basis-index convention used whenever a state is flattened to a coordinate
vector for matrix-level checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Amplitudes with modulus below this are dropped; far below every test
# tolerance, keeps the sparse maps finite under repeated unitaries.
PRUNE_THRESHOLD = 1e-14

# Dense verification is capped at this Hilbert-space dimension.
MAX_DENSE_DIM = 4096


@dataclass(frozen=True)
class Alphabet:
    """Finite cell alphabet; symbol 0 is the distinguished empty state."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.size}")


class Configuration:
    """Immutable finite-support assignment of nonzero symbols to lattice points."""

    __slots__ = ("dimension", "cells", "_hash")

    def __init__(self, dimension: int, support: dict | tuple = ()):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        items = support.items() if isinstance(support, dict) else support
        cells = []
        for point, symbol in items:
            point = tuple(int(i) for i in point)
            if len(point) != dimension:
                raise ValueError(f"point {point} does not have dimension {dimension}")
            if symbol == 0:
                raise ValueError(f"empty symbol stored explicitly at {point}")
            if symbol < 0:
                raise ValueError(f"negative symbol {symbol} at {point}")
            cells.append((point, int(symbol)))
        cells.sort()
        for (point, _), (following, _) in zip(cells, cells[1:]):
            if point == following:
                raise ValueError(f"point {point} holds more than one cell")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "_hash", hash((dimension, self.cells)))

    @classmethod
    def _from_sorted(cls, dimension: int, cells: tuple) -> "Configuration":
        # internal fast path: cells already validated, sorted and canonical
        obj = object.__new__(cls)
        _set_dimension(obj, dimension)
        _set_cells(obj, cells)
        _set_hash(obj, hash((dimension, cells)))
        return obj

    def __setattr__(self, *_):
        raise AttributeError("Configuration is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, Configuration)
            and self.dimension == other.dimension
            and self.cells == other.cells
        )

    def __lt__(self, other):
        return self.cells < other.cells

    def __repr__(self):
        body = ";".join(f"{p}:{s}" for p, s in self.cells)
        return f"Configuration({self.dimension}, {body!r})"


# The slots' member descriptors, bound once: they set a slot past the
# refusing `__setattr__` faster than `object.__setattr__` does.
_set_dimension = Configuration.dimension.__set__
_set_cells = Configuration.cells.__set__
_set_hash = Configuration._hash.__set__


class SparseState:
    """Finite superposition of configurations, keyed by configuration.

    Construction prunes amplitudes below `PRUNE_THRESHOLD`. Normalization is
    explicit (`normalized()`); intermediate unnormalized states are legal.
    """

    __slots__ = ("alphabet", "dimension", "terms")

    def __init__(self, alphabet: Alphabet, dimension: int, terms: dict):
        self.alphabet = alphabet
        self.dimension = dimension
        pruned = {}
        for config, amp in terms.items():
            if config.dimension != dimension:
                raise ValueError("configuration dimension mismatch")
            for _, s in config.cells:
                if s >= alphabet.size:
                    raise ValueError(f"symbol {s} outside alphabet of size {alphabet.size}")
            amp = complex(amp)
            if abs(amp) > PRUNE_THRESHOLD:
                pruned[config] = amp
        self.terms = pruned

    @classmethod
    def _from_checked(cls, alphabet: Alphabet, dimension: int, terms: dict) -> "SparseState":
        # internal fast path: configurations of this dimension and alphabet,
        # complex amplitudes already pruned at PRUNE_THRESHOLD
        obj = object.__new__(cls)
        obj.alphabet = alphabet
        obj.dimension = dimension
        obj.terms = terms
        return obj

    @classmethod
    def basis(cls, alphabet: Alphabet, dimension: int, support: dict | tuple = ()) -> "SparseState":
        config = Configuration(dimension, support)
        return cls(alphabet, dimension, {config: 1.0})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.terms.values())))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SparseState(
            self.alphabet, self.dimension, {c: a / n for c, a in self.terms.items()}
        )

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"SparseState({len(self.terms)} terms, d={self.alphabet.size}, n={self.dimension})"


@dataclass(frozen=True)
class RingSpace:
    """N cells of local dimension d on a 1D ring, with a fixed index convention.

    Basis index is mixed-radix over cell symbols with cell 0 the most
    significant digit. Also used as a plain quiescent-padded window where
    periodicity is irrelevant (reduced states, support scans).
    """

    cell_count: int
    local_dim: int

    def __post_init__(self):
        if self.cell_count < 1:
            raise ValueError("cell_count must be positive")
        if self.local_dim < 2:
            raise ValueError("local_dim must be >= 2")
        if self.dim > MAX_DENSE_DIM:
            raise ValueError(
                f"dense dimension {self.local_dim}^{self.cell_count} exceeds cap {MAX_DENSE_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.local_dim**self.cell_count

    def index_of(self, symbols) -> int:
        """Basis index of a full symbol assignment (cell 0 most significant)."""
        if len(symbols) != self.cell_count:
            raise ValueError("wrong number of symbols")
        idx = 0
        for s in symbols:
            if not (0 <= s < self.local_dim):
                raise ValueError(f"symbol {s} outside alphabet")
            idx = idx * self.local_dim + int(s)
        return idx

    def symbols_of(self, index: int) -> tuple:
        if not (0 <= index < self.dim):
            raise ValueError("basis index out of range")
        out = []
        for _ in range(self.cell_count):
            index, s = divmod(index, self.local_dim)
            out.append(s)
        return tuple(reversed(out))


def densify(state: SparseState, ring: RingSpace) -> np.ndarray:
    """Coordinate vector of a state whose support fits the window [0, N).

    Mixed-radix basis, cell 0 most significant. Raises on any occupied cell
    outside the window, naming the offending cell.
    """
    if state.dimension != 1:
        raise ValueError("densify requires 1D states")
    if state.alphabet.size != ring.local_dim:
        raise ValueError("alphabet size does not match ring local dimension")
    vec = np.zeros(ring.dim, dtype=np.complex128)
    for config, amp in state.terms.items():
        symbols = [0] * ring.cell_count
        for (i,), s in config.cells:
            if not (0 <= i < ring.cell_count):
                raise ValueError(f"support outside window [0, {ring.cell_count}): cell {i}")
            symbols[i] = s
        vec[ring.index_of(symbols)] += amp
    return vec


def dump_state(state: SparseState, digits: int = 17) -> str:
    """Textual dump: one line per term, sorted lexicographically by configuration.

    Line format: `(i1,...,in):symbol;... <TAB> re <TAB> im`.
    """
    lines = []
    for config in sorted(state.terms):
        amp = state.terms[config]
        body = ";".join(
            "(" + ",".join(str(i) for i in point) + f"):{symbol}"
            for point, symbol in config.cells
        )
        lines.append(f"{body}\t{amp.real:.{digits}g}\t{amp.imag:.{digits}g}")
    return "\n".join(lines) + ("\n" if lines else "")
