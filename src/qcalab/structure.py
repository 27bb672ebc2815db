"""Structural checks on one-step evolutions.

Two centerpieces. First, the localizability construction: extend a causal
unitary G to act on the right subcells of a doubled-alphabet register, build
the commuting local update gates K_x = Ghat^dag S_x Ghat (S_x the subcell
swap at x) and the layered map H = (prod S_x)(prod K_x), and verify
H E = E G against the subcell-doubling embedding E. The swaps, their
product and E permute or embed basis states, so they act as index maps of
the 2N-subcell register (gathers of rows or columns), never as matrix
products; `subcell_swap` builds one swap as a matrix for inspection and
tests. Second, the quantized classical counterexample: a bijective, causal,
XOR-like classical rule whose unitary lifting is *not* causal, demonstrated
by a one-step signalling protocol between the two ends of a word.

Both rest on the Heisenberg causality check. A QCA is a unitary that is
causal and translation-invariant; the check uses the second property too:
when the operator commutes with the ring translation, the images of the
observables at one cell give the witnesses at every cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    SUPPORT_TOL,
    UNITARITY_TOL,
    DenseOperator,
    op_at,
    reduced_density_from_vector,
    support_of,
    trace_distance,
)
from .state import RingSpace

# Symbol encoding for the three-letter alphabet {empty, t, f}.
EMPTY, T_SYM, F_SYM = 0, 1, 2


def xor_plus(a: int, b: int) -> int:
    """The pairwise combination rule: xor on {t, f} (t+t = f+f = f,
    t+f = f+t = t), a+0 = a, 0+a = 0.

    The idempotent variant (a+a = a) would make long f-runs and t-runs
    collide, destroying invertibility and the one-step signalling states;
    the xor reading keeps the rule bijective on finite words.
    """
    if a == EMPTY:
        return EMPTY
    if b == EMPTY:
        return a
    bit = (1 if a == T_SYM else 0) ^ (1 if b == T_SYM else 0)
    return T_SYM if bit else F_SYM


def xor_window_step(symbols: tuple) -> tuple:
    """One step of the classical rule on a fixed-length window, empty
    outside: the new value at i is c_i + c_{i+1}. The support never grows
    (the rightmost symbol combines with empty and is kept; empty cells stay
    empty)."""
    n = len(symbols)
    return tuple(
        xor_plus(symbols[i], symbols[i + 1] if i + 1 < n else EMPTY) for i in range(n)
    )


def lift_classical(step, window_length: int, alphabet_size: int = 3) -> DenseOperator:
    """Linear extension of a classical window step to a unitary: the 0/1
    matrix sending |c> to |step(c)>.

    Brute-forces all alphabet_size**window_length window words; a
    non-injective step is rejected with a colliding pair of words (the
    expected failure mode for steps that lose information off a boundary).
    """
    ring = RingSpace(window_length, alphabet_size)
    dim = ring.dim
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    seen: dict = {}
    for word in itertools.product(range(alphabet_size), repeat=window_length):
        image = tuple(step(word))
        if len(image) != window_length or any(
            not (0 <= s < alphabet_size) for s in image
        ):
            raise ValueError(f"step image {image} leaves the window basis")
        if image in seen:
            raise ValueError(
                f"step is not injective over the window: {seen[image]} and {word} "
                f"both map to {image}"
            )
        seen[image] = word
        matrix[ring.index_of(image), ring.index_of(word)] = 1.0
    return DenseOperator(ring, matrix)


def xor_lifted(window_length: int) -> DenseOperator:
    return lift_classical(xor_window_step, window_length)


def _neighbourhood_cells(x: int, neighbourhood, n_cells: int, periodic: bool) -> frozenset:
    if isinstance(neighbourhood, dict):
        return frozenset(neighbourhood[x])
    cells = set()
    for off in neighbourhood:
        c = x + off
        if periodic:
            cells.add(c % n_cells)
        elif 0 <= c < n_cells:
            cells.add(c)
    return frozenset(cells)


@dataclass(frozen=True)
class CausalityWitness:
    cell: int
    unit: tuple  # (i, j) matrix-unit indices of the probe observable
    support: tuple
    allowed: tuple


@dataclass(frozen=True)
class CausalityReport:
    passed: bool
    witnesses: tuple
    neighbourhood: object
    periodic: bool


def _translation_defect(g: DenseOperator) -> float:
    """Frobenius norm of g - T g T^dag for the one-cell ring translation T.

    Conjugating by T relabels cells, so it is one axis permutation of g's
    2N-axis tensor (every row and column axis rolled by one cell): O(dim^2),
    against O(dim^3) for the products with T.
    """
    n, d = g.ring.cell_count, g.ring.local_dim
    t = g.matrix.reshape([d] * (2 * n))
    roll = [*range(1, n), 0, *range(n + 1, 2 * n), n]
    return float(np.linalg.norm(t - t.transpose(roll)))


def _unit_supports(g: DenseOperator, x: int) -> dict:
    """Supports of the images A_i^dag A_j of the matrix units E_ij at cell
    x, keyed (i, j) for i <= j; A_k is the rows of g with digit k at x. At
    cell 0 the images of E_ii, which sum to g^dag g, give the unitarity
    defect ||g^dag g - I||_F, and a non-unitary g is rejected there."""
    ring = g.ring
    n, d, dim = ring.cell_count, ring.local_dim, ring.dim
    rows = g.matrix.reshape(d**x, d, d ** (n - x - 1), dim)
    blocks = [rows[:, k].reshape(-1, dim) for k in range(d)]
    supports = {}
    for i in range(d):
        left = blocks[i].conj().T
        for j in range(i, d):
            image = left @ blocks[j]
            supports[i, j] = support_of(DenseOperator(ring, image))
            if i == j and x == 0:
                gram = image if i == 0 else np.add(gram, image, out=gram)
            del image  # else it lives on while the next image is built
    if x == 0:
        gram[np.diag_indices(dim)] -= 1.0
        defect = float(np.linalg.norm(gram))
        if defect > UNITARITY_TOL:
            raise ValueError(f"operator is not unitary: defect {defect:.3e}")
    return supports


def causality_check(
    g: DenseOperator,
    neighbourhood,
    *,
    periodic: bool = True,
) -> CausalityReport:
    """Heisenberg causality test: for every cell x and every matrix unit A
    at x, the support of g^dag A g must stay inside x's neighbourhood,
    supports taken at `SUPPORT_TOL`.

    `neighbourhood` is either an iterable of integer offsets (wrapped on the
    ring when `periodic`, clipped to the window otherwise) or a dict mapping
    each cell to its absolute allowed cell set. Returns a verdict plus every
    failing (cell, observable, support) witness, cells ascending and units
    (i, j) row-major within a cell.

    Only the images the verdict needs are built, in one code path:
    - row blocks: the image of E_ij at x is A_i^dag A_j, A_k being the rows
      of g with digit k at x, in place of two full products per image;
    - adjoint pairs: E_ji's image is the adjoint of E_ij's, so only the
      d(d+1)/2 images with i <= j are built at a cell;
    - translation invariance, part of the definition of a QCA: when
      `periodic` holds and ||g - T g T^dag||_F <= 1e-3 * SUPPORT_TOL for the
      one-cell translation T, images are built at cell 0 only and the
      support at cell x is cell 0's shifted by x (mod N). Windows
      (`periodic=False`) and every other operator, such as a block layer
      invariant only under two-cell shifts, build images at every cell;
    - unitarity: cell 0 comes first, and its images of E_ii sum to g^dag g,
      so a non-unitary g is rejected before any other cell is probed.
    The allowed set of every cell comes from `neighbourhood` as given.
    """
    ring = g.ring
    n, d = ring.cell_count, ring.local_dim
    # The invariance tolerance is 1e-3 * SUPPORT_TOL. A translation defect
    # delta moves the image at cell x away from the shifted cell-0 image by
    # at most 2 * x * delta in Frobenius norm, and each commutator norm that
    # support_of compares with SUPPORT_TOL by at most twice that: under 5%
    # of SUPPORT_TOL on the at most 12 cells the dense cap allows. Supports
    # can then differ only where a commutator norm sits that close to
    # SUPPORT_TOL, where rounding already decides them. Invariant steps
    # measure 0 or rounding (2.7e-16 for the 8-cell Dirac step); a step
    # broken at one cell measures O(1).
    invariant = periodic and _translation_defect(g) <= 1e-3 * SUPPORT_TOL
    supports = {x: _unit_supports(g, x) for x in ((0,) if invariant else range(n))}
    witnesses = []
    for x in range(n):
        allowed = _neighbourhood_cells(x, neighbourhood, n, periodic)
        for unit in itertools.product(range(d), repeat=2):
            supp = supports[0 if invariant else x][min(unit), max(unit)]
            if invariant:
                supp = tuple(sorted((c + x) % n for c in supp))
            if not set(supp) <= allowed:
                witnesses.append(CausalityWitness(x, unit, supp, tuple(sorted(allowed))))
    return CausalityReport(not witnesses, tuple(witnesses), neighbourhood, periodic)


def doubled_ring(ring: RingSpace) -> RingSpace:
    return RingSpace(ring.cell_count, ring.local_dim**2)


def extend_to_right_subcells(g: DenseOperator) -> DenseOperator:
    """Extension of g to the doubled alphabet, acting on right subcells only.

    Doubled symbols encode subcell pairs as left*d + right, so the doubled
    register is the 2N-subcell register with cell x's right subcell at
    2x + 1; the extension is g on the odd subcells, relabelled as an
    operator on the doubled ring.
    """
    ring = g.ring
    big = doubled_ring(ring)
    n, d = ring.cell_count, ring.local_dim
    ghat = op_at(RingSpace(2 * n, d), tuple(range(1, 2 * n, 2)), g.matrix)
    return DenseOperator(big, ghat.matrix)


def subcell_swap(ring: RingSpace, cell: int) -> DenseOperator:
    """Swap of the two subcells at one cell of the doubled register."""
    d = ring.local_dim
    local = np.zeros((d * d, d * d), dtype=np.complex128)
    for l in range(d):
        for r in range(d):
            local[r * d + l, l * d + r] = 1.0
    return op_at(doubled_ring(ring), (cell,), local)


@dataclass(frozen=True)
class LocalizationResult:
    """Output of the layered-circuit construction for one causal unitary."""

    k_ops: tuple = field(repr=False)
    k_supports: tuple
    allowed: tuple
    h: DenseOperator = field(repr=False)
    he_eg_defect: float = 0.0
    commutation_residual: float = 0.0
    product_defect: float = 0.0

    def supports_contained(self) -> bool:
        return all(set(s) <= set(a) for s, a in zip(self.k_supports, self.allowed))


def _swap_map(index: np.ndarray, cells) -> np.ndarray:
    """Index map of the subcell swaps at `cells`: basis state i goes to
    map[i]. `index` holds the doubled register's basis numbers on its 2N
    subcell axes, the left subcell of cell x on axis 2x. A product of swaps
    is an involution, so for its matrix S the same map gives both
    A S = A[:, map] and S A = A[map].
    """
    axes = list(range(index.ndim))
    for x in cells:
        axes[2 * x], axes[2 * x + 1] = axes[2 * x + 1], axes[2 * x]
    return index.transpose(axes).reshape(-1)


def build_localization(
    g: DenseOperator,
    neighbourhood,
    *,
    periodic: bool = True,
) -> LocalizationResult:
    """Construct the update gates K_x = Ghat^dag S_x Ghat, their supports,
    the layered map H = (prod S_x)(prod K_x) and the defect ||H E - E G||.

    The subcell swaps S_x, their product and the embedding E are 0/1
    matrices, used here as index maps of the doubled register and never
    built: Ghat^dag S_x is a column gather of Ghat^dag, (prod S_x) M a row
    gather of M, H E a column gather of H, and E G is G on the rows E maps
    to. A gather gives the entries the 0/1 product would, equal up to the
    sign of a zero, and the gate product starts from K_0 where I K_0 gives
    the same values; so K_x, H and the three defects equal those of the
    dense products (Ghat^dag S_x) Ghat, (Ghat^dag prod S_x) Ghat,
    (prod S_x)(prod K_x) and H E - E G.

    Refuses unitaries that fail the causality check for the claimed
    neighbourhood: conjugating the subcell swap by a non-causal operator
    produces nonlocal K_x. Requires g to fix the all-empty basis state
    (true for every quiescence-preserving evolution), otherwise the
    intertwining defect picks up the stray phase.
    """
    report = causality_check(g, neighbourhood, periodic=periodic)
    if not report.passed:
        w = report.witnesses[0]
        raise ValueError(
            f"operator is not causal for the claimed neighbourhood: observable "
            f"{w.unit} at cell {w.cell} has image support {w.support} "
            f"outside {w.allowed}"
        )
    ring = g.ring
    n = ring.cell_count
    ghat = extend_to_right_subcells(g)
    ghat_d = ghat.matrix.conj().T
    index = np.arange(ghat.dim).reshape([ring.local_dim] * (2 * n))
    k_ops = tuple(
        DenseOperator(ghat.ring, ghat_d[:, _swap_map(index, (x,))] @ ghat.matrix)
        for x in range(n)
    )
    k_supports = tuple(support_of(k) for k in k_ops)
    allowed = tuple(
        tuple(sorted(_neighbourhood_cells(x, neighbourhood, n, periodic)))
        for x in range(n)
    )
    commutation = 0.0
    for a, b in itertools.combinations(k_ops, 2):
        commutation = max(
            commutation,
            float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix)),
        )
    # ascending-cell product of the K_x; commutation makes the order moot
    prod_k = k_ops[0].matrix
    for k in k_ops[1:]:
        prod_k = prod_k @ k.matrix
    all_swaps = _swap_map(index, range(n))
    product_defect = float(
        np.linalg.norm(prod_k - ghat_d[:, all_swaps] @ ghat.matrix)
    )
    h = DenseOperator(ghat.ring, prod_k[all_swaps])
    # E sends |s> to the doubled state with every left subcell empty
    embed = index[(0, slice(None)) * n].reshape(-1)
    he_eg = h.matrix[:, embed]
    he_eg[embed] -= g.matrix
    return LocalizationResult(
        k_ops,
        k_supports,
        allowed,
        h,
        float(np.linalg.norm(he_eg)),
        commutation,
        product_defect,
    )


def single_cell_product(ring: RingSpace, local_unitary: np.ndarray) -> DenseOperator:
    """Translation-invariant product of one single-cell unitary."""
    full = np.array([[1.0 + 0.0j]])
    for _ in range(ring.cell_count):
        full = np.kron(full, local_unitary)
    return DenseOperator(ring, full)


def quiescence_preserving_local(d: int, seed: int) -> np.ndarray:
    """Seeded single-cell unitary fixing |0> exactly: 1 (+) Haar U(d-1).

    Fixing the empty symbol with phase 0 is what lets the layered-circuit
    construction intertwine with the subcell-doubling embedding exactly; a
    stray phase on |0> shows up verbatim in the HE-EG defect.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d - 1, d - 1)) + 1j * rng.normal(size=(d - 1, d - 1))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    q = q @ np.diag(diag / np.abs(np.where(diag == 0, 1, diag)))
    u = np.eye(d, dtype=np.complex128)
    u[1:, 1:] = q
    return u


@dataclass(frozen=True)
class SignallingReport:
    """Distances seen by the last cell before and after one lifted step."""

    length: int
    before: float
    after: float
    phase_flip_defect: float


def signalling_demo(length: int) -> SignallingReport:
    """One-step signalling through the lifted XOR rule.

    Prepares (|ff...f> +/- |tt...t>)/sqrt(2) on the window; the last cell's
    reduced state is identical for both signs (distance 0). One lifted step
    turns them into |ff...f> (x) (|f> +/- |t>)/sqrt(2), whose last-cell
    states are orthogonal (distance 1). A phase flip on the *first* cell
    toggles between the two inputs exactly, so the first cell signals to the
    last in a single step at any length.
    """
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
    d_plus = f_hat.matrix @ c_plus
    d_minus = f_hat.matrix @ c_minus
    after = trace_distance(
        reduced_density_from_vector(d_plus, ring, bob),
        reduced_density_from_vector(d_minus, ring, bob),
    )
    z = np.diag([1.0, -1.0, 1.0]).astype(np.complex128)  # |t> -> -|t>, |f>, |0> fixed
    z_alice = op_at(ring, (0,), z)
    phase_flip_defect = float(np.max(np.abs(z_alice.matrix @ c_plus - c_minus)))
    return SignallingReport(length, before, after, phase_flip_defect)
