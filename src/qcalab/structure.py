"""Structural checks on one-step evolutions.

Two centerpieces. First, the localizability construction: extend a causal
unitary G to act on the right subcells of a doubled-alphabet register, build
the commuting local update gates K_x = Ghat^dag S_x Ghat (S_x the subcell
swap at x), and verify H E = E G for the layered map H = (prod S_x)(prod
K_x) and the subcell-doubling embedding E. Each K_x acts on N+1 of the 2N
subcells, so it is built, commuted, multiplied and has its support taken
as its local matrix; only the gate product is of the doubled register's
size, and H E is read from it in place. The swaps and E act as index maps.
`subcell_swap` and `extend_to_right_subcells` build a swap and Ghat as
matrices for inspection and tests. Second, the quantized classical
counterexample: a bijective, causal, XOR-like classical rule whose unitary
lifting is *not* causal, demonstrated by a one-step signalling protocol
between the two ends of a word; the lifting is kept as a basis permutation,
and its matrix (`xor_lifted`) is made only as the reference in the
`causality` selftest and the tests.

Both rest on the Heisenberg causality check. A QCA is a unitary that is
causal and translation-invariant; the dense check uses the second property
too: when the operator commutes with the ring translation, the images of
the observables at one cell give the witnesses at every cell. A
partitioned automaton's step is decided from its local rule instead
(`composed_step_causality`): the images at one supercell touch only the
blocks of its light cone, a 6-cell window whatever the ring size. A basis
permutation is decided on its index map (`permutation_causality`): each
image is a partial permutation of the basis words.
"""

from __future__ import annotations

import itertools
import math
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
    unitarity_defect,
)
from .pqca import Pqca, composed_step_operator, regroup_pairs
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


# xor_plus(a, b) at 3 a + b, for a, b in {EMPTY, T_SYM, F_SYM}
_XOR_TABLE = np.array([xor_plus(a, b) for a in range(3) for b in range(3)], dtype=np.uint8)


def xor_window_step(symbols) -> np.ndarray:
    """One step of the classical rule on a fixed-length window, empty
    outside: the new value at i is c_i + c_{i+1}. The support never grows
    (the rightmost symbol combines with empty and is kept; empty cells stay
    empty). `symbols` is a word or an array of words along its last axis."""
    symbols = np.asarray(symbols)
    pairs = 3 * symbols
    pairs[..., :-1] += symbols[..., 1:]
    return _XOR_TABLE[pairs]


def lift_classical(step, window_length: int, alphabet_size: int = 3) -> np.ndarray:
    """Linear extension of a classical window step, |c> -> |step(c)>, as
    the basis permutation it is: entry i is the index of step(c) for the
    word c of index i (cell 0 most significant).

    `step` maps an array of words, one per row, to their images. It is
    called once on all alphabet_size**window_length window words, indexed by
    mixed-radix arithmetic, so no dense cap applies; the words are bytes
    where the alphabet allows. A non-injective step is rejected with its
    first colliding pair of words in word order (the expected failure mode
    for steps that lose information off a boundary).
    """
    n, d = window_length, alphabet_size
    index = np.arange(d**n, dtype=np.intp)
    words = np.empty((d**n, n), dtype=np.min_scalar_type(d - 1))
    for i in range(n):
        words[:, i] = index // d ** (n - 1 - i) % d
    stepped = np.asarray(step(words))

    def word(row) -> tuple:
        return tuple(int(s) for s in row)

    if stepped.shape != words.shape:
        raise ValueError(f"step image of shape {stepped.shape} leaves the window basis of shape {words.shape}")
    outside = np.flatnonzero(((stepped < 0) | (stepped >= d)).any(axis=1))
    if outside.size:
        raise ValueError(f"step image {word(stepped[outside[0]])} leaves the window basis")
    image = np.zeros(d**n, dtype=np.intp)
    for i in range(n):
        image *= d
        image += stepped[:, i]
    # the first word whose image an earlier word already has
    order = np.argsort(image, kind="stable")
    repeats = order[1:][image[order[1:]] == image[order[:-1]]]
    if repeats.size:
        later = repeats.min()
        first = np.flatnonzero(image == image[later])[0]
        raise ValueError(
            f"step is not injective over the window: {word(words[first])} and {word(words[later])} "
            f"both map to {word(stepped[later])}"
        )
    return image


def xor_lifted(window_length: int) -> DenseOperator:
    """The lifted XOR rule as a dense 0/1 matrix: the reference against
    which `permutation_causality` is checked, used only by the `causality`
    selftest and the tests."""
    image = lift_classical(xor_window_step, window_length)
    matrix = np.zeros((len(image), len(image)), dtype=np.complex128)
    matrix[image, np.arange(len(image))] = 1.0
    return DenseOperator(RingSpace(window_length, 3), matrix)


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


def _report(supports: dict, n: int, d: int, neighbourhood, periodic: bool) -> CausalityReport:
    """The verdict and witnesses from the unit supports at every cell, or
    from cell 0's alone, shifted by x (mod n) to cell x, when `supports`
    holds only cell 0's. The allowed set of every cell comes from
    `neighbourhood` as given."""
    witnesses = []
    for x in range(n):
        allowed = _neighbourhood_cells(x, neighbourhood, n, periodic)
        for i, j in itertools.product(range(d), repeat=2):
            unit = min(i, j), max(i, j)
            if x in supports:
                supp = supports[x][unit]
            else:
                supp = tuple(sorted((c + x) % n for c in supports[0][unit]))
            if not set(supp) <= allowed:
                witnesses.append(CausalityWitness(x, (i, j), supp, tuple(sorted(allowed))))
    return CausalityReport(not witnesses, tuple(witnesses), neighbourhood, periodic)


def causality_check(
    g: DenseOperator,
    neighbourhood,
    *,
    periodic: bool = True,
) -> CausalityReport:
    """Heisenberg causality test of a dense operator: for every cell x and
    every matrix unit A at x, the support of g^dag A g must stay inside x's
    neighbourhood, supports taken at `SUPPORT_TOL`.

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
    This is the reference check, for any matrix. A partitioned automaton's
    step on a ring that holds its light cone goes through
    `composed_step_causality`, and a basis permutation (the lifted XOR
    rule, the identity) through `permutation_causality`; neither makes a
    matrix of the ring.
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
    return _report(supports, n, d, neighbourhood, periodic)


def composed_step_causality(pqca: Pqca, cells: int, neighbourhood) -> CausalityReport:
    """Causality of one even-then-odd step of `pqca` on a ring of `cells`
    raw cells, read on supercells of two cells (`regroup_pairs`), with
    `neighbourhood` in supercell offsets or as a dict of supercells.

    The image of an observable at supercell c (cells 2c, 2c+1) meets the
    odd blocks (2c-1, 2c) and (2c+1, 2c+2), then the even blocks from 2c-2
    to 2c+3: supercells c-1 to c+1. Every other block meets its own adjoint
    and cancels (Arrighi, Nesme and Werner, JCSS 77, 2011). So once the ring
    has 3 supercells or more, the images at the centre of the 6-cell open
    chain (even blocks (0,1), (2,3), (4,5), then odd (1,2), (3,4)) have the
    supports of the ring's images at any c, window supercell s standing for
    ring supercell (s + c - 1) mod N: the step commutes with supercell
    shifts. Supports can differ from the dense ring's only where a
    commutator norm sits within rounding of `SUPPORT_TOL`. A smaller ring
    wraps the light cone onto itself and is checked as a dense matrix.

    Unitarity comes from the block: with delta = ||u^dag u - I||_F, which
    bounds the operator norm, one phase of N/2 blocks has
    ||E^dag E - I|| <= (1 + delta)^(N/2) - 1 and the step
    ||V^dag V - I|| <= (1 + delta)^N - 1, about N delta, in operator norm.
    A ring where that bound exceeds `UNITARITY_TOL` is refused. The dense
    check takes the Frobenius norm on the whole ring, which grows with the
    square root of its dimension: a block defect of 1e-11 passes here at 8
    cells, and the dense 8-cell check refuses it (6.4e-10).
    """
    u = pqca.scattering
    if cells % 2 != 0:
        raise ValueError(f"ring size {cells} is odd; blocks cannot tile both phases")
    if cells < 6:
        g = regroup_pairs(composed_step_operator(pqca, RingSpace(cells, u.alphabet_size)))
        return causality_check(g, neighbourhood)
    bound = math.expm1(cells * math.log1p(unitarity_defect(u.matrix)))
    if bound > UNITARITY_TOL:
        raise ValueError(
            f"operator is not unitary: defect bound {bound:.3e} for {cells} cells"
        )
    chain = RingSpace(6, u.alphabet_size)
    window = regroup_pairs(composed_step_operator(pqca, chain, periodic=False))
    n = cells // 2
    centre = {
        unit: tuple(sorted((s - 1) % n for s in supp))
        for unit, supp in _unit_supports(window, 1).items()
    }
    return _report({0: centre}, n, window.ring.local_dim, neighbourhood, True)


def _map_support(sigma: np.ndarray, domain: np.ndarray, places: np.ndarray, d: int) -> tuple:
    """Cells on which the 0/1 map w -> sigma[w], defined on the words w
    where `domain` holds, does not act as the identity; `places` holds
    each cell's place value."""
    support = []
    for c, place in enumerate(places):
        shape = (d**c, d, -1)  # axis 1 is digit c
        m, s = domain.reshape(shape), sigma.reshape(shape)
        if np.all(m == m[:, :1]):  # (1) the domain is closed under changing digit c
            digit = s // place % d
            rest = s - digit * place
            keeps = np.all(~m | (digit == np.arange(d)[:, None]))  # (2) it keeps digit c
            if keeps and np.all(~m | (rest == rest[:, :1])):  # (3) the rest ignores digit c
                continue
        support.append(c)
    return tuple(support)


def permutation_causality(
    image: np.ndarray, cells: int, local_dim: int, neighbourhood, *, periodic: bool = True
) -> CausalityReport:
    """`causality_check` of the basis permutation |w> -> |image[w]> of the
    local_dim**cells words (cell 0 the most significant digit), in the form
    `lift_classical` returns, decided on the index map: no matrix is made.

    The image of E_ij at cell x is the partial permutation
    w -> image^-1(image[w] with digit x set to i) on the words w whose
    image has digit j at x. A 0/1 map acts as the identity on cell c
    exactly when (1) its domain is closed under changing digit c, (2) it
    keeps digit c and (3) the rest of the mapped word does not depend on
    digit c. Its commutator norms with the matrix units are 0 or at least
    1, so these supports are `support_of`'s at any tolerance below 1 and
    the report equals the dense check's on the 0/1 matrix (tested). A
    permutation is unitary; an `image` that is not one is refused.
    """
    n, d = cells, local_dim
    words = np.arange(d**n)
    if image.shape != words.shape or not np.array_equal(np.sort(image), words):
        raise ValueError("operator is not a permutation of the basis words")
    inverse = np.empty_like(words)
    inverse[image] = words
    places = d ** np.arange(n - 1, -1, -1)
    supports = {}
    for x, place in enumerate(places):
        digit = image // place % d
        cleared = image - digit * place
        maps = [inverse[cleared + i * place] for i in range(d)]
        domains = [digit == j for j in range(d)]
        supports[x] = {
            (i, j): _map_support(maps[i], domains[j], places, d)
            for i in range(d)
            for j in range(i, d)
        }
    return _report(supports, n, d, neighbourhood, periodic)


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
    """Output of the layered-circuit construction for one causal unitary.

    `gates[x]` is the update gate K_x as (subcells, k_x): its local matrix
    on those subcells of the 2N-subcell register, left subcell 2x first,
    then the right subcells 1, 3, ..., 2N-1. `op_at` on RingSpace(2N, d)
    places it; that register's basis is the doubled ring's. `k_supports[x]`
    holds the cells of the subcells K_x acts on. The layered map H is not
    kept: the defects need only H E, read from the gate product.
    """

    gates: tuple = field(repr=False)
    k_supports: tuple
    allowed: tuple
    he_eg_defect: float
    commutation_residual: float
    product_defect: float

    def supports_contained(self) -> bool:
        return all(set(s) <= set(a) for s, a in zip(self.k_supports, self.allowed))


def _gate_support(subcells, k: np.ndarray, n_sub: int, d: int) -> tuple:
    """Cells acted on by the local matrix k on `subcells` of a register of
    n_sub subcells, subcell s lying in cell s // 2: its support on that
    register at `SUPPORT_TOL`, read from k with the bound divided by
    sqrt(d^(n_sub - len(subcells))), the factor by which the identity on
    the other subcells scales every commutator norm. The doubled ring
    probes a cell with units on both its subcells; its commutator norms c'
    and these c obey c/d <= c' <= 2c, so the two supports can differ only
    where some c lies in (SUPPORT_TOL / 2, d * SUPPORT_TOL].
    """
    local = RingSpace(len(subcells), d)
    tol = SUPPORT_TOL / math.sqrt(d ** (n_sub - len(subcells)))
    return tuple(sorted({subcells[i] // 2 for i in support_of(DenseOperator(local, k), tol)}))


def _times_gates(prod: np.ndarray, gates, n_sub: int, d: int) -> tuple:
    """prod K_1 K_2 ... for gates (subcells, k) on a register of n_sub
    subcells of d levels. Each k acts on the column axes of its subcells:
    those axes are moved last, and the rows times the other axes multiply
    k, in O(rows * cols * d^k) work for k subcells. Each move is a copy
    between `prod`, which is overwritten, and one spare array, and the last
    is left undone. Returns the product as a tensor with one axis per row
    subcell, then one per column subcell, and the column subcells in axis
    order."""
    rows = prod.shape[0]
    order = list(range(n_sub))
    spare = np.empty_like(prod)
    for cells, k in gates:
        new = [s for s in order if s not in cells] + list(cells)
        moved = prod.reshape([rows] + [d] * n_sub).transpose(
            [0] + [1 + order.index(s) for s in new]
        )
        np.copyto(spare.reshape(moved.shape), moved)
        np.matmul(spare.reshape(-1, len(k)), k, out=prod.reshape(-1, len(k)))
        order = new
    return prod.reshape([d] * (2 * n_sub)), order


def build_localization(g: DenseOperator, neighbourhood) -> LocalizationResult:
    """Construct the update gates K_x = Ghat^dag S_x Ghat of a causal ring
    unitary g, their supports, and the defects of the layered map
    H = (prod S_x)(prod K_x), with no matrix product of the doubled
    register's size.

    On the 2N-subcell register (subcell 2x the left and 2x+1 the right
    subcell of cell x) Ghat is g on the right subcells and S_x touches
    subcells 2x and 2x+1, so K_x acts on subcell 2x and the N right
    subcells alone. Its local matrix k_x = (I (x) g)^dag[:, swap] (I (x) g)
    is built on those N+1 subcells, the swap of the first and the (x+2)-th
    a column gather (an involution, so its index map is its own inverse).
    - Supports: from each k_x on its N+1 subcells (`_gate_support`).
    - Commutation residual: max over a < b of ||K_a K_b - K_b K_a||_F, the
      commutator taken on the N+2 subcells where the two act (2a, 2b and
      the right subcells). On the other N-2 left subcells it is the
      identity, which multiplies its norm by sqrt(d^(N-2)).
    - Gate product: the dense K_0 times K_1, ..., K_{N-1}, each applied
      to the column axes it acts on (`_times_gates`), so at most two
      arrays of the doubled register's size are alive at a time.
    - Product defect: in (left, right) subcell order Ghat^dag (prod S_x)
      Ghat = (g (x) g^dag) SWAP, SWAP exchanging the two halves, so its
      entry ((l, r), (l', r')) is g[l, r'] conj(g[l', r]). It is compared
      with the gate product through a transposed view, and Ghat is never
      formed.
    - HE-EG defect: H E is the gate product's columns whose left subcells
      are all empty, with its row subcells swapped pairwise, and E G is G
      on its rows whose left subcells are all empty. Both are read through
      the same view, and H is never formed.
    Each gate entry sums the same nonzero terms as the dense product
    (Ghat^dag S_x) Ghat; for d = 2 the gates come out equal bit for bit
    (tested), for d = 3 within an ulp. The three defects agree with the
    dense construction to rounding (within 1e-13, tested).

    Refuses g, before any array of the doubled register is made, when it
    fails the ring causality check for the claimed neighbourhood: a
    non-causal g gives nonlocal K_x. Requires g to fix the all-empty basis
    state (true for every quiescence-preserving evolution), otherwise the
    HE-EG defect picks up the stray phase.
    """
    report = causality_check(g, neighbourhood)
    if not report.passed:
        w = report.witnesses[0]
        raise ValueError(
            f"operator is not causal for the claimed neighbourhood: observable "
            f"{w.unit} at cell {w.cell} has image support {w.support} "
            f"outside {w.allowed}"
        )
    ring = g.ring
    n, d = ring.cell_count, ring.local_dim
    right = tuple(range(1, 2 * n, 2))
    ghat = np.kron(np.eye(d), g.matrix)  # on subcell 2x, then the right subcells
    ghat_d = ghat.conj().T
    local = np.arange(d * ring.dim).reshape([d] * (n + 1))
    gates = tuple(
        ((2 * x, *right), ghat_d[:, local.swapaxes(0, x + 1).reshape(-1)] @ ghat)
        for x in range(n)
    )
    k_supports = tuple(_gate_support(*gate, 2 * n, d) for gate in gates)
    allowed = tuple(
        tuple(sorted(_neighbourhood_cells(x, neighbourhood, n, True))) for x in range(n)
    )
    pair = RingSpace(n + 2, d)  # subcells 2a, 2b, then the right subcells
    commutation = 0.0
    for (_, ka), (_, kb) in itertools.combinations(gates, 2):
        a = op_at(pair, (0, *range(2, n + 2)), ka).matrix
        b = op_at(pair, (1, *range(2, n + 2)), kb).matrix
        commutation = max(commutation, float(np.linalg.norm(a @ b - b @ a)))
    commutation *= math.sqrt(d ** (n - 2))
    # ascending-cell product of the K_x; commutation makes the order moot
    t, order = _times_gates(op_at(RingSpace(2 * n, d), *gates[0]).matrix, gates[1:], 2 * n, d)
    col = {s: 2 * n + i for i, s in enumerate(order)}  # axis of column subcell s
    left = range(0, 2 * n, 2)
    reference = g.matrix[:, None, None, :] * g.matrix.conj().T[None, :, :, None]
    view = t.transpose([*left, *right, *(col[s] for s in left), *(col[s] for s in right)])
    reference = reference.reshape(view.shape)
    product_defect = float(np.linalg.norm(np.subtract(reference, view, out=reference)))
    # H's row (l, r) is the gate product's row (r, l); E keeps the columns
    # whose left subcells are all empty, and E G is G on H's rows with l = 0
    he_eg = view[(slice(None),) * (2 * n) + (0,) * n].reshape(ring.dim, ring.dim, ring.dim)
    he_eg[:, 0] -= g.matrix
    he_eg_defect = float(np.linalg.norm(he_eg))
    return LocalizationResult(gates, k_supports, allowed, he_eg_defect, commutation, product_defect)


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
    last in a single step at any length. The step is a scatter through
    `lift_classical`'s permutation, the flip a sign vector: only vectors.
    """
    if length < 3:
        raise ValueError("signalling demo needs a word of length >= 3")
    image = lift_classical(xor_window_step, length)
    ring = RingSpace(length, 3)
    idx_f, idx_t = (ring.index_of((s,) * length) for s in (F_SYM, T_SYM))
    c_plus = np.zeros(ring.dim, dtype=np.complex128)
    c_plus[[idx_f, idx_t]] = 1.0 / np.sqrt(2.0)
    c_minus = c_plus.copy()
    c_minus[idx_t] = -1.0 / np.sqrt(2.0)
    d_plus, d_minus = np.empty_like(c_plus), np.empty_like(c_minus)
    d_plus[image], d_minus[image] = c_plus, c_minus  # amplitude i moves to image[i]
    bob = (length - 1,)
    before, after = (
        trace_distance(*(reduced_density_from_vector(w, ring, bob) for w in pair))
        for pair in ((c_plus, c_minus), (d_plus, d_minus))
    )
    # Z = diag(1, -1, 1) on cell 0, the most significant digit
    flip = np.where(np.arange(ring.dim) // 3 ** (length - 1) == T_SYM, -1.0, 1.0)
    phase_flip_defect = float(np.max(np.abs(flip * c_plus - c_minus)))
    return SignallingReport(length, before, after, phase_flip_defect)
