import re
import tracemalloc

import numpy as np
import pytest

from qcalab import pqca
from qcalab.dirac import dirac_scattering_unitary
from qcalab.operators import op_at, translation_operator, unitarity_defect
from qcalab.pqca import (
    Pqca,
    ScatteringUnitary,
    apply_phase,
    check_quiescence,
    composed_step_operator,
    load_unitary,
    pqca_as_ring_operator,
    pqca_evolve,
    pqca_step,
    regroup_pairs,
    save_unitary,
)
from qcalab.state import (
    PRUNE_THRESHOLD,
    Alphabet,
    Configuration,
    RingSpace,
    SparseState,
    densify,
)

QUBIT = Alphabet(2)

SWAP_U = ScatteringUnitary(
    2, 1, np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
)
IDENTITY_U = ScatteringUnitary(2, 1, np.eye(4, dtype=complex))


def quiescence_preserving_unitary(seed: int) -> ScatteringUnitary:
    """1 (+) random U(3): fixes the empty block exactly."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    m = np.eye(4, dtype=complex)
    m[1:, 1:] = q
    return ScatteringUnitary(2, 1, m)


def particle(cell: int) -> SparseState:
    return SparseState.basis(QUBIT, 1, {(cell,): 1})


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def sector_unitary(d: int, n: int, seed: int) -> ScatteringUnitary:
    """Quiescent block rule that keeps the particle number: identity on the
    empty block and one Haar-random block per number of occupied cells
    (1, ..., 2^n). The n = 1, d = 3 case is `1 (+) Q1 (+) Q2`."""
    rng = np.random.default_rng(seed)
    ncells = 2**n
    counts = [
        sum(1 for s in np.base_repr(idx, d).zfill(ncells) if s != "0") for idx in range(d**ncells)
    ]
    m = np.eye(d**ncells, dtype=np.complex128)
    for k in range(1, ncells + 1):
        sector = [idx for idx, c in enumerate(counts) if c == k]
        m[np.ix_(sector, sector)] = haar_unitary(rng, len(sector))
    return ScatteringUnitary(d, n, m)


def _kahan_add(acc: dict, key, value: complex):
    s, comp = acc.get(key, (0.0 + 0.0j, 0.0 + 0.0j))
    y = value - comp
    t = s + y
    acc[key] = (t, (t - s) - y)


def reference_step(state: SparseState, pqca: Pqca, phase: str) -> SparseState:
    """The Configuration-keyed, per-branch Kahan summation that `pqca_step`
    must reproduce bit for bit: same terms, same order, same amplitude bits."""
    u = pqca.scattering
    parity = 0 if phase == "even" else 1
    d = u.alphabet_size
    offsets = u.block_offsets
    dimension = state.dimension
    column_outs = {}
    for idx in range(u.block_dim):
        column = u.matrix[:, idx]
        outs = []
        for row in np.nonzero(np.abs(column) > PRUNE_THRESHOLD)[0]:
            rest = int(row)
            symbols = []
            for _ in range(len(offsets)):
                rest, s = divmod(rest, d)
                symbols.append(s)
            symbols.reverse()
            outs.append((tuple(symbols), complex(column[row])))
        column_outs[idx] = outs
    acc = {}
    for config, amp in state.terms.items():
        occupied = dict(config.cells)
        branches = [((), amp)]
        anchors = sorted({tuple(p - ((p - parity) % 2) for p in point) for point in occupied})
        for anchor in anchors:
            block_cells = tuple(tuple(a + o for a, o in zip(anchor, off)) for off in offsets)
            idx = 0
            for cell in block_cells:
                idx = idx * d + occupied.get(cell, 0)
            expanded = []
            for cells, a in branches:
                for symbols, coef in column_outs[idx]:
                    add = tuple((cell, s) for cell, s in zip(block_cells, symbols) if s != 0)
                    expanded.append((cells + add, a * coef))
            branches = expanded
        for cells, a in branches:
            _kahan_add(acc, Configuration(dimension, cells), a)
    return SparseState(state.alphabet, dimension, {c: s for c, (s, _) in acc.items()})


def reference_evolve(state: SparseState, pqca: Pqca, steps: int) -> SparseState:
    """`reference_step` for `steps` steps, even phase first."""
    for step in range(steps):
        state = reference_step(state, pqca, ("even", "odd")[step % 2])
    return state


def term_bytes(state: SparseState) -> list:
    """Terms in insertion order with the exact bits of each amplitude."""
    return [(c, np.complex128(a).tobytes()) for c, a in state.terms.items()]


class TestScatteringUnitary:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            ScatteringUnitary(2, 1, np.ones((4, 4)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            ScatteringUnitary(2, 1, np.eye(3))


class TestCheckQuiescence:
    def test_identity(self):
        assert check_quiescence(IDENTITY_U) == 0.0

    def test_dirac(self):
        assert check_quiescence(dirac_scattering_unitary(0.9, 0.7)) == 0.0

    def test_first_column_e2(self):
        u = ScatteringUnitary(2, 1, np.eye(4)[:, [2, 1, 0, 3]].astype(complex))
        assert check_quiescence(u) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_pqca_rejects_nonquiescent(self):
        u = ScatteringUnitary(2, 1, np.eye(4)[:, [2, 1, 0, 3]].astype(complex))
        with pytest.raises(ValueError, match="quiescence"):
            Pqca(u)


class TestPqcaStep:
    def test_identity_leaves_state(self):
        s = particle(3)
        out = pqca_step(s, Pqca(IDENTITY_U), "even")
        assert out.terms == s.terms

    def test_swap_moves_particle_within_even_block(self):
        out = pqca_step(particle(0), Pqca(SWAP_U), "even")
        assert list(out.terms) == [Configuration(1, {(1,): 1})]

    def test_swap_odd_phase_uses_shifted_blocks(self):
        out = pqca_step(particle(1), Pqca(SWAP_U), "odd")
        assert list(out.terms) == [Configuration(1, {(2,): 1})]

    def test_massless_transport_crosses_block(self):
        # right-mover entering the (0,1) block exits on the opposite wire
        out = pqca_step(particle(0), Pqca(dirac_scattering_unitary(0.0, 0.5)), "even")
        assert list(out.terms) == [Configuration(1, {(1,): 1})]
        assert out.terms[Configuration(1, {(1,): 1})] == pytest.approx(1.0)

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            pqca_step(particle(0), Pqca(SWAP_U), "sideways")

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(0)
        pq = Pqca(quiescence_preserving_unitary(1))
        terms = {}
        for _ in range(4):
            cells = {(int(c),): int(rng.integers(1, 2)) for c in rng.integers(0, 6, size=2)}
            terms[Configuration(1, cells)] = complex(rng.normal(), rng.normal())
        s = SparseState(QUBIT, 1, terms).normalized()
        for phase in ("even", "odd"):
            assert pqca_step(s, pq, phase).norm() == pytest.approx(1.0, abs=1e-12)


class TestPqcaEvolve:
    def test_zero_steps(self):
        s = particle(0)
        assert pqca_evolve(s, Pqca(SWAP_U), 0).terms == s.terms

    def test_two_swap_steps_advance_two_cells(self):
        out = pqca_evolve(particle(0), Pqca(SWAP_U), 2)
        assert list(out.terms) == [Configuration(1, {(2,): 1})]

    def test_norm_drift_over_many_steps(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=30) + 1j * rng.normal(size=30)
        terms = {
            Configuration(1, {(2 * i,): 1}): a for i, a in enumerate(amps)
        }
        s = SparseState(QUBIT, 1, terms).normalized()
        out = pqca_evolve(s, Pqca(dirac_scattering_unitary(0.4, 0.25)), 200)
        assert abs(out.norm() - 1.0) < 200 * 1e-12


    def test_unknown_start_phase_rejected(self):
        with pytest.raises(ValueError, match="start_phase.*'sideways'"):
            pqca_evolve(particle(0), Pqca(SWAP_U), 0, start_phase="sideways")

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be >= 0, got -3"):
            pqca_evolve(particle(0), Pqca(SWAP_U), -3)


def assert_steps_match(state: SparseState, pq: Pqca, steps: int) -> SparseState:
    """Step `pqca_step` and `reference_step` side by side from `state`,
    even phase first, and compare them bit for bit after every step."""
    ref = state
    for step in range(steps):
        phase = "even" if step % 2 == 0 else "odd"
        state = pqca_step(state, pq, phase)
        ref = reference_step(ref, pq, phase)
        assert term_bytes(state) == term_bytes(ref), f"step {step}"
    return state


class TestBitwiseStep:
    """`pqca_step` equals the Configuration-keyed reference summation by key
    order and by `tobytes()`, which tells -0.0 from 0.0 where == does not."""

    def test_dirac_collision(self):
        # four particles packed into neighbouring blocks; mass * eps = 0.75
        cells = tuple(((x,), 1) for x in (10, 12, 14, 16))
        s = SparseState(QUBIT, 1, {Configuration(1, cells): 1.0})
        out = assert_steps_match(s, Pqca(dirac_scattering_unitary(2.5, 0.3)), 8)
        assert len(out) > 1000

    def test_d3_sector_rule(self):
        s = SparseState(Alphabet(3), 1, {Configuration(1, {(2,): 1, (3,): 2}): 1.0})
        out = assert_steps_match(s, Pqca(sector_unitary(3, 1, 4)), 3)
        assert len(out) > 50

    @pytest.mark.parametrize(
        "u",
        [
            dirac_scattering_unitary(0.8, 0.6),
            ScatteringUnitary(
                2, 1, np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1j, 0, 0], [0, 0, 0, -1]])
            ),
        ],
        ids=["dirac", "signed_permutation"],
    )
    def test_signed_zero_amplitudes(self, u):
        terms = {
            Configuration(1, {(0,): 1}): complex(0.6, -0.0),
            Configuration(1, {(1,): 1}): complex(-0.0, -0.48),
            Configuration(1, {(0,): 1, (3,): 1}): complex(-0.64, 0.0),
            Configuration(1, {(4,): 1}): complex(0.3, 0.0),
        }
        s = SparseState(QUBIT, 1, terms)
        assert any(np.signbit([a.real, a.imag]).any() for a in s.terms.values())
        assert_steps_match(s, Pqca(u), 4)

    def test_two_dimensional_rule(self):
        terms = {
            Configuration(2, {(0, 0): 1, (3, 1): 1}): complex(0.6, -0.0),
            Configuration(2, {(1, 1): 1}): complex(-0.0, 0.8),
        }
        s = SparseState(QUBIT, 2, terms)
        out = assert_steps_match(s, Pqca(sector_unitary(2, 2, 3)), 3)
        assert len(out) > 100


def emptying_unitary(theta: float) -> ScatteringUnitary:
    """The Dirac block composed with a rotation by `theta` between the empty
    block and the right-occupied one: a block holding one particle on its
    right cell comes out empty with amplitude -sin(theta). Inside the
    quiescence tolerance for theta = 1e-11, and far above PRUNE_THRESHOLD."""
    g = np.eye(4, dtype=complex)
    g[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return ScatteringUnitary(2, 1, dirac_scattering_unitary(2.5, 0.3).matrix @ g)


def assert_evolve_matches_steps(state: SparseState, pq: Pqca, steps: int, start_phase: str = "even"):
    """`pqca_evolve` equals `steps` calls of `pqca_step`, by key order and by
    `tobytes()`."""
    stepped = state
    parity = 0 if start_phase == "even" else 1
    for step in range(steps):
        stepped = pqca_step(stepped, pq, ("even", "odd")[(parity + step) % 2])
    evolved = pqca_evolve(state, pq, steps, start_phase)
    assert term_bytes(evolved) == term_bytes(stepped)
    return evolved


class TestEvolveEqualsSteps:
    """The packed state `pqca_evolve` carries between steps loses nothing
    that a `SparseState` holds."""

    def test_dirac_collision(self):
        cells = tuple(((x,), 1) for x in (10, 12, 14, 16))
        s = SparseState(QUBIT, 1, {Configuration(1, cells): 1.0})
        assert len(assert_evolve_matches_steps(s, Pqca(dirac_scattering_unitary(2.5, 0.3)), 8)) > 1000

    def test_d3_sector_rule(self):
        s = SparseState(Alphabet(3), 1, {Configuration(1, {(2,): 1, (3,): 2}): 1.0})
        assert len(assert_evolve_matches_steps(s, Pqca(sector_unitary(3, 1, 4)), 3)) > 50

    def test_two_dimensional_rule(self):
        terms = {
            Configuration(2, {(0, 5): 1, (1, 0): 1, (-3, 2): 1}): complex(0.6, 0.1),
            Configuration(2, {(1, 2): 1}): complex(-0.3, 0.5),
        }
        s = SparseState(QUBIT, 2, terms)
        assert len(assert_evolve_matches_steps(s, Pqca(sector_unitary(2, 2, 5)), 3, "odd")) > 1000

    def test_particles_created_and_removed(self):
        # 1 (+) U(3) turns one particle into two and two into one; the empty
        # configuration is a term of its own that no block touches
        rng = np.random.default_rng(5)
        terms = {Configuration(1, {}): complex(-0.0, 0.3)}
        for _ in range(5):
            cells = {(int(c),): 1 for c in rng.integers(-4, 6, size=rng.integers(1, 4))}
            terms[Configuration(1, cells)] = complex(rng.normal(), rng.normal())
        s = SparseState(QUBIT, 1, terms)
        pq = Pqca(quiescence_preserving_unitary(2))
        out = assert_evolve_matches_steps(s, pq, 2)
        counts = {len(c.cells) for c in out.terms}
        assert 0 in counts and max(counts) > 3
        assert len(out) > 1000
        assert term_bytes(out) == term_bytes(reference_evolve(s, pq, 2))

    def test_blocks_emptied(self):
        # an empty block output drops its pair from the key: a two-particle
        # configuration comes both from three-particle terms with one block
        # emptied, at any of their block levels, and from two-particle terms
        s = SparseState(QUBIT, 1, {Configuration(1, {(1,): 1, (3,): 1, (9,): 1}): 1.0})
        pq = Pqca(emptying_unitary(1e-11))
        out = assert_evolve_matches_steps(s, pq, 4)
        assert {len(c.cells) for c in out.terms} == {2, 3}
        assert term_bytes(out) == term_bytes(reference_evolve(s, pq, 4))

    def test_empty_state(self):
        out = assert_evolve_matches_steps(SparseState(QUBIT, 1, {}), Pqca(SWAP_U), 3)
        assert out.terms == {}

    def test_signed_zero_amplitudes(self):
        terms = {
            Configuration(1, {(0,): 1}): complex(0.6, -0.0),
            Configuration(1, {(1,): 1}): complex(-0.0, -0.48),
            Configuration(1, {(0,): 1, (3,): 1}): complex(-0.64, 0.0),
            Configuration(1, {}): complex(-0.0, -0.0),
        }
        s = SparseState._from_checked(QUBIT, 1, terms)
        signed = ScatteringUnitary(
            2, 1, np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1j, 0, 0], [0, 0, 0, -1]])
        )
        for u in (dirac_scattering_unitary(0.8, 0.6), signed):
            assert_evolve_matches_steps(s, Pqca(u), 4)


class TestPruning:
    """Python's abs of a complex, which pruned the dict stepper's sums, is
    np.hypot bit for bit."""

    @staticmethod
    def assert_hypot_is_abs(z: np.ndarray):
        python = np.array([abs(complex(v)) for v in z])
        assert np.hypot(z.real, z.imag).tobytes() == python.tobytes()

    def test_random_values(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=20000) + 1j * rng.normal(size=20000)
        self.assert_hypot_is_abs(z * np.exp(rng.uniform(-40, 40, size=20000)))

    def test_values_near_the_threshold(self):
        rng = np.random.default_rng(12)
        modulus = PRUNE_THRESHOLD + PRUNE_THRESHOLD * np.finfo(float).eps * rng.integers(-4, 5, size=4000)
        z = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi, size=4000))
        self.assert_hypot_is_abs(z)
        # both sides of the threshold occur, so the comparison decides something
        kept = np.hypot(z.real, z.imag) > PRUNE_THRESHOLD
        assert kept.any() and not kept.all()


class TestWorkingSet:
    # this test's tracemalloc peak with the per-term dict stepper that the
    # packed one replaced (numpy 2.4.6, Python 3.11); the packed stepper
    # peaks at about 4.4 MB
    DICT_STEPPER_PEAK = 9_464_576

    def test_peak_of_separated_particles(self):
        cells = tuple(((x,), 1) for x in (0, 40, 80))
        s = SparseState(QUBIT, 1, {Configuration(1, cells): 1.0})
        pq = Pqca(dirac_scattering_unitary(2.5, 0.3))
        pqca_evolve(s, pq, 2)
        tracemalloc.start()
        try:
            out = pqca_evolve(s, pq, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 24**3
        assert peak <= self.DICT_STEPPER_PEAK


def collision_case():
    cells = tuple(((x,), 1) for x in (10, 12, 14, 16))
    return SparseState(QUBIT, 1, {Configuration(1, cells): 1.0}), Pqca(dirac_scattering_unitary(2.5, 0.3)), 8


def two_dimensional_case():
    terms = {
        Configuration(2, {(0, 5): 1, (1, 0): 1, (-3, 2): 1}): complex(0.6, 0.1),
        Configuration(2, {(1, 2): 1}): complex(-0.3, 0.5),
    }
    return SparseState(QUBIT, 2, terms), Pqca(sector_unitary(2, 2, 5)), 3


def creation_case():
    rng = np.random.default_rng(5)
    terms = {Configuration(1, {}): complex(-0.0, 0.3)}
    for _ in range(5):
        cells = {(int(c),): 1 for c in rng.integers(-4, 6, size=rng.integers(1, 4))}
        terms[Configuration(1, cells)] = complex(rng.normal(), rng.normal())
    return SparseState(QUBIT, 1, terms), Pqca(quiescence_preserving_unitary(2)), 2


def emptied_case():
    s = SparseState(QUBIT, 1, {Configuration(1, {(1,): 1, (3,): 1, (9,): 1}): 1.0})
    return s, Pqca(emptying_unitary(1e-11)), 4


def separated_case():
    cells = tuple(((x,), 1) for x in (0, 40, 80))
    return SparseState(QUBIT, 1, {Configuration(1, cells): 1.0}), Pqca(dirac_scattering_unitary(2.5, 0.3)), 12


def count_interns(monkeypatch) -> list:
    """The entry count of every `_Trie.intern` call from here on, in order."""
    calls = []
    intern = pqca._Trie.intern

    def counted(self, parent, code):
        calls.append(len(parent))
        return intern(self, parent, code)

    monkeypatch.setattr(pqca._Trie, "intern", counted)
    return calls


class TestGroupSize:
    """Trie codes hold `_group_size` pairs each. Any group size keys equal
    configurations alike, so forcing one pair per code or two changes no
    term, no order and no bit. Both intern full groups in mid-sequence,
    which the derived size leaves out on these steps; the emptied blocks
    would split keys if groups were cut by block level."""

    @pytest.mark.parametrize("case", [collision_case, two_dimensional_case, creation_case, emptied_case])
    @pytest.mark.parametrize("group", [1, 2])
    def test_forced_sizes_give_the_same_terms(self, monkeypatch, case, group):
        state, pq, steps = case()
        calls = count_interns(monkeypatch)
        derived = pqca_evolve(state, pq, steps)
        derived_calls = len(calls)
        depths = []

        def forced(pair_radix, total, depth):
            depths.append(depth)
            return group

        monkeypatch.setattr(pqca, "_group_size", forced)
        assert term_bytes(pqca_evolve(state, pq, steps)) == term_bytes(derived)
        assert max(depths) > group
        forced_calls = len(calls) - derived_calls
        assert forced_calls > derived_calls

    def test_one_intern_call_per_chunk(self, monkeypatch):
        # in the style of test_full_size_products: with a group size at or
        # above the depth, a chunk interns once if it holds a non-empty
        # branch and never otherwise
        monkeypatch.setattr(pqca, "_CHUNK", 1)
        calls = count_interns(monkeypatch)
        sizes, chunks = [], []
        group_size, chunk = pqca._group_size, pqca._Stepper._chunk

        def sized(pair_radix, total, depth):
            sizes.append((group_size(pair_radix, total, depth), depth))
            return sizes[-1][0]

        def counted(self, amp, branches, trie, lo, hi):
            before = len(calls)
            key, z = chunk(self, amp, branches, trie, lo, hi)
            chunks.append((len(calls) - before, bool(key.any())))
            return key, z

        monkeypatch.setattr(pqca, "_group_size", sized)
        monkeypatch.setattr(pqca._Stepper, "_chunk", counted)
        for case in (separated_case, collision_case, creation_case, emptied_case):
            pqca_evolve(*case())
        assert all(g >= depth for g, depth in sizes)
        assert len(chunks) > 2 * len(sizes)
        assert {nonempty for _, nonempty in chunks} == {False, True}
        assert all(n == nonempty for n, nonempty in chunks)

    def test_group_size_from_the_step(self):
        # the largest k <= depth with (total * ceil(depth / k) + 1) * R**k < 2**63
        assert pqca._group_size(4000, 10**5, 3) == 3
        assert pqca._group_size(4000, 10**5, 9) == 3
        assert pqca._group_size(2**20, 10**5, 9) == 2
        assert pqca._group_size(2**20, 2**40, 9) == 1
        assert pqca._group_size(8, 1, 100) == 20
        assert pqca._group_size(8, 1, 0) == 1

    def test_unkeyable_step_refused(self):
        with pytest.raises(OverflowError, match="too many branches"):
            pqca._Trie(2**40, pqca._group_size(2**40, 2**30, 4), 2**30 * 4 + 1)


class TestPqcaStepTwoDimensions:
    """The n-D block path on 2x2 blocks of a particle-number-keeping rule."""

    U = sector_unitary(2, 2, 11)

    def test_two_blocks_give_kron_of_block_columns(self):
        s = SparseState.basis(QUBIT, 2, {(0, 0): 1, (2, 3): 1})
        out = pqca_step(s, Pqca(self.U), "even")
        # blocks anchored at (0, 0) and (2, 2); in-block offsets in
        # lexicographic order, first most significant: (0, 0) -> column 8,
        # (0, 1) -> column 4
        cells = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        product = np.kron(self.U.matrix[:, 8], self.U.matrix[:, 4])
        window = RingSpace(len(cells), 2)
        expected = {}
        for idx in np.nonzero(np.abs(product) > PRUNE_THRESHOLD)[0]:
            symbols = window.symbols_of(int(idx))
            config = Configuration(2, {c: s for c, s in zip(cells, symbols) if s})
            expected[config] = product[idx]
        assert len(expected) == 16
        assert set(out.terms) == set(expected)
        for config, amp in expected.items():
            assert abs(out.terms[config] - amp) < 1e-15
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def two_particle_state(self) -> SparseState:
        terms = {
            Configuration(2, {(0, 0): 1, (3, 1): 1}): complex(0.6, 0.1),
            Configuration(2, {(1, 2): 1}): complex(-0.3, 0.5),
            Configuration(2, {(-2, 1): 1, (-1, 1): 1}): complex(0.2, -0.4),
        }
        return SparseState(QUBIT, 2, terms).normalized()

    def test_norm_preserved(self):
        s = self.two_particle_state()
        for step in range(4):
            s = pqca_step(s, Pqca(self.U), "even" if step % 2 == 0 else "odd")
            assert abs(s.norm() - 1.0) < 1e-12

    def test_inverse_rule_in_reverse_phase_order_returns_start(self):
        start = self.two_particle_state()
        forward = pqca_evolve(start, Pqca(self.U), 4)
        inverse = Pqca(ScatteringUnitary(2, 2, self.U.matrix.conj().T))
        back = pqca_evolve(forward, inverse, 4, start_phase="odd")
        keys = set(back.terms) | set(start.terms)
        assert max(abs(back.terms.get(c, 0) - start.terms.get(c, 0)) for c in keys) < 1e-12
        assert len(forward) > len(start)


class TestRingOperator:
    def test_identity_unitary(self):
        ring = RingSpace(4, 2)
        j = pqca_as_ring_operator(Pqca(IDENTITY_U), ring, "even")
        assert np.array_equal(j.matrix, np.eye(16))

    def test_two_cells_equals_scattering_matrix(self):
        ring = RingSpace(2, 2)
        j = pqca_as_ring_operator(Pqca(SWAP_U), ring, "even")
        assert np.array_equal(j.matrix, SWAP_U.matrix)

    def test_odd_ring_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            pqca_as_ring_operator(Pqca(SWAP_U), RingSpace(3, 2), "even")

    def test_even_operator_commutes_with_two_cell_translation(self):
        ring = RingSpace(4, 2)
        pq = Pqca(dirac_scattering_unitary(0.8, 0.6))
        j = pqca_as_ring_operator(pq, ring, "even").matrix
        t = translation_operator(ring).matrix
        t2 = t @ t
        assert np.linalg.norm(j @ t2 - t2 @ j) < 1e-10

    def test_translation_conjugation_swaps_phases(self):
        ring = RingSpace(4, 2)
        pq = Pqca(dirac_scattering_unitary(0.8, 0.6))
        j = pqca_as_ring_operator(pq, ring, "even").matrix
        j_odd = pqca_as_ring_operator(pq, ring, "odd").matrix
        t = translation_operator(ring).matrix
        assert np.linalg.norm(t.conj().T @ j_odd @ t - j) < 1e-12

    def test_phase_maps_are_unitary(self):
        ring = RingSpace(6, 2)
        pq = Pqca(quiescence_preserving_unitary(3))
        for phase in ("even", "odd"):
            assert unitarity_defect(pqca_as_ring_operator(pq, ring, phase).matrix) < 1e-10

    def test_regroup_requires_even_cells(self):
        from qcalab.operators import identity_operator

        with pytest.raises(ValueError, match="even"):
            regroup_pairs(identity_operator(RingSpace(3, 2)))


class TestBackendAgreement:
    """Three engines step one state: the sparse stepper, `apply_phase` and
    the assembled ring operator. Supports stay away from the wrap."""

    @staticmethod
    def assert_engines_agree(s: SparseState, pq: Pqca, ring: RingSpace):
        vec = densify(s, ring)
        free = vec
        sp = s
        for step, phase in enumerate(("even", "odd", "even")):
            sp = pqca_step(sp, pq, phase)
            vec = pqca_as_ring_operator(pq, ring, phase).matrix @ vec
            free = apply_phase(free, pq, ring, phase)
            assert np.max(np.abs(densify(sp, ring) - vec)) < 1e-10, f"step {step}"
            assert np.max(np.abs(free - vec)) < 1e-12, f"step {step}"

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_matches_dense_ring(self, seed):
        ring = RingSpace(8, 2)
        pq = Pqca(quiescence_preserving_unitary(seed))
        rng = np.random.default_rng(100 + seed)
        terms = {}
        for _ in range(3):
            cells = {(int(c),): 1 for c in rng.integers(3, 5, size=rng.integers(1, 3))}
            terms[Configuration(1, cells)] = complex(rng.normal(), rng.normal())
        self.assert_engines_agree(SparseState(QUBIT, 1, terms).normalized(), pq, ring)

    @pytest.mark.parametrize("seed", range(3))
    def test_d3_sector_rule(self, seed):
        ring = RingSpace(6, 3)
        pq = Pqca(sector_unitary(3, 1, seed))
        rng = np.random.default_rng(200 + seed)
        terms = {}
        for _ in range(3):
            cells = {(int(c),): int(rng.integers(1, 3)) for c in rng.integers(2, 4, size=2)}
            terms[Configuration(1, cells)] = complex(rng.normal(), rng.normal())
        self.assert_engines_agree(SparseState(Alphabet(3), 1, terms).normalized(), pq, ring)

    def test_entangled_multiblock_term(self):
        # one term occupying two separate blocks exercises the branch product
        ring = RingSpace(6, 2)
        pq = Pqca(dirac_scattering_unitary(0.7, 0.9))
        s = SparseState.basis(QUBIT, 1, {(1,): 1, (4,): 1})
        vec = densify(s, ring)
        out = pqca_step(s, pq, "even")
        ref = pqca_as_ring_operator(pq, ring, "even").matrix @ vec
        assert np.max(np.abs(densify(out, ring) - ref)) < 1e-12
        assert np.max(np.abs(apply_phase(vec, pq, ring, "even") - ref)) < 1e-12


class TestApplyPhase:
    @pytest.mark.parametrize("cells", [2, 4, 6, 8])
    def test_identity_gives_dirac_ring_operator(self, cells):
        ring = RingSpace(cells, 2)
        pq = Pqca(dirac_scattering_unitary(0.8, 0.6))
        for phase in ("even", "odd"):
            j = pqca_as_ring_operator(pq, ring, phase).matrix
            assert np.array_equal(apply_phase(np.eye(ring.dim), pq, ring, phase), j)

    @pytest.mark.parametrize("cells", [2, 4, 6])
    def test_identity_gives_d3_ring_operator(self, cells):
        ring = RingSpace(cells, 3)
        pq = Pqca(sector_unitary(3, 1, cells))
        for phase in ("even", "odd"):
            j = pqca_as_ring_operator(pq, ring, phase).matrix
            assert np.max(np.abs(apply_phase(np.eye(ring.dim), pq, ring, phase) - j)) <= 1e-15

    def test_composed_step_equals_product_of_phases(self):
        ring = RingSpace(6, 3)
        pq = Pqca(sector_unitary(3, 1, 5))
        even, odd = (pqca_as_ring_operator(pq, ring, ph).matrix for ph in ("even", "odd"))
        assert np.max(np.abs(composed_step_operator(pq, ring).matrix - odd @ even)) <= 1e-15

    @pytest.mark.parametrize("cells,d", [(4, 2), (6, 2), (6, 3)])
    def test_open_chain_has_no_wrap_block(self, cells, d):
        ring = RingSpace(cells, d)
        pq = Pqca(sector_unitary(d, 1, cells) if d == 3 else quiescence_preserving_unitary(cells))
        u = pq.scattering.matrix
        even = pqca_as_ring_operator(pq, ring, "even").matrix
        inner = np.array([[1.0 + 0.0j]])
        for _ in range(cells // 2 - 1):
            inner = np.kron(inner, u)
        odd = op_at(ring, range(1, cells - 1), inner).matrix
        open_step = composed_step_operator(pq, ring, periodic=False).matrix
        assert np.max(np.abs(open_step - odd @ even)) <= 1e-15

    def test_batch_equals_each_column(self):
        ring = RingSpace(6, 2)
        pq = Pqca(quiescence_preserving_unitary(4))
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(ring.dim, 5)) + 1j * rng.normal(size=(ring.dim, 5))
        for phase in ("even", "odd"):
            out = apply_phase(batch, pq, ring, phase)
            for k in range(5):
                assert np.max(np.abs(out[:, k] - apply_phase(batch[:, k], pq, ring, phase))) <= 1e-15

    @pytest.mark.parametrize(
        "pq,ring,phase,message",
        [
            (Pqca(sector_unitary(2, 2, 0)), RingSpace(4, 2), "even", "1D"),
            (Pqca(SWAP_U), RingSpace(4, 3), "even", "local dimension"),
            (Pqca(SWAP_U), RingSpace(3, 2), "odd", "odd"),
            (Pqca(SWAP_U), RingSpace(4, 2), "both", "phase"),
        ],
        ids=["2d-rule", "alphabet", "odd-ring", "phase"],
    )
    def test_rejects_what_the_assembly_rejects(self, pq, ring, phase, message):
        with pytest.raises(ValueError, match=message):
            pqca_as_ring_operator(pq, ring, phase)
        with pytest.raises(ValueError, match=message):
            apply_phase(np.ones(ring.dim), pq, ring, phase)

    @pytest.mark.parametrize("shape", [(8,), (8, 2), (16, 2, 2), ()])
    def test_rejects_arrays_off_the_ring(self, shape):
        with pytest.raises(ValueError, match="ring dimension 16"):
            apply_phase(np.ones(shape), Pqca(SWAP_U), RingSpace(4, 2), "even")


class TestComposedStep:
    def test_composed_step_is_causal_on_supercells(self):
        from qcalab.structure import causality_check

        ring = RingSpace(8, 2)
        g2 = regroup_pairs(composed_step_operator(Pqca(dirac_scattering_unitary(0.5, 0.3)), ring))
        assert causality_check(g2, (-1, 0, 1)).passed
        assert not causality_check(g2, (0,)).passed


class TestUnitaryFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "u.txt"
        u = dirac_scattering_unitary(0.37, 1.1)
        save_unitary(u, path)
        loaded = load_unitary(path)
        assert loaded.alphabet_size == 2 and loaded.dimension == 1
        assert np.allclose(loaded.matrix, u.matrix, atol=1e-16)

    def test_header_format(self, tmp_path):
        path = tmp_path / "u.txt"
        save_unitary(SWAP_U, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 1"
        assert len(lines) == 5
        assert lines[1].split() == ["1", "0", "0", "0", "0", "0", "0", "0"]

    @pytest.mark.parametrize(
        "header, message",
        [
            ("2", "header must be 'd n'"),
            ("x 1", "header field d must be an integer, got 'x'"),
            ("2 x", "header field n must be an integer, got 'x'"),
            ("2 1.0", "header field n must be an integer, got '1.0'"),
            ("1 1", "header field d must be >= 2, got 1"),
            ("2 -1", "header field n must be >= 1, got -1"),
            ("2 0", "header field n must be >= 1, got 0"),
            ("65 1", re.escape("d=65, n=1 give a block dimension d^(2^n) above the cap 4096")),
            ("2 4", "d=2, n=4 give a block dimension"),
            ("2 40", "d=2, n=40 give a block dimension"),
            ("2 1000000000000", "d=2, n=1000000000000 give a block dimension"),
        ],
    )
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=message):
            load_unitary(path)

    def test_header_at_cap_reads_rows(self, tmp_path):
        # 64^2 = 4096 is allowed; the missing rows are what fails
        path = tmp_path / "rows.txt"
        path.write_text("64 1\n")
        with pytest.raises(ValueError, match="expected 4096 matrix rows, got 0"):
            load_unitary(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0\n")
        with pytest.raises(ValueError, match="expected 8 numbers"):
            load_unitary(path)

    def test_non_numeric_entry_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0 0 0 0 0 0 0\n1 0 0 0 0 0 x 0\n")
        with pytest.raises(ValueError) as err:
            load_unitary(path)
        assert str(err.value) == f"{path}:3: entry 'x' is not a number"
