import itertools
import tracemalloc

import numpy as np
import pytest

from qcalab.dirac import dirac_scattering_unitary
from qcalab import structure
from qcalab.operators import (
    SUPPORT_TOL,
    DenseOperator,
    identity_operator,
    op_at,
    reduced_density_from_vector,
    support_of,
    trace_distance,
    unitarity_defect,
)
from qcalab.pqca import (
    Pqca,
    ScatteringUnitary,
    composed_step_operator,
    pqca_as_ring_operator,
    regroup_pairs,
)
from qcalab.state import RingSpace
from qcalab.structure import (
    EMPTY,
    F_SYM,
    T_SYM,
    CausalityReport,
    CausalityWitness,
    build_localization,
    causality_check,
    extend_to_right_subcells,
    lift_classical,
    permutation_causality,
    quiescence_preserving_local,
    signalling_demo,
    single_cell_product,
    subcell_swap,
    xor_lifted,
    xor_plus,
    xor_window_step,
)
from reference import (
    dense_permutation_causality,
    density_from_vector,
    partial_trace,
    tensor_state,
    word_by_word_lift,
    xor_word_step,
)


def dirac_block_layer(cells=4, mass=0.6, eps=0.5):
    ring = RingSpace(cells, 2)
    pq = Pqca(dirac_scattering_unitary(mass, eps))
    j = pqca_as_ring_operator(pq, ring, "even")
    blocks = {x: {x - (x % 2), x - (x % 2) + 1} for x in range(cells)}
    return j, blocks


class TestXorRule:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (T_SYM, F_SYM, T_SYM),
            (F_SYM, T_SYM, T_SYM),
            (T_SYM, T_SYM, F_SYM),
            (F_SYM, F_SYM, F_SYM),
            (T_SYM, EMPTY, T_SYM),
            (EMPTY, T_SYM, EMPTY),
            (EMPTY, EMPTY, EMPTY),
        ],
    )
    def test_pair_table(self, a, b, expected):
        assert xor_plus(a, b) == expected

    def test_all_f_word_is_fixed(self):
        assert tuple(xor_window_step((F_SYM,) * 4)) == (F_SYM,) * 4

    def test_all_t_word_collapses_to_the_f_image(self):
        assert tuple(xor_window_step((T_SYM,) * 4)) == (F_SYM, F_SYM, F_SYM, T_SYM)

    def test_lone_t_survives_in_place(self):
        assert tuple(xor_window_step((T_SYM,))) == (T_SYM,)

    def test_word_with_gap(self):
        assert tuple(xor_window_step((T_SYM, EMPTY, T_SYM))) == (T_SYM, EMPTY, T_SYM)

    def test_support_never_grows(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            word = tuple(int(s) for s in rng.integers(0, 3, size=rng.integers(1, 9)))
            stepped = xor_window_step(word)
            occupied = {i for i, s in enumerate(word) if s != EMPTY}
            occupied_after = {i for i, s in enumerate(stepped) if s != EMPTY}
            assert occupied_after <= occupied


    def test_array_of_words_steps_row_by_row(self):
        words = np.random.default_rng(2).integers(0, 3, size=(200, 6))
        stepped = xor_window_step(words)
        assert stepped.shape == words.shape
        assert [tuple(row) for row in stepped] == [xor_word_step(tuple(row)) for row in words]


class TestLifting:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7])
    def test_xor_lift_equals_the_word_by_word_lift(self, length):
        assert np.array_equal(lift_classical(xor_window_step, length), word_by_word_lift(xor_word_step, length))

    def test_random_permutation_of_words(self):
        # a step that is any permutation of the 2^5 words, not a local rule
        perm = np.random.default_rng(4).permutation(2**5)
        weights = 2 ** np.arange(4, -1, -1)

        def step(words):
            return perm[words @ weights][:, None] // weights % 2

        assert np.array_equal(lift_classical(step, 5, 2), perm)

    def test_symbol_outside_the_alphabet_named(self):
        with pytest.raises(ValueError) as err:
            lift_classical(lambda w: 2 * w, 2)
        assert str(err.value) == "step image (0, 4) leaves the window basis"

    def test_identity_step(self):
        image = lift_classical(lambda w: w, 3)
        assert np.array_equal(image, np.arange(27))

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_xor_lifting_is_a_permutation(self, length):
        lifted = xor_lifted(length)
        m = lifted.matrix
        assert unitarity_defect(m) == 0.0
        assert np.array_equal(np.sort(np.argmax(m, axis=0)), np.arange(3**length))

    def test_left_shift_rejected_with_colliding_pair(self):
        def shift_left(w):
            return np.column_stack((w[:, 1:], np.zeros(len(w), dtype=int)))

        with pytest.raises(ValueError, match="not injective") as err:
            lift_classical(shift_left, 3)
        assert "map to" in str(err.value)

    def test_colliding_pair_is_the_first_in_word_order(self):
        with pytest.raises(ValueError) as err:
            lift_classical(lambda w: np.column_stack((w[:, 1:], np.zeros(len(w), dtype=int))), 3)
        assert str(err.value) == (
            "step is not injective over the window: (0, 0, 0) and (1, 0, 0) both map to (0, 0, 0)"
        )

    def test_words_past_the_dense_cap(self):
        # 3^8 words: the words are indexed by arithmetic, not by a RingSpace
        assert np.array_equal(lift_classical(lambda w: w, 8), np.arange(3**8))

    def test_step_leaving_basis_rejected(self):
        with pytest.raises(ValueError, match="leaves the window"):
            lift_classical(lambda w: np.column_stack((w, np.zeros(len(w), dtype=int))), 2)

    def test_lifting_matches_word_step(self):
        lifted = xor_lifted(4)
        ring = lifted.ring
        rng = np.random.default_rng(1)
        for _ in range(20):
            word = tuple(rng.integers(0, 3, size=4))
            vec = np.zeros(ring.dim)
            vec[ring.index_of(word)] = 1.0
            out = lifted.matrix @ vec
            assert out[ring.index_of(xor_window_step(word))] == 1.0


class TestSignalling:
    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7])
    def test_distance_zero_before_one_after(self, length):
        rep = signalling_demo(length)
        assert rep.before < 1e-12
        assert rep.after == pytest.approx(1.0, abs=1e-10)
        assert rep.phase_flip_defect == 0.0

    def test_receiver_distance_at_most_one(self, monkeypatch):
        # the receiver states after the step are orthogonal; the rounded
        # eigenvalue sum can read 1 + 2^-52 unless it is clamped
        receivers = []

        def spy(vector, ring, keep):
            receivers.append(reduced_density_from_vector(vector, ring, keep))
            return receivers[-1]

        monkeypatch.setattr(structure, "reduced_density_from_vector", spy)
        rep = signalling_demo(7)
        assert len(receivers) == 4
        after = trace_distance(*receivers[2:])
        assert after == rep.after
        assert 1.0 - 1e-12 < after <= 1.0

    def test_short_words_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            signalling_demo(2)


class TestSignallingPermutation:
    """`signalling_demo` steps c+ and c- by a scatter through the basis
    permutation and flips the sender's phase with a sign vector; the dense
    0/1 matrix is the reference (the whole report is compared with the
    dense build in `test_cli.py::TestSignalCommand`)."""

    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7])
    def test_scattered_states_equal_the_dense_product(self, monkeypatch, length):
        seen = []

        def spy(vector, ring, keep):
            seen.append(vector.copy())
            return reduced_density_from_vector(vector, ring, keep)

        monkeypatch.setattr(structure, "reduced_density_from_vector", spy)
        signalling_demo(length)
        c_plus, c_minus, d_plus, d_minus = seen
        matrix = xor_lifted(length).matrix
        # array_equal takes -0.0 == 0.0: the product may sign a zero otherwise
        assert np.array_equal(d_plus, matrix @ c_plus)
        assert np.array_equal(d_minus, matrix @ c_minus)

    def test_no_array_of_the_squared_size(self, monkeypatch):
        # one 3^14-element array of any dtype takes at least 3^14 bytes
        squared = 3**14

        def refusing(make, size):
            def checked(*args, **kwargs):
                assert size(*args) < squared, f"an array of {size(*args)} elements"
                return make(*args, **kwargs)

            return checked

        shape_size = lambda shape, *_: np.prod(shape)  # noqa: E731
        monkeypatch.setattr(np, "zeros", refusing(np.zeros, shape_size))
        monkeypatch.setattr(np, "empty", refusing(np.empty, shape_size))
        monkeypatch.setattr(np, "eye", refusing(np.eye, lambda n, m=None, *_: n * (m or n)))
        tracemalloc.start()
        try:
            rep = signalling_demo(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.after == pytest.approx(1.0, abs=1e-10)
        assert peak < squared, f"peak {peak} bytes"


class TestCausalityCheck:
    def test_identity_with_trivial_neighbourhood(self):
        rep = causality_check(identity_operator(RingSpace(4, 2)), (0,))
        assert rep.passed and not rep.witnesses

    def test_composed_step_on_supercells(self):
        ring = RingSpace(8, 2)
        pq = Pqca(dirac_scattering_unitary(0.9, 0.4))
        g2 = regroup_pairs(composed_step_operator(pq, ring))
        assert causality_check(g2, (-1, 0, 1)).passed

    def test_lifted_xor_fails_below_full_radius(self):
        f_hat = xor_lifted(4)
        for radius in (0, 1, 2):
            offsets = tuple(range(-radius, radius + 1))
            rep = causality_check(f_hat, offsets, periodic=False)
            assert not rep.passed, f"radius {radius} unexpectedly causal"
            assert any(w.cell == 3 for w in rep.witnesses), "no witness at the last cell"

    def test_block_layer_with_dict_neighbourhood(self):
        j, blocks = dirac_block_layer()
        assert causality_check(j, blocks).passed

    def test_nonunitary_rejected(self):
        ring = RingSpace(2, 2)
        with pytest.raises(ValueError, match="not unitary"):
            causality_check(DenseOperator(ring, 2 * np.eye(4)), (0,))


def reference_causality(g, neighbourhood, *, periodic=True, tol=1e-10):
    """The check with every image built in full: for every cell and every
    matrix unit, the unit embedded by `op_at`, conjugated by two dense
    products and passed to `support_of`."""
    ring = g.ring
    n, d = ring.cell_count, ring.local_dim
    gm = g.matrix
    gd = gm.conj().T
    witnesses = []
    for x in range(n):
        if isinstance(neighbourhood, dict):
            allowed = set(neighbourhood[x])
        elif periodic:
            allowed = {(x + off) % n for off in neighbourhood}
        else:
            allowed = {x + off for off in neighbourhood if 0 <= x + off < n}
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                a = op_at(ring, (x,), unit)
                supp = support_of(DenseOperator(ring, gd @ a.matrix @ gm), tol)
                if not set(supp) <= allowed:
                    witnesses.append(CausalityWitness(x, (i, j), supp, tuple(sorted(allowed))))
    return CausalityReport(not witnesses, tuple(witnesses), neighbourhood, periodic)


def dirac_supercell_step(cells, mass=0.7, eps=0.35):
    pq = Pqca(dirac_scattering_unitary(mass, eps))
    return regroup_pairs(composed_step_operator(pq, RingSpace(cells, 2)))


def phase_broken_step():
    """The 8-cell Dirac step followed by a phase on one supercell."""
    g = dirac_supercell_step(8)
    phase = op_at(g.ring, (2,), np.diag([1.0, np.exp(0.3j), 1.0, 1.0]))
    return DenseOperator(g.ring, phase.matrix @ g.matrix)


def d3_sector_pqca():
    """A d=3 rule `1 (+) Q1 (+) Q2`: Haar blocks on the one- and
    two-particle block states."""
    rng = np.random.default_rng(11)
    m = np.eye(9, dtype=complex)
    for sector in ((1, 2, 3, 6), (4, 5, 7, 8)):
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m[np.ix_(sector, sector)] = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return Pqca(ScatteringUnitary(3, 1, m))


def quiescent_d3_step():
    """The d=3 sector rule as a composed step on 2 supercells."""
    return regroup_pairs(composed_step_operator(d3_sector_pqca(), RingSpace(4, 3)))


SUPERCELL_NEIGHBOURHOODS = [(-1, 0, 1), (0,), (0, 1), (-1, 0)]


class TestCausalityAgainstReference:
    """`causality_check` builds only some images; its report, witness order
    included, must equal the one from every image built in full."""

    @pytest.mark.parametrize("cells", [4, 8])
    @pytest.mark.parametrize("nbhd", SUPERCELL_NEIGHBOURHOODS)
    def test_dirac_supercell_steps(self, cells, nbhd):
        g = dirac_supercell_step(cells)
        assert causality_check(g, nbhd) == reference_causality(g, nbhd)

    @pytest.mark.parametrize("length", [4, 5])
    @pytest.mark.parametrize("nbhd", [(-2, -1, 0, 1, 2), (0, 1), (0,)])
    def test_xor_windows(self, length, nbhd):
        g = xor_lifted(length)
        rep = causality_check(g, nbhd, periodic=False)
        assert rep == reference_causality(g, nbhd, periodic=False)
        assert rep.witnesses

    def test_block_layer_dict_neighbourhood(self):
        j, blocks = dirac_block_layer()
        assert causality_check(j, blocks) == reference_causality(j, blocks)
        shrunk = {x: {x} for x in blocks}
        rep = causality_check(j, shrunk)
        assert rep.witnesses and rep == reference_causality(j, shrunk)

    @pytest.mark.parametrize("nbhd", [(-1, 0, 1), (0,)])
    def test_d3_quiescent_rule(self, nbhd):
        g = quiescent_d3_step()
        assert causality_check(g, nbhd) == reference_causality(g, nbhd)

    @pytest.mark.parametrize("nbhd", SUPERCELL_NEIGHBOURHOODS)
    def test_step_broken_at_one_cell(self, nbhd):
        g = phase_broken_step()
        assert causality_check(g, nbhd) == reference_causality(g, nbhd)

    def test_witnesses_are_found(self):
        for g in (dirac_supercell_step(8), phase_broken_step()):
            rep = causality_check(g, (0,))
            assert not rep.passed and len(rep.witnesses) == 64

    @pytest.mark.parametrize(
        "g,kwargs,images",
        [
            (dirac_supercell_step(8), {}, 10),  # cell 0 only, i <= j
            (phase_broken_step(), {}, 4 * 10),
            (xor_lifted(4), {"periodic": False}, 4 * 6),
        ],
    )
    def test_images_built(self, monkeypatch, g, kwargs, images):
        calls = []

        def counted(op, tol=SUPPORT_TOL):
            calls.append(op)
            return support_of(op, tol)

        monkeypatch.setattr(structure, "support_of", counted)
        causality_check(g, (-1, 0, 1), **kwargs)
        assert len(calls) == images


def dense_step_report(pq, cells, nbhd):
    ring = RingSpace(cells, pq.scattering.alphabet_size)
    return causality_check(regroup_pairs(composed_step_operator(pq, ring)), nbhd)


class TestComposedStepCausality:
    """The light-cone window against the dense ring step, report for report."""

    @pytest.mark.parametrize("cells", [4, 6, 8])
    @pytest.mark.parametrize("mass,eps", [(0.0, 0.3), (0.7, 0.35), (1.3, 0.8)])
    @pytest.mark.parametrize("nbhd", SUPERCELL_NEIGHBOURHOODS)
    def test_dirac_equals_dense(self, cells, mass, eps, nbhd):
        pq = Pqca(dirac_scattering_unitary(mass, eps))
        assert structure.composed_step_causality(pq, cells, nbhd) == dense_step_report(pq, cells, nbhd)

    @pytest.mark.parametrize("nbhd", SUPERCELL_NEIGHBOURHOODS)
    def test_d3_rule_equals_dense(self, nbhd):
        # 6 raw cells hold the light cone: the ring's dense step is 729 x 729
        pq = d3_sector_pqca()
        assert structure.composed_step_causality(pq, 6, nbhd) == dense_step_report(pq, 6, nbhd)

    def test_dict_neighbourhood(self):
        pq = Pqca(dirac_scattering_unitary(0.7, 0.35))
        shrunk = {x: {x, (x + 1) % 4} for x in range(4)}
        rep = structure.composed_step_causality(pq, 8, shrunk)
        assert rep.witnesses and rep == dense_step_report(pq, 8, shrunk)

    @pytest.mark.parametrize("cells", [8, 12, 1000])
    def test_images_built_at_one_window_cell(self, monkeypatch, cells):
        calls = []

        def counted(op, tol=SUPPORT_TOL):
            calls.append(op.ring)
            return support_of(op, tol)

        monkeypatch.setattr(structure, "support_of", counted)
        rep = structure.composed_step_causality(Pqca(dirac_scattering_unitary(0.7, 0.35)), cells, (0,))
        assert calls == [RingSpace(3, 4)] * 10
        assert len(rep.witnesses) == cells // 2 * 16

    def test_unitarity_bound_grows_with_the_ring(self):
        # block defect 1e-11: the step's bound (1 + 1e-11)^N - 1 passes
        # UNITARITY_TOL at 8 cells and not at 12
        scale = np.sqrt(1 + 1e-11 / 2)
        pq = Pqca(ScatteringUnitary(2, 1, scale * dirac_scattering_unitary(0.7, 0.35).matrix))
        assert unitarity_defect(pq.scattering.matrix) == pytest.approx(1e-11, rel=1e-3)
        assert structure.composed_step_causality(pq, 8, (-1, 0, 1)).passed
        with pytest.raises(ValueError, match="not unitary: defect bound 1.200e-10 for 12 cells"):
            structure.composed_step_causality(pq, 12, (-1, 0, 1))

    def test_odd_ring_refused(self):
        with pytest.raises(ValueError, match="odd"):
            structure.composed_step_causality(Pqca(dirac_scattering_unitary(0.7, 0.35)), 9, (0,))


def digit_table(n, d):
    """Row w holds the n digits of word w, cell 0 the most significant."""
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.intp).reshape(d**n, n)


def word_index(digits, d):
    return digits @ d ** np.arange(digits.shape[1] - 1, -1, -1)


def local_permutation(n, d, cells, local):
    """The basis permutation that applies the permutation `local` of the
    words on `cells` (in that order) and leaves the other cells alone."""
    table = digit_table(n, d)
    new = table.copy()
    new[:, list(cells)] = digit_table(len(cells), d)[local[word_index(table[:, list(cells)], d)]]
    return word_index(new, d)


def digit_rotation(n, d):
    """Cell c takes the symbol of cell c + 1 (mod n)."""
    return word_index(np.roll(digit_table(n, d), -1, axis=1), d)


XOR_NEIGHBOURHOODS = [(-1, 0, 1), (0,), (0, 1), (-1, 0), (-2, -1, 0, 1, 2), (0, 1, 2), tuple(range(-3, 4))]
RING_NEIGHBOURHOODS = [(0,), (-1, 0, 1), (0, 1), (-1, 0)]


def _permutation_cases():
    """(name, image, cells, d, periodic): seeded random permutations, and
    structured ones whose supports are partial, so that each of the three
    conditions of `structure._map_support` alone decides some cell."""
    rng = np.random.default_rng(20)
    cases = []
    for d in (2, 3):
        for n in range(2, 6):
            for periodic in (True, False):
                cases.append((f"random-d{d}-n{n}-{periodic}", rng.permutation(d**n), n, d, periodic))
            cases.append((f"rotation-d{d}-n{n}", digit_rotation(n, d), n, d, True))
            cases.append((f"increment-d{d}-n{n}", (np.arange(d**n) + 1) % d**n, n, d, True))
            fixed = int(rng.integers(n))
            others = [c for c in range(n) if c != fixed]
            cases.append((f"fixes-cell-{fixed}-d{d}-n{n}",
                          local_permutation(n, d, others, rng.permutation(d ** (n - 1))), n, d, False))
            first = int(rng.integers(n - 1))
            pair = [first, first + 1]
            cases.append((f"pair-{first}-d{d}-n{n}",
                          local_permutation(n, d, pair, rng.permutation(d * d)), n, d, True))
            if n >= 3:
                # a Toffoli gate's generalization: the image of E_ij (i != j)
                # at t keeps c's digit and its domain, yet moves s by c's digit
                c, t, target = (int(v) for v in rng.permutation(n)[:3])
                table = digit_table(n, d)
                table[:, target] = (table[:, target] + table[:, c] * table[:, t]) % d
                cases.append((f"adder-{c}{t}{target}-d{d}-n{n}", word_index(table, d), n, d, False))
    return cases


PERMUTATION_CASES = _permutation_cases()


class TestPermutationCausality:
    """`permutation_causality` reads the supports off the index map; its
    report, witnesses and their order included, must equal the dense
    check's on the 0/1 matrix."""

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
    def test_xor_windows(self, monkeypatch, length):
        image = lift_classical(xor_window_step, length)
        g = xor_lifted(length)
        # the dense images do not depend on the neighbourhood: build them once
        built, dense_supports = {}, structure._unit_supports

        def cached(op, x):
            if x not in built:
                built[x] = dense_supports(op, x)
            return built[x]

        monkeypatch.setattr(structure, "_unit_supports", cached)
        for nbhd in XOR_NEIGHBOURHOODS + [{x: {0, x} for x in range(length)}]:
            rep = permutation_causality(image, length, 3, nbhd, periodic=False)
            assert rep == causality_check(g, nbhd, periodic=False), nbhd

    @pytest.mark.parametrize("cells", range(1, 11))
    def test_identity_rings(self, cells):
        g = identity_operator(RingSpace(cells, 2))
        for nbhd in [(0,), (1,), (-1, 0, 1), {x: {x} for x in range(cells)}]:
            rep = permutation_causality(np.arange(2**cells), cells, 2, nbhd)
            assert rep == causality_check(g, nbhd), nbhd
            assert rep.passed == (nbhd != (1,) or cells == 1)

    @pytest.mark.parametrize(
        "image,cells,d,periodic", [c[1:] for c in PERMUTATION_CASES], ids=[c[0] for c in PERMUTATION_CASES]
    )
    def test_permutations(self, image, cells, d, periodic):
        for nbhd in RING_NEIGHBOURHOODS:
            rep = permutation_causality(image, cells, d, nbhd, periodic=periodic)
            assert rep == dense_permutation_causality(image, cells, d, nbhd, periodic=periodic), nbhd

    def test_cell_left_alone_is_outside_every_support(self):
        image = local_permutation(4, 3, (0, 1, 3), np.random.default_rng(5).permutation(27))
        # observables at cell 2 stay there; the others never reach it
        rep = permutation_causality(image, 4, 3, {0: {0, 1, 3}, 1: {0, 1, 3}, 2: {2}, 3: {0, 1, 3}})
        assert rep.passed and not rep.witnesses

    def test_not_a_permutation_refused(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_causality(np.array([0, 0, 2, 3]), 2, 2, (0,))


class TestTranslationInvariance:
    @pytest.mark.parametrize(
        "g",
        [
            identity_operator(RingSpace(4, 2)),
            single_cell_product(RingSpace(4, 2), quiescence_preserving_local(2, 3)),
            single_cell_product(RingSpace(3, 3), quiescence_preserving_local(3, 5)),
            dirac_supercell_step(4),
            dirac_supercell_step(8),
        ],
    )
    def test_holds(self, g):
        assert structure._translation_defect(g) <= 1e-3 * 1e-10

    @pytest.mark.parametrize("g", [dirac_block_layer()[0], phase_broken_step()])
    def test_fails(self, g):
        assert structure._translation_defect(g) > 0.1

    def test_matches_conjugation_by_translation(self):
        from qcalab.operators import translation_operator

        g = phase_broken_step()
        t = translation_operator(g.ring).matrix
        expected = np.linalg.norm(g.matrix - t @ g.matrix @ t.conj().T)
        assert structure._translation_defect(g) == pytest.approx(expected, rel=1e-12)


def dense_gates(loc, ring):
    """The update gates as dense operators on the doubled ring, placed by
    `op_at` on the 2N-subcell register, whose basis is the doubled ring's."""
    subcells = RingSpace(2 * ring.cell_count, ring.local_dim)
    big = structure.doubled_ring(ring)
    return [DenseOperator(big, op_at(subcells, cells, k).matrix) for cells, k in loc.gates]


class TestLocalization:
    def test_identity_gates_are_the_subcell_swaps(self):
        ring = RingSpace(3, 2)
        loc = build_localization(identity_operator(ring), (0,))
        assert loc.he_eg_defect == 0.0
        for x, k in enumerate(dense_gates(loc, ring)):
            assert np.array_equal(k.matrix, subcell_swap(ring, x).matrix)
        assert loc.k_supports == ((0,), (1,), (2,))

    @pytest.mark.parametrize("cells,d", [(1, 2), (3, 2), (2, 3)])
    def test_gates_act_on_their_left_subcell_and_every_right_one(self, cells, d):
        g = single_cell_product(RingSpace(cells, d), quiescence_preserving_local(d, cells))
        loc = build_localization(g, (0,))
        right = tuple(range(1, 2 * cells, 2))
        for x, (subcells, k) in enumerate(loc.gates):
            assert subcells == (2 * x, *right)
            assert k.shape == (d ** (cells + 1),) * 2

    @pytest.mark.parametrize("cells,seed", [(3, 0), (4, 1)])
    def test_single_cell_products_stay_single_cell(self, cells, seed):
        ring = RingSpace(cells, 2)
        g = single_cell_product(ring, quiescence_preserving_local(2, seed))
        loc = build_localization(g, (0,))
        assert loc.k_supports == tuple((x,) for x in range(cells))
        assert loc.he_eg_defect < 1e-10
        assert loc.commutation_residual < 1e-10

    def test_three_level_product(self):
        ring = RingSpace(3, 3)
        g = single_cell_product(ring, quiescence_preserving_local(3, 5))
        loc = build_localization(g, (0,))
        assert loc.supports_contained()
        assert loc.he_eg_defect < 1e-10

    def test_dirac_block_layer_localizes_within_blocks(self):
        j, blocks = dirac_block_layer()
        loc = build_localization(j, blocks)
        assert loc.supports_contained()
        assert loc.he_eg_defect < 1e-10
        assert loc.commutation_residual < 1e-10
        assert loc.product_defect < 1e-10

    def test_update_gates_commute_exactly_by_construction(self):
        j, blocks = dirac_block_layer()
        loc = build_localization(j, blocks)
        for a, b in itertools.combinations(dense_gates(loc, j.ring), 2):
            comm = a.matrix @ b.matrix - b.matrix @ a.matrix
            assert np.linalg.norm(comm) < 1e-12

    def test_noncausal_operator_refused(self):
        with pytest.raises(ValueError, match="not causal"):
            build_localization(xor_lifted(4), (-1, 0, 1))

    @pytest.mark.parametrize("cells,d", [(3, 2), (2, 3)])
    def test_extension_acts_on_right_subcells(self, cells, d):
        # |l_x r_x> on every cell goes to |l> (x) g|r>, doubled symbol l*d + r
        rng = np.random.default_rng(cells)
        dim = d**cells
        g = DenseOperator(
            RingSpace(cells, d), rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        ghat = extend_to_right_subcells(g)
        subcells = RingSpace(2 * cells, d)
        lefts = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(cells)]
        right = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        left_cells = tuple(range(0, 2 * cells, 2))
        right_cells = tuple(range(1, 2 * cells, 2))
        factors = [((c,), v) for c, v in zip(left_cells, lefts)]
        before = tensor_state(subcells, factors + [(right_cells, right)])
        after = tensor_state(subcells, factors + [(right_cells, g.matrix @ right)])
        assert np.allclose(ghat.matrix @ before, after, rtol=0, atol=1e-12)

    def test_lifted_xor_update_gates_are_nonlocal(self):
        # window of 3: the doubled register stays under the dense cap
        f_hat = xor_lifted(3)
        ghat = extend_to_right_subcells(f_hat)
        nonlocal_cells = []
        for x in range(3):
            s = subcell_swap(f_hat.ring, x)
            k = DenseOperator(ghat.ring, ghat.matrix.conj().T @ s.matrix @ ghat.matrix)
            supp = set(support_of(k))
            radius_one = {c for c in (x - 1, x, x + 1) if 0 <= c < 3}
            if not supp <= radius_one:
                nonlocal_cells.append(x)
        assert nonlocal_cells, "every update gate fit a strictly smaller window"


def reference_localization(g):
    """The construction with every 0/1 matrix built and multiplied in: the
    `subcell_swap` matrices, their product from the identity, the gate
    product from the identity, and E from the ring basis. Returns the gate
    matrices, their supports and the three defects."""
    ring = g.ring
    n = ring.cell_count
    big = RingSpace(n, ring.local_dim**2)
    ghat = extend_to_right_subcells(g).matrix
    ghat_d = ghat.conj().T
    swaps = [subcell_swap(ring, x).matrix for x in range(n)]
    k_ops = [ghat_d @ s @ ghat for s in swaps]
    commutation = 0.0
    for a, b in itertools.combinations(k_ops, 2):
        commutation = max(commutation, float(np.linalg.norm(a @ b - b @ a)))
    prod_k = np.eye(big.dim, dtype=complex)
    for k in k_ops:
        prod_k = prod_k @ k
    all_swaps = np.eye(big.dim, dtype=complex)
    for s in swaps:
        all_swaps = all_swaps @ s
    product_defect = float(np.linalg.norm(prod_k - ghat_d @ all_swaps @ ghat))
    h = all_swaps @ prod_k
    e = np.zeros((big.dim, ring.dim), dtype=complex)
    for idx in range(ring.dim):
        e[big.index_of(ring.symbols_of(idx)), idx] = 1.0
    he_eg_defect = float(np.linalg.norm(h @ e - e @ g.matrix))
    supports = tuple(support_of(DenseOperator(big, k)) for k in k_ops)
    return k_ops, supports, (he_eg_defect, commutation, product_defect)


# Largest deviation of the gates and of each defect from the dense
# reference. Seen over the cases below, with one BLAS thread and two:
# 2.2e-16 (gates), 4.4e-16 (HE-EG), 2.3e-16 (commutation) and 3.9e-16
# (product defect).
LOCALIZATION_TOL = 1e-13


class TestLocalizationAgainstReference:
    """`build_localization` works from local gates and index maps where the
    reference multiplies every matrix of the doubled register; the supports
    are the same, the gates keep their bits where their sums do (d = 2),
    and the defects agree to LOCALIZATION_TOL. The cases whose g moves the
    empty state have an HE-EG defect of order one, so the columns and rows
    of H E read from the gate product are pinned where they do not vanish."""

    @pytest.mark.parametrize(
        "g,nbhd,bitwise",
        [
            (identity_operator(RingSpace(3, 2)), (0,), True),
            (single_cell_product(RingSpace(4, 2), quiescence_preserving_local(2, 1)), (0,), True),
            (single_cell_product(RingSpace(3, 3), quiescence_preserving_local(3, 5)), (0,), False),
            (single_cell_product(RingSpace(2, 3), quiescence_preserving_local(3, 2)), (0,), False),
            (*dirac_block_layer(), True),
            (*dirac_block_layer(2, 0.5, 0.3), True),
            (*dirac_block_layer(4, 0.5, 0.3), True),
            (single_cell_product(RingSpace(3, 2), quiescence_preserving_local(2, 3)[::-1]), (0,), False),
            (single_cell_product(RingSpace(2, 3), quiescence_preserving_local(3, 4)[::-1]), (0,), False),
        ],
    )
    def test_equals_reference(self, g, nbhd, bitwise):
        loc = build_localization(g, nbhd)
        k_ops, supports, defects = reference_localization(g)
        gates = dense_gates(loc, g.ring)
        assert len(gates) == len(k_ops)
        for k, ref in zip(gates, k_ops):
            if bitwise:
                assert np.array_equal(k.matrix, ref)
            else:
                assert np.max(np.abs(k.matrix - ref)) <= LOCALIZATION_TOL
        assert loc.k_supports == supports
        got = (loc.he_eg_defect, loc.commutation_residual, loc.product_defect)
        assert got == pytest.approx(defects, rel=0, abs=LOCALIZATION_TOL)

    @pytest.mark.parametrize("system,cells", [("product", 3), ("product", 4), ("dirac", 4)])
    def test_full_size_products(self, monkeypatch, system, cells):
        # no matrix product of the doubled register's size: the gates are
        # built on N + 1 subcells, the commutators on N + 2, and the gate
        # product applies each gate to the axes it acts on
        if system == "product":
            g = single_cell_product(RingSpace(cells, 2), quiescence_preserving_local(2, 1))
            nbhd = (0,)
        else:
            g, nbhd = dirac_block_layer(cells)
        dim = g.ring.dim ** 2
        calls = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul and all(np.shape(x) == (dim, dim) for x in inputs):
                    calls.append(inputs)
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(o) for o in out)
                result = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
                if out is not None:
                    return out[0] if len(out) == 1 else out
                return result.view(Counted) if isinstance(result, np.ndarray) else result

        class CountedOperator(DenseOperator):
            def __post_init__(self):
                super().__post_init__()
                object.__setattr__(self, "matrix", self.matrix.view(Counted))

        op_dims = []

        def counted_op_at(*args):
            op = op_at(*args)
            op_dims.append(op.dim)
            return CountedOperator(op.ring, op.matrix)

        support_dims = []

        def recorded_support_of(op, *args):
            support_dims.append(op.dim)
            return support_of(op, *args)

        monkeypatch.setattr(structure, "DenseOperator", CountedOperator)
        monkeypatch.setattr(structure, "op_at", counted_op_at)
        monkeypatch.setattr(structure, "support_of", recorded_support_of)
        loc = build_localization(CountedOperator(g.ring, g.matrix), nbhd)
        assert loc.he_eg_defect < 1e-10
        assert calls == []
        # the gate product is the one placed operator of the doubled size,
        # and supports come from the gates' own d^(N+1) matrices
        assert op_dims.count(dim) == 1 and max(op_dims) == dim
        assert len(support_dims) > cells
        assert max(support_dims) <= 2 ** (cells + 1)


class TestGateSupportTolerance:
    """`_gate_support` reads a gate's support from its local matrix at
    SUPPORT_TOL / sqrt(d^(N-1)). A leak planted on one subcell above or
    below that bound is seen alike by `support_of` on the embedded
    operator, on the subcell register and on the doubled ring. At 2.5 and
    0.4 times the bound, the 8- and 9-fold identity of the (4, 2) and
    (3, 3) cases makes an unscaled or a doubly scaled bound misread it."""

    @pytest.mark.parametrize("cells,d,x", [(3, 2, 1), (4, 2, 0), (3, 3, 1)])
    @pytest.mark.parametrize("factor", [10.0, 2.5, 0.4, 0.1])
    def test_planted_leak(self, cells, d, x, factor):
        rng = np.random.default_rng(cells * d + x)
        subcells = (2 * x, *range(1, 2 * cells, 2))
        local = RingSpace(cells + 1, d)
        # random on local positions 0 and 1 (subcell 2x and cell 0's right
        # subcell), the identity elsewhere, plus a leak on the last position
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        k = op_at(local, (0, 1), a).matrix
        unit = np.zeros((d, d))
        unit[0, 1] = 1.0
        leak = op_at(local, (cells,), unit).matrix
        # the largest commutator of the leak with a unit at its subcell is
        # ||[E_01, E_10]||_F sqrt(d^N) = sqrt(2 d^N)
        bound = SUPPORT_TOL / np.sqrt(d ** (cells - 1))
        k = k + factor * bound / np.sqrt(2 * d**cells) * leak
        got = structure._gate_support(subcells, k, 2 * cells, d)
        expected = {0, x} | ({cells - 1} if factor > 1 else set())
        assert got == tuple(sorted(expected))
        embedded = op_at(RingSpace(2 * cells, d), subcells, k).matrix
        on_subcells = support_of(DenseOperator(RingSpace(2 * cells, d), embedded))
        assert tuple(sorted({s // 2 for s in on_subcells})) == got
        doubled = DenseOperator(structure.doubled_ring(RingSpace(cells, d)), embedded)
        assert support_of(doubled) == got


class TestHeisenbergSchroedingerEquivalence:
    """The reduced-state test and the observable-support test must agree on
    every instance: both pass on causal evolutions, both fail on the lifted
    xor rule."""

    def schrodinger_depends_only_on_neighbourhood(self, g, x, allowed, trials=4, seed=0):
        ring = g.ring
        rng = np.random.default_rng(seed)
        rest = tuple(c for c in range(ring.cell_count) if c not in allowed)
        d = ring.local_dim
        base = rng.normal(size=d ** len(allowed)) + 1j * rng.normal(size=d ** len(allowed))
        base /= np.linalg.norm(base)
        worst = 0.0
        outputs = []
        for _ in range(trials):
            chi = rng.normal(size=d ** len(rest)) + 1j * rng.normal(size=d ** len(rest))
            chi /= np.linalg.norm(chi)
            vec = tensor_state(ring, [(tuple(sorted(allowed)), base), (rest, chi)])
            out = g.matrix @ vec
            outputs.append(partial_trace(density_from_vector(out, ring), (x,)))
        for a, b in itertools.combinations(outputs, 2):
            worst = max(worst, trace_distance(a, b))
        return worst < 1e-10

    def test_causal_instances_agree(self):
        ring = RingSpace(8, 2)
        pq = Pqca(dirac_scattering_unitary(0.5, 0.7))
        g2 = regroup_pairs(composed_step_operator(pq, ring))
        for x in range(4):
            allowed = {(x - 1) % 4, x, (x + 1) % 4}
            heisenberg = causality_check(g2, (-1, 0, 1)).passed
            schrodinger = self.schrodinger_depends_only_on_neighbourhood(g2, x, allowed)
            assert heisenberg and schrodinger

    def test_noncausal_instance_agrees(self):
        # the two ends of the signalling pair share every proper marginal,
        # yet one lifted step maps them to distinguishable receiver states
        f_hat = xor_lifted(4)
        ring = f_hat.ring
        bob = 3
        allowed = (1, 2, 3)
        c_plus = np.zeros(ring.dim, dtype=complex)
        c_minus = np.zeros(ring.dim, dtype=complex)
        c_plus[ring.index_of((F_SYM,) * 4)] = c_plus[ring.index_of((T_SYM,) * 4)] = 2**-0.5
        c_minus[ring.index_of((F_SYM,) * 4)] = 2**-0.5
        c_minus[ring.index_of((T_SYM,) * 4)] = -(2**-0.5)
        in_plus = partial_trace(density_from_vector(c_plus, ring), allowed)
        in_minus = partial_trace(density_from_vector(c_minus, ring), allowed)
        assert trace_distance(in_plus, in_minus) < 1e-12, "inputs distinguishable upstream"
        out_plus = partial_trace(
            density_from_vector(f_hat.matrix @ c_plus, ring), (bob,)
        )
        out_minus = partial_trace(
            density_from_vector(f_hat.matrix @ c_minus, ring), (bob,)
        )
        schrodinger_fails = trace_distance(out_plus, out_minus) > 0.99
        heisenberg_fails = not causality_check(
            f_hat, (-2, -1, 0, 1, 2), periodic=False
        ).passed
        assert schrodinger_fails and heisenberg_fails
