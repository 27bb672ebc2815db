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
    quiescence_preserving_local,
    signalling_demo,
    single_cell_product,
    subcell_swap,
    xor_lifted,
    xor_plus,
    xor_window_step,
)
from reference import density_from_vector, partial_trace, tensor_state


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
        assert xor_window_step((F_SYM,) * 4) == (F_SYM,) * 4

    def test_all_t_word_collapses_to_the_f_image(self):
        assert xor_window_step((T_SYM,) * 4) == (F_SYM, F_SYM, F_SYM, T_SYM)

    def test_lone_t_survives_in_place(self):
        assert xor_window_step((T_SYM,)) == (T_SYM,)

    def test_word_with_gap(self):
        assert xor_window_step((T_SYM, EMPTY, T_SYM)) == (T_SYM, EMPTY, T_SYM)

    def test_support_never_grows(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            word = tuple(int(s) for s in rng.integers(0, 3, size=rng.integers(1, 9)))
            stepped = xor_window_step(word)
            occupied = {i for i, s in enumerate(word) if s != EMPTY}
            occupied_after = {i for i, s in enumerate(stepped) if s != EMPTY}
            assert occupied_after <= occupied


class TestLifting:
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
            return w[1:] + (0,)

        with pytest.raises(ValueError, match="not injective") as err:
            lift_classical(shift_left, 3)
        assert "map to" in str(err.value)

    def test_step_leaving_basis_rejected(self):
        with pytest.raises(ValueError, match="leaves the window"):
            lift_classical(lambda w: w + (0,), 2)

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
            build_localization(xor_lifted(3), (-1, 0, 1), periodic=False)

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
    matrices, their supports, H and the three defects."""
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
    return k_ops, supports, h, (he_eg_defect, commutation, product_defect)


# Largest deviation of H and of each defect from the dense reference. Seen
# over the cases below, with one BLAS thread and two: 3.4e-16 (H), 8.7e-17
# (HE-EG), 2.3e-16 (commutation) and 3.9e-16 (product defect).
LOCALIZATION_TOL = 1e-13


class TestLocalizationAgainstReference:
    """`build_localization` works from local gates and index maps where the
    reference multiplies every matrix of the doubled register; the supports
    are the same, the gates keep their bits where their sums do (d = 2),
    and H and the defects agree to LOCALIZATION_TOL."""

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
        ],
    )
    def test_equals_reference(self, g, nbhd, bitwise):
        loc = build_localization(g, nbhd)
        k_ops, supports, h, defects = reference_localization(g)
        gates = dense_gates(loc, g.ring)
        assert len(gates) == len(k_ops)
        for k, ref in zip(gates, k_ops):
            if bitwise:
                assert np.array_equal(k.matrix, ref)
            else:
                assert np.max(np.abs(k.matrix - ref)) <= LOCALIZATION_TOL
        assert loc.k_supports == supports
        assert np.max(np.abs(loc.h.matrix - h)) <= LOCALIZATION_TOL
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

        def counted_op_at(*args):
            op = op_at(*args)
            return CountedOperator(op.ring, op.matrix)

        monkeypatch.setattr(structure, "DenseOperator", CountedOperator)
        monkeypatch.setattr(structure, "op_at", counted_op_at)
        loc = build_localization(CountedOperator(g.ring, g.matrix), nbhd)
        assert loc.he_eg_defect < 1e-10
        assert calls == []


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
