import itertools
import tracemalloc

import numpy as np
import pytest

from qcalab.operators import (
    SUPPORT_TOL,
    DenseOperator,
    DensityMatrix,
    hermitian_exp,
    identity_operator,
    op_at,
    reduced_density_from_vector,
    spectral_norm,
    support_of,
    trace_distance,
    translation_operator,
    unitarity_defect,
)
from qcalab.state import RingSpace
from qcalab.dirac import dirac_scattering_unitary
from reference import density_from_vector, partial_trace, tensor_state

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)

# two qubits on one ring; SWAP exchanges their contents
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, ring, mixtures=3):
    rho = np.zeros((ring.dim, ring.dim), dtype=complex)
    weights = rng.random(mixtures)
    weights /= weights.sum()
    for w in weights:
        v = random_unit_vector(rng, ring.dim)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(rho, tuple(range(ring.cell_count)), ring.local_dim)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        ring = RingSpace(2, 2)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        reduced = partial_trace(density_from_vector(bell, ring), (0,))
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginal(self):
        ring = RingSpace(2, 2)
        rng = np.random.default_rng(1)
        a = random_unit_vector(rng, 2)
        b = random_unit_vector(rng, 2)
        reduced = partial_trace(density_from_vector(np.kron(a, b), ring), (0,))
        assert np.allclose(reduced.matrix, np.outer(a, a.conj()), atol=1e-12)

    def test_trace_preserved_on_random_three_qubit_mixtures(self):
        ring = RingSpace(3, 2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = random_density(rng, ring)
            for keep in ((0,), (1, 2), (0, 2)):
                assert np.trace(partial_trace(rho, keep).matrix) == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_empty_keep_reduces_to_trace(self):
        ring = RingSpace(2, 2)
        rho = random_density(np.random.default_rng(3), ring)
        out = partial_trace(rho, ())
        assert out.matrix.shape == (1, 1)
        assert out.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_noncontiguous_keep_uses_ascending_labels(self):
        ring = RingSpace(3, 2)
        rng = np.random.default_rng(4)
        a, b, c = (random_unit_vector(rng, 2) for _ in range(3))
        vec = tensor_state(ring, [((0,), a), ((1,), b), ((2,), c)])
        reduced = partial_trace(density_from_vector(vec, ring), (2, 0))
        expected = np.kron(np.outer(a, a.conj()), np.outer(c, c.conj()))
        assert np.allclose(reduced.matrix, expected, atol=1e-12)
        assert reduced.cells == (0, 2)


class TestReducedDensityFromVector:
    """The contraction from the vector equals the partial trace of the full
    density matrix."""

    @pytest.mark.parametrize(
        "d,keep", [(2, ()), (2, (0, 1, 2, 3)), (2, (2,)), (2, (0, 3)), (2, (2, 0)),
                   (3, ()), (3, (0, 1, 2)), (3, (1,)), (3, (0, 2)), (3, (2, 0))]
    )
    def test_equals_partial_trace_of_full_state(self, d, keep):
        ring = RingSpace(4 if d == 2 else 3, d)
        v = 3.0 * random_unit_vector(np.random.default_rng(d), ring.dim)
        reduced = reduced_density_from_vector(v, ring, keep)
        expected = partial_trace(density_from_vector(v, ring), keep)
        assert reduced.cells == expected.cells == tuple(sorted(keep))
        assert reduced.local_dim == d
        assert np.max(np.abs(reduced.matrix - expected.matrix)) < 1e-14


def conjugate(g, a):
    """The Heisenberg image g^dag a g, written out."""
    return DenseOperator(g.ring, g.matrix.conj().T @ a.matrix @ g.matrix)


class TestHeisenbergImage:
    def test_identity_leaves_observable(self):
        ring = RingSpace(2, 2)
        a = op_at(ring, (0,), SIGMA1)
        out = conjugate(identity_operator(ring), a)
        assert np.allclose(out.matrix, a.matrix)

    def test_subcell_swap_relabels_wires(self):
        # one cell of dimension 4 seen as two qubit subcells
        ring = RingSpace(1, 4)
        swap = DenseOperator(ring, SWAP2)
        left = DenseOperator(ring, np.kron(SIGMA1, np.eye(2)))
        right = DenseOperator(ring, np.kron(np.eye(2), SIGMA1))
        out = conjugate(swap, left)
        assert np.allclose(out.matrix, right.matrix, atol=1e-14)

    def test_nonunitary_rejected_with_defect(self):
        from qcalab.structure import causality_check

        ring = RingSpace(1, 2)
        g = DenseOperator(ring, 2 * np.eye(2))
        with pytest.raises(ValueError, match="defect"):
            causality_check(g, (0,))

    def test_block_map_image_stays_in_block(self):
        from qcalab.pqca import Pqca, pqca_as_ring_operator

        ring = RingSpace(4, 2)
        j = pqca_as_ring_operator(
            Pqca(dirac_scattering_unitary(0.6, 0.5)), ring, "even"
        )
        a = op_at(ring, (0,), SIGMA1)
        assert set(support_of(conjugate(j, a))) <= {0, 1}


class TestSupportOf:
    def test_identity_has_empty_support(self):
        assert support_of(identity_operator(RingSpace(3, 2))) == ()

    def test_single_cell_operator(self):
        ring = RingSpace(4, 2)
        assert support_of(op_at(ring, (2,), SIGMA1)) == (2,)

    def test_two_cell_operator(self):
        ring = RingSpace(4, 2)
        m = np.kron(np.eye(2), np.kron(SWAP2, np.eye(2)))
        assert support_of(DenseOperator(ring, m)) == (1, 2)

    @pytest.mark.parametrize("n,d", [(6, 2), (4, 3), (3, 4)])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_matches_every_commutator(self, n, d, seed, diagonal):
        op, planted = planted_operator(n, d, seed, diagonal)
        assert support_of(op) == reference_support(op) == planted

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_leak_below_the_diagonal_ulp_is_support(self, eps):
        # ||[I + eps X, E_01]|| = eps * sqrt(2) * sqrt(2^7) = 16 eps > SUPPORT_TOL.
        # Taken as a column total minus the diagonal block (squared norm
        # 128), the off-diagonal mass 128 eps^2 fell below that block's ulp.
        op = op_at(RingSpace(8, 2), (3,), np.eye(2) + eps * SIGMA1)
        assert support_of(op) == reference_support(op) == (3,)

    @pytest.mark.parametrize(
        "n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]
    )
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("factor", [0.0, 0.1, 10.0])
    @pytest.mark.parametrize("part", ["dense", "diagonal", "off-diagonal"])
    def test_matches_the_reference_with_planted_leaks(self, n, d, seed, factor, part):
        op, expected = leaked_operator(n, d, seed, factor, part)
        assert support_of(op) == reference_support(op) == expected

    def test_peak_memory_under_the_image(self):
        # cells 0-2 and 5-9 carry the identity, so each needs its diagonal
        # block difference
        rng = np.random.default_rng(5)
        op = op_at(RingSpace(10, 2), (3, 4), random_matrix(rng, 4))
        tracemalloc.start()
        try:
            supp = support_of(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert supp == (3, 4)
        assert peak <= op.matrix.nbytes


def reference_support(op, tol=SUPPORT_TOL):
    """Cells where some commutator of `op` with a matrix unit, both built
    in full, has Frobenius norm above `tol`."""
    ring = op.ring
    d = ring.local_dim
    support = []
    for c in range(ring.cell_count):
        norms = []
        for i, j in itertools.product(range(d), repeat=2):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            e = op_at(ring, (c,), unit).matrix
            norms.append(np.linalg.norm(op.matrix @ e - e @ op.matrix))
        if max(norms) > tol:
            support.append(c)
    return tuple(support)


def planted_operator(n, d, seed, diagonal):
    """A random matrix on a planted cell set (diagonal, so only the
    diagonal block differences see it, or dense) tensored with a phase times
    the identity on one cell and a single off-diagonal unit on another.
    Returns the operator on the ring and its support."""
    rng = np.random.default_rng(seed)
    phase_cell, unit_cell, *rest = (int(c) for c in rng.permutation(n))
    planted = rest[: int(rng.integers(0, len(rest) + 1))]
    k = d ** len(planted)
    local = random_matrix(rng, k)
    if diagonal:
        local = np.diag(np.diag(local))
    unit = np.zeros((d, d), dtype=complex)
    unit[0, d - 1] = complex(rng.normal(), rng.normal())
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(d)
    op = op_at(
        RingSpace(n, d),
        (phase_cell, unit_cell, *planted),
        np.kron(phase, np.kron(unit, local)),
    )
    return op, tuple(sorted([unit_cell, *planted]))


def leaked_operator(n, d, seed, factor, part):
    """`planted_operator` plus a random leak L on one cell outside its
    support (dense; diagonal, so only the diagonal block differences see it;
    or off-diagonal, so only the block norms off the diagonal do), scaled so that its largest commutator with a matrix unit there
    has Frobenius norm `factor * SUPPORT_TOL`. The leak belongs to the
    support iff that norm is above the tolerance. Returns the operator on
    the ring and its support."""
    op, planted = planted_operator(n, d, seed, False)
    rng = np.random.default_rng([n, d, seed])
    cell = min(set(range(n)) - set(planted))
    leak = random_matrix(rng, d)
    if part != "dense":
        diagonal = np.diag(np.diag(leak))
        leak = diagonal if part == "diagonal" else leak - diagonal
    units = [np.outer(a, b) for a, b in itertools.product(np.eye(d), repeat=2)]
    # the identity on the other n - 1 cells multiplies each norm by sqrt(d^(n-1))
    norm = max(np.linalg.norm(leak @ e - e @ leak) for e in units) * np.sqrt(d ** (n - 1))
    leak *= factor * SUPPORT_TOL / norm
    leaked = DenseOperator(op.ring, op.matrix + op_at(op.ring, (cell,), leak).matrix)
    return leaked, tuple(sorted([*planted, cell])) if factor > 1 else planted


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestOpAt:
    @pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
    def test_single_cell_is_the_kron_embedding(self, n, d):
        ring = RingSpace(n, d)
        a = random_matrix(np.random.default_rng(n), d)
        for cell in range(n):
            expected = np.kron(np.eye(d**cell), np.kron(a, np.eye(d ** (n - cell - 1))))
            assert np.array_equal(op_at(ring, (cell,), a).matrix, expected)

    def test_adjacent_pair_is_the_kron_embedding(self):
        ring = RingSpace(4, 2)
        local = random_matrix(np.random.default_rng(1), 4)
        expected = np.kron(np.eye(2), np.kron(local, np.eye(2)))
        assert np.array_equal(op_at(ring, (1, 2), local).matrix, expected)

    @pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
    def test_pair_factorizes_over_its_cells(self, n, d):
        ring = RingSpace(n, d)
        rng = np.random.default_rng(10 * n + d)
        a, b = random_matrix(rng, d), random_matrix(rng, d)
        # adjacent, non-adjacent, wrapped and descending pairs
        for pair in [(0, 1), (1, 2), (0, 2), (1, n - 1), (n - 1, 0), (2, 0)]:
            lhs = op_at(ring, pair, np.kron(a, b)).matrix
            rhs = op_at(ring, pair[:1], a).matrix @ op_at(ring, pair[1:], b).matrix
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-13), pair

    def test_repeated_cells_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            op_at(RingSpace(3, 2), (1, 1), np.eye(4))

    @pytest.mark.parametrize("cells", [(3,), (-1,), (0, 5)])
    def test_out_of_range_cells_rejected(self, cells):
        with pytest.raises(ValueError, match="outside"):
            op_at(RingSpace(3, 2), cells, np.eye(2 ** len(cells)))

    @pytest.mark.parametrize("cells,shape", [((0,), (4, 4)), ((0, 1), (2, 2)), ((0,), (2, 3))])
    def test_wrong_local_shape_rejected(self, cells, shape):
        with pytest.raises(ValueError, match="local matrix"):
            op_at(RingSpace(3, 2), cells, np.ones(shape))


class TestHermitianExp:
    def test_zero_gives_identity(self):
        assert np.allclose(hermitian_exp(np.zeros((3, 3)), 2.0), np.eye(3))

    def test_involutory_closed_form(self):
        for t in (0.3, 1.7):
            expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA1
            assert np.allclose(hermitian_exp(SIGMA1, t), expected, atol=1e-12)

    def test_unitarity_of_random_exponentials(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            assert unitarity_defect(hermitian_exp(h, 0.8)) < 1e-10

    def test_additivity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        lhs = hermitian_exp(h, 0.4) @ hermitian_exp(h, 1.1)
        assert np.linalg.norm(lhs - hermitian_exp(h, 1.5)) < 1e-9

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @pytest.mark.parametrize("n", [1, 7, 64, 257])
    def test_bits_of_the_conjugated_copy_form(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(-1j * 0.3 * w)) @ v.conj().T
        assert hermitian_exp(h, 0.3).tobytes() == expected.tobytes()

    def test_peak_memory_three_matrices(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        h = (a + a.conj().T) / 2
        tracemalloc.start()
        try:
            hermitian_exp(h, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the eigenvectors, their scaled copy and the product
        assert peak < 3.1 * h.nbytes


class TestTraceDistance:
    def test_equal_states(self):
        ring = RingSpace(1, 2)
        rho = density_from_vector(np.array([1, 0], dtype=complex), ring)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        ring = RingSpace(1, 2)
        a = density_from_vector(np.array([1, 0], dtype=complex), ring)
        b = density_from_vector(np.array([0, 1], dtype=complex), ring)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_plus_minus_pair(self):
        ring = RingSpace(1, 2)
        plus = density_from_vector(np.array([1, 1]) / np.sqrt(2), ring)
        minus = density_from_vector(np.array([1, -1]) / np.sqrt(2), ring)
        assert trace_distance(plus, minus) == pytest.approx(1.0, abs=1e-12)

    def test_metric_properties_on_random_triples(self):
        ring = RingSpace(2, 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            r1, r2, r3 = (random_density(rng, ring) for _ in range(3))
            d12 = trace_distance(r1, r2)
            d13 = trace_distance(r1, r3)
            d23 = trace_distance(r2, r3)
            assert d12 == pytest.approx(trace_distance(r2, r1), abs=1e-12)
            assert d12 >= 0
            assert d13 <= d12 + d23 + 1e-12


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(np.eye(4)) == 0.0

    def test_scaled_identity(self):
        # (2I)^dag (2I) - I = 3I, Frobenius norm 3 sqrt(dim)
        assert unitarity_defect(2 * np.eye(4)) == pytest.approx(6.0)

    def test_dirac_unitary_seeded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = dirac_scattering_unitary(rng.uniform(0, 3), rng.uniform(0.01, 1.5))
            assert unitarity_defect(u.matrix) < 1e-12


class TestSpectralNorm:
    def test_known_values(self):
        assert spectral_norm(np.diag([3.0, -5.0, 1.0])) == pytest.approx(5.0, rel=1e-7)
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_svd_on_random_matrices(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert spectral_norm(a) == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[0], rel=1e-6
            )

    def test_close_top_singular_values(self):
        # power iteration converges at the rate 0.999^2 here; the norm must not
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(random_matrix(rng, 6))
        v, _ = np.linalg.qr(random_matrix(rng, 6))
        a = (u * np.array([1.0, 0.999, 0.7, 0.5, 0.2, 0.1])) @ v.conj().T
        assert spectral_norm(a) == pytest.approx(1.0, rel=1e-12)


class TestDensityValidation:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1], [0, 0.5]]), (0,), 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (0,), 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]), (0,), 2)


def test_translation_moves_content_down():
    ring = RingSpace(3, 2)
    t = translation_operator(ring)
    v = np.zeros(8, dtype=complex)
    v[ring.index_of((0, 1, 0))] = 1.0
    out = t.matrix @ v
    assert out[ring.index_of((1, 0, 0))] == 1.0
