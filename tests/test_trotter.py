import tracemalloc

import numpy as np
import pytest

from qcalab.operators import hermitian_exp, hermiticity_defect, spectral_norm, translation_operator
from qcalab.pqca import check_quiescence, composed_step_operator, pqca_as_ring_operator
from qcalab.state import RingSpace
from qcalab.trotter import (
    GlobalHamiltonian,
    TwoCellHamiltonian,
    build_global_hamiltonian,
    exchange_coupling,
    random_coupling,
    splitting_error,
    trotter_pqca,
    trotter_vs_pqca_crosscheck,
)

RING4 = RingSpace(4, 2)
SWAP2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def random_vector(seed, dim=16):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestTwoCellHamiltonian:
    def test_rejects_nonhermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 2] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            TwoCellHamiltonian(2, m)

    def test_rejects_nonquiescent_coupling(self):
        m = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="annihilate"):
            TwoCellHamiltonian(2, m)

    def test_random_coupling_is_seeded_and_valid(self):
        a = random_coupling(2, 123)
        b = random_coupling(2, 123)
        assert np.array_equal(a.matrix, b.matrix)
        assert hermiticity_defect(a.matrix) < 1e-12
        assert np.linalg.norm(a.matrix[:, 0]) == 0.0

    def test_exchange_instance(self):
        h = exchange_coupling(0.75, 0.5)
        assert h.matrix[1, 2] == 0.75 and h.matrix[2, 1] == 0.75
        assert h.matrix[3, 3] == 0.5


class TestGlobalHamiltonian:
    def test_zero_coupling(self):
        parts = build_global_hamiltonian(TwoCellHamiltonian(2, np.zeros((4, 4))), RING4)
        assert np.count_nonzero(parts.total.matrix) == 0

    def test_two_cell_ring_sums_both_orderings(self):
        h = random_coupling(2, 4)
        ring = RingSpace(2, 2)
        parts = build_global_hamiltonian(h, ring)
        expected = h.matrix + SWAP2 @ h.matrix @ SWAP2
        assert np.allclose(parts.total.matrix, expected, atol=1e-14)
        assert np.allclose(parts.even.matrix, h.matrix, atol=1e-14)
        assert np.allclose(parts.odd.matrix, SWAP2 @ h.matrix @ SWAP2, atol=1e-14)

    def test_parts_sum_and_are_hermitian(self):
        h = random_coupling(2, 5)
        parts = build_global_hamiltonian(h, RING4)
        assert isinstance(parts, GlobalHamiltonian)
        assert np.allclose(
            parts.total.matrix, parts.even.matrix + parts.odd.matrix, atol=1e-14
        )
        for op in (parts.total, parts.even, parts.odd):
            assert hermiticity_defect(op.matrix) < 1e-10

    @pytest.mark.parametrize("cells,d", [(6, 2), (4, 3)])
    def test_matches_translated_terms(self, cells, d):
        # h_x = T^{dag x} (h (x) I) T^x, built from the one-cell translation
        h = random_coupling(d, 7)
        ring = RingSpace(cells, d)
        t = translation_operator(ring).matrix
        term = np.kron(h.matrix, np.eye(d ** (cells - 2)))
        terms = []
        for _ in range(cells):
            terms.append(term)
            term = t.conj().T @ term @ t
        parts = build_global_hamiltonian(h, ring)
        assert np.allclose(parts.total.matrix, sum(terms), rtol=0, atol=1e-13)
        assert np.allclose(parts.even.matrix, sum(terms[0::2]), rtol=0, atol=1e-13)
        assert np.allclose(parts.odd.matrix, sum(terms[1::2]), rtol=0, atol=1e-13)

    def test_odd_ring_rejected(self):
        parts = build_global_hamiltonian(random_coupling(2, 0), RingSpace(6, 2))
        assert parts.total.matrix.shape == (64, 64)
        with pytest.raises(ValueError, match="even"):
            build_global_hamiltonian(random_coupling(2, 0), RingSpace(5, 2))

    def test_local_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            build_global_hamiltonian(random_coupling(2, 0), RingSpace(4, 3))


class TestTrotterPqca:
    def test_zero_slice_is_identity(self):
        pq = trotter_pqca(random_coupling(2, 6), 0.0)
        assert np.allclose(pq.scattering.matrix, np.eye(4), atol=1e-15)

    def test_quiescence_is_exact(self):
        for seed in range(5):
            pq = trotter_pqca(random_coupling(2, seed), 0.37)
            assert check_quiescence(pq.scattering) < 1e-14

    def test_short_time_series_truncation(self):
        # sigma1 (x) sigma1 hopping with the |00> row and column removed
        sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
        m = np.kron(sigma1, sigma1)
        m[0, :] = 0.0
        m[:, 0] = 0.0
        h = TwoCellHamiltonian(2, m)
        dt = 1e-3
        u = trotter_pqca(h, dt).scattering.matrix
        first = np.linalg.norm(u - (np.eye(4) - 1j * dt * m))
        assert first <= dt**2 * np.linalg.norm(m @ m) / 2 * (1 + 1e-6)
        second = np.linalg.norm(u - (np.eye(4) - 1j * dt * m - dt**2 / 2 * (m @ m)))
        assert second < 1e-8


class TestSplittingError:
    def test_zero_time_slice(self):
        (err,) = splitting_error(random_coupling(2, 7), RING4, [0.0])
        assert err == pytest.approx(0.0, abs=1e-14)

    def test_commuting_parts_split_exactly(self):
        h = TwoCellHamiltonian(2, np.diag([0.0, 0.7, -0.3, 1.1]).astype(complex))
        for err in splitting_error(h, RING4, [0.5, 0.125]):
            assert err < 1e-12

    @pytest.mark.parametrize("make", [lambda: exchange_coupling(), lambda: random_coupling(2, 11)])
    def test_second_order_ratio(self, make):
        h = make()
        errs = splitting_error(h, RING4, [0.1, 0.05, 0.025])
        for a, b in zip(errs, errs[1:]):
            assert 0.2 <= b / a <= 0.35

    def test_subadditivity_of_accumulated_error(self):
        h = random_coupling(2, 13)
        parts = build_global_hamiltonian(h, RING4)
        dt, steps = 0.05, 12
        split = hermitian_exp(parts.odd.matrix, dt) @ hermitian_exp(parts.even.matrix, dt)
        exact = hermitian_exp(parts.total.matrix, dt * steps)
        accumulated = np.linalg.matrix_power(split, steps)
        total_err = spectral_norm(exact - accumulated)
        (err,) = splitting_error(h, RING4, [dt])
        assert total_err <= steps * err * (1 + 1e-6)

    @pytest.mark.parametrize("cells", [4, 8])
    @pytest.mark.parametrize("make", [exchange_coupling, lambda: random_coupling(2, 23)])
    def test_equals_split_exponentials(self, make, cells):
        # the split as exp(-i dt H_o) exp(-i dt H_e), each by its own
        # eigendecomposition
        h, ring = make(), RingSpace(cells, 2)
        parts = build_global_hamiltonian(h, ring)
        dts = (0.1, 0.025)
        for dt, err in zip(dts, splitting_error(h, ring, dts)):
            exact = hermitian_exp(parts.total.matrix, dt)
            split = hermitian_exp(parts.odd.matrix, dt) @ hermitian_exp(parts.even.matrix, dt)
            expected = spectral_norm(exact - split)
            assert err == pytest.approx(expected, rel=1e-13)

    def test_one_full_size_eigendecomposition(self, monkeypatch):
        ring = RingSpace(6, 2)
        sizes = []
        eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            sizes.append(m.shape[0])
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        splitting_error(random_coupling(2, 3), ring, [0.1])
        assert sorted(sizes) == [4, ring.dim]
        sizes.clear()
        # one 4x4 decomposition per dt for its scattering unitary, and one
        # of H shared by all three
        splitting_error(random_coupling(2, 3), ring, [0.1, 0.05, 0.025])
        assert sorted(sizes) == [4, 4, 4, ring.dim]

    @pytest.mark.parametrize("make", [exchange_coupling, lambda: random_coupling(2, 29)])
    def test_each_error_is_the_one_dt_float(self, make):
        h, ring = make(), RingSpace(6, 2)
        dts = [0.3, 0.1, 0.025, 0.1]
        assert splitting_error(h, ring, dts) == [splitting_error(h, ring, [dt])[0] for dt in dts]
        assert splitting_error(h, ring, []) == []

    def test_bits_and_peak_at_eight_cells(self):
        # H is summed alone, in the interleaved order of
        # build_global_hamiltonian, so the value is the same float as the
        # reference built from the full sum, under one BLAS thread as under
        # two; computing it first also warms the process before the peak
        # is traced
        h, ring = random_coupling(2, 1), RingSpace(8, 2)
        exact = hermitian_exp(build_global_hamiltonian(h, ring).total.matrix, 0.2)
        expected = spectral_norm(exact - composed_step_operator(trotter_pqca(h, 0.2), ring).matrix)
        for dts in ([0.2], [0.1, 0.2, 0.05]):
            tracemalloc.start()
            try:
                errs = splitting_error(h, ring, dts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert errs[dts.index(0.2)] == expected
            # H and hermitian_exp's three full-size arrays; with the unused
            # even and odd sums the peak was 5.4 of them. Across dts only
            # the eigenvectors are kept, so more dts raise no peak.
            assert peak < 4.5 * ring.dim**2 * 16


class TestCrosscheck:
    def test_zero_coupling(self):
        h = TwoCellHamiltonian(2, np.zeros((4, 4)))
        assert trotter_vs_pqca_crosscheck(h, RING4, 0.3, 5, random_vector(0)) == 0.0

    def test_single_step(self):
        h = random_coupling(2, 17)
        assert trotter_vs_pqca_crosscheck(h, RING4, 0.1, 1, random_vector(1)) < 1e-10

    def test_fifty_steps(self):
        h = random_coupling(2, 17)
        assert trotter_vs_pqca_crosscheck(h, RING4, 0.1, 50, random_vector(2)) < 1e-8

    def test_ring_operators_equal_split_exponentials(self):
        h = exchange_coupling()
        parts = build_global_hamiltonian(h, RING4)
        pq = trotter_pqca(h, 0.2)
        j_even = pqca_as_ring_operator(pq, RING4, "even").matrix
        j_odd = pqca_as_ring_operator(pq, RING4, "odd").matrix
        assert np.linalg.norm(j_even - hermitian_exp(parts.even.matrix, 0.2)) < 1e-12
        assert np.linalg.norm(j_odd - hermitian_exp(parts.odd.matrix, 0.2)) < 1e-12


def energy(h, v):
    """<v|H|v> for the dense ring Hamiltonian H."""
    return float(np.real(np.vdot(v, h.matrix @ v)))


class TestEnergy:
    def test_conserved_under_exact_evolution(self):
        h = random_coupling(2, 19)
        parts = build_global_hamiltonian(h, RING4)
        v = random_vector(3)
        e0 = energy(parts.total, v)
        for t in (0.3, 1.7, 6.4):
            vt = hermitian_exp(parts.total.matrix, t) @ v
            assert energy(parts.total, vt) == pytest.approx(e0, abs=1e-9)

    def test_split_drift_bounded_by_fitted_dt_squared_per_step(self):
        # fixed total time: steps = T/dt, so the bound C*dt^2*steps = C*T*dt
        h = random_coupling(2, 19)
        parts = build_global_hamiltonian(h, RING4)
        v = random_vector(4)
        e0 = energy(parts.total, v)
        total_time = 4.0
        drifts = {}
        for dt in (0.1, 0.05, 0.025):
            steps = round(total_time / dt)
            ee = hermitian_exp(parts.even.matrix, dt)
            eo = hermitian_exp(parts.odd.matrix, dt)
            w = v.copy()
            worst = 0.0
            for s in range(steps):
                w = (ee if s % 2 == 0 else eo) @ w
                worst = max(worst, abs(energy(parts.total, w) - e0))
            drifts[dt] = worst
        coeffs = [drift / (dt * dt * round(total_time / dt)) for dt, drift in drifts.items()]
        c_fit = max(coeffs)
        print(f"fitted split-evolution energy-drift coefficient C = {c_fit:.4f}")
        for dt, drift in drifts.items():
            assert drift <= c_fit * dt * dt * round(total_time / dt) * (1 + 1e-9)
        # the coefficient is stable across dt, confirming the scaling law
        assert max(coeffs) / min(coeffs) < 1.5

