import math

import numpy as np
import pytest

from qcalab import dirac
from qcalab.dirac import (
    ConvergenceResult,
    WalkField,
    convergence_study,
    dirac_plane_wave,
    dirac_scattering_unitary,
    gaussian_field,
    step_count,
    walk_evolve,
    walk_step,
    walk_vs_engine_crosscheck,
)
from qcalab.pqca import Pqca, check_quiescence, pqca_evolve, pqca_step
from qcalab.state import Alphabet, Configuration, SparseState


def delta_field(grid, site, component="plus"):
    pp = np.zeros(grid, dtype=complex)
    pm = np.zeros(grid, dtype=complex)
    (pp if component == "plus" else pm)[site] = 1.0
    return WalkField(pp, pm)


class TestScatteringUnitary:
    def test_massless_middle_block_crosses_wires(self):
        u = dirac_scattering_unitary(0.0, 0.7).matrix
        assert np.array_equal(u[1:3, 1:3], [[0, 1], [1, 0]])

    def test_quarter_turn_middle_block(self):
        # m*eps = pi/2: c = 0, s = 1
        u = dirac_scattering_unitary(np.pi / 2, 1.0).matrix
        assert np.allclose(u[1:3, 1:3], [[-1j, 0], [0, -1j]], atol=1e-15)

    def test_empty_and_full_blocks_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = dirac_scattering_unitary(rng.uniform(0, 3), rng.uniform(0.01, 2)).matrix
            assert u[0, 0] == 1 and u[3, 3] == 1
            assert np.linalg.norm(u[:, 0] - np.eye(4)[:, 0]) == 0.0
            assert np.linalg.norm(u[:, 3] - np.eye(4)[:, 3]) == 0.0

    def test_dirac_unitary_scatters_right_mover(self):
        # c = s = 1/sqrt(2): |01> -> (-i|01> + |10>)/sqrt(2)
        u = dirac_scattering_unitary(np.pi / 4, 1.0).matrix
        out = u @ np.array([0, 1, 0, 0], dtype=complex)
        expected = np.array([0, -1j, 1, 0]) / np.sqrt(2)
        assert np.allclose(out, expected, atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="eps"):
            dirac_scattering_unitary(1.0, 0.0)
        with pytest.raises(ValueError, match="mass"):
            dirac_scattering_unitary(-1.0, 0.5)


class TestWalkStep:
    def test_massless_delta_advances_one_site(self):
        f = walk_step(delta_field(16, 5), 0.0, 0.1)
        assert f.psi_plus[6] == 1.0 and np.count_nonzero(f.psi_plus) == 1
        assert np.count_nonzero(f.psi_minus) == 0

    def test_quarter_turn_flips_component_in_place(self):
        # cos(pi/2) is ~6e-17 in floating point, not exactly zero
        f = walk_step(delta_field(16, 5), np.pi / 2, 1.0)
        assert np.max(np.abs(f.psi_plus)) < 1e-15
        assert f.psi_minus[5] == pytest.approx(-1j)

    def test_probability_conserved(self):
        rng = np.random.default_rng(1)
        f = WalkField(
            rng.normal(size=32) + 1j * rng.normal(size=32),
            rng.normal(size=32) + 1j * rng.normal(size=32),
        ).normalized()
        for _ in range(5):
            f = walk_step(f, 0.9, 0.4)
            assert f.norm() == pytest.approx(1.0, abs=1e-12)

    def test_long_run_probability_drift(self):
        f = gaussian_field(256, 128.0, 8.0, mode=3)
        out = walk_evolve(f, 0.5, 0.1, 1000)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_zero_mass_components_decouple(self):
        rng = np.random.default_rng(2)
        pp = rng.normal(size=16) + 1j * rng.normal(size=16)
        f = WalkField(pp, np.zeros(16, dtype=complex)).normalized()
        out = walk_evolve(f, 0.0, 0.3, 7)
        assert np.max(np.abs(out.psi_minus)) < 1e-14


class TestPlaneWave:
    def test_massless_right_mover_spinor(self):
        k = 2 * math.pi * 2 / (32 * 0.1)
        w = dirac_plane_wave(k, 0.0, 0.0, 32, 0.1)
        assert np.max(np.abs(w.psi_minus)) == 0.0
        assert abs(w.psi_plus[0]) == pytest.approx(1 / math.sqrt(32))

    def test_zero_momentum_mixes_equally(self):
        w = dirac_plane_wave(0.0, 1.3, 0.0, 16, 0.1)
        assert np.allclose(w.psi_plus, w.psi_minus)
        assert abs(w.psi_plus[0]) == pytest.approx(1 / math.sqrt(32))

    def test_dispersion_relation(self):
        for j, m in ((1, 0.5), (3, 0.0), (-2, 1.7)):
            k = 2 * math.pi * j / (64 * 0.25)
            omega = math.sqrt(k * k + m * m)
            assert omega * omega - k * k - m * m == pytest.approx(0.0, abs=1e-12)
            # one time unit of phase advance matches the sampled wave
            w0 = dirac_plane_wave(k, m, 0.0, 64, 0.25)
            w1 = dirac_plane_wave(k, m, 1.0, 64, 0.25)
            assert np.allclose(w1.psi_plus, w0.psi_plus * np.exp(-1j * omega), atol=1e-12)

    def test_noncommensurate_momentum_names_nearest_mode(self):
        with pytest.raises(ValueError, match="j=2"):
            dirac_plane_wave(0.4, 0.5, 0.0, 32, 1.0)

    def test_walk_eigenmode_phase(self):
        # the walk advances a commensurate mode by a pure phase per step
        k = 2 * math.pi * 3 / (64 * 0.2)
        w0 = dirac_plane_wave(k, 0.8, 0.0, 64, 0.2)
        w1 = walk_step(w0, 0.8, 0.2)
        overlap = np.vdot(
            np.concatenate([w0.psi_plus, w0.psi_minus]),
            np.concatenate([w1.psi_plus, w1.psi_minus]),
        )
        assert abs(abs(overlap) - 1.0) < 5e-3  # continuum spinor, not the exact eigenvector


class TestMasslessExactness:
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    def test_plane_wave_error_is_roundoff(self, eps):
        grid = 64
        k = 2 * math.pi * 1 / (grid * eps)
        w0 = dirac_plane_wave(k, 0.0, 0.0, grid, eps)
        steps = round(1.0 / eps)
        evolved = walk_evolve(w0, 0.0, eps, steps)
        ref = dirac_plane_wave(k, 0.0, steps * eps, grid, eps)
        assert evolved.l2_distance(ref) < 1e-12


class TestConvergenceStudy:
    def test_first_order_in_the_fixed_grid_family(self):
        res = convergence_study(0.5, 1, 1.0, [0.1, 0.05, 0.025, 0.0125], 64)
        assert isinstance(res, ConvergenceResult)
        assert not res.skipped
        assert 0.7 <= res.fitted_order <= 1.3
        assert all(r.l2_error > 0 for r in res.rows)

    def test_second_order_at_fixed_physical_momentum(self):
        # same scheme, fixed k and circumference: errors scale as eps^2
        k = 2 * math.pi / 3.2
        errs = []
        for eps in (0.1, 0.05, 0.025):
            grid = round(3.2 / eps)
            w0 = dirac_plane_wave(k, 0.5, 0.0, grid, eps)
            ref = dirac_plane_wave(k, 0.5, 1.0, grid, eps)
            errs.append(walk_evolve(w0, 0.5, eps, round(1.0 / eps)).l2_distance(ref))
        for a, b in zip(errs, errs[1:]):
            assert 0.2 < b / a < 0.3

    def test_massless_errors_vanish(self):
        res = convergence_study(0.0, 1, 1.0, [0.1, 0.05], 64)
        assert all(r.l2_error < 1e-12 for r in res.rows)

    def test_noninteger_step_count_skipped(self):
        res = convergence_study(0.5, 1, 1.0, [0.1, 0.03], 64)
        assert [e for e, _ in res.skipped] == [0.03]
        assert len(res.rows) == 1

    def test_step_count(self):
        assert step_count(4.0, 0.004) == 1000
        for eps, reason in ((0.0, "eps must be positive"), (0.3, "is not an integer")):
            with pytest.raises(ValueError, match=reason):
                step_count(1.0, eps)

    def test_infinite_step_count_skipped(self):
        res = convergence_study(0.5, 1, 1.0, [0.1, 1e-310], 64)
        assert res.skipped == ((1e-310, "total_time/eps = inf is not an integer"),)

    def test_requires_strictly_decreasing_eps(self):
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(0.5, 1, 1.0, [0.05, 0.1], 64)

    def test_error_near_linear_in_time(self):
        # dispersion-phase regime: interpolating T/2 and 3T/2 predicts T
        def err(total):
            k = 2 * math.pi / (64 * 0.025)
            w0 = dirac_plane_wave(k, 0.5, 0.0, 64, 0.025)
            ref = dirac_plane_wave(k, 0.5, total, 64, 0.025)
            return walk_evolve(w0, 0.5, 0.025, round(total / 0.025)).l2_distance(ref)

        mid, lo, hi = err(1.0), err(0.5), err(1.5)
        assert abs(mid - (lo + hi) / 2) <= 0.1 * mid


class TestEngineCrosscheck:
    def test_massless_delta(self):
        assert walk_vs_engine_crosscheck(0.0, 0.1, 10, delta_field(64, 32)) < 1e-12

    def test_quarter_mass_two_steps_match_hand_trace(self):
        f = delta_field(64, 32)
        assert walk_vs_engine_crosscheck(np.pi / 4, 1.0, 2, f) < 1e-12
        w = walk_evolve(f, np.pi / 4, 1.0, 2)
        # branches: transmit-transmit 1/2 at +2, scatter-scatter -1/2 in
        # place, single scatters -i/2 at the two odd neighbours
        assert w.psi_plus[34] == pytest.approx(0.5, abs=1e-15)
        assert w.psi_plus[32] == pytest.approx(-0.5, abs=1e-15)
        assert w.psi_minus[31] == pytest.approx(-0.5j, abs=1e-15)
        assert w.psi_minus[33] == pytest.approx(-0.5j, abs=1e-15)

    def test_left_mover_delta(self):
        assert walk_vs_engine_crosscheck(0.3, 0.5, 6, delta_field(64, 33, "minus")) < 1e-12

    def test_gaussian_packet_hundred_steps(self):
        init = gaussian_field(512, 256.0, 10.0)
        assert walk_vs_engine_crosscheck(0.35, 0.2, 100, init) < 1e-9


def reference_crosscheck(mass, eps, steps, init):
    """The crosscheck on `SparseState` copies stepped by `pqca_step`, one
    Python loop over sites and terms, as it was written before the copies
    were packed; `walk_vs_engine_crosscheck` must return the same float."""
    alphabet = Alphabet(2)
    engine = Pqca(dirac_scattering_unitary(mass, eps))
    terms_a, terms_b = {}, {}
    for x in range(init.grid_size):
        plus, minus = complex(init.psi_plus[x]), complex(init.psi_minus[x])
        cfg = Configuration(1, (((x,), 1),))
        for terms, amp in ((terms_a, plus), (terms_b, minus)) if x % 2 == 0 else ((terms_a, minus), (terms_b, plus)):
            if amp != 0:
                terms[cfg] = amp
    state_a, state_b = SparseState(alphabet, 1, terms_a), SparseState(alphabet, 1, terms_b)
    f = init.copy()
    deviation = 0.0
    for s in range(steps):
        state_a = pqca_step(state_a, engine, "even" if s % 2 == 0 else "odd")
        state_b = pqca_step(state_b, engine, "odd" if s % 2 == 0 else "even")
        f = walk_step(f, mass, eps)
        parity = (s + 1) % 2
        pp = np.zeros(init.grid_size, dtype=np.complex128)
        pm = np.zeros(init.grid_size, dtype=np.complex128)
        leak = 0.0
        for state, plus_parity in ((state_a, parity), (state_b, 1 - parity)):
            for config, amp in state.terms.items():
                if len(config.cells) != 1 or config.cells[0][1] != 1:
                    leak = max(leak, abs(amp))
                    continue
                (x,) = config.cells[0][0]
                if not (0 <= x < init.grid_size):
                    leak = max(leak, abs(amp))
                    continue
                if x % 2 == plus_parity:
                    pp[x] += amp
                else:
                    pm[x] += amp
        deviation = max(
            deviation,
            leak,
            float(np.max(np.abs(pp - f.psi_plus))),
            float(np.max(np.abs(pm - f.psi_minus))),
        )
    return deviation


class TestCrosscheckBits:
    """The packed crosscheck returns the dict-based reference's float."""

    @pytest.mark.parametrize(
        "mass, eps, steps, init",
        [
            (0.9, 0.3, 30, gaussian_field(256, 128.0, 12.0, 3)),
            (0.35, 0.2, 12, gaussian_field(128, 64.0, 6.0, -2, "minus")),
            (0.0, 0.1, 10, delta_field(64, 32)),
            (np.pi / 4, 1.0, 5, delta_field(64, 33, "minus")),
        ],
        ids=["gauss-plus", "gauss-minus", "massless-delta", "quarter-mass-delta"],
    )
    def test_equals_reference(self, mass, eps, steps, init):
        assert walk_vs_engine_crosscheck(mass, eps, steps, init) == reference_crosscheck(mass, eps, steps, init)

    def test_leak_through_the_window_edge(self):
        # support that reaches the edge leaves the window on the unbounded
        # lattice: the deviation is the largest leaked modulus
        init = delta_field(16, 1, "minus")
        got = walk_vs_engine_crosscheck(0.4, 0.5, 6, init)
        assert got == reference_crosscheck(0.4, 0.5, 6, init)
        assert got > 0.1

    def test_signed_zeros_in_the_field(self):
        f = gaussian_field(64, 32.0, 4.0, 1)
        f = WalkField(f.psi_plus * complex(-0.0, 1.0), -f.psi_plus)
        f.psi_minus[::3] = complex(-0.0, -0.0)
        assert walk_vs_engine_crosscheck(0.6, 0.4, 8, f) == reference_crosscheck(0.6, 0.4, 8, f)


class TestOneParticleSector:
    def test_sector_closure_under_engine_evolution(self):
        pq = Pqca(dirac_scattering_unitary(0.8, 0.5))
        rng = np.random.default_rng(3)
        terms = {
            Configuration(1, {(int(2 * i),): 1}): complex(rng.normal(), rng.normal())
            for i in range(8)
        }
        s = SparseState(Alphabet(2), 1, terms).normalized()
        out = pqca_evolve(s, pq, 20)
        for config, amp in out.terms.items():
            assert len(config.cells) == 1, f"sector leak {config} amp {amp}"


class TestFourierReference:
    def test_walk_matches_transfer_matrix_propagator(self):
        # Each Fourier mode k of the recurrence evolves by the 2x2 matrix
        # [[c z, -i s], [-i s, c conj(z)]] with z = exp(-2 pi i k / M): the
        # shift x-1 of psi_plus multiplies its mode by z, x+1 by conj(z).
        rng = np.random.default_rng(4)
        grid, steps, mass, eps = 48, 31, 0.5, 0.4
        pp = rng.normal(size=grid) + 1j * rng.normal(size=grid)
        pm = rng.normal(size=grid) + 1j * rng.normal(size=grid)
        c, s = math.cos(mass * eps), math.sin(mass * eps)
        z = np.exp(-2j * math.pi * np.arange(grid) / grid)
        transfer = np.empty((grid, 2, 2), dtype=complex)
        transfer[:, 0, 0] = c * z
        transfer[:, 0, 1] = transfer[:, 1, 0] = -1j * s
        transfer[:, 1, 1] = c * z.conj()
        modes = np.stack([np.fft.fft(pp), np.fft.fft(pm)], axis=1)
        evolved = np.einsum("kij,kj->ki", np.linalg.matrix_power(transfer, steps), modes)
        out = walk_evolve(WalkField(pp, pm), mass, eps, steps)
        assert np.max(np.abs(out.psi_plus - np.fft.ifft(evolved[:, 0]))) < 1e-12
        assert np.max(np.abs(out.psi_minus - np.fft.ifft(evolved[:, 1]))) < 1e-12


def roll_recurrence(f, mass, eps, steps):
    """The recurrence as written in the module docstring, one np.roll per shift."""
    c, s = math.cos(mass * eps), math.sin(mass * eps)
    pp, pm = f.psi_plus.copy(), f.psi_minus.copy()
    for _ in range(steps):
        pp, pm = c * np.roll(pp, 1) - 1j * s * pm, c * np.roll(pm, -1) - 1j * s * pp
    return pp, pm


def signed_zero_field(grid, seed):
    rng = np.random.default_rng(seed)
    pp = rng.normal(size=grid) + 1j * rng.normal(size=grid)
    pm = rng.normal(size=grid) + 1j * rng.normal(size=grid)
    pp[::3] = complex(0.0, -0.0)
    pm[1::3] = complex(-0.0, 0.0)
    pp[1::4] = complex(-0.0, -0.0)
    pm[::5] = 0.0
    # products of these with c or s underflow to a zero whose sign depends on
    # the order of the operands in numpy's (fused) complex multiply; the zero
    # term they meet keeps that sign in the next step's amplitude
    pp[2::7] = complex(5e-324, -1e-308)
    pm[3::7] = 0.0
    pm[5::7] = complex(-1e-308, 5e-324)
    pp[4::7] = 0.0
    return WalkField(pp, pm)


class TestBitwiseRecurrence:
    """`walk_evolve` reproduces the np.roll recurrence bit for bit: tobytes()
    tells -0.0 from 0.0, which np.array_equal does not."""

    @pytest.mark.parametrize("grid", [2, 8, 512])
    @pytest.mark.parametrize("steps", [0, 1, 37])
    @pytest.mark.parametrize("mass, eps", [(0.0, 0.1), (0.7, 0.3), (math.pi / 2, 1.0)])
    def test_matches_roll_recurrence(self, grid, steps, mass, eps):
        f = signed_zero_field(grid, grid + steps)
        before = (f.psi_plus.tobytes(), f.psi_minus.tobytes())
        out = walk_evolve(f, mass, eps, steps)
        pp, pm = roll_recurrence(f, mass, eps, steps)
        assert out.psi_plus.tobytes() == pp.tobytes()
        assert out.psi_minus.tobytes() == pm.tobytes()
        assert (f.psi_plus.tobytes(), f.psi_minus.tobytes()) == before
        assert not np.shares_memory(out.psi_plus, f.psi_plus)
        assert not np.shares_memory(out.psi_minus, f.psi_minus)

    @pytest.mark.parametrize("grid", [2, 8, 512])
    def test_repeated_steps_match_one_evolve(self, grid):
        f = signed_zero_field(grid, 1)
        g = f
        for _ in range(37):
            g = walk_step(g, 0.7, 0.3)
        out = walk_evolve(f, 0.7, 0.3, 37)
        assert g.psi_plus.tobytes() == out.psi_plus.tobytes()
        assert g.psi_minus.tobytes() == out.psi_minus.tobytes()

    def test_two_tiles_and_three_rounds(self):
        # two tiles of _TILE + 3 sites; rounds of _HALO, _HALO and 3 steps
        grid, steps = 2 * dirac._TILE + 6, 2 * dirac._HALO + 3
        f = signed_zero_field(grid, 2)
        out = walk_evolve(f, 0.7, 0.3, steps)
        pp, pm = roll_recurrence(f, 0.7, 0.3, steps)
        assert out.psi_plus.tobytes() == pp.tobytes()
        assert out.psi_minus.tobytes() == pm.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 7, 13])
    @pytest.mark.parametrize("mass, eps", [(0.7, 0.3), (math.pi / 2, 1.0)])
    def test_small_tiles_match_roll_recurrence(self, monkeypatch, steps, mass, eps):
        # tiles of at most 5 sites and halos of 3: every tile edge, the
        # wraparound and halos wider than the grid on grids of 2 to 64 sites,
        # for step counts below, at and above the halo and over several rounds
        monkeypatch.setattr(dirac, "_TILE", 5)
        monkeypatch.setattr(dirac, "_HALO", 3)
        for grid in range(2, 65):
            f = signed_zero_field(grid, grid)
            before = (f.psi_plus.tobytes(), f.psi_minus.tobytes())
            out = walk_evolve(f, mass, eps, steps)
            pp, pm = roll_recurrence(f, mass, eps, steps)
            assert out.psi_plus.tobytes() == pp.tobytes(), grid
            assert out.psi_minus.tobytes() == pm.tobytes(), grid
            assert (f.psi_plus.tobytes(), f.psi_minus.tobytes()) == before
