"""Tests of the benchmark's own references, counting and span arithmetic.

    python3 -m pytest qcabench -q      (from the root of a qcalab checkout)
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- references against hand-checked cases ---------------------------------


def direct_walk(pp, pm, c, s, steps):
    m = len(pp)
    pp, pm = list(pp), list(pm)
    for _ in range(steps):
        pp, pm = (
            [c * pp[(x - 1) % m] - 1j * s * pm[x] for x in range(m)],
            [c * pm[(x + 1) % m] - 1j * s * pp[x] for x in range(m)],
        )
    return np.array(pp), np.array(pm)


def test_transfer_matrix_entries():
    t = ref.transfer_matrices(0.3, 0.8, 0.6)[0]
    assert t[0, 0] == pytest.approx(0.8 * cmath.exp(-0.3j))
    assert t[1, 1] == pytest.approx(0.8 * cmath.exp(0.3j))
    assert t[0, 1] == t[1, 0] == -0.6j
    assert abs(np.linalg.det(t) - 1.0) < 1e-15


def test_fft_walk_matches_a_direct_loop_on_8_sites_for_3_steps():
    rng = np.random.default_rng(0)
    pp = rng.normal(size=8) + 1j * rng.normal(size=8)
    pm = rng.normal(size=8) + 1j * rng.normal(size=8)
    mass, eps = 0.7, 0.4
    want = direct_walk(pp, pm, math.cos(mass * eps), math.sin(mass * eps), 3)
    got = ref.walk_fft(pp, pm, mass, eps, 3)
    assert np.max(np.abs(got[0] - want[0])) < 1e-14
    assert np.max(np.abs(got[1] - want[1])) < 1e-14


def test_matrix_power_stack_by_squaring():
    t = ref.transfer_matrices(np.array([0.1, 1.2]), 0.6, 0.8)
    for n in (0, 1, 5, 12):
        want = np.stack([np.linalg.matrix_power(m, n) for m in t])
        assert np.max(np.abs(ref.matrix_power_stack(t, n) - want)) < 1e-13


def test_single_mode_error_is_zero_for_the_massless_walk():
    # at m = 0 the walk shifts psi_plus exactly one site per step: no error
    assert ref.single_mode_error(0.0, 3, 64, 0.1, 1.0) < 1e-13


def test_one_particle_update_by_hand():
    c, s = math.cos(0.5 * 0.4), math.sin(0.5 * 0.4)
    one = ref.one_particle_evolve(0, 0.5, 0.4, 1)
    assert one == pytest.approx({1: c, 0: -1j * s})
    two = ref.one_particle_evolve(0, 0.5, 0.4, 2)
    # odd phase: cell 1 is the left cell of block (1, 2), cell 0 the right cell of (-1, 0)
    assert two == pytest.approx({2: c * c, 1: -1j * s * c, -1: -1j * s * c, 0: -s * s})
    assert sum(abs(a) ** 2 for a in ref.one_particle_evolve(3, 0.9, 0.3, 9).values()) == pytest.approx(1.0)


def test_kron_hamiltonian_by_hand():
    h = np.zeros((4, 4), dtype=np.complex128)
    h[1, 2] = h[2, 1] = 1.0  # hopping |01> <-> |10>
    total, even, odd = ref.ring_hamiltonian(h, 4, 2)
    one_at_0 = np.zeros(16)
    one_at_0[0b1000] = 1.0  # cell 0 is the most significant digit
    assert np.flatnonzero(total @ one_at_0).tolist() == [0b0001, 0b0100]
    assert np.flatnonzero(even @ one_at_0).tolist() == [0b0100]  # bond (0, 1)
    assert np.flatnonzero(odd @ one_at_0).tolist() == [0b0001]  # wrap bond (3, 0)
    assert np.allclose(total, total.conj().T)


def test_splitting_error_vanishes_for_commuting_parts():
    h = np.diag([0.0, 0.7, -0.3, 1.1]).astype(np.complex128)
    assert ref.splitting_error(h, 4, 2, 0.3) < 1e-14


# -- operation counting ------------------------------------------------------


def signal_output(after: str) -> dict:
    return {
        "rc": 0,
        "stdout": "signalling report: length=6\n"
        "receiver trace distance before step: 0\n"
        f"receiver trace distance after step: {after}\n"
        "sender phase-flip maps c+ to c- with max deviation: 0\n"
        "verdict: pass\n",
        "stderr": "",
    }


def test_a_wrong_value_is_one_failed_operation_and_the_pass_goes_on(tmp_path):
    checker = checks.Checker("dense_verify", 1, str(tmp_path))

    def save(name, output):
        with open(tmp_path / f"{name}.pkl", "wb") as fh:
            pickle.dump(output, fh)

    save("signal", signal_output("1"))
    assert run.tally(checker, ["signal"], 0) == (1, 0, [])
    save("signal", signal_output("0.5"))  # a value the theory rules out
    save("crosscheck", 0.0)
    checker.check_crosscheck = lambda out: []  # a second operation after the failing one
    attempted, failed, unexpected = run.tally(checker, ["signal", "crosscheck"], 1)
    assert (attempted, failed) == (2, 1)
    assert any("signal" in m for m in unexpected) and any("differs from the first pass" in m for m in unexpected)


def tally_trotter(tmp_path, shortfall: float):
    """Check a trotter output whose splitting errors are `shortfall` relative below the reference."""
    checker = checks.Checker("dense_verify", 1, str(tmp_path))
    h = checks.random_coupling_matrix(1)
    lines = ["dt,splitting_error,order_estimate"]
    for dt in (0.2, 0.1, 0.05):
        lines.append(f"{dt!r},{ref.splitting_error(h, 8, 2, dt) * (1 - shortfall)!r},nan")
    with open(tmp_path / "trotter.pkl", "wb") as fh:
        pickle.dump({"rc": 0, "stdout": "\n".join(lines) + "\n", "stderr": ""}, fh)
    return run.tally(checker, ["trotter"], 0)


def test_the_known_fault_is_counted_but_not_unexpected(tmp_path):
    assert tally_trotter(tmp_path, 1e-6) == (1, 1, [])


def test_a_shortfall_beyond_the_known_fault_is_unexpected(tmp_path):
    attempted, failed, unexpected = tally_trotter(tmp_path, 1e-3)
    assert (attempted, failed, len(unexpected)) == (1, 1, 3)


# -- spans -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 7.0, 0),
        ("d", 6.0, 8.0, 0),  # overlaps the other d: covered time counts once
        ("e", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx({"a": 4.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0})


def test_covered_length_merges_overlaps():
    assert tracing.covered_length([(5, 7), (1, 2), (6, 8), (2, 3)]) == 5
    assert tracing.covered_length([]) == 0


def test_wrappers_sit_on_every_attribute_that_names_a_function():
    import qcalab
    from qcalab import operators, structure
    from qcalab.state import RingSpace

    original = operators.support_of
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, qcalab)
    try:
        assert structure.support_of is operators.support_of is qcalab.support_of
        assert structure.support_of is not original
        structure.causality_check(operators.identity_operator(RingSpace(2, 2)), (0,))
    finally:
        uninstall()
    assert structure.support_of is operators.support_of is original
    calls = tracer.calls()
    assert calls["structure.causality_check"] == 1 and calls["operators.support_of"] == 8
    metrics = tracing.layer_metrics(
        tracer, ["structure.causality_check.images", "operators.support_of.calls", "structure.max_dense_dim"], 1
    )
    assert metrics == {"structure.causality_check.images": 8, "operators.support_of.calls": 8,
                       "structure.max_dense_dim": 4}
