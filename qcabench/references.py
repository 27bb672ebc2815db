"""Independent references the benchmark checks qcalab's outputs against.

Nothing here calls qcalab: each reference recomputes a result from the
definitions (the walk's Fourier transfer matrix, the one-particle block
update, an explicit-kron Hamiltonian with scipy's expm and an SVD norm).
"""

from __future__ import annotations

import math

import numpy as np


def transfer_matrices(theta, c: float, s: float) -> np.ndarray:
    """Per-mode one-step walk matrices T(theta) = [[c e^-i theta, -i s], [-i s, c e^i theta]].

    A mode exp(i theta x) of (psi_plus, psi_minus) picks up exp(-i theta)
    from the left shift of psi_plus and exp(+i theta) from the right shift
    of psi_minus; the mass couples the components with -i s.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    t = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    t[..., 0, 0] = c * np.exp(-1j * theta)
    t[..., 0, 1] = -1j * s
    t[..., 1, 0] = -1j * s
    t[..., 1, 1] = c * np.exp(1j * theta)
    return t


def matrix_power_stack(t: np.ndarray, n: int) -> np.ndarray:
    """t**n for a stack of square matrices, by repeated squaring."""
    out = np.broadcast_to(np.eye(t.shape[-1], dtype=t.dtype), t.shape).copy()
    base = t.copy()
    while n:
        if n & 1:
            out = out @ base
        n >>= 1
        if n:
            base = base @ base
    return out


def walk_fft(psi_plus, psi_minus, mass: float, eps: float, steps: int):
    """Endpoint of `steps` walk updates on a periodic grid, mode by mode."""
    c, s = math.cos(mass * eps), math.sin(mass * eps)
    m = len(psi_plus)
    modes = np.stack([np.fft.fft(psi_plus), np.fft.fft(psi_minus)], axis=-1)
    tn = matrix_power_stack(transfer_matrices(2 * math.pi * np.arange(m) / m, c, s), steps)
    evolved = np.einsum("kij,kj->ki", tn, modes)
    return np.fft.ifft(evolved[:, 0]), np.fft.ifft(evolved[:, 1])


def positive_spinor(k: float, mass: float):
    """Unit eigenvector of k sigma3 + m sigma1 at +sqrt(k^2 + m^2), and that eigenvalue."""
    omega = math.sqrt(k * k + mass * mass)
    v = np.array([omega + k, mass], dtype=float)
    if np.linalg.norm(v) == 0.0:
        v = np.array([0.0, 1.0])
    return v / np.linalg.norm(v), omega


def single_mode_error(mass: float, mode: int, grid: int, eps: float, total_time: float) -> float:
    """Grid L2 distance between the walk and the analytic plane wave.

    A normalized plane wave is one Fourier mode, so the distance over the
    grid is the 2-vector distance ||T(theta)^n u - exp(-i omega t) u||.
    """
    n = round(total_time / eps)
    k = 2 * math.pi * mode / (grid * eps)
    u, omega = positive_spinor(k, mass)
    t = transfer_matrices(2 * math.pi * mode / grid, math.cos(mass * eps), math.sin(mass * eps))
    walked = matrix_power_stack(t, n)[0] @ u
    return float(np.linalg.norm(walked - np.exp(-1j * omega * total_time) * u))


def one_particle_evolve(x0: int, mass: float, eps: float, steps: int, start_parity: int = 0) -> dict:
    """Amplitudes {cell: amp} of one particle under the Dirac block automaton.

    Blocks pair cells (a, a+1) with a of the phase's parity. In a block the
    particle crosses to the other cell with amplitude cos(m eps) and stays
    with -i sin(m eps).
    """
    c, s = math.cos(mass * eps), math.sin(mass * eps)
    amps = {x0: 1.0 + 0.0j}
    parity = start_parity
    for _ in range(steps):
        new: dict = {}
        for x, a in amps.items():
            other = x + 1 if (x - parity) % 2 == 0 else x - 1
            new[other] = new.get(other, 0.0) + c * a
            new[x] = new.get(x, 0.0) - 1j * s * a
        amps = new
        parity ^= 1
    return amps


def ring_hamiltonian(h: np.ndarray, n: int, d: int):
    """(H, H_even, H_odd) for H = sum_x h on cells (x, x+1 mod n), by explicit kron.

    The wrap-around term on cells (n-1, 0) expands h = sum_ij E_ij (x) B_ij,
    with E_ij on the left cell and B_ij on the right, into
    sum_ij B_ij (x) I (x) E_ij.
    """
    blocks = np.asarray(h, dtype=np.complex128).reshape(d, d, d, d)
    terms = []
    for x in range(n - 1):
        terms.append(np.kron(np.kron(np.eye(d**x), h), np.eye(d ** (n - x - 2))))
    wrap = np.zeros((d**n, d**n), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            wrap += np.kron(np.kron(blocks[i, :, j, :], np.eye(d ** (n - 2))), e)
    terms.append(wrap)
    even = sum(terms[0::2])
    odd = sum(terms[1::2])
    return even + odd, even, odd


def splitting_error(h: np.ndarray, n: int, d: int, dt: float) -> float:
    """||exp(-i dt H) - exp(-i dt H_odd) exp(-i dt H_even)||_2 by expm and SVD."""
    from scipy.linalg import expm

    total, even, odd = ring_hamiltonian(h, n, d)
    diff = expm(-1j * dt * total) - expm(-1j * dt * odd) @ expm(-1j * dt * even)
    return float(np.linalg.norm(diff, 2))
