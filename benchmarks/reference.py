"""A fixed reference computation that times how fast the host runs right now.

Its mix imitates an aqsim trial: small complex numpy arrays built, reshaped,
contracted and measured, a QR decomposition, random draws and Python-level
object handling. It imports nothing from aqsim, so a change to the program
leaves it alone. `child.py` times chunks of it among a workload's trials,
and `run.py` scales every time by how far the host's speed then was from
its nominal speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Chunks timed per map_trials call.
CHUNKS = 30


@dataclass(frozen=True)
class _State:
    amplitudes: np.ndarray
    label: str


def _step(rng: np.random.Generator, k: int) -> float:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = _State(a / np.linalg.norm(a), "a")
    for j in range(k):
        b = np.array([1.0, 1j * (j % 3)]) / np.sqrt(1.0 + (j % 3) ** 2)
        state = _State(np.kron(state.amplitudes, b), f"{state.label}{j}")
    block = state.amplitudes.reshape([2] * (k + 1))
    bra = np.array([1.0, 1.0]) / np.sqrt(2.0)
    residual = np.tensordot(bra, block, axes=([0], [k // 2])).reshape(-1)
    prob = float(np.vdot(residual, residual).real)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    m = np.kron(u, np.eye(8, dtype=complex))
    v = m @ np.conj(m.T)
    flips = {i: int(x) for i, x in enumerate(rng.integers(0, 2, size=2 * k))}
    return prob + float(abs(v[0, 0])) + sum(flips.values())


def chunk_ns(steps: int = 10) -> int:
    """Wall nanoseconds of one fixed chunk of reference work (about 2 ms)."""
    rng = np.random.default_rng(12345)
    start = time.perf_counter_ns()
    for i in range(steps):
        _step(rng, 1 + i % 4)
    return time.perf_counter_ns() - start
