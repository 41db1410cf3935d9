"""SWAP-test state comparison.

The test projects the joint register a (x) b onto its symmetric and
antisymmetric subspaces. Landing in the antisymmetric subspace proves the
inputs differ; the symmetric outcome is inconclusive. The one-sided detection
probability is (1 - |<a|b>|^2)/2, so it never exceeds 1/2: no measurement
conclusively confirms that two unknown pure states are identical. No code
reads the post-measurement state, so the joint is never built: by Lagrange's
identity the antisymmetric branch's probability, ||a (x) b - b (x) a||^2 / 4,
is (<a|a><b|b> - |<a|b>|^2) / 2, three inner products of the registers as
they are.

Like qsim, every function acts trial by trial on a block (trial axis first),
and block by block on a register's block axis. A test's outcome is
`different`, one bool per trial and block. Each test acts on copies, so the
compared registers are left as they were.
"""

from __future__ import annotations

import numpy as np

from .qsim import StateVector


def swap_test(a: StateVector, b: StateVector, rng: np.random.Generator) -> np.ndarray:
    """One SWAP test on each trial's (and block's) pair, one uniform each:
    `different` per trial and block."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("cannot compare states on different qubit counts")
    x, y = a.amplitudes, b.amplitudes
    xc, yc = x.conj(), y.conj()
    # one elementwise contraction for all three, so that bit-equal inputs
    # give p == 0 exactly, and no BLAS call per short row
    aa, ab, bb = (np.einsum("...i,...i->...", u, v) for u, v in ((xc, x), (xc, y), (yc, y)))
    p = (aa.real * bb.real - np.abs(ab) ** 2) / 2.0
    return rng.random(np.shape(p)) < p  # one uniform per trial and block of the broadcast batch


def average_q(n: int) -> float:
    """Mean detection probability over independent Haar pairs on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return 0.5 * (1.0 - 2.0**-n)


def compare_product(a: StateVector, b: StateVector, rng: np.random.Generator) -> np.ndarray:
    """Compare two product registers (one-qubit blocks) qubit by qubit: per
    trial, whether any qubit pair proved different.

    One SWAP test per qubit pair, every pair of every trial drawn by one
    swap_test call over the block axis (a register without a trial axis is
    compared against every trial of the other); any conclusive mismatch
    settles it.
    Raises if either register has a multi-qubit block or the sizes disagree.
    """
    if a.qubit_count != 1 or b.qubit_count != 1:
        raise ValueError(f"per-qubit comparison needs one-qubit blocks, got {a.qubit_count} and {b.qubit_count}")
    if a.batch[-1] != b.batch[-1]:
        raise ValueError(f"cannot compare {a.batch[-1]} qubits with {b.batch[-1]}")
    return swap_test(a, b, rng).any(-1)
