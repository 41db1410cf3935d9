"""SWAP-test state comparison.

The test projects the joint register onto its symmetric/antisymmetric
subspaces. Landing in the antisymmetric subspace proves the inputs differ;
the symmetric outcome is inconclusive. The one-sided detection probability is
(1 - |<a|b>|^2)/2, so it never exceeds 1/2: no measurement conclusively
confirms that two unknown pure states are identical.

Like qsim, every function acts trial by trial on a block (trial axis first),
and block by block on a register's block axis. A test's outcome is
`different`, one bool per trial and block. Each test acts on copies, so the
compared registers are left as they were.
"""

from __future__ import annotations

import numpy as np

from .qsim import StateVector, _norm_sq, tensor


def swap_test(a: StateVector, b: StateVector, rng: np.random.Generator) -> np.ndarray:
    """One SWAP test on each trial's (and block's) pair, one uniform each:
    `different` per trial and block."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("cannot compare states on different qubit counts")
    joint = tensor(a, b).amplitudes
    square = joint.reshape(joint.shape[:-1] + (a.dim, a.dim))  # rows index a's basis, columns b's
    branch = (square - np.swapaxes(square, -1, -2)).reshape(joint.shape)  # twice the antisymmetric projection
    return rng.random(joint.shape[:-1])[()] < _norm_sq(branch) / 4.0


def average_q(n: int) -> float:
    """Mean detection probability over independent Haar pairs on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return 0.5 * (1.0 - 2.0**-n)


def compare_product(a: StateVector, b: StateVector, rng: np.random.Generator) -> np.ndarray:
    """Compare two product registers (one-qubit blocks) qubit by qubit: per
    trial, whether any qubit pair proved different.

    One SWAP test per qubit pair, every pair tested in every trial by one
    swap_test call over the block axis; any conclusive mismatch settles it.
    Raises if either register has a multi-qubit block or the sizes disagree.
    """
    if a.qubit_count != 1 or b.qubit_count != 1:
        raise ValueError(f"per-qubit comparison needs one-qubit blocks, got {a.qubit_count} and {b.qubit_count}")
    if a.batch[-1] != b.batch[-1]:
        raise ValueError(f"cannot compare {a.batch[-1]} qubits with {b.batch[-1]}")
    return swap_test(a, b, rng).any(-1)
