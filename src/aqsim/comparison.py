"""SWAP-test state comparison.

The test projects the joint register onto its symmetric/antisymmetric
subspaces. Landing in the antisymmetric subspace proves the inputs differ;
the symmetric outcome is inconclusive. The one-sided detection probability is
(1 - |<a|b>|^2)/2, so it never exceeds 1/2: no measurement conclusively
confirms that two unknown pure states are identical.

Like qsim, every function acts trial by trial on a block (trial axis first),
and block by block on a register's block axis. A test's outcome is
`different`, one bool per trial and block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qsim import StateVector, _norm_sq, tensor


@dataclass(frozen=True)
class ComparisonResult:
    different: np.ndarray  # per trial and block: the antisymmetric outcome, which proves the inputs differ
    square: np.ndarray = field(repr=False)  # joint (a, b) amplitudes before the test, rows a's basis, columns b's

    @cached_property
    def post_state(self) -> StateVector:
        """The joint (a, b) register after the projection, built when first read."""
        swapped = np.swapaxes(self.square, -1, -2)  # SWAP, as a view
        branch = self.square - swapped  # twice the antisymmetric projection
        sym = ~self.different[..., None, None]  # else the symmetric one
        np.add(self.square, swapped, out=branch, where=sym)
        joint = branch.reshape(branch.shape[:-2] + (branch.shape[-1] ** 2,))
        joint /= np.sqrt(_norm_sq(joint))[..., None]
        return StateVector.owning(joint)


def swap_test(a: StateVector, b: StateVector, rng: np.random.Generator) -> ComparisonResult:
    """One SWAP test on each trial's (and block's) pair, one uniform each;
    post_state is the projected joint register."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("cannot compare states on different qubit counts")
    joint = tensor(a, b).amplitudes
    batch = joint.shape[:-1]
    square = joint.reshape(batch + (a.dim, a.dim))  # rows index a's basis, columns b's
    branch = (square - np.swapaxes(square, -1, -2)).reshape(joint.shape)  # twice the antisymmetric projection
    different = rng.random(batch)[()] < _norm_sq(branch) / 4.0
    return ComparisonResult(different, square)


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
    return swap_test(a, b, rng).different.any(-1)
