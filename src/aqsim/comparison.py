"""SWAP-test state comparison.

The test projects the joint register onto its symmetric/antisymmetric
subspaces. Landing in the antisymmetric subspace proves the inputs differ;
the symmetric outcome is inconclusive. The one-sided detection probability is
(1 - |<a|b>|^2)/2, so it never exceeds 1/2: no measurement conclusively
confirms that two unknown pure states are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qsim import StateVector, fidelity, qubit_blocks, tensor


class Verdict(Enum):
    POSSIBLY_SAME = "possibly-same"
    DEFINITELY_DIFFERENT = "definitely-different"


@dataclass(frozen=True)
class ComparisonResult:
    verdict: Verdict
    post_state: StateVector  # joint (a, b) register after the projection


def _swap_halves(joint: np.ndarray, d: int) -> np.ndarray:
    return joint.reshape(d, d).T.reshape(-1)


def detect_probability(a: StateVector, b: StateVector) -> float:
    """Analytic probability of the conclusive 'different' outcome."""
    return (1.0 - fidelity(a, b)) / 2.0


def swap_test(a: StateVector, b: StateVector, rng: np.random.Generator) -> ComparisonResult:
    """One SWAP test on the pair; post_state is the projected joint register."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("cannot compare states on different qubit counts")
    joint = tensor(a, b).amplitudes
    swapped = _swap_halves(joint, a.dim)
    anti = (joint - swapped) / 2.0
    p_anti = float(np.vdot(anti, anti).real)
    if rng.random() < p_anti:
        return ComparisonResult(
            Verdict.DEFINITELY_DIFFERENT, StateVector(anti / np.sqrt(p_anti))
        )
    sym = (joint + swapped) / 2.0
    p_sym = float(np.vdot(sym, sym).real)
    return ComparisonResult(Verdict.POSSIBLY_SAME, StateVector(sym / np.sqrt(p_sym)))


def average_q(n: int) -> float:
    """Mean detection probability over independent Haar pairs on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return 0.5 * (1.0 - 2.0**-n)


def compare_product(a, b, rng: np.random.Generator) -> Verdict:
    """Compare two product registers, given as one-qubit blocks, qubit by qubit.

    One SWAP test per qubit pair; any conclusive mismatch settles it. Raises
    if either register has a multi-qubit block or the sizes disagree.
    """
    a, b = qubit_blocks(a, "per-qubit comparison"), qubit_blocks(b, "per-qubit comparison")
    if len(a) != len(b):
        raise ValueError(f"cannot compare {len(a)} qubits with {len(b)}")
    for fa, fb in zip(a, b):
        if swap_test(fa, fb, rng).verdict is Verdict.DEFINITELY_DIFFERENT:
            return Verdict.DEFINITELY_DIFFERENT
    return Verdict.POSSIBLY_SAME
