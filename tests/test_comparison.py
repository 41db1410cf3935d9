"""Tests for the SWAP-test comparison, against the explicit joint state as oracle."""

import numpy as np
import pytest

from aqsim import qsim
from aqsim.comparison import (
    average_q,
    compare_product,
    swap_test,
)
from aqsim.qsim import ATOL, StateVector, haar_random_state, new_basis_state


def rng(seed=0):
    return np.random.default_rng(seed)


def oracle_detect_probability(a: StateVector, b: StateVector):
    """Reference: the antisymmetric projection of the explicit joint a (x) b,
    held as a d x d matrix per trial (rows a's basis, columns b's), and its
    squared norm."""
    joint = a.amplitudes[..., :, None] * b.amplitudes[..., None, :]
    branch = (joint - np.swapaxes(joint, -1, -2)) / 2.0
    return (np.abs(branch) ** 2).sum(axis=(-2, -1))


class _ZeroUniform:
    """An rng stand-in whose every uniform is 0: any p > 0 reads `different`."""

    def random(self, size):
        return np.zeros(size)


# (batch of a, batch of b, qubits per block): blocks of one-qubit registers,
# of a 3- and a 6-qubit whole register, a single state, and one register
# compared against every trial of a block
COMPARED_SHAPES = {
    "2048x1x2": ((2048, 1), (2048, 1), 1),
    "341x6x2": ((341, 6), (341, 6), 1),
    "512x1x8": ((512, 1), (512, 1), 3),
    "64x1x64": ((64, 1), (64, 1), 6),
    "single": ((), (), 3),
    "register_vs_block": ((6,), (341, 6), 1),
}


class TestSwapTest:
    @pytest.mark.parametrize("batch_a, batch_b, k", COMPARED_SHAPES.values(), ids=COMPARED_SHAPES.keys())
    def test_identical_never_conclusive(self, batch_a, batch_b, k):
        r = rng(4)
        a = haar_random_state(k, r, batch_a)
        # bit-equal copies in a separate array: every uniform is 0, so any
        # rounding of p above 0 would show
        copy = StateVector.owning(np.broadcast_to(a.amplitudes, batch_b + (a.dim,)).copy())
        assert not np.any(swap_test(a, copy, _ZeroUniform()))
        # a different pair draws, from the same seed, what the explicit joint's
        # probability draws over the broadcast batch
        b = haar_random_state(k, r, batch_b)
        expected = rng(5).random(np.broadcast_shapes(batch_a, batch_b)) < oracle_detect_probability(a, b)
        assert np.array_equal(swap_test(a, b, rng(5)), expected)

    def test_empirical_frequency_grid(self):
        # overlaps 0, 1/4, 1/2, 3/4, 1 realized with planar single-qubit
        # states; each overlap's trials run as one block
        r = rng(6)
        trials = 20000
        for overlap in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = StateVector(np.broadcast_to(new_basis_state(1, 0).amplitudes, (trials, 2)))
            c = np.sqrt(overlap)
            b = StateVector(np.array([c, np.sqrt(1 - overlap)], dtype=complex))
            expected = (1 - overlap) / 2
            hits = np.count_nonzero(swap_test(a, b, r))
            sigma = max(np.sqrt(expected * (1 - expected) / trials), 1e-9)
            assert abs(hits / trials - expected) <= 3 * sigma + 1e-9

    def test_basis_independence(self):
        # applying the same unitary to both inputs leaves the statistics alone
        r = rng(7)
        a, b = haar_random_state(1, r), haar_random_state(1, r)
        u = qsim.haar_random_unitary(2, r.integers(0, 2**64, size=1, dtype=np.uint64))[0]
        ua, ub = qsim.apply_unitary(a, u), qsim.apply_unitary(b, u)
        p = oracle_detect_probability(a, b)
        assert p == pytest.approx(oracle_detect_probability(ua, ub), abs=ATOL)
        trials = 20000
        block_a, block_ua = (StateVector(np.broadcast_to(s.amplitudes, (trials, 2))) for s in (a, ua))
        f_plain = np.count_nonzero(swap_test(block_a, b, r))
        f_rot = np.count_nonzero(swap_test(block_ua, ub, r))
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(f_plain - f_rot) / trials < 6 * sigma


class TestAverageQ:
    def test_known_values(self):
        assert average_q(1) == pytest.approx(0.25)
        assert average_q(3) == pytest.approx(0.4375)

    def test_monte_carlo_n1(self):
        r = rng(8)
        trials = 20000
        a, b = haar_random_state(1, r, (trials,)), haar_random_state(1, r, (trials,))
        hits = np.count_nonzero(swap_test(a, b, r))
        assert hits / trials == pytest.approx(0.25, abs=0.015)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            average_q(0)


def forged_block(reg: StateVector, m: int, trials: int, r) -> StateVector:
    """`trials` copies of a product register, each with m random qubits
    replaced by fresh Haar states."""
    n = reg.batch[-1]
    replaced = np.argsort(r.random((trials, n)), axis=-1)[:, :m]
    mask = (replaced[:, :, None] == np.arange(n)).any(axis=1)
    fresh = haar_random_state(1, r, (trials, n)).amplitudes
    return StateVector(np.where(mask[..., None], fresh, reg.amplitudes))


class TestCompareProduct:
    # Registers are one StateVector with a block axis (see qsim "Registers"),
    # so each test below runs its trials as one block.

    def test_identical_products_never_differ(self):
        r = rng(9)
        reg = haar_random_state(1, r, (3,))
        for _ in range(500):
            assert not compare_product(reg, reg, r)

    def test_one_forged_qubit_detection_quarter(self):
        r = rng(10)
        trials = 20000
        reg = haar_random_state(1, r, (2,))
        fresh = haar_random_state(1, r, (trials, 1)).amplitudes
        forged = StateVector(np.concatenate([np.broadcast_to(reg.amplitudes[:1], (trials, 1, 2)), fresh], axis=1))
        detections = np.count_nonzero(compare_product(reg, forged, r))
        # acceptance (no detection) should be near 3/4 for Haar replacement
        assert 1 - detections / trials == pytest.approx(0.75, abs=0.02)

    def test_m_forged_qubits_acceptance_power(self):
        r = rng(11)
        n, trials = 3, 20000
        reg = haar_random_state(1, r, (n,))
        for m in (1, 2, 3):
            different = compare_product(reg, forged_block(reg, m, trials, r), r)
            accepted = trials - np.count_nonzero(different)
            assert accepted / trials == pytest.approx(0.75**m, abs=0.02)

    def test_dimension_mismatch(self):
        zero = new_basis_state(1, 0).amplitudes
        one_qubit, two_qubits = StateVector(zero[None]), StateVector(np.stack([zero, zero]))
        with pytest.raises(ValueError):
            compare_product(one_qubit, two_qubits, rng())
        entangled = StateVector(new_basis_state(2, 0).amplitudes[None])
        with pytest.raises(ValueError):  # an entangled block has no per-qubit comparison
            compare_product(entangled, entangled, rng())
