"""Tests for the SWAP-test comparison, with an independent matrix oracle."""

import numpy as np
import pytest

from aqsim import qsim
from aqsim.comparison import (
    average_q,
    compare_product,
    detect_probability,
    swap_test,
)
from aqsim.qsim import ATOL, StateVector, fidelity, haar_random_state, new_basis_state


def rng(seed=0):
    return np.random.default_rng(seed)


def oracle_detect_probability(a: StateVector, b: StateVector) -> float:
    """Brute-force oracle: explicit antisymmetric projector matrix."""
    d = a.dim
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    proj = (np.eye(d * d) - swap) / 2.0
    joint = np.kron(a.amplitudes, b.amplitudes)
    return float(np.vdot(joint, proj @ joint).real)


class TestDetectProbability:
    def test_identical_zero(self):
        s = haar_random_state(2, rng(1))
        assert detect_probability(s, s) == pytest.approx(0.0, abs=ATOL)

    def test_orthogonal_half(self):
        p = detect_probability(new_basis_state(1, 0), new_basis_state(1, 1))
        assert p == pytest.approx(0.5, abs=ATOL)
        assert p == pytest.approx(
            oracle_detect_probability(new_basis_state(1, 0), new_basis_state(1, 1)), abs=ATOL
        )

    def test_half_overlap_quarter(self):
        plus = qsim.x_state(qsim.XOutcome.PLUS_X)
        p = detect_probability(new_basis_state(1, 0), plus)
        assert p == pytest.approx(0.25, abs=ATOL)
        assert p == pytest.approx(oracle_detect_probability(new_basis_state(1, 0), plus), abs=ATOL)

    def test_matches_oracle_random(self):
        r = rng(2)
        for k in (1, 2):
            for _ in range(20):
                a, b = haar_random_state(k, r), haar_random_state(k, r)
                assert detect_probability(a, b) == pytest.approx(
                    oracle_detect_probability(a, b), abs=ATOL
                )

    def test_never_exceeds_half(self):
        r = rng(3)
        for _ in range(200):
            a, b = haar_random_state(2, r), haar_random_state(2, r)
            assert detect_probability(a, b) <= 0.5 + ATOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            detect_probability(new_basis_state(1, 0), new_basis_state(2, 0))


class TestSwapTest:
    def test_identical_never_conclusive(self):
        r = rng(4)
        s = haar_random_state(1, r)
        for _ in range(2000):
            assert not swap_test(s, s, r).different

    def test_post_state_normalized(self):
        r = rng(5)
        for _ in range(50):
            a, b = haar_random_state(1, r), haar_random_state(1, r)
            post = swap_test(a, b, r).post_state
            assert np.vdot(post.amplitudes, post.amplitudes).real == pytest.approx(
                1.0, abs=ATOL
            )

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
            hits = np.count_nonzero(swap_test(a, b, r).different)
            sigma = max(np.sqrt(expected * (1 - expected) / trials), 1e-9)
            assert abs(hits / trials - expected) <= 3 * sigma + 1e-9

    def test_basis_independence(self):
        # applying the same unitary to both inputs leaves the statistics alone
        r = rng(7)
        a, b = haar_random_state(1, r), haar_random_state(1, r)
        u = qsim.haar_random_unitary(2, r.integers(0, 2**64, size=1, dtype=np.uint64))[0]
        ua, ub = qsim.apply_unitary(a, u), qsim.apply_unitary(b, u)
        assert detect_probability(a, b) == pytest.approx(
            detect_probability(ua, ub), abs=ATOL
        )
        trials = 20000
        block_a, block_ua = (StateVector(np.broadcast_to(s.amplitudes, (trials, 2))) for s in (a, ua))
        f_plain = np.count_nonzero(swap_test(block_a, b, r).different)
        f_rot = np.count_nonzero(swap_test(block_ua, ub, r).different)
        p = detect_probability(a, b)
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
        hits = np.count_nonzero(swap_test(a, b, r).different)
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
