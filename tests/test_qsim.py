"""Unit and property tests for the statevector engine."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsim import qsim
from aqsim.qsim import (
    ATOL,
    BellOutcome,
    PauliOp,
    StateVector,
    XOutcome,
    apply_one_qubit,
    apply_pauli,
    bell_measure,
    bell_probabilities,
    fidelity,
    ghz_state,
    haar_random_state,
    inner_product,
    measure_computational,
    measure_x,
    new_basis_state,
    project_bell,
    project_x,
    tensor,
)

SQRT2_INV = 1 / np.sqrt(2)


def rng(seed=0):
    return np.random.default_rng(seed)


@st.composite
def single_qubit_states(draw):
    parts = draw(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=4, max_size=4
        )
    )
    vec = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.array([1.0, 0.0], dtype=complex)
        norm = 1.0
    return StateVector(vec / norm)


class TestStateVector:
    def test_basis_states(self):
        assert np.allclose(new_basis_state(1, 0).amplitudes, [1, 0])
        assert np.allclose(new_basis_state(2, 3).amplitudes, [0, 0, 0, 1])
        amps = new_basis_state(3, 0).amplitudes
        assert amps[0] == 1 and np.all(amps[1:] == 0)

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError):
            new_basis_state(2, 4)
        with pytest.raises(ValueError):
            new_basis_state(1, -1)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_immutable(self):
        s = new_basis_state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestGhz:
    def test_amplitudes(self):
        g = ghz_state()
        expected = np.zeros(8)
        expected[0] = expected[7] = SQRT2_INV
        assert np.allclose(g.amplitudes, expected, atol=ATOL)

    def test_self_fidelity(self):
        assert fidelity(ghz_state(), ghz_state()) == pytest.approx(1.0, abs=ATOL)

    def test_first_qubit_measurement_uniform(self):
        r = rng(11)
        outcomes = [measure_computational(ghz_state(), 0, r)[0] for _ in range(20000)]
        freq = np.mean(outcomes)
        sigma = 0.5 / np.sqrt(20000)
        assert abs(freq - 0.5) < 3 * sigma

    def test_correlation_instance(self):
        # Bell outcome psi- on (message, Alice's share) leaves a|00> - b|11>.
        a, b = 0.6, 0.8
        p = StateVector(np.array([a, b], dtype=complex))
        joint = tensor(p, ghz_state())
        prob, residual = project_bell(joint, 0, 1, BellOutcome.PSI_MINUS)
        assert prob == pytest.approx(0.25, abs=ATOL)
        expected = np.zeros(4, dtype=complex)
        expected[0], expected[3] = a, -b
        assert fidelity(residual, StateVector(expected)) == pytest.approx(1.0, abs=ATOL)


class TestGates:
    def test_sigma_z_examples(self):
        z = PauliOp.Z.matrix
        assert np.allclose(apply_one_qubit(new_basis_state(1, 0), z, 0).amplitudes, [1, 0])
        assert np.allclose(apply_one_qubit(new_basis_state(1, 1), z, 0).amplitudes, [0, -1])

    def test_sigma_z_squared_is_identity(self):
        s = haar_random_state(1, rng(3))
        twice = apply_pauli(apply_pauli(s, PauliOp.Z, 0), PauliOp.Z, 0)
        assert np.allclose(twice.amplitudes, s.amplitudes, atol=ATOL)

    @pytest.mark.parametrize("pauli", list(PauliOp))
    def test_pauli_involution(self, pauli):
        s = haar_random_state(2, rng(4))
        twice = apply_pauli(apply_pauli(s, pauli, 1), pauli, 1)
        assert fidelity(twice, s) == pytest.approx(1.0, abs=ATOL)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            apply_one_qubit(new_basis_state(1, 0), np.array([[1, 1], [0, 1]]), 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            apply_one_qubit(new_basis_state(1, 0), PauliOp.X.matrix, 1)

    def test_pauli_matches_matrix_path(self):
        r = rng(5)
        for k in (1, 2, 3):
            s = haar_random_state(k, r)
            for t in range(k):
                for p in PauliOp:
                    fast = apply_pauli(s, p, t)
                    slow = apply_one_qubit(s, p.matrix, t)
                    assert np.allclose(fast.amplitudes, slow.amplitudes, atol=ATOL)


class TestTensor:
    def test_examples(self):
        s01 = tensor(new_basis_state(1, 0), new_basis_state(1, 1))
        assert np.allclose(s01.amplitudes, [0, 1, 0, 0])
        plus = qsim.x_state(XOutcome.PLUS_X)
        t = tensor(plus, new_basis_state(1, 0))
        assert np.allclose(t.amplitudes, [SQRT2_INV, 0, SQRT2_INV, 0])

    @given(single_qubit_states(), single_qubit_states())
    @settings(max_examples=50, deadline=None)
    def test_norm_multiplicative(self, a, b):
        t = tensor(a, b)
        assert np.vdot(t.amplitudes, t.amplitudes).real == pytest.approx(1.0, abs=ATOL)
        assert t.qubit_count == 2


class TestMeasurement:
    def test_deterministic_computational(self):
        bit, residual = measure_computational(new_basis_state(1, 1), 0, rng())
        assert bit == 1 and residual is None

    def test_born_rule(self):
        s = StateVector(np.array([0.6, 0.8], dtype=complex))
        r = rng(6)
        hits = sum(measure_computational(s, 0, r)[0] == 0 for _ in range(20000))
        sigma = np.sqrt(0.36 * 0.64 / 20000)
        assert abs(hits / 20000 - 0.36) < 3 * sigma

    def test_ghz_projection_residual(self):
        r = rng(7)
        for _ in range(20):
            bit, residual = measure_computational(ghz_state(), 0, r)
            expected = new_basis_state(2, 0 if bit == 0 else 3)
            assert fidelity(residual, expected) == pytest.approx(1.0, abs=ATOL)

    def test_x_measurement_on_correlated_pair(self):
        a, b = 0.6, 0.8
        phi = StateVector(np.array([a, 0, 0, -b], dtype=complex))
        p_plus, res_plus = project_x(phi, 0, XOutcome.PLUS_X)
        p_minus, res_minus = project_x(phi, 0, XOutcome.MINUS_X)
        assert p_plus == pytest.approx(0.5, abs=ATOL)
        assert p_minus == pytest.approx(0.5, abs=ATOL)
        sigma_z_p = StateVector(np.array([a, -b], dtype=complex))
        p = StateVector(np.array([a, b], dtype=complex))
        assert fidelity(res_plus, sigma_z_p) == pytest.approx(1.0, abs=ATOL)
        assert fidelity(res_minus, p) == pytest.approx(1.0, abs=ATOL)

    def test_x_outcome_frequencies(self):
        r = rng(8)
        a, b = np.sqrt(0.3), np.sqrt(0.7)
        phi = StateVector(np.array([a, 0, 0, -b], dtype=complex))
        trials = 20000
        hits = sum(measure_x(phi, 0, r)[0] is XOutcome.PLUS_X for _ in range(trials))
        sigma = 0.5 / np.sqrt(trials)
        assert abs(hits / trials - 0.5) < 3 * sigma

    def test_bad_index_raises(self):
        with pytest.raises(ValueError):
            measure_x(new_basis_state(1, 0), 1, rng())


class TestBellMeasurement:
    def test_uniform_probabilities_for_any_message(self):
        r = rng(9)
        for _ in range(10):
            p = haar_random_state(1, r)
            joint = tensor(p, ghz_state())
            probs = bell_probabilities(joint, 0, 1)
            for o in BellOutcome:
                assert probs[o] == pytest.approx(0.25, abs=ATOL)

    def test_psi_minus_residual(self):
        r = rng(10)
        for _ in range(10):
            p = haar_random_state(1, r)
            joint = tensor(p, ghz_state())
            _, residual = project_bell(joint, 0, 1, BellOutcome.PSI_MINUS)
            a, b = p.amplitudes
            expected = StateVector(np.array([a, 0, 0, -b]))
            assert fidelity(residual, expected) == pytest.approx(1.0, abs=ATOL)

    @pytest.mark.parametrize("outcome", list(BellOutcome))
    def test_eigenstate(self, outcome):
        result, residual = bell_measure(qsim.bell_state(outcome), 0, 1, rng())
        assert result is outcome and residual is None

    def test_empirical_uniformity(self):
        r = rng(12)
        p = haar_random_state(1, r)
        joint = tensor(p, ghz_state())
        trials = 20000
        counts = {o: 0 for o in BellOutcome}
        for _ in range(trials):
            counts[bell_measure(joint, 0, 1, r)[0]] += 1
        sigma = np.sqrt(0.25 * 0.75 / trials)
        for o in BellOutcome:
            assert abs(counts[o] / trials - 0.25) < 3 * sigma

    def test_errors(self):
        joint = tensor(haar_random_state(1, rng()), ghz_state())
        with pytest.raises(ValueError):
            bell_measure(joint, 1, 1, rng())
        with pytest.raises(ValueError):
            bell_measure(joint, 0, 4, rng())


class TestOverlap:
    def test_inner_product_examples(self):
        psi = haar_random_state(2, rng(13))
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=ATOL)
        assert inner_product(new_basis_state(1, 0), new_basis_state(1, 1)) == 0
        plus = qsim.x_state(XOutcome.PLUS_X)
        assert inner_product(new_basis_state(1, 0), plus) == pytest.approx(SQRT2_INV)

    def test_fidelity_examples(self):
        psi = haar_random_state(3, rng(14))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=ATOL)
        assert fidelity(new_basis_state(1, 0), new_basis_state(1, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(new_basis_state(1, 0), new_basis_state(2, 0))

    @given(single_qubit_states(), single_qubit_states())
    @settings(max_examples=50, deadline=None)
    def test_conjugate_symmetry_and_bound(self, a, b):
        ab = inner_product(a, b)
        ba = inner_product(b, a)
        assert ab == pytest.approx(np.conj(ba), abs=ATOL)
        assert abs(ab) <= 1 + ATOL


class TestHaar:
    def test_normalized(self):
        r = rng(15)
        for k in (1, 2, 3):
            s = haar_random_state(k, r)
            assert np.vdot(s.amplitudes, s.amplitudes).real == pytest.approx(1.0, abs=ATOL)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mean_fidelity_to_fixed_state(self, k):
        r = rng(16)
        draws = 100000
        d = 2**k
        z = r.standard_normal((draws, d)) + 1j * r.standard_normal((draws, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fid = np.abs(z[:, 0]) ** 2  # fidelity to |0...0>
        sigma = fid.std() / np.sqrt(draws)
        assert abs(fid.mean() - 1 / d) < 3 * sigma

    def test_second_moment_d2(self):
        r = rng(17)
        draws = 100000
        z = r.standard_normal((draws, 2)) + 1j * r.standard_normal((draws, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fourth = np.abs(z[:, 0]) ** 4
        sigma = fourth.std() / np.sqrt(draws)
        assert abs(fourth.mean() - 1 / 3) < 3 * sigma

    def test_unitary_invariance(self):
        # Empirical overlap distribution with a fixed reference is unchanged
        # by pushing every draw through a fixed unitary.
        r = rng(18)
        u = qsim.haar_random_unitary(2, r)
        ref = new_basis_state(1, 0)
        plain = [fidelity(haar_random_state(1, r), ref) for _ in range(20000)]
        rotated = [
            fidelity(qsim.apply_unitary(haar_random_state(1, r), u), ref)
            for _ in range(20000)
        ]
        assert abs(np.mean(plain) - np.mean(rotated)) < 4 * np.std(plain) / np.sqrt(20000)


class TestTeleportation:
    def test_all_outcome_pairs_correct_to_message(self):
        # For every (Bell, x) outcome pair a fixed Pauli returns the
        # arbitrator's qubit to the message state, message-independently.
        r = rng(19)
        probes = [haar_random_state(1, r) for _ in range(25)]
        for m_a in BellOutcome:
            for m_b in XOutcome:
                found = None
                for pauli in PauliOp:
                    if all(
                        fidelity(
                            apply_pauli(
                                project_x(
                                    project_bell(tensor(p, ghz_state()), 0, 1, m_a)[1],
                                    0,
                                    m_b,
                                )[1],
                                pauli,
                                0,
                            ),
                            p,
                        )
                        >= 1 - ATOL
                        for p in probes
                    ):
                        found = pauli
                        break
                assert found is not None, (m_a, m_b)

    def test_product_factors_roundtrip(self):
        r = rng(20)
        factors = [haar_random_state(1, r) for _ in range(3)]
        reg = tensor(tensor(factors[0], factors[1]), factors[2])
        recovered = qsim.product_factors(reg)
        for f, g in zip(factors, recovered):
            assert fidelity(f, g) == pytest.approx(1.0, abs=1e-9)

    def test_product_factors_rejects_entangled(self):
        with pytest.raises(ValueError):
            qsim.product_factors(StateVector(np.array([SQRT2_INV, 0, 0, SQRT2_INV])))


def _tensordot_project_out(state, targets, basis_vector):
    """The generic contraction _project_out must reproduce bit for bit."""
    k = state.qubit_count
    bra = basis_vector.conj().reshape([2] * len(targets))
    residual = np.tensordot(
        bra, state.amplitudes.reshape([2] * k), axes=(list(range(len(targets))), list(targets))
    ).reshape(-1)
    return residual, float(np.vdot(residual, residual).real)


class TestPrimitivesMatchNumpy:
    """qsim's hand-rolled products against the generic numpy formulas they
    replace, compared exactly: reports stay byte-identical only if every
    amplitude does."""

    def test_tensor_equals_kron(self):
        r = rng(30)
        for ka in range(1, 5):
            for kb in range(1, 5):
                a, b = haar_random_state(ka, r), haar_random_state(kb, r)
                expected = StateVector(np.kron(a.amplitudes, b.amplitudes))
                assert np.array_equal(tensor(a, b).amplitudes, expected.amplitudes)

    def test_project_out_equals_tensordot(self):
        r = rng(31)
        bras = {
            1: [o.vector for o in XOutcome] + [np.array([1, 0j]), np.array([0, 1 + 0j])],
            2: [o.vector for o in BellOutcome],
        }
        for k in range(1, 7):
            for _ in range(3):
                state = haar_random_state(k, r)
                for t in (1, 2):
                    for targets in itertools.permutations(range(k), t):
                        for vec in [*bras[t], haar_random_state(t, r).amplitudes]:
                            res, p = qsim._project_out(state, targets, vec)
                            ref_res, ref_p = _tensordot_project_out(state, targets, vec)
                            assert np.array_equal(res, ref_res), (k, targets)
                            assert p == ref_p, (k, targets)

    def test_apply_one_qubit_equals_tensordot(self):
        r = rng(32)
        gates = [qsim.HADAMARD, qsim.PHASE_S, PauliOp.Y.matrix, qsim.haar_random_unitary(2, r)]
        for k in range(2, 7):
            state = haar_random_state(k, r)
            tensor_form = state.amplitudes.reshape([2] * k)
            for target in range(k):
                for gate in gates:
                    out = np.tensordot(gate, tensor_form, axes=([1], [target]))
                    expected = StateVector(np.moveaxis(out, 0, target).reshape(-1))
                    got = apply_one_qubit(state, gate, target)
                    assert np.array_equal(got.amplitudes, expected.amplitudes), (k, target)
