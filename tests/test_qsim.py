"""Unit and property tests for the statevector engine."""

import itertools
import operator
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsim import crypto, qsim
from aqsim.qsim import (
    ATOL,
    BellOutcome,
    PauliOp,
    StateVector,
    XOutcome,
    apply_one_qubit,
    apply_pauli,
    bell_measure,
    fidelity,
    ghz_state,
    haar_random_state,
    inner_product,
    measure,
    measure_x,
    new_basis_state,
    project,
    tensor,
)
from aqsim.protocol import corrected_share_fidelity, pauli_frame

SQRT2_INV = 1 / np.sqrt(2)

# Computational-basis outcomes in the form measure() takes: |0> first, then |1>,
# so the position drawn is the bit.
Z_BASIS = tuple(SimpleNamespace(vector=new_basis_state(1, b).amplitudes) for b in (0, 1))


def rng(seed=0):
    return np.random.default_rng(seed)


def block(state, trials):
    """`trials` copies of a single state, as one block."""
    return StateVector(np.broadcast_to(state.amplitudes, (trials, state.dim)))


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

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, np.nan]))
        with pytest.raises(ValueError):  # one bad trial fails the block
            StateVector(np.array([[1.0, 0.0], [np.nan, 0.0]]))

    def test_block_renormalizes_only_the_trials_that_need_it(self):
        exact = np.array([0.6, 0.8])
        block = StateVector(np.array([exact, exact * (1 + 1e-10)]))
        assert np.array_equal(block.amplitudes[0], exact)
        assert np.array_equal(block.amplitudes[1], StateVector(exact * (1 + 1e-10)).amplitudes)


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
        outcomes, _ = measure(block(ghz_state(), 20000), (0,), Z_BASIS, r)
        freq = np.mean(outcomes)
        sigma = 0.5 / np.sqrt(20000)
        assert abs(freq - 0.5) < 3 * sigma

    def test_correlation_instance(self):
        # Bell outcome psi- on (message, Alice's share) leaves a|00> - b|11>.
        a, b = 0.6, 0.8
        p = StateVector(np.array([a, b], dtype=complex))
        joint = tensor(p, ghz_state())
        prob, residual = project(joint, (0, 1), BellOutcome.PSI_MINUS)
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
        outcome, residual = measure(new_basis_state(1, 1), (0,), Z_BASIS, rng())
        assert outcome == 1 and residual is None

    def test_born_rule(self):
        s = StateVector(np.array([0.6, 0.8], dtype=complex))
        r = rng(6)
        hits = sum(measure(s, (0,), Z_BASIS, r)[0] == 0 for _ in range(20000))
        sigma = np.sqrt(0.36 * 0.64 / 20000)
        assert abs(hits / 20000 - 0.36) < 3 * sigma

    def test_ghz_projection_residual(self):
        r = rng(7)
        for _ in range(20):
            outcome, residual = measure(ghz_state(), (0,), Z_BASIS, r)
            expected = new_basis_state(2, 0 if outcome == 0 else 3)
            assert fidelity(residual, expected) == pytest.approx(1.0, abs=ATOL)

    def test_x_measurement_on_correlated_pair(self):
        a, b = 0.6, 0.8
        phi = StateVector(np.array([a, 0, 0, -b], dtype=complex))
        p_plus, res_plus = project(phi, (0,), XOutcome.PLUS_X)
        p_minus, res_minus = project(phi, (0,), XOutcome.MINUS_X)
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
        hits = np.count_nonzero(measure_x(block(phi, trials), 0, r)[0] == operator.index(XOutcome.PLUS_X))
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
            for o in BellOutcome:
                assert project(joint, (0, 1), o)[0] == pytest.approx(0.25, abs=ATOL)

    def test_psi_minus_residual(self):
        r = rng(10)
        for _ in range(10):
            p = haar_random_state(1, r)
            joint = tensor(p, ghz_state())
            _, residual = project(joint, (0, 1), BellOutcome.PSI_MINUS)
            a, b = p.amplitudes
            expected = StateVector(np.array([a, 0, 0, -b]))
            assert fidelity(residual, expected) == pytest.approx(1.0, abs=ATOL)

    @pytest.mark.parametrize("outcome", list(BellOutcome))
    def test_eigenstate(self, outcome):
        result, residual = bell_measure(StateVector(outcome.vector), 0, 1, rng())
        assert result == operator.index(outcome) and residual is None

    def test_empirical_uniformity(self):
        r = rng(12)
        p = haar_random_state(1, r)
        joint = tensor(p, ghz_state())
        trials = 20000
        counts = np.bincount(bell_measure(block(joint, trials), 0, 1, r)[0], minlength=len(BellOutcome))
        sigma = np.sqrt(0.25 * 0.75 / trials)
        for o in BellOutcome:
            assert abs(counts[o] / trials - 0.25) < 3 * sigma

    def test_targets_transposed_once(self, monkeypatch):
        # every outcome is projected from the one targets-first matrix
        targets_first = qsim._targets_first
        built = []
        monkeypatch.setattr(qsim, "_targets_first", lambda *a: built.append(a) or targets_first(*a))
        joint = tensor(haar_random_state(1, rng(13)), ghz_state())
        drawn, _ = bell_measure(block(joint, 1000), 2, 0, rng(14))
        assert set(drawn.tolist()) == {0, 1, 2, 3}  # every outcome was projected
        assert len(built) == 1

    def test_errors(self):
        joint = tensor(haar_random_state(1, rng()), ghz_state())
        with pytest.raises(ValueError):
            bell_measure(joint, 1, 1, rng())
        with pytest.raises(ValueError):
            bell_measure(joint, 0, 4, rng())


class _FixedUniform:
    """An rng stand-in whose every uniform is `u`."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self, size=None):
        self.draws += 1
        return np.full(size, self.u) if size is not None else self.u


class _Replay:
    """An rng stand-in that hands out the given uniforms, one array per call."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size=None):
        assert size == self.uniforms.shape
        return self.uniforms


def _measurement_cases(seed):
    """(state, targets, outcomes) for every Bell pair and x target of random 2-4 qubit states."""
    r = rng(seed)
    for k in (2, 3, 4):
        for _ in range(3):
            state = haar_random_state(k, r)
            for targets in itertools.permutations(range(k), 2):
                yield state, targets, tuple(BellOutcome)
            for target in range(k):
                yield state, (target,), tuple(XOutcome)


class TestMeasureContract:
    """measure() draws one uniform, takes the first outcome whose cumulative
    probability exceeds it, and leaves exactly project()'s residual."""

    def test_drawn_residual_equals_projection(self, monkeypatch):
        project_out = qsim._project_out
        projected = []
        monkeypatch.setattr(qsim, "_project_out", lambda *a: projected.append(a) or project_out(*a))
        for state, targets, outcomes in _measurement_cases(40):
            branches = [project(state, targets, o) for o in outcomes]
            cumulative = np.cumsum([p for p, _ in branches])
            for i, (_, expected) in enumerate(branches):
                low = cumulative[i - 1] if i else 0.0
                uniform = _FixedUniform((low + cumulative[i]) / 2)
                projected.clear()
                drawn, residual = measure(state, targets, outcomes, uniform)
                assert drawn == i and uniform.draws == 1
                assert len(projected) == i + 1  # later outcomes are never projected
                if expected is None:  # every qubit was measured
                    assert residual is None
                else:
                    assert np.array_equal(residual.amplitudes, expected.amplitudes)

    def test_uniform_past_every_bin_takes_last_nonzero_outcome(self):
        # qubit 0 of |00> in the computational basis: the last outcome, |1>,
        # has probability 0, so a uniform in the float slack past the total
        # must land on |0>, never on the empty branch
        zero_last = (SimpleNamespace(vector=np.array([1, 0j])), SimpleNamespace(vector=np.array([0, 1 + 0j])))
        pair = new_basis_state(2, 0)
        drawn, residual = measure(pair, (0,), zero_last, _FixedUniform(1.0))
        assert drawn == 0
        assert np.array_equal(residual.amplitudes, [1, 0])
        block = StateVector(np.array([pair.amplitudes, pair.amplitudes]))
        drawn, residual = measure(block, (0,), zero_last, _FixedUniform(1.0))
        assert drawn.tolist() == [0, 0]
        assert np.allclose(np.linalg.norm(residual.amplitudes, axis=-1), 1.0)

    def test_block_draws_match_single_draws(self):
        # one uniform per trial, in trial order: trial t of a block draws what
        # a single state draws from the t-th uniform
        r = rng(42)
        states = [haar_random_state(3, r) for _ in range(6)]
        block = StateVector(np.array([s.amplitudes for s in states]))
        uniforms = rng(43).random(6)
        drawn, residual = measure(block, (2, 0), tuple(BellOutcome), _Replay(uniforms))
        for t, state in enumerate(states):
            one, res = measure(state, (2, 0), tuple(BellOutcome), _FixedUniform(uniforms[t]))
            assert drawn[t] == one
            assert np.allclose(residual.amplitudes[t], res.amplitudes, atol=1e-12)

    def test_consumes_one_uniform(self):
        for seed, (state, targets, outcomes) in enumerate(_measurement_cases(41)):
            r, reference = rng(seed), rng(seed)
            measure(state, targets, outcomes, r)
            reference.random()
            assert r.bit_generator.state == reference.bit_generator.state
            assert r.random() == reference.random()


def _same_bits(single, row):
    single, row = np.asarray(single), np.asarray(row)
    return single.shape == row.shape and single.dtype == row.dtype and single.tobytes() == row.tobytes()


def _row(state, t):
    return StateVector.owning(state.amplitudes[t])


def _operation_bits(a, b, pauli, unitary, uniform, measured):
    """What each operation returns on states a and b, keyed by name: the
    measurements only where `measured` = (targets, outcomes) is given."""
    out = {
        "tensor": tensor(a, b).amplitudes,
        "apply_pauli": apply_pauli(a, pauli, a.qubit_count - 1).amplitudes,
        "apply_unitary": qsim.apply_unitary(a, unitary).amplitudes,
        "fidelity": fidelity(a, b),
    }
    if measured is not None:
        targets, outcomes = measured
        p, residual = project(a, targets, outcomes[-1])
        drawn, post = measure(a, targets, outcomes, uniform)
        out.update(project=p, project_residual=residual.amplitudes, measure=drawn, measure_residual=post.amplitudes)
    return out


class TestSingleStateIsABlockRow:
    def test_every_operation_gives_a_single_state_its_block_row_bits(self):
        # A single state takes the block path, so it gets the bits the same
        # state gets as row t of a block. Each measurement here leaves at
        # least two qubits: see qsim "Trial axis" for why fewer may not.
        r = rng(44)
        trials = 20
        mismatches = []
        cases = ((1, None), (2, None), (3, ((1,), tuple(XOutcome))), (4, ((3, 0), tuple(BellOutcome))))
        for k, measured in cases:
            a, b = haar_random_state(k, r, (trials,)), haar_random_state(k, r, (trials,))
            paulis = r.integers(0, len(PauliOp), size=trials)
            unitaries = qsim.haar_random_unitary(2**k, r.integers(0, 2**64, size=trials, dtype=np.uint64))
            uniforms = r.random(trials)
            blocks = _operation_bits(a, b, paulis, unitaries, _Replay(uniforms), measured)
            for t in range(trials):
                singles = _operation_bits(
                    _row(a, t), _row(b, t), paulis[t], unitaries[t], _FixedUniform(uniforms[t]), measured
                )
                mismatches += [(name, k, t) for name, bits in singles.items() if not _same_bits(bits, blocks[name][t])]
        # 100 probes as one block against each frame entry, as the correlation table checks them
        probes = haar_random_state(1, r, (100,))
        for m_a in BellOutcome:
            for m_b in XOutcome:
                pauli = tuple(PauliOp)[pauli_frame()[m_a, m_b]]
                block = corrected_share_fidelity(probes, m_a, m_b, pauli)
                mismatches += [
                    ("corrected_share_fidelity", m_a, m_b, t)
                    for t in range(100)
                    if not _same_bits(corrected_share_fidelity(_row(probes, t), m_a, m_b, pauli), block[t])
                ]
        assert not mismatches, f"{len(mismatches)} rows differ, first {mismatches[:5]}"


def _choose_measure(state, targets, outcomes, rng):
    """measure() with every projected outcome's residual kept in a list and the
    drawn one picked by np.choose, a u past every bin moved just below the
    total: the oracle that measure()'s drawn-branch-only form must equal."""
    u = rng.random(state.batch)[()]
    columns = qsim._targets_first(state.amplitudes, state.qubit_count, targets)
    residuals, probs, cumulative = [], [], []
    acc = 0.0
    for outcome in outcomes:
        residual, p = qsim._project_out(state, outcome.vector, columns)
        acc = acc + p
        residuals.append(residual)
        probs.append(p)
        cumulative.append(acc)
        if (u < acc).all():
            break
    else:
        u = np.minimum(u, np.nextafter(acc, 0.0))
    drawn = sum(c <= u for c in cumulative)
    residual, p = np.choose(drawn[..., None], residuals), np.choose(drawn, probs)
    if len(targets) == state.qubit_count:
        return drawn, None
    return drawn, residual / np.sqrt(p)[..., None]


def _sparse_states(k, r, trials):
    """Random k-qubit states, as `trials` rows, with some basis amplitudes set
    to zero so that some outcomes have probability 0."""
    amps = haar_random_state(k, r, (trials,)).amplitudes.copy()
    amps[r.random(amps.shape) < 0.5] = 0
    amps[~amps.any(-1), -1] = 1
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    return amps


def _edge_uniforms(state, targets, outcomes):
    """Per trial: u = 0, every cumulative probability exactly, the float below
    each, and values past the total (the total itself, 1.0 and 1.5)."""
    columns = qsim._targets_first(state.amplitudes, state.qubit_count, targets)
    acc, edges = 0.0, []
    for outcome in outcomes:
        acc = acc + qsim._project_out(state, outcome.vector, columns)[1]
        edges += [acc, np.nextafter(acc, 0.0)]
    zeros = np.zeros(state.batch)
    return [zeros, *edges, zeros + 1.0, zeros + 1.5]


class TestMeasureOracle:
    """measure() against _choose_measure, bit for bit: drawn positions and
    residual amplitudes, for blocks and single states, 1- and 2-qubit
    targets, zero-probability outcomes and uniforms at every bin edge and
    past the total."""

    @staticmethod
    def _assert_same(state, targets, outcomes, uniforms):
        drawn, residual = measure(state, targets, outcomes, _Replay(uniforms))
        ref_drawn, ref_residual = _choose_measure(state, targets, outcomes, _Replay(uniforms))
        assert np.shape(drawn) == np.shape(ref_drawn)
        assert np.array_equal(drawn, ref_drawn), (targets, uniforms)
        if ref_residual is None:
            assert residual is None
        else:  # equal bits, signs of zeros included
            assert np.array_equal(residual.amplitudes.view(np.int64), ref_residual.view(np.int64))

    def test_equals_choose_oracle(self):
        r = rng(44)
        bases = {1: (tuple(XOutcome), Z_BASIS), 2: (tuple(BellOutcome),)}
        trials = 8
        for k in (1, 2, 3, 4):
            for amps in (haar_random_state(k, r, (trials,)).amplitudes, _sparse_states(k, r, trials)):
                block_state = StateVector(amps)
                for t in (1, 2):
                    for targets, outcomes in itertools.product(itertools.permutations(range(k), t), bases[t]):
                        uniforms = _edge_uniforms(block_state, targets, outcomes)
                        for u in uniforms:
                            self._assert_same(block_state, targets, outcomes, u)
                        # rows drawing from different edges in one block
                        mixed = np.stack(uniforms)[r.integers(0, len(uniforms), trials), np.arange(trials)]
                        self._assert_same(block_state, targets, outcomes, mixed)
                        for row in (0, 1):
                            single = StateVector(amps[row])
                            for u in uniforms:
                                self._assert_same(single, targets, outcomes, np.array(u[row]))


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
        u = qsim.haar_random_unitary(2, r.integers(0, 2**64, size=1, dtype=np.uint64))[0]
        ref = new_basis_state(1, 0)
        plain = fidelity(haar_random_state(1, r, (20000,)), ref)
        rotated = fidelity(qsim.apply_unitary(haar_random_state(1, r, (20000,)), u), ref)
        assert abs(np.mean(plain) - np.mean(rotated)) < 4 * np.std(plain) / np.sqrt(20000)



def splitmix64_reference(state, count):
    """The SplitMix64 stream seeded by `state`, in Python integers."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


class TestKeyedHaar:
    def test_splitmix64_first_output_of_key_zero(self):
        assert int(qsim.splitmix64(np.zeros(1, dtype=np.uint64), 1)[0, 0]) == 0xE220A8397B1DCDAF

    def test_splitmix64_matches_reference_and_wraps(self):
        keys = [0, 1, 0x0123456789ABCDEF, 2**63, 2**64 - 1]
        out = qsim.splitmix64(np.array(keys, dtype=np.uint64), 6)
        assert out.dtype == np.uint64
        assert [[int(v) for v in row] for row in out] == [splitmix64_reference(k, 6) for k in keys]

    @pytest.mark.parametrize("keys", ["random", "consecutive"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_haar_moments(self, d, keys):
        # over 8000 keys, at 4 sigma: at every position E U_ij = 0 (the phase
        # fix) and E|U_ij|^2 = 1/d; the mean of |U_ij|^4 over a matrix, one iid
        # sample per key, has E = 2/(d(d+1))
        count = 8000
        if keys == "random":
            keys = rng(23).integers(0, 2**64, size=count, dtype=np.uint64)
        else:
            keys = np.arange(count, dtype=np.uint64)
        u = qsim.haar_random_unitary(d, keys)
        assert u.shape == (count, d, d)
        for part in (u.real, u.imag):
            assert (np.abs(part.mean(axis=0)) < 4 * part.std(axis=0) / np.sqrt(count)).all()
        second = np.abs(u) ** 2
        assert (np.abs(second.mean(axis=0) - 1 / d) < 4 * second.std(axis=0) / np.sqrt(count)).all()
        fourth = (second**2).mean(axis=(1, 2))
        assert abs(fourth.mean() - 2 / (d * (d + 1))) < 4 * fourth.std() / np.sqrt(count)

    def test_stack_rows_equal_keys_derived_alone(self):
        # at d = 64 the 40 keys span ten chunks of the stack (_CHUNK_BYTES)
        keys = rng(24).integers(0, 2**64, size=40, dtype=np.uint64)
        for d in (2, 8, 64):
            stack = qsim.haar_random_unitary(d, keys)
            for t in range(len(keys)):
                assert np.array_equal(stack[t], qsim.haar_random_unitary(d, keys[t : t + 1])[0])

    def test_derivation_scratch_bounded_by_chunk(self):
        # hash, uniforms, Ginibre matrices and QR are made chunk by chunk, so
        # a long stack needs a few chunks of scratch above its output
        keys = np.arange(2048, dtype=np.uint64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            u = qsim.haar_random_unitary(8, keys)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert u.nbytes >= 8 * qsim._CHUNK_BYTES
        assert peak - u.nbytes <= 6 * qsim._CHUNK_BYTES

    def test_unitary(self):
        u = qsim.haar_random_unitary(8, rng(25).integers(0, 2**64, size=64, dtype=np.uint64))
        assert np.allclose(np.swapaxes(u.conj(), -1, -2) @ u, np.eye(8), atol=1e-12)

    def test_pinned_entry(self):
        # a change of the stream, the Box-Muller map or the entry layout moves it
        u = qsim.haar_random_unitary(4, np.array([0x0123456789ABCDEF], dtype=np.uint64))
        assert u[0, 1, 2] == pytest.approx(-0.6048558789223978 - 0.0017927985367440016j, abs=1e-12)

class TestTeleportation:
    def test_all_outcome_pairs_correct_to_message(self):
        # For every (Bell, x) outcome pair a fixed Pauli returns the
        # arbitrator's qubit to the message state, message-independently.
        r = rng(19)
        probes = [haar_random_state(1, r) for _ in range(25)]
        for m_a in BellOutcome:
            for m_b in XOutcome:
                assert any(
                    all(corrected_share_fidelity(p, m_a, m_b, pauli) >= 1 - ATOL for p in probes)
                    for pauli in PauliOp
                ), (m_a, m_b)

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
    """The generic contraction _project_out must reproduce bit for bit, and
    the residual's norm by the block formula of test_block_norm_and_inner_equal_matmul."""
    k = state.qubit_count
    bra = basis_vector.conj().reshape([2] * len(targets))
    residual = np.tensordot(
        bra, state.amplitudes.reshape([2] * k), axes=(list(range(len(targets))), list(targets))
    ).reshape(-1)
    pairs = residual.view(np.float64)
    return residual, np.matmul(pairs[None, :], pairs[:, None])[0, 0]


def _matmul_mask_qotp(amps, pad, k, encrypt):
    """The one-time pad with its X/Z masks packed by one integer matmul."""
    index, signs, weights = crypto._pad_tables(k)
    masks = np.matmul(np.swapaxes(pad.reshape(pad.shape[:-1] + (-1, k, 2)), -1, -2), weights)
    source = index ^ masks[..., 0, None]
    sign = signs[(source if encrypt else index) & masks[..., 1, None]]
    shape = np.broadcast_shapes(amps.shape, source.shape)
    return np.take_along_axis(np.broadcast_to(amps, shape), np.broadcast_to(source, shape), -1) * sign


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
                            columns = qsim._targets_first(state.amplitudes, k, targets)
                            res, p = qsim._project_out(state, vec, columns)
                            ref_res, ref_p = _tensordot_project_out(state, targets, vec)
                            assert np.array_equal(res, ref_res), (k, targets)
                            assert p == ref_p, (k, targets)

    def test_apply_unitary_2x2_equals_matmul(self):
        # one-qubit blocks take the product elementwise
        r = rng(33)
        register = haar_random_state(1, r, (341, 6))
        keys = r.integers(0, 2**64, size=341 * 6, dtype=np.uint64)
        per_trial = qsim.haar_random_unitary(2, keys).reshape(341, 6, 2, 2)
        for unitary in (per_trial, per_trial[0], qsim.HADAMARD):
            expected = np.matmul(unitary, register.amplitudes[..., None])[..., 0]
            assert np.array_equal(qsim.apply_unitary(register, unitary).amplitudes, expected)

    def test_block_norm_and_inner_equal_matmul(self):
        r = rng(34)
        for batch, k in (((341, 6), 1), ((341, 1), 3), ((300,), 6)):
            state_a, state_b = haar_random_state(k, r, batch), haar_random_state(k, r, batch)
            a, b = state_a.amplitudes, state_b.amplitudes
            pairs = a.view(np.float64)
            norm_sq = np.matmul(pairs[..., None, :], pairs[..., :, None])[..., 0, 0]
            inner = np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]
            assert np.array_equal(qsim._norm_sq(a), norm_sq)
            assert np.array_equal(qsim.inner_product(state_a, state_b), inner)

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("encrypt", [True, False])
    def test_qotp_equals_matmul_masks(self, k, encrypt):
        r = rng(35 + k)
        blocks = 6 // k
        register = haar_random_state(k, r, (200, blocks))
        pads = r.integers(0, 2, size=(200, 2 * k * blocks), dtype=np.uint8)
        for pad in (pads, pads[0]):  # one pad per trial, or one for the whole block
            expected = _matmul_mask_qotp(register.amplitudes, pad, k, encrypt)
            assert np.array_equal(crypto._qotp(register, pad, encrypt).amplitudes, expected)

    def test_apply_one_qubit_equals_tensordot(self):
        r = rng(32)
        gates = [qsim.HADAMARD, qsim.PHASE_S, PauliOp.Y.matrix, qsim.haar_random_unitary(2, r.integers(0, 2**64, size=1, dtype=np.uint64))[0]]
        for k in range(2, 7):
            state = haar_random_state(k, r)
            tensor_form = state.amplitudes.reshape([2] * k)
            for target in range(k):
                for gate in gates:
                    out = np.tensordot(gate, tensor_form, axes=([1], [target]))
                    expected = StateVector(np.moveaxis(out, 0, target).reshape(-1))
                    got = apply_one_qubit(state, gate, target)
                    assert np.array_equal(got.amplitudes, expected.amplitudes), (k, target)
