"""Protocol phase and end-to-end run tests."""

import hashlib
import json
import operator
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from aqsim import crypto, qsim, serialize
from aqsim.attacks import ForgeryStrategy, StrategyKind, _garble_tap, block_rng, forge
from aqsim.crypto import SigningModel
from aqsim.protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    alice_sign,
    arbitrator_verify,
    bob_final_verify,
    bob_receive_and_forward,
    build_pauli_frame,
    haar_product_message,
    initialize,
    pauli_frame,
    run_protocol,
)
from aqsim.qsim import ATOL, BellOutcome, PauliOp, XOutcome, fidelity

# Computational-basis outcomes in the form qsim.measure takes: |0> first, then |1>,
# so the position drawn is the bit.
Z_BASIS = tuple(SimpleNamespace(vector=qsim.new_basis_state(1, b).amplitudes) for b in (0, 1))


def rng(seed=0):
    return np.random.default_rng(seed)


def variant(
    r_prime=RPrimeSource.FROM_MESSAGE_P,
    mt=MtMode.MEASURE_X,
    knowledge=MessageKnowledge.ALICE_ONLY,
    keys=SigningModel.PER_QUBIT_PRODUCT,
    cmp=ComparisonMode.PER_QUBIT,
):
    return ProtocolVariant(r_prime, mt, knowledge, keys, cmp)


REPAIRED = variant(
    mt=MtMode.FORWARD_PARTICLE, knowledge=MessageKnowledge.KNOWN_TO_ALL
)


class TestPauliFrame:
    def test_expected_table(self):
        frame = build_pauli_frame()
        expected = {
            (BellOutcome.PSI_MINUS, XOutcome.PLUS_X): PauliOp.Z,
            (BellOutcome.PSI_MINUS, XOutcome.MINUS_X): PauliOp.I,
            (BellOutcome.PSI_PLUS, XOutcome.PLUS_X): PauliOp.I,
            (BellOutcome.PSI_PLUS, XOutcome.MINUS_X): PauliOp.Z,
            (BellOutcome.PHI_PLUS, XOutcome.PLUS_X): PauliOp.X,
            (BellOutcome.PHI_PLUS, XOutcome.MINUS_X): PauliOp.Y,
            (BellOutcome.PHI_MINUS, XOutcome.PLUS_X): PauliOp.Y,
            (BellOutcome.PHI_MINUS, XOutcome.MINUS_X): PauliOp.X,
        }
        assert frame.shape == (len(BellOutcome), len(XOutcome)) and frame.dtype == np.intp
        assert not frame.flags.writeable
        assert {(m_a, m_b): tuple(PauliOp)[frame[m_a, m_b]] for m_a, m_b in expected} == expected

    def test_anchor_entry(self):
        assert pauli_frame()[BellOutcome.PSI_MINUS, XOutcome.PLUS_X] == operator.index(PauliOp.Z)

    def test_built_once_per_process(self):
        pauli_frame.cache_clear()
        frame = pauli_frame()
        assert pauli_frame() is frame
        info = pauli_frame.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestInitialize:
    def test_counts_and_sizes(self):
        v = variant()
        k_a, k_b, transform, triples = initialize(1, 5, v, 4)
        assert triples.batch == (1,)  # one GHZ triple per message qubit
        assert k_a.shape == (4, crypto.ka_bits_required(1, v.key_model))
        assert k_b.shape == (4, crypto.kb_bits_required(1))
        assert transform.unitaries.shape == (4, 1, 2, 2)  # each trial's, from its own K_a

    def test_ghz_joint_outcomes(self):
        r = rng(1)
        *_, triples = initialize(2, 6, variant(), 1)
        for ghz in triples.amplitudes:
            for _ in range(50):
                state = qsim.StateVector(ghz)
                bits = []
                for _ in range(3):  # the last measurement leaves no state
                    outcome, state = qsim.measure(state, (0,), Z_BASIS, r)
                    bits.append(outcome)
                assert bits in ([0, 0, 0], [1, 1, 1])

    def test_deterministic(self):
        a = initialize(2, 7, variant(), 3)
        b = initialize(2, 7, variant(), 3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2].unitaries, b[2].unitaries)
        assert np.array_equal(a[3].amplitudes, b[3].amplitudes)


class TestAliceSign:
    def test_identity_transform_signs_in_place(self):
        v = variant()
        n = 2
        zero_ka = np.zeros(crypto.ka_bits_required(n, v.key_model), dtype=np.uint8)
        identity = crypto.derive_signing_transform(zero_ka, n, v.key_model)
        msg = haar_product_message(n, rng(2))
        triples = initialize(n, 0, v, 1)[3]
        sig, _, m_a, _ = alice_sign(msg, zero_ka, identity, triples, v, rng(3))
        opened_ma, r = crypto.open_signature(sig, zero_ka, v.key_model)
        assert np.array_equal(opened_ma, m_a)
        assert qsim.register_fidelity(r, msg) >= 1 - ATOL

    def test_shared_pair_matches_outcome(self):
        # Whatever M_a was sampled, the Bob/arbitrator pair must equal the
        # deterministic projection for that outcome.
        v = variant()
        r = rng(4)
        for _ in range(30):
            msg = haar_product_message(1, r)
            k_a, _, transform, triples = initialize(1, int(r.integers(0, 2**31)), v, 1)
            _, _, m_a, pairs = alice_sign(msg, k_a, transform, triples, v, r)
            joint = qsim.tensor(qsim.StateVector(msg.amplitudes[0]), qsim.ghz_state())
            _, expected = qsim.project(joint, (0, 1), tuple(BellOutcome)[m_a[0]])
            assert qsim.register_fidelity(pairs, expected) >= 1 - ATOL

    def test_outcome_frequencies_uniform(self):
        # one message, signed in every trial of one block
        v = variant()
        r = rng(5)
        msg = haar_product_message(1, r)
        trials = 8000
        k_a, _, transform, triples = initialize(1, 6, v, trials)
        block = qsim.StateVector(np.broadcast_to(msg.amplitudes, (trials, 1, 2)))
        _, _, m_a, _ = alice_sign(block, k_a, transform, triples, v, r)
        counts = np.bincount(m_a[:, 0], minlength=len(BellOutcome))
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert np.all(abs(counts / trials - 0.25) < 4 * sigma)

    def test_share_count_mismatch(self):
        v = variant()
        k_a, _, transform, triples = initialize(2, 8, v, 1)
        with pytest.raises(ValueError):
            alice_sign(haar_product_message(3, rng(7)), k_a, transform, triples, v, rng(8))


class TestBobForward:
    def test_bundle_roundtrip(self):
        v = variant()
        r = rng(9)
        n = 2
        k_a, k_b, transform, triples = initialize(n, 10, v, 1)
        msg = haar_product_message(n, r, (1,))
        sig, p_out, m_a, pairs = alice_sign(msg, k_a, transform, triples, v, r)
        y_b, m_b, particles = bob_receive_and_forward(p_out, sig, pairs, k_b, r)
        assert list(y_b) == list(crypto.kb_layout(n)["y_b"])
        opened = crypto.unseal(y_b, k_b, crypto.kb_layout(n)["y_b"], y_b.keys())
        assert [tuple(XOutcome)[b] for b in opened["mb_bits"][0]] == [tuple(XOutcome)[i] for i in m_b[0]]
        assert np.array_equal(opened["sig_bell_bits"], sig["sig_bell_bits"])
        assert qsim.register_fidelity(opened["sig_state"], sig["sig_state"]) >= 1 - ATOL
        assert qsim.register_fidelity(opened["msg_state"], msg) >= 1 - ATOL
        assert particles.batch == (1, n)

    def test_x_outcomes_uniform(self):
        # one message, signed and forwarded in every trial of one block
        v = variant()
        r = rng(11)
        trials = 8000
        k_a, k_b, transform, triples = initialize(1, 12, v, trials)
        msg = haar_product_message(1, r)
        block = qsim.StateVector(np.broadcast_to(msg.amplitudes, (trials, 1, 2)))
        sig, p_out, _, pairs = alice_sign(block, k_a, transform, triples, v, r)
        _, m_b, _ = bob_receive_and_forward(p_out, sig, pairs, k_b, r)
        plus = np.count_nonzero(m_b == operator.index(XOutcome.PLUS_X))
        sigma = 0.5 / np.sqrt(trials)
        assert abs(plus / trials - 0.5) < 4 * sigma


ALL_SUPPORTED_VARIANTS = [
    variant(r_prime=rp, mt=mt, knowledge=kn, keys=km, cmp=cm)
    for rp in RPrimeSource
    for mt in MtMode
    for kn in MessageKnowledge
    for km in SigningModel
    for cm in ComparisonMode
    # per-qubit comparison needs product structure; the general unitary
    # entangles the signature register
    if not (km is SigningModel.GENERAL_UNITARY and cm is ComparisonMode.PER_QUBIT)
]


class TestEndToEnd:
    # each test's runs are one block of trials

    @pytest.mark.parametrize("v", ALL_SUPPORTED_VARIANTS)
    def test_honest_gamma_always_one(self, v):
        t = run_protocol(RunConfig(2, v), 0, 5)
        assert np.all(t.gamma == 1)

    def test_honest_repaired_variant_always_accepts(self):
        for n in (1, 3):
            t = run_protocol(RunConfig(n, REPAIRED), n, 30)
            assert np.all(t.gamma == 1) and t.accepted.all()

    def test_general_key_draws_one_unitary_per_run(self, monkeypatch):
        # Alice and the arbitrator both apply the signing transform K_a keys;
        # the Haar unitary behind it is drawn and QR-factored once
        draws = []
        draw = crypto.haar_random_unitary

        def counted(dim, keys):
            draws.append(dim)
            return draw(dim, keys)

        monkeypatch.setattr(crypto, "haar_random_unitary", counted)
        general = variant(keys=SigningModel.GENERAL_UNITARY, cmp=ComparisonMode.WHOLE_REGISTER)
        run_protocol(RunConfig(3, general), 21, 1)
        assert draws == [8]

    @pytest.mark.parametrize("model", list(SigningModel))
    def test_block_derives_one_signing_transform(self, model, monkeypatch):
        # the initial phase derives it; Alice and the arbitrator are handed it
        calls = []
        derive = crypto.derive_signing_transform

        def counted(key, n, key_model):
            calls.append(key_model)
            return derive(key, n, key_model)

        monkeypatch.setattr(crypto, "derive_signing_transform", counted)
        v = variant(keys=model, cmp=ComparisonMode.WHOLE_REGISTER)
        run_protocol(RunConfig(2, v), 22, 16)
        assert calls == [model]

    def test_deterministic_transcripts(self):
        cfg = RunConfig(2, REPAIRED)
        t1 = serialize.dumps(serialize.transcript_to_dict(run_protocol(cfg, 99, 3)))
        t2 = serialize.dumps(serialize.transcript_to_dict(run_protocol(cfg, 99, 3)))
        assert t1 == t2

    def test_gamma_gate(self):
        # adversarially garbled signature forces gamma = 0 -> Rejected
        from aqsim.attacks import _garble_tap

        cfg = RunConfig(1, variant())
        t = run_protocol(cfg, 0, 200, channel_tap=_garble_tap)
        assert not t.accepted[t.gamma == 0].any()
        assert np.count_nonzero(t.gamma == 0) > 50  # orthogonal qubit: detection probability 1/2

    def test_teleported_particle_matches_message(self):
        # ForwardParticle + KnownToAll: Bob's corrected particle is the message
        t = run_protocol(RunConfig(2, REPAIRED), 0, 20)
        assert np.allclose(t.extras["candidate_fidelity"], 1.0, rtol=0, atol=ATOL)

    def test_measure_x_candidate_lossy(self):
        cfg = RunConfig(1, variant())
        fids = run_protocol(cfg, 0, 300).extras["candidate_fidelity"]
        assert np.mean(fids) < 0.999
        assert np.mean(fids) == pytest.approx(2 / 3, abs=0.1)

    def test_garbled_candidate_fidelity(self):
        # A garbled signature qubit is orthogonal to R'; the test acts on
        # copies, so the accepted trials' x-basis candidate keeps the
        # undisturbed 2/3 (E[(1 + u^2)/2] for a Haar Bloch x-coordinate u).
        cfg = RunConfig(1, variant(r_prime=RPrimeSource.FROM_GHZ_PARTICLE))
        t = run_protocol(cfg, 2026, 100_000, channel_tap=_garble_tap)
        fids = t.extras["candidate_fidelity"][t.accepted]
        se = fids.std() / np.sqrt(fids.size)
        assert abs(fids.mean() - 2 / 3) <= 4 * se

    def test_outcome_independence_chi_square(self):
        # (M_a, M_b) jointly uniform and independent of the message; each
        # message's runs are one block, (M_a, M_b) counted as 2 M_a + M_b
        r = rng(13)
        messages = [haar_product_message(1, r) for _ in range(5)]
        table = np.zeros((8, 5))
        cfg = RunConfig(1, variant())
        runs = 3000
        for j, msg in enumerate(messages):
            block = qsim.StateVector(np.broadcast_to(msg.amplitudes, (runs, 1, 2)))
            t = run_protocol(cfg, int(r.integers(0, 2**62)), runs, message=block)
            table[:, j] = np.bincount(len(XOutcome) * t.m_a[:, 0] + t.m_b[:, 0], minlength=8)
            sigma = np.sqrt(0.125 * 0.875 / runs)
            for i in range(8):
                assert abs(table[i, j] / runs - 0.125) < 4 * sigma
        _, p_value, _, _ = scipy.stats.chi2_contingency(table)
        assert p_value > 0.001

    def test_final_verify_needs_reference(self):
        v = REPAIRED
        cfg = RunConfig(1, v)
        t = run_protocol(cfg, 3, 1)
        with pytest.raises(ValueError):
            bob_final_verify(t.y_tb, initialize(1, 3, v, 1)[1], None, v, rng())

    def test_message_must_carry_the_trial_axis(self):
        # a message without the trial axis would share one Bell and one x
        # outcome among every trial of the block
        cfg = RunConfig(2, variant())
        with pytest.raises(ValueError):
            run_protocol(cfg, 4, 6, message=haar_product_message(2, rng(5)))
        with pytest.raises(ValueError):
            run_protocol(cfg, 4, 6, message=haar_product_message(2, rng(5), (5,)))
        t = run_protocol(cfg, 4, 6, message=haar_product_message(2, rng(5), (6,)))
        assert t.m_a.shape == t.m_b.shape == (6, 2) and t.accepted.shape == (6,)


def _pairs(state):
    """A register's amplitudes as the serializer writes them: [re, im] last."""
    return np.stack([state.amplitudes.real, state.amplitudes.imag], axis=-1)


class TestSerialize:
    def test_block_of_one_keeps_its_trial_axis(self):
        n = 2
        t = run_protocol(RunConfig(n, REPAIRED), 99, 1)
        d = serialize.transcript_to_dict(t)
        assert d["m_a"] == [[tuple(BellOutcome)[i].value for i in t.m_a[0]]]
        assert d["m_b"] == [[tuple(XOutcome)[i].value for i in t.m_b[0]]]
        assert d["m_t"] is None and d["gamma"] == [1] and d["verdict"] == ["accepted"]
        # a register is a list of trials, each a list of blocks, each a list of [re, im] pairs
        for state, listed in ((t.y_b["sig_state"], d["y_b"]["sig_state"]), (t.y_tb["particles"], d["y_tb"]["particles"])):
            assert np.shape(listed) == (1, n, 2, 2)
            assert np.array_equal(np.array(listed), _pairs(state))
        assert d["extras"]["candidate_fidelity"] == [pytest.approx(1.0, abs=ATOL)]
        assert json.loads(serialize.dumps(d)) == d

    def test_block_has_trial_axis_first(self):
        n, size = 3, 4
        t = run_protocol(RunConfig(n, variant()), 99, size)
        d = serialize.transcript_to_dict(t)
        bell = np.array([o.value for o in BellOutcome])
        x = np.array([o.value for o in XOutcome])
        assert d["m_a"] == bell[t.m_a].tolist() and np.shape(d["m_a"]) == (size, n)
        assert d["m_b"] == x[t.m_b].tolist() and d["m_t"] == x[t.m_t].tolist()
        assert d["gamma"] == [1] * size and d["verdict"] == ["accepted"] * size
        assert np.shape(d["y_tb"]["ma_bits"]) == (size, 2 * n)
        for state, listed in ((t.y_b["msg_state"], d["y_b"]["msg_state"]), (t.y_tb["sig_state"], d["y_tb"]["sig_state"])):
            assert np.array_equal(np.array(listed), _pairs(state)) and np.shape(listed) == (size, n, 2, 2)
        assert np.shape(d["extras"]["candidate_fidelity_per_qubit"]) == (size, n)
        assert json.loads(serialize.dumps(d)) == d


    def test_generator_seed_records_seed_and_block(self):
        # map_trials runs block 1 of seed 3 from block_rng(3, 1); the
        # transcript records that pair, and a generator rebuilt from it replays
        # the block byte for byte
        cfg = RunConfig(2, variant())
        d = serialize.transcript_to_dict(run_protocol(cfg, block_rng(3, 1), 2))
        assert d["seed"] == {"entropy": 3, "spawn_key": [1]}
        seq = np.random.SeedSequence(entropy=d["seed"]["entropy"], spawn_key=tuple(d["seed"]["spawn_key"]))
        replay = serialize.transcript_to_dict(run_protocol(cfg, np.random.default_rng(seq), 2))
        assert serialize.dumps(replay) == serialize.dumps(d)


# sha256 over every bit field of y_b and y_tb (bundle, name, shape, bits) of
# one 4-trial block at seed 2026, recorded when each bundle was a dataclass:
# a moved key slice or a renamed field changes it
WIRE_DIGESTS = {
    "measure-x": (RunConfig(2, variant()), "cb1ac8ff15c49a8e64d9c938ef38f2032a31b01968665f8562ecfd01df79a08b"),
    "forward-particle": (RunConfig(2, REPAIRED), "78779297f963ee5fe9e9044d36aa6fb096f91137b454ce5748e39c1b701396c9"),
    "general-key": (
        RunConfig(2, variant(keys=SigningModel.GENERAL_UNITARY, cmp=ComparisonMode.WHOLE_REGISTER)),
        "4f7783f5b697ae0b099a51987723b4d712f7cb4a73daa54b3f4a52894b785a95",
    ),
}


@pytest.mark.parametrize("name", sorted(WIRE_DIGESTS))
def test_wire_bit_fields_pinned(name):
    cfg, expected = WIRE_DIGESTS[name]
    t = run_protocol(cfg, 2026, 4)
    h = hashlib.sha256()
    for bundle in ("y_b", "y_tb"):
        for field, value in sorted(getattr(t, bundle).items()):
            if field.endswith(("_bits", "_bit")) and value is not None:
                bits = np.asarray(value, dtype=np.uint8)
                h.update(f"{bundle}.{field}{bits.shape}".encode())
                h.update(bits.tobytes())
    assert h.hexdigest() == expected


class TestBlockWidths:
    @pytest.mark.parametrize("v", [variant(), REPAIRED], ids=["measure-x", "forward-all"])
    def test_per_qubit_run_stays_narrow(self, v, monkeypatch):
        # Every step of a per-qubit run acts on one message qubit at a time, and
        # Alice's Bell measurement reads its rows from the message and GHZ
        # factors without joining them, so the widest state is a GHZ triple,
        # whatever n. The Pauli frame's probes, which are joined, are built first.
        pauli_frame()
        widths = []
        post_init, owning = qsim.StateVector.__post_init__, qsim.StateVector.owning

        def recording(state):
            post_init(state)
            widths.append(state.qubit_count)

        def recording_owned(amps):
            state = owning(amps)
            widths.append(state.qubit_count)
            return state

        monkeypatch.setattr(qsim.StateVector, "__post_init__", recording)
        monkeypatch.setattr(qsim.StateVector, "owning", staticmethod(recording_owned))
        strategy = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=3)

        def tap(message, sig, r):
            return forge(message, strategy, r), sig

        assert np.all(run_protocol(RunConfig(10, v), 0, 3).gamma == 1)
        run_protocol(RunConfig(10, v), 0, 3, channel_tap=tap)
        assert max(widths) == 3


class TestMessage:
    def test_factor_register_consistency(self):
        msg = haar_product_message(3, rng(14))
        assert msg.amplitudes.shape == (3, 2)  # three one-qubit blocks
        refactored = qsim.product_factors(qsim.StateVector(qsim.join(msg).amplitudes[0]))
        for a, b in zip(msg.amplitudes, refactored, strict=True):
            assert fidelity(qsim.StateVector(a), b) >= 1 - 1e-9
        assert qsim.register_fidelity(msg, qsim.join(msg)) == pytest.approx(1.0, abs=1e-9)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            RunConfig(0, REPAIRED)
