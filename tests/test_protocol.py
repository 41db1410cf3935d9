"""Protocol phase and end-to-end run tests."""

import numpy as np
import pytest
import scipy.stats

from aqsim import crypto, qsim, serialize
from aqsim.attacks import ForgeryStrategy, StrategyKind, forge
from aqsim.crypto import SigningModel
from aqsim.protocol import (
    ComparisonMode,
    MessageKnowledge,
    MtMode,
    ProtocolVariant,
    RPrimeSource,
    RunConfig,
    Verdict,
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
        assert frame.table == expected

    def test_anchor_entry(self):
        assert (
            pauli_frame().correction(BellOutcome.PSI_MINUS, XOutcome.PLUS_X)
            is PauliOp.Z
        )


class TestInitialize:
    def test_counts_and_sizes(self):
        v = variant()
        k_a, k_b, triples, stub = initialize(1, 5, v)
        assert len(triples) == 1
        assert len(k_a) == crypto.ka_bits_required(1, v.key_model)
        assert len(k_b) == crypto.kb_bits_required(1)
        assert stub.seed == 5 and stub.n == 1 and stub.verdict is None

    def test_ghz_joint_outcomes(self):
        r = rng(1)
        _, _, triples, _ = initialize(2, 6, variant())
        for ghz in triples:
            for _ in range(50):
                state = ghz
                bits = []
                for _ in range(3):
                    bit, state = (
                        qsim.measure_computational(state, 0, r)
                        if state is not None
                        else (None, None)
                    )
                    bits.append(bit)
                assert bits in ([0, 0, 0], [1, 1, 1])

    def test_deterministic(self):
        a = initialize(2, 7, variant())
        b = initialize(2, 7, variant())
        assert np.array_equal(a[0].bits, b[0].bits)
        assert np.array_equal(a[1].bits, b[1].bits)
        assert a[3] == b[3]


class TestAliceSign:
    def test_identity_transform_signs_in_place(self):
        v = variant()
        n = 2
        zero_ka = crypto.KeyMaterial(
            np.zeros(crypto.ka_bits_required(n, v.key_model), dtype=np.uint8),
            crypto.OwnerPair.ALICE_ARBITRATOR,
        )
        msg = haar_product_message(n, rng(2))
        triples = tuple(qsim.ghz_state() for _ in range(n))
        sig, _, m_a, _ = alice_sign(msg, zero_ka, triples, v, rng(3))
        opened_ma, r = crypto.open_signature(sig, zero_ka, v.key_model)
        assert opened_ma == m_a
        assert qsim.register_fidelity(r, msg) >= 1 - ATOL

    def test_shared_pair_matches_outcome(self):
        # Whatever M_a was sampled, the Bob/arbitrator pair must equal the
        # deterministic projection for that outcome.
        v = variant()
        r = rng(4)
        for _ in range(30):
            msg = haar_product_message(1, r)
            k_a, _, triples, _ = initialize(1, int(r.integers(0, 2**31)), v)
            _, _, m_a, pairs = alice_sign(msg, k_a, triples, v, r)
            joint = qsim.tensor(msg[0], qsim.ghz_state())
            _, expected = qsim.project_bell(joint, 0, 1, m_a[0])
            assert fidelity(pairs[0], expected) >= 1 - ATOL

    def test_outcome_frequencies_uniform(self):
        v = variant()
        r = rng(5)
        msg = haar_product_message(1, r)
        trials = 8000
        counts = {o: 0 for o in BellOutcome}
        triples = (qsim.ghz_state(),)
        k_a, _, _, _ = initialize(1, 6, v)
        for _ in range(trials):
            _, _, m_a, _ = alice_sign(msg, k_a, triples, v, r)
            counts[m_a[0]] += 1
        sigma = np.sqrt(0.25 * 0.75 / trials)
        for o in BellOutcome:
            assert abs(counts[o] / trials - 0.25) < 4 * sigma

    def test_share_count_mismatch(self):
        v = variant()
        k_a, _, triples, _ = initialize(2, 8, v)
        with pytest.raises(ValueError):
            alice_sign(haar_product_message(3, rng(7)), k_a, triples, v, rng(8))


class TestBobForward:
    def test_bundle_roundtrip(self):
        v = variant()
        r = rng(9)
        n = 2
        k_a, k_b, triples, _ = initialize(n, 10, v)
        msg = haar_product_message(n, r)
        sig, p_out, m_a, pairs = alice_sign(msg, k_a, triples, v, r)
        y_b, m_b, particles = bob_receive_and_forward(p_out, sig, pairs, k_b, r)
        layout = crypto.kb_layout(n)
        mb_bits = crypto.classical_decrypt(y_b.mb_bits, k_b.slice(*layout["yb_mb_pad"]))
        assert tuple(XOutcome.from_bit(int(b)) for b in mb_bits) == m_b
        sig_back = crypto.SignaturePackage(
            crypto.classical_decrypt(
                y_b.sig.enc_bell, k_b.slice(*layout["yb_sig_bell_pad"])
            ),
            crypto.qotp_decrypt(y_b.sig.enc_state, k_b.slice(*layout["yb_sig_state_pad"])),
        )
        assert np.array_equal(sig_back.enc_bell, sig.enc_bell)
        assert qsim.register_fidelity(sig_back.enc_state, sig.enc_state) >= 1 - ATOL
        p_back = crypto.qotp_decrypt(y_b.msg_state, k_b.slice(*layout["yb_msg_state_pad"]))
        assert qsim.register_fidelity(p_back, msg) >= 1 - ATOL
        assert len(particles) == n

    def test_x_outcomes_uniform(self):
        v = variant()
        r = rng(11)
        trials = 8000
        plus = 0
        k_a, k_b, triples, _ = initialize(1, 12, v)
        msg = haar_product_message(1, r)
        for _ in range(trials):
            sig, p_out, _, pairs = alice_sign(msg, k_a, triples, v, r)
            _, m_b, _ = bob_receive_and_forward(p_out, sig, pairs, k_b, r)
            plus += m_b[0] is XOutcome.PLUS_X
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
    @pytest.mark.parametrize("v", ALL_SUPPORTED_VARIANTS)
    def test_honest_gamma_always_one(self, v):
        for seed in range(5):
            t = run_protocol(RunConfig(2, v), seed)
            assert t.gamma == 1

    def test_honest_repaired_variant_always_accepts(self):
        for n in (1, 3):
            for seed in range(30):
                t = run_protocol(RunConfig(n, REPAIRED), seed)
                assert t.gamma == 1 and t.verdict is Verdict.ACCEPTED

    def test_general_key_draws_one_unitary_per_run(self, monkeypatch):
        # Alice and the arbitrator both derive the signing transform from K_a;
        # the Haar unitary behind it is drawn and QR-factored once
        draws = []
        draw = crypto.haar_random_unitary

        def counted(dim, generator):
            draws.append(dim)
            return draw(dim, generator)

        monkeypatch.setattr(crypto, "haar_random_unitary", counted)
        crypto._transform_from_bits.cache_clear()
        general = variant(keys=SigningModel.GENERAL_UNITARY, cmp=ComparisonMode.WHOLE_REGISTER)
        run_protocol(RunConfig(3, general), 21)
        assert draws == [8]

    def test_deterministic_transcripts(self):
        cfg = RunConfig(2, REPAIRED)
        t1 = serialize.dumps(serialize.transcript_to_dict(run_protocol(cfg, 99)))
        t2 = serialize.dumps(serialize.transcript_to_dict(run_protocol(cfg, 99)))
        assert t1 == t2

    def test_gamma_gate(self):
        # adversarially garbled signature forces gamma = 0 -> Rejected
        from aqsim.attacks import _garble_tap

        cfg = RunConfig(1, variant())
        rejected = 0
        for seed in range(200):
            t = run_protocol(cfg, seed, channel_tap=_garble_tap)
            if t.gamma == 0:
                rejected += 1
                assert t.verdict is Verdict.REJECTED
            assert not (t.verdict is Verdict.ACCEPTED and t.gamma == 0)
        assert rejected > 50  # orthogonal qubit: detection probability 1/2

    def test_teleported_particle_matches_message(self):
        # ForwardParticle + KnownToAll: Bob's corrected particle is the message
        for seed in range(20):
            t = run_protocol(RunConfig(2, REPAIRED), seed)
            assert t.extras["candidate_fidelity"] == pytest.approx(1.0, abs=ATOL)

    def test_measure_x_candidate_lossy(self):
        cfg = RunConfig(1, variant())
        fids = [run_protocol(cfg, seed).extras["candidate_fidelity"] for seed in range(300)]
        assert np.mean(fids) < 0.999
        assert np.mean(fids) == pytest.approx(2 / 3, abs=0.1)

    def test_outcome_independence_chi_square(self):
        # (M_a, M_b) jointly uniform and independent of the message
        r = rng(13)
        messages = [haar_product_message(1, r) for _ in range(5)]
        pairs = [(a, b) for a in BellOutcome for b in XOutcome]
        table = np.zeros((8, 5))
        cfg = RunConfig(1, variant())
        runs = 3000
        for j, msg in enumerate(messages):
            for _ in range(runs):
                t = run_protocol(cfg, int(r.integers(0, 2**62)), message=msg)
                table[pairs.index((t.m_a[0], t.m_b[0])), j] += 1
            sigma = np.sqrt(0.125 * 0.875 / runs)
            for i in range(8):
                assert abs(table[i, j] / runs - 0.125) < 4 * sigma
        _, p_value, _, _ = scipy.stats.chi2_contingency(table)
        assert p_value > 0.001

    def test_final_verify_needs_reference(self):
        v = REPAIRED
        cfg = RunConfig(1, v)
        t = run_protocol(cfg, 3)
        with pytest.raises(ValueError):
            bob_final_verify(t.y_tb, initialize(1, 3, v)[1], None, cfg, rng())


class TestNonIdealizedComparison:
    def test_from_message_runs(self):
        cfg = RunConfig(1, variant(), idealized_comparison=False)
        for seed in range(20):
            assert run_protocol(cfg, seed).gamma == 1

    def test_ghz_source_measure_x_runs(self):
        v = variant(r_prime=RPrimeSource.FROM_GHZ_PARTICLE)
        cfg = RunConfig(1, v, idealized_comparison=False)
        for seed in range(20):
            t = run_protocol(cfg, seed)
            assert t.gamma == 1 and len(t.m_t) == 1

    def test_ghz_source_forward_unsupported(self):
        v = variant(
            r_prime=RPrimeSource.FROM_GHZ_PARTICLE,
            mt=MtMode.FORWARD_PARTICLE,
            knowledge=MessageKnowledge.KNOWN_TO_ALL,
        )
        cfg = RunConfig(1, v, idealized_comparison=False)
        with pytest.raises(ValueError):
            run_protocol(cfg, 0)

    def test_ghz_source_whole_register_unsupported(self):
        v = variant(
            r_prime=RPrimeSource.FROM_GHZ_PARTICLE,
            keys=SigningModel.GENERAL_UNITARY,
            cmp=ComparisonMode.WHOLE_REGISTER,
        )
        cfg = RunConfig(1, v, idealized_comparison=False)
        with pytest.raises(ValueError):
            run_protocol(cfg, 0)


class TestBlockWidths:
    @pytest.mark.parametrize("v", [variant(), REPAIRED], ids=["measure-x", "forward-all"])
    def test_per_qubit_run_stays_narrow(self, v, monkeypatch):
        # Every step of a per-qubit run acts on one message qubit at a time, so
        # the widest state is a GHZ triple plus one message qubit, whatever n.
        widths = []
        post_init = qsim.StateVector.__post_init__

        def recording(state):
            post_init(state)
            widths.append(state.qubit_count)

        monkeypatch.setattr(qsim.StateVector, "__post_init__", recording)
        strategy = ForgeryStrategy(StrategyKind.REPLACE_QUBITS, m=3)

        def tap(message, sig, r):
            return forge(message, strategy, r), sig

        for seed in range(3):
            assert run_protocol(RunConfig(10, v), seed).gamma == 1
            run_protocol(RunConfig(10, v), seed, channel_tap=tap)
        assert max(widths) == 4


class TestMessage:
    def test_factor_register_consistency(self):
        msg = haar_product_message(3, rng(14))
        assert [b.qubit_count for b in msg] == [1, 1, 1]
        refactored = qsim.product_factors(qsim.join(msg))
        for a, b in zip(msg, refactored):
            assert fidelity(a, b) >= 1 - 1e-9
        assert qsim.register_fidelity(msg, (qsim.join(msg),)) == pytest.approx(1.0, abs=1e-9)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            RunConfig(0, REPAIRED)
