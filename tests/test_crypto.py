"""Tests for key material, signing transforms, and the one-time pads."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsim import crypto, qsim, serialize
from aqsim.attacks import _garble_tap
from aqsim.cli import main
from aqsim.crypto import (
    SigningModel,
    classical_decrypt,
    classical_encrypt,
    derive_signing_transform,
    make_signature,
    open_signature,
    qotp_decrypt,
    qotp_encrypt,
)
from aqsim.protocol import ComparisonMode, MessageKnowledge, MtMode, ProtocolVariant, RPrimeSource, RunConfig, run_protocol
from aqsim.qsim import ATOL, PauliOp, StateVector, haar_random_state, new_basis_state


def rng(seed=0):
    return np.random.default_rng(seed)


def register(*blocks):
    """A register (see qsim "Registers") of the given equal-width single states."""
    return StateVector(np.stack([b.amplitudes for b in blocks], axis=-2))


def make_key(bits):
    return np.array(bits, dtype=np.uint8)


def random_ka(n, model, seed=0):
    return rng(seed).integers(0, 2, size=crypto.ka_bits_required(n, model), dtype=np.uint8)



def per_qubit_paulis(register, pad, encrypt):
    """The pad applied one apply_pauli call at a time: per qubit j of every
    block, X^a Z^b with (a, b) its two pad bits, or the inverse Z^b X^a."""
    k = register.qubit_count
    bits = pad.reshape(pad.shape[:-1] + (-1, k, 2))
    for j in range(k):
        for half in (1, 0) if encrypt else (0, 1):
            pauli = PauliOp.Z if half else PauliOp.X
            register = qsim.apply_pauli(register, operator.index(pauli) * bits[..., j, half], j)
    return register

class TestKeyLayout:
    def test_layouts_disjoint(self):
        layouts = [crypto.ka_layout(3, model) for model in SigningModel]
        layouts.append({f"{b}.{f}": span for b, fields in crypto.kb_layout(3).items() for f, span in fields.items()})
        for layout in layouts:
            spans = sorted(layout.values(), key=lambda span: span.start)
            for s1, s2 in zip(spans, spans[1:]):
                assert s1.stop == s2.start  # contiguous, disjoint

    def test_wire_layout_pinned(self):
        # every slice, by name and bit position: moving one changes every ciphertext
        assert list(crypto.ka_layout(2, SigningModel.PER_QUBIT_PRODUCT).items()) == [
            ("signing", slice(0, 4)),
            ("sig_state", slice(4, 8)),
            ("sig_bell_bits", slice(8, 12)),
        ]
        assert list(crypto.ka_layout(2, SigningModel.GENERAL_UNITARY).items()) == [
            ("signing", slice(0, 64)),
            ("sig_state", slice(64, 68)),
            ("sig_bell_bits", slice(68, 72)),
        ]
        kb = crypto.kb_layout(2)
        assert list(kb) == ["y_b", "y_tb"]
        assert list(kb["y_b"].items()) == [
            ("mb_bits", slice(0, 2)),
            ("sig_bell_bits", slice(2, 6)),
            ("sig_state", slice(6, 10)),
            ("msg_state", slice(10, 14)),
        ]
        assert list(kb["y_tb"].items()) == [
            ("ma_bits", slice(14, 18)),
            ("mb_bits", slice(18, 20)),
            ("mt_bits", slice(20, 22)),
            ("gamma_bit", slice(22, 23)),
            ("sig_bell_bits", slice(23, 27)),
            ("sig_state", slice(27, 31)),
            ("particles", slice(31, 35)),
        ]
        assert crypto.kb_bits_required(2) == 35
        assert crypto.ka_bits_required(2, SigningModel.GENERAL_UNITARY) == 72

    def test_kb_layout_built_once_and_read_only(self):
        assert crypto.kb_layout(3) is crypto.kb_layout(3)
        with pytest.raises(TypeError):
            crypto.kb_layout(3)["y_b"] = {}
        with pytest.raises(TypeError):
            crypto.kb_layout(3)["y_b"]["mb_bits"] = (0, 0)


class TestSigningTransform:
    def test_zero_key_gives_identity(self):
        key = make_key([0] * crypto.ka_bits_required(1, SigningModel.PER_QUBIT_PRODUCT))
        t = derive_signing_transform(key, 1, SigningModel.PER_QUBIT_PRODUCT)
        assert np.allclose(t.unitaries[0], np.eye(2))

    def test_deterministic(self):
        # a second derivation from a copy of the same bits is computed afresh
        for model in SigningModel:
            key = random_ka(2, model, seed=5)
            t1 = derive_signing_transform(key, 2, model)
            t2 = derive_signing_transform(key.copy(), 2, model)
            assert t2 is not t1
            for u1, u2 in zip(t1.unitaries, t2.unitaries, strict=True):
                assert np.array_equal(u1, u2)

    def test_derived_unitaries_read_only(self):
        # Alice and the arbitrator share one transform, so neither can write to it
        for model in SigningModel:
            for u in derive_signing_transform(random_ka(2, model, seed=12), 2, model).unitaries:
                with pytest.raises(ValueError):
                    u[0, 0] = 0

    def test_general_unitary_is_unitary(self):
        key = random_ka(2, SigningModel.GENERAL_UNITARY, seed=6)
        t = derive_signing_transform(key, 2, SigningModel.GENERAL_UNITARY)
        u = t.unitaries[0]
        assert u.shape == (4, 4)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=ATOL)

    def test_general_key_is_signing_bits_big_endian(self):
        # each trial's 64 signing bits, first bit most significant, key its Haar
        # unitary; the sig_state and sig_bell_bits slices do not enter it
        n = 2
        length = crypto.ka_bits_required(n, SigningModel.GENERAL_UNITARY)
        bits = rng(27).integers(0, 2, size=(3, length), dtype=np.uint8)
        bits[0, :64] = 0
        bits[0, 63] = 1
        bits[1, :64] = 0
        bits[1, 0] = 1
        keys = [int("".join(map(str, row[:64])), 2) for row in bits]
        assert keys[:2] == [1, 2**63]
        t = derive_signing_transform(bits, n, SigningModel.GENERAL_UNITARY)
        assert t.unitaries.shape == (3, 1, 4, 4)
        expected = qsim.haar_random_unitary(4, np.array(keys, dtype=np.uint64))
        assert np.array_equal(t.unitaries[:, 0], expected)

    def test_every_derived_transform_unitary(self):
        for seed in range(10):
            for model in SigningModel:
                key = random_ka(3, model, seed=seed)
                for u in derive_signing_transform(key, 3, model).unitaries:
                    assert np.allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-9)

    def test_key_too_short(self):
        with pytest.raises(ValueError):
            derive_signing_transform(make_key([0, 1]), 3, SigningModel.PER_QUBIT_PRODUCT)

    def test_derivation_rejects_non_unitary(self, monkeypatch, tmp_path, capsys):
        # a general key's stack is checked where it is first built: when its
        # unitaries are read, on the garble path (the tap reads U x) and on
        # the transcript path (a ciphertext of U x), before any report is written
        def doubled_identity(dim, keys):
            return 2 * np.broadcast_to(np.eye(dim, dtype=complex), (len(keys), dim, dim))

        monkeypatch.setattr(crypto, "haar_random_unitary", doubled_identity)
        key = random_ka(2, SigningModel.GENERAL_UNITARY, seed=7)
        transform = derive_signing_transform(key, 2, SigningModel.GENERAL_UNITARY)  # key bits: nothing built
        with pytest.raises(ValueError, match="not unitary"):
            transform.unitaries  # the first read builds and checks them
        general = ProtocolVariant(RPrimeSource.FROM_MESSAGE_P, MtMode.MEASURE_X, MessageKnowledge.ALICE_ONLY,
                                  SigningModel.GENERAL_UNITARY, ComparisonMode.WHOLE_REGISTER)
        with pytest.raises(ValueError, match="not unitary"):
            run_protocol(RunConfig(1, general), 7, 4, channel_tap=_garble_tap)
        transcript = run_protocol(RunConfig(2, general), 7, 4)  # the arbitrator compares without U
        with pytest.raises(ValueError, match="not unitary"):
            serialize.transcript_to_dict(transcript)
        out = tmp_path / "garble.json"
        argv = ["--scenario", "forgery", "--strategy", "garble-signature", "--key-model", "general",
                "--comparison", "whole-register", "--n", "1", "--trials", "50", "--out", str(out)]
        assert main(argv) == 2 and not out.exists()
        assert "not unitary" in capsys.readouterr().err

    def test_sign_and_invert(self):
        key = random_ka(2, SigningModel.PER_QUBIT_PRODUCT, seed=7)
        t = derive_signing_transform(key, 2, SigningModel.PER_QUBIT_PRODUCT)
        p = haar_random_state(2, rng(8), (1,))  # one entangled block
        signed = crypto.Signed(p, t)
        assert signed.register is p  # held unsigned until read
        inverse = np.swapaxes(qsim.kron_blocks(t.unitaries).conj(), -1, -2)
        back = qsim.apply_unitary(signed.state(), inverse)
        assert qsim.register_fidelity(back, p) >= 1 - ATOL

    def test_hadamard_entry(self):
        # key bits 01 select the Hadamard slot
        key = make_key([0, 1, 0, 0, 0, 0])
        t = derive_signing_transform(key, 1, SigningModel.PER_QUBIT_PRODUCT)
        r = t.apply(register(new_basis_state(1, 0)))
        assert np.allclose(r.amplitudes, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=ATOL)

    def test_product_transform_preserves_product(self):
        key = random_ka(3, SigningModel.PER_QUBIT_PRODUCT, seed=9)
        t = derive_signing_transform(key, 3, SigningModel.PER_QUBIT_PRODUCT)
        factors = register(*(haar_random_state(1, rng(10 + i)) for i in range(3)))
        signed = t.apply(factors)
        assert signed.amplitudes.shape == (3, 2)  # still three one-qubit blocks
        # blockwise signing equals the kron transform on the joined register,
        # which stays Schmidt rank 1 across every qubit-vs-rest bipartition
        kron = np.kron(np.kron(t.unitaries[0], t.unitaries[1]), t.unitaries[2])
        whole = t.apply(qsim.join(factors))
        assert np.allclose(whole.amplitudes[0], kron @ qsim.join(factors).amplitudes[0], atol=ATOL)
        assert qsim.register_fidelity(qsim.join(signed), whole) >= 1 - ATOL
        assert len(qsim.product_factors(StateVector(whole.amplitudes[0]))) == 3


class TestQotp:
    def test_zero_pad_identity(self):
        s = haar_random_state(2, rng(11), (1,))
        out = qotp_encrypt(s, np.zeros(4, dtype=np.uint8))
        assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)

    def test_roundtrip_many(self):
        r = rng(12)
        for _ in range(100):
            s = haar_random_state(3, r, (1,))
            pad = r.integers(0, 2, size=6, dtype=np.uint8)
            back = qotp_decrypt(qotp_encrypt(s, pad), pad)
            assert qsim.register_fidelity(back, s) >= 1 - ATOL

    def test_pad_length_mismatch(self):
        with pytest.raises(ValueError):
            qotp_encrypt(haar_random_state(2, rng(), (1,)), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            qotp_encrypt(haar_random_state(1, rng(), (1,)), np.zeros(4, dtype=np.uint8))

    def test_blocks_padded_at_their_qubit_offsets(self):
        # a 4-qubit register as four 1-qubit blocks or two 2-qubit blocks: block
        # b of width k takes pad bits [2bk, 2(b+1)k), as padding the joined
        # register does
        r = rng(20)
        for k in (1, 2):
            blocks = haar_random_state(k, r, (4 // k,))
            for _ in range(20):
                pad = r.integers(0, 2, size=8, dtype=np.uint8)
                enc = qotp_encrypt(blocks, pad)
                assert enc.amplitudes.shape == blocks.amplitudes.shape
                whole = qotp_encrypt(qsim.join(blocks), pad)
                assert np.allclose(qsim.join(enc).amplitudes, whole.amplitudes, atol=ATOL)
                back = qotp_decrypt(enc, pad)
                assert qsim.register_fidelity(back, blocks) >= 1 - ATOL

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_gather_equals_per_qubit_paulis(self, k):
        # exactly the Paulis applied one qubit at a time (encrypt: Z^b, then X^a;
        # decrypt: X^a, then Z^b), on three k-qubit blocks, with a pad per
        # trial and with one pad without a trial axis; decrypt undoes encrypt
        r = rng(26)
        s = haar_random_state(k, r, (16, 3))
        for pad in (r.integers(0, 2, size=(16, 6 * k), dtype=np.uint8), r.integers(0, 2, size=6 * k, dtype=np.uint8)):
            enc = qotp_encrypt(s, pad)
            assert np.array_equal(enc.amplitudes, per_qubit_paulis(s, pad, encrypt=True).amplitudes)
            assert np.array_equal(qotp_decrypt(s, pad).amplitudes, per_qubit_paulis(s, pad, encrypt=False).amplitudes)
            assert np.array_equal(qotp_decrypt(enc, pad).amplitudes, s.amplitudes)

    def test_exhaustive_pad_average_is_maximally_mixed(self):
        # Average the encrypted projector over every single-qubit pad.
        s = haar_random_state(1, rng(13))
        acc = np.zeros((2, 2), dtype=complex)
        pads = [(a, b) for a in (0, 1) for b in (0, 1)]
        for pad in pads:
            enc = qotp_encrypt(register(s), np.array(pad, dtype=np.uint8)).amplitudes[0]
            acc += np.outer(enc, enc.conj())
        acc /= len(pads)
        assert np.allclose(acc, np.eye(2) / 2, atol=ATOL)

    def test_wrong_pad_mean_fidelity_half(self):
        # one block of 100000 trials, each with its own state, pad and wrong pad
        r = rng(14)
        trials = 100000
        s = haar_random_state(1, r, (trials, 1))
        pad = r.integers(0, 2, size=(trials, 2), dtype=np.uint8)
        wrong = r.integers(0, 2, size=(trials, 2), dtype=np.uint8)
        back = qotp_decrypt(qotp_encrypt(s, pad), wrong)
        assert qsim.register_fidelity(back, s).mean() == pytest.approx(0.5, abs=0.01)


def _bits(state):
    """A register's amplitudes as int64 words: equal iff equal bit for bit."""
    return state.amplitudes.view(np.int64)


class TestSealed:
    N = 3
    LAYOUT = crypto.kb_layout(N)["y_b"]

    def _sealed(self, seed, k):
        r = rng(seed)
        register = haar_random_state(k, r, (16, self.N // k) if k == 1 else (16, 1))
        key = r.integers(0, 2, size=(16, crypto.kb_bits_required(self.N)), dtype=np.uint8)
        return r, register, key, crypto.seal({"msg_state": register}, key, self.LAYOUT)

    def test_own_key_opens_to_the_sealed_register(self):
        # a copy of the key, so its bits are what matches, not the array
        _, register, key, bundle = self._sealed(30, 1)
        assert isinstance(bundle["msg_state"], crypto.Sealed)
        assert crypto.unseal(bundle, key.copy(), self.LAYOUT, ["msg_state"])["msg_state"] is register

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_pads_open_as_the_eager_pads(self, k):
        # a wrong key, and the key wrong in one bit of one trial, open the
        # built ciphertext, bit for bit as padding the amplitudes at once does
        r, register, key, bundle = self._sealed(31, k)
        pad = key[..., self.LAYOUT["msg_state"]]
        partly = key.copy()
        partly[5, self.LAYOUT["msg_state"].start + 3] ^= 1
        for other in (r.integers(0, 2, size=key.shape, dtype=np.uint8), partly):
            opened = crypto.unseal(bundle, other, self.LAYOUT, ["msg_state"])["msg_state"]
            eager = qotp_decrypt(qotp_encrypt(register, pad), other[..., self.LAYOUT["msg_state"]])
            assert np.array_equal(_bits(opened), _bits(eager))

    def test_nested_ciphertext_is_the_eager_pads(self):
        # the signature sealed under K_a, then under K_b, as in y_b
        r = rng(32)
        model = SigningModel.PER_QUBIT_PRODUCT
        k_a = r.integers(0, 2, size=(16, crypto.ka_bits_required(self.N, model)), dtype=np.uint8)
        k_b = r.integers(0, 2, size=(16, crypto.kb_bits_required(self.N)), dtype=np.uint8)
        state = haar_random_state(1, r, (16, self.N))
        sig = make_signature(np.zeros((16, self.N), dtype=np.intp), state, k_a, model)
        y_b = crypto.seal(sig, k_b, self.LAYOUT)
        pad_a = k_a[..., crypto.ka_layout(self.N, model)["sig_state"]]
        pad_b = k_b[..., self.LAYOUT["sig_state"]]
        eager = qotp_encrypt(qotp_encrypt(state, pad_a), pad_b)
        assert np.array_equal(_bits(crypto.ciphertext(y_b["sig_state"])), _bits(eager))
        # K_b's own slice, then K_a's, give back the signed register itself
        opened = crypto.unseal(y_b, k_b, self.LAYOUT, sig.keys())
        assert open_signature(opened, k_a, model)[1] is state
        # a wrong K_b slice decrypts both pads' ciphertext
        wrong = r.integers(0, 2, size=k_b.shape, dtype=np.uint8)
        opened = crypto.unseal(y_b, wrong, self.LAYOUT, ["sig_state"])["sig_state"]
        assert np.array_equal(_bits(opened), _bits(qotp_decrypt(eager, wrong[..., self.LAYOUT["sig_state"]])))


class TestClassicalPad:
    def test_examples(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(classical_encrypt(bits, np.zeros(4, dtype=np.uint8)), bits)
        assert np.array_equal(classical_encrypt(bits, bits), np.zeros(4, dtype=np.uint8))

    def test_pad_too_short(self):
        with pytest.raises(ValueError):
            classical_encrypt(np.ones(4, dtype=np.uint8), np.ones(3, dtype=np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=32, max_size=32), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, bits, pad_seed):
        bits = np.array(bits, dtype=np.uint8)
        pad = np.random.default_rng(pad_seed).integers(0, 2, size=32, dtype=np.uint8)
        assert np.array_equal(classical_decrypt(classical_encrypt(bits, pad), pad), bits)


class TestSignaturePackage:
    def test_roundtrip(self):
        r = rng(15)
        for model in SigningModel:
            key = random_ka(2, model, seed=16)
            m_a = np.array([1, 2])  # positions of psi-, phi+
            state = haar_random_state(2, r, (1,))
            sig = make_signature(m_a, state, key, model)
            m_a_back, state_back = open_signature(sig, key, model)
            assert np.array_equal(m_a_back, m_a)
            assert qsim.register_fidelity(state_back, state) >= 1 - ATOL

    def test_wrong_key_bell_bits_quarter(self):
        # one key, 10000 trials in one block, each with its own M_a, state and wrong key
        r = rng(17)
        trials = 10000
        model = SigningModel.PER_QUBIT_PRODUCT
        key = random_ka(1, model, seed=18)
        key = np.broadcast_to(key, (trials, key.shape[-1]))
        m_a = r.integers(0, 4, size=(trials, 1))
        sig = make_signature(m_a, haar_random_state(1, r, (trials, 1)), key, model)
        wrong = r.integers(0, 2, size=key.shape, dtype=np.uint8)
        m_a_back, _ = open_signature(sig, wrong, model)
        hits = np.count_nonzero((m_a_back == m_a).all(-1))
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) < 3 * sigma

    def test_wrong_key_state_mean_fidelity_half(self):
        # 20000 trials in one block, each with its own key, state and wrong key
        r = rng(19)
        trials = 20000
        model = SigningModel.PER_QUBIT_PRODUCT
        key = r.integers(0, 2, size=(trials, crypto.ka_bits_required(1, model)), dtype=np.uint8)
        state = haar_random_state(1, r, (trials, 1))
        sig = make_signature(np.zeros((trials, 1), dtype=np.intp), state, key, model)  # psi+
        wrong = r.integers(0, 2, size=key.shape, dtype=np.uint8)
        _, state_back = open_signature(sig, wrong, model)
        assert qsim.register_fidelity(state_back, state).mean() == pytest.approx(0.5, abs=0.015)
