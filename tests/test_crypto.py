"""Tests for key material, signing transforms, and the one-time pads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsim import crypto, qsim
from aqsim.crypto import (
    KeyMaterial,
    OwnerPair,
    SigningModel,
    classical_decrypt,
    classical_encrypt,
    derive_signing_transform,
    make_signature,
    open_signature,
    qotp_decrypt,
    qotp_encrypt,
)
from aqsim.qsim import ATOL, BellOutcome, fidelity, haar_random_state, new_basis_state


def rng(seed=0):
    return np.random.default_rng(seed)


def make_key(bits, owner=OwnerPair.ALICE_ARBITRATOR):
    return KeyMaterial(np.array(bits, dtype=np.uint8), owner)


def random_ka(n, model, seed=0):
    return KeyMaterial.random(
        crypto.ka_bits_required(n, model), OwnerPair.ALICE_ARBITRATOR, rng(seed)
    )


class TestKeyMaterial:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            make_key([0, 1, 2])

    def test_slice_too_short(self):
        with pytest.raises(ValueError):
            make_key([0, 1]).slice(1, 2)

    def test_hex_roundtrip(self):
        key = KeyMaterial.random(37, OwnerPair.BOB_ARBITRATOR, rng(1))
        back = KeyMaterial.from_hex(key.to_hex(), OwnerPair.BOB_ARBITRATOR, 37)
        assert np.array_equal(key.bits, back.bits)

    def test_layouts_disjoint(self):
        for model in SigningModel:
            layout = crypto.ka_layout(3, model)
            spans = sorted(layout.values())
            for (s1, l1), (s2, _) in zip(spans, spans[1:]):
                assert s1 + l1 == s2  # contiguous, disjoint
        kb = sorted(crypto.kb_layout(3).values())
        for (s1, l1), (s2, _) in zip(kb, kb[1:]):
            assert s1 + l1 == s2

    def test_kb_layout_built_once_and_read_only(self):
        assert crypto.kb_layout(3) is crypto.kb_layout(3)
        with pytest.raises(TypeError):
            crypto.kb_layout(3)["yb_mb_pad"] = (0, 0)


class TestSigningTransform:
    def test_zero_key_gives_identity(self):
        key = make_key([0] * crypto.ka_bits_required(1, SigningModel.PER_QUBIT_PRODUCT))
        t = derive_signing_transform(key, 1, SigningModel.PER_QUBIT_PRODUCT)
        assert np.allclose(t.unitaries[0], np.eye(2))

    def test_deterministic(self):
        for model in SigningModel:
            key = random_ka(2, model, seed=5)
            t1 = derive_signing_transform(key, 2, model)
            t2 = derive_signing_transform(key, 2, model)
            for u1, u2 in zip(t1.unitaries, t2.unitaries):
                assert np.array_equal(u1, u2)

    def test_memo_matches_fresh_derivation(self):
        for model in SigningModel:
            key = random_ka(3, model, seed=11)
            memoized = derive_signing_transform(key, 3, model)
            crypto._transform_from_bits.cache_clear()
            fresh = derive_signing_transform(key, 3, model)
            assert fresh is not memoized
            for u1, u2 in zip(memoized.unitaries, fresh.unitaries):
                assert np.array_equal(u1, u2)

    def test_derived_unitaries_read_only(self):
        # they are shared through the memo, so a write must not reach the next caller
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

    def test_all_derived_transforms_unitary(self):
        for seed in range(10):
            for model in SigningModel:
                key = random_ka(3, model, seed=seed)
                for u in derive_signing_transform(key, 3, model).unitaries:
                    assert np.allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-9)

    def test_key_too_short(self):
        with pytest.raises(ValueError):
            derive_signing_transform(make_key([0, 1]), 3, SigningModel.PER_QUBIT_PRODUCT)

    def test_sign_and_invert(self):
        key = random_ka(2, SigningModel.PER_QUBIT_PRODUCT, seed=7)
        t = derive_signing_transform(key, 2, SigningModel.PER_QUBIT_PRODUCT)
        p = (haar_random_state(2, rng(8)),)  # one entangled block
        (back,) = t.inverse().apply(t.apply(p))
        assert fidelity(back, p[0]) >= 1 - ATOL

    def test_hadamard_entry(self):
        # key bits 01 select the Hadamard slot
        key = make_key([0, 1, 0, 0, 0, 0])
        t = derive_signing_transform(key, 1, SigningModel.PER_QUBIT_PRODUCT)
        (r,) = t.apply((new_basis_state(1, 0),))
        assert np.allclose(r.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=ATOL)

    def test_product_transform_preserves_product(self):
        key = random_ka(3, SigningModel.PER_QUBIT_PRODUCT, seed=9)
        t = derive_signing_transform(key, 3, SigningModel.PER_QUBIT_PRODUCT)
        factors = tuple(haar_random_state(1, rng(10 + i)) for i in range(3))
        signed = t.apply(factors)
        assert [b.qubit_count for b in signed] == [1, 1, 1]
        # blockwise signing equals the kron transform on the joined register,
        # which stays Schmidt rank 1 across every qubit-vs-rest bipartition
        kron = np.kron(np.kron(t.unitaries[0], t.unitaries[1]), t.unitaries[2])
        (whole,) = t.apply((qsim.join(factors),))
        assert np.allclose(whole.amplitudes, kron @ qsim.join(factors).amplitudes, atol=ATOL)
        assert fidelity(qsim.join(signed), whole) >= 1 - ATOL
        assert len(qsim.product_factors(whole)) == 3


class TestQotp:
    def test_zero_pad_identity(self):
        s = haar_random_state(2, rng(11))
        (out,) = qotp_encrypt((s,), np.zeros(4, dtype=np.uint8))
        assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)

    def test_roundtrip_many(self):
        r = rng(12)
        for _ in range(100):
            s = (haar_random_state(3, r),)
            pad = r.integers(0, 2, size=6, dtype=np.uint8)
            back = qotp_decrypt(qotp_encrypt(s, pad), pad)
            assert qsim.register_fidelity(back, s) >= 1 - ATOL

    def test_pad_length_mismatch(self):
        with pytest.raises(ValueError):
            qotp_encrypt((haar_random_state(2, rng()),), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            qotp_encrypt((haar_random_state(1, rng()),), np.zeros(4, dtype=np.uint8))

    def test_blocks_padded_at_their_qubit_offsets(self):
        # blocks of 1, 2 and 1 qubits take pad bits [0:2], [2:6] and [6:8]
        r = rng(20)
        blocks = (haar_random_state(1, r), haar_random_state(2, r), haar_random_state(1, r))
        for _ in range(20):
            pad = r.integers(0, 2, size=8, dtype=np.uint8)
            enc = qotp_encrypt(blocks, pad)
            assert [b.qubit_count for b in enc] == [1, 2, 1]
            (whole,) = qotp_encrypt((qsim.join(blocks),), pad)
            assert np.allclose(qsim.join(enc).amplitudes, whole.amplitudes, atol=ATOL)
            back = qotp_decrypt(enc, pad)
            assert qsim.register_fidelity(back, blocks) >= 1 - ATOL

    def test_exhaustive_pad_average_is_maximally_mixed(self):
        # Average the encrypted projector over every single-qubit pad.
        s = haar_random_state(1, rng(13))
        acc = np.zeros((2, 2), dtype=complex)
        pads = [(a, b) for a in (0, 1) for b in (0, 1)]
        for pad in pads:
            enc = qotp_encrypt((s,), np.array(pad, dtype=np.uint8))[0].amplitudes
            acc += np.outer(enc, enc.conj())
        acc /= len(pads)
        assert np.allclose(acc, np.eye(2) / 2, atol=ATOL)

    def test_wrong_pad_mean_fidelity_half(self):
        r = rng(14)
        trials = 100000
        total = 0.0
        for _ in range(trials):
            s = haar_random_state(1, r)
            pad = r.integers(0, 2, size=2, dtype=np.uint8)
            wrong = r.integers(0, 2, size=2, dtype=np.uint8)
            (back,) = qotp_decrypt(qotp_encrypt((s,), pad), wrong)
            total += fidelity(back, s)
        assert total / trials == pytest.approx(0.5, abs=0.01)


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
            m_a = (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS)
            state = (haar_random_state(2, r),)
            sig = make_signature(m_a, state, key, model)
            m_a_back, state_back = open_signature(sig, key, model)
            assert m_a_back == m_a
            assert qsim.register_fidelity(state_back, state) >= 1 - ATOL

    def test_wrong_key_bell_bits_quarter(self):
        r = rng(17)
        trials = 10000
        model = SigningModel.PER_QUBIT_PRODUCT
        key = random_ka(1, model, seed=18)
        hits = 0
        for _ in range(trials):
            m_a = (list(BellOutcome)[r.integers(0, 4)],)
            sig = make_signature(m_a, (haar_random_state(1, r),), key, model)
            wrong = KeyMaterial.random(len(key), OwnerPair.ALICE_ARBITRATOR, r)
            m_a_back, _ = open_signature(sig, wrong, model)
            hits += m_a_back == m_a
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) < 3 * sigma

    def test_wrong_key_state_mean_fidelity_half(self):
        r = rng(19)
        trials = 20000
        model = SigningModel.PER_QUBIT_PRODUCT
        total = 0.0
        for _ in range(trials):
            key = random_ka(1, model, seed=int(r.integers(0, 2**31)))
            state = haar_random_state(1, r)
            sig = make_signature((BellOutcome.PSI_PLUS,), (state,), key, model)
            wrong = KeyMaterial.random(len(key), OwnerPair.ALICE_ARBITRATOR, r)
            _, (state_back,) = open_signature(sig, wrong, model)
            total += fidelity(state_back, state)
        assert total / trials == pytest.approx(0.5, abs=0.015)
