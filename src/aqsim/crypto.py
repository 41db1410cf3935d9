"""Classical key material and the keyed transforms built from it.

Key bits are consumed as disjoint slices in a fixed, documented order:

  Alice-arbitrator key (K_a):
    [signing-transform bits | quantum pad for the signature state (2n) |
     classical pad for the Bell outcome bits (2n)]
  signing-transform bits: 2 per qubit for the per-qubit model, 64 for the
  general-unitary model (they seed a deterministic Haar draw).

  Bob-arbitrator key (K_b): see `kb_layout`; one slice per encrypted field of
  the two protocol bundles, quantum pads sized at 2 bits per qubit.

Disjointness is what makes the pads one-time; nothing here models key reuse.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .qsim import (
    HADAMARD,
    PHASE_S,
    BellOutcome,
    PauliOp,
    StateVector,
    apply_pauli,
    apply_unitary,
    haar_random_unitary,
    join,
    per_block,
    qubit_count,
)


class OwnerPair(Enum):
    ALICE_ARBITRATOR = "K_a"
    BOB_ARBITRATOR = "K_b"


class SigningModel(Enum):
    PER_QUBIT_PRODUCT = "per-qubit"
    GENERAL_UNITARY = "general"


@dataclass(frozen=True)
class KeyMaterial:
    """Shared classical bitstring; sub-keys are disjoint slices of `bits`."""

    bits: np.ndarray
    owner_pair: OwnerPair

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or not np.all(bits <= 1):
            raise ValueError("key bits must be a flat 0/1 array")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.size

    def slice(self, start: int, length: int) -> np.ndarray:
        if start + length > self.bits.size:
            raise ValueError(
                f"key too short: need bits [{start}, {start + length}), have {self.bits.size}"
            )
        return self.bits[start : start + length]

    def to_hex(self) -> str:
        return np.packbits(self.bits).tobytes().hex()

    @staticmethod
    def from_hex(hexstr: str, owner_pair: OwnerPair, n_bits: int) -> "KeyMaterial":
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8))[:n_bits]
        return KeyMaterial(bits, owner_pair)

    @staticmethod
    def random(n_bits: int, owner_pair: OwnerPair, rng: np.random.Generator) -> "KeyMaterial":
        return KeyMaterial(rng.integers(0, 2, size=n_bits, dtype=np.uint8), owner_pair)


GENERAL_UNITARY_SEED_BITS = 64


def signing_bits(n: int, model: SigningModel) -> int:
    return 2 * n if model is SigningModel.PER_QUBIT_PRODUCT else GENERAL_UNITARY_SEED_BITS


def ka_layout(n: int, model: SigningModel) -> dict[str, tuple[int, int]]:
    """(start, length) slices of K_a, in consumption order."""
    s = signing_bits(n, model)
    return {
        "signing": (0, s),
        "sig_state_pad": (s, 2 * n),
        "sig_bell_pad": (s + 2 * n, 2 * n),
    }


def ka_bits_required(n: int, model: SigningModel) -> int:
    start, length = ka_layout(n, model)["sig_bell_pad"]
    return start + length


@functools.cache
def kb_layout(n: int) -> Mapping[str, tuple[int, int]]:
    """(start, length) slices of K_b, in consumption order; read-only, built once per n.

    The y_b bundle pads come first, then the y_tb pads. The signature travels
    in both bundles and gets an independent wrapping pad each time.
    """
    sizes = [
        ("yb_mb_pad", n),
        ("yb_sig_bell_pad", 2 * n),
        ("yb_sig_state_pad", 2 * n),
        ("yb_msg_state_pad", 2 * n),
        ("ytb_ma_pad", 2 * n),
        ("ytb_mb_pad", n),
        ("ytb_mt_pad", n),
        ("ytb_gamma_pad", 1),
        ("ytb_sig_bell_pad", 2 * n),
        ("ytb_sig_state_pad", 2 * n),
        ("ytb_particle_pad", 2 * n),
    ]
    layout = {}
    start = 0
    for name, length in sizes:
        layout[name] = (start, length)
        start += length
    return MappingProxyType(layout)


def kb_bits_required(n: int) -> int:
    start, length = kb_layout(n)["ytb_particle_pad"]
    return start + length


@dataclass(frozen=True)
class SigningTransform:
    """Deterministic keyed unitary applied to the message register."""

    model: SigningModel
    unitaries: tuple[np.ndarray, ...]  # one 2x2 per qubit, or a single 2^n x 2^n

    def apply(self, blocks) -> tuple[StateVector, ...]:
        """Per-qubit unitaries act within each block; a general unitary acts on
        the joined register and returns it as one block."""
        if self.model is SigningModel.GENERAL_UNITARY:
            return (apply_unitary(join(blocks), self.unitaries[0]),)
        return tuple(
            apply_unitary(b, functools.reduce(np.kron, us))
            for b, us in per_block(blocks, self.unitaries)
        )

    def inverse(self) -> "SigningTransform":
        return SigningTransform(self.model, tuple(u.conj().T for u in self.unitaries))


# Per-qubit keyed set, indexed by 2 key bits; contains the identity (index 0)
# and generates non-commuting transforms.
_PER_QUBIT_SET = (
    np.eye(2, dtype=complex),
    HADAMARD,
    PHASE_S,
    HADAMARD @ PHASE_S,
)
for _u in _PER_QUBIT_SET:
    _u.setflags(write=False)  # shared by every per-qubit transform


def derive_signing_transform(key: KeyMaterial, n: int, model: SigningModel) -> SigningTransform:
    """Deterministically derive the signing unitary from the key's signing slice.

    Alice and the arbitrator each derive it from the same K_a slice within one
    run, so the last derivation is memoized: the second call skips the Haar
    draw and QR. The unitaries are read-only, so no caller can alter what the
    next one is handed.
    """
    bits = key.slice(*ka_layout(n, model)["signing"])
    return _transform_from_bits(bits.tobytes(), n, model)


@functools.lru_cache(maxsize=1)
def _transform_from_bits(signing: bytes, n: int, model: SigningModel) -> SigningTransform:
    bits = np.frombuffer(signing, dtype=np.uint8)
    if model is SigningModel.PER_QUBIT_PRODUCT:
        unitaries = tuple(_PER_QUBIT_SET[2 * bits[2 * i] + bits[2 * i + 1]] for i in range(n))
        return SigningTransform(model, unitaries)
    seed = int(np.packbits(bits).tobytes().hex(), 16)
    u = haar_random_unitary(2**n, np.random.default_rng(seed))
    u.setflags(write=False)
    return SigningTransform(model, (u,))


def qotp_encrypt(blocks, pad_bits: np.ndarray) -> tuple[StateVector, ...]:
    """Quantum one-time pad on a register's blocks: X^a Z^b on qubit i with
    (a, b) = pad[2i], pad[2i+1]."""
    out = []
    for block, bits in per_block(blocks, np.asarray(pad_bits, dtype=np.uint8), 2):
        for j in range(block.qubit_count):
            if bits[2 * j + 1]:
                block = apply_pauli(block, PauliOp.Z, j)
            if bits[2 * j]:
                block = apply_pauli(block, PauliOp.X, j)
        out.append(block)
    return tuple(out)


def qotp_decrypt(blocks, pad_bits: np.ndarray) -> tuple[StateVector, ...]:
    """Inverse of qotp_encrypt (undoes X before Z per qubit)."""
    out = []
    for block, bits in per_block(blocks, np.asarray(pad_bits, dtype=np.uint8), 2):
        for j in range(block.qubit_count):
            if bits[2 * j]:
                block = apply_pauli(block, PauliOp.X, j)
            if bits[2 * j + 1]:
                block = apply_pauli(block, PauliOp.Z, j)
        out.append(block)
    return tuple(out)


def classical_encrypt(bits: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Bitwise XOR pad."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = np.asarray(pad, dtype=np.uint8)
    if pad.size < bits.size:
        raise ValueError(f"pad of {pad.size} bits too short for {bits.size} bits")
    return bits ^ pad[: bits.size]


classical_decrypt = classical_encrypt  # XOR is an involution


def bell_outcomes_to_bits(outcomes) -> np.ndarray:
    return np.array([b for o in outcomes for b in o.bits], dtype=np.uint8)


def bits_to_bell_outcomes(bits: np.ndarray) -> tuple[BellOutcome, ...]:
    bits = np.asarray(bits, dtype=np.uint8)
    return tuple(
        BellOutcome.from_bits(int(bits[2 * i]), int(bits[2 * i + 1]))
        for i in range(bits.size // 2)
    )


@dataclass(frozen=True)
class SignaturePackage:
    """K_a-encrypted (Bell outcome, signature state) pair."""

    enc_bell: np.ndarray  # 2n XOR-padded classical bits
    enc_state: tuple[StateVector, ...]  # quantum-one-time-padded signature blocks

    def __post_init__(self):
        enc = np.asarray(self.enc_bell, dtype=np.uint8)
        enc.setflags(write=False)
        object.__setattr__(self, "enc_bell", enc)


def make_signature(
    m_a: tuple[BellOutcome, ...],
    r,
    key: KeyMaterial,
    model: SigningModel,
) -> SignaturePackage:
    """Package M_a and the signature blocks `r` under K_a."""
    n = qubit_count(r)
    layout = ka_layout(n, model)
    enc_bell = classical_encrypt(bell_outcomes_to_bits(m_a), key.slice(*layout["sig_bell_pad"]))
    enc_state = qotp_encrypt(r, key.slice(*layout["sig_state_pad"]))
    return SignaturePackage(enc_bell, enc_state)


def open_signature(
    sig: SignaturePackage, key: KeyMaterial, model: SigningModel
) -> tuple[tuple[BellOutcome, ...], tuple[StateVector, ...]]:
    n = qubit_count(sig.enc_state)
    layout = ka_layout(n, model)
    bell_bits = classical_decrypt(sig.enc_bell, key.slice(*layout["sig_bell_pad"]))
    r = qotp_decrypt(sig.enc_state, key.slice(*layout["sig_state_pad"]))
    return bits_to_bell_outcomes(bell_bits), r
