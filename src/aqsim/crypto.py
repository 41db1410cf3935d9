"""Classical key material, the keyed transforms built from it, and sealed bundles.

A bundle is a plain dict of named fields: classical bits, a register, or None.
`seal` pads each field with the key slice of the same name (XOR for bits, the
quantum one-time pad for a register; None stays None), and `unseal` opens the
fields asked for. One name per field: a layout slice, a bundle field and a
serialized key are the same string. Key bits are consumed as disjoint slices
in a fixed, documented order:

  Alice-arbitrator key (K_a), `ka_layout`:
    [signing | sig_state (2n) | sig_bell_bits (2n)]
  signing bits: 2 per qubit for the per-qubit model, 64 for the
  general-unitary model (read big-endian as the key of a Haar unitary, see
  qsim.haar_random_unitary).

  Bob-arbitrator key (K_b), `kb_layout`: the y_b bundle's fields, then the
  y_tb bundle's, quantum pads sized at 2 bits per qubit.

Disjointness is what makes the pads one-time; nothing here models key reuse.

Key bits carry the trial axis first (see qsim): a block of T trials holds
T keys as a (T, length) array, and every pad and transform acts trial by trial
on a register (see qsim "Registers"): one StateVector with a block axis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .qsim import (
    HADAMARD,
    PHASE_S,
    BellOutcome,
    StateVector,
    _check_unitary,
    _flip_and_phase,
    apply_unitary,
    haar_random_unitary,
    join,
    kron_blocks,
    qubit_count,
)


class SigningModel(Enum):
    PER_QUBIT_PRODUCT = "per-qubit"
    GENERAL_UNITARY = "general"


@dataclass(frozen=True)
class KeyMaterial:
    """Shared classical bitstrings, one per trial (`bits` has shape batch +
    (length,)); sub-keys are disjoint slices of the last axis."""

    bits: np.ndarray
    # signing transforms derived from these bits, by (n, model); freed with the key
    _transforms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim < 1 or not np.all(bits <= 1):
            raise ValueError("key bits must be a 0/1 array")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.shape[-1]

    def slice(self, start: int, length: int) -> np.ndarray:
        if start + length > len(self):
            raise ValueError(
                f"key too short: need bits [{start}, {start + length}), have {len(self)}"
            )
        return self.bits[..., start : start + length]

    @staticmethod
    def random(n_bits: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> "KeyMaterial":
        return KeyMaterial(rng.integers(0, 2, size=batch + (n_bits,), dtype=np.uint8))


GENERAL_UNITARY_SEED_BITS = 64


def signing_bits(n: int, model: SigningModel) -> int:
    return 2 * n if model is SigningModel.PER_QUBIT_PRODUCT else GENERAL_UNITARY_SEED_BITS


def _contiguous(fields, start=0) -> dict[str, tuple[int, int]]:
    """(start, length) slices, one per (name, length), laid end to end from `start`."""
    layout = {}
    for name, length in fields:
        layout[name] = (start, length)
        start += length
    return layout


def ka_layout(n: int, model: SigningModel) -> dict[str, tuple[int, int]]:
    """(start, length) slices of K_a, in consumption order."""
    return _contiguous([("signing", signing_bits(n, model)), ("sig_state", 2 * n), ("sig_bell_bits", 2 * n)])


def ka_bits_required(n: int, model: SigningModel) -> int:
    start, length = ka_layout(n, model)["sig_bell_bits"]
    return start + length


@functools.cache
def kb_layout(n: int) -> Mapping[str, Mapping[str, tuple[int, int]]]:
    """(start, length) slices of K_b for each bundle's fields, in consumption
    order; read-only, built once per n.

    The y_b bundle's pads come first, then the y_tb bundle's. The signature
    travels in both bundles and gets an independent wrapping pad each time.
    """
    y_b = _contiguous([("mb_bits", n), ("sig_bell_bits", 2 * n), ("sig_state", 2 * n), ("msg_state", 2 * n)])
    y_tb = _contiguous(
        [
            ("ma_bits", 2 * n),
            ("mb_bits", n),
            ("mt_bits", n),
            ("gamma_bit", 1),
            ("sig_bell_bits", 2 * n),
            ("sig_state", 2 * n),
            ("particles", 2 * n),
        ],
        start=sum(y_b["msg_state"]),
    )
    return MappingProxyType({"y_b": MappingProxyType(y_b), "y_tb": MappingProxyType(y_tb)})


def kb_bits_required(n: int) -> int:
    start, length = kb_layout(n)["y_tb"]["particles"]
    return start + length


@dataclass(frozen=True)
class SigningTransform:
    """Deterministic keyed unitary applied to the message register."""

    # one unitary per block, on the register's block axis: (..., n, 2, 2) for
    # per-qubit keys, (..., 1, 2^n, 2^n) for a general key; trial axis first
    unitaries: np.ndarray

    def apply(self, register: StateVector) -> StateVector:
        """One apply_unitary call, once the block widths match: a register of
        narrower blocks is joined, a stack of narrower unitaries is kron'd."""
        unitaries = self.unitaries
        if register.dim < unitaries.shape[-1]:
            register = join(register)
        elif register.dim > unitaries.shape[-1]:
            unitaries = kron_blocks(unitaries)
        return apply_unitary(register, unitaries)

    def inverse(self) -> "SigningTransform":
        return SigningTransform(np.swapaxes(self.unitaries.conj(), -1, -2))


# Per-qubit keyed set, indexed by 2 key bits; contains the identity (index 0)
# and generates non-commuting transforms.
_PER_QUBIT_SET = np.stack([np.eye(2, dtype=complex), HADAMARD, PHASE_S, HADAMARD @ PHASE_S])
_check_unitary(_PER_QUBIT_SET, 1e-9)  # once: a per-qubit stack is a gather from it
_PER_QUBIT_SET.setflags(write=False)  # shared by every per-qubit transform


def derive_signing_transform(key: KeyMaterial, n: int, model: SigningModel) -> SigningTransform:
    """Deterministically derive the signing unitary from the key's signing slice.

    Each trial's transform comes from its own key. Alice and the arbitrator
    each derive it from the same K_a within one block, so the derivation is
    memoized on that K_a: the second call skips the Haar draws and QR, and the
    unitaries are freed with the block's key. A general key's unitaries are
    checked once, here; a per-qubit stack is a gather from _PER_QUBIT_SET,
    checked at import. Both are read-only, so no caller can alter what the
    next one is handed.
    """
    transform = key._transforms.get((n, model))
    if transform is not None:
        return transform
    bits = key.slice(*ka_layout(n, model)["signing"])
    if model is SigningModel.PER_QUBIT_PRODUCT:
        unitaries = _PER_QUBIT_SET[2 * bits[..., 0::2] + bits[..., 1::2]]
    else:
        # each trial's 64 bits, packed big-endian, key its own Haar unitary
        keys = np.packbits(bits.reshape(-1, bits.shape[-1]), axis=-1).view(">u8")[:, 0].astype(np.uint64)
        u = haar_random_unitary(2**n, keys)
        unitaries = u.reshape(bits.shape[:-1] + (1,) + u.shape[-2:])
        _check_unitary(unitaries, 1e-9)
    unitaries.setflags(write=False)
    transform = key._transforms[n, model] = SigningTransform(unitaries)
    return transform


@functools.cache
def _pad_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For k-qubit blocks: the basis indices 0..2^k-1, the sign (-1)^parity of
    each, and each qubit's bit weight (qubit 0 most significant)."""
    parity = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        parity = np.concatenate([parity, parity ^ 1])
    tables = np.arange(2**k), 1.0 - 2.0 * parity, 1 << np.arange(k - 1, -1, -1)
    for table in tables:
        table.setflags(write=False)  # shared by every pad of k-qubit blocks
    return tables


# On a one-qubit block, the sign of output bit i in row 2a + b: (-1)^((i^a) & b)
# for X^a Z^b, (-1)^(i & b) for Z^b X^a. Shaped as qsim._flip_and_phase's
# phase, (..., 2, 1).
_ENCRYPT_SIGNS = np.array([[1, 1], [1, -1], [1, 1], [-1, 1]], dtype=complex)[..., None]
_DECRYPT_SIGNS = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=complex)[..., None]
_ENCRYPT_SIGNS.setflags(write=False)
_DECRYPT_SIGNS.setflags(write=False)


def _qotp(register: StateVector, pad_bits: np.ndarray, encrypt: bool) -> StateVector:
    """The pad's Paulis on every block of every trial.

    A qubit's X^a Z^b, (a, b) = pad[2i], pad[2i+1], maps amplitude i to
    (-1)^((i^a) & b) psi[i^a]; its inverse, Z^b X^a, to (-1)^(i & b) psi[i^a].
    One-qubit blocks take that as it stands: a swap of the amplitude pair
    where a is set, then a sign row. Wider blocks pack each block's X and Z
    bits into masks x and z and take one gather and a sign,
    (-1)^popcount((i^x) & z) psi[i^x] and (-1)^popcount(i & z) psi[i^x].
    Each trial has its own pad, or one pad without a trial axis serves the
    whole block.
    """
    pad = np.asarray(pad_bits, dtype=np.uint8)
    k = register.qubit_count
    if pad.shape[-1] != 2 * qubit_count(register):
        raise ValueError(f"{pad.shape[-1]} pad bits for {qubit_count(register)} qubits at 2 each")
    if k == 1:
        a, b = pad[..., 0::2], pad[..., 1::2]
        block = register.amplitudes[..., None]
        signs = (_ENCRYPT_SIGNS if encrypt else _DECRYPT_SIGNS)[2 * a + b]
        out = _flip_and_phase(block, a.view(bool)[..., None, None], signs)
        return StateVector.owning(out[..., 0])
    index, signs, weights = _pad_tables(k)
    # trials, blocks, qubits in block, (x, z); each bit column packed into a mask
    bits = pad.reshape(pad.shape[:-1] + (-1, k, 2))
    x, z = np.vecdot(bits[..., 0], weights)[..., None], np.vecdot(bits[..., 1], weights)[..., None]
    source = index ^ x
    sign = signs[(source if encrypt else index) & z]
    amps = register.amplitudes
    shape = np.broadcast_shapes(amps.shape, source.shape)
    rows = np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1] + (1,))
    out = np.broadcast_to(amps, shape).reshape(-1)[rows + source]
    out *= sign
    return StateVector.owning(out)


def qotp_encrypt(register: StateVector, pad_bits: np.ndarray) -> StateVector:
    """Quantum one-time pad on a register: X^a Z^b on qubit i with
    (a, b) = pad[2i], pad[2i+1]."""
    return _qotp(register, pad_bits, encrypt=True)


def qotp_decrypt(register: StateVector, pad_bits: np.ndarray) -> StateVector:
    """Inverse of qotp_encrypt (undoes X before Z per qubit)."""
    return _qotp(register, pad_bits, encrypt=False)


def classical_encrypt(bits: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Bitwise XOR pad along the last axis."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = np.asarray(pad, dtype=np.uint8)
    if pad.shape[-1] < bits.shape[-1]:
        raise ValueError(f"pad of {pad.shape[-1]} bits too short for {bits.shape[-1]} bits")
    return bits ^ pad[..., : bits.shape[-1]]


classical_decrypt = classical_encrypt  # XOR is an involution

# Bell outcome positions (qubit axis last) to their classical bits, and back.
# An x outcome's position is its bit, sealed and opened as it is.
_BELL_BITS = np.array([o.bits for o in BellOutcome], dtype=np.uint8)


def bell_outcomes_to_bits(outcomes: np.ndarray) -> np.ndarray:
    """Two bits per outcome along the last axis."""
    bits = _BELL_BITS[outcomes]
    return bits.reshape(bits.shape[:-2] + (-1,))


def bits_to_bell_outcomes(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.intp)
    return 2 * bits[..., 0::2] + bits[..., 1::2]


def _pad(value, pad: np.ndarray, quantum):
    if value is None:
        return None
    if isinstance(value, StateVector):
        return quantum(value, pad)
    return classical_encrypt(value, pad)


def seal(fields: Mapping[str, object], key: KeyMaterial, layout: Mapping[str, tuple[int, int]]) -> dict:
    """The bundle of `fields`, each padded by the key slice of the same name."""
    return {name: _pad(value, key.slice(*layout[name]), qotp_encrypt) for name, value in fields.items()}


def unseal(bundle: Mapping[str, object], key: KeyMaterial, layout: Mapping[str, tuple[int, int]], names) -> dict:
    """The named fields of a sealed bundle, opened; no other field is touched."""
    return {name: _pad(bundle[name], key.slice(*layout[name]), qotp_decrypt) for name in names}


def make_signature(m_a: np.ndarray, r: StateVector, key: KeyMaterial, model: SigningModel) -> dict:
    """Seal M_a (Bell outcome positions, qubit axis last) and the signature
    register `r` under K_a."""
    fields = {"sig_bell_bits": bell_outcomes_to_bits(m_a), "sig_state": r}
    return seal(fields, key, ka_layout(qubit_count(r), model))


def open_signature(sig: Mapping[str, object], key: KeyMaterial, model: SigningModel) -> tuple[np.ndarray, StateVector]:
    """M_a and R from a bundle holding the K_a-sealed signature fields."""
    opened = unseal(sig, key, ka_layout(qubit_count(sig["sig_state"]), model), ("sig_bell_bits", "sig_state"))
    return bits_to_bell_outcomes(opened["sig_bell_bits"]), opened["sig_state"]
