"""Shared classical keys, the signing transform K_a keys, and sealed bundles.

A bundle is a plain dict of named fields: classical bits, a register, or None.
`seal` pads each field with the key slice of the same name (XOR for bits, the
quantum one-time pad for a register; None stays None), and `unseal` opens the
fields asked for. A register's pad is Paulis, kept as key bits the way a Pauli
frame keeps them (Knill, Nature 434:39, 2005): a `Sealed` value holds the
register and its pad bits. Opened with the key slice that sealed it, it gives
back that register, as D_p(E_p(psi)) = psi exactly; its ciphertext is built
(`ciphertext`) only where a tap or a transcript reads it, or another pad
opens it. The signing transform is kept as its key bits too, and a signed
register as a `Signed` value: U is built only where its amplitudes are
read. One name per field: a layout slice, a bundle field and a serialized
key are the same string. Key bits are consumed as disjoint slices
in a fixed, documented order:

  Alice-arbitrator key (K_a), `ka_layout`:
    [signing | sig_state (2n) | sig_bell_bits (2n)]
  signing bits: 2 per qubit for the per-qubit model, 64 for the
  general-unitary model (read big-endian as the key of a Haar unitary,
  qsim.haar_random_unitary: the phase-fixed QR of d^2 keyed normals,
  d = 2^n).

  Bob-arbitrator key (K_b), `kb_layout`: the y_b bundle's fields, then the
  y_tb bundle's, quantum pads sized at 2 bits per qubit.

Disjointness is what makes the pads one-time; nothing here models key reuse.

A key is a 0/1 uint8 array with the trial axis first (see qsim): a block of
T trials holds T keys as a (T, length) array, and `key[..., layout[name]]` is
the slice of one name. Every pad and transform acts trial by trial
on a register (see qsim "Registers"): one StateVector with a block axis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .qsim import (
    HADAMARD,
    PHASE_S,
    BellOutcome,
    StateVector,
    _check_unitary,
    apply_unitary,
    haar_random_unitary,
    join,
    kron_blocks,
    qubit_count,
)


class SigningModel(Enum):
    PER_QUBIT_PRODUCT = "per-qubit"
    GENERAL_UNITARY = "general"


GENERAL_UNITARY_SEED_BITS = 64


def signing_bits(n: int, model: SigningModel) -> int:
    return 2 * n if model is SigningModel.PER_QUBIT_PRODUCT else GENERAL_UNITARY_SEED_BITS


def _contiguous(fields, start=0) -> dict[str, slice]:
    """Slices, one per (name, length), laid end to end from `start`."""
    layout = {}
    for name, length in fields:
        layout[name] = slice(start, start + length)
        start += length
    return layout


def ka_layout(n: int, model: SigningModel) -> dict[str, slice]:
    """Slices of K_a, in consumption order."""
    return _contiguous([("signing", signing_bits(n, model)), ("sig_state", 2 * n), ("sig_bell_bits", 2 * n)])


def ka_bits_required(n: int, model: SigningModel) -> int:
    return ka_layout(n, model)["sig_bell_bits"].stop


@functools.cache
def kb_layout(n: int) -> Mapping[str, Mapping[str, slice]]:
    """Slices of K_b for each bundle's fields, in consumption order;
    read-only, built once per n.

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
        start=y_b["msg_state"].stop,
    )
    return MappingProxyType({"y_b": MappingProxyType(y_b), "y_tb": MappingProxyType(y_tb)})


def kb_bits_required(n: int) -> int:
    return kb_layout(n)["y_tb"]["particles"].stop


# Per-qubit keyed set, indexed by 2 key bits; contains the identity (index 0)
# and generates non-commuting transforms.
_PER_QUBIT_SET = np.stack([np.eye(2, dtype=complex), HADAMARD, PHASE_S, HADAMARD @ PHASE_S])
_check_unitary(_PER_QUBIT_SET, 1e-9)  # once: a per-qubit stack is a gather from it
_PER_QUBIT_SET.setflags(write=False)  # shared by every per-qubit transform


@dataclass(frozen=True, eq=False)
class SigningTransform:
    """The keyed unitary Alice and the arbitrator sign with, held as K_a's
    signing bits, (..., signing_bits) with the trial axis first."""

    bits: np.ndarray
    n: int
    model: SigningModel

    @functools.cached_property
    def unitaries(self) -> np.ndarray:
        """One unitary per block, on the register's block axis: (..., n, 2, 2)
        for per-qubit keys, (..., 1, 2^n, 2^n) for a general key. Built and
        checked on the first read (a per-qubit stack is a gather from the
        checked table) and read-only, so neither party can alter it."""
        bits = self.bits
        if self.model is SigningModel.PER_QUBIT_PRODUCT:
            unitaries = _PER_QUBIT_SET[2 * bits[..., 0::2] + bits[..., 1::2]]
        else:
            # each trial's 64 bits, packed big-endian, key its own Haar unitary
            keys = np.packbits(bits.reshape(-1, bits.shape[-1]), axis=-1).view(">u8")[:, 0].astype(np.uint64)
            u = haar_random_unitary(2**self.n, keys)
            unitaries = u.reshape(bits.shape[:-1] + (1,) + u.shape[-2:])
            _check_unitary(unitaries, 1e-9)
        unitaries.setflags(write=False)
        return unitaries

    def apply(self, register: StateVector) -> StateVector:
        """One apply_unitary call, once the block widths match: a register of
        narrower blocks is joined, a stack of narrower unitaries is kron'd."""
        unitaries = self.unitaries
        if register.dim < unitaries.shape[-1]:
            register = join(register)
        elif register.dim > unitaries.shape[-1]:
            unitaries = kron_blocks(unitaries)
        return apply_unitary(register, unitaries)


def derive_signing_transform(key: np.ndarray, n: int, model: SigningModel) -> SigningTransform:
    """The signing transform K_a's signing slice keys, one per trial: the
    initial phase derives it once per block, as key bits, and hands the one
    transform to Alice and to the arbitrator."""
    bits = key[..., ka_layout(n, model)["signing"]]
    if bits.shape[-1] < signing_bits(n, model):
        raise ValueError(f"key too short: {bits.shape[-1]} of {signing_bits(n, model)} signing bits")
    return SigningTransform(bits, n, model)


@dataclass(frozen=True)
class Signed:
    """U x, held as the register x and the transform U: the amplitudes are
    built only where `state` reads them."""

    register: StateVector
    transform: SigningTransform

    def state(self) -> StateVector:
        return self.transform.apply(self.register)


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


def _qotp(register: StateVector, pad_bits: np.ndarray, encrypt: bool) -> StateVector:
    """The pad's Paulis on every block of every trial.

    A qubit's X^a Z^b, (a, b) = pad[2i], pad[2i+1], maps amplitude i to
    (-1)^((i^a) & b) psi[i^a]; its inverse, Z^b X^a, to (-1)^(i & b) psi[i^a].
    Each block's X and Z bits are packed into masks x and z, and the pad is
    one gather and a sign, (-1)^popcount((i^x) & z) psi[i^x] and
    (-1)^popcount(i & z) psi[i^x].
    Each trial has its own pad, or one pad without a trial axis serves the
    whole block.
    """
    pad = np.asarray(pad_bits, dtype=np.uint8)
    k = register.qubit_count
    if pad.shape[-1] != 2 * qubit_count(register):
        raise ValueError(f"{pad.shape[-1]} pad bits for {qubit_count(register)} qubits at 2 each")
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


@dataclass(frozen=True)
class Sealed:
    """A register under a quantum one-time pad, held as the plain register
    (itself sealed, for a field sealed twice) and its pad bits, a view of the
    key slice: no amplitude is padded until `ciphertext` reads it."""

    content: StateVector | Signed | Sealed
    pad: np.ndarray


def ciphertext(sealed: Sealed) -> StateVector:
    """The padded amplitudes a party or a tap reads, the innermost pad first
    and a signed register transformed before it."""
    content = sealed.content
    if isinstance(content, Sealed):
        content = ciphertext(content)
    elif isinstance(content, Signed):
        content = content.state()
    return qotp_encrypt(content, sealed.pad)


def _seal(value, pad: np.ndarray):
    if isinstance(value, (StateVector, Sealed, Signed)):
        return Sealed(value, pad)
    return None if value is None else classical_encrypt(value, pad)


def _open(value, pad: np.ndarray):
    if isinstance(value, Sealed):
        if np.array_equal(value.pad, pad):  # the sealing pad in every trial: D_p(E_p(psi)) = psi
            return value.content
        value = ciphertext(value)
    if isinstance(value, StateVector):
        return qotp_decrypt(value, pad)
    return None if value is None else classical_decrypt(value, pad)


def seal(fields: Mapping[str, object], key: np.ndarray, layout: Mapping[str, slice]) -> dict:
    """The bundle of `fields`, each padded by the key slice of the same name;
    a register is kept as a Sealed value."""
    return {name: _seal(value, key[..., layout[name]]) for name, value in fields.items()}


def unseal(bundle: Mapping[str, object], key: np.ndarray, layout: Mapping[str, slice], names) -> dict:
    """The named fields of a bundle, opened; no other field is touched. A
    register opened with the key slice that sealed it is the sealed register
    itself; any other is decrypted from its ciphertext."""
    return {name: _open(bundle[name], key[..., layout[name]]) for name in names}


def make_signature(m_a: np.ndarray, r: Signed, key: np.ndarray, model: SigningModel) -> dict:
    """Seal M_a (Bell outcome positions, qubit axis last) and the signature
    `r` under K_a."""
    fields = {"sig_bell_bits": bell_outcomes_to_bits(m_a), "sig_state": r}
    return seal(fields, key, ka_layout(m_a.shape[-1], model))


def open_signature(sig: Mapping[str, object], key: np.ndarray, model: SigningModel) -> tuple[np.ndarray, Signed | StateVector]:
    """M_a and R from a bundle holding the K_a-sealed signature fields."""
    n = sig["sig_bell_bits"].shape[-1] // 2
    opened = unseal(sig, key, ka_layout(n, model), ("sig_bell_bits", "sig_state"))
    return bits_to_bell_outcomes(opened["sig_bell_bits"]), opened["sig_state"]
