"""Minimal pure-state qubit simulator.

Statevectors are immutable; every operation returns a fresh value. Qubit 0 is
the leftmost tensor factor (most significant bit of the basis index).
Measurements remove the measured qubits from the register and return the
renormalized residual state, which is all the protocol layer ever needs.

Convention notes:
- |+x>, |-x> = (|0> +/- |1>)/sqrt(2).
- Bell labels are pinned so that outcome Psi- obtained on (message qubit,
  Alice's GHZ share) leaves the Bob/arbitrator pair in alpha|00> - beta|11>.
  That forces Psi+- = (|00> +/- |11>)/sqrt(2) and Phi+- = (|01> +/- |10>)/sqrt(2).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Absolute tolerance for all amplitude-level equality checks. Well above
# double-precision accumulation error for the <= 12 qubit registers we allow.
ATOL = 1e-10

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class PauliOp(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)


class BellOutcome(Enum):
    """The four Bell-measurement outcomes; serialize to 2 classical bits."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def bits(self) -> tuple[int, int]:
        return _BELL_BITS[self]

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self]

    @staticmethod
    def from_bits(b0: int, b1: int) -> "BellOutcome":
        return _BELL_FROM_BITS[(b0, b1)]


_BELL_VECTORS = {
    BellOutcome.PSI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PSI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PHI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV,
    BellOutcome.PHI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV,
}
_BELL_BITS = {
    BellOutcome.PSI_PLUS: (0, 0),
    BellOutcome.PSI_MINUS: (0, 1),
    BellOutcome.PHI_PLUS: (1, 0),
    BellOutcome.PHI_MINUS: (1, 1),
}
_BELL_FROM_BITS = {bits: o for o, bits in _BELL_BITS.items()}
_BELL_ORDER = tuple(_BELL_VECTORS)


class XOutcome(Enum):
    """x-basis measurement outcomes; serialize to 1 classical bit."""

    PLUS_X = "+x"
    MINUS_X = "-x"

    @property
    def bit(self) -> int:
        return 0 if self is XOutcome.PLUS_X else 1

    @property
    def vector(self) -> np.ndarray:
        return _X_VECTORS[self]

    @staticmethod
    def from_bit(b: int) -> "XOutcome":
        return XOutcome.PLUS_X if b == 0 else XOutcome.MINUS_X


_X_VECTORS = {
    XOutcome.PLUS_X: np.array([1, 1], dtype=complex) * _SQRT2_INV,
    XOutcome.MINUS_X: np.array([1, -1], dtype=complex) * _SQRT2_INV,
}
_X_ORDER = tuple(_X_VECTORS)
_Y_PHASES = np.array([-1j, 1j]).reshape(1, 2, 1)  # Y: flip the qubit, then -i on |0>, +i on |1>
for _v in (*_BELL_VECTORS.values(), *_X_VECTORS.values(), _Y_PHASES):
    _v.setflags(write=False)  # shared by every caller and StateVector


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over `qubit_count` qubits."""

    amplitudes: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        amps = self.amplitudes
        if amps.dtype != np.complex128 or amps.ndim != 1:
            amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        size = amps.size
        k = size.bit_length() - 1
        if size != 1 << k or k < 1:
            raise ValueError(f"amplitude array of length {size} is not 2^k, k>=1")
        norm_sq = np.vdot(amps, amps).real
        if abs(norm_sq - 1.0) > 1e-8:
            raise ValueError(f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        if abs(norm_sq - 1.0) > 1e-14:
            amps = amps / np.sqrt(norm_sq)
            amps.setflags(write=False)
        elif amps.flags.writeable:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_count", k)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def new_basis_state(k: int, index: int) -> StateVector:
    """Computational basis state |index> on k qubits."""
    if not 0 <= index < 2**k:
        raise ValueError(f"basis index {index} out of range for {k} qubits")
    amps = np.zeros(2**k, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def ghz_state() -> StateVector:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2), qubits (Alice, Bob, arbitrator)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = _SQRT2_INV
    return StateVector(amps)


def x_state(outcome: XOutcome) -> StateVector:
    return StateVector(outcome.vector)


def _check_target(state: StateVector, target: int) -> None:
    if not 0 <= target < state.qubit_count:
        raise ValueError(f"qubit index {target} out of range for {state.qubit_count} qubits")


def _check_targets(state: StateVector, targets: tuple[int, ...]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"measured qubits {targets} are not distinct")
    for target in targets:
        _check_target(state, target)


# Unitarity checks dominate the Monte Carlo hot path and the same few gate
# matrices recur millions of times, so verified matrices are memoized by value.
# The bound is in bytes because general-key unitaries are fresh Haar draws
# (64 KiB each at n = 6) that never recur across trials.
_UNITARY_CACHE: set[bytes] = set()
_UNITARY_CACHE_MAX_BYTES = 4 * 2**20
_unitary_cache_bytes = 0  # total key length in _UNITARY_CACHE


def _check_unitary(matrix: np.ndarray, atol: float) -> None:
    global _unitary_cache_bytes
    key = matrix.tobytes()
    if key in _UNITARY_CACHE:
        return
    d = matrix.shape[0]
    if not np.allclose(matrix.conj().T @ matrix, np.eye(d), atol=atol):
        raise ValueError("matrix is not unitary")
    if not _UNITARY_CACHE:  # emptied by a caller's clear()
        _unitary_cache_bytes = 0
    if _unitary_cache_bytes + len(key) <= _UNITARY_CACHE_MAX_BYTES:
        _UNITARY_CACHE.add(key)
        _unitary_cache_bytes += len(key)


def _targets_first(amps: np.ndarray, k: int, targets: tuple[int, ...]) -> np.ndarray:
    """The k-qubit amplitudes as a (2^t, 2^(k-t)) matrix whose rows index `targets`.

    This is the operand np.tensordot builds for a contraction over `targets`,
    so one np.dot with it gives tensordot's result bit for bit; the transpose
    (a copy) is skipped when the targets already lead in order.
    """
    t = len(targets)
    if targets != tuple(range(t)):
        rest = [q for q in range(k) if q not in targets]
        amps = amps.reshape([2] * k).transpose([*targets, *rest])
    return amps.reshape(2**t, -1)


def apply_one_qubit(state: StateVector, gate: np.ndarray, target: int) -> StateVector:
    """Apply a 2x2 unitary to one qubit of the register."""
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"gate shape {gate.shape} is not 2x2")
    _check_unitary(gate, ATOL)
    _check_target(state, target)
    k = state.qubit_count
    if k == 1:
        return StateVector(gate @ state.amplitudes)
    out = np.dot(gate, _targets_first(state.amplitudes, k, (target,)))
    if target:  # the product has the acted-on axis first; move it back
        out = np.moveaxis(out.reshape([2] * k), 0, target)
    return StateVector(out.reshape(-1))


def apply_pauli(state: StateVector, pauli: PauliOp, target: int) -> StateVector:
    """Apply a Pauli to one qubit (matrix-free index arithmetic)."""
    if pauli is PauliOp.I:
        return state
    _check_target(state, target)
    k = state.qubit_count
    block = state.amplitudes.reshape(2**target, 2, 2 ** (k - target - 1))
    if pauli is PauliOp.X:
        out = block[:, ::-1, :]
    elif pauli is PauliOp.Z:
        out = block.copy()
        out[:, 1, :] *= -1
    else:
        out = block[:, ::-1, :] * _Y_PHASES
    return StateVector(out.reshape(-1))


def apply_unitary(state: StateVector, unitary: np.ndarray) -> StateVector:
    """Apply a full-register unitary."""
    unitary = np.asarray(unitary, dtype=complex)
    d = state.dim
    if unitary.shape != (d, d):
        raise ValueError(f"unitary shape {unitary.shape} does not match dimension {d}")
    _check_unitary(unitary, 1e-9)
    return StateVector(unitary @ state.amplitudes)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits come first."""
    # np.kron's products, without its generic n-d bookkeeping
    return StateVector(np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1))


# ---------------------------------------------------------------------------
# Registers as blocks. Every multi-qubit payload is a tuple of StateVector
# blocks whose tensor product, in order, is the register: one block per qubit
# for a product register, a single block for an entangled one. Only this
# section maps blocks to qubit positions.


def qubit_count(blocks) -> int:
    return sum(b.qubit_count for b in blocks)


def per_block(blocks, per_qubit, width: int = 1) -> list:
    """Pair each block with its slice of a sequence holding `width` items per qubit."""
    ends = [0, *itertools.accumulate(width * b.qubit_count for b in blocks)]
    if ends[-1] != len(per_qubit):
        raise ValueError(f"{len(per_qubit)} items for {ends[-1] // width} qubits at {width} each")
    return [(b, per_qubit[start:end]) for b, start, end in zip(blocks, ends, ends[1:])]


def join(blocks) -> StateVector:
    """The register as one state: the tensor product of its blocks."""
    return functools.reduce(tensor, blocks)


def qubit_blocks(blocks, what: str) -> tuple[StateVector, ...]:
    """`blocks` if every block is one qubit, else ValueError naming `what`."""
    if any(b.qubit_count != 1 for b in blocks):
        raise ValueError(f"{what} needs one-qubit blocks, got {[b.qubit_count for b in blocks]}")
    return tuple(blocks)


def register_fidelity(a, b) -> float:
    """|<a|b>|^2 of two registers: blockwise if they split alike, else joined."""
    if [x.qubit_count for x in a] != [y.qubit_count for y in b]:
        a, b = (join(a),), (join(b),)
    return math.prod(fidelity(x, y) for x, y in zip(a, b))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("states live on different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return float(abs(inner_product(a, b)) ** 2)


def _project_out(state: StateVector, targets: tuple[int, ...], basis_vector: np.ndarray):
    """Contract `targets` against basis_vector's conjugate; returns (residual array, probability)."""
    bra = basis_vector.conj().reshape(1, -1)
    residual = np.dot(bra, _targets_first(state.amplitudes, state.qubit_count, targets))
    residual = residual.reshape(-1)
    prob = float(np.vdot(residual, residual).real)
    return residual, prob


def _post_measurement(state: StateVector, targets, residual: np.ndarray, p: float):
    """The renormalized residual of a branch of probability p; None if no qubit remains."""
    if len(targets) == state.qubit_count:
        return None
    return StateVector(residual / np.sqrt(p))


def measure(state: StateVector, targets: tuple[int, ...], outcomes, rng: np.random.Generator):
    """Born-rule draw of one of `outcomes` on `targets`; the targets leave the register.

    `outcomes` is an ordered basis of the targets' space, each item carrying
    its basis `.vector`. One uniform u is drawn and the first outcome whose
    cumulative probability exceeds u is taken (the last one if u lands in the
    float slack past every bin); later outcomes are never projected.
    Returns (outcome, renormalized residual or None if no qubit remains).
    """
    _check_targets(state, targets)
    u = rng.random()
    acc = 0.0
    for outcome in outcomes:
        residual, p = _project_out(state, targets, outcome.vector)
        acc += p
        if u < acc:
            break
    return outcome, _post_measurement(state, targets, residual, p)


def project(state: StateVector, targets: tuple[int, ...], outcome):
    """The branch of one outcome, without sampling: (probability, residual or None).

    The residual is what `measure` returns on drawing `outcome`; it is None
    also when the branch's probability is below ATOL. Oracles enumerate
    branches with it.
    """
    _check_targets(state, targets)
    residual, p = _project_out(state, targets, outcome.vector)
    return p, None if p < ATOL else _post_measurement(state, targets, residual, p)


def measure_x(state: StateVector, target: int, rng: np.random.Generator):
    """x-basis measurement of `target`: measure() over (+x, -x)."""
    return measure(state, (target,), _X_ORDER, rng)


def bell_measure(state: StateVector, q1: int, q2: int, rng: np.random.Generator):
    """Bell measurement of the ordered pair (q1, q2): measure() over psi+, psi-, phi+, phi-."""
    return measure(state, (q1, q2), _BELL_ORDER, rng)


def haar_random_state(k: int, rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state on k qubits (normalized complex Gaussian vector)."""
    if k < 1:
        raise ValueError("need at least one qubit")
    d = 2**k
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(z / np.linalg.norm(z))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * _SQRT2_INV
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def product_factors(state: StateVector) -> tuple[StateVector, ...]:
    """Split a product state into its single-qubit factors.

    Raises ValueError if any bipartition (first qubit vs rest) has Schmidt rank
    above 1 beyond tolerance. Factor phases are fixed arbitrarily; only
    fidelity-level comparisons should rely on the result.
    """
    factors = []
    current = state
    while current.qubit_count > 1:
        mat = current.amplitudes.reshape(2, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if s[1] > 1e-8:
            raise ValueError(f"state is entangled (second Schmidt value {s[1]:.3e})")
        factors.append(StateVector(u[:, 0]))
        current = StateVector(vh[0, :])
    factors.append(current)
    return tuple(factors)
